"""Packed t-polynomials: the round trip of series._pack and series._unpack,
the width bound of series._packed_width measured on the recursions that run
packed (walk rows, f-powers, commutator rows, edge tallies, the rooted
walk's defect series and the cyclic-bump entries on the diagonal and off
it) at orders 16 and 64, held under the closed form it replaced and not
raised by the rooted bounds, the digit width of the adjacency counts that
regular graphs run instead, the width of the formula route's exponent, the
computed width and scale of the packed exp recurrence that the routes reach
through series._exp_from_scaled, and the computed widths of the per-root
identity checks."""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

import pytest

import bzk.edgewalk
import bzk.operators
import bzk.series
import bzk.zeta
from bzk.edgewalk import edge_closed_tallies
from bzk.graphs import generate
from bzk.operators import (_adjacency_rows, _count_width, _cyclic_bump_sides, _no_tail_sides,
                           _r_generating_sides, _r_recursion, _rooted_walk, _sides_width,
                           _walk_rows, cbc_terms, check_cyclic_bump_identity,
                           check_no_tail_identity, check_r_generating_identity)
from bzk.series import (TPOLY_ZERO, TPoly, _digit_width, _digits, _pack, _packed_width,
                        _unpack)
from bzk.zeta import cbc_entries, euler_product_series, zeta_formula_series, zeta_log_series
from conftest import (CORPUS, FRUCHT, NON_TRANSITIVE, REGULAR, random_circulants,
                      random_connected_graph)

from _oracles import fraction_exp, series_from_scaled


@pytest.mark.parametrize("width", [2, 3, 8, 33, 40, 280, _packed_width(3, 10), _packed_width(6, 64)])
def test_pack_round_trip(width):
    half = 1 << (width - 1)
    rng = random.Random(width)
    for _ in range(500):
        coeffs = [rng.randint(-half + 1, half - 1) for _ in range(rng.randint(0, 12))]
        assert _unpack(_pack(coeffs, width), width) == TPoly(coeffs)
    # the extreme digits, alone, between others and at the top
    for c in (1, -1, half - 1, -(half - 1), -half):
        for coeffs in ([c], [c, c], [0, c], [c, 0, -1], [1, c, 1], [-1, 0, c]):
            assert _unpack(_pack(coeffs, width), width).c == tuple(coeffs), coeffs


def test_unpack_is_canonical():
    width = _packed_width(4, 12)
    assert _pack([], width) == _pack([0, 0], width) == 0
    assert _unpack(0, width) is TPOLY_ZERO
    # trailing zeros are dropped, inner zeros kept
    assert _unpack(_pack([3, 0, -2, 0, 0], width), width).c == (3, 0, -2)
    assert _unpack(_pack([0, 0, 0, 5, 0], width), width).c == (0, 0, 0, 5)
    # packing evaluates at t = 2^width, so sums and products carry over
    a, b = [5, -7, 1], [-2, 0, 3, -1]
    assert _unpack(_pack(a, width) + _pack(b, width), width) == TPoly(a) + TPoly(b)
    assert _unpack(_pack(a, width) * _pack(b, width), width) == TPoly(a) * TPoly(b)


def _bound_graphs():
    graphs = dict(CORPUS)
    graphs["star(6)"] = generate("star", 6)
    rng = random.Random(1515)
    for k in range(20):
        graphs[f"random {k}"] = random_connected_graph(rng, rng.randint(2, 10))
    return graphs


def _clear_packed_caches():
    bzk.operators._rooted_walk.cache_clear()
    bzk.operators._closed_tallies.cache_clear()
    bzk.zeta._f_power_table.cache_clear()


def _largest(value, width):
    """Largest |coefficient| of a packed value."""
    return max((abs(c) for c in _unpack(value, width).c), default=0)


@lru_cache(maxsize=None)
def _ones(count, width):
    """The int with a 1 in each of its count lowest base-2^width digits."""
    return ((1 << (count * width)) - 1) // ((1 << width) - 1)


def _coefficient_bits(v, width, at_least=0):
    """The bit length of the largest |c| over the balanced base-2^width
    digits c of v, each with |c| < 2^(width-1), or at_least if that is
    larger.  Every |c| < 2^b exactly when adding 2^b to every digit of v and
    of -v leaves each in [0, 2^(b+1)); the sums show that, in a few big-int
    operations, as no bit at b + 1 or above in any digit, since the lowest
    digit out of range sets one there, by overflow or by the borrow of a
    negative value.  One such test at b = at_least settles most calls, and
    the rest bisect above it."""
    ones = _ones(abs(v).bit_length() // width + 2, width)

    def fits(b):
        high = ((1 << width) - (1 << (b + 1))) * ones
        return not ((v + (ones << b)) & high or (-v + (ones << b)) & high)

    if at_least >= width - 1 or fits(at_least):
        return at_least
    low, high = at_least + 1, width - 1
    while low < high:
        mid = (low + high) // 2
        if fits(mid):
            high = mid
        else:
            low = mid + 1
    return low


def test_coefficient_bits_reads_the_largest_digit():
    rng = random.Random(7)
    for width in (8, 16, 40):
        half = 1 << (width - 1)
        for _ in range(300):
            coeffs = [rng.choice([0, 1, -1, half - 1, -half + 1, rng.randint(-half + 1, half - 1)])
                      for _ in range(rng.randint(0, 9))]
            want = max((abs(c).bit_length() for c in coeffs), default=0)
            v = _pack(coeffs, width)
            assert _coefficient_bits(v, width) == want, coeffs
            assert _coefficient_bits(v, width, 3) == max(want, 3), coeffs


def _closed_form_width(max_degree, order):
    """The width D^2 (order+2) (3D)^order, D = max(max degree, 2), that
    series._packed_width took before it read the recursions' own growth;
    its docstring proved it a bound on every coefficient they build."""
    big_d = max(max_degree, 2)
    return (big_d * big_d * (order + 2) * (3 * big_d) ** order).bit_length() + 1


def _packed_width_margins(monkeypatch, graphs, order, tally_order, roots):
    """{what: (margin, graph)}: the fewest bits to spare, 2^(width-1) over
    the largest |coefficient|, of every value that the recursions decode,
    compare or hold as a digit, each against the width the recursion really
    uses.  Every recursion runs at the old closed-form width or wider, which
    bounds every coefficient, so every value is exact.

    Decoded: the rooted diagonals, defects and defect series R_m, the
    cyclic-bump entries that the log route decodes on the diagonal and to
    the next vertex, all at the pass width, and the digits of the formula
    route's target entries and commutator integrands, from each root to the
    next vertex.  Held: every entry of every row that the formula route
    steps (_f_step wrapped), and every walk-row entry of a pass over the
    root alone, with its t-degree held to m, which the root digit width
    R = (order + 1) W needs.  On a regular graph the routes take the f-power
    digits and the root walk from adjacency counts instead, so there the
    f-power pass is stepped here, as the route steps it on other graphs, and
    every count of a pass over the root alone is held against its own width,
    operators._count_width.  Edge tallies run at tally_order.  roots(g)
    names the roots.  The formula route's exponent is decoded at its own width, zeta._formula_width,
    which test_formula_exponent_inside_its_width measures, so that decoding
    is not recorded here."""
    real = {name: _packed_width(g.max_degree, order) for name, g in graphs.items()}
    wide = 8 * -(-max(_closed_form_width(g.max_degree, max(order, tally_order))
                      for g in graphs.values()) // 8)
    digit_shift = _digit_width(wide, order // 2)
    most = {}  # (graph, what) -> bits of the largest |coefficient| seen
    formula_widths = set()  # the widths that zeta._formula_width gave
    formula_width = bzk.zeta._formula_width

    def seen(name, what, v):
        key = (name, what)
        most[key] = _coefficient_bits(v, wide, most.get(key, 0))

    def record(what, name, decode):
        def recorded(v, width):
            if width != digit_shift and width not in formula_widths:
                assert width == wide
                seen(name, what, v)
            return decode(v, width)
        return recorded

    def recording_width(max_degree, order):
        width = formula_width(max_degree, order)
        assert width != wide
        formula_widths.add(width)
        return width

    f_step = bzk.zeta._f_step

    def recording_step(g, width, shift):
        assert (width, shift) == (wide, digit_shift)
        step = f_step(g, width, shift)

        def recorded(prev, digits, plus=None, live=None):
            cur = step(prev, digits, plus, live)
            what = "f power" if plus is None else "commutator row"
            for v in cur:
                if v:
                    seen(name, what, v)
            return cur
        return recorded

    _clear_packed_caches()
    try:
        for module in (bzk.operators, bzk.zeta, bzk.edgewalk):
            monkeypatch.setattr(module, "_packed_width", lambda d, m: wide)
        monkeypatch.setattr(bzk.zeta, "_formula_width", recording_width)
        monkeypatch.setattr(bzk.zeta, "_f_step", recording_step)
        for name, g in graphs.items():
            n = g.vertex_count
            monkeypatch.setattr(bzk.operators, "_unpack", record("decoded", name, _unpack))
            monkeypatch.setattr(bzk.zeta, "_digits", record("decoded", name, _digits))
            monkeypatch.setattr(bzk.edgewalk, "_unpack", record("edge tally", name, _unpack))
            for x0 in roots(g):
                # the record decodes each of its three series on first read
                walk = _rooted_walk(g, x0, order)
                assert len(walk.diag) == len(walk.delta) == len(walk.r) == order + 1
                zeta_log_series(g, x0, x0, order)
                zeta_log_series(g, x0, (x0 + 1) % n, order)
                zeta_formula_series(g, x0, (x0 + 1) % n, order)
                if g.regular_degree() is not None:
                    _step_f_powers(g, x0, order)
                    for row in _adjacency_rows(g, (x0,), order):
                        key = (name, "adjacency digit")
                        most[key] = max(most.get(key, 0), max(row).bit_length())
                edge_closed_tallies(g, x0, tally_order)
                for m, row in enumerate(_walk_rows(g, (x0,), order)):
                    for v in row:
                        assert abs(v).bit_length() <= (m + 1) * wide - 1
                        seen(name, "walk row", v)
    finally:
        monkeypatch.undo()
        _clear_packed_caches()
    # |c| < 2^(width-1) exactly when c has at most width - 1 bits
    tightest = {}
    for (name, what), bits in most.items():
        g = graphs[name]
        if what == "adjacency digit":
            width = _count_width(g.regular_degree(), order)
        else:
            width = _packed_width(g.max_degree, tally_order if what == "edge tally" else order)
        tightest[what] = min(tightest.get(what, (width,)), (width - 1 - bits, name))
    assert set(tightest) == {"decoded", "walk row", "f power", "commutator row", "edge tally",
                             "adjacency digit"}
    return tightest


def _step_f_powers(g, x0, order):
    """Row x0 of f^1..f^order by the formula route's step, bzk.zeta._f_step,
    cut as _f_power_table cuts it on graphs that are not regular, with no
    commutator rows, as a regular graph has none; through the bindings in
    bzk.zeta, so that a test may wrap them."""
    width = bzk.zeta._packed_width(g.max_degree, order)
    step = bzk.zeta._f_step(g, width, _digit_width(width, order // 2))
    power = [0] * g.vertex_count
    power[x0] = 1
    for k in range(1, order + 1):
        power = step(power, bzk.zeta._cut(k, order))


def _check_margins(tightest, order, capsys):
    with capsys.disabled():
        print(f"\ntightest packed-width margins at order {order}, in bits: " + "; ".join(
            f"{what} {margin} ({name})" for what, (margin, name) in sorted(tightest.items())))
    assert all(margin >= 0 for margin, _ in tightest.values())


def test_recursions_stay_inside_the_packed_width(monkeypatch, capsys):
    # order 16 on the corpus, star(6) and 20 seeded random graphs; the edge
    # tallies at order 12, where the library caps them
    margins = _packed_width_margins(monkeypatch, _bound_graphs(), 16, 12,
                                    lambda g: range(g.vertex_count))
    _check_margins(margins, 16, capsys)


def test_recursions_stay_inside_the_packed_width_at_order_64(monkeypatch, capsys):
    # order 64, the zeta order cap, on the corpus, the edge tallies too, at
    # roots 0, 1 and n - 1, which meet every orbit of each corpus graph's
    # automorphisms (the centre, a middle vertex and a leaf of tree_ball(3,3))
    margins = _packed_width_margins(monkeypatch, dict(CORPUS), 64, 64,
                                    lambda g: sorted({0, 1, g.vertex_count - 1}))
    _check_margins(margins, 64, capsys)


def test_packed_width_never_above_the_closed_form():
    # the width from the recursions' own growth against the closed form
    # that it replaced
    for max_degree in range(17):
        for order in range(65):
            assert _packed_width(max_degree, order) <= _closed_form_width(max_degree, order)


def _width_before_the_rooted_bounds(max_degree, order):
    """series._packed_width without the bounds of the defect series R_m and
    of the rooted cyclic-bump entries, which it took on when the rooted
    walk began to run R_m packed at its width and the log route to decode
    the entries at it: the walk rows, the defect, the series-inverse
    difference, the f-power and commutator digits and the edge tallies."""
    big_d = max(max_degree, 2)
    walk = [1, 1]
    while len(walk) <= order:
        walk.append(big_d * walk[-1] + 2 * big_d * walk[-2])
    walk = walk[:order + 1]
    bounds = [2 * big_d * n for n in walk]
    padded = [0, 0] + walk
    bounds += [n + big_d * a + 2 * big_d * b + 4 for n, a, b in zip(walk, padded[1:], padded)]
    bounds += [big_d ** k * comb(k, min(k // 2, order - k)) for k in range(order + 1)]
    bounds += [2 * (T + 1) * big_d ** (T + 1) * comb(T, min(T // 2, order - 2 - T))
               for T in range(order - 1)]
    bounds.append(big_d ** order)
    return max(bounds).bit_length() + 1


def test_rooted_bounds_raise_no_packed_width():
    # the bounds of R_m and of every rooted cyclic-bump entry, the defect
    # recursion and cbc_terms run on l1 norms, fit inside the width that the
    # other recursions already need, so the rooted walk runs them at the
    # pass width and no pass grows
    for max_degree in range(2, 17):
        for order in range(1, 65):
            width = _packed_width(max_degree, order)
            assert width == _width_before_the_rooted_bounds(max_degree, order), (max_degree, order)
            walk = [1, 1]
            while len(walk) <= order:
                walk.append(max_degree * walk[-1] + 2 * max_degree * walk[-2])
            r = _r_recursion([2 * max_degree * n for n in walk[:order + 1]], order, None)
            entries = [v for deg in range(max_degree + 1)
                       for v in cbc_terms(walk[:order + 1], deg, None, r)]
            assert max(r + entries) < 1 << (width - 1), (max_degree, order)


def _regular_graphs():
    """(name, graph): the regular corpus graphs, Frucht's graph, which has a
    nonzero defect, four seeded circulants and hypercube(4)."""
    graphs = [(name, CORPUS[name]) for name in REGULAR]
    graphs.append(("frucht", FRUCHT))
    graphs += [(g.label, g) for g in random_circulants(3131, 4)]
    graphs.append(("hypercube(4)", generate("hypercube", 4)))
    return graphs


def test_formula_exponent_inside_its_width(monkeypatch, capsys):
    # zeta._formula_exponent decodes the formula route's exponent once, at
    # zeta._formula_width.  At 4x that width the exponent is the same, and
    # each coefficient, exact at 4x, is below 2^(width-1) of the width it
    # really uses: on the regular graphs, the corpus graphs that are not
    # regular, star(6) and six seeded random graphs, on the diagonal and
    # off it, at orders 1-16 and 64
    graphs = _regular_graphs() + [(name, CORPUS[name]) for name in NON_TRANSITIVE]
    graphs.append(("star(6)", generate("star", 6)))
    rng = random.Random(3232)
    graphs += [(f"random {k}", random_connected_graph(rng, rng.randint(2, 9))) for k in range(6)]
    real = bzk.zeta._formula_width
    tightest = None
    for name, g in graphs:
        n = g.vertex_count
        for order in (*range(1, 17), 64):
            width = real(g.max_degree, order)
            for x in sorted({0, 1 % n, n // 2}):
                got, scale = bzk.zeta._formula_exponent(g, 0, x, order)
                monkeypatch.setattr(bzk.zeta, "_formula_width", lambda d, m: 4 * real(d, m))
                wide = bzk.zeta._formula_exponent(g, 0, x, order)
                monkeypatch.undo()
                assert [TPoly(p) for p in wide[0]] == [TPoly(p) for p in got], (name, order, x)
                assert wide[1] == scale
                bits = max((abs(c).bit_length() for p in wide[0] for c in p), default=0)
                margin = width - 1 - bits
                assert margin >= 0, (name, order, x)
                tightest = min(tightest or (margin, name), (margin, name))
    bzk.zeta._f_power_table.cache_clear()
    with capsys.disabled():
        print("\ntightest formula-width margin, in bits: %d (%s)" % tightest)


def _exp_scale(s):
    """The scale USeries.exp computes: the lcm of the denominators of the
    coefficients of the k a_k."""
    return lcm(*(Fraction(k * x).denominator for k, p in enumerate(s.c) for x in p.c))


def _caught_exponents(monkeypatch, runs):
    """(label, order, scaled, scale) for every call that the routes make to
    series._exp_from_scaled, through zeta's binding of it, while each
    (label, call) of runs is made."""
    caught = []
    exp_from_scaled = bzk.zeta._exp_from_scaled

    def recording(order, scaled, scale):
        caught.append((label, order, scaled, scale))
        return exp_from_scaled(order, scaled, scale)

    monkeypatch.setattr(bzk.zeta, "_exp_from_scaled", recording)
    for label, call in runs:
        call()
    monkeypatch.undo()
    return caught


def _route_exponents(monkeypatch):
    """The scaled series that the log and formula routes hand to
    _exp_from_scaled: every root of the corpus at order 16, on the diagonal
    and to the next vertex, and star(6) at order 32 at its centre and a
    leaf, and between leaves."""
    graphs = [(name, g, 16, [(x0, x) for x0 in range(g.vertex_count)
                             for x in (x0, (x0 + 1) % g.vertex_count)])
              for name, g in CORPUS.items()]
    graphs.append(("star(6)", generate("star", 6), 32, [(0, 0), (1, 1), (1, 2)]))
    runs = [(name, lambda route=route, g=g, x0=x0, x=x, order=order: route(g, x0, x, order))
            for name, g, order, pairs in graphs for x0, x in pairs
            for route in (zeta_log_series, zeta_formula_series)]
    return _caught_exponents(monkeypatch, runs)


def test_exp_majorant_bounds_the_scaled_coefficients(monkeypatch, capsys):
    # _exp_from_scaled runs _scaled_exp twice: on the l1 norms |A_k|_1,
    # which gives the majorant N_n and the width, then on the packed A_k.
    # The exact B_n = n! L^n b_n come from the Fraction recurrence, and each
    # largest |coefficient| must be at most N_n and below 2^(width-1).
    caught = _route_exponents(monkeypatch)
    assert len(caught) == 2 * 2 * sum(g.vertex_count for g in CORPUS.values()) + 6
    scaled_exp = bzk.series._scaled_exp
    runs, widths = [], []

    def recording_exp(a, scale):
        runs.append(scaled_exp(a, scale))
        return runs[-1]

    def recording_digits(v, width):
        widths.append(width)
        return _digits(v, width)

    tightest = None
    for name, order, scaled, given in caught:
        runs.clear()
        widths.clear()
        monkeypatch.setattr(bzk.series, "_scaled_exp", recording_exp)
        monkeypatch.setattr(bzk.series, "_digits", recording_digits)
        bzk.series._exp_reduced.cache_clear()
        bzk.series._exp_from_scaled(order, scaled, given)
        monkeypatch.undo()
        assert len(runs) == 2 and len(set(widths)) == 1
        majorant, width = runs[0], widths[0]
        s = series_from_scaled(order, scaled, given)
        scale = _exp_scale(s)
        for n, b in enumerate(fraction_exp(s).c):
            largest = max((abs(c) for c in (b * (factorial(n) * scale ** n)).c), default=0)
            assert largest <= majorant[n], (name, n)
            if n:
                margin = width - 1 - largest.bit_length()
                assert margin >= 0, (name, n)
                tightest = min(tightest or (margin, name), (margin, name))
    with capsys.disabled():
        print("\ntightest packed exp-width margin, in bits: %d (%s)" % tightest)


def test_routes_reach_the_exp_recurrence_at_the_smallest_scale(monkeypatch):
    # Every (scaled, scale) that the log, formula and Euler routes pass to
    # _exp_from_scaled must reach _scaled_exp with exactly the scale that
    # USeries.exp computes for the same series, the lcm of the denominators
    # of the k a_k.  The formula route passes lcm(1..order); a larger scale
    # leaves every output unchanged but slows exp down steeply with the
    # order, so only this test sees it.
    caught = _route_exponents(monkeypatch)
    runs = [(name, lambda g=g, x0=x0: euler_product_series(g, x0, 12))
            for name, g in CORPUS.items() for x0 in range(g.vertex_count)]
    g = generate("tree_ball", 3, 3)
    runs += [("tree_ball(3,3)", lambda route=route, order=order: route(g, 5, x, order))
             for route in (zeta_log_series, zeta_formula_series)
             for order in (20, 64) for x in (5, 17)]
    caught += _caught_exponents(monkeypatch, runs)
    scaled_exp = bzk.series._scaled_exp
    scales = []

    def recording_exp(a, scale):
        scales.append(scale)
        return scaled_exp(a, scale)

    reduced = 0
    for name, order, scaled, given in caught:
        scales.clear()
        monkeypatch.setattr(bzk.series, "_scaled_exp", recording_exp)
        bzk.series._exp_reduced.cache_clear()
        bzk.series._exp_from_scaled(order, scaled, given)
        monkeypatch.undo()
        want = _exp_scale(series_from_scaled(order, scaled, given))
        assert scales == [want, want], (name, order, given)
        reduced += want < given
    # the formula route's lcm(1..order) is reduced on most of its exponents
    assert reduced > len(caught) // 4


def test_identity_checks_at_four_times_their_width(monkeypatch, capsys):
    # Each per-root check sizes its width by running its displays on the l1
    # norms of its inputs.  At 4x that width every report is the same, and
    # every compared side's largest |coefficient|, exact at 4x, is below
    # 2^(width-1) of the width the check really uses.  The cbc entries of
    # zeta.cbc_entries, on the diagonal and off it, and the root's walk run
    # at the pass width and read no l1 majorant, so they are the same when
    # every majorant width is 4x.
    checks = [(check_no_tail_identity, _no_tail_sides),
              (check_cyclic_bump_identity, _cyclic_bump_sides),
              (check_r_generating_identity, _r_generating_sides)]
    norm_width = bzk.operators._norm_width
    tightest = None
    failing = 0
    for name, g in _bound_graphs().items():
        n = g.vertex_count
        for order in (4, 8, 12):
            for x0 in range(n):
                for check, sides in checks:
                    report = check(g, x0, order)
                    failing += not report.passed
                    width = _sides_width(sides(g, x0, order, None))
                    for _, lhs, rhs in sides(g, x0, order, 4 * width):
                        for v in lhs + rhs:
                            margin = width - 1 - _largest(v, 4 * width).bit_length()
                            assert margin >= 0, (name, order, x0, check.__name__)
                            tightest = min(tightest or (margin, name), (margin, name))
                    monkeypatch.setattr(bzk.operators, "_sides_width",
                                        lambda bounds: 4 * _sides_width(bounds))
                    assert check(g, x0, order) == report
                    monkeypatch.undo()
                entries = [cbc_entries(g, x0, x, order) for x in (x0, (x0 + 1) % n)]
                walk = _rooted_walk(g, x0, order)
                monkeypatch.setattr(bzk.operators, "_norm_width", lambda bound: 4 * norm_width(bound))
                assert [cbc_entries(g, x0, x, order) for x in (x0, (x0 + 1) % n)] == entries
                # the defect recursion of the root's walk, sized the same way
                _rooted_walk.cache_clear()
                assert _rooted_walk(g, x0, order) == walk
                monkeypatch.undo()
    # the non-transitive graphs decode failing differences at this width
    assert failing > 0
    with capsys.disabled():
        print("\ntightest identity-check width margin, in bits: %d (%s)" % tightest)
