"""The exp cache: series._exp_from_scaled keys series._exp_reduced on the
reduced exponent, so the log, formula and Euler routes exponentiate each
distinct exponent once; every output must be the uncached one."""

import json

import pytest

import bzk.series
from bzk.cli import main
from bzk.graphs import generate
from bzk.series import _exp_from_scaled, _exp_reduced
from bzk.zeta import euler_product_series, zeta_formula_series, zeta_log_series

from conftest import CORPUS


def _route_outputs(cases, cleared):
    """Every route's series at each (graph, root, order) of cases, in one
    sequence, with the exp cache emptied before each route if cleared; the
    Euler route runs where its tally does, up to order 12."""
    out = []
    for g, x0, order in cases:
        routes = [lambda: zeta_log_series(g, x0, x0, order),
                  lambda: zeta_formula_series(g, x0, x0, order)]
        if order <= 12:
            routes.append(lambda: euler_product_series(g, x0, order))
        for route in routes:
            if cleared:
                _exp_reduced.cache_clear()
            out.append(route())
    return out


def test_cached_outputs_equal_the_cleared_ones():
    cases = [(g, x0, 12) for g in CORPUS.values() for x0 in range(g.vertex_count)]
    cases += [(g, 0, 64) for g in (CORPUS["petersen"], generate("cycle", 9))]
    _exp_reduced.cache_clear()
    cached = _route_outputs(cases, cleared=False)
    hits = _exp_reduced.cache_info().hits
    assert hits > len(cached) // 2
    assert cached == _route_outputs(cases, cleared=True)


@pytest.mark.parametrize("argv, misses, hits", [
    (("--family", "petersen", "--order", "10"), 1, 29),
    (("--family", "star", "--n", "4", "--order", "12"), 4, 11),
])
def test_verify_exponentiates_each_distinct_exponent_once(capsys, argv, misses, hits):
    # Petersen's 30 exps (three routes at ten roots) are one series; on
    # star(4) the centre's Euler exponent differs from its log exponent, and
    # the four leaves share the leaf's two
    _exp_reduced.cache_clear()
    main(["verify", *argv])
    assert json.loads(capsys.readouterr().out)["results"]
    info = _exp_reduced.cache_info()
    assert (info.misses, info.hits) == (misses, hits)


def test_trailing_zeros_and_content_share_an_entry():
    _exp_reduced.cache_clear()
    first = _exp_from_scaled(1, [(), (1,)], 1)
    assert _exp_from_scaled(1, [(), (1, 0)], 1) is first
    assert _exp_from_scaled(1, [(), (2, 0)], 2) is first
    info = _exp_reduced.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def _key_separates():
    """Whether exps of one exponent at two scales, and of one exponent list
    at two orders, come back as different series: exp(u) against
    exp(u / 2), and exp(u + u^2 / 2) truncated at orders 1 and 2."""
    by_scale = [_exp_from_scaled(1, [(), (1,)], scale) for scale in (1, 2)]
    by_order = [_exp_from_scaled(order, [(), (1,), (1,)], 1) for order in (1, 2)]
    return by_scale[0] != by_scale[1] and [s.order for s in by_order] == [1, 2]


def _keyed_by(key):
    """A cache of the uncached _exp_reduced keyed by key(order, scaled,
    scale) in place of all three."""
    compute, entries = _exp_reduced.__wrapped__, {}

    def cached(order, scaled, scale):
        k = key(order, scaled, scale)
        if k not in entries:
            entries[k] = compute(order, scaled, scale)
        return entries[k]

    return cached


KEY_MUTANTS = {
    "no reduced scale": lambda order, scaled, scale: (order, scaled),
    "no order": lambda order, scaled, scale: (scaled, scale),
}


@pytest.mark.parametrize("mutant", list(KEY_MUTANTS))
def test_exp_cache_key_mutants_fail(monkeypatch, mutant):
    _exp_reduced.cache_clear()
    assert _key_separates()
    monkeypatch.setattr(bzk.series, "_exp_reduced", _keyed_by(KEY_MUTANTS[mutant]))
    assert not _key_separates()
