"""Batch front-end: graph ingestion, route selection, verification campaigns,
and CSV/JSON emission.

Subcommands: verify, zeta, heat, euler, graphs.  Exit code 0 on success, 1
when a verification fails, 2 on usage errors, on a graph file that cannot be
read and on an eigensolver that fails its exact cross-check.  Output is
deterministic for a given invocation.
"""

import argparse
import json
import math
import sys

from . import graphs as graphmod
from . import heat as heatmod
from . import zeta as zetamod
from .operators import (TALLY_CAP, alpha, check_cyclic_bump_identity,
                        check_no_tail_identity, check_r_generating_identity,
                        check_series_inverse_identity)

SCHEMA = 1

# Lowest order `bzk verify` takes, the least that the no-tail and cyclic-bump
# checks accept.
MIN_VERIFY_ORDER = 4

# Highest order `bzk zeta` computes.  The exact routes grow steeply past it:
# on Petersen at order 64 a process takes 0.16 to 0.27 s by the log route and
# 0.22 to 0.34 s by the formula route; run through the library, order 96
# takes 0.9 s by the log route and 1.2 s by the formula route, most of it in
# the exp recurrence, series._scaled_exp.
MAX_ZETA_ORDER = 64

# Most vertices a dense float route takes.  The spectral zeta route and both
# heat routes build n x n data: the float adjacency and Laplacian of
# zeta._dense_operators, and numpy's eigh of the Laplacian.  The Bessel route
# keeps only the root's row of each walk matrix, so its memory does not grow
# with tau.  On hypercube(9), 512 vertices, `bzk heat --route bessel --t 0.5`
# took 0.3 s and 34 MB per process at `--tau-grid 0:5:2` and at 0:10:2, and
# exited 2 in 0.39 s at 0:20:2 (a Bessel multiplier outside the float range);
# the spectral route took 0.36 s and 45 MB, and the 40-point Bessel grid
# 0.5:8:40, which builds the root's rows once for the whole grid, took 0.27
# to 0.36 s and 35 MB.
MAX_DENSE_VERTICES = 512

# Most tau points `bzk heat` evaluates.  On Petersen over tau in [0, 5] a point
# costs about 0.26 ms by both routes, so the cap takes about 2.6 s.
MAX_TAU_POINTS = 10_000

# Most Bessel work `bzk heat` takes on one grid, in terms.  A tau point with
# cutoffs (n_max, j_max) from heat._bessel_cutoffs sums (n_max+1)(j_max+1)
# terms of the double series and reads n_max+1 rows of the walk matrices on
# n vertices; a row costs n^2 products, about as much as n^2 / 2048 terms.
# The rows are built once per (t, root) and grown as the cutoffs rise, so a
# point is charged only for the rows beyond the most that an earlier point
# read.  The sum runs on the cutoffs alone, before any point is evaluated.
# Near the cap, Petersen by both routes took 2.6 s at `--tau-grid
# 0:20:3800` and 1.6 s at 0:38:1100.  On hypercube(9), 512 vertices, by the
# Bessel route with --t 0.5, 0.5:8:1200 sums 2.32 million terms and 207 rows
# (26,496 terms) and took 1.0 s and 35 MB; 0.5:8:10000, the tau point cap,
# sums 19.3 million terms and took 6.0 s and 39 MB (2-core Xeon).  Petersen's
# 0:5:10000 needs 5.3 million terms and runs; its 0:50:10000 needs about 270
# million, which took minutes, and is refused at tau = 20 in 0.2 s.
MAX_BESSEL_TERMS = 20_000_000


def _add_graph_arguments(sub):
    sub.add_argument("--graph", help="graph file (JSON or edge list)")
    sub.add_argument("--family", choices=sorted(graphmod._FAMILIES),
                     help="generate a named family instead of reading a file")
    sub.add_argument("--n", type=int, help="size parameter for cycle/complete/path/star")
    sub.add_argument("--d", type=int, help="dimension for hypercube")
    sub.add_argument("--q-plus-1", type=int, dest="q_plus_1",
                     help="branching for tree_ball")
    sub.add_argument("--radius", type=int, help="radius for tree_ball")


def _resolve_graph(args):
    if args.graph and args.family:
        raise SystemExit2("give either --graph or --family, not both")
    if args.graph:
        return graphmod.load_graph(args.graph)
    if not args.family:
        raise SystemExit2("a graph source is required (--graph or --family)")
    family = args.family
    if family in ("cycle", "complete", "path", "star"):
        if args.n is None:
            raise SystemExit2(f"--family {family} needs --n")
        return graphmod.generate(family, args.n)
    if family == "hypercube":
        if args.d is None:
            raise SystemExit2("--family hypercube needs --d")
        return graphmod.generate(family, args.d)
    if family == "tree_ball":
        if args.q_plus_1 is None or args.radius is None:
            raise SystemExit2("--family tree_ball needs --q-plus-1 and --radius")
        return graphmod.generate(family, args.q_plus_1, args.radius)
    return graphmod.generate(family)


class SystemExit2(Exception):
    """Usage error surfaced with exit code 2."""


def _vertex(g, value, flag):
    """value, checked to name a vertex of g (None passes through)."""
    if value is not None and not 0 <= value < g.vertex_count:
        raise SystemExit2(
            f"{flag} {value} is not a vertex of {g.label} (0..{g.vertex_count - 1})"
        )
    return value


def _check_dense(g):
    """Refuse a graph too large for the dense float routes, before any
    n x n matrix is built."""
    if g.vertex_count > MAX_DENSE_VERTICES:
        raise SystemExit2(f"{g.label} has {g.vertex_count} vertices; the dense float "
                          f"routes take at most {MAX_DENSE_VERTICES}")


def _write(args, text):
    """text and a newline to --out-file if given, else to stdout."""
    if args.out_file:
        with open(args.out_file, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit(args, payload):
    _write(args, json.dumps(payload, sort_keys=True, indent=2))


def _emit_csv(args, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    _write(args, "\n".join(lines))


def cmd_verify(args):
    # default output stops where the enumeration oracle does, so every tally
    # it reports has an independent reference; a checked run past the cap
    # waits for its own flag.  Refuse a larger order, and one below what
    # the per-root checks need, before the graph or any walk table is built.
    order = args.order
    if order > TALLY_CAP:
        raise SystemExit2(f"--order {order} exceeds the enumeration cap {TALLY_CAP}")
    if order < MIN_VERIFY_ORDER:
        raise SystemExit2(f"--order must be >= {MIN_VERIFY_ORDER}")
    g = _resolve_graph(args)
    root = _vertex(g, args.root, "--root")
    roots = [root] if root is not None else list(range(g.vertex_count))
    results = [check_series_inverse_identity(g, order).to_json()]
    for x0 in roots:
        results += [
            check_no_tail_identity(g, x0, order).to_json(),
            check_cyclic_bump_identity(g, x0, order).to_json(),
            check_r_generating_identity(g, x0, order).to_json(),
        ]
        log_series = zetamod.zeta_log_series(g, x0, x0, order)
        formula = zetamod.zeta_formula_series(g, x0, x0, order)
        euler = zetamod.euler_product_series(g, x0, order)
        results.append({
            "identity": "route-equivalence",
            "graph": g.label,
            "root": x0,
            "order": order,
            "pass": log_series == formula == euler,
            "first_failure": None if log_series == formula == euler else {
                "formula_matches_log": formula == log_series,
                "euler_matches_log": euler == log_series,
            },
        })

    ok = all(r["pass"] for r in results)
    _emit(args, {"schema": SCHEMA, "graph": g.label, "order": order,
                 "pass": ok, "results": results})
    return 0 if ok else 1


def cmd_zeta(args):
    if args.order > MAX_ZETA_ORDER:
        raise SystemExit2(f"--order {args.order} exceeds the zeta order cap {MAX_ZETA_ORDER}")
    g = _resolve_graph(args)
    x0 = _vertex(g, args.root, "--root")
    x = _vertex(g, args.target, "--target") if args.target is not None else x0
    order = args.order
    routes = ["log", "rhs", "euler", "spectral"] if args.route == "all" else [args.route]
    if "euler" in routes and x != x0:
        raise SystemExit2("the euler route is rooted; drop --target")
    if "euler" in routes and order > TALLY_CAP:
        raise SystemExit2(f"length {order} exceeds cap {TALLY_CAP}")
    if "spectral" in routes and g.regular_degree() is not None:
        _check_dense(g)
    payload = {"schema": SCHEMA, "graph": g.label, "root": x0, "target": x,
               "order": order, "routes": {}}
    series_by_route = {}
    if "log" in routes:
        series_by_route["log"] = zetamod.zeta_log_series(g, x0, x, order)
    if "rhs" in routes:
        series_by_route["rhs"] = zetamod.zeta_formula_series(g, x0, x, order)
    if "euler" in routes:
        series_by_route["euler"] = zetamod.euler_product_series(g, x0, order)
    for name, series in series_by_route.items():
        payload["routes"][name] = {"series": series.to_json()}
    if "spectral" in routes:
        if g.regular_degree() is None:
            if args.route == "spectral":
                raise SystemExit2("the spectral route needs a regular graph")
            payload["routes"]["spectral"] = {"skipped": "not regular"}
        else:
            t = args.t if args.t is not None else 0.0
            if args.u is not None:
                u_values = [args.u]
            else:
                cap = 0.8 / alpha(g, abs(t))
                u_values = [cap * k / 4.0 for k in range(1, 5)]
            reference = zetamod.zeta_log_series(g, x0, x, max(order, 20))
            points = []
            for u in u_values:
                record = zetamod.zeta_spectral_report(g, x0, x, u, t)
                record["log_series_value"] = reference.evaluate(t, u)
                points.append(record)
            payload["routes"]["spectral"] = {"points": points}
    if len(series_by_route) > 1:
        first = next(iter(series_by_route.values()))
        payload["series_agree"] = all(s == first for s in series_by_route.values())

    if args.out == "json":
        _emit(args, payload)
    else:
        rows = []
        for name, series in series_by_route.items():
            for m in range(order + 1):
                rows.append((name, m, f'"{series.coefficient(m)}"'))
        spectral = payload["routes"].get("spectral")
        if spectral and "points" in spectral:
            for point in spectral["points"]:
                rows.append(("spectral", f"u={point['u']};t={point['t']}", point["value"]))
        _emit_csv(args, ["route", "m", "coefficient"], rows)
    return 0


def _check_bessel_work(g, taus, t, tol):
    """Refuse a grid whose Bessel work, summed in grid order, passes
    MAX_BESSEL_TERMS.  A point that the Bessel route itself refuses ends the
    sum, so that the grid loop reports it as before."""
    try:
        heatmod._check_bessel_domain(g, t)
    except ValueError:
        return
    row_terms = g.vertex_count ** 2 // 2048
    work = rows_built = 0
    for tau in taus:
        if tau < 0.0:
            return
        if tau == 0.0:
            continue
        try:
            n_max, j_max, _ = heatmod._bessel_cutoffs(g, tau, t, tol)
        except ValueError:
            return
        work += (n_max + 1) * (j_max + 1) + max(0, n_max + 1 - rows_built) * row_terms
        rows_built = max(rows_built, n_max + 1)
        if work > MAX_BESSEL_TERMS:
            raise SystemExit2(f"--tau-grid passes the Bessel work cap of {MAX_BESSEL_TERMS} "
                              f"terms at tau = {tau:g}")


def cmd_heat(args):
    lo, hi, count = args.tau_grid
    if count > MAX_TAU_POINTS:
        raise SystemExit2(f"--tau-grid count {count} exceeds the tau point cap {MAX_TAU_POINTS}")
    g = _resolve_graph(args)
    _check_dense(g)
    x0 = _vertex(g, args.root, "--root")
    x = _vertex(g, args.target, "--target") if args.target is not None else x0
    taus = [lo + (hi - lo) * k / (count - 1) if count > 1 else lo for k in range(count)]
    if args.route in ("bessel", "both"):
        _check_bessel_work(g, taus, args.t, args.tol)
    rows = []
    for tau in taus:
        vb = vs = ""
        tail = 0.0
        if args.route in ("bessel", "both"):
            res = heatmod.heat_kernel_bessel(g, x0, x, tau, args.t, args.tol)
            vb = res.value
            tail = res.tail_bound
        if args.route in ("spectral", "both"):
            vs = heatmod.heat_kernel_spectral(g, x0, x, tau).value
        diff = abs(vb - vs) if args.route == "both" else ""
        rows.append((tau, vb, vs, diff, tail))
    _emit_csv(args, ["tau", "value_bessel", "value_spectral", "abs_diff", "tail_bound"], rows)
    return 0


def cmd_euler(args):
    g = _resolve_graph(args)
    _vertex(g, args.root, "--root")
    series = zetamod.euler_product_series(g, args.root, args.order)
    payload = {"schema": SCHEMA, "graph": g.label, "root": args.root,
               "order": args.order, "series": series.to_json()}
    if args.compare:
        payload["matches_log_series"] = (
            series == zetamod.zeta_log_series(g, args.root, args.root, args.order)
        )
    _emit(args, payload)
    return 0 if payload.get("matches_log_series", True) else 1


def cmd_graphs(args):
    g = _resolve_graph(args)
    payload = {"schema": SCHEMA, "label": g.label}
    payload.update(graphmod.graph_to_json_dict(g))
    payload["degrees"] = list(g.degrees)
    payload["regular_degree"] = g.regular_degree()
    _emit(args, payload)
    return 0


def _parse_tau_grid(text):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("tau grid must be lo:hi:count") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("tau grid bounds must be finite")
    if count < 1 or hi < lo:
        raise argparse.ArgumentTypeError("tau grid must be lo:hi:count with hi >= lo")
    return lo, hi, count


def _positive_float(text):
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from exc
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bzk",
        description="Rooted zeta functions and heat kernels on finite simple graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the exact identity checks")
    _add_graph_arguments(p_verify)
    p_verify.add_argument("--root", type=int, help="restrict to one root (default: all)")
    p_verify.add_argument("--order", type=int, default=10)
    p_verify.add_argument("--out-file")
    p_verify.set_defaults(func=cmd_verify)

    p_zeta = sub.add_parser("zeta", help="compute the rooted zeta by one or all routes")
    _add_graph_arguments(p_zeta)
    p_zeta.add_argument("--root", type=int, required=True)
    p_zeta.add_argument("--target", type=int)
    p_zeta.add_argument("--order", type=int, default=10)
    p_zeta.add_argument("--route", choices=["log", "rhs", "euler", "spectral", "all"],
                        default="all")
    p_zeta.add_argument("--t", type=float)
    p_zeta.add_argument("--u", type=float)
    p_zeta.add_argument("--out", choices=["json", "csv"], default="json")
    p_zeta.add_argument("--out-file")
    p_zeta.set_defaults(func=cmd_zeta)

    p_heat = sub.add_parser("heat", help="evaluate the heat kernel on a tau grid")
    _add_graph_arguments(p_heat)
    p_heat.add_argument("--root", type=int, required=True)
    p_heat.add_argument("--target", type=int)
    p_heat.add_argument("--tau-grid", type=_parse_tau_grid, default=(0.0, 5.0, 11),
                        dest="tau_grid")
    p_heat.add_argument("--t", type=float, default=0.0)
    p_heat.add_argument("--route", choices=["bessel", "spectral", "both"], default="both")
    p_heat.add_argument("--tol", type=_positive_float, default=1e-8)
    p_heat.add_argument("--out", choices=["csv"], default="csv")
    p_heat.add_argument("--out-file")
    p_heat.set_defaults(func=cmd_heat)

    p_euler = sub.add_parser("euler", help="truncated Euler product over primitive closed walks")
    _add_graph_arguments(p_euler)
    p_euler.add_argument("--root", type=int, required=True)
    p_euler.add_argument("--order", type=int, default=10)
    p_euler.add_argument("--compare", action="store_true",
                         help="also check agreement with the log-series route")
    p_euler.add_argument("--out-file")
    p_euler.set_defaults(func=cmd_euler)

    p_graphs = sub.add_parser("graphs", help="emit a graph as JSON with basic stats")
    _add_graph_arguments(p_graphs)
    p_graphs.add_argument("--out-file")
    p_graphs.set_defaults(func=cmd_graphs)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (graphmod.GraphError, OSError, ValueError, zetamod.EigensolverFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
