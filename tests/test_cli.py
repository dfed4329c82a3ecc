"""Command-line front end: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bzk.cli import (MAX_BESSEL_TERMS, MAX_DENSE_VERTICES, MAX_TAU_POINTS, MAX_ZETA_ORDER,
                     main)
from bzk.operators import TALLY_CAP
from bzk.paths import MAX_ENUMERATION_LENGTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes_on_petersen_root(capsys):
    code, out, _ = run(capsys, "verify", "--family", "petersen", "--root", "0", "--order", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["pass"] is True
    identities = {r["identity"] for r in payload["results"]}
    assert identities == {
        "walk-series-inverse", "no-tail-series", "cyclic-bump-series",
        "defect-generating-function", "route-equivalence",
    }


def test_verify_reports_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--family", "path", "--n", "4",
                       "--root", "0", "--order", "8")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    failing = [r for r in payload["results"] if not r["pass"]]
    assert failing and all(r["first_failure"] for r in failing)


def test_zeta_all_routes_cycle4(capsys):
    code, out, _ = run(capsys, "zeta", "--family", "cycle", "--n", "4",
                       "--root", "0", "--order", "8", "--route", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["series_agree"] is True
    assert set(payload["routes"]) == {"log", "rhs", "euler", "spectral"}
    for point in payload["routes"]["spectral"]["points"]:
        assert abs(point["value"] / point["log_series_value"] - 1.0) < 1e-9


def test_zeta_csv_output(capsys):
    code, out, _ = run(capsys, "zeta", "--family", "complete", "--n", "4",
                       "--root", "0", "--order", "4", "--route", "log", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "route,m,coefficient"
    assert len(lines) == 6


def test_heat_csv_abs_diff_small(capsys):
    code, out, _ = run(capsys, "heat", "--family", "complete", "--n", "4",
                       "--root", "0", "--target", "0", "--tau-grid", "0:5:11",
                       "--t", "0", "--route", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,value_bessel,value_spectral,abs_diff,tail_bound"
    assert len(lines) == 12
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[3]) < 1e-8


def test_euler_compare(capsys):
    code, out, _ = run(capsys, "euler", "--family", "cycle", "--n", "4",
                       "--root", "0", "--order", "8", "--compare")
    assert code == 0
    assert json.loads(out)["matches_log_series"] is True


def test_graphs_subcommand_and_file_input(capsys, tmp_path):
    code, out, _ = run(capsys, "graphs", "--family", "hypercube", "--d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 8
    assert payload["regular_degree"] == 3

    path = tmp_path / "square.json"
    path.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    code, out, _ = run(capsys, "graphs", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["regular_degree"] == 2


def test_usage_errors(capsys):
    code, _, err = run(capsys, "zeta", "--family", "cycle", "--root", "0")
    assert code == 2 and "error" in err
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("zeta", "--family", "petersen", "--root", "99"),
    ("zeta", "--family", "petersen", "--root", "0", "--target", "10", "--route", "log"),
    ("zeta", "--family", "petersen", "--root", "-1", "--route", "log"),
    ("verify", "--family", "cycle", "--n", "4", "--root", "4"),
    ("heat", "--family", "cycle", "--n", "4", "--root", "0", "--target", "7"),
    ("euler", "--family", "cycle", "--n", "4", "--root", "5"),
])
def test_out_of_range_vertex_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not a vertex of" in err


def test_verify_order_past_dfs_cap_refused_up_front(capsys):
    # refused before any walk table is built: a one-line error, exit 2 and
    # no memory to speak of; the cap itself still runs
    for order in ("13", "1000000"):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify", "--family", "petersen", "--order", order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "enumeration cap 12" in err
        assert peak < 1_000_000
    code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "4", "--root", "0",
                       "--order", "12")
    assert code == 0 and json.loads(out)["pass"] is True


def test_zeta_order_past_cap_refused_up_front(capsys):
    # refused before the graph is built, as verify refuses past its cap
    assert MAX_ZETA_ORDER >= 20  # the spectral route's reference order
    for order in (str(MAX_ZETA_ORDER + 1), "1000000"):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "zeta", "--family", "petersen", "--root", "0",
                                 "--order", order, "--route", "log")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == f"error: --order {order} exceeds the zeta order cap {MAX_ZETA_ORDER}\n"
        assert peak < 1_000_000
    code, out, _ = run(capsys, "zeta", "--family", "cycle", "--n", "3", "--root", "0",
                       "--order", str(MAX_ZETA_ORDER), "--route", "log")
    assert code == 0 and json.loads(out)["order"] == MAX_ZETA_ORDER


def test_tau_grid_past_cap_refused_up_front(capsys):
    # refused before the graph is built or any tau point is listed
    for count in (str(MAX_TAU_POINTS + 1), "1000000000"):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "heat", "--family", "petersen", "--root", "0",
                                 "--tau-grid", f"0:5:{count}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == (f"error: --tau-grid count {count} exceeds the tau point cap "
                       f"{MAX_TAU_POINTS}\n")
        assert peak < 1_000_000
    code, out, _ = run(capsys, "heat", "--family", "cycle", "--n", "4", "--root", "0",
                       "--tau-grid", f"0:5:{MAX_TAU_POINTS}", "--route", "spectral")
    assert code == 0 and len(out.splitlines()) == MAX_TAU_POINTS + 1


@pytest.mark.parametrize("option", [
    ("--tau-grid", "nan:1:3"),
    ("--tau-grid", "0:inf:2"),
    ("--tau-grid", "5:0:3"),
    ("--tol", "nan"),
    ("--tol", "inf"),
    ("--tol", "0"),
])
def test_heat_non_finite_input_is_usage_error(capsys, option):
    # refused by argparse before any Bessel series runs: a nan or inf tau
    # never met the series' stopping rule, and a nan or inf tol passed it at
    # once with a wrong value
    with pytest.raises(SystemExit) as exc:
        main(["heat", "--family", "petersen", "--root", "0", *option])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option[0]}" in captured.err


def test_heat_bessel_work_past_cap_refused_up_front(capsys):
    # Petersen over tau in [0, 50] needs about 270 million Bessel terms
    # (minutes); the cap refuses it from the cutoffs alone, before any
    # column is summed, and only the routes that run the Bessel series
    from bzk import heat

    grid = ["heat", "--family", "petersen", "--root", "0", "--tau-grid", "0:50:10000"]
    heat._bessel_column.cache_clear()
    for route in ("bessel", "both"):
        code, out, err = run(capsys, *grid, "--route", route)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --tau-grid passes the Bessel work cap of "
                              f"{MAX_BESSEL_TERMS} terms at tau = ")
        assert err.count("\n") == 1
    assert heat._bessel_column.cache_info().misses == 0
    code, out, _ = run(capsys, *grid, "--route", "spectral")
    assert code == 0 and len(out.splitlines()) == 10_001


def test_heat_bessel_work_under_cap_accepted(monkeypatch):
    # the grid the tau point cap was sized on stays well inside the work
    # cap: the check passes it without evaluating a point
    from bzk import cli
    from bzk.graphs import generate

    taus = [5.0 * k / 9999 for k in range(10_000)]
    cli._check_bessel_work(generate("petersen"), taus, 0.0, 1e-8)
    # the sum is what refuses: a cap one term below it refuses the grid
    work = []
    cutoffs = cli.heatmod._bessel_cutoffs

    def counted(g, tau, t, tol):
        n_max, j_max, tail = cutoffs(g, tau, t, tol)
        work.append((n_max + 1) * (j_max + 1))
        return n_max, j_max, tail

    monkeypatch.setattr(cli.heatmod, "_bessel_cutoffs", counted)
    cli._check_bessel_work(generate("petersen"), taus, 0.0, 1e-8)
    assert 5_000_000 < sum(work) < MAX_BESSEL_TERMS
    monkeypatch.setattr(cli, "MAX_BESSEL_TERMS", sum(work) - 1)
    with pytest.raises(cli.SystemExit2):
        cli._check_bessel_work(generate("petersen"), taus, 0.0, 1e-8)


def test_heat_bessel_work_counts_each_walk_row_once(monkeypatch):
    # the rows of one (t, root) are built once and grown, so a grid is
    # charged for its largest n_max + 1 rows, not for n_max + 1 rows at every
    # tau: hypercube(9)'s 1,200-point grid is 2.32 million terms plus 207
    # rows, and was refused at tau = 7.88741 when every tau paid for its rows
    from bzk import cli
    from bzk.graphs import generate

    g = generate("hypercube", 9)
    taus = [0.5 + 7.5 * k / 1199 for k in range(1200)]
    cutoffs = []
    bessel_cutoffs = cli.heatmod._bessel_cutoffs

    def counted(g, tau, t, tol):
        n_max, j_max, tail = bessel_cutoffs(g, tau, t, tol)
        cutoffs.append((n_max + 1, j_max + 1))
        return n_max, j_max, tail

    monkeypatch.setattr(cli.heatmod, "_bessel_cutoffs", counted)
    cli._check_bessel_work(g, taus, 0.5, 1e-8)
    row_terms = 512 ** 2 // 2048
    assert max(rows for rows, _ in cutoffs) == 207
    assert sum(rows * (j + row_terms) for rows, j in cutoffs) > MAX_BESSEL_TERMS
    monkeypatch.undo()
    # Petersen's rows cost under one term, so its refusal does not move
    petersen = [50.0 * k / 9999 for k in range(10_000)]
    with pytest.raises(cli.SystemExit2, match=r"at tau = 20\.042$"):
        cli._check_bessel_work(generate("petersen"), petersen, 0.0, 1e-8)


def test_heat_overflowing_tau_is_usage_error(capsys):
    code, out, err = run(capsys, "heat", "--family", "petersen", "--root", "0",
                         "--tau-grid", "0:1000:2", "--route", "bessel")
    assert code == 2
    assert out == ""
    assert err == "error: truncation bound did not converge\n"


def _counted_passes(monkeypatch):
    """(roots, targets) of every pass of the walk recursion or of the
    adjacency counts that replace it on a regular graph, through the
    bindings in bzk.operators and bzk.zeta."""
    import bzk.operators
    import bzk.zeta

    passes = []

    def counting(rows):
        def counted(g, roots, order, targets=None):
            passes.append((roots, targets))
            return rows(g, roots, order, targets)
        return counted

    counted = {name: counting(getattr(bzk.operators, name))
               for name in ("_walk_rows", "_adjacency_rows")}
    for module in (bzk.operators, bzk.zeta):
        for name, rows in counted.items():
            monkeypatch.setattr(module, name, rows)
    bzk.operators._rooted_walk.cache_clear()
    bzk.zeta._f_power_table.cache_clear()
    return passes


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "cycle", "--n", "4", "--order", "3"),
    ("verify", "--family", "cycle", "--n", "4", "--order", "-1"),
    ("zeta", "--family", "cycle", "--n", "4", "--root", "0", "--order", "0"),
    ("euler", "--family", "cycle", "--n", "4", "--root", "0", "--order", "0"),
] + [("verify", "--family", "cycle", "--n", "4", "--order", str(order)) for order in (0, 1, 2)])
def test_order_below_minimum_is_usage_error(capsys, monkeypatch, argv):
    # verify refuses every order below 4 with one line, before it makes a
    # pass of the walk recursion or of the adjacency counts that replace it
    # on a regular graph such as cycle(4); --order 2 and 3 used to run one
    passes = _counted_passes(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "verify":
        assert err == "error: --order must be >= 4\n"
    assert passes == []


@pytest.mark.parametrize("route", ["all", "euler"])
def test_rooted_route_with_target_is_refused_before_any_route(capsys, monkeypatch, route):
    # the Euler route is rooted, so --target with it is refused with one
    # line, and with --route all before the log and formula routes make
    # their passes: tree_ball(3,5) at order 32 used to run both and then exit
    passes = _counted_passes(monkeypatch)
    code, out, err = run(capsys, "zeta", "--family", "tree_ball", "--q-plus-1", "3",
                         "--radius", "5", "--root", "0", "--target", "3", "--order", "32",
                         "--route", route)
    assert code == 2
    assert out == ""
    assert err == "error: the euler route is rooted; drop --target\n"
    assert passes == []


@pytest.mark.parametrize("command", [("graphs",), ("verify", "--order", "6")])
def test_unreadable_graph_file_is_usage_error(capsys, tmp_path, command):
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run(capsys, command[0], "--graph", str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


@pytest.mark.parametrize("text", [
    '{"vertices": 1e999, "edges": []}',
    '{"vertices": 2, "edges": [[0, 1.7]]}',
    '{"vertices": true, "edges": []}',
    '{"vertices": 2, "edges": [[0, true]]}',
])
def test_graph_json_accepts_integers_only(capsys, tmp_path, text):
    # int() used to raise OverflowError on 1e999 and read 1.7 and true as 1
    path = tmp_path / "graph.json"
    path.write_text(text)
    code, out, err = run(capsys, "graphs", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad graph JSON: ") and err.count("\n") == 1


def test_tallies_past_cap_are_usage_errors(capsys):
    # the Euler route reads the closed-walk tally, which stops where the
    # enumeration oracle does
    assert TALLY_CAP == MAX_ENUMERATION_LENGTH
    for argv in (["euler", "--family", "petersen", "--root", "0", "--order", "13"],
                 ["zeta", "--family", "petersen", "--root", "0", "--order", "13",
                  "--route", "all"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: length 13 exceeds cap 12\n"


@pytest.mark.parametrize("route", ["all", "euler"])
def test_tally_cap_is_refused_before_any_route(capsys, monkeypatch, route):
    # --route all past the tally cap used to run the log and formula routes
    # before the Euler tally refused: 5.6 s a process on tree_ball(3,9) at
    # order 64
    import bzk.zeta

    def refused(*args):
        raise AssertionError("a route ran before the tally cap was checked")

    for name in ("zeta_log_series", "zeta_formula_series", "euler_product_series",
                 "zeta_spectral_report"):
        monkeypatch.setattr(bzk.zeta, name, refused)
    code, out, err = run(capsys, "zeta", "--family", "tree_ball", "--q-plus-1", "3",
                         "--radius", "9", "--root", "0", "--order", "64", "--route", route)
    assert code == 2
    assert out == ""
    assert err == "error: length 64 exceeds cap 12\n"


def test_eigensolver_failure_is_usage_error(capsys, perturbed_eigh):
    code, out, err = run(capsys, "zeta", "--family", "petersen", "--root", "0",
                         "--route", "spectral", "--u", "0.05", "--t", "0.25")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_byte_identical_output(capsys):
    args = ("zeta", "--family", "petersen", "--root", "0", "--order", "6", "--route", "log")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("verify", "--family", "complete", "--n", "4", "--root", "0", "--order", "6")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_from_graph_file(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("# triangle\n0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "verify", "--graph", str(path), "--order", "6")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_thread_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("BZK_THREADS", "4")
    code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "4", "--order", "6")
    assert code == 0
    assert json.loads(out)["pass"] is True


# Runs commands in a fresh interpreter and prints, after each stage, whether
# numpy has been imported and which bzk modules are loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import bzk, bzk.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return bzk.cli.main(list(argv))

def stage(codes):
    print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                      "dataclasses": "dataclasses" in sys.modules,
                      "inspect": "inspect" in sys.modules,
                      "bzk": sorted(m for m in sys.modules if m.startswith("bzk"))}))

stage([])
stage([run("verify", "--family", "petersen", "--order", "10"),
       run("euler", "--family", "petersen", "--root", "0", "--order", "8"),
       run("graphs", "--family", "petersen"),
       run("zeta", "--family", "petersen", "--root", "0", "--route", "log")])
stage([run("zeta", "--family", "petersen", "--root", "0", "--route", "spectral",
           "--u", "0.05"),
       run("heat", "--family", "petersen", "--root", "0", "--tau-grid", "0:2:3")])
"""


def test_exact_commands_import_no_numpy():
    # the exact layer never loads numpy; the first float call does.  No
    # command of the exact layer loads dataclasses or inspect either, whose
    # import costs about 10 ms a process
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    imported, exact, numeric = (json.loads(line) for line in proc.stdout.splitlines())
    for stage in (imported, exact):
        assert stage["numpy"] is False
        assert stage["dataclasses"] is False
        assert stage["inspect"] is False
        assert {"bzk.heat", "bzk.zeta"} <= set(stage["bzk"])
    assert exact["codes"] == [0, 0, 0, 0]
    assert numeric["codes"] == [0, 0]
    assert numeric["numpy"] is True


# Runs each command in a fresh interpreter whose address space is capped at
# 1 GB, so a dense float route that builds its n x n data before the vertex
# cap refuses the graph fails with MemoryError or the timeout instead of
# taking the machine's memory.  numpy loads on the first float call, so a
# refused command must leave it unloaded.
_DENSE_CAP_PROBE = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from bzk.cli import main

outcomes = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    outcomes.append([code, err.getvalue(), "numpy" in sys.modules])
print(json.dumps(outcomes))
"""


def test_dense_float_routes_refuse_graphs_past_the_vertex_cap():
    # cycle(513) sits just past a cap of 512 vertices, hypercube(12) far past
    assert MAX_DENSE_VERTICES == 512
    heat = ["heat", "--root", "0", "--tau-grid", "0:1:2"]
    past = [heat + ["--family", "cycle", "--n", "513", "--route", route]
            for route in ("spectral", "bessel", "both")]
    past += [heat + ["--family", "hypercube", "--d", "12"],
             ["zeta", "--family", "cycle", "--n", "513", "--root", "0", "--route", "spectral"],
             ["zeta", "--family", "hypercube", "--d", "12", "--root", "0"]]
    # the exact routes alone take any graph under the edge cap, and the
    # dense routes take the graph at the cap
    admitted = [["zeta", "--family", "cycle", "--n", "513", "--root", "0",
                 "--route", "log", "--order", "4"],
                heat + ["--family", "cycle", "--n", "512", "--route", "both"]]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DENSE_CAP_PROBE, json.dumps(past + admitted)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout)
    for argv, (code, err, numpy_loaded) in zip(past, outcomes):
        label = "cycle(513) has 513" if "cycle" in argv else "hypercube(12) has 4096"
        assert code == 2, argv
        assert err == f"error: {label} vertices; the dense float routes take at most 512\n"
        assert numpy_loaded is False, argv
    assert [code for code, _, _ in outcomes[len(past):]] == [0, 0]


_CAP_RUN_PROBE = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from bzk.cli import main

out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(json.loads(sys.argv[1]))
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([code, out.getvalue(), err.getvalue(), peak_mb]))
"""


def test_bessel_route_at_the_vertex_cap_stays_small():
    # hypercube(9) has 512 vertices, the cap; the Bessel route used to keep
    # one 512 x 512 matrix per order: 550 MB at tau = 10, and at tau = 20 a
    # numpy MemoryError traceback in 1 GB
    heat = ["heat", "--family", "hypercube", "--d", "9", "--route", "bessel",
            "--root", "0", "--t", "0.5", "--tau-grid"]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outcomes = []
    for grid in ("0:20:2", "0:10:2"):
        proc = subprocess.run([sys.executable, "-c", _CAP_RUN_PROBE, json.dumps(heat + [grid])],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outcomes.append(json.loads(proc.stdout))
    (code, out, err, _), (code_10, out_10, err_10, peak_mb) = outcomes
    assert (code, out, err) == (2, "", "error: Bessel multiplier outside the float range\n")
    assert code_10 == 0 and err_10 == ""
    assert len(out_10.splitlines()) == 3
    assert peak_mb < 100
