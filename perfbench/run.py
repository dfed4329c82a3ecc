"""End-to-end and per-layer benchmark of bzk.

    python3 perfbench/run.py --workload {verify-vt,deep-series,numeric} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each round runs the workload's fixed batch
of operations in fresh processes, one operation at a time; rounds repeat
while the next one is expected to end within S seconds.  Every output is
checked against the references in reference.py, which share no code with
bzk.  End-to-end times are scaled by the calibrations of calibrate.py, timed
next to each operation and set-up sample.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1).  See README.md in
this directory for the workloads and metrics.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import reference
import tracing
from calibrate import STARTUP_REF_S, around, calibrate, scaled, startup_calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

SETUP_PER_ROUND = 2
PROCESS_TIMEOUT_S = 150.0

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB")]
# per-layer metrics that run.py computes; the rest come from the tracer
RUN_LAYERS = [("trace.overhead_s", "s"), ("wall.setup_s", "s"), ("wall.run_s", "s"),
              ("wall.op_p50_s", "s"), ("calib.loop_s", "s"), ("calib.startup_s", "s")]

VERIFY_ORDER = 10
DEEP_ORDER = 16
HEAT_TAUS = [0.5 * k for k in range(1, 11)]
HEAT_TS = [-0.5, 0.0, 0.5]
HEAT_TOL = 1e-10
# below 1/alpha(g, 0.5) on Petersen (0.244) and hypercube(4) (0.194)
SPECTRAL_US = [0.03, 0.06, 0.09, 0.12]
SPECTRAL_TS = [-0.5, -0.25, 0.0, 0.25, 0.5]
SPECTRAL_RTOL = 1e-12


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# workloads: a job is {"graphs": {key: bzk.generate arguments}, "ops": [...]}


def _verify_argv(spec):
    family, *params = spec
    flags = {"petersen": [], "hypercube": ["--d"], "complete": ["--n"]}[family]
    argv = ["verify", "--family", family, "--order", str(VERIFY_ORDER)]
    for flag, value in zip(flags, params):
        argv += [flag, str(value)]
    return argv


def verify_vt(rng):
    """bzk verify on three vertex-transitive graphs, every root; the seed
    orders the three processes."""
    graphs = {"petersen": ["petersen"], "hypercube3": ["hypercube", 3],
              "complete4": ["complete", 4]}
    keys = sorted(graphs)
    rng.shuffle(keys)
    return {"graphs": graphs,
            "ops": [["verify", key, _verify_argv(graphs[key])] for key in keys]}


def deep_series(rng):
    """Log and formula routes at order 16, two roots on each graph.  All
    roots of hypercube(5) are alike, and so are all leaves of
    tree_ball(3,4), so the drawn roots change labels, not work."""
    graphs = {"hypercube5": ["hypercube", 5], "tree_ball34": ["tree_ball", 3, 4]}
    n, pairs = reference.build(graphs["tree_ball34"])
    leaves = [v for v in range(n) if sum(v in p for p in pairs) == 1]
    roots = {"hypercube5": rng.sample(range(32), 2),
             "tree_ball34": [0, rng.choice(leaves)]}
    ops = [["route", key, route, x0, DEEP_ORDER]
           for key in graphs for x0 in roots[key] for route in ("log", "formula")]
    return {"graphs": graphs, "ops": ops}


def numeric(rng):
    """Bessel heat-kernel points at every target, and spectral zeta points,
    at a root drawn on each vertex-transitive graph; the seed also shuffles
    the batch.  The lru caches hold every key the batch uses, so the order
    does not change the work."""
    graphs = {"petersen": ["petersen"], "hypercube5": ["hypercube", 5],
              "hypercube4": ["hypercube", 4]}
    ops = []
    for key in ("petersen", "hypercube5"):
        n = reference.build(graphs[key])[0]
        x0 = rng.randrange(n)
        ops += [["heat", key, x0, x, tau, t, HEAT_TOL]
                for t in HEAT_TS for tau in HEAT_TAUS for x in range(n)]
    for key in ("petersen", "hypercube4"):
        x0 = rng.randrange(reference.build(graphs[key])[0])
        ops += [["spectral", key, x0, u, t] for t in SPECTRAL_TS for u in SPECTRAL_US]
    rng.shuffle(ops)
    return {"graphs": graphs, "ops": ops}


WORKLOADS = {"verify-vt": verify_vt, "deep-series": deep_series, "numeric": numeric}


# ---------------------------------------------------------------------------
# processes


def _env():
    env = {k: v for k, v in os.environ.items() if k != "BZK_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _spawn(argv, stdin_text, check=True):
    """Run a process to its end; returns (stdout, exit code, wall seconds,
    peak RSS in MB, seconds until it printed its first line)."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, cwd=ROOT, env=_env(), text=True)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.stdin.write(stdin_text)
            proc.stdin.close()
            first = proc.stdout.readline()
            first_s = time.perf_counter() - start
            rest = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if check and proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode(errors="replace").strip().splitlines()[-3:]
            raise BenchError(f"{argv[1:]} exited {proc.returncode}: {' | '.join(tail)}")
    return first + rest, proc.returncode, wall, usage.ru_maxrss / 1024.0, first_s


def run_worker(job, trace_file=None):
    """One round in a fresh worker; returns its payload plus setup_s (from
    process start to "ready") and peak_rss_mb."""
    job = dict(job, trace_file=trace_file)
    out, _, _, rss, setup_s = _spawn([sys.executable, WORKER], json.dumps(job) + "\n")
    lines = out.splitlines()
    if len(lines) != 2 or lines[0] != "ready":
        raise BenchError(f"worker printed {out[:200]!r}")
    payload = json.loads(lines[1])
    payload.update(setup_s=setup_s, peak_rss_mb=rss)
    return payload


def run_setup(job, starts):
    """One set-up sample: a worker that only imports bzk and builds the
    graphs, tagged with the number of start-up calibrations in `starts`."""
    payload = run_worker(dict(job, ops=[]))
    payload["setup_tag"] = len(starts)
    return payload


def run_verify_round(job, cals):
    """One round of verify-vt: one `bzk verify` process per graph, each
    followed by a calibration appended to `cals`."""
    outputs, op_s, op_tag, rss = [], [], [], []
    for op in job["ops"]:
        out, code, wall, peak, _ = _spawn([sys.executable, "-m", "bzk", *op[2]], "",
                                          check=False)
        op_tag.append(len(cals))
        cals.append(calibrate())
        outputs.append({"exit": code, "report": json.loads(out) if out.strip() else None})
        op_s.append(wall)
        rss.append(peak)
    return {"op_s": op_s, "op_tag": op_tag, "cals": cals, "outputs": outputs,
            "peak_rss_mb": max(rss)}


# ---------------------------------------------------------------------------
# checks against the references


class Checker:
    def __init__(self, job):
        self.job = job
        self.graphs = {key: reference.build(spec) for key, spec in job["graphs"].items()}
        self.errors = []
        self._series = {}
        self._heat = {}
        self._spectral = {}
        self._checked_tallies = set()

    def graphs_match(self, payload_graphs):
        for key, (n, pairs) in self.graphs.items():
            got = payload_graphs[key]
            if got["n"] != n or [tuple(p) for p in got["pairs"]] != pairs:
                self.errors.append(f"graph {key}: bzk built a different graph")

    def reference_series(self, key, x0, order, points=None):
        """{t: exact u-coefficients} of the rooted zeta at order + 1 integer
        t values, or only at `points`; self-checks the tally once per root."""
        n, pairs = self.graphs[key]
        if (key, x0) not in self._checked_tallies:
            self._checked_tallies.add((key, x0))
            self.errors += [f"reference {key} root {x0}: {e}"
                            for e in reference.self_check_tally(n, pairs, x0, order)]
        out = {}
        for t in points or reference.t_points(order):
            if (key, x0, order, t) not in self._series:
                self._series[key, x0, order, t] = reference.rooted_zeta_at(n, pairs, x0, order, t)
            out[t] = self._series[key, x0, order, t]
        return out

    def route_series(self, key, x0, order, series, points=None):
        """First mismatch of an exact route's series with the reference."""
        return reference.series_mismatch(reference.parse_series(series), order,
                                         self.reference_series(key, x0, order, points))

    def heat_fails(self, op, output):
        """True when the Bessel value misses exp(-tau L) by more than tol."""
        key, x0, x, tau, _, tol = op[1:]
        if (key, tau) not in self._heat:
            self._heat[key, tau] = reference.heat_matrix(*self.graphs[key], tau)
        return not abs(output[0] - self._heat[key, tau][x0, x]) <= tol

    def spectral(self, op, output):
        key, _, u, t = op[1:]
        if (key, u, t) not in self._spectral:
            self._spectral[key, u, t] = reference.vt_rooted_zeta(*self.graphs[key], u, t)
        want = self._spectral[key, u, t]
        if not abs(output[0] - want) <= SPECTRAL_RTOL * abs(want):
            self.errors.append(f"spectral {key} u={u} t={t}: {output[0]} != {want}")

    def verify_report(self, op, output):
        key = op[1]
        n = self.graphs[key][0]
        report = output["report"]
        if output["exit"] != 0 or not report or report.get("pass") is not True:
            self.errors.append(f"verify {key}: exit {output['exit']}, report did not pass")
            return
        results = report["results"]
        roots = sorted(r["root"] for r in results if r["root"] is not None)
        if (report["order"] != VERIFY_ORDER or len(results) != 1 + 4 * n
                or roots != sorted(list(range(n)) * 4)
                or not all(r["pass"] is True for r in results)):
            self.errors.append(f"verify {key}: report does not cover 4 passing checks per root")

    def deep_pair(self, key, x0, log, formula):
        points = None
        if key == "tree_ball34":
            # not vertex-transitive: the two routes must agree exactly, and
            # match the tally where the t^2 (1-t)^2 defect vanishes
            if log != formula:
                self.errors.append(f"{key} root {x0}: log and formula routes differ")
            points = [0, 1]
        for name, series in (("log", log), ("formula", formula)):
            bad = self.route_series(key, x0, DEEP_ORDER, series, points)
            if bad:
                self.errors.append(f"{key} root {x0} {name}: {bad}")

    def round(self, payload):
        """Check one round's outputs; returns the number of failed operations."""
        failed = 0
        ops, outputs = self.job["ops"], payload["outputs"]
        if len(outputs) != len(ops):
            self.errors.append(f"{len(outputs)} outputs for {len(ops)} operations")
            return 0
        routes = {}  # (graph key, root) -> {route: series}
        for op, output in zip(ops, outputs):
            if op[0] == "heat":
                failed += self.heat_fails(op, output)
            elif op[0] == "spectral":
                self.spectral(op, output)
            elif op[0] == "verify":
                self.verify_report(op, output)
            else:
                routes.setdefault((op[1], op[3]), {})[op[2]] = output
        for (key, x0), pair in routes.items():
            self.deep_pair(key, x0, pair["log"], pair["formula"])
        self.traced_routes(payload)
        return failed

    def traced_routes(self, payload):
        """Routes captured inside a traced verify run: every root's log,
        formula and Euler series must equal the reference."""
        if "routes" not in payload or self.job["ops"][0][0] != "verify":
            return
        key_of = {g["label"]: key for key, g in payload["graphs"].items()}
        seen = set()
        for route, label, x0, order, series in payload["routes"]:
            key = key_of[label]
            seen.add((key, x0, route))
            bad = self.route_series(key, x0, order, series)
            if bad:
                self.errors.append(f"traced {route} route, {key} root {x0}: {bad}")
        want = {(key, x0, route) for key, (n, _) in self.graphs.items()
                for x0 in range(n) for route in ("log", "formula", "euler")}
        if seen != want:
            self.errors.append(f"traced verify ran {len(seen)} of {len(want)} route calls")


# ---------------------------------------------------------------------------
# measurement


def op_times(payload):
    """Each operation's wall time in a round, scaled by its calibration."""
    return [scaled(s, c) for s, c in zip(payload["op_s"], payload["op_cal_s"])]


def measure(workload, seed, seconds, trace):
    """Whole rounds, each after SETUP_PER_ROUND set-up samples, while the
    next one is expected to end within `seconds`; at least one round."""
    job = WORKLOADS[workload](random.Random(seed))
    verify_in_processes = workload == "verify-vt" and not trace
    setups, rounds, traced = [], [], []
    start = time.perf_counter()
    starts = [startup_calibrate()]
    cals = [calibrate()] if verify_in_processes else []
    while True:
        for _ in range(SETUP_PER_ROUND):
            setups.append(run_setup(job, starts))
        starts.append(startup_calibrate())
        if trace:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"trace-{workload}-seed{seed}-{len(traced)}.json")
            rounds.append(run_worker(job))
            traced.append(run_worker(job, trace_file=path))
        else:
            rounds.append(run_verify_round(job, cals) if verify_in_processes
                          else run_worker(job))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    for p in setups:
        p["setup_cal_s"] = around(starts, p["setup_tag"])
    for p in rounds + traced:
        p["op_cal_s"] = [around(p["cals"], tag) for tag in p["op_tag"]]

    checker = Checker(job)
    for payload in setups:
        checker.graphs_match(payload["graphs"])
    if workload == "numeric":
        checker.errors += reference.self_check_heat()
        for key in ("petersen", "hypercube4"):
            checker.errors += reference.self_check_spectral(*checker.graphs[key], 0)
    failed = sum(checker.round(payload) for payload in rounds + traced)
    attempted = len(job["ops"]) * len(rounds + traced)

    med = statistics.median
    if trace:
        metrics = {name: med(p["layers"][name] for p in traced)
                   for name, _ in tracing.METRICS}
        metrics.update({
            "trace.overhead_s": (med(sum(op_times(p)) for p in traced)
                                 - med(sum(op_times(p)) for p in rounds)),
            "wall.setup_s": med(p["setup_s"] for p in setups),
            "wall.run_s": med(sum(p["op_s"]) for p in rounds),
            "wall.op_p50_s": med(s for p in rounds for s in p["op_s"]),
            "calib.loop_s": med(c for p in rounds for c in p["op_cal_s"]),
            "calib.startup_s": med(p["setup_cal_s"] for p in setups),
        })
        units = dict(tracing.METRICS + RUN_LAYERS)
    else:
        metrics = {
            "setup_s": med(scaled(p["setup_s"], p["setup_cal_s"], STARTUP_REF_S)
                           for p in setups),
            "run_s": med(sum(op_times(p)) for p in rounds),
            "op_p50_s": med(s for p in rounds for s in op_times(p)),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in rounds),
        }
        units = dict(END_TO_END)
    for error in checker.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    samples = {
        "setup": [[p["setup_s"], p["setup_cal_s"]] for p in setups],
        "rounds": [list(zip(p["op_s"], p["op_cal_s"])) for p in rounds],
    }
    return {
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bzk", "__init__.py")):
        print(f"error: no bzk sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        # the raw (wall seconds, calibration seconds) pairs behind the metrics
        json.dump(dict(result, samples=samples), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
