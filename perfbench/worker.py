"""One benchmark round in a fresh interpreter.

Reads a job (graphs and operations, JSON) from the first line of stdin,
imports bzk from the checkout's src/, builds the graphs, prints "ready",
runs the operations one at a time and prints one JSON line with their
outputs and wall times.  It times the calibration loop before the first
operation, after the last, and after each operation that ends CAL_EVERY_S
seconds or more after the previous calibration, and tags each operation with
the number of calibrations taken before it ended.  With a trace file in the
job it installs the tracer first and adds the per-layer metrics.  run.py
starts it; it is not meant to be run by hand.
"""

import contextlib
import io
import json
import os
import sys
import time

from calibrate import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CAL_EVERY_S = 0.5


def _run(bzk, graphs, op):
    kind, key = op[0], op[1]
    g = graphs[key]
    if kind == "route":
        route, x0, order = op[2:]
        fn = bzk.zeta_log_series if route == "log" else bzk.zeta_formula_series
        return fn(g, x0, x0, order)
    if kind == "heat":
        x0, x, tau, t, tol = op[2:]
        return bzk.heat_kernel_bessel(g, x0, x, tau, t, tol)
    if kind == "spectral":
        x0, u, t = op[2:]
        return bzk.zeta_spectral_report(g, x0, x0, u, t)
    if kind == "verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bzk.cli.main(op[2])
        return code, out.getvalue()
    raise ValueError(f"unknown operation {kind!r}")


def _output(op, raw):
    kind = op[0]
    if kind == "route":
        return raw.to_json()
    if kind == "heat":
        return [raw.value, raw.tail_bound]
    if kind == "spectral":
        return [raw["value"], raw["r_tail_bound"]]
    code, text = raw
    return {"exit": code, "report": json.loads(text)}


def main():
    job = json.loads(sys.stdin.readline())
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import bzk
    import bzk.cli
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(bzk.__file__))) != SRC:
        raise SystemExit(f"bzk was imported from {bzk.__file__}, not from {SRC}")

    tracer = None
    if job["trace_file"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    graphs = {key: bzk.generate(*spec) for key, spec in job["graphs"].items()}
    print("ready", flush=True)

    raws, op_s, op_tag = [], [], []
    cals = [calibrate()] if job["ops"] else []
    last_cal = time.perf_counter()
    for op in job["ops"]:
        t0 = time.perf_counter()
        raws.append(_run(bzk, graphs, op))
        op_s.append(time.perf_counter() - t0)
        op_tag.append(len(cals))
        if time.perf_counter() - last_cal >= CAL_EVERY_S or len(op_s) == len(job["ops"]):
            cals.append(calibrate())
            last_cal = time.perf_counter()

    payload = {
        "op_s": op_s,
        "op_tag": op_tag,
        "cals": cals,
        "outputs": [_output(op, raw) for op, raw in zip(job["ops"], raws)],
        "graphs": {key: {"label": g.label, "n": g.vertex_count,
                         "pairs": sorted(g.undirected_pairs())}
                   for key, g in graphs.items()},
    }
    if tracer is not None:
        payload["layers"] = tracer.finish(job["trace_file"], import_s)
        payload["routes"] = tracer.routes
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
