"""Run a workload's batch in one fresh interpreter and record it.

Usage (run by run.py, from the run's scratch directory):

    python3 worker.py PLAN.json RESULT.json --trace 0|1 --seconds S

PLAN.json names the workload and seed. The worker warms up once, untimed,
then runs repeat 0 of the batch (workloads.py) and, while the next repeat
still fits into S seconds, the next repeats; at least MIN_REPS with S > 0,
exactly one with S = 0. Before the first operation and after each one it
times the calibration loop (calib.py), so that run.py can scale the times
to the host's speed during the run. After each repeat, with the
clock stopped, it checks every operation's outputs (check.py) and removes
them (--keep leaves them in out/). RESULT.json gets, per repeat, every
operation's latency, exit code, check problems and bytes written, the
calibration times, plus the worker's peak resident memory and, when
tracing, every span. Tracing runs one repeat and no calibration, so the
spans cover the whole batch.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import check
import workloads
from calib import calibrate

MIN_REPS = 2

# small scenarios that touch the same code paths before the clock starts:
# lazy imports inside scipy and the BLAS thread pool
_WARM_PULSED = """\
[trap]
M = 2e-26
omega0 = 772.8317927830892
sigma_k = 1e6
Gamma = 1e5

[scenario]
name = warm
mode = pulsed_tcl
tcl_order = 6
rates = true

[grid]
t_max_gamma = 3.5
n_steps = 6000
"""

_WARM_CW = """\
[trap]
M = 2e-26
omega0 = 772.8317927830892
sigma_k = 1e6
Gamma = 5e4

[scenario]
name = warm
mode = cw

[grid]
t_max_gamma = 0.1
n_steps = 10

[cw]
kappa1_gamma = 10
Omega_gamma = 15
N = 3
n0_max = 12
n1_max = 8
orders = markov,4
"""


def _stationary(cli, cw, source):
    with open(source) as fh:
        scen = cli.parse_scenario(fh.read(), source)
    params = cw.CwParams(trap=scen.trap, kappa1=scen.cw_kappa1, Omega=scen.cw_Omega,
                         N=scen.cw_N, n0_max=scen.cw_n0_max, n1_max=scen.cw_n1_max,
                         order="markov")
    return cw.stationary_distribution(params)


def _warm_up(cli, workload):
    os.makedirs("warm", exist_ok=True)
    text = _WARM_PULSED if workload == "pulsed" else _WARM_CW
    with open("warm/warm.ini", "w") as fh:
        fh.write(text)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "warm/warm.ini", "--out", "warm"])
    if rc != 0:
        raise SystemExit(f"warm-up run exited {rc}")


def run_repeat(cli, cw, ops, tracer, cal):
    """Run one repeat of the batch.

    Returns (records, its wall time, calibration times, stationary states).
    """
    records, stationary = [], {}
    sink = io.StringIO()
    cals = [calibrate()] if cal else []
    t_batch = time.perf_counter()
    for op in ops:
        if tracer:
            tracer.op = op["id"]
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            if op["stationary"]:
                stationary[op["id"]] = _stationary(cli, cw, op["argv"][1])
            with contextlib.redirect_stdout(sink):
                rc = cli.main(op["argv"])
        except SystemExit as exc:   # argparse rejecting an argument
            rc = exc.code
        except Exception:
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if cal:
            cals.append(calibrate())
        records.append({"id": op["id"], "rc": rc, "error": error, "latency_s": t1 - t0})
        sink.seek(0)
        sink.truncate()
    wall = sum(rec["latency_s"] for rec in records) if cal else time.perf_counter() - t_batch
    return records, wall, cals, stationary


def write_inputs(ops):
    os.makedirs("cfg", exist_ok=True)
    for op in ops:
        shutil.rmtree(op["out"], ignore_errors=True)
        if op["config"] is not None:
            with open(os.path.join("cfg", f"{op['id']}.ini"), "w") as fh:
                fh.write(op["config"])


def check_outputs(ops, records, stationary, refs, keep):
    """Check each operation of a finished repeat into its record; then remove its outputs."""
    for op_id, state in stationary.items():
        p = state.p
        os.makedirs(f"out/{op_id}", exist_ok=True)
        with open(f"out/{op_id}/stationary.json", "w") as fh:
            json.dump({"mean_n0": state.mean_n0(), "mean_n1": state.mean_n1(),
                       "sum_p": float(p.sum()), "min_p": float(p.min())}, fh)
    for op, rec in zip(ops, records):
        if rec["rc"] != 0:
            rec["problems"] = [f"exit {rec['rc']}: {rec['error'] or ''}".strip()]
        else:
            try:
                rec["problems"] = check.check_op(op, ".", refs)
            except (OSError, ValueError, KeyError) as exc:
                rec["problems"] = [f"outputs unreadable: {exc!r}"]
        rec["bytes_written"] = check.bytes_written(op, ".")
        if not keep:
            shutil.rmtree(op["out"], ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("result")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--keep", action="store_true", help="keep the last repeat's outputs")
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    workload, seed = plan["workload"], plan["seed"]

    from atomlaser import cli, cw
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"atomlaser was imported from {cli.__file__}, not from {src}")
    _warm_up(cli, workload)

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    reps, walls = [], []
    t_start = time.perf_counter()
    while True:
        rep = len(reps)
        ops = workloads.plan(workload, seed, rep)
        write_inputs(ops)
        t0 = time.perf_counter()
        records, wall, cals, stationary = run_repeat(cli, cw, ops, tracer,
                                                     cal=not args.trace)
        rep_s = time.perf_counter() - t0
        check_outputs(ops, records, stationary, check.load_refs(workload, seed, rep),
                      args.keep)
        reps.append({"wall_s": wall, "ops": records, "cal_s": cals})
        walls.append(rep_s)
        elapsed = time.perf_counter() - t_start
        if args.seconds <= 0 or (len(reps) >= MIN_REPS
                                 and elapsed + statistics.median(walls) > args.seconds):
            break

    result = {"reps": reps,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "spans": tracer.spans if tracer else None}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
