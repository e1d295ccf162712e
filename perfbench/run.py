"""atomlaser benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload pulsed --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Workloads (see workloads.py and BENCHMARK.json): pulsed, cw_tcl4, cw_markov.

Every time below is scaled to the reference host speed: multiplied by
calib.CAL_REF_S over the mean time of the calibration loop (calib.py) timed
in the same process right before and right after it (`scale`). The shared
host runs 1.2-1.5x slower for seconds to minutes at a time,
which unscaled medians carried from one run into the next; the loop runs no
atomlaser code, so a change to the package moves the scaled times as much
as the measured ones.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over SETUP_RUNS fresh interpreters of the time to
               import atomlaser.cli and parse the workload's scenarios;
  wall_s       time to finish the workload's batch of operations. One
               fresh process warms up untimed, then repeats the batch
               (each repeat with fresh parameters, workloads.py) while the
               next repeat fits into --seconds, at least twice. Each
               operation's latency is its median over the repeats, and
               wall_s is their sum;
  op_p50_s     the median of those per-operation latencies;
  op_tail_s    over every latency sample of every repeat, the highest
               percentile of TAIL_LADDER with at least ten samples beyond
               it (printed with its percentile and sample count; with
               fewer than twenty samples it is the median);
  peak_rss_mb  peak resident memory of that process.
The unscaled wall time and the host speed (CAL_REF_S over the median
calibration time) are printed as info lines.
--trace 1 runs one untraced and two traced batches, each in a fresh process,
and prints the per-layer metrics of layertrace.py, unscaled. Counts must
repeat exactly in both traced batches and the self times must cover the
traced wall time within 10%.

Each operation's outputs are checked (check.py); `failed` counts operations
that exited nonzero, raised, or failed a check. The last line of stdout is
the JSON result; the lines above it are the environment record and the
metrics in readable form. A copy of everything goes to
.perfbench_results/<workload>-seed<seed>-trace<0|1>.json in the checkout,
with every span of the traced batches.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402
from calib import CAL_REF_S  # noqa: E402

WORKLOADS = tuple(workloads.PLANS)
SETUP_RUNS = 5
# one BLAS thread in this process and every process it starts (numpy is not
# imported yet): the operations gain nothing from a second thread on two
# shared cores, and the calibration loop follows a single thread
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10
TAIL_LADDER = (99, 95, 90, 85, 80, 75, 50)
COVERAGE_TOL = 0.10
COUNT_SUFFIXES = ("_calls", "_points", "_steps", ".hist_macs", ".hist_bytes",
                  ".bytes_written", ".factorizations", ".spans")
LAYER_MODULES = ("atomlaser", "atomlaser.errors", "atomlaser.model", "atomlaser.quad",
                 "atomlaser.tcl", "atomlaser.volterra", "atomlaser.cw", "atomlaser.cli")

_SETUP_CODE = """\
import sys
import time
from calib import calibrate
cal = calibrate()
t0 = time.perf_counter()
import atomlaser.cli as cli
for target in sys.argv[1:]:
    if target in cli.BUILTIN_SCENARIOS:
        cli.parse_scenario(cli.BUILTIN_SCENARIOS[target], target)
    else:
        with open(target) as fh:
            cli.parse_scenario(fh.read(), target)
t1 = time.perf_counter()
print(t1 - t0, cal, calibrate())
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a crashed process)."""


class Scratch:
    """A scratch directory inside the checkout for one run of a workload."""

    def __init__(self, workload, seed, root=None):
        self.root = root or os.getcwd()
        self.src = os.path.join(self.root, "src")
        if not os.path.isfile(os.path.join(self.src, "atomlaser", "cli.py")):
            raise BenchError(f"no atomlaser sources under {self.src}; run from a checkout")
        self.workload, self.seed = workload, seed
        self.ops = workloads.plan(workload, seed)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join((self.src, HERE)),
                        PYTHONDONTWRITEBYTECODE="1")
        self.dir = None

    def __enter__(self):
        base = os.path.join(self.root, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=base)
        os.makedirs(os.path.join(self.dir, "cfg"))
        for op in self.ops:
            if op["config"] is not None:
                with open(os.path.join(self.dir, "cfg", f"{op['id']}.ini"), "w") as fh:
                    fh.write(op["config"])
        with open(os.path.join(self.dir, "plan.json"), "w") as fh:
            json.dump({"workload": self.workload, "seed": self.seed, "src": self.src}, fh)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass

    def _python(self, args, timeout):
        proc = subprocess.run([sys.executable, *args], cwd=self.dir, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc

    def setup_time(self):
        """Seconds a fresh interpreter takes to import atomlaser.cli and parse the
        plan's scenarios, and the calibration times before and after."""
        targets = [op["argv"][1] for op in self.ops]
        proc = self._python(["-c", _SETUP_CODE, *targets], timeout=WORKER_TIMEOUT_S)
        secs, *cals = map(float, proc.stdout.split())
        return secs, cals

    def import_times(self):
        """Cumulative import time of each atomlaser module, from -X importtime."""
        proc = self._python(["-X", "importtime", "-c", "import atomlaser.cli"],
                            timeout=WORKER_TIMEOUT_S)
        times = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in LAYER_MODULES:
                times[parts[2]] = int(parts[1]) * 1e-6
        return times

    def worker(self, trace, seconds, keep_outputs=False):
        """Run the batch in a fresh process for `seconds` (once if 0); returns its record."""
        result = os.path.join(self.dir, "result.json")
        self._python([os.path.join(HERE, "worker.py"), "plan.json", result,
                      "--trace", str(int(trace)), "--seconds", str(seconds),
                      *(["--keep"] if keep_outputs else [])], timeout=WORKER_TIMEOUT_S)
        with open(result) as fh:
            return json.load(fh)


def tail_percentile(samples):
    """(percentile, value): the highest of TAIL_LADDER with TAIL_BEYOND samples beyond it.

    Percentiles come from a fixed ladder so that a run with one repeat more
    or less still reports the same percentile. With too few samples for any
    rung (the cw workloads hold one operation per repeat, 5 to 15 samples a
    run) it is the median: the maximum of a few samples moves with every
    stalled repeat.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)          # nearest rank, ceil(p n / 100)
        if n - rank >= TAIL_BEYOND or p == TAIL_LADDER[-1]:
            return p, xs[rank - 1]


def environment(root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        dll = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                getter = getattr(dll, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "atomlaser", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": os.getloadavg()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def tally_checks(res, tally):
    """Count every operation of every repeat into tally; returns the bytes of the last repeat."""
    for rep in res["reps"]:
        for rec in rep["ops"]:
            tally["attempted"] += 1
            if rec["problems"]:
                tally["failed"] += 1
                tally["problems"].append({rec["id"]: rec["problems"]})
    return sum(rec["bytes_written"] for rec in res["reps"][-1]["ops"])


def scale(samples, cals):
    """Times scaled to the reference host speed.

    samples holds (seconds, j) pairs, each time measured between the
    calibrations cals[j] and cals[j + 1], which give the host's speed then.
    """
    return [secs * CAL_REF_S / ((cals[j] + cals[j + 1]) / 2.0) for secs, j in samples]


def measure(scratch, seconds, tally):
    setups, cals = [], []
    for _ in range(SETUP_RUNS):
        secs, setup_cals = scratch.setup_time()
        setups.append((secs, len(cals)))
        cals += setup_cals
    setup_s = statistics.median(scale(setups, cals))
    raw_setup_s = statistics.median(secs for secs, _ in setups)

    res = scratch.worker(trace=False, seconds=seconds)
    tally_checks(res, tally)
    raw, cals = {}, []
    for rep in res["reps"]:
        for k, rec in enumerate(rep["ops"]):
            raw.setdefault(rec["id"], []).append((rec["latency_s"], len(cals) + k))
        cals += rep["cal_s"]
    latencies = [scale(xs, cals) for xs in raw.values()]
    per_op = [statistics.median(xs) for xs in latencies]    # over the repeats
    samples = [x for xs in latencies for x in xs]
    p, tail = tail_percentile(samples)
    metrics = {
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail,
        "setup_s": setup_s,
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
    }
    info = {"repeats": len(res["reps"]), "op_tail_percentile": p, "op_samples": len(samples),
            "host_speed": CAL_REF_S / statistics.median(cals),
            "raw_wall_s": sum(statistics.median(s for s, _ in xs) for xs in raw.values()),
            "raw_setup_s": raw_setup_s,
            "raw_latencies_s": {op: [s for s, _ in xs] for op, xs in raw.items()}}
    return metrics, info


def measure_traced(scratch, tally):
    untraced = scratch.worker(trace=False, seconds=0)
    tally_checks(untraced, tally)
    passes, spans = [], []
    for _ in range(2):
        res = scratch.worker(trace=True, seconds=0)
        spans.append(res["spans"])
        wall = res["reps"][0]["wall_s"]
        m = layertrace.summarize(res["spans"], wall)
        m["cli.bytes_written"] = tally_checks(res, tally)
        m["trace.wall_s"] = wall
        passes.append(m)
    problems = []
    for name in passes[0]:
        if name.endswith(COUNT_SUFFIXES) and passes[0][name] != passes[1][name]:
            problems.append(f"count {name} differs between traced runs: "
                            f"{passes[0][name]} vs {passes[1][name]}")
    for i, m in enumerate(passes):
        if abs(m["trace.coverage"] - 1.0) > COVERAGE_TOL:
            problems.append(f"traced run {i + 1}: self times cover {m['trace.coverage']:.3f} "
                            f"of the traced wall time")
    metrics = {}
    for name, first in passes[0].items():
        is_count = name.endswith(COUNT_SUFFIXES)
        metrics[name] = first if is_count else (first + passes[1][name]) / 2.0
    metrics["trace.untraced_wall_s"] = untraced["reps"][0]["wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    for module, secs in scratch.import_times().items():
        metrics[f"setup.import_s.{module}"] = secs
    return metrics, {"trace_problems": problems, "spans": spans}


def main(argv=None):
    ap = argparse.ArgumentParser(description="atomlaser benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predicted = set(json.load(fh)["predictions"])
    if predicted != {m["name"] for m in spec["per_layer"]}:
        raise BenchError("predictions.json and the per_layer metrics of BENCHMARK.json differ")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    scratch = Scratch(args.workload, args.seed, root)
    env = environment(root)
    tally = {"attempted": 0, "failed": 0, "problems": []}
    with scratch:
        if args.trace:
            metrics, info = measure_traced(scratch, tally)
        else:
            metrics, info = measure(scratch, args.seconds, tally)
    env["loadavg_1m_after"] = os.getloadavg()[0]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json were not measured: {missing}")
    correct = tally["failed"] == 0 and not info.get("trace_problems")
    out = {
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    spans = info.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "info": info, "spans": spans,
              "fail_frac": tally["failed"] / tally["attempted"],
              "problems": tally["problems"], "result": out}
    results = os.path.join(root, ".perfbench_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(env, sort_keys=True))
    for key, val in info.items():
        print(f"info {key} {json.dumps(val)}")
    for problem in tally["problems"] + info.get("trace_problems", []):
        print(f"FAILED {json.dumps(problem)}")
    print(f"fail_frac {record['fail_frac']:.6g} ({tally['failed']} of {tally['attempted']} "
          f"operations)")
    for m in wanted:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
