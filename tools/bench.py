#!/usr/bin/env python3
"""The benchmark trajectory: BENCH_<pr>.json files and A/B comparisons.

    python3 tools/bench.py record --out BENCH_32.json
    python3 tools/bench.py ab --base REV

Both run `python3 perfbench/run.py --workload W --seed S --seconds SECONDS
--trace 0` as it is, for every workload of BENCHMARK.json and each seed of
RECORD_SEEDS (record) or AB_SEEDS (ab), and read the record it leaves in
`.perfbench_results/W-seedS-trace0.json`.
Every `__pycache__` under `src/` and `perfbench/` is cleared before each
run, so that no run reads bytecode that another left (`setup_s` would
otherwise depend on what ran in the checkout before), and the runs write
none.

record  runs the working tree and writes, per workload and end-to-end
        metric, the median and the interquartile range over the seeds, the
        seeds, `correct` and `failed`, and the environment record (commit,
        src_sha256, nproc, blas, blas_threads, host speed).
ab      clones REV into a temporary directory from the local object store
        (no network) and runs it and the working tree in turn, the side
        that goes first alternating from one seed to the next. It prints
        both medians and IQRs, the pairs in which the working tree was
        ahead, whether the gap is shown under the claim rule (a gap no
        larger than the base's IQR is not), and whether the working tree's
        median stays within the metric's BENCHMARK.json bound of the
        base's ("unresolved" where the base's IQR is wider than the bound
        and the head's runs do not all read better than all the base's).

Exits 1 when a run fails (run.py exits non-zero) or reports anything but
`"correct": true` with `failed` 0, and 2 when it cannot run. Standard
library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from same_outputs import clone, git

SECONDS = 30
RECORD_SEEDS = (1, 2, 3, 4, 5)
AB_SEEDS = tuple(range(11, 21))
ENV_KEYS = ("commit", "src_sha256", "nproc", "cpus_usable", "blas", "blas_threads",
            "python", "numpy", "scipy")
LIMITS = (
    "cw_markov spreads wider than perfbench/README.md states: IQR/median of wall_s "
    "0.13-0.22 on a 2-CPU host",
    "cw_markov peak_rss_mb creeps up by 0.1-0.9 MiB a repeat, so it depends on how many "
    "repeats fit into --seconds",
    "no workload runs what `atomlaser run fig7` runs: forked children over the full "
    "horizon, each with a factor pool (every workload runs with one BLAS thread)",
    "times are scaled to a reference host speed by perfbench's calibration loop; "
    "compare runs of one host only",
)


class RunFailed(Exception):
    pass


def clear_bytecode(tree):
    for top in ("src", "perfbench"):
        for dirpath, dirnames, _ in os.walk(os.path.join(tree, top)):
            if "__pycache__" in dirnames:
                shutil.rmtree(os.path.join(dirpath, "__pycache__"))
                dirnames.remove("__pycache__")


def run_once(tree, workload, seed):
    """The record perfbench/run.py of tree writes for one run."""
    clear_bytecode(tree)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(cmd[1:])} in {tree} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    path = os.path.join(tree, ".perfbench_results", f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        record = json.load(fh)
    result = record["result"]
    print(f"  {workload} seed {seed}: correct {result['correct']}, failed {result['failed']}, "
          + ", ".join(f"{m} {v['value']:.4g}" for m, v in result["metrics"].items()),
          file=sys.stderr, flush=True)
    return record


def quartiles(xs):
    """(median, IQR) by statistics.quantiles' default method."""
    if len(xs) < 2:
        return xs[0], 0.0
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, q3 - q1


def summarize(records, metrics):
    """Per metric the values, median and IQR over records; correct and failed."""
    out = {"correct": all(r["result"]["correct"] is True for r in records),
           "attempted": sum(r["result"]["attempted"] for r in records),
           "failed": sum(r["result"]["failed"] for r in records),
           "metrics": {}}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in records]
        median, iqr = quartiles(values)
        out["metrics"][m["name"]] = {"unit": m["unit"], "median": median, "iqr": iqr,
                                     "values": values}
    speeds = [r["info"]["host_speed"] for r in records]
    out["host_speed"] = {"median": statistics.median(speeds), "values": speeds}
    return out


def all_good(summary):
    return all(s["correct"] and s["failed"] == 0 for s in summary.values())


def record(args, root, spec):
    summary, envs = {}, []
    for w in (w["name"] for w in spec["workloads"]):
        records = [run_once(root, w, seed) for seed in RECORD_SEEDS]
        envs += [r["environment"] for r in records]
        summary[w] = summarize(records, spec["end_to_end"])
    env = {k: envs[0].get(k) for k in ENV_KEYS}
    if len({e["src_sha256"] for e in envs}) != 1:
        raise RunFailed("the sources changed while the runs were going")
    doc = {"command": "python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {SECONDS} --trace 0",
           "seeds": list(RECORD_SEEDS), "seconds": SECONDS, "environment": env,
           "workloads": summary, "limits": list(LIMITS)}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for w, s in summary.items():
        print(f"{w}: correct {s['correct']}, failed {s['failed']} of {s['attempted']}")
        for name, m in s["metrics"].items():
            print(f"  {name}: median {m['median']:.4g} {m['unit']}, IQR {m['iqr']:.3g}")
    print(f"wrote {args.out}")
    return 0 if all_good(summary) else 1


def ab(args, root, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        base = os.path.join(tmp, "base")
        print(f"base {clone(root, args.base, base)}, head the working tree of {root}")
        for w in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "head": []}
            for i, seed in enumerate(AB_SEEDS):
                order = (("base", base), ("head", root))
                for side, tree in (order if i % 2 == 0 else order[::-1]):
                    runs[side].append(run_once(tree, w, seed))
            sides = {side: summarize(recs, spec["end_to_end"]) for side, recs in runs.items()}
            ok = ok and all_good(sides)
            print(f"{w}: " + ", ".join(f"{side} correct {s['correct']} failed {s['failed']}"
                                       for side, s in sides.items()))
            for name, m in bounds.items():
                b, h = sides["base"]["metrics"][name], sides["head"]["metrics"][name]
                sign = 1.0 if m["better"] == "lower" else -1.0   # cost = sign * value
                ahead = sum(sign * (y - x) < 0 for x, y in zip(b["values"], h["values"]))
                gap = h["median"] - b["median"]
                allowed = m["bound"] * abs(b["median"])
                verdict = "within" if sign * gap <= allowed else "OUTSIDE"
                # a spread wider than the bound cannot tell a regression from
                # noise, unless every head run reads better than every base run
                if b["iqr"] > allowed and (max(sign * v for v in h["values"])
                                           >= min(sign * v for v in b["values"])):
                    verdict = "unresolved"
                shown = abs(gap) > b["iqr"]
                print(f"  {name}: base {b['median']:.4g} (IQR {b['iqr']:.3g}), head "
                      f"{h['median']:.4g} (IQR {h['iqr']:.3g}) {m['unit']}; head ahead in "
                      f"{ahead} of {len(AB_SEEDS)}; gap {gap:+.3g} "
                      f"{'shown' if shown else 'not shown (within the base IQR)'}; "
                      f"{m['bound']:.0%} bound: {verdict}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="write a BENCH_<pr>.json for the working tree")
    rec.add_argument("--out", required=True, help="the file to write, e.g. BENCH_32.json")
    cmp_ = sub.add_parser("ab", help="compare the working tree with a base revision")
    cmp_.add_argument("--base", required=True, help="the revision to compare against")
    args = ap.parse_args(argv)
    try:
        root = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        return (record if args.command == "record" else ab)(args, root, spec)
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    except (subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
