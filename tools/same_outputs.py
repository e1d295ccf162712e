#!/usr/bin/env python3
"""Check that the working tree writes what a base revision writes.

    python3 tools/same_outputs.py BASE_REV

Run from anywhere inside a checkout. BASE_REV (a commit, branch or tag of
this repository) is cloned into a temporary directory from the local
object store, with no network. `atomlaser run fig2` ... `fig5` and
`atomlaser run fig7 --tmax 8.6e-4` then run once with the base's sources and
once with the working tree's, in the same interpreter and environment, and
every CSV, sidecar (*.meta.json), stdout, stderr and exit code is compared
under the output rules of ROADMAP aim 2:

  - every byte is the same, except that
  - `n_exact` and `gamma_exact` may move by 1e-11 of their column maximum
    (the Toeplitz solve reproduces the march to that level), and
  - a cw CSV column, the time column aside, may move by 1e-9 in probability
    units: 1e-9 times the larger of 1 and its column maximum;
  - in a sidecar, a `refinement.estimates` entry may move by twice its
    column's bound (the estimate is a difference of two runs) and
    `cw.clipped_total` by that of `clipped_flux`;
  - in stderr, the path of the tree and the line number in the location
    prefix of a Python warning are not compared.

Prints one line per output and exits 0 when every output agrees, 1 when one
differs, and 2 when the comparison cannot run. Standard library only.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

# fig7 takes 8 steps, and 16 in its dt/2 rerun: past cw.RANNACHER_STEPS = 4
# backward-Euler steps, so the trapezoid steps and their explicit half run too
RUNS = (("fig2",), ("fig3",), ("fig4",), ("fig5",), ("fig7", "--tmax", "8.6e-4"))
EXACT_COLUMNS = ("n_exact", "gamma_exact")
EXACT_TOL = 1e-11
CW_TOL = 1e-9
# per run; the whole check, ten runs and the clone, takes about 5 s on a
# 2-CPU host, so a run that reaches this has hung
TIMEOUT_S = 60
# the location prefix "path.py:123: UserWarning" of a Python warning line
WARNING_AT = re.compile(rb"(?m)^(\S+\.py):\d+: (\w+Warning)")


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def clone(root, rev, dest):
    """A checkout of rev at dest that borrows root's objects (git clone --shared)."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=root)
    git("clone", "--quiet", "--shared", "--no-checkout", root, dest, cwd=root)
    git("checkout", "--quiet", "--detach", sha, cwd=dest)
    return sha


def run_tree(tree, workdir):
    """Run every scenario with tree/src first on the path; {name: bytes} of
    what each run wrote, printed and returned, keyed by relative path."""
    src = os.path.join(tree, "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    where = subprocess.run([sys.executable, "-c", "import atomlaser.cli as c; print(c.__file__)"],
                           env=env, cwd=workdir, text=True, stdout=subprocess.PIPE, check=True)
    if not os.path.realpath(where.stdout.strip()).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"atomlaser was imported from {where.stdout.strip()}, not from {src}")
    outputs = {}
    for args in RUNS:
        out = os.path.join("out", args[0])
        proc = subprocess.run([sys.executable, "-m", "atomlaser.cli", "run", *args, "--out", out],
                              env=env, cwd=workdir, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=TIMEOUT_S)
        stderr = proc.stderr.replace(os.path.realpath(tree).encode(), b"<tree>")
        stderr = stderr.replace(tree.encode(), b"<tree>")
        outputs[f"{args[0]}.stdout"] = proc.stdout
        outputs[f"{args[0]}.stderr"] = WARNING_AT.sub(rb"\1:<line>: \2", stderr)
        outputs[f"{args[0]}.exit"] = str(proc.returncode).encode()
        for name in sorted(os.listdir(os.path.join(workdir, out))):
            with open(os.path.join(workdir, out, name), "rb") as fh:
                outputs[f"{out}/{name}"] = fh.read()
    return outputs


def column_bounds(name, data):
    """{column: the largest move allowed} of the base CSV `name` (0 where
    every byte must stay); cw CSVs are those of fig7."""
    header, rows = read_csv(data)
    bounds = {}
    for k, column in enumerate(header):
        values = [abs(float(row[k])) for row in rows]
        top = max((v for v in values if v == v and v != float("inf")), default=0.0)
        if column in EXACT_COLUMNS:
            bounds[column] = EXACT_TOL * top
        elif os.path.basename(name).startswith("fig7") and k > 0:
            bounds[column] = CW_TOL * max(1.0, top)
        else:
            bounds[column] = 0.0
    return bounds


def read_csv(data):
    lines = data.decode().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def compare_csv(base, head, bounds):
    """The verdict on one CSV pair, given the bound of each base column."""
    (bh, brows), (hh, hrows) = read_csv(base), read_csv(head)
    if bh != hh or len(brows) != len(hrows):
        return f"DIFFERS: header or row count ({len(brows)} rows against {len(hrows)})"
    worst = {}
    for row, (b, h) in enumerate(zip(brows, hrows)):
        for name, x, y in zip(bh, b, h):
            if x == y:
                continue
            dx = abs(float(x) - float(y))
            if not dx <= bounds[name]:      # a nan or inf that changed fails too
                return f"DIFFERS: {name} row {row}: {x} against {y}"
            worst[name] = max(worst.get(name, 0.0), dx)
    moved = ", ".join(f"{n} by {d:.3e} (bound {bounds[n]:.3e})" for n, d in worst.items())
    return f"within bounds: {moved}"


def compare_meta(base, head, bounds):
    b, h = json.loads(base), json.loads(head)
    allowed = {("refinement", "estimates", n): 2.0 * d for n, d in bounds.items()}
    allowed[("cw", "clipped_total")] = bounds.get("clipped_flux", 0.0)
    problems = []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            for key in x:
                walk(x[key], y[key], path + (key,))
        elif x != y:
            both = all(isinstance(v, float) for v in (x, y))
            if not (both and abs(x - y) <= allowed.get(path, 0.0)):
                problems.append(f"{'.'.join(path)}: {x!r} against {y!r}")

    walk(b, h, ())
    return f"DIFFERS: {problems[0]}" if problems else "within bounds"


def compare(base, head):
    """Lines of the report and whether every output agrees."""
    lines, ok = [], True
    bounds = {name: column_bounds(name, data) for name, data in base.items()
              if name.endswith(".csv")}
    for name in sorted(set(base) | set(head)):
        if name not in base or name not in head:
            verdict = f"DIFFERS: written only by the {'head' if name in head else 'base'}"
        elif base[name] == head[name]:
            verdict = "identical"
        elif name.endswith(".csv"):
            verdict = compare_csv(base[name], head[name], bounds[name])
        elif name.endswith(".meta.json"):
            verdict = compare_meta(base[name], head[name], bounds.get(name[:-10], {}))
        else:
            verdict = "DIFFERS"
        ok = ok and not verdict.startswith("DIFFERS")
        lines.append(f"{name}: {verdict}")
    return lines, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_rev", help="the revision to compare against, e.g. a PR's base commit")
    args = ap.parse_args(argv)
    try:
        root = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
        with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
            base_tree = os.path.join(tmp, "base")
            sha = clone(root, args.base_rev, base_tree)
            runs = {}
            for side, tree in (("base", base_tree), ("head", root)):
                workdir = os.path.join(tmp, f"{side}-run")
                os.mkdir(workdir)
                runs[side] = run_tree(tree, workdir)
    except (subprocess.SubprocessError, OSError, RuntimeError) as exc:
        print(f"same_outputs: {exc}", file=sys.stderr)
        return 2
    lines, ok = compare(runs["base"], runs["head"])
    print(f"base {sha}, head the working tree of {root}")
    print("\n".join(lines))
    print("every output agrees" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
