"""Output checks, and the reference outputs they compare against.

Every operation must exit 0 and write, for each expected CSV, a sidecar
whose `columns` equal the CSV header; every value must be finite except the
trailing part of `gamma_exact` that the exact-rate extraction truncates, and
`n_exact <= 1 + 1e-6`. Where a reference exists (the built-ins fig2-fig5 on
every seed, every operation on DEFAULT_SEED) every reference column must be
written and lie within 1e-9 of its largest magnitude.

References are stored quantized: each finite column is divided by its
largest magnitude, rounded to multiples of 2**-QBITS (error <= 1.2e-10 of
the scale) and stored as third differences, which compress well for smooth
curves, in an xz-compressed .npz file. Run

    python3 perfbench/check.py --record [WORKLOAD ...]

from the root of a checkout to record them anew, and only at a commit whose
outputs are trusted.
"""

import argparse
import io
import json
import lzma
import os
import sys

import numpy as np

DEFAULT_SEED = 0
REF_TOL = 1e-9
N_EXACT_MAX = 1.0 + 1e-6
# columns that may end in a run of NaN (volterra.exact_rates truncation)
TRUNCATED_COLUMNS = ("gamma_exact",)
STATIONARY_KEYS = ("mean_n0", "mean_n1")
QBITS = 32
DIFFS = 3
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_columns(header, data):
    problems = []
    for j, name in enumerate(header):
        col = data[:, j]
        finite = np.isfinite(col)
        if name in TRUNCATED_COLUMNS:
            k = int(np.argmin(finite)) if not finite.all() else col.size
            if finite[k:].any() or not np.isnan(col[k:]).all():
                problems.append(f"{name}: non-finite values before its truncation point")
        elif not finite.all():
            problems.append(f"{name}: {int((~finite).sum())} non-finite values")
        if name == "n_exact" and np.nanmax(col) > N_EXACT_MAX:
            problems.append(f"n_exact reaches {np.nanmax(col)!r} > {N_EXACT_MAX}")
    return problems


def compare(name, values, ref):
    """Problems of one column against its reference (scale, mask, curve)."""
    scale, nonfinite, curve = ref
    finite = np.isfinite(values)
    if values.shape != curve.shape:
        return [f"{name}: {values.size} rows, reference has {curve.size}"]
    if not np.array_equal(np.flatnonzero(~finite), nonfinite):
        return [f"{name}: non-finite entries differ from the reference"]
    err = np.abs(values[finite] - curve[finite]).max(initial=0.0)
    if err > REF_TOL * scale:
        return [f"{name}: differs from the reference by {err:.3e} "
                f"(allowed {REF_TOL:.0e} x {scale:.3e})"]
    return []


def check_op(op, workdir, refs=None):
    """Problems found in one operation's outputs; an empty list means it passed."""
    out = os.path.join(workdir, op["out"])
    problems = []
    if op["stationary"]:
        with open(os.path.join(out, "stationary.json")) as fh:
            st = json.load(fh)
        if abs(st["sum_p"] - 1.0) > 1e-9 or st["min_p"] < -1e-12:
            problems.append(f"stationary state is not a distribution: {st}")
        for key in STATIONARY_KEYS:
            val = np.array([st[key]])
            ref = refs and refs.get(f"{op['id']}/stationary.{key}")
            if not np.isfinite(val).all():
                problems.append(f"{key} is not finite")
            elif ref:
                problems += compare(key, val, ref)
    seen = {f"{op['id']}/stationary.{key}" for key in STATIONARY_KEYS}
    for csv in op["csv"]:
        path = os.path.join(out, csv)
        if not (os.path.exists(path) and os.path.exists(path + ".meta.json")):
            problems.append(f"{csv} or its sidecar is missing")
            continue
        with open(path + ".meta.json") as fh:
            meta = json.load(fh)
        header, data = read_csv(path)
        if meta.get("columns") != header or meta.get("csv") != csv:
            problems.append(f"{csv}: header {header} does not match the sidecar")
            continue
        problems += [f"{csv}: {p}" for p in check_columns(header, data)]
        for j, name in enumerate(header):
            seen.add(f"{op['id']}/{name}")
            ref = refs and refs.get(f"{op['id']}/{name}")
            if ref:
                problems += [f"{csv}: {p}" for p in compare(name, data[:, j], ref)]
    missing = sorted(k for k in (refs or {}) if k.startswith(op["id"] + "/") and k not in seen)
    if missing:
        problems.append(f"reference columns not written: {missing}")
    return problems


def bytes_written(op, workdir):
    """Bytes of the CSVs and sidecars the operation wrote."""
    out = os.path.join(workdir, op["out"])
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
               if f.endswith((".csv", ".meta.json"))) if os.path.isdir(out) else 0


# ---------------------------------------------------------------------------
# reference storage


def _encode(values):
    finite = np.isfinite(values)
    scale = float(np.abs(values[finite]).max(initial=0.0)) or 1.0
    q = np.zeros(values.size, dtype=np.int64)
    q[finite] = np.rint(values[finite] / scale * 2.0**QBITS).astype(np.int64)
    for _ in range(DIFFS):
        q = np.diff(q, prepend=0)
    return scale, np.flatnonzero(~finite), q


def _decode(scale, nonfinite, diffs):
    q = diffs
    for _ in range(DIFFS):
        q = np.cumsum(q)
    curve = q.astype(float) * (scale / 2.0**QBITS)
    curve[nonfinite] = np.nan
    return curve


def ref_path(workload):
    return os.path.join(REF_DIR, f"{workload}.npz.xz")


def load_refs(workload, seed, rep=0):
    """References that apply to repeat `rep` of this plan: {"<op id>/<column>": (scale, mask, curve)}.

    The built-ins apply to every repeat; the rest were recorded from repeat 0
    of DEFAULT_SEED.
    """
    with lzma.open(ref_path(workload)) as fh, np.load(io.BytesIO(fh.read())) as z:
        stored = {k: z[k] for k in z.files}
    keys = {k.rsplit("/", 1)[0] for k in stored}
    refs = {}
    for key in keys:
        # "<seed or 'any'>/<op id>/<column>"
        when, op_id, column = key.split("/")
        if when == "any" or (int(when) == seed and rep == 0):
            scale, nonfinite = float(stored[key + "/scale"]), stored[key + "/nonfinite"]
            refs[f"{op_id}/{column}"] = (scale, nonfinite,
                                         _decode(scale, nonfinite, stored[key + "/diffs"]))
    return refs


def record(workload, plan, workdir, builtins):
    """Store the outputs of `plan` (run in workdir) as the reference."""
    arrays = {}
    for op in plan:
        out = os.path.join(workdir, op["out"])
        when = "any" if op["id"] in builtins else str(DEFAULT_SEED)
        columns = {}
        if op["stationary"]:
            with open(os.path.join(out, "stationary.json")) as fh:
                st = json.load(fh)
            columns = {f"stationary.{k}": np.array([st[k]]) for k in STATIONARY_KEYS}
        for csv in op["csv"]:
            header, data = read_csv(os.path.join(out, csv))
            columns.update({name: data[:, j] for j, name in enumerate(header)})
        for name, values in columns.items():
            scale, nonfinite, diffs = _encode(values)
            key = f"{when}/{op['id']}/{name}"
            arrays[key + "/scale"] = np.array(scale)
            arrays[key + "/nonfinite"] = nonfinite
            arrays[key + "/diffs"] = diffs
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    os.makedirs(REF_DIR, exist_ok=True)
    with lzma.open(ref_path(workload), "wb", preset=9 | lzma.PRESET_EXTREME) as fh:
        fh.write(buf.getvalue())
    return ref_path(workload)


def record_workload(workload):
    """Run repeat 0 of DEFAULT_SEED's batch of `workload` once and store its outputs."""
    import run
    from workloads import PULSED_BUILTINS, plan

    ops = plan(workload, DEFAULT_SEED)
    builtins = {op["id"] for op in ops if op["argv"][1] in PULSED_BUILTINS}
    with run.Scratch(workload, DEFAULT_SEED) as scratch:
        res = scratch.worker(trace=False, seconds=0, keep_outputs=True)
        failed = [r for r in res["reps"][0]["ops"] if r["rc"] != 0]
        if failed:
            raise SystemExit(f"{workload}: operations failed, nothing recorded: {failed}")
        problems = [p for op in ops for p in check_op(op, scratch.dir)]
        if problems:
            raise SystemExit(f"{workload}: outputs fail the checks: {problems}")
        return record(workload, ops, scratch.dir, builtins)


def main(argv=None):
    from workloads import PLANS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", nargs="*", choices=PLANS, metavar="WORKLOAD",
                    help="record the reference of these workloads (default: all)")
    args = ap.parse_args(argv)
    if args.record is None:
        ap.print_help()
        return 0
    for workload in args.record or PLANS:
        print(record_workload(workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
