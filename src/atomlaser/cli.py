"""Scenario runner.

Parses a sectioned key-value config (or one of the built-in scenarios),
dispatches to the pulsed or continuous-wave solvers, and writes CSV time
series plus a JSON metadata sidecar from which the run can be reproduced.

Exit codes: 0 success, 1 configuration problem (a path that cannot be read
or written included), 2 numerical failure.
"""

import argparse
import configparser
import json
import os
import pickle
import selectors
import signal
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import cw, model, tcl, volterra
from .errors import ConfigError
from .quad import UniformGrid, shared_points_difference

__all__ = ["main", "BUILTIN_SCENARIOS", "parse_scenario", "run_scenario", "list_scenarios"]

FLOAT_FORMAT = "%.11e"
CSV_CHUNK_ROWS = 1024

MODES = ("pulsed_tcl", "cw")

# Shared trap parameter block used by every built-in: a 2e-26 kg atom in a
# 123 Hz trap releasing into free space with a 1e6 1/m momentum spread.
_TRAP = """\
[trap]
M = 2e-26
omega0 = 772.8317927830892
sigma_k = 1e6
"""

BUILTIN_SCENARIOS = {
    "fig2": _TRAP + """\
Gamma = 5e4

[scenario]
name = fig2
description = pulsed decay, moderate coupling: exact vs Born-Markov vs order-4
mode = pulsed_tcl
tcl_order = 4

[grid]
t_max_gamma = 4.0
n_steps = 4000
""",
    "fig3": _TRAP + """\
Gamma = 1e5

[scenario]
name = fig3
description = pulsed decay, stronger coupling: orders 2/4/6 vs exact
mode = pulsed_tcl
tcl_order = 6

[grid]
t_max_gamma = 3.5
n_steps = 4000
""",
    "fig4": _TRAP + """\
Gamma = 1e6

[scenario]
name = fig4
description = strong coupling: occupation collapse and revival
mode = pulsed_tcl
tcl_order = 6

[grid]
t_max_gamma = 10.0
n_steps = 5400
""",
    "fig5": _TRAP + """\
Gamma = 1e5

[scenario]
name = fig5
description = time-local decay rates, exact vs perturbative orders
mode = pulsed_tcl
tcl_order = 6
rates = true

[grid]
t_max_gamma = 3.5
n_steps = 4000
""",
    "fig7": _TRAP + """\
Gamma = 5e4

[scenario]
name = fig7
description = cw laser occupation: markov vs order-2 vs order-4
mode = cw

[grid]
t_max_gamma = 8.0
n_steps = 800

[cw]
kappa1_gamma = 10.0
Omega_gamma = 15.0
N = 20.3
orders = markov,2,4
""",
}

@dataclass
class Scenario:
    name: str
    mode: str
    trap: model.TrapParams
    t_max: float
    dt: float
    n_steps: int
    description: str = ""
    tcl_order: int = 6
    rates: bool = False
    cw_kappa1: float = 0.0
    cw_Omega: float = 0.0
    cw_N: float = 0.0
    cw_n0_max: int = 200
    cw_n1_max: int = 60
    cw_orders: tuple = ("markov", 2, 4)
    cw_r_reading: str = "outer"
    output: str = ""
    source: str = ""


def _get(section, key, conv, required=True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing key '{key}' in section [{section.name}]")
        return default
    raw = section[key]
    try:
        return conv(raw)
    except (ValueError, TypeError, KeyError):
        raise ConfigError(f"key '{key}' in [{section.name}]: cannot parse {raw!r}") from None


def _require_positive(value, name):
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")


def _resolve_grid(t_max, dt, t_name, dt_name, ratio_name):
    """(t_max, dt, n_steps) with t_max rounded to whole steps of dt.

    ConfigError names the config key or CLI flag at fault.
    """
    _require_positive(t_max, t_name)
    _require_positive(dt, dt_name)
    ratio = t_max / dt
    if not np.isfinite(ratio):
        raise ConfigError(f"{ratio_name} must be finite, got {ratio!r}")
    n_steps = int(round(ratio))
    if n_steps < 1:
        raise ConfigError(f"{ratio_name} resolves to zero steps; shrink dt or grow t_max")
    return n_steps * dt, dt, n_steps


def _check_keys(section, allowed):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section [{section.name}]")


def parse_scenario(text, source="<config>"):
    """Parse config text into a fully resolved Scenario."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not parseable: {exc}") from None

    for required in ("scenario", "trap", "grid"):
        if required not in cp:
            raise ConfigError(f"missing section [{required}]")

    sc = cp["scenario"]
    _check_keys(sc, {"name", "description", "mode", "tcl_order", "rates", "output"})
    mode = _get(sc, "mode", str)
    if mode not in MODES:
        raise ConfigError(f"key 'mode': must be one of {MODES}, got {mode!r}")
    if mode == "cw":
        for key in ("tcl_order", "rates"):
            if key in sc:
                raise ConfigError(f"key '{key}' in [scenario] is only valid for mode "
                                  "pulsed_tcl, not cw")
    name = _get(sc, "name", str, required=False, default=os.path.splitext(os.path.basename(source))[0])

    tr = cp["trap"]
    _check_keys(tr, {"M", "omega0", "sigma_k", "Gamma"})
    trap = model.TrapParams(
        M=_get(tr, "M", float),
        omega0=_get(tr, "omega0", float),
        sigma_k=_get(tr, "sigma_k", float),
        Gamma=_get(tr, "Gamma", float),
    )
    gamma_m = model.gamma_markov_closed_form(trap)

    gr = cp["grid"]
    _check_keys(gr, {"t_max", "t_max_gamma", "dt", "n_steps"})
    t_max = _get(gr, "t_max", float, required=False)
    t_max_gamma = _get(gr, "t_max_gamma", float, required=False)
    if (t_max is None) == (t_max_gamma is None):
        raise ConfigError("section [grid] needs exactly one of 't_max' and 't_max_gamma'")
    if t_max is None:
        if gamma_m <= 0:
            raise ConfigError("key 't_max_gamma' needs Gamma > 0; give 't_max' in seconds")
        t_max = t_max_gamma / gamma_m
    t_name = "key 't_max'" if t_max_gamma is None else "key 't_max_gamma'"
    dt = _get(gr, "dt", float, required=False)
    n_steps = _get(gr, "n_steps", int, required=False)
    if (dt is None) == (n_steps is None):
        raise ConfigError("section [grid] needs exactly one of 'dt' and 'n_steps'")
    if dt is None:
        _require_positive(t_max, t_name)
        if n_steps < 1:
            raise ConfigError("key 'n_steps' must be at least 1")
        dt = t_max / n_steps
    else:
        t_max, dt, n_steps = _resolve_grid(t_max, dt, t_name, "key 'dt'", "t_max/dt")

    scen = Scenario(
        name=name,
        mode=mode,
        trap=trap,
        t_max=t_max,
        dt=dt,
        n_steps=n_steps,
        description=_get(sc, "description", str, required=False, default=""),
        tcl_order=_get(sc, "tcl_order", int, required=False, default=6),
        rates=_get(sc, "rates", lambda raw: cp.BOOLEAN_STATES[raw.lower()],
                   required=False, default=False),
        output=_get(sc, "output", str, required=False, default=""),
        source=source,
    )
    if scen.tcl_order not in (2, 4, 6):
        raise ConfigError(f"key 'tcl_order': must be 2, 4 or 6, got {scen.tcl_order}")

    if mode == "cw":
        if "cw" not in cp:
            raise ConfigError("mode cw needs a [cw] section")
        cs = cp["cw"]
        _check_keys(cs, {"kappa1", "kappa1_gamma", "Omega", "Omega_gamma", "N",
                         "n0_max", "n1_max", "orders", "r_reading"})

        def rate_key(base):
            absolute = _get(cs, base, float, required=False)
            relative = _get(cs, base + "_gamma", float, required=False)
            if (absolute is None) == (relative is None):
                raise ConfigError(
                    f"section [cw] needs exactly one of '{base}' and '{base}_gamma'"
                )
            if absolute is not None:
                return absolute
            if gamma_m <= 0:
                raise ConfigError(f"key '{base}_gamma' needs Gamma > 0")
            return relative * gamma_m

        scen.cw_kappa1 = rate_key("kappa1")
        scen.cw_Omega = rate_key("Omega")
        scen.cw_N = _get(cs, "N", float)
        scen.cw_n0_max = _get(cs, "n0_max", int, required=False, default=200)
        scen.cw_n1_max = _get(cs, "n1_max", int, required=False, default=60)
        scen.cw_r_reading = _get(cs, "r_reading", str, required=False, default="outer")
        raw_orders = _get(cs, "orders", str, required=False, default="markov,2,4")
        orders = []
        for tok in raw_orders.split(","):
            tok = tok.strip()
            if tok == "markov":
                orders.append("markov")
            elif tok in ("2", "4"):
                orders.append(int(tok))
            else:
                raise ConfigError(f"key 'orders': entries must be markov, 2 or 4; got {tok!r}")
            if orders.count(orders[-1]) > 1:
                # a repeated order would run twice and write one file twice
                raise ConfigError(f"key 'orders': {tok!r} is listed more than once")
        if not orders:
            raise ConfigError("key 'orders': at least one entry required")
        scen.cw_orders = tuple(orders)
    elif "cw" in cp:
        raise ConfigError(f"section [cw] is only valid for mode cw, not {mode}")
    return scen


def _ascii_digits(values, width):
    """(len(values), width) uint8 ASCII digits of each integer, zero-padded."""
    places = 10 ** np.arange(width - 1, -1, -1)
    return (np.asarray(values)[:, None] // places % 10 + ord("0")).astype(np.uint8)


# The vectorized formatter lays each value out in a 20-byte field of
#   sign d0 . d1 | d2-d5 | d6-d9 | d10 d11 e ± | h t o separator
# where "|" marks a 4-byte word and NUL fills the sign of a positive value and
# the hundreds digit of an exponent below 100. Each word comes from one table
# lookup; dropping the NUL bytes leaves the text of FLOAT_FORMAT.
_FIELD = 20
_EXP_MIN, _EXP_MAX = -290, 290
_EXPONENTS = np.arange(_EXP_MIN, _EXP_MAX + 1)
# 10**(11 - e) correctly rounded, so |x| * _SCALE[e], two roundings away from
# the 12-digit mantissa, is within 2.3e-16 of it relatively: 2.3e-4 below 1e12
_SCALE = np.array([float(f"1e{11 - e}") for e in _EXPONENTS.tolist()])
# a scaled value closer than this to a half-integer may round either way
_TIE_MARGIN = 1e-3
_PAIRS = _ascii_digits(np.arange(100), 2).view("<u2").ravel()
_quads = np.empty((100, 100, 2), "<u2")
_quads[:, :, 0] = _PAIRS[:, None]
_quads[:, :, 1] = _PAIRS
_QUADS = _quads.view("<u4").ravel()  # the digits of 100 a + b: those of a, then b
_head = np.zeros((2, 100, 4), np.uint8)
_head[1, :, 0] = ord("-")
_head[:, :, [1, 3]] = _ascii_digits(np.arange(100), 2)
_head[:, :, 2] = ord(".")
_HEAD = _head.view("<u4").ravel()  # sign d0 . d1, indexed by 100 * negative + d0d1
_tail = np.zeros((_EXPONENTS.size, 6), np.uint8)
_tail[:, 0] = ord("e")
_tail[:, 1] = np.where(_EXPONENTS < 0, ord("-"), ord("+"))
_tail[:, 2:5] = _ascii_digits(np.abs(_EXPONENTS), 3)
_tail[np.abs(_EXPONENTS) < 100, 2] = 0
_EXP_SIGN = np.ascontiguousarray(_tail[:, :2]).view("<u2").ravel()
_EXP_DIGITS = np.ascontiguousarray(_tail[:, 2:]).view("<u4").ravel()
del _quads, _head, _tail


def _format_rows(rows, separators):
    """FLOAT_FORMAT % v for each value v of the 2-d array rows, each followed
    by the separator of its column, as bytes."""
    x = rows.ravel()
    n = x.size
    mag = np.abs(x)
    in_range = (mag >= 1e-290) & (mag <= 1e290)
    mag = np.where(in_range, mag, 1.0)
    e = np.floor(np.log10(mag)).astype(np.intp)
    np.clip(e, _EXP_MIN, _EXP_MAX, out=e)
    e -= _EXP_MIN
    scaled = mag * _SCALE[e]
    mantissa = np.rint(scaled)
    # a mis-estimated exponent puts scaled outside [1e11, 1e12), and a
    # mantissa of 1e12 carries into the next decade
    fallback = (~in_range | (np.abs(scaled - np.floor(scaled) - 0.5) < _TIE_MARGIN)
                | (scaled < 1e11) | (mantissa >= 1e12))
    # each floor of a quotient of integers below 2**53 is exact
    groups = np.empty((4, n))
    np.floor(mantissa / 1e10, out=groups[0])
    rest = mantissa - groups[0] * 1e10
    np.floor(rest / 1e6, out=groups[1])
    rest -= groups[1] * 1e6
    np.floor(rest / 100.0, out=groups[2])
    np.subtract(rest, groups[2] * 100.0, out=groups[3])
    groups[0] += 100.0 * np.signbit(x)
    idx = groups.astype(np.intp)
    field = np.empty((n, _FIELD), np.uint8)
    words, halves = field.view("<u4"), field.view("<u2")
    # mode="clip" keeps the garbage of fallback values in range
    words[:, 0] = _HEAD.take(idx[0], mode="clip")
    words[:, 1] = _QUADS.take(idx[1], mode="clip")
    words[:, 2] = _QUADS.take(idx[2], mode="clip")
    halves[:, 6] = _PAIRS.take(idx[3], mode="clip")
    halves[:, 7] = _EXP_SIGN.take(e)
    words[:, 4] = _EXP_DIGITS.take(e)
    field.reshape(rows.shape + (_FIELD,))[..., -1] = separators
    if fallback.any():
        at = np.flatnonzero(fallback)
        text = np.array([FLOAT_FORMAT % v for v in x[at].tolist()], f"S{_FIELD - 1}")
        field[at, :-1] = text.view(np.uint8).reshape(at.size, _FIELD - 1)
    return field.tobytes().translate(None, b"\0")


def _write_csv(path, columns):
    """Write columns, a list of (name, values), as CSV with a header line.

    Every value is written as FLOAT_FORMAT % v, byte for byte. Values whose
    rounding the float arithmetic cannot decide are formatted by that very
    expression: zero, nan, inf, |v| outside [1e-290, 1e290], scaled
    mantissas within _TIE_MARGIN of a half-integer, and mantissas that carry
    into the next decade. The rest go through the vectorized field above.
    """
    names = [c[0] for c in columns]
    arrays = [np.asarray(c[1], dtype=float) for c in columns]
    separators = np.full(len(arrays), ord(","), np.uint8)
    separators[-1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        # chunked, so the formatted text never holds the whole file at once
        for lo in range(0, arrays[0].size, CSV_CHUNK_ROWS):
            chunk = np.column_stack([a[lo : lo + CSV_CHUNK_ROWS] for a in arrays])
            fh.write(_format_rows(chunk, separators))


def _pulsed_columns(scen, n_steps, dt):
    """CSV columns of one pulsed run, plus its diagnostics for the sidecar."""
    trap = scen.trap
    t_max = n_steps * dt
    grid = UniformGrid(0.0, dt, n_steps + 1)
    t = grid.times()
    gamma_m = model.gamma_markov_closed_form(trap)
    traj = volterra.solve_amplitude(trap, t_max, dt)
    columns = [("t_seconds", t), ("gammaM_t", gamma_m * t),
               ("n_exact", volterra.occupation(traj).values),
               ("n_markov", np.exp(-gamma_m * t))]

    rates = tcl.tcl_series_rates(trap, grid, order_max=scen.tcl_order)
    for order in rates.orders():
        occ = tcl.occupation_from_rates(rates, order)
        columns.append((f"n_tcl{order}", occ.values))
    diagnostics = {"series_breakdown_index": tcl.series_breakdown_index(rates),
                   "exact_rate_truncation_index": None}

    if scen.rates:
        exact = volterra.exact_rates(traj)
        diagnostics["exact_rate_truncation_index"] = exact.truncation_index
        gam = np.full(n_steps + 1, np.nan)
        gam[: exact.gamma.values.size] = exact.gamma.values
        columns.append(("gamma_exact", gam))
        columns.append(("gamma2", rates.gamma_by_order[2]))
        if scen.tcl_order >= 4:
            columns.append(("gamma4_cum", rates.total_gamma(4).values))
        if scen.tcl_order >= 6:
            columns.append(("gamma6_cum", rates.total_gamma(6).values))
    return columns, diagnostics


def _cw_columns(scen, order, n_steps, dt):
    params = cw.CwParams(
        trap=scen.trap,
        kappa1=scen.cw_kappa1,
        Omega=scen.cw_Omega,
        N=scen.cw_N,
        n0_max=scen.cw_n0_max,
        n1_max=scen.cw_n1_max,
        order=order,
        r_reading=scen.cw_r_reading,
    )
    p0 = cw.DiagonalState.vacuum(scen.cw_n0_max, scen.cw_n1_max)
    traj = cw.evolve(params, p0, n_steps * dt, dt)
    columns = [
        ("t_seconds", traj.times),
        ("mean_n0", traj.mean_n0),
        ("mean_n1", traj.mean_n1),
        ("prob_sum", traj.prob_sum),
        ("min_p", traj.min_p),
        ("clipped_flux", traj.clipped_flux),
    ]
    return columns, traj


def _base_meta(scen):
    trap = scen.trap
    mc = model.markov_constants(trap)
    gamma_m = mc.gamma_M
    meta = {
        "scenario": {
            "name": scen.name,
            "description": scen.description,
            "mode": scen.mode,
            "source": scen.source,
        },
        "trap": {
            "M": trap.M,
            "omega0": trap.omega0,
            "sigma_k": trap.sigma_k,
            "Gamma": trap.Gamma,
            "hbar": model.HBAR,
            "alpha": trap.alpha,
        },
        "derived": {
            "gamma_M": gamma_m,
            "S_M": mc.S_M,
            "t_res": mc.t_res,
            "timescale_ratio": (model.timescale_ratio(trap) if gamma_m > 0 else None),
        },
        "grid": {"t0": 0.0, "t_max": scen.t_max, "dt": scen.dt, "n_steps": scen.n_steps},
        "format": {"float": FLOAT_FORMAT, "line_ending": "\\n", "separator": ","},
    }
    return meta


def _write_outputs(outdir, csv_name, columns, meta, refinement):
    meta["csv"] = csv_name
    meta["columns"] = [c[0] for c in columns]
    meta["refinement"] = {
        "method": "full rerun at dt/2, worst difference on shared grid points",
        "estimates": refinement,
    }
    csv_path = os.path.join(outdir, csv_name)
    _write_csv(csv_path, columns)
    meta_path = csv_path + ".meta.json"
    with open(meta_path, "w", newline="") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, meta_path]


def _replay_warning(message, category, filename, lineno):
    """Raise again here a warning a child recorded, as warnings.warn would
    have: under the filters and the once-per-location registry of the
    module whose file raised it."""
    mod = next((m for m in list(sys.modules.values())
                if getattr(m, "__file__", None) == filename), None)
    if mod is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        warnings.warn_explicit(message, category, filename, lineno, mod.__name__,
                               vars(mod).setdefault("__warningregistry__", {}))


def _child(write_fd, fn, args):
    """Body of a forked child: pickle (fn(*args), warnings, exception) into
    write_fd. Never returns."""
    code = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            result, error = None, None
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args)
            except Exception as exc:
                error = exc
            warned = [(w.message, w.category, w.filename, w.lineno) for w in caught]
            pickle.dump((result, warned, error), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_calls(calls):
    """Yield fn(*args) for each (label, cost, fn, args) of calls, in order.

    As many calls as there are usable CPUs, and never more than there are
    calls, run at once, each in a forked child. The first call whose outcome
    is not in yet always runs, and the other workers take the costliest calls
    first (Graham's LPT rule). With one worker, or without os.fork, they run
    here in turn. Each child's pipe is drained as data arrives, since a result
    may outgrow the pipe buffer. Outcomes are handled in call order: the
    child's warnings are raised again here, then its exception. A failure
    kills the running calls after it and drops the queued ones, while the
    calls before it finish, so what is seen is what running the calls one
    by one shows. Every child is reaped on every path.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, len(calls))
    if workers <= 1 or not hasattr(os, "fork"):
        for _, _, fn, args in calls:
            yield fn(*args)
        return
    queue = sorted(range(len(calls)), key=lambda i: calls[i][1], reverse=True)
    running, outcomes = {}, {}   # pipe fd -> (index, pid, chunks); index -> outcome
    sel = selectors.DefaultSelector()

    def reap(fd, kill=True):
        i, pid, chunks = running.pop(fd)
        sel.unregister(fd)
        os.close(fd)
        if kill:
            os.kill(pid, signal.SIGKILL)
        return i, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), b"".join(chunks)

    try:
        for i in range(len(calls)):
            while i not in outcomes:
                while queue and len(running) < workers:
                    j = i if i in queue else queue[0]   # the call waited on runs first
                    queue.remove(j)
                    read_fd, write_fd = os.pipe()
                    pid = os.fork()
                    if pid == 0:
                        os.close(read_fd)
                        _child(write_fd, *calls[j][2:])
                    os.close(write_fd)
                    running[read_fd] = (j, pid, [])
                    sel.register(read_fd, selectors.EVENT_READ)
                for key, _ in sel.select():
                    if key.fd not in running:   # killed for a failure found just now
                        continue
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        running[key.fd][2].append(chunk)
                        continue
                    j, status, payload = reap(key.fd, kill=False)
                    outcomes[j] = pickle.loads(payload) if status == 0 else (
                        None, [], RuntimeError(f"the process for {calls[j][0]} ended with "
                                               f"exit status {status}"))
                    if outcomes[j][2] is not None:   # no call after j is needed any more
                        queue = [k for k in queue if k < j]
                        for fd in [fd for fd, run in running.items() if run[0] > j]:
                            reap(fd)
            result, warned, error = outcomes.pop(i)
            for warning in warned:
                _replay_warning(*warning)
            if error is not None:
                raise error
            yield result
    finally:
        for fd in list(running):
            reap(fd)
        sel.close()


def _refinement(columns, fine_columns):
    """Per column, the worst difference between a run and its dt/2 rerun on
    their shared points."""
    return {name: shared_points_difference(np.asarray(fine, float), np.asarray(vals, float))
            for (name, vals), (_, fine) in zip(columns, fine_columns)}


def _run_pulsed(scen, outdir):
    # both runs stay in-process: forking them read 0.41 -> 0.70 s on the
    # pulsed benchmark, and a thread gave no gain while raising its peak
    # RSS from 49.3 to 53.9 MiB
    columns, diagnostics = _pulsed_columns(scen, scen.n_steps, scen.dt)
    fine, _ = _pulsed_columns(scen, 2 * scen.n_steps, 0.5 * scen.dt)
    meta = _base_meta(scen)
    meta["pulsed"] = {"tcl_order": scen.tcl_order, "rate_columns": scen.rates, **diagnostics}
    base = scen.output or scen.name
    csv_name = base if base.endswith(".csv") else base + ".csv"
    return _write_outputs(outdir, csv_name, columns, meta, _refinement(columns, fine))


def _cw_label(order):
    return "markov" if order == "markov" else f"tcl{order}"


def _write_cw_order(scen, order, outdir, columns, traj, refinement):
    meta = _base_meta(scen)
    meta["cw"] = {
        "kappa1": scen.cw_kappa1,
        "Omega": scen.cw_Omega,
        "N": scen.cw_N,
        "n0_max": scen.cw_n0_max,
        "n1_max": scen.cw_n1_max,
        "order": order,
        "r_reading": scen.cw_r_reading,
        "initial_state": "vacuum",
        "stepper": "cn",
        "negativity_flagged": traj.negativity_flagged,
        "clipped_total": float(traj.clipped_flux[-1]),
    }
    base = scen.output or scen.name
    if base.endswith(".csv"):
        base = base[:-4]
    csv_name = f"{base}_{_cw_label(order)}.csv"
    return _write_outputs(outdir, csv_name, columns, meta, refinement)


def run_scenario(scen, outdir="."):
    """Execute a resolved Scenario; returns the list of files written.

    Every run is repeated at dt/2 for the refinement estimates. A cw
    scenario's (order, grid) solves are independent and hold the GIL, so
    they go through _run_calls, costed so that, after the solve waited on,
    banded orders and the dt/2 grid go first; each order's files are
    written as soon as its two runs are in.
    """
    os.makedirs(outdir, exist_ok=True)
    if scen.mode != "cw":
        return _run_pulsed(scen, outdir)
    # loaded here once, not by every forked child on its first solve
    import scipy.linalg, scipy.sparse.linalg  # noqa: E401, F401

    grids = (("coarse", scen.n_steps, scen.dt), ("dt/2", 2 * scen.n_steps, 0.5 * scen.dt))
    calls = [(f"the {grid} run of order {order}", (order != "markov", n), _cw_columns,
              (scen, order, n, dt)) for order in scen.cw_orders for grid, n, dt in grids]
    results = _run_calls(calls)
    written = []
    try:
        for order in scen.cw_orders:
            (columns, traj), (fine, _) = next(results), next(results)
            written.extend(_write_cw_order(scen, order, outdir, columns, traj,
                                           _refinement(columns, fine)))
    finally:
        results.close()
    return written


def _load_config(target):
    if target in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[target], target
    if os.path.exists(target):
        with open(target) as fh:
            return fh.read(), target
    raise ConfigError(
        f"'{target}' is neither a built-in scenario ({', '.join(BUILTIN_SCENARIOS)}) "
        "nor an existing config file"
    )


def list_scenarios(config_dir=None):
    """Print built-in scenarios, then any configs found in config_dir."""
    for name, text in BUILTIN_SCENARIOS.items():
        scen = parse_scenario(text, name)
        print(f"{name}  {scen.description}")
    if config_dir:
        try:
            entries = sorted(os.listdir(config_dir))
        except OSError as exc:
            print(f"(cannot read {config_dir}: {exc})")
            return
        for entry in entries:
            path = os.path.join(config_dir, entry)
            if not os.path.isfile(path):
                continue
            stem = os.path.splitext(entry)[0]
            try:
                with open(path) as fh:
                    scen = parse_scenario(fh.read(), path)
                print(f"{scen.name}  {scen.description}  ({path})")
            except Exception as exc:
                print(f"{stem}  [parse error: {exc}]  ({path})")


class _Parser(argparse.ArgumentParser):
    # config errors exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="atomlaser", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a built-in scenario or a config file")
    run_p.add_argument("target", help="built-in name (fig2..fig7) or path to a config")
    run_p.add_argument("--out", default=".", help="output directory (default: cwd)")
    run_p.add_argument("--order", type=int, choices=(2, 4, 6),
                       help="override the perturbative order")
    run_p.add_argument("--dt", type=float, help="override the step size in seconds")
    run_p.add_argument("--tmax", type=float, help="override the final time in seconds")
    run_p.add_argument("--r-reading", choices=cw.R_READINGS, dest="r_reading",
                       help="reference-time reading of the cw cross-term weight")

    list_p = sub.add_parser("list", help="list available scenarios")
    list_p.add_argument("--configs", default=None, metavar="DIR",
                        help="also list configs from this directory")
    return parser


def _apply_overrides(scen, args):
    if args.tmax is not None or args.dt is not None:
        scen.t_max, scen.dt, scen.n_steps = _resolve_grid(
            scen.t_max if args.tmax is None else args.tmax,
            scen.dt if args.dt is None else args.dt, "--tmax", "--dt", "--tmax/--dt")
    if args.order is not None:
        if scen.mode == "cw":
            if args.order not in (2, 4):
                raise ConfigError("--order for cw scenarios must be 2 or 4")
            scen.cw_orders = (args.order,)
        else:
            scen.tcl_order = args.order
    if args.r_reading is not None:
        if scen.mode != "cw":
            raise ConfigError("--r-reading only applies to cw scenarios")
        scen.cw_r_reading = args.r_reading
    return scen


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            list_scenarios(args.configs)
            return 0
        text, source = _load_config(args.target)
        scen = parse_scenario(text, source)
        _apply_overrides(scen, args)
        written = run_scenario(scen, args.out)
        for path in written:
            print(path)
        return 0
    except ValueError as exc:
        print(f"atomlaser: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # str(exc) names the path, e.g. an --out below a regular file
        print(f"atomlaser: file error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"atomlaser: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
