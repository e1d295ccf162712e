"""Scenario runner.

Parses a sectioned key-value config (or one of the built-in scenarios),
dispatches to the pulsed or continuous-wave solvers, and writes CSV time
series plus a JSON metadata sidecar from which the run can be reproduced.

Exit codes: 0 success, 1 configuration problem (a path that cannot be read
or written, and a run too large for memory, included), 2 numerical failure.
"""

import argparse
import configparser
import functools
import glob
import importlib.util
import json
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import cw, model, tcl, volterra
from .errors import ConfigError, ParameterError
from .quad import SampledFunction, UniformGrid, shared_points_difference

__all__ = ["main", "BUILTIN_SCENARIOS", "parse_scenario", "run_scenario", "list_scenarios"]

FLOAT_FORMAT = "%.11e"
CSV_CHUNK_ROWS = 1024
# an occupation column further than this outside [0, 1] draws a warning
PROBABILITY_TOL = 1e-6

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
    cw_n0_max: int = cw.CwParams.n0_max
    cw_n1_max: int = cw.CwParams.n1_max
    cw_orders: tuple = cw.ORDERS
    output: str = ""
    source: str = ""


def _get(section, key, conv):
    if key not in section:
        raise ConfigError(f"missing key '{key}' in section [{section.name}]")
    raw = section[key]
    try:
        return conv(raw)
    except ConfigError:   # a converter's own message, as for orders
        raise
    except (ValueError, TypeError, KeyError):
        raise ConfigError(f"key '{key}' in [{section.name}]: cannot parse {raw!r}") from None


def _one_of(section, key, alt, alt_conv=float):
    """(value of key, None) or (None, value of alt), as section holds one."""
    if (key in section) == (alt in section):
        raise ConfigError(f"section [{section.name}] needs exactly one of '{key}' and '{alt}'")
    return ((_get(section, key, float), None) if key in section
            else (None, _get(section, alt, alt_conv)))


def _cw_orders(raw):
    orders = []
    for tok in map(str.strip, raw.split(",")):
        if tok not in _CW_ORDERS:
            raise ConfigError(f"key 'orders': entries must be markov, 2 or 4; got {tok!r}")
        if _CW_ORDERS[tok] in orders:
            # a repeated order would run twice and write one file twice
            raise ConfigError(f"key 'orders': {tok!r} is listed more than once")
        orders.append(_CW_ORDERS[tok])
    return tuple(orders)


# the keys each section may hold; [cw] is read in mode cw only
_KEYS = {
    "scenario": ("name", "description", "mode", "tcl_order", "rates", "output"),
    "trap": ("M", "omega0", "sigma_k", "Gamma"),
    "grid": ("t_max", "t_max_gamma", "dt", "n_steps"),
    "cw": ("kappa1", "kappa1_gamma", "Omega", "Omega_gamma", "N", "n0_max", "n1_max",
           "orders"),
}
_CW_ORDERS = {str(order): order for order in cw.ORDERS}
# (section, key, Scenario field, converter): the field is set if the key is given
_OPTIONAL = (
    ("scenario", "name", "name", str),
    ("scenario", "description", "description", str),
    ("scenario", "tcl_order", "tcl_order", int),
    ("scenario", "rates", "rates",
     lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]),
    ("scenario", "output", "output", str),
    ("cw", "n0_max", "cw_n0_max", int),
    ("cw", "n1_max", "cw_n1_max", int),
    ("cw", "orders", "cw_orders", _cw_orders),
)


def _require_positive(value, name):
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and positive, got {float(value)!r}")


def _resolve_grid(t_max, dt, t_name, dt_name, ratio_name):
    """(t_max, dt, n_steps) with t_max rounded to whole steps of dt.

    ConfigError names the config key or CLI flag at fault.
    """
    _require_positive(t_max, t_name)
    _require_positive(dt, dt_name)
    ratio = float(t_max) / dt   # a plain float overflows to inf without a warning
    if not np.isfinite(ratio):
        raise ConfigError(f"{ratio_name} must be finite, got {ratio!r}")
    n_steps = int(round(ratio))
    if n_steps < 1:
        raise ConfigError(f"{ratio_name} resolves to zero steps; shrink dt or grow t_max")
    return n_steps * dt, dt, n_steps


def parse_scenario(text, source="<config>"):
    """Parse config text into a fully resolved Scenario."""
    # no header names the default section "", so [DEFAULT] is an ordinary
    # section, rejected below, not one whose keys every section inherits
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None,
                                   default_section="")
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not parseable: {exc}") from None

    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
    for required in ("scenario", "trap", "grid"):
        if required not in cp:
            raise ConfigError(f"missing section [{required}]")
    for section, allowed in _KEYS.items():
        for key in cp[section] if section in cp else ():
            if key not in allowed:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    sc, gr = cp["scenario"], cp["grid"]
    mode = _get(sc, "mode", str)
    if mode not in MODES:
        raise ConfigError(f"key 'mode': must be one of {MODES}, got {mode!r}")
    for key in ("tcl_order", "rates") if mode == "cw" else ():
        if key in sc:
            raise ConfigError(f"key '{key}' in [scenario] is only valid for mode "
                              "pulsed_tcl, not cw")
    if (mode == "cw") != ("cw" in cp):
        raise ConfigError("mode cw needs a [cw] section" if mode == "cw"
                          else f"section [cw] is only valid for mode cw, not {mode}")

    trap = model.TrapParams(**{key: _get(cp["trap"], key, float) for key in _KEYS["trap"]})
    gamma_m = model.gamma_markov_closed_form(trap)
    t_max, t_max_gamma = _one_of(gr, "t_max", "t_max_gamma")
    t_name = "key 't_max'" if t_max_gamma is None else "key 't_max_gamma'"
    if t_max is None:
        if gamma_m <= 0:
            raise ConfigError("key 't_max_gamma' needs Gamma > 0; give 't_max' in seconds")
        _require_positive(t_max_gamma, t_name)   # as written, before it is in seconds
        t_max = t_max_gamma / gamma_m
    dt, n_steps = _one_of(gr, "dt", "n_steps", int)
    if dt is None:
        _require_positive(t_max, t_name)
        if n_steps < 1:
            raise ConfigError("key 'n_steps' must be at least 1")
        dt = t_max / n_steps
    else:
        t_max, dt, n_steps = _resolve_grid(t_max, dt, t_name, "key 'dt'", "t_max/dt")

    scen = Scenario(name=os.path.splitext(os.path.basename(source))[0], mode=mode, trap=trap,
                    t_max=t_max, dt=dt, n_steps=n_steps, source=source)
    for section, key, field, conv in _OPTIONAL:
        if section in cp and key in cp[section]:
            setattr(scen, field, _get(cp[section], key, conv))
    if scen.tcl_order not in (2, 4, 6):
        raise ConfigError(f"key 'tcl_order': must be 2, 4 or 6, got {scen.tcl_order}")
    for key in ("name", "output"):
        # the run writes its files into the output directory under this name
        value = getattr(scen, key)
        if key in sc and (value in ("", ".", "..") or os.path.basename(value) != value):
            raise ConfigError(f"key '{key}' in [scenario] must be a plain file name, "
                              f"got {value!r}")

    if mode == "cw":
        for base in ("kappa1", "Omega"):
            absolute, relative = _one_of(cp["cw"], base, base + "_gamma")
            if absolute is None and gamma_m <= 0:
                raise ConfigError(f"key '{base}_gamma' needs Gamma > 0")
            setattr(scen, "cw_" + base, absolute if relative is None else relative * gamma_m)
        scen.cw_N = _get(cp["cw"], "N", float)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # the kappa1 warning: each run warns for itself
                _cw_params(scen, scen.cw_orders[0])
        except ParameterError as exc:
            raise ConfigError(f"section [cw]: {exc}") from None
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


def _pulsed_columns(scen, kernel):
    """CSV columns of one pulsed run on the grid of kernel =
    volterra.memory_kernel(scen.trap, grid), plus the rate series and the
    exact rates (None without rate columns) that the sidecar reads."""
    trap = scen.trap
    t = kernel.grid.times()
    gamma_m = model.gamma_markov_closed_form(trap)
    # one kernel and one spectrum for the exact solve and the series rates
    traj = volterra.solve_amplitude(trap, kernel)
    columns = [("t_seconds", t), ("gammaM_t", gamma_m * t),
               ("n_exact", volterra.occupation(traj)),
               ("n_markov", np.exp(-gamma_m * t))]

    rates = tcl.tcl_series_rates(kernel, order_max=scen.tcl_order)
    for order in rates.orders():
        columns.append((f"n_tcl{order}", tcl.occupation_from_rates(rates, order)))

    exact = None
    if scen.rates:
        exact = volterra.exact_rates(traj)
        gam = np.full(t.size, np.nan)
        gam[: exact.gamma.size] = exact.gamma
        columns.append(("gamma_exact", gam))
        columns.append(("gamma2", rates.gamma_by_order[2]))
        if scen.tcl_order >= 4:
            columns.append(("gamma4_cum", rates.total_gamma(4)))
        if scen.tcl_order >= 6:
            columns.append(("gamma6_cum", rates.total_gamma(6)))
    return columns, rates, exact


def _cw_params(scen, order):
    return cw.CwParams(trap=scen.trap, kappa1=scen.cw_kappa1, Omega=scen.cw_Omega, N=scen.cw_N,
                       n0_max=scen.cw_n0_max, n1_max=scen.cw_n1_max, order=order)


def _cw_columns(scen, order, n_steps, dt):
    p0 = cw.DiagonalState.vacuum(scen.cw_n0_max, scen.cw_n1_max)
    traj = cw.evolve(_cw_params(scen, order), p0, n_steps * dt, dt)
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


def _bundled_openblas():
    """ctypes handles of the OpenBLAS copies that the numpy and scipy wheels
    bundle in numpy.libs and scipy.libs, next to each package; none where a
    package or its copy is not there. Loading scipy's copy before scipy
    itself is harmless: its extensions then link to the loaded one."""
    import ctypes
    libs = []
    for package in ("numpy", "scipy"):
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        folder = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), package + ".libs")
        for path in sorted(glob.glob(os.path.join(folder, "libscipy_openblas*"))):
            try:
                libs.append(ctypes.CDLL(path))
            except OSError:
                pass
    return libs


def _one_blas_thread():
    """Pin every bundled OpenBLAS to one thread. Each reads
    OPENBLAS_NUM_THREADS only when it loads, before the fork, and otherwise
    starts a thread per CPU; with as many children as CPUs that
    oversubscribes the cores (one order-2 step of the default box took 63-67
    ms in each of two children, against 26-29 ms pinned). A copy without
    the setter is left as it is."""
    for lib in _bundled_openblas():
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)


def _child(write_fd, fn, args):
    """Body of a forked child: pin BLAS to one thread, then pickle
    (fn(*args), warnings, exception) into write_fd. Never returns."""
    code = 1
    try:
        _one_blas_thread()
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
    calls, run at once, each in a forked child. With one worker, or without
    os.fork, they run here in turn. The call waited on, i, starts first if
    it is still queued, and the other free workers take the costliest calls
    first (Graham's LPT rule); a worker is always free for i, since every
    call before it has been read and reaped. The parent reads child i's pipe
    to its end and reaps it, raises its warnings again here, then raises its
    exception or yields its result. A child that finishes before the call
    waited on keeps its worker until its turn, blocked in its write if its
    result outgrows the pipe buffer. A failure kills the calls still
    running, all of them after it, and drops the queued ones, so what is
    seen is what running the calls one by one shows. Every child is reaped
    on every path.
    """
    workers = min(cw.usable_cpus(), len(calls))
    if workers <= 1 or not hasattr(os, "fork"):
        for _, _, fn, args in calls:
            yield fn(*args)
        return
    queue = sorted(range(len(calls)), key=lambda i: calls[i][1], reverse=True)
    running = {}   # index -> (pid, pipe)
    try:
        for i in range(len(calls)):
            while queue and len(running) < workers:
                j = i if i in queue else queue[0]   # the call waited on runs first
                queue.remove(j)
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(read_fd)
                    _child(write_fd, *calls[j][2:])
                os.close(write_fd)
                running[j] = (pid, os.fdopen(read_fd, "rb"))
            pid, pipe = running[i]
            with pipe:
                payload = pipe.read()
            del running[i]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            result, warned, error = pickle.loads(payload) if status == 0 else (
                None, [], RuntimeError(f"the process for {calls[i][0]} ended with "
                                       f"exit status {status}"))
            for warning in warned:
                _replay_warning(*warning)
            if error is not None:
                raise error
            yield result
    finally:
        for pid, pipe in running.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _refinement(columns, fine_columns):
    """Per column, the worst difference between a run and its dt/2 rerun on
    their shared points."""
    return {name: shared_points_difference(np.asarray(fine, float), np.asarray(vals, float))
            for (name, vals), (_, fine) in zip(columns, fine_columns)}


def _run_pulsed(scen, outdir):
    # both runs stay in-process: forking them read 0.41 -> 0.70 s on the
    # pulsed benchmark, and a thread gave no gain while raising its peak
    # RSS from 49.3 to 53.9 MiB. The kernel is sampled once, on the dt/2
    # grid: its even samples are those of the run grid bit for bit, since
    # (dt/2) (2k) rounds as dt k. The sidecar's diagnostics describe the
    # run grid, so the dt/2 rerun computes none
    fine_kernel = volterra.memory_kernel(
        scen.trap, UniformGrid(0.5 * scen.dt, 2 * scen.n_steps + 1))
    kernel = SampledFunction(UniformGrid(scen.dt, scen.n_steps + 1),
                             fine_kernel.values[::2].copy())
    columns, rates, exact = _pulsed_columns(scen, kernel)
    fine, _, _ = _pulsed_columns(scen, fine_kernel)
    meta = _base_meta(scen)
    meta["pulsed"] = {
        "tcl_order": scen.tcl_order,
        "rate_columns": scen.rates,
        "series_breakdown_index": tcl.series_breakdown_index(rates),
        "exact_rate_truncation_index": None if exact is None else exact.truncation_index,
    }
    written = _write_outputs(outdir, _csv_name(scen), columns, meta, _refinement(columns, fine))
    _warn_outside_probabilities(columns)
    return written


def _warn_outside_probabilities(columns):
    """One stderr line per occupation column that leaves [0, 1], which a
    diverging TCL series writes without overflowing. A print, not
    warnings.warn: a caller's error filter must not turn it into a traceback."""
    for name, values in columns:
        if not name.startswith("n_"):
            continue
        rows = np.flatnonzero((values < -PROBABILITY_TOL) | (values > 1.0 + PROBABILITY_TOL))
        if rows.size:
            extreme = values[rows[np.argmax(np.abs(values[rows] - 0.5))]]
            print(f"atomlaser: warning: column {name} leaves [0, 1] from row {rows[0]} "
                  f"(extreme {extreme:.3e})", file=sys.stderr)


def _csv_name(scen, order=None):
    """output, else name, less any .csv, then _markov/_tcl2/_tcl4 for a cw
    order, then .csv."""
    base = (scen.output or scen.name).removesuffix(".csv")
    if order is not None:
        base += "_markov" if order == "markov" else f"_tcl{order}"
    return base + ".csv"


def _write_cw_order(scen, order, outdir, columns, traj, refinement):
    meta = _base_meta(scen)
    meta["cw"] = {
        "kappa1": scen.cw_kappa1,
        "Omega": scen.cw_Omega,
        "N": scen.cw_N,
        "n0_max": scen.cw_n0_max,
        "n1_max": scen.cw_n1_max,
        "order": order,
        "initial_state": "vacuum",
        "stepper": "cn",
        "negativity_flagged": traj.negativity_flagged,
        "clipped_total": float(traj.clipped_flux[-1]),
    }
    return _write_outputs(outdir, _csv_name(scen, order), columns, meta, refinement)


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


@functools.cache
def _parser():
    parser = _Parser(prog="atomlaser", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a built-in scenario or a config file")
    run_p.add_argument("target", help="built-in name (fig2..fig7) or path to a config")
    run_p.add_argument("--out", default=".", help="output directory (default: cwd)")
    run_p.add_argument("--order", type=int, choices=(2, 4, 6),
                       help="override the perturbative order")
    run_p.add_argument("--dt", type=float, help="override the step size in seconds")
    run_p.add_argument("--tmax", type=float, help="override the final time in seconds")

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
    return scen


def main(argv=None):
    args = _parser().parse_args(argv)
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
    except MemoryError as exc:
        # numpy names the array that could not be allocated
        print(f"atomlaser: config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"atomlaser: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
