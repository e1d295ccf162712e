"""Outside-in tracing of the atomlaser layers.

`Tracer.install` wraps every public function of the layer modules, in the
module that defines it and in every atomlaser module that bound it through
`from ... import`, plus the scipy entry points that `cw` binds. `SuperLU.solve`
is reached through a proxy around the object `cw.splu` returns. Spans stay in
memory as plain lists and are written out by the caller at the end.

`summarize` turns the spans of one batch into the per-layer metrics.
"""

import inspect
import sys
import time

LAYERS = ("model", "quad", "volterra", "tcl", "cw", "cli")
SCIPY_ENTRIES = ("solve_banded", "splu", "spsolve")
# spans named cw.<entry> whose time belongs to scipy, not to cw
SCIPY_SPANS = {"cw.solve_banded", "cw.splu", "cw.spsolve", "cw.lu_solve"}

# span fields
NAME, START, END, PARENT, OP, DT, WORK = range(7)


def _work_of(name):
    """Exact work count a span records, from its arguments or its result."""
    if name == "volterra.solve_volterra":
        return lambda args, kwargs, result: args[0].grid.n_points
    if name == "quad.iterated_convolution":
        return lambda args, kwargs, result: args[0].grid.n_points
    if name == "model.correlation_f":
        return lambda args, kwargs, result: int(result.size)
    if name == "cw.evolve":
        return lambda args, kwargs, result: len(result.times) - 1
    return None


def _dt_of(args, kwargs, dt_index):
    """Step size of a call: its dt argument, or the grid of an argument."""
    if dt_index is not None:
        if "dt" in kwargs:
            return float(kwargs["dt"])
        if len(args) > dt_index:
            return float(args[dt_index])
    for arg in args:
        dt = getattr(arg, "dt", None)
        if dt is None:
            dt = getattr(getattr(arg, "grid", None), "dt", None)
        if isinstance(dt, float):
            return dt
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []      # open span indices
        self._names = []      # their names

    def wrap(self, name, fn, wrap_result=None):
        spans, stack, names = self.spans, self._stack, self._names
        work = _work_of(name)
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        dt_index = params.index("dt") if "dt" in params else None
        tag_dt = name == "cli.run_scenario"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            # the dt/2 rerun is told apart by the step size of each child call
            dt = (_dt_of(args, kwargs, dt_index)
                  if tag_dt or (names and names[-1] == "cli.run_scenario") else None)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            names.append(name)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                names.pop()
                w = work(args, kwargs, result) if work and result is not None else 0
                spans[idx] = [name, t0, t1, parent, self.op, dt, w]
            return wrap_result(result) if wrap_result else result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the layers' public functions wherever atomlaser bound them."""
        import atomlaser.cli  # noqa: F401  (loads every layer module)

        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"atomlaser.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replace[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for attr in SCIPY_ENTRIES:
            fn = getattr(sys.modules["atomlaser.cw"], attr)
            wrap_result = self._lu_proxy if attr == "splu" else None
            replace[id(fn)] = self.wrap(f"cw.{attr}", fn, wrap_result)
        # keyed by id: module namespaces also hold unhashable values
        for modname, mod in list(sys.modules.items()):
            if modname == "atomlaser" or modname.startswith("atomlaser."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in replace:
                        setattr(mod, attr, replace[id(val)])

    def _lu_proxy(self, lu):
        return _SuperLUProxy(lu, self.wrap("cw.lu_solve", lu.solve))


class _SuperLUProxy:
    """Stands in for a SuperLU object so that its solves are timed."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


# ---------------------------------------------------------------------------
# aggregation

TIMED = ("cli.run_scenario", "cli.parse_scenario", "volterra.solve_amplitude",
         "volterra.exact_rates", "tcl.tcl_series_rates", "tcl.occupation_from_rates",
         "quad.iterated_convolution", "quad.cumulative_integral", "model.correlation_f",
         "cw.evolve", "cw.solve_banded", "cw.splu", "cw.lu_solve", "cw.spsolve",
         "cw.r_function", "cw.build_generator", "cw.verify_diagonal_closure",
         "cw.stationary_distribution")
CALLS = ("cli.main", "volterra.solve_amplitude", "tcl.tcl_series_rates",
         "quad.iterated_convolution", "cw.solve_banded", "cw.splu", "cw.lu_solve",
         "cw.spsolve")
# layers whose self time is reported whole; cli and cw split theirs (below)
SELF_LAYERS = ("model", "quad", "volterra", "tcl", "scipy")


def layer_of(name):
    return "scipy" if name in SCIPY_SPANS else name.split(".", 1)[0]


def summarize(spans, wall_s):
    """Per-layer metrics of one traced batch that took wall_s seconds."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    total, calls, selfs, work = {}, {}, {}, {}
    layer_self = dict.fromkeys(SELF_LAYERS + ("cli", "cw"), 0.0)
    refine, children = 0.0, 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + self_t[i]
        work[name] = work.get(name, 0) + s[WORK]
        layer_self[layer_of(name)] += self_t[i]
        p = s[PARENT]
        if p >= 0 and spans[p][NAME] == "cli.run_scenario":
            children += dur[i]
            half = 0.5 * spans[p][DT]
            if s[DT] is not None and abs(s[DT] - half) <= 1e-9 * half:
                refine += dur[i]

    m = {}
    for name in TIMED:
        m[f"{name}_s"] = total.get(name, 0.0)
    for name in CALLS:
        m[f"{name}_calls"] = calls.get(name, 0)
    m["cli.self_s"] = selfs.get("cli.run_scenario", 0.0)
    m["cli.other_self_s"] = layer_self["cli"] - m["cli.self_s"]
    m["cli.refine_share"] = refine / children if children else 0.0
    n_march = [s[WORK] for s in spans if s[NAME] == "volterra.solve_volterra"]
    m["volterra.march_points"] = sum(n_march)
    # computed from the grid sizes: step j dots j-1 history samples, and
    # each multiply-add reads two complex128 operands
    macs = sum((k - 1) * (k - 2) // 2 for k in n_march)
    m["volterra.hist_macs"] = macs
    m["volterra.hist_bytes"] = 32 * macs
    # product-trapezoid convolution: one full discrete convolution of 2n-1 points
    m["quad.fft_points"] = sum(2 * s[WORK] - 1 for s in spans
                               if s[NAME] == "quad.iterated_convolution")
    m["model.correlation_f_points"] = work.get("model.correlation_f", 0)
    steps = work.get("cw.evolve", 0)
    m["cw.evolve_steps"] = steps
    m["cw.step_ms"] = 1e3 * m["cw.evolve_s"] / steps if steps else 0.0
    m["cw.self_s"] = selfs.get("cw.evolve", 0.0)
    m["cw.other_self_s"] = layer_self["cw"] - m["cw.self_s"]
    m["cw.factorizations"] = m["cw.solve_banded_calls"] + m["cw.splu_calls"]
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    self_sum = sum(self_t)
    m["trace.spans"] = n
    m["trace.self_sum_s"] = self_sum
    m["trace.coverage"] = self_sum / wall_s if wall_s > 0 else 0.0
    return m
