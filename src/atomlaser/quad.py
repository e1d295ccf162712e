"""Quadrature machinery on uniform time grids.

Everything here is composite-trapezoid based (order dt^2). The memory kernel
has unbounded derivatives as tau -> 0, which higher-order end-corrected rules
handle poorly; second-order product integration is robust there and accuracy
is controlled by grid halving instead.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft

from .errors import GridError, ParameterError

__all__ = [
    "UniformGrid",
    "SampledFunction",
    "sample",
    "cumulative_integral",
    "iterated_convolution",
    "ordered_triple_direct",
    "ordered_triple_factored",
    "simplex_integral_3",
    "halving_difference",
]


@dataclass(frozen=True)
class UniformGrid:
    t0: float
    dt: float
    n_points: int

    def __post_init__(self):
        if not (self.dt > 0):
            raise GridError(f"grid step must be positive, got {self.dt}")
        if self.n_points < 2:
            raise GridError(f"grid needs at least two points, got {self.n_points}")

    def times(self):
        return self.t0 + self.dt * np.arange(self.n_points)

    @property
    def t_end(self):
        return self.t0 + self.dt * (self.n_points - 1)

    def coarsened(self):
        """Every other point, dt doubled. Used for halving error estimates."""
        return UniformGrid(self.t0, 2.0 * self.dt, (self.n_points + 1) // 2)


def grid_for(t_max, dt, t0=0.0):
    """Smallest uniform grid from t0 covering t_max."""
    n = int(np.ceil((t_max - t0) / dt - 1e-12)) + 1
    return UniformGrid(t0, dt, max(n, 2))


@dataclass
class SampledFunction:
    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n_points,):
            raise GridError(
                f"expected {self.grid.n_points} samples, got array of shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("sampled values must be finite")
        self.values = v

    def coarsened(self):
        return SampledFunction(self.grid.coarsened(), self.values[::2])


def sample(func, grid):
    """Evaluate a callable on the grid and wrap it."""
    return SampledFunction(grid, np.asarray(func(grid.times())))


def _same_grid(a, b):
    ga, gb = a.grid, b.grid
    if (ga.t0, ga.dt, ga.n_points) != (gb.t0, gb.dt, gb.n_points):
        raise GridError("operands live on different grids")


def _cumtrapz(values, dt):
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(0.5 * (values[1:] + values[:-1]), out=out[1:])
    out[1:] *= dt
    return out


def cumulative_integral(f):
    """Running integral from the grid origin, composite trapezoid, F(t0) = 0."""
    return SampledFunction(f.grid, _cumtrapz(f.values, f.grid.dt))


def _fftconvolve(a, b):
    """Full discrete convolution of two 1-d arrays.

    Takes the branches of scipy.signal.fftconvolve for 1-d input, and so gives
    its bits, without importing scipy.signal (the slowest import of the CLI).
    """
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        m = sp_fft.next_fast_len(n, False)
        return sp_fft.ifft(sp_fft.fft(a, m) * sp_fft.fft(b, m), m)[:n]
    m = sp_fft.next_fast_len(n, True)
    return sp_fft.irfft(sp_fft.rfft(a, m) * sp_fft.rfft(b, m), m)[:n]


def _convtrapz(kernel, u, dt):
    # product-trapezoid convolution: full discrete convolution with the two
    # endpoint samples downweighted to half
    full = _fftconvolve(kernel, u)[: len(kernel)]
    out = dt * (full - 0.5 * kernel[0] * u - 0.5 * kernel * u[0])
    out[0] = 0.0  # exact for an empty interval; fft noise would leave ~1e-16
    return out


def iterated_convolution(kernel, u):
    """v(t) = integral_0^t kernel(tau) u(t - tau) dtau by product trapezoid."""
    _same_grid(kernel, u)
    return SampledFunction(kernel.grid, _convtrapz(kernel.values, u.values, kernel.grid.dt))


# ---------------------------------------------------------------------------
# Ordered triple integrals over the simplex t >= t1 >= t2 >= t3 >= 0


def ordered_triple_direct(g, t, dt):
    """Direct nested-trapezoid evaluation of
    integral_0^t dt1 integral_0^t1 dt2 integral_0^t2 dt3 g(t1, t2, t3).

    g receives (t1, t2, t3_array) with t3_array vectorized. O(n^3) work;
    meant for validation on coarse grids, not production rates.
    """
    n = int(round(t / dt))
    if n < 1:
        return 0.0 + 0.0j
    ts = dt * np.arange(n + 1)
    outer = np.zeros(n + 1, dtype=complex)
    for j1 in range(1, n + 1):
        mid = np.zeros(j1 + 1, dtype=complex)
        for j2 in range(1, j1 + 1):
            vals = np.asarray(g(ts[j1], ts[j2], ts[: j2 + 1]), dtype=complex)
            mid[j2] = np.trapezoid(vals, dx=dt)
        outer[j1] = np.trapezoid(mid, dx=dt)
    return complex(np.trapezoid(outer, dx=dt))


def ordered_triple_factored(a, b, pairing):
    """All values of the ordered triple integral for factorized integrands.

    pairing "outer-mid":  g = a(t - t2) b(t1 - t3)
    pairing "outer-late": g = a(t - t3) b(t1 - t2)

    These are the only two couplings that occur in the fourth-order rate
    integrands. Reducing the inner integrals to running-integral tables makes
    the whole curve O(n^2) instead of O(n^4):

        outer-mid:  F_a(t) F2_b(t) - (a * F2_b)(t) - int_0^t a F2_b
        outer-late: F_a(t) F2_b(t) - int_0^t F_a F_b

    with F the running integral, F2 the doubly-running integral and * the
    convolution. Returns a SampledFunction on the shared grid.
    """
    _same_grid(a, b)
    dt = a.grid.dt
    fa = _cumtrapz(a.values, dt)
    fb = _cumtrapz(b.values, dt)
    f2b = _cumtrapz(fb, dt)
    if pairing == "outer-mid":
        vals = fa * f2b - _convtrapz(a.values, f2b, dt) - _cumtrapz(a.values * f2b, dt)
    elif pairing == "outer-late":
        vals = fa * f2b - _cumtrapz(fa * fb, dt)
    else:
        raise ParameterError(f"unknown pairing {pairing!r}")
    return SampledFunction(a.grid, vals)


def simplex_integral_3(g, t, dt, method="direct", pairing=None):
    """Ordered triple integral up to time t.

    method "direct" takes a callable g(t1, t2, t3_array) and runs the O(n^3)
    nested rule. method "factored" takes g = (a, b) as SampledFunctions plus a
    pairing keyword and evaluates the O(n^2) table route at t; a callable
    cannot go through the fast path since it carries no factorization.
    """
    if method == "direct":
        if not callable(g):
            raise ParameterError("direct path needs a callable integrand")
        return ordered_triple_direct(g, t, dt)
    if method == "factored":
        if callable(g) or not (isinstance(g, tuple) and len(g) == 2):
            raise ParameterError(
                "fast path requires a factored integrand: a pair of SampledFunctions"
            )
        a, b = g
        curve = ordered_triple_factored(a, b, pairing)
        j = int(round((t - a.grid.t0) / a.grid.dt))
        if not (0 <= j < a.grid.n_points) or abs(a.grid.t0 + j * a.grid.dt - t) > 1e-9 * max(dt, 1e-300):
            raise GridError(f"t = {t} is not a point of the sampling grid")
        return complex(curve.values[j])
    raise ParameterError(f"unknown method {method!r}")


def halving_difference(compute, grid):
    """max |curve(dt) - curve(2 dt)| on shared points.

    compute maps a grid to a SampledFunction. For an order-2 rule the true
    fine-grid error is about a third of this difference; callers use the raw
    difference as a conservative tolerance.
    """
    fine = compute(grid)
    coarse = compute(grid.coarsened())
    nc = coarse.grid.n_points
    return float(np.max(np.abs(fine.values[::2][:nc] - coarse.values[:nc])))
