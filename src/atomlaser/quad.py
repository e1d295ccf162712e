"""Quadrature machinery on uniform time grids.

Everything here is composite-trapezoid based (order dt^2). The memory kernel
has unbounded derivatives as tau -> 0, which higher-order end-corrected rules
handle poorly; second-order product integration is robust there and accuracy
is controlled by grid halving instead.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, GridError, ParameterError

__all__ = [
    "UniformGrid",
    "SampledFunction",
    "sample",
    "cumulative_integral",
    "iterated_convolution",
    "ordered_triple_direct",
    "ordered_triple_factored",
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


def grid_for(t_max, dt):
    """Smallest uniform grid from 0 covering t_max.

    The one place a solver turns (t_max, dt) into a grid: ConfigError names
    the argument when either is not finite and positive.
    """
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    if not np.isfinite(t_max / dt):
        raise ConfigError(f"t_max/dt must be finite, got {t_max / dt!r}")
    n = int(np.ceil(t_max / dt - 1e-12)) + 1
    return UniformGrid(0.0, dt, max(n, 2))


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


@lru_cache(maxsize=None)
def _smooth_numbers(primes, top):
    """Sorted products of the given primes up to top."""
    nums = [1]
    for p in primes:
        grown = []
        for f in nums:
            while f <= top:
                grown.append(f)
                f *= p
        nums = grown
    return tuple(sorted(nums))


def next_fast_len(n, real):
    """scipy.fft.next_fast_len(n, real): the smallest length >= n that is
    5-smooth for real input and 11-smooth for complex input."""
    top = 1 << (n - 1).bit_length()  # a power of two, so always a candidate
    lens = _smooth_numbers((2, 3, 5) if real else (2, 3, 5, 7, 11), top)
    return lens[bisect_left(lens, n)]


def fft(x, n):
    """scipy.fft.fft(x, n), bit for bit.

    On real input scipy takes the half spectrum of rfft and fills in the
    other half by conjugate symmetry, conjugating the DC (and for even n the
    Nyquist) entry on the way; numpy.fft.fft would do a complex transform.
    """
    if np.iscomplexobj(x):
        return np.fft.fft(x, n)
    half = np.fft.rfft(x, n)
    spec = np.empty(n, dtype=complex)
    spec[: half.size] = half
    spec[n - half.size + 1 :] = half[:0:-1].conj()
    spec[0] = half[0].conjugate()
    return spec


def _fftconvolve(a, b):
    """Full discrete convolution of two 1-d arrays.

    Takes the branches of scipy.signal.fftconvolve for 1-d input on
    numpy.fft, and so gives its bits without importing scipy.
    """
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        m = next_fast_len(n, False)
        return np.fft.ifft(fft(a, m) * fft(b, m), m)[:n]
    m = next_fast_len(n, True)
    return np.fft.irfft(np.fft.rfft(a, m) * np.fft.rfft(b, m), m)[:n]


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


def shared_points_difference(fine, coarse):
    """max |fine - coarse| on the points a grid shares with its dt/2 refinement.

    fine[2k] and coarse[k] sit at the same time. Pairs with a non-finite
    member are skipped; None when no finite pair is left.
    """
    a = fine[: 2 * coarse.size - 1 : 2]
    mask = np.isfinite(a) & np.isfinite(coarse)
    if not mask.any():
        return None
    return float(np.abs(a[mask] - coarse[mask]).max())

