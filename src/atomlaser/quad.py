"""Quadrature machinery on uniform time grids.

Everything here is composite-trapezoid based (order dt^2). The memory kernel
has unbounded derivatives as tau -> 0, which higher-order end-corrected rules
handle poorly; second-order product integration is robust there and accuracy
is controlled by grid halving instead. Every convolution is one FFT product
with the spectrum a SampledFunction keeps of its samples. The ordered triple
integrals of the order-4 quadrature route, which no run evaluates, are test
references (`tests/reference.py`).
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, GridError

__all__ = [
    "UniformGrid",
    "SampledFunction",
    "cumulative_integral",
    "iterated_convolution",
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


def grid_for(t_max, dt):
    """Smallest uniform grid from 0 covering t_max.

    The one place a solver turns (t_max, dt) into a grid: ConfigError names
    the argument when either is not finite and positive. The slack that
    keeps t_max = n dt at n + 1 points is relative, because the rounding of
    (n dt) / dt grows like n times the machine epsilon.
    """
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    if not np.isfinite(t_max / dt):
        raise ConfigError(f"t_max/dt must be finite, got {t_max / dt!r}")
    n = int(np.ceil(t_max / dt * (1.0 - 1e-12))) + 1
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

    @cached_property
    def spectrum(self):
        """FFT of the samples, long enough for a full convolution with n
        samples; taken by the first convolve, so the samples must not change."""
        return np.fft.fft(self.values, next_fast_len(2 * self.grid.n_points - 1))

    def convolve(self, x):
        """First n entries of the full discrete convolution of the samples
        with x, for x of the grid's size n: one transform and one inverse.
        Real samples and a real x give a real result."""
        size = self.spectrum.size
        # np.multiply, not `*`: on a temporary right operand of 256 KiB or
        # more, `*` reuses its buffer and swaps the operands, and complex
        # multiplication with FMA rounds differently in the other order
        out = np.fft.ifft(np.multiply(self.spectrum, np.fft.fft(x, size)), size)[: x.size]
        return out.real if np.isrealobj(self.values) and np.isrealobj(x) else out


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
def _smooth_numbers(top):
    """Sorted 11-smooth numbers (products of 2, 3, 5, 7 and 11) up to top."""
    nums = [1]
    for p in (2, 3, 5, 7, 11):
        grown = []
        for f in nums:
            while f <= top:
                grown.append(f)
                f *= p
        nums = grown
    return tuple(sorted(nums))


def next_fast_len(n):
    """The smallest 11-smooth length >= n, as scipy.fft.next_fast_len(n)
    gives for complex input. Every FFT length of the package comes from
    here, and the output bits depend on it."""
    top = 1 << (n - 1).bit_length()  # a power of two, so always a candidate
    lens = _smooth_numbers(top)
    return lens[bisect_left(lens, n)]


def iterated_convolution(kernel, u):
    """v(t) = integral_0^t kernel(tau) u(t - tau) dtau by product trapezoid:
    the full discrete convolution with the two endpoint samples downweighted
    to half."""
    if kernel.grid != u.grid:
        raise GridError("operands live on different grids")
    k, x = kernel.values, u.values
    out = kernel.grid.dt * (kernel.convolve(x) - 0.5 * k[0] * x - 0.5 * k * x[0])
    out[0] = 0.0  # exact for an empty interval; fft noise would leave ~1e-16
    return SampledFunction(kernel.grid, out)


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

