"""Exact pulsed dynamics via the amplitude memory equation.

With the fast trap phase removed analytically, the outcoupled-mode amplitude
obeys

    du/dt = - integral_0^t conj(f)(tau) u(t - tau) dtau,   u(0) = 1,

and the occupation is n = |u|^2. The equation is solved by second-order
product integration (trapezoid in the memory integral) with the diagonal
half-weight term handled implicitly, which keeps the scheme stable at strong
coupling. In the Laplace domain the exact solution is the resolvent
1/(p + k(p)); on the grid the march obeys the same law as power series,
u(z) = 1/2 + (den/2)(1 + z)/t(z), with t the transfer series of the kernel.
So the solve is one reciprocal 1/t(z): forward substitution for its first
LEAF terms, then Newton doubling (Kung, Numer. Math. 22, 1974), every
product an FFT convolution, O(n log n) in all. It gives the step-by-step
march up to rounding. The kernel (memory_kernel) carries the run's grid,
and a pulsed run hands it to the series rates too, so conj f is sampled and
transformed once per grid. The solve returns u alone; udot, which only the
exact rates read, is formed from u on first use by one history convolution
with the kernel's spectrum.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import model
from .errors import ConfigError, GridError, NumericalFailure
from .quad import SampledFunction, UniformGrid, next_fast_len

__all__ = [
    "AmplitudeTrajectory",
    "ExactRates",
    "memory_kernel",
    "solve_volterra",
    "solve_amplitude",
    "occupation",
    "exact_rates",
]

# |u| may exceed 1 only by discretization noise: the empty reservoir cannot
# feed the trapped mode, so beyond this the run aborts
SANITY_TOL = 1e-6
# rate extraction stops once the amplitude is this small
RATE_CUTOFF = 1e-6
# terms of 1/t(z) found by forward substitution before Newton doubling takes
# over: every doubling costs five FFT calls whatever its size, so starting
# at 64 terms rather than one saves six doublings per solve. The 44 solves
# of a seed-0 pulsed benchmark batch make 1,380 rather than 2,700 FFT calls
LEAF = 64


@dataclass
class AmplitudeTrajectory:
    """The amplitude u that solve_volterra gives on the grid of kernel."""

    kernel: SampledFunction
    u: np.ndarray

    @property
    def grid(self):
        return self.kernel.grid

    @cached_property
    def udot(self):
        """du/dt of the discrete scheme (see solve_volterra), formed on first
        use: H = k*u - k_0 u - k u_0 from one kernel.convolve, so rates never
        see finite differences of u."""
        k, u, dt = np.asarray(self.kernel.values, dtype=complex), self.u, self.grid.dt
        hist = self.kernel.convolve(u)[1:] - k[0] * u[1:] - k[1:]
        hist[0] = 0.0  # H_1 is an empty sum
        return np.concatenate([[0.0], -dt * (0.5 * k[0] * u[1:] + hist + 0.5 * k[1:])])


@dataclass
class ExactRates:
    gamma: SampledFunction
    shift: SampledFunction
    truncation_index: int | None  # None when the rates run to the end of the grid


def solve_volterra(kernel, max_growth):
    """March the memory equation du/dt = -(kernel * u)(t) for a sampled kernel.

    Returns the array u on the kernel's grid. The discrete scheme is

        u_j (1 + dt^2 k_0 / 4) = u_{j-1} + dt/2 udot_{j-1}
                                 - dt^2/2 (H_j + E_j),
        udot_j = -dt (k_0 u_j / 2 + H_j + E_j),

    with H_j = sum_{m=1}^{j-1} k_m u_{j-m} and E_j = k_j u_0 / 2: trapezoid
    weights on the memory sum, with the unknown u_j appearing only through
    the k_0 diagonal term, solved exactly. Substituting udot_{j-1} turns the
    march into u(z) = 1/2 + (den/2)(1 + z)/t(z) as power series, with
    den = 1 + dt^2 k_0 / 4 and t the transfer series (`_transfer_series`):
    the grid's twin of the resolvent 1/(p + k(p)). So u_0 = 1 and
    u_j = (den/2)(s_j + s_{j-1}) with s = 1/t(z) (`_reciprocal`). udot
    follows from the scheme, on demand: AmplitudeTrajectory(kernel, u).udot.

    NumericalFailure names a zero implicit diagonal 1 + dt^2 k_0 / 4, or the
    first step j >= 1 with |u_j| > max_growth (or a non-finite u_j).
    """
    k = np.ascontiguousarray(kernel.values, dtype=complex)
    dt = kernel.grid.dt
    t = _transfer_series(k, 0.5 * dt * dt)
    if t[0] == 0:
        raise NumericalFailure(f"the implicit diagonal 1 + dt^2 k_0 / 4 is zero at dt = "
                               f"{dt:.6e} s, k_0 = {k[0]:.6e}: the scheme is singular")
    limit = min(max_growth, np.finfo(float).max)  # so that inf counts as growth
    # an overflow, which the growth check reports, makes every entry non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        u = _amplitude(t)
        if not (np.abs(u[1:]) <= limit).all():
            j, size = _first_growth(t, limit)
            raise NumericalFailure(
                f"amplitude grew to |u| = {size:.6f} at step {j}; the scheme has destabilized "
                "(refine dt)")
    return u


def _transfer_series(k, c):
    """The march's transfer series, one term per grid point: the march reads
    t(z) (u(z) - 1/2) = (den/2)(1 + z) with t_0 = den = 1 + c k_0 / 2,
    t_1 = c k_1 - (2 - den) and t_m = c (k_m + k_{m-1}) for m >= 2."""
    t = np.empty(k.size, dtype=complex)
    t[0] = den = 1.0 + 0.5 * c * k[0]
    t[1:] = c * (k[1:] + k[:-1])
    if k.size > 1:
        t[1] = c * k[1] - (2.0 - den)
    return t


def _amplitude(t):
    """u_0 = 1 and u_j = (den/2)(s_j + s_{j-1}) with s = 1/t(z), den = t_0."""
    s = _reciprocal(t)
    return np.concatenate([[1.0], 0.5 * t[0] * (s[1:] + s[:-1])])


def _reciprocal(t):
    """The first t.size terms of s = 1/t(z).

    Forward substitution gives the first terms, at most LEAF of them.
    Newton doubling (Kung, Numer. Math. 22, 1974) extends k terms to
    k' <= 2k: t s = 1 + e z^k mod z^k', and s - s e z^k is 1/t mod z^k'.
    Every product is a cyclic convolution of a fast length p >= k', which
    leaves the entries read free of wrap-around: five FFT calls a doubling.
    """
    sizes = [t.size]
    while sizes[-1] > LEAF:
        sizes.append(-(-sizes[-1] // 2))
    k = sizes.pop()
    s = np.empty(k, dtype=complex)
    s[0] = 1.0 / t[0]
    for j in range(1, k):
        s[j] = -s[0] * np.dot(t[j:0:-1], s[:j])
    for size in reversed(sizes):
        p = next_fast_len(size)
        spec = np.fft.fft(s, p)
        e = np.fft.ifft(np.fft.fft(t[:size], p) * spec)[k:size]
        s = np.concatenate([s, -np.fft.ifft(np.fft.fft(e, p) * spec)[: size - k]])
        k = size
    return s


def _first_growth(t, limit):
    """Step j and |u_j| of the first amplitude past limit, for j >= 1.

    FFT products bound every entry's error by rounding times the largest
    entry, so a huge one swamps the earlier ones. u_0..u_{m-1} read only
    t_0..t_{m-1}: bisection finds the longest prefix whose amplitude stays
    within limit.
    """
    lo, hi = 1, t.size  # the amplitude on lo points stays within limit, on hi not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (np.abs(_amplitude(t[:mid])[1:]) <= limit).all():
            lo = mid
        else:
            hi = mid
    return lo, float(np.abs(_amplitude(t[:hi])[lo]))


def memory_kernel(params, grid):
    """The reservoir kernel conj(f) of the memory equation, sampled on grid from lag 0."""
    if grid.t0 != 0:
        raise GridError(f"the memory kernel is sampled from lag 0, not from t0 = {grid.t0!r}")
    return SampledFunction(grid, np.conj(model.correlation_f(params, grid.times())))


def solve_amplitude(params, kernel):
    """Exact amplitude for the physical reservoir kernel conj(f), on the grid
    of kernel = memory_kernel(params, grid). NumericalFailure names the first
    step where |u| passes 1 + SANITY_TOL."""
    dt = kernel.grid.dt
    dt_limit = min(0.05 / params.omega0, 0.05 / params.alpha)
    if dt > dt_limit * (1.0 + 1e-12):
        raise ConfigError(
            f"dt = {dt:.3e} s is too coarse for this parameter set; "
            f"resolving the trap phase and the memory decay needs dt <= {dt_limit:.3e} s"
        )
    return AmplitudeTrajectory(kernel, solve_volterra(kernel, max_growth=1.0 + SANITY_TOL))


def occupation(traj):
    """Normalized occupation n(t) = |u(t)|^2."""
    return SampledFunction(traj.grid, np.abs(traj.u) ** 2)


def exact_rates(traj):
    """Time-local decay rate and frequency shift of the exact solution.

    gamma(t) = -2 Re(udot/u) and shift(t) = +2 Im(udot/u); the shift sign is
    fixed by matching the second-order perturbative shift (the running
    integral of psi) at weak coupling. If |u| falls below RATE_CUTOFF the
    output stops there and truncation_index records where: the rate
    genuinely diverges where the occupation collapses to zero.
    """
    a = np.abs(traj.u)
    below = np.nonzero(a < RATE_CUTOFF)[0]
    if below.size:
        idx = int(below[0])
        if idx < 2:
            raise NumericalFailure("amplitude vanished at the start of the grid")
        grid = UniformGrid(traj.grid.t0, traj.grid.dt, idx)
        ratio = traj.udot[:idx] / traj.u[:idx]
        tidx = idx
    else:
        grid = traj.grid
        ratio = traj.udot / traj.u
        tidx = None
    gamma = SampledFunction(grid, -2.0 * ratio.real)
    shift = SampledFunction(grid, 2.0 * ratio.imag)
    return ExactRates(gamma, shift, tidx)
