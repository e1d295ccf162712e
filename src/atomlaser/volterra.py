"""Exact pulsed dynamics via the amplitude memory equation.

With the fast trap phase removed analytically, the outcoupled-mode amplitude
obeys

    du/dt = - integral_0^t conj(f)(tau) u(t - tau) dtau,   u(0) = 1,

and the occupation is n = |u|^2. The equation is solved by second-order
product integration (trapezoid in the memory integral) with the diagonal
half-weight term handled implicitly, which keeps the scheme stable at strong
coupling. The march is one lower-triangular Toeplitz system T x = b, with
t(z) the power series of T's first column, so x = b(z)/t(z) is a
power-series division: Newton doubling s <- s (2 - t s) for 1/t(z) (Kung,
Numer. Math. 22, 1974) and one Karp-Markstein step (ACM TOMS 23, 1997),
every product an FFT convolution, O(n log n) in all. It gives the
step-by-step march up to rounding. The kernel (memory_kernel) carries the
run's grid, and a pulsed run hands it to the series rates too, so conj f is
sampled and transformed once per grid. The solve returns u alone; udot,
which only the exact rates read, is formed from u on first use by one
history convolution with the kernel's spectrum.
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

# |u| may exceed 1 only by discretization noise; beyond this the run aborts
DIVERGENCE_TOL = 1e-3
# physical sanity band for the empty-reservoir model (checked post-solve)
SANITY_TOL = 1e-6
# rate extraction stops once the amplitude is this small
RATE_CUTOFF = 1e-6
# terms of 1/t(z) found by forward substitution before Newton doubling takes
# over: every doubling costs five FFT calls whatever its size, so starting
# at 64 terms rather than one saves six doublings per solve. On a 2-core
# Xeon VM the 44 solves of a seed-0 pulsed benchmark batch made 1,512 rather
# than 2,832 FFT calls and took 107 rather than 117 ms
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
    march into one lower-triangular Toeplitz system for u_1..u_{n-1}
    (`_toeplitz_system`), solved as a power-series division
    (`_solve_lower_toeplitz`). udot follows from the same formula, on
    demand: AmplitudeTrajectory(kernel, u).udot.

    NumericalFailure names a zero implicit diagonal 1 + dt^2 k_0 / 4, or the
    first step j >= 1 with |u_j| > max_growth (or a non-finite u_j).
    """
    k = np.ascontiguousarray(kernel.values, dtype=complex)
    dt = kernel.grid.dt
    c = 0.5 * dt * dt
    edge = 0.5 * k  # E_j with u_0 = 1
    t, b = _toeplitz_system(k, edge, c)
    if t[0] == 0:
        raise NumericalFailure(f"the implicit diagonal 1 + dt^2 k_0 / 4 is zero at dt = "
                               f"{dt:.6e} s, k_0 = {k[0]:.6e}: the scheme is singular")
    limit = min(max_growth, np.finfo(float).max)  # so that inf counts as growth
    # an overflow, which the growth check reports, makes every entry non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        x = _solve_lower_toeplitz(t, b)
        if not (np.abs(x) <= limit).all():
            j, size = _first_growth(t, b, limit)
            raise NumericalFailure(
                f"amplitude grew to |u| = {size:.6f} at step {j}; the scheme has destabilized"
            )
    return np.concatenate([[1.0], x])


def _toeplitz_system(k, edge, c):
    """First column t and right-hand side b of T u[1:] = b.

    With den = 1 + c k_0 / 2, and 1 - c k_0 / 2 = 2 - den:
    t_0 = den, t_1 = c k_1 - (2 - den), t_m = c (k_m + k_{m-1}) for m >= 2;
    b_1 = u_0 - c E_1 and b_j = -c (E_{j-1} + E_j) for j >= 2.
    """
    n = k.size
    den = 1.0 + 0.5 * c * k[0]
    t = np.empty(n - 1, dtype=complex)
    t[0] = den
    if n > 2:
        t[1] = c * k[1] - (2.0 - den)
        t[2:] = c * (k[2 : n - 1] + k[1 : n - 2])
    b = -c * (edge[:-1] + edge[1:])
    b[0] = 1.0 - c * edge[1]
    return t, b


def _solve_lower_toeplitz(t, b):
    """Solve T x = b for the lower-triangular Toeplitz T with first column t.

    x(z) = b(z)/t(z) as power series, to n = b.size terms. Forward
    substitution gives the first terms of s = 1/t(z), at most LEAF of them.
    Newton doubling (Kung, Numer. Math. 22, 1974) extends k terms s to
    k' <= 2k: t s = 1 + e z^k mod z^k', and s - s e z^k is 1/t mod z^k'.
    With h = ceil(n/2) terms of s, x_0 = s b mod z^h is the head of x, and
    one Karp-Markstein step (ACM TOMS 23, 1997) gives the tail from the
    residual (b - t x_0)[h:] and the same s. Every product is a cyclic
    convolution of a fast length p >= k' (or n), which leaves the entries
    read free of wrap-around.
    """
    n = b.size
    sizes = [-(-n // 2)]
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
    p = next_fast_len(n)
    spec = np.fft.fft(s, p)
    head = np.fft.ifft(spec * np.fft.fft(b[:k], p))[:k]
    rest = b[k:] - np.fft.ifft(np.fft.fft(t, p) * np.fft.fft(head, p))[k:n]
    return np.concatenate([head, np.fft.ifft(spec * np.fft.fft(rest, p))[: n - k]])


def _first_growth(t, b, limit):
    """Step j and |u_j| = |x_{j-1}| of the first entry of T x = b past limit.

    FFT products bound every entry's error by rounding times the largest
    entry, so a huge one swamps the earlier ones. Leading rows of a
    triangular system do not involve later unknowns: bisection finds the
    longest leading block whose solution stays within limit.
    """
    lo, hi = 0, b.size  # the solution of lo rows stays within limit, of hi rows not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (np.abs(_solve_lower_toeplitz(t[:mid], b[:mid])) <= limit).all():
            lo = mid
        else:
            hi = mid
    return hi, float(np.abs(_solve_lower_toeplitz(t[:hi], b[:hi])[lo]))


def memory_kernel(params, grid):
    """The reservoir kernel conj(f) of the memory equation, sampled on grid from lag 0."""
    if grid.t0 != 0:
        raise GridError(f"the memory kernel is sampled from lag 0, not from t0 = {grid.t0!r}")
    return SampledFunction(grid, np.conj(model.correlation_f(params, grid.times())))


def solve_amplitude(params, kernel):
    """Exact amplitude for the physical reservoir kernel conj(f), on the grid
    of kernel = memory_kernel(params, grid)."""
    dt = kernel.grid.dt
    dt_limit = min(0.05 / params.omega0, 0.05 / params.alpha)
    if dt > dt_limit * (1.0 + 1e-12):
        raise ConfigError(
            f"dt = {dt:.3e} s is too coarse for this parameter set; "
            f"resolving the trap phase and the memory decay needs dt <= {dt_limit:.3e} s"
        )
    u = solve_volterra(kernel, max_growth=1.0 + DIVERGENCE_TOL)
    peak = float(np.max(np.abs(u)))
    if peak > 1.0 + SANITY_TOL:
        raise NumericalFailure(
            f"empty-reservoir amplitude exceeded 1 by {peak - 1.0:.3e}; "
            "refine dt (the bath cannot feed the trapped mode)"
        )
    return AmplitudeTrajectory(kernel, u)


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
