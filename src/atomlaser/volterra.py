"""Exact pulsed dynamics via the amplitude memory equation.

With the fast trap phase removed analytically, the outcoupled-mode amplitude
obeys

    du/dt = - integral_0^t conj(f)(tau) u(t - tau) dtau,   u(0) = 1,

and the occupation is n = |u|^2. The equation is solved by second-order
product integration (trapezoid in the memory integral) with the diagonal
half-weight term handled implicitly, which keeps the scheme stable at strong
coupling. The march is one lower-triangular Toeplitz system, solved by
recursive halving with FFT convolutions between the halves (the fast
convolution of Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6,
1985) in O(n log^2 n); it gives the step-by-step march up to rounding.
"""

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConfigError, NumericalFailure
from .quad import SampledFunction, UniformGrid, _fftconvolve, grid_for, next_fast_len

__all__ = [
    "AmplitudeTrajectory",
    "ExactRates",
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
# rows of T solved by one product with the inverse block in _halving_solve
LEAF = 64


@dataclass
class AmplitudeTrajectory:
    grid: UniformGrid
    u: np.ndarray
    udot: np.ndarray


@dataclass
class ExactRates:
    gamma: SampledFunction
    shift: SampledFunction
    truncated: bool
    truncation_index: int | None


def solve_volterra(kernel, max_growth):
    """March the memory equation du/dt = -(kernel * u)(t) for a sampled kernel.

    Returns (u, udot) arrays on the kernel's grid. The discrete scheme is

        u_j (1 + dt^2 k_0 / 4) = u_{j-1} + dt/2 udot_{j-1}
                                 - dt^2/2 (H_j + E_j),
        udot_j = -dt (k_0 u_j / 2 + H_j + E_j),

    with H_j = sum_{m=1}^{j-1} k_m u_{j-m} and E_j = k_j u_0 / 2: trapezoid
    weights on the memory sum, with the unknown u_j appearing only through
    the k_0 diagonal term, solved exactly. Substituting udot_{j-1} turns the
    march into one lower-triangular Toeplitz system for u_1..u_{n-1}
    (`_toeplitz_system`), solved by recursive halving with FFT convolutions
    for the coupling between halves (`_halving_solve`). udot then
    comes from the same formula, with H as one FFT convolution, so rates
    never see finite differences of u.

    The first step j >= 1 with |u_j| > max_growth (or a non-finite u_j)
    raises NumericalFailure.
    """
    k = np.ascontiguousarray(kernel.values, dtype=complex)
    dt = kernel.grid.dt
    n = kernel.grid.n_points
    c = 0.5 * dt * dt
    edge = 0.5 * k  # E_j with u_0 = 1
    u = np.empty(n, dtype=complex)
    u[0] = 1.0
    u[1:] = _solve_lower_toeplitz(*_toeplitz_system(k, edge, c))
    bad = np.flatnonzero(~(np.abs(u[1:]) <= max_growth))
    if bad.size:
        j = int(bad[0]) + 1
        raise NumericalFailure(
            f"amplitude grew to |u| = {abs(u[j]):.6f} at step {j}; the scheme has destabilized"
        )
    hist = np.zeros(n - 1, dtype=complex)
    if n > 2:
        hist[1:] = _fftconvolve(k[1 : n - 1], u[1 : n - 1])[: n - 2]
    udot = np.empty(n, dtype=complex)
    udot[0] = 0.0
    udot[1:] = -dt * (0.5 * k[0] * u[1:] + hist + edge[1:])
    return u, udot


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

    Overwrites and returns b. Every leaf solves with the leading LEAF x LEAF
    block of T, which is the same matrix for every leaf, so its inverse is
    formed once; a shorter last leaf uses the inverse's leading sub-block,
    which is the inverse of T's leading sub-block because T is triangular.
    """
    m = min(LEAF, b.size)
    block = np.zeros((m, m), dtype=complex)
    for i in range(m):
        block[i:, i] = t[: m - i]
    _halving_solve(t, b, np.linalg.inv(block), {}, 0, b.size)
    return b


def _halving_solve(t, b, inv, spectra, lo, hi):
    """Solve rows lo..hi-1 of T x = b in place, in O(n log^2 n).

    On entry b[lo:hi] already excludes the contribution of x[:lo]. Recursive
    halving on whole leaves: solve the first half, subtract its contribution
    to the second half with one FFT convolution, then solve the second half.
    spectra caches the transform of t_1..t_{size-1} per block size. (A plain
    function, not a closure: a self-referencing closure is a reference cycle
    that keeps every array of the solve alive until the garbage collector
    runs.)
    """
    if hi - lo <= LEAF:
        b[lo:hi] = inv[: hi - lo, : hi - lo] @ b[lo:hi]
        return
    mid = lo + LEAF * (-(-(hi - lo) // LEAF) // 2)
    _halving_solve(t, b, inv, spectra, lo, mid)
    size = hi - lo
    if size not in spectra:
        p = next_fast_len(size - 1, False)
        spectra[size] = (p, np.fft.fft(t[1:size], p))
    p, spec = spectra[size]
    # middle product: entries mid-lo-1 .. size-2 of the linear convolution of
    # x[lo:mid] with t_1..t_{size-1}; a cyclic length >= size-1 keeps them
    # free of wrap-around
    y = np.fft.ifft(np.fft.fft(b[lo:mid], p) * spec, p)
    b[mid:hi] -= y[mid - lo - 1 : size - 1]
    _halving_solve(t, b, inv, spectra, mid, hi)


def solve_amplitude(params, t_max, dt):
    """Exact amplitude for the physical reservoir kernel conj(f)."""
    grid = grid_for(t_max, dt)
    dt_limit = min(0.05 / params.omega0, 0.05 / params.alpha)
    if dt > dt_limit * (1.0 + 1e-12):
        raise ConfigError(
            f"dt = {dt:.3e} s is too coarse for this parameter set; "
            f"resolving the trap phase and the memory decay needs dt <= {dt_limit:.3e} s"
        )
    kernel = SampledFunction(grid, np.conj(model.correlation_f(params, grid.times())))
    u, udot = solve_volterra(kernel, max_growth=1.0 + DIVERGENCE_TOL)
    peak = float(np.max(np.abs(u)))
    if peak > 1.0 + SANITY_TOL:
        raise NumericalFailure(
            f"empty-reservoir amplitude exceeded 1 by {peak - 1.0:.3e}; "
            "refine dt (the bath cannot feed the trapped mode)"
        )
    return AmplitudeTrajectory(grid, u, udot)


def occupation(traj):
    """Normalized occupation n(t) = |u(t)|^2."""
    return SampledFunction(traj.grid, np.abs(traj.u) ** 2)


def exact_rates(traj):
    """Time-local decay rate and frequency shift of the exact solution.

    gamma(t) = -2 Re(udot/u) and shift(t) = +2 Im(udot/u); the shift sign is
    fixed by matching the second-order perturbative shift (the running
    integral of psi) at weak coupling. If |u| falls below RATE_CUTOFF the
    output is truncated there and flagged: the rate genuinely diverges where
    the occupation collapses to zero.
    """
    a = np.abs(traj.u)
    below = np.nonzero(a < RATE_CUTOFF)[0]
    if below.size:
        idx = int(below[0])
        if idx < 2:
            raise NumericalFailure("amplitude vanished at the start of the grid")
        grid = UniformGrid(traj.grid.t0, traj.grid.dt, idx)
        ratio = traj.udot[:idx] / traj.u[:idx]
        truncated, tidx = True, idx
    else:
        grid = traj.grid
        ratio = traj.udot / traj.u
        truncated, tidx = False, None
    gamma = SampledFunction(grid, -2.0 * ratio.real)
    shift = SampledFunction(grid, 2.0 * ratio.imag)
    return ExactRates(gamma, shift, truncated, tidx)
