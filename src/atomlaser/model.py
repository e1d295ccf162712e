"""Physical parameters and closed-form reservoir functions.

The trapped mode at frequency omega0 couples to a continuum of free momentum
states through a Gaussian momentum-space amplitude. Everything downstream
(memory kernel, perturbative rates, cw generator) is built from the three
functions evaluated here: the coupling amplitude kappa(k), the spectral
density J(omega) and the reservoir correlation f(tau).
"""

from dataclasses import dataclass

import numpy as np

HBAR = 1.054571817e-34  # J s

__all__ = [
    "HBAR",
    "TrapParams",
    "ReservoirFunctions",
    "MarkovConstants",
    "derive_alpha",
    "coupling_kappa",
    "spectral_density",
    "correlation_f",
    "phi",
    "psi",
    "markov_constants",
    "gamma_markov_closed_form",
    "gamma_markov_by_quadrature",
    "timescale_ratio",
]

from .errors import DomainError, NumericalFailure, ParameterError


def _require_finite(obj, names):
    """Reject nan and +-inf in the named fields, naming the first offender."""
    for name in names:
        value = getattr(obj, name)
        if not np.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class TrapParams:
    """Trap and coupling parameters, all SI.

    M: atomic mass (kg); omega0: trap angular frequency (rad/s);
    sigma_k: momentum-space width of the trapped mode (1/m);
    Gamma: output-coupling strength (1/s^2).
    """

    M: float
    omega0: float
    sigma_k: float
    Gamma: float
    hbar: float = HBAR

    def __post_init__(self):
        _require_finite(self, ("M", "omega0", "sigma_k", "Gamma", "hbar"))
        if not (self.M > 0):
            raise ParameterError(f"atomic mass must be positive, got {self.M}")
        if not (self.omega0 > 0):
            raise ParameterError(f"omega0 must be positive, got {self.omega0}")
        if not (self.sigma_k > 0):
            raise ParameterError(f"sigma_k must be positive, got {self.sigma_k}")
        if self.Gamma < 0:
            raise ParameterError(f"Gamma must be non-negative, got {self.Gamma}")
        if not (self.hbar > 0):
            raise ParameterError(f"hbar must be positive, got {self.hbar}")

    @property
    def alpha(self):
        return derive_alpha(self)


def derive_alpha(params):
    """Frequency scale of the reservoir memory, hbar sigma_k^2 / (2 M)."""
    return params.hbar * params.sigma_k**2 / (2.0 * params.M)


def coupling_kappa(params, k, k0=0.0):
    """Momentum-space coupling amplitude at wavenumber k (purely imaginary).

    k0 is the center of the outcoupled wave packet; the physical model fixes
    it to zero, the keyword exists only so tests can probe the Gaussian shape.
    """
    k = np.asarray(k, dtype=float)
    norm = (2.0 * np.pi * params.sigma_k**2) ** -0.25
    amp = np.sqrt(params.Gamma) * norm * np.exp(-((k - k0) ** 2) / (4.0 * params.sigma_k**2))
    return 1j * amp


def spectral_density(params, omega):
    """Reservoir spectral density J(omega) = Gamma exp(-omega/alpha)/sqrt(pi alpha omega).

    Defined for omega > 0 only; the inverse-square-root divergence at zero is
    integrable but never evaluated.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise DomainError("spectral density is defined for omega > 0 only")
    a = derive_alpha(params)
    return params.Gamma * np.exp(-omega / a) / np.sqrt(np.pi * a * omega)


def correlation_f(params, tau, extend=False):
    """Reservoir correlation f(tau) = exp(i omega0 tau) Gamma / sqrt(1 + i alpha tau).

    Principal branch of the square root (the argument never leaves the right
    half-plane for tau >= 0, so no cut is crossed). Negative tau raises unless
    extend=True, which applies the Hermitian extension f(-tau) = conj(f(tau)).
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        if not extend:
            raise DomainError("correlation is defined for tau >= 0 (pass extend=True for the Hermitian extension)")
        out = correlation_f(params, np.abs(tau))
        return np.where(tau >= 0.0, out, np.conj(out))
    a = derive_alpha(params)
    return np.exp(1j * params.omega0 * tau) * params.Gamma / np.sqrt(1.0 + 1j * a * tau)


def phi(params, tau):
    """Real quadrature of the memory kernel, phi = 2 Re f."""
    return 2.0 * correlation_f(params, tau).real


def psi(params, tau):
    """Imaginary quadrature of the memory kernel, psi = 2 Im f."""
    return 2.0 * correlation_f(params, tau).imag


class ReservoirFunctions:
    """The closed-form reservoir functions bound to one parameter set."""

    def __init__(self, params):
        self.params = params

    def f(self, tau, extend=False):
        return correlation_f(self.params, tau, extend=extend)

    def phi(self, tau):
        return phi(self.params, tau)

    def psi(self, tau):
        return psi(self.params, tau)

    def J(self, omega):
        return spectral_density(self.params, omega)

    def kappa(self, k, k0=0.0):
        return coupling_kappa(self.params, k, k0=k0)


# ---------------------------------------------------------------------------
# Markovian constants


@dataclass(frozen=True)
class MarkovConstants:
    gamma_M: float  # long-time decay rate, 1/s
    S_M: float      # long-time frequency shift, rad/s
    t_res: float    # reservoir memory time, s


def gamma_markov_closed_form(params):
    """Markovian decay rate Gamma sqrt(4 pi/(omega0 alpha)) exp(-omega0/alpha)."""
    a = derive_alpha(params)
    return params.Gamma * np.sqrt(4.0 * np.pi / (params.omega0 * a)) * np.exp(-params.omega0 / a)


def _half_period_segments(func, omega0, n_segments, order=16):
    """Integrals of func over consecutive half-periods [j, j+1] pi/omega0."""
    x, w = np.polynomial.legendre.leggauss(order)
    h = np.pi / omega0
    starts = h * np.arange(n_segments)[:, None]
    nodes = starts + 0.5 * h * (x[None, :] + 1.0)
    return 0.5 * h * (func(nodes) * w[None, :]).sum(axis=1)


def _euler_accelerated_tail(partial_sums):
    """Limit of an alternating-tail sequence by repeated pairwise averaging.

    Returns (value, spread) where spread is the change in the final entry
    over the last averaging level, used as the convergence estimate.
    """
    row = np.asarray(partial_sums, dtype=float)
    last_entries = [row[-1]]
    while row.size >= 2:
        row = 0.5 * (row[:-1] + row[1:])
        last_entries.append(row[-1])
    diffs = np.abs(np.diff(last_entries))
    if diffs.size == 0:
        return last_entries[-1], np.inf
    i = int(np.argmin(diffs)) + 1
    return last_entries[i], diffs[i - 1]


def _tail_accelerated_integral(func, omega0, head_segments=8, tail_segments=48, order=16):
    """Integral of an oscillatory, slowly decaying func over [0, inf).

    The integrand oscillates at omega0 with a t^(-1/2) envelope, so plain
    truncation converges too slowly; successive half-period contributions
    alternate in sign and the tail is summed with Euler averaging.
    """
    segments = _half_period_segments(func, omega0, head_segments + tail_segments, order)
    head = segments[:head_segments].sum()
    partial = head + np.cumsum(segments[head_segments:])
    return _euler_accelerated_tail(partial)


def gamma_markov_by_quadrature(params, rtol=1e-3):
    """gamma_M as the full time integral of phi, for cross-checking the closed form."""
    value, err = _tail_accelerated_integral(lambda t: phi(params, t), params.omega0)
    if err > rtol * max(abs(value), 1.0):
        raise NumericalFailure(
            f"gamma_M quadrature did not converge: achieved {err:.3e}, wanted {rtol:.1e} relative"
        )
    return value


def markov_constants(params, rtol=1e-6):
    """Markovian decay rate, frequency shift and reservoir memory time.

    gamma_M comes from the closed form; no closed form exists for S_M, so it
    is the accelerated quadrature of psi over [0, inf). t_res is the fixed
    conventional value 0.4/omega0 (a measured half-width, not computed here).
    """
    gamma_m = gamma_markov_closed_form(params)
    if params.Gamma == 0.0:
        return MarkovConstants(0.0, 0.0, 0.4 / params.omega0)
    s_m, err = _tail_accelerated_integral(lambda t: psi(params, t), params.omega0)
    if err > rtol * max(abs(s_m), 1.0):
        raise NumericalFailure(
            f"S_M quadrature did not converge: achieved {err:.3e}, wanted {rtol:.1e} relative"
        )
    return MarkovConstants(gamma_m, s_m, 0.4 / params.omega0)


def timescale_ratio(params):
    """Closed-form time-scale ratio t_sys/t_res = 2*omega0/gamma_M.

    This is the memorylessness figure of merit: >> 1 means the reservoir
    forgets much faster than the system decays. The closed form folds the
    memory time in as 1/(2*omega0); the separately reported t_res constant
    (0.4/omega0, a measured half-width) is deliberately not reused here, so
    the ratio matches its own closed form exactly rather than mixing two
    conventions that differ by ~30%.
    """
    mc_gamma = gamma_markov_closed_form(params)
    if mc_gamma == 0.0:
        raise ParameterError("timescale ratio undefined at Gamma = 0")
    return 2.0 * params.omega0 / mc_gamma
