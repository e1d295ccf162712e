"""Physical parameters and closed-form reservoir functions.

The trapped mode at frequency omega0 couples to a continuum of free momentum
states through a Gaussian momentum-space amplitude, whose reservoir
correlation f(tau) is evaluated here. Everything downstream (memory kernel,
perturbative rates, cw generator) is built from f.
The Born-Markov constants are its Laplace transform at -i omega0, in closed
form: 2 integral_0^inf f dtau = gamma_M + i S_M with, for x = omega0/alpha,
gamma_M = Gamma sqrt(4 pi/(alpha omega0)) exp(-x) and
S_M = 4 Gamma D(sqrt(x))/sqrt(alpha omega0), D being Dawson's integral.
The coupling amplitude kappa(k), the spectral density J(omega), the
quadratures phi = 2 Re f and psi = 2 Im f, and the Markov constants by
quadrature and by the wofz Laplace route are test references
(`tests/reference.py`): no run evaluates them.
"""

import math
from dataclasses import dataclass

import numpy as np

HBAR = 1.054571817e-34  # J s

__all__ = [
    "HBAR",
    "TrapParams",
    "MarkovConstants",
    "correlation_f",
    "markov_constants",
    "gamma_markov_closed_form",
    "timescale_ratio",
]

from .errors import DomainError, ParameterError


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

    def __post_init__(self):
        _require_finite(self, ("M", "omega0", "sigma_k", "Gamma"))
        if not (self.M > 0):
            raise ParameterError(f"atomic mass must be positive, got {self.M}")
        if not (self.omega0 > 0):
            raise ParameterError(f"omega0 must be positive, got {self.omega0}")
        if not (self.sigma_k > 0):
            raise ParameterError(f"sigma_k must be positive, got {self.sigma_k}")
        if self.Gamma < 0:
            raise ParameterError(f"Gamma must be non-negative, got {self.Gamma}")
        try:
            alpha = self.alpha
        except OverflowError:   # sigma_k**2 beyond float range
            alpha = np.inf
        if not (np.isfinite(alpha) and alpha > 0):
            raise ParameterError(f"sigma_k = {self.sigma_k} and M = {self.M} give alpha = hbar "
                                 f"sigma_k^2 / (2 M) = {alpha}; it must be finite and positive")

    @property
    def alpha(self):
        """Frequency scale of the reservoir memory, hbar sigma_k^2 / (2 M)."""
        return HBAR * self.sigma_k**2 / (2.0 * self.M)


def correlation_f(params, tau):
    """Reservoir correlation f(tau) = exp(i omega0 tau) Gamma / sqrt(1 + i alpha tau).

    Principal branch of the square root (the argument never leaves the right
    half-plane for tau >= 0, so no cut is crossed). Negative tau raises.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise DomainError("correlation is defined for tau >= 0")
    a = params.alpha
    return np.exp(1j * params.omega0 * tau) * params.Gamma / np.sqrt(1.0 + 1j * a * tau)


# ---------------------------------------------------------------------------
# Markovian constants


@dataclass(frozen=True)
class MarkovConstants:
    gamma_M: float  # long-time decay rate, 1/s
    S_M: float      # long-time frequency shift, rad/s
    t_res: float    # reservoir memory time, s


def gamma_markov_closed_form(params):
    """Markovian decay rate Gamma sqrt(4 pi/(omega0 alpha)) exp(-omega0/alpha)."""
    a = params.alpha
    return params.Gamma * np.sqrt(4.0 * np.pi / (params.omega0 * a)) * np.exp(-params.omega0 / a)


def _dawson(y):
    """Dawson's integral D(y) = exp(-y^2) integral_0^y exp(t^2) dt for y >= 0 (DLMF 7.2.5)."""
    y2 = y * y
    if y <= 8.0:
        # sum_n exp(-y^2) y^(2n+1) / (n! (2n+1)): positive terms, peaked near n = y^2
        term, total = y * math.exp(-y2), 0.0
        for n in range(int(y2 + 10.0 * y + 40.0)):
            total += term / (2 * n + 1)
            term *= y2 / (n + 1)
        return total
    # asymptotic sum_k (2k-1)!! / (2^(k+1) y^(2k+1)); 40 terms fall below 1e-25 relative
    term, total = 0.5 / y, 0.0
    for k in range(40):
        total += term
        term *= (2 * k + 1) / (2.0 * y2)
    return total


def markov_constants(params):
    """Markovian decay rate, frequency shift and reservoir memory time.

    gamma_M + i S_M = 2 integral_0^inf f dtau, and with x = omega0/alpha the
    Laplace transform of (1 + i alpha tau)^(-1/2) at -i omega0 gives

        integral_0^inf exp(i omega0 tau) (1 + i alpha tau)^(-1/2) dtau
            = sqrt(pi / (alpha omega0)) exp(-x) erfc(-i sqrt(x)),

    where erfc(-i y) = 1 + 2i exp(y^2) D(y) / sqrt(pi). The real part is
    gamma_markov_closed_form, and S_M = 4 Gamma D(sqrt(x)) / sqrt(alpha omega0).
    t_res is the fixed conventional value 0.4/omega0 (a measured half-width,
    not computed here).
    """
    a, w0 = params.alpha, params.omega0
    s_m = 4.0 * params.Gamma * _dawson(math.sqrt(w0 / a)) / math.sqrt(a * w0)
    return MarkovConstants(gamma_markov_closed_form(params), s_m, 0.4 / w0)


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
