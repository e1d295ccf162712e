"""Reference solutions reached by another road than the production solvers.

laplace_amplitude is the exact pulsed amplitude of the memory equation

    du/dt = -integral_0^t conj(f)(tau) u(t - tau) dtau,   u(0) = 1,

computed in the Laplace domain instead of on a time grid. With
conj f(tau) = Gamma exp(-i omega0 tau) / sqrt(1 + beta tau), beta = -i alpha,
and w = s + i omega0, the kernel's transform is Gamma F(w) with

    F(w) = integral_0^inf exp(-w tau) (1 + beta tau)^(-1/2) dtau
         = sqrt(pi) wofz(i q) / (beta q),   q = sqrt(w) / sqrt(beta),

wofz being the Faddeeva function exp(-z^2) erfc(-i z). The principal roots
put the branch cut on the negative real w axis. Then
u~(w) = 1 / (w - i omega0 + Gamma F(w)) and

    u(t) = exp(-i omega0 t) [R exp(w_p t) + cut(t)],

where w_p is the decaying pole near i omega0 - gamma_M / 2, found by
Newton's method, R its residue, and cut(t) the Bromwich integral of
u~(w) - R / (w - w_p), taken on Talbot's contour with the fixed parameters
of Weideman and Trefethen (Math. Comp. 76, 2007). Subtracting the pole
matters: once the contour passes to the left of w_p, Talbot's rule alone
silently returns only cut(t).
"""

import numpy as np
from scipy.special import wofz

from atomlaser import model

TALBOT_NODES = 32


def _f_and_slope(w, beta):
    """F(w) and dF/dw, from wofz'(z) = 2 i / sqrt(pi) - 2 z wofz(z)."""
    q = np.sqrt(w) / np.sqrt(beta)
    v = wofz(1j * q)
    f = np.sqrt(np.pi) * v / (beta * q)
    dg_dq = ((2.0 * q * q - 1.0) * v - 2.0 * q / np.sqrt(np.pi)) / (q * q)
    return f, np.sqrt(np.pi) / beta * dg_dq / (2.0 * beta * q)


def decaying_pole(params):
    """Pole w_p of u~ and its residue R, by Newton's method from i omega0 - gamma_M / 2."""
    beta = -1j * params.alpha
    w = 1j * params.omega0 - 0.5 * model.gamma_markov_closed_form(params)
    for _ in range(50):
        f, slope = _f_and_slope(w, beta)
        step = (w - 1j * params.omega0 + params.Gamma * f) / (1.0 + params.Gamma * slope)
        w = w - step
        if abs(step) <= 1e-15 * abs(w):
            break
    else:
        raise RuntimeError("Newton's method did not converge on the pole")
    return w, 1.0 / (1.0 + params.Gamma * _f_and_slope(w, beta)[1])


def laplace_amplitude(params, times):
    """u(t) at each of the given times t > 0."""
    beta = -1j * params.alpha
    w_p, residue = decaying_pole(params)
    theta = -np.pi + (np.arange(TALBOT_NODES) + 0.5) * (2.0 * np.pi / TALBOT_NODES)
    a = 0.6407 * theta
    shape = -0.6122 + 0.5017 * theta / np.tan(a) + 0.2645j * theta
    shape_slope = 0.5017 * (1.0 / np.tan(a) - a / np.sin(a) ** 2) + 0.2645j
    out = []
    for t in np.atleast_1d(times):
        w = TALBOT_NODES / t * shape
        regular = (1.0 / (w - 1j * params.omega0 + params.Gamma * _f_and_slope(w, beta)[0])
                   - residue / (w - w_p))
        # (1 / 2 pi i) times the trapezoid rule in theta with step 2 pi / N
        cut = np.sum(np.exp(w * t) * regular * shape_slope) / 1j / t
        out.append(np.exp(-1j * params.omega0 * t) * (residue * np.exp(w_p * t) + cut))
    return np.array(out)
