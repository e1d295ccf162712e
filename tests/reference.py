"""Reference solutions reached by another road than the production solvers:
the pulsed amplitude from the Laplace domain, and a reduced cw laser with
the lasing mode as a mean field.

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

The reduced cw model keeps the pumped mode n1 as an exact birth-death chain
q(n1) on 0..n1_max, with pump gain kappa1 N (n1 + 1), pump loss
kappa1 (1 + N) n1 and pair loss Omega (m + 1) n1 (n1 - 1), and replaces the
lasing mode n0 by its mean m(t):

    dm/dt = Omega (m + 1) sum_n1 n1 (n1 - 1) q(n1) - gamma(t) m,
    dq/dt = A(m) q,

1 + (n1_max + 1) unknowns (62 at the default box) against
(n0_max + 1)(n1_max + 1) (12,261). It drops the n0 fluctuations that the
collision rate's factor n0 + 1 correlates with n1.
Only the output rate gamma(t) enters, so it is a reference for the markov
and order-2 runs. Order 4 is out of its scope: the output-collision cross
term would need a mean-field form of its own, which is not derived here.
The chain has no gain out of n1 = n1_max, where the full model clips; at
the default box the mass there is about 1e-20.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
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


# ---------------------------------------------------------------------------
# The cw laser with the lasing mode as a mean field


def _reduced_chain(params):
    """(B, C, w): A(m) = B + (m + 1) C, and w = n1 (n1 - 1)."""
    n1 = np.arange(params.n1_max + 1, dtype=float)
    gain = params.kappa1 * params.N * (n1 + 1.0)
    gain[-1] = 0.0
    loss = params.kappa1 * (1.0 + params.N) * n1
    w = n1 * (n1 - 1.0)
    B = np.diag(-gain - loss) + np.diag(gain[:-1], -1) + np.diag(loss[1:], 1)
    C = params.Omega * (np.diag(w[2:], 2) - np.diag(w))
    return B, C, w


def reduced_cw_stationary(params):
    """Stationary mean m = <n0> of the reduced model at the markov rate.

    For each m the chain's stationary q solves A(m) q = 0, sum q = 1 (row 0
    replaced by the normalization); m is the root of the n0 balance
    Omega (m + 1) <n1 (n1 - 1)> = gamma_M m, which lies below
    kappa1 N / (2 gamma_M) since each collision removes two pumped atoms.
    """
    B, C, w = _reduced_chain(params)
    gm = model.gamma_markov_closed_form(params.trap)
    rhs = np.zeros(w.size)
    rhs[0] = 1.0

    def balance(m):
        A = B + (m + 1.0) * C
        A[0] = 1.0
        return params.Omega * (m + 1.0) * (w @ np.linalg.solve(A, rhs)) - gm * m

    return brentq(balance, 0.0, params.kappa1 * params.N / (2.0 * gm), xtol=1e-12, rtol=1e-14)


def reduced_cw_mean_n0(params, times, gamma):
    """m(t) at the given times from the vacuum, for the output rate gamma(t),
    by Radau (rtol 1e-10) with the exact Jacobian."""
    B, C, w = _reduced_chain(params)
    Om = params.Omega

    def rhs(t, y):
        m, q = y[0], y[1:]
        return np.concatenate(([Om * (m + 1.0) * (w @ q) - gamma(t) * m], (B + (m + 1.0) * C) @ q))

    def jac(t, y):
        m, q = y[0], y[1:]
        J = np.empty((y.size, y.size))
        J[0, 0] = Om * (w @ q) - gamma(t)
        J[0, 1:] = Om * (m + 1.0) * w
        J[1:, 0] = C @ q
        J[1:, 1:] = B + (m + 1.0) * C
        return J

    y0 = np.zeros(w.size + 1)
    y0[1] = 1.0
    sol = solve_ivp(rhs, (times[0], times[-1]), y0, method="Radau", t_eval=times, jac=jac,
                    rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"the reduced cw model did not integrate: {sol.message}")
    return sol.y[0]
