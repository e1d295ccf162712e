"""Reference solutions reached by another road than the production solvers:
the pulsed amplitude from the Laplace domain, the TCL rates by direct
quadrature of their printed integrands, the paper's closed forms that the
acceptance criteria compare against (spectral density, waiting time, the
asymptotic order-2 rate, the factorized cw steady state), the cw lasing mode
solved exactly in the linear-gain limit, a reduced cw laser with the
lasing mode as a mean field, and the cw channels built literally from
ladder operators; plus the cw generator as a sparse matrix, which no run
forms but the tests hold the solvers against.

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

The quadrature route writes the order-2 rate and shift as running integrals
of phi = 2 Re f and psi = 2 Im f, and the order-4 ones as ordered triple
integrals over t >= t1 >= t2 >= t3 >= 0 whose terms couple the outer time to
the middle or to the last variable. Both couplings factorize into running
integral tables, O(n^2) per curve (tcl4_rates); the nested trapezoid rule
checks the tables at single times in O(n^3) (tcl4_nested). The series route
of atomlaser.tcl must match both orders within the halving error.

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

linear_gain_n0 is the cw model's mode 0 in the limit of a fast pump
(kappa1 >> gamma_M) and weak collisions: n1 then stays thermal, and mode 0
sees the Markov gain g = Omega <n1 (n1 - 1)> = 2 Omega N^2 through the jump
a0^dag, plus the exact output memory. Its equations are linear, so the
pulsed solver gives <n0(t)> exactly; the cw orders are compared with it.

build_generator is the cw rate matrix G = static + gamma out (+ Re r oc
at order 4) at given weights, the CSR view of atomlaser.cw's template
diagonals combined as a run combines them, with its leak vector: the
matrix the tests hold the stepper and the stationary solve against.
verify_diagonal_closure rebuilds every cw channel literally from ladder
operators on a 4 x 4 box and checks that it maps diagonal states to
diagonal states, that the frequency shift drops out there, and that the
templates agree with the operator algebra on the interior columns: the
closure on which the cw model's (n0, n1) populations rest.

channel_operators views the cw generator's parts (static, out, oc) as
sparse matrices, one per channel group, each by its own DIA-to-CSR
conversion. Summed at a run's weights, they must give, byte for byte,
build_generator's matrix.

stationary_full_storage is the cw stationary solve as it was before its
level reduction kept only checkpoints: every R_k held from the way down to
the way up, and the level blocks filled by fancy indexing. It makes the
same numpy calls on the same arrays, so its p is bit for bit the
checkpointed solve's.

serial_banded_evolve steps the full cw model at order 2 or 4 as
atomlaser.cw.evolve does, but one step after the other, with one
scipy.linalg.solve_banded (LAPACK gbsv) per implicit solve: no factor is
computed ahead of its step, and none by atomlaser's own LAPACK calls.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad, solve_ivp
from scipy.linalg import solve_banded
from scipy.optimize import brentq
from scipy.special import wofz

from atomlaser import DomainError, GeneratorError, ParameterError, cw, model, tcl, volterra
from atomlaser.quad import (SampledFunction, UniformGrid, cumulative_integral, grid_for,
                            iterated_convolution)

TALBOT_NODES = 32
# verify_diagonal_closure checks the cw templates on the (CLOSURE_N, CLOSURE_N) box
CLOSURE_N = 3


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
# Quadrature routes: the coupling amplitude, the Markov constants and the
# order-2/4 TCL rates


def coupling_kappa(params, k):
    """Momentum-space coupling amplitude at wavenumber k (purely imaginary),
    a Gaussian centred on k = 0."""
    k = np.asarray(k, dtype=float)
    norm = (2.0 * np.pi * params.sigma_k**2) ** -0.25
    amp = np.sqrt(params.Gamma) * norm * np.exp(-(k**2) / (4.0 * params.sigma_k**2))
    return 1j * amp


def phi(params, tau):
    """Real quadrature of the memory kernel, phi = 2 Re f."""
    return 2.0 * model.correlation_f(params, tau).real


def psi(params, tau):
    """Imaginary quadrature of the memory kernel, psi = 2 Im f."""
    return 2.0 * model.correlation_f(params, tau).imag


def markov_constants_by_quadrature(params):
    """(gamma_M, S_M) = 2 integral_0^inf (Re f, Im f) dtau by QUADPACK's QAWF.

    With A + i B = (1 + i alpha tau)^(-1/2), Re f = Gamma (A cos - B sin) and
    Im f = Gamma (A sin + B cos) at omega0 tau: Fourier integrals of the
    non-oscillating A and B, which QAWF sums cycle by cycle.
    """
    def part(take, weight):
        return quad(lambda t: take(1.0 / np.sqrt(1.0 + 1j * params.alpha * t)), 0.0, np.inf,
                    weight=weight, wvar=params.omega0, limlst=200)[0]

    a_cos, a_sin = part(np.real, "cos"), part(np.real, "sin")
    b_cos, b_sin = part(np.imag, "cos"), part(np.imag, "sin")
    return 2.0 * params.Gamma * (a_cos - b_sin), 2.0 * params.Gamma * (a_sin + b_cos)


def markov_constants_by_laplace(params):
    """(gamma_M - i S_M) / 2 = Gamma F(i omega0), the kernel's transform at s = 0."""
    return params.Gamma * _f_and_slope(1j * params.omega0, -1j * params.alpha)[0]


def spectral_density(params, omega):
    """Reservoir spectral density J(omega) = Gamma exp(-omega/alpha)/sqrt(pi alpha omega).

    Defined for omega > 0 only; the inverse-square-root divergence at zero is
    integrable but never evaluated.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise DomainError("spectral density is defined for omega > 0 only")
    a = params.alpha
    return params.Gamma * np.exp(-omega / a) / np.sqrt(np.pi * a * omega)


def sample(func, grid):
    """Evaluate a callable on the grid and wrap it."""
    return SampledFunction(grid, np.asarray(func(grid.times())))


def ordered_triple_direct(g, t, dt):
    """Direct nested-trapezoid evaluation of
    integral_0^t dt1 integral_0^t1 dt2 integral_0^t2 dt3 g(t1, t2, t3).

    g receives (t1, t2, t3_array) with t3_array vectorized. O(n^3) work.
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

    Reducing the inner integrals to running-integral tables makes the whole
    curve O(n^2) instead of O(n^4):

        outer-mid:  F_a(t) F2_b(t) - (a * F2_b)(t) - int_0^t a F2_b
        outer-late: F_a(t) F2_b(t) - int_0^t F_a F_b

    with F the running integral, F2 the doubly-running integral and * the
    convolution. Returns an array on the shared grid.
    """
    dt = a.grid.dt
    fa = cumulative_integral(a.values, dt)
    fb = cumulative_integral(b.values, dt)
    f2b = cumulative_integral(fb, dt)
    if pairing == "outer-mid":
        return fa * f2b - iterated_convolution(a, f2b) - cumulative_integral(a.values * f2b, dt)
    if pairing == "outer-late":
        return fa * f2b - cumulative_integral(fa * fb, dt)
    raise ParameterError(f"unknown pairing {pairing!r}")


def tcl2_rates(params, grid):
    """Second-order rate and shift: running integrals of phi and psi."""
    t = grid.times()
    gamma2 = cumulative_integral(phi(params, t), grid.dt)
    s2 = cumulative_integral(psi(params, t), grid.dt)
    return gamma2, s2


def tcl4_rates(params, grid):
    """Fourth-order rate and shift curves from the running-integral tables."""
    phi_s = sample(lambda t: phi(params, t), grid)
    psi_s = sample(lambda t: psi(params, t), grid)

    def mid(a, b):
        return ordered_triple_factored(a, b, "outer-mid")

    def late(a, b):
        return ordered_triple_factored(a, b, "outer-late")

    gamma4 = 0.5 * (mid(phi_s, phi_s) + late(phi_s, phi_s)
                    - late(psi_s, psi_s) - mid(psi_s, psi_s))
    s4 = 0.5 * (mid(psi_s, phi_s) + mid(phi_s, psi_s)
                + late(psi_s, phi_s) + late(phi_s, psi_s))
    return gamma4, s4


def tcl4_nested(params, t, dt):
    """(gamma4, S4) at time t by the O(n^3) nested trapezoid rule.

    With phi = 2 Re f and psi = 2 Im f the printed integrands are 4 Re and
    4 Im of f(t - t2) f(t1 - t3) + f(t - t3) f(t1 - t2), and the rates carry
    a factor 1/2.
    """
    def f(tau):
        return model.correlation_f(params, tau)

    total = ordered_triple_direct(
        lambda t1, t2, t3: f(t - t2) * f(t1 - t3) + f(t - t3) * f(t1 - t2), t, dt)
    return 2.0 * total.real, 2.0 * total.imag


# ---------------------------------------------------------------------------
# Closed forms the acceptance criteria compare against


@dataclass
class WaitingTime:
    """F(t) = 1 - n(t), the probability that the atom has left by time t.

    The waiting-time reading needs F non-decreasing; decreasing stretches are
    legitimate non-Markovian dynamics (negative rate) but void that reading,
    so they are flagged rather than raised.
    """

    F: np.ndarray
    decreasing_steps: np.ndarray  # the reading holds when none is set


def waiting_time(n):
    if abs(n[0] - 1.0) > 1e-9:
        raise ParameterError("occupation must start at 1")
    F = 1.0 - n
    return WaitingTime(F, np.diff(F) < -1e-12)


def asymptotic_gamma2(params, t):
    """Large-time closed form of the second-order rate:

        gamma_M - 2 Gamma cos(omega0 t + pi/4) / sqrt(alpha omega0^2 t)

    Valid for omega0 t >> 1; refuses omega0 t < 10 and warns below 30.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("asymptotic form needs t > 0")
    w0t = params.omega0 * t
    if np.any(w0t < 10.0):
        raise DomainError("asymptotic form is unreliable below omega0 t = 10")
    if np.any(w0t < 30.0):
        warnings.warn("asymptotic rate requested at omega0 t < 30; expect visible error",
                      stacklevel=2)
    gm = model.gamma_markov_closed_form(params)
    a = params.alpha
    env = 2.0 * params.Gamma / np.sqrt(a * params.omega0**2 * t)
    return gm - env * np.cos(params.omega0 * t + np.pi / 4.0)


def steady_state_markov(params):
    """Closed-form factorized estimate of the stationary condensate occupation
    of the cw.CwParams params,

        kappa1/(2 gamma_M) (N - 1/2 - sqrt(1/4 + gamma_M/Omega)).

    Derived from the moment balance with factorized correlations; exact
    numerics on the truncated space sit a few percent above it.
    """
    gm = model.gamma_markov_closed_form(params.trap)
    if gm <= 0:
        raise ParameterError("steady state needs gamma_M > 0")
    if params.Omega <= 0:
        raise ParameterError("the closed form needs Omega > 0 (collisional feeding)")
    return params.kappa1 / (2.0 * gm) * (params.N - 0.5 - np.sqrt(0.25 + gm / params.Omega))


# ---------------------------------------------------------------------------
# The cw laser in the linear-gain limit, exactly


def linear_gain_n0(trap, g, grid, n0_init=0.0):
    """<n0(t)> on grid of mode 0 with the Markov gain g and the exact output
    memory, from <n0(0)> = n0_init.

    The Heisenberg equations of the mode are then linear:
    dv/dt = (g/2) v - integral_0^t k(t - s) v(s) ds, v(0) = 1, with k the
    memory kernel conj f, and <n0(t)> = n0_init |v|^2 + g integral_0^t |v|^2.
    v = exp(g t/2) w turns this into the pulsed equation for w with the
    tilted kernel k(tau) exp(-g tau/2): one volterra.solve_volterra call.
    """
    t = grid.times()
    kernel = volterra.memory_kernel(trap, grid)
    tilted = SampledFunction(grid, kernel.values * np.exp(-0.5 * g * t))
    w = volterra.solve_volterra(tilted, max_growth=1.0 + volterra.SANITY_TOL)
    v2 = np.exp(g * t) * np.abs(w) ** 2
    return n0_init * v2 + g * cumulative_integral(v2, grid.dt)


def inner_r_function(params, kernel):
    """The cross-term weight with the inner time as reference,
    Omega int_0^t dt1 int_0^t1 dt2 f(t1 - t2), where cw.r_function reads the
    outer one: the reading that diverges in the linear-gain limit."""
    F = cumulative_integral(np.conj(kernel.values), kernel.grid.dt)
    return params.Omega * cumulative_integral(F, kernel.grid.dt)


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


# The cw generator at given weights, and its closure probe on a tiny box


class GeneratorAt(NamedTuple):
    matrix: object  # scipy.sparse CSR matrix
    leak: np.ndarray


def _combined(tpl, gamma, rr):
    """Diagonals and leak vector of G = static + gamma out + rr oc of the cw
    templates tpl, combined in place in one new array."""
    d_static, d_out, d_oc = tpl.diags
    d = gamma * d_out
    d += d_static
    leak = tpl.leak_static.copy()
    if rr != 0.0:
        d += rr * d_oc
        leak += rr * tpl.leak_oc
    return d, leak


def generator_diagonals(params, gamma=None, r=0j):
    """(diagonals, shifts, leak) of G at the output rate gamma and the cross
    weight r; see build_generator."""
    if gamma is None:
        if params.order != "markov":
            raise ParameterError(f"order {params.order} needs its output rate gamma")
        gamma = model.gamma_markov_closed_form(params.trap)
    tpl = cw._templates_for(params)
    rr = complex(r).real if params.order == 4 else 0.0
    d, leak = _combined(tpl, gamma, rr)
    return d, tpl.shifts, leak


def build_generator(params, gamma=None, r=0j):
    """Rate matrix G of the cw model on the flattened diagonal space, with
    its leak vector.

    gamma is the output rate (default: the markov gamma_M, the only choice
    at order "markov") and r the cross-term weight, used at order 4 only.
    G is the CSR view (cw._csr) of the template diagonals combined at
    (gamma, Re r), whose column sums plus the leak vanish because those of
    each template part do (cw._check_balance).
    """
    d, shifts, leak = generator_diagonals(params, gamma, r)
    return GeneratorAt(cw._csr(d, shifts), leak)


def _dense_ladder(nmax):
    return np.diag(np.sqrt(np.arange(1.0, nmax + 1)), 1)


def _dense_channel_columns(n0c, n1c, kappa1, N, Omega, gamma, shift, r):
    """Diagonal action of every superoperator, built literally from operators.

    Applies each channel to the full basis of diagonal projectors and records
    (columns, worst off-diagonal leakage). This is the reference the fast
    index-arithmetic templates are checked against.
    """
    d0, d1 = n0c + 1, n1c + 1
    a0 = np.kron(_dense_ladder(n0c), np.eye(d1))
    a1 = np.kron(np.eye(d0), _dense_ladder(n1c))
    a0d, a1d = a0.T, a1.T
    n0op = a0d @ a0
    A2 = a1 @ a1          # a1^2
    A2d = a1d @ a1d       # a1^dag 2
    C = a0d @ A2          # collision jump operator

    def lin(R):
        return (N * kappa1 * (a1d @ R @ a1 - 0.5 * (a1 @ a1d @ R + R @ a1 @ a1d))
                + (1.0 + N) * kappa1 * (a1 @ R @ a1d - 0.5 * (a1d @ a1 @ R + R @ a1d @ a1)))

    def lcoll(R):
        return Omega * (C @ R @ C.T - 0.5 * (C.T @ C @ R + R @ C.T @ C))

    def lout(R):
        return gamma * (a0 @ R @ a0d - 0.5 * (n0op @ R + R @ n0op))

    def l0(R):
        return -0.5j * shift * (n0op @ R - R @ n0op)

    def loc(R):
        rc = np.conj(r)
        return (r * (a0d @ A2 @ R @ a0 @ A2d - A2 @ R @ a0 @ a0d @ A2d)
                + rc * (a0d @ A2 @ R @ a0 @ A2d - a0 @ a0d @ A2 @ R @ A2d)
                + 0.5 * r * (a0 @ A2d @ A2 @ R @ a0d - a0d @ a0 @ A2d @ A2 @ R)
                + 0.5 * rc * (a0 @ R @ a0d @ A2d @ A2 - R @ a0d @ a0 @ A2d @ A2))

    dim = d0 * d1
    channels = {}
    worst_offdiag = 0.0
    for name, L in (("in", lin), ("coll", lcoll), ("out", lout), ("l0", l0), ("oc", loc)):
        cols = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            R = np.zeros((dim, dim))
            R[j, j] = 1.0
            LR = L(R)
            off = LR - np.diag(np.diag(LR))
            worst_offdiag = max(worst_offdiag, float(np.abs(off).max()))
            cols[:, j] = np.diag(LR)
        channels[name] = cols
    return channels, worst_offdiag


def verify_diagonal_closure(params):
    """Check of the cw generator assembly on the (CLOSURE_N, CLOSURE_N) box.

    Checks, with generic probe values for the run-time weights, that
    (a) every channel maps diagonal projectors to diagonal projectors,
    (b) the frequency-shift commutator acts as zero there, and
    (c) the index-arithmetic templates agree with the literal operator
        algebra on all interior columns.
    Raises GeneratorError on any failure.
    """
    gamma_p, shift_p, r_p = 0.7, 1.3, 0.4 - 0.9j
    channels, worst = _dense_channel_columns(
        CLOSURE_N, CLOSURE_N, params.kappa1, params.N, params.Omega, gamma_p, shift_p, r_p
    )
    scale = max(params.kappa1 * (1 + params.N), params.Omega) * (CLOSURE_N + 1) ** 3
    if not (worst <= 1e-12 * scale):
        raise GeneratorError(
            f"a channel leaks off the diagonal (worst element {worst:.3e}); "
            "the diagonal closure of the master equation is broken"
        )
    if not (np.abs(channels["l0"]).max() <= 1e-12 * scale):
        raise GeneratorError("the frequency-shift term acts on the diagonal; it must not")
    dense = (channels["in"] + channels["coll"] + channels["out"] + channels["oc"]).real
    imag_part = np.abs(channels["oc"].imag).max()
    if not (imag_part <= 1e-10 * scale):
        raise GeneratorError(f"cross-term diagonal action is not real (max imag {imag_part:.3e})")
    tpl = cw._templates(CLOSURE_N, CLOSURE_N, params.kappa1, params.N, params.Omega)
    d, _ = _combined(tpl, gamma_p, r_p.real)
    # G[j + s, j] = d[k, j] at shift s = shifts[k], numpy's diagonal -s
    G = sum(np.diag(vals[max(0, -s):vals.size - max(0, s)], -s)
            for s, vals in zip(tpl.shifts.tolist(), d))
    n1p = CLOSURE_N + 1
    interior = [a * n1p + b for a in range(CLOSURE_N) for b in range(CLOSURE_N)]
    diff = np.abs(G[:, interior] - dense[:, interior]).max()
    if not (diff <= 1e-10 * scale):
        raise GeneratorError(
            f"template generator deviates from the operator algebra by {diff:.3e}"
        )
    return True


# The cw generator's parts as sparse matrices


def channel_operators(tpl):
    """(static, out, oc) of the cw templates tpl as scipy.sparse CSR
    matrices, each built from its diagonals by one DIA-to-CSR conversion."""
    dim = tpl.diags.shape[-1]
    return tuple(sp.dia_matrix((d, -tpl.shifts), shape=(dim, dim)).tocsr() for d in tpl.diags)


# The cw stationary solve keeping every level factor


def _level_blocks_indexed(d, shifts, k, n1p):
    """cw._level_blocks, each slab entry written by fancy indexing."""
    a = np.arange(n1p)
    slab = np.zeros((n1p, 3 * n1p))
    for s, vals in zip(shifts, d):
        j = k * n1p + a - s
        inside = (j >= 0) & (j < d.shape[1])
        slab[a[inside], n1p - s + a[inside]] = vals[j[inside]]
    return slab[:, :n1p], slab[:, n1p:2 * n1p], slab[:, 2 * n1p:]


def stationary_full_storage(params):
    """p[n0, n1] of cw.stationary_distribution, normalized, from the level
    reduction with all n0_max factors R_k kept."""
    d, shifts, _ = generator_diagonals(params)
    levels, n1p = params.n0_max + 1, params.n1_max + 1
    R = [None] * levels
    c = np.ones(n1p)
    below, S, _ = _level_blocks_indexed(d, shifts, levels - 1, n1p)
    for k in range(levels - 1, 0, -1):
        R[k] = -np.linalg.solve(S, below)
        c = 1.0 + c @ R[k]
        below, diag, above = _level_blocks_indexed(d, shifts, k - 1, n1p)
        S = diag + above @ R[k]
    S[0] = c
    p = np.empty((levels, n1p))
    p[0] = np.linalg.solve(S, np.eye(1, n1p)[0])
    for k in range(1, levels):
        p[k] = R[k] @ p[k - 1]
    p = p.ravel()
    return (p / p.sum()).reshape(levels, n1p)


# The cw stepper, serial, with scipy's banded solver


def serial_banded_evolve(params, p0, t_max, dt):
    """(mean_n0, mean_n1, prob_sum, min_p, clipped_flux, final p) of
    cw.evolve at order 2 or 4, each solve of I - (dt/2) G(t) a
    solve_banded call made at its step. Every other operation is evolve's,
    in evolve's order, so the result is bit for bit evolve's."""
    tpl = cw._templates_for(params)
    n_steps = grid_for(t_max, dt).n_points - 1
    kernel = volterra.memory_kernel(params.trap, UniformGrid(0.5 * dt, 2 * n_steps + 1))
    gamma = tcl.tcl_series_rates(kernel, params.order).total_gamma()
    rr = np.zeros(gamma.size)
    if params.order == 4:
        rr = cw.r_function(params, kernel).real
    lower, upper = tpl.shifts[-1], -tpl.shifts[0]
    d_static, d_out, d_oc = tpl.diags
    h = 0.5 * dt

    def solve(k, b):
        band = (tpl.shifts == 0)[:, None] - h * (d_static + gamma[k] * d_out)
        if rr[k] != 0.0:
            band -= h * rr[k] * d_oc
        ab = np.zeros((lower + upper + 1, b.size))
        ab[upper + tpl.shifts] = band
        return solve_banded((lower, upper), ab, b)

    static, out, oc = channel_operators(tpl)

    def rhs(k, vec):
        y = static @ vec + gamma[k] * (out @ vec)
        if rr[k] != 0.0:
            y += rr[k] * (oc @ vec)
        return y

    def leak(k, vec):
        val = tpl.leak_static @ vec
        if rr[k] != 0.0:
            val += rr[k] * (tpl.leak_oc @ vec)
        return float(val)

    p = np.asarray(p0.p, dtype=float).ravel().copy()
    n1p = params.n1_max + 1
    n0_of = (np.arange(p.size) // n1p).astype(float)
    n1_of = (np.arange(p.size) % n1p).astype(float)
    rows, clip = [], 0.0
    for j in range(n_steps + 1):
        if j > 0 and j <= cw.RANNACHER_STEPS:
            p = solve(2 * j - 1, p)
            clip += h * leak(2 * j - 1, p)
            p = solve(2 * j, p)
            end = leak(2 * j, p)
            clip += h * end
        elif j > 0:
            p_new = solve(2 * j, p + h * rhs(2 * j - 2, p))
            start, end = end, leak(2 * j, p_new)
            clip += h * (start + end)
            p = p_new
        rows.append((n0_of @ p, n1_of @ p, p.sum(), p.min(), clip))
    return (*np.array(rows).T, p)
