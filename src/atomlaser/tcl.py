"""Time-convolutionless perturbative decay rates and frequency shifts.

Two independent routes to the rates live here on purpose:

* direct quadrature of the printed order-2 and order-4 integrands
  (`tcl2_rates`, `tcl4_rates`), and
* a series route (`tcl_series_rates`) that expands the exact amplitude in a
  Neumann series and reads the rates off the logarithmic derivative, which is
  the only practical generator of the order-6 terms (the closed-form order-6
  integrand is a five-fold integral of 45 terms and is not transcribed
  anywhere in this package).

Their agreement at orders 2 and 4 is the central correctness check of the
whole rate machinery and is enforced in the test suite; `tcl4_rates` can also
self-check its fast evaluation path against O(n^3) nested quadrature.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, NumericalFailure, ParameterError
from .quad import (
    SampledFunction,
    cumulative_integral,
    iterated_convolution,
    ordered_triple_direct,
    ordered_triple_factored,
    sample,
    shared_points_difference,
)

__all__ = [
    "RateSeries",
    "WaitingTime",
    "tcl2_rates",
    "tcl4_rates",
    "tcl_series_rates",
    "occupation_from_rates",
    "waiting_time",
    "asymptotic_gamma2",
    "series_breakdown_index",
]

BREAKDOWN_FLOOR = 0.1
# late grid times at which tcl4_rates(cross_validate=True) runs the nested rule
VALIDATE_POINTS = 3


@dataclass
class RateSeries:
    """Per-order decay rates gamma^(2k) and shifts S^(2k) on one grid."""

    grid: object
    gamma_by_order: dict
    S_by_order: dict
    order_max: int

    def __post_init__(self):
        if self.order_max not in (2, 4, 6):
            raise ParameterError(f"order_max must be 2, 4 or 6, got {self.order_max}")
        for order in range(2, self.order_max + 1, 2):
            if order not in self.gamma_by_order or order not in self.S_by_order:
                raise ParameterError(f"rate series is missing order {order}")

    def orders(self):
        return range(2, self.order_max + 1, 2)

    def total_gamma(self, order_max=None):
        """Summed decay rate through the requested (default: highest) order."""
        top = self.order_max if order_max is None else order_max
        if top > self.order_max or top not in (2, 4, 6):
            raise ParameterError(f"order {top} not available (have {self.order_max})")
        out = np.zeros(self.grid.n_points)
        for order in range(2, top + 1, 2):
            out = out + self.gamma_by_order[order]
        return SampledFunction(self.grid, out)


def tcl2_rates(params, grid):
    """Second-order rate and shift: running integrals of phi and psi."""
    gamma2 = cumulative_integral(sample(lambda t: model.phi(params, t), grid))
    s2 = cumulative_integral(sample(lambda t: model.psi(params, t), grid))
    return gamma2, s2


def _tcl4_from_tables(params, grid):
    phi_s = sample(lambda t: model.phi(params, t), grid)
    psi_s = sample(lambda t: model.psi(params, t), grid)

    def mid(a, b):
        return ordered_triple_factored(a, b, "outer-mid").values

    def late(a, b):
        return ordered_triple_factored(a, b, "outer-late").values

    gamma4 = 0.5 * (mid(phi_s, phi_s) + late(phi_s, phi_s)
                    - late(psi_s, psi_s) - mid(psi_s, psi_s))
    s4 = 0.5 * (mid(psi_s, phi_s) + mid(phi_s, psi_s)
                + late(psi_s, phi_s) + late(phi_s, psi_s))
    return (SampledFunction(grid, gamma4.real), SampledFunction(grid, s4.real),
            phi_s, psi_s)


def _tcl4_direct_value(phi_s, psi_s, t, dt):
    """O(n^3) nested-trapezoid value of (gamma4, S4) at one time."""
    grid = phi_s.grid

    def interp(arr, x):
        # x is always a grid difference of grid points, so this lookup is exact
        j = np.rint((x - grid.t0) / grid.dt).astype(int)
        return arr[j]

    pv, qv = phi_s.values, psi_s.values

    def g_gamma(t1, t2, t3):
        return (interp(pv, t - t2) * interp(pv, t1 - t3)
                + interp(pv, t - t3) * interp(pv, t1 - t2)
                - interp(qv, t - t3) * interp(qv, t1 - t2)
                - interp(qv, t - t2) * interp(qv, t1 - t3))

    def g_shift(t1, t2, t3):
        return (interp(qv, t - t2) * interp(pv, t1 - t3)
                + interp(pv, t - t2) * interp(qv, t1 - t3)
                + interp(qv, t - t3) * interp(pv, t1 - t2)
                + interp(pv, t - t3) * interp(qv, t1 - t2))

    return (0.5 * ordered_triple_direct(g_gamma, t, dt).real,
            0.5 * ordered_triple_direct(g_shift, t, dt).real)


def tcl4_rates(params, grid, cross_validate=False):
    """Fourth-order rate and shift curves.

    The printed integrands are ordered triple integrals whose terms couple the
    outer time either to the middle or to the last integration variable; both
    couplings factorize, so the default path evaluates the O(n^2) table form.
    With cross_validate=True the slow O(n^3) nested rule is evaluated at
    VALIDATE_POINTS late grid times and the two paths must agree within 10x
    a grid-halving error estimate, else NumericalFailure.
    """
    gamma4, s4, phi_s, psi_s = _tcl4_from_tables(params, grid)
    if cross_validate:
        n = grid.n_points
        idx = np.unique(np.linspace(n // 2, n - 1, VALIDATE_POINTS, dtype=int))
        # halving estimate for the fast path, on shared coarse points
        coarse_g4, coarse_s4, _, _ = _tcl4_from_tables(params, grid.coarsened())
        est_g = shared_points_difference(gamma4.values, coarse_g4.values)
        est_s = shared_points_difference(s4.values, coarse_s4.values)
        ts = grid.times()
        for j in idx:
            direct_g, direct_s = _tcl4_direct_value(phi_s, psi_s, ts[j], grid.dt)
            if abs(direct_g - gamma4.values[j]) > 10.0 * max(est_g, 1e-300):
                raise NumericalFailure(
                    f"fourth-order rate paths disagree at t = {ts[j]:.6e}: "
                    f"table {gamma4.values[j]:.6e} vs nested {direct_g:.6e} "
                    f"(allowed {10.0 * est_g:.2e})"
                )
            if abs(direct_s - s4.values[j]) > 10.0 * max(est_s, 1e-300):
                raise NumericalFailure(
                    f"fourth-order shift paths disagree at t = {ts[j]:.6e}: "
                    f"table {s4.values[j]:.6e} vs nested {direct_s:.6e} "
                    f"(allowed {10.0 * est_s:.2e})"
                )
    return gamma4, s4


def tcl_series_rates(params, grid, order_max=6):
    """Rates of orders 2, 4, 6 from the Neumann expansion of the amplitude.

    The exact amplitude solves u = 1 - K[u] with K the memory-integral
    operator built on conj(f); iterating gives u = sum_m (-1)^m u_m with
    u_m containing exactly m kernel factors (so u_m scales as Gamma^m).
    The logarithmic derivative udot/u is then divided out order by order:

        q_1 = D_1
        q_2 = D_2 - q_1 U_1
        q_3 = D_3 - q_1 U_2 - q_2 U_1

    with U_m = (-1)^m u_m and D_m = (-1)^m du_m/dt. The decay rate and shift
    of order 2k are Re and -Im of g_k = -2 q_k. Division by the amplitude
    series cannot break down: its leading coefficient is identically 1.
    """
    if order_max not in (2, 4, 6):
        raise ParameterError(f"order_max must be 2, 4 or 6, got {order_max}")
    m_max = order_max // 2
    kernel = sample(lambda t: np.conj(model.correlation_f(params, t)), grid)
    u_terms = [SampledFunction(grid, np.ones(grid.n_points, dtype=complex))]
    d_terms = []
    for _ in range(m_max):
        d = iterated_convolution(kernel, u_terms[-1])
        d_terms.append(d.values)
        u_terms.append(cumulative_integral(d))
    U = [((-1) ** m) * u_terms[m].values for m in range(m_max + 1)]
    D = [((-1) ** (m + 1)) * d_terms[m] for m in range(m_max)]
    q = [D[0]]
    if m_max >= 2:
        q.append(D[1] - q[0] * U[1])
    if m_max >= 3:
        q.append(D[2] - q[0] * U[2] - q[1] * U[1])
    gamma_by_order, s_by_order = {}, {}
    for k, qk in enumerate(q, start=1):
        g = -2.0 * qk
        gamma_by_order[2 * k] = g.real
        s_by_order[2 * k] = -g.imag
    return RateSeries(grid, gamma_by_order, s_by_order, order_max)


def occupation_from_rates(rates, order_max=None):
    """n(t) = exp(-int_0^t gamma), gamma summed through order_max."""
    total = rates.total_gamma(order_max)
    return SampledFunction(rates.grid, np.exp(-cumulative_integral(total).values))


@dataclass
class WaitingTime:
    """F(t) = 1 - n(t), the probability that the atom has left by time t.

    The waiting-time reading needs F non-decreasing; decreasing stretches are
    legitimate non-Markovian dynamics (negative rate) but void that reading,
    so they are flagged rather than raised.
    """

    F: SampledFunction
    decreasing_steps: np.ndarray
    monotone: bool


def waiting_time(n):
    if abs(n.values[0] - 1.0) > 1e-9:
        raise ParameterError("occupation must start at 1")
    F = SampledFunction(n.grid, 1.0 - n.values)
    dec = np.diff(F.values) < -1e-12
    return WaitingTime(F, dec, not bool(dec.any()))


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


def series_breakdown_index(rates):
    """First grid index where the expansion stops behaving asymptotically.

    The per-order rates oscillate through zero, so pointwise magnitude
    comparisons misfire at every crossing; the cumulative exponents
    W_2k(t) = int_0^t gamma^(2k) integrate that noise out. Breakdown is
    declared where the highest-order exponent both overtakes everything the
    next-lower order has contributed so far and changes the total exponent
    materially (more than BREAKDOWN_FLOOR of the leading-order part). At
    marginal coupling the corrections interleave while staying small, which
    this deliberately does not flag. Returns None if the hierarchy holds on
    the whole grid.
    """
    if rates.order_max < 4:
        return None
    W = {
        order: cumulative_integral(
            SampledFunction(rates.grid, rates.gamma_by_order[order])).values
        for order in (2, rates.order_max - 2, rates.order_max)
    }
    hi = np.abs(W[rates.order_max])
    lo = np.maximum.accumulate(np.abs(W[rates.order_max - 2]))
    scale = np.maximum.accumulate(np.abs(W[2]))
    bad = (hi > lo) & (hi > BREAKDOWN_FLOOR * np.maximum(scale, 1e-300))
    hits = np.nonzero(bad)[0]
    return int(hits[0]) if hits.size else None
