"""Time-convolutionless perturbative decay rates and frequency shifts.

A run computes the rates of orders 2, 4 and 6 one way: `tcl_series_rates`
expands the exact amplitude in a Neumann series and reads the rates off its
logarithmic derivative. That is the only practical generator of the order-6
terms; the closed-form order-6 integrand is a five-fold integral of 45 terms
and is transcribed nowhere.

The series route is checked against a second one that lives with the tests
(`tests/reference.py`): direct quadrature of the printed order-2 and order-4
integrands. Their agreement within the grid-halving error at orders 2 and 4
is the central correctness check of the rate machinery.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ParameterError
from .quad import cumulative_integral, iterated_convolution

__all__ = [
    "RateSeries",
    "tcl_series_rates",
    "occupation_from_rates",
    "series_breakdown_index",
]

BREAKDOWN_FLOOR = 0.1


def _is_order(order, top=6):
    """An integer 2, 4 or 6 up to top: 4.0 == 4, but range() takes no float."""
    return isinstance(order, (int, np.integer)) and order in range(2, top + 1, 2)


@dataclass
class RateSeries:
    """Per-order decay rates gamma^(2k) and shifts S^(2k) on one grid."""

    grid: object
    gamma_by_order: dict
    S_by_order: dict
    order_max: int

    def __post_init__(self):
        if not _is_order(self.order_max):
            raise ParameterError(f"order_max must be 2, 4 or 6, got {self.order_max!r}")
        for order in range(2, self.order_max + 1, 2):
            if order not in self.gamma_by_order or order not in self.S_by_order:
                raise ParameterError(f"rate series is missing order {order}")

    def orders(self):
        return range(2, self.order_max + 1, 2)

    def total_gamma(self, order_max=None):
        """Summed decay rate through the requested (default: highest) order."""
        top = self.order_max if order_max is None else order_max
        if not _is_order(top, self.order_max):
            raise ParameterError(f"order {top!r} not available (have {self.order_max})")
        out = np.zeros(self.grid.n_points)
        for order in range(2, top + 1, 2):
            out = out + self.gamma_by_order[order]
        return out


def tcl_series_rates(kernel, order_max=6):
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

    kernel is volterra.memory_kernel(params, grid), and the rates live on its
    grid; every term reads its one spectrum. A pulsed run hands the same
    kernel to the exact solve, a cw run to cw.r_function.
    """
    if not _is_order(order_max):
        raise ParameterError(f"order_max must be 2, 4 or 6, got {order_max!r}")
    m_max = order_max // 2
    grid = kernel.grid
    u_terms = [np.ones(grid.n_points, dtype=complex)]
    d_terms = []
    for m in range(m_max):
        d_terms.append(iterated_convolution(kernel, u_terms[-1]))
        if m + 1 < m_max:  # q_k reads U_1 .. U_{m_max - 1}
            u_terms.append(cumulative_integral(d_terms[-1], grid.dt))
    U = [((-1) ** m) * u_terms[m] for m in range(m_max)]
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
    """n(t) = exp(-int_0^t gamma), gamma summed through order_max.

    NumericalFailure names the order and the first time where a diverging
    series takes exp(-int gamma) beyond the float range.
    """
    order = rates.order_max if order_max is None else order_max
    exponent = -cumulative_integral(rates.total_gamma(order), rates.grid.dt)
    with np.errstate(over="ignore"):
        n = np.exp(exponent)
    if not np.all(np.isfinite(n)):
        j = int(np.argmin(np.isfinite(n)))
        raise NumericalFailure(
            f"order-{order} TCL occupation exp({exponent[j]:.3e}) leaves the float range "
            f"at t = {rates.grid.times()[j]:.6e} s; the series diverges on this horizon")
    return n


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
    W = {order: cumulative_integral(rates.gamma_by_order[order], rates.grid.dt)
         for order in {2, rates.order_max - 2, rates.order_max}}
    hi = np.abs(W[rates.order_max])
    lo = np.maximum.accumulate(np.abs(W[rates.order_max - 2]))
    scale = np.maximum.accumulate(np.abs(W[2]))
    bad = (hi > lo) & (hi > BREAKDOWN_FLOOR * np.maximum(scale, 1e-300))
    hits = np.nonzero(bad)[0]
    return int(hits[0]) if hits.size else None
