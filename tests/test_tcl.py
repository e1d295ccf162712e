"""Perturbative time-local rates: series route vs direct quadrature, plus
constant-kernel closed forms, the large-time asymptote, and breakdown flags."""

import numpy as np
import pytest

from atomlaser import DomainError, ParameterError, model, tcl, volterra
from atomlaser.quad import UniformGrid, cumulative_integral, next_fast_len
from atomlaser.tcl import RateSeries

from conftest import OMEGA0, amplitude, halving_difference, series_rates, trap
from reference import asymptotic_gamma2, tcl2_rates, tcl4_nested, tcl4_rates, waiting_time

GAMMA_M_5E4 = 92.62263163409446


def _grid(t_max, dt):
    return UniformGrid(dt, int(round(t_max / dt)) + 1)


# ---------------------------------------------------------------------------
# route agreement


def test_order2_series_equals_quadrature():
    p = trap(5e4)
    g = _grid(0.03, 1e-5)
    gamma2, s2 = tcl2_rates(p, g)
    series = series_rates(p, g, order_max=2)
    np.testing.assert_allclose(series.gamma_by_order[2], gamma2,
                               rtol=1e-10, atol=1e-8)
    np.testing.assert_allclose(series.S_by_order[2], s2,
                               rtol=1e-10, atol=1e-8)


def test_order4_series_matches_quadrature_within_grid_error():
    p = trap(5e4)
    g = _grid(0.03, 1e-5)

    def by_tables(grid):
        return tcl4_rates(p, grid)[0]

    def by_series(grid):
        return series_rates(p, grid, 4).gamma_by_order[4]

    est = halving_difference(by_tables, g) + halving_difference(by_series, g)
    diff = np.max(np.abs(by_tables(g) - by_series(g)))
    assert diff <= est


def test_order4_shift_routes_agree():
    p = trap(5e4)
    g = _grid(0.03, 1e-5)

    def by_tables(grid):
        return tcl4_rates(p, grid)[1]

    def by_series(grid):
        return series_rates(p, grid, 4).S_by_order[4]

    est = halving_difference(by_tables, g) + halving_difference(by_series, g)
    diff = np.max(np.abs(by_tables(g) - by_series(g)))
    assert diff <= est


def test_tcl4_cross_validation_path():
    # the O(n^3) nested rule agrees with the table route at three late grid
    # times, within 10x the table route's halving estimate
    p = trap(5e4)
    g = _grid(8e-3, 1e-4)
    gamma4, s4 = tcl4_rates(p, g)
    est_g = halving_difference(lambda grid: tcl4_rates(p, grid)[0], g)
    est_s = halving_difference(lambda grid: tcl4_rates(p, grid)[1], g)
    n, ts = g.n_points, g.times()
    for j in np.unique(np.linspace(n // 2, n - 1, 3, dtype=int)):
        nested_g, nested_s = tcl4_nested(p, ts[j], g.dt)
        assert abs(nested_g - gamma4[j]) <= 10.0 * est_g
        assert abs(nested_s - s4[j]) <= 10.0 * est_s


def _series_rates_per_term(params, grid, order_max):
    """(gamma, S) by order, from the Neumann loop that transforms the kernel
    afresh for every term: tcl_series_rates before it read one stored
    kernel spectrum."""
    k = np.conj(model.correlation_f(params, grid.times()))
    dt = grid.dt
    size = next_fast_len(2 * k.size - 1)
    u_terms = [np.ones(grid.n_points, dtype=complex)]
    d_terms = []
    for _ in range(order_max // 2):
        u = u_terms[-1]
        full = np.fft.ifft(np.fft.fft(k, size) * np.fft.fft(u, size), size)[: k.size]
        d = dt * (full - 0.5 * k[0] * u - 0.5 * k * u[0])
        d[0] = 0.0
        d_terms.append(d)
        u_terms.append(cumulative_integral(d, dt))
    U = [((-1) ** m) * u_terms[m] for m in range(len(u_terms))]
    D = [((-1) ** (m + 1)) * d_terms[m] for m in range(len(d_terms))]
    q = [D[0]]
    if order_max >= 4:
        q.append(D[1] - q[0] * U[1])
    if order_max >= 6:
        q.append(D[2] - q[0] * U[2] - q[1] * U[1])
    return {2 * k: (-2.0 * qk.real, 2.0 * qk.imag) for k, qk in enumerate(q, start=1)}


@pytest.mark.parametrize("order_max", [2, 4, 6])
@pytest.mark.parametrize("grid_name", ["fig2", "fig4 dt/2", "cw 21", "cw 41", "fig7 half"])
def test_series_rates_bit_identical_to_per_term_loop(order_max, grid_name):
    # cw's gamma(t) comes from tcl_series_rates, so sharing the kernel
    # spectrum must not move a bit of it.
    # fig4 at dt/2 transforms 21,609 points: from 256 KiB on, `a * b` with a
    # temporary b reuses b and swaps the operands of the complex product
    # (Gamma, horizon in units of 1/gamma_M, steps); the cw grids are the
    # half-step grids of fig7 and of its 0.1/gamma_M cut and dt/2 rerun
    Gamma, t_max, n_steps = {"fig2": (5e4, 4.0, 4000), "fig4 dt/2": (1e6, 10.0, 10800),
                             "cw 21": (5e4, 0.1, 20), "cw 41": (5e4, 0.1, 40),
                             "fig7 half": (5e4, 8.0, 1600)}[grid_name]
    p = trap(Gamma)
    grid = UniformGrid(t_max / model.gamma_markov_closed_form(p) / n_steps, n_steps + 1)
    want = _series_rates_per_term(p, grid, order_max)
    got = tcl.tcl_series_rates(volterra.memory_kernel(p, grid), order_max)
    for order, (gamma, shift) in want.items():
        assert np.array_equal(got.gamma_by_order[order], gamma), order
        assert np.array_equal(got.S_by_order[order], shift), order


# ---------------------------------------------------------------------------
# constant-kernel closed forms

# trap so slow and heavy that f(tau) = Gamma to 1e-5 over the whole window:
# the exact amplitude is cos(sqrt(Gamma) t), whose log-derivative expands as
# 2 sqrt(G) tan(sqrt(G) t) = 2Gt + (2/3)G^2 t^3 + (4/15)G^3 t^5 + ...
TOY_GAMMA = 0.09


def toy_trap():
    return model.TrapParams(M=1.0, omega0=1e-6, sigma_k=1.0, Gamma=TOY_GAMMA)


def test_constant_kernel_order_terms():
    p = toy_trap()
    g = _grid(3.0, 0.002)
    t = g.times()
    series = series_rates(p, g, order_max=6)
    np.testing.assert_allclose(series.gamma_by_order[2], 2 * TOY_GAMMA * t,
                               rtol=1e-5, atol=1e-9)
    np.testing.assert_allclose(series.gamma_by_order[4],
                               (2.0 / 3.0) * TOY_GAMMA**2 * t**3,
                               rtol=1e-4, atol=1e-9)
    np.testing.assert_allclose(series.gamma_by_order[6],
                               (4.0 / 15.0) * TOY_GAMMA**3 * t**5,
                               rtol=1e-4, atol=1e-9)
    for order in (2, 4, 6):
        assert np.max(np.abs(series.S_by_order[order])) < 1e-5


def test_constant_kernel_order4_quadrature():
    p = toy_trap()
    g = _grid(3.0, 0.002)
    t = g.times()
    gamma4, s4 = tcl4_rates(p, g)
    np.testing.assert_allclose(gamma4, (2.0 / 3.0) * TOY_GAMMA**2 * t**3,
                               rtol=1e-4, atol=1e-8)
    assert np.max(np.abs(s4)) < 1e-5


def test_coupling_strength_scaling():
    # order 2k carries k kernel factors, so rates scale as Gamma^k
    g = _grid(0.02, 2e-5)
    lo = series_rates(trap(5e4), g, order_max=6)
    hi = series_rates(trap(1e5), g, order_max=6)
    for order, factor in ((2, 2.0), (4, 4.0), (6, 8.0)):
        a, b = lo.gamma_by_order[order], hi.gamma_by_order[order]
        mask = np.abs(a) > 1e-6 * np.max(np.abs(a))
        np.testing.assert_allclose(b[mask] / a[mask], factor, rtol=1e-9)


# ---------------------------------------------------------------------------
# long-time behavior of the second-order rate


def test_rate_oscillates_about_markov_value():
    # on omega0 t in [50, 50 + 10 pi] the rate crosses its limit ten times
    p = trap(5e4)
    dt = 0.005 / OMEGA0
    g = _grid((50.0 + 10.0 * np.pi + 1.0) / OMEGA0, dt)
    gamma2, _ = tcl2_rates(p, g)
    t = g.times()
    w = (t >= 50.0 / OMEGA0) & (t <= (50.0 + 10.0 * np.pi) / OMEGA0)
    s = np.sign(gamma2[w] - GAMMA_M_5E4)
    crossings = int(np.sum(s[1:] * s[:-1] < 0))
    assert 9 <= crossings <= 11


def test_asymptote_tracks_quadrature_rate():
    p = trap(5e4)
    dt = 0.005 / OMEGA0
    g = _grid(300.0 / OMEGA0, dt)
    gamma2, _ = tcl2_rates(p, g)
    t = g.times()
    mask = t >= 50.0 / OMEGA0
    asym = asymptotic_gamma2(p, t[mask])
    envelope = 2.0 * p.Gamma / np.sqrt(p.alpha * OMEGA0**2 * t[mask])
    # measured 0.69% of the envelope; anything above 2% means a regression
    assert np.max(np.abs(gamma2[mask] - asym) / envelope) < 0.02


def test_asymptote_residual_decays_faster_than_envelope():
    # what the closed form misses falls off roughly like t^(-3/2), so the
    # residual max over [50, 100] vs [200, 250] (trap-phase units) drops ~8x
    p = trap(5e4)
    dt = 0.005 / OMEGA0
    g = _grid(260.0 / OMEGA0, dt)
    gamma2, _ = tcl2_rates(p, g)
    t = g.times() * OMEGA0
    mask = t >= 50.0
    res = gamma2[mask] - asymptotic_gamma2(p, g.times()[mask])
    tm = t[mask]
    r_early = np.max(np.abs(res[(tm >= 50) & (tm <= 100)]))
    r_late = np.max(np.abs(res[(tm >= 200) & (tm <= 250)]))
    assert 4.0 <= r_early / r_late <= 16.0


def test_asymptote_domain_checks():
    p = trap(5e4)
    with pytest.raises(DomainError):
        asymptotic_gamma2(p, -1.0)
    with pytest.raises(DomainError):
        asymptotic_gamma2(p, 0.0)
    with pytest.raises(DomainError):
        asymptotic_gamma2(p, 5.0 / OMEGA0)
    with pytest.warns(UserWarning):
        asymptotic_gamma2(p, 20.0 / OMEGA0)
    # vectorized: one bad element poisons the call
    with pytest.raises(DomainError):
        asymptotic_gamma2(p, np.array([50.0, 5.0]) / OMEGA0)


# ---------------------------------------------------------------------------
# derived quantities


def test_occupation_from_constant_rate():
    g = _grid(2.0, 0.01)
    c = 0.7
    rates = RateSeries(g, {2: np.full(g.n_points, c)}, {2: np.zeros(g.n_points)}, 2)
    n = tcl.occupation_from_rates(rates)
    np.testing.assert_allclose(n, np.exp(-c * g.times()), rtol=1e-4)


def test_rate_series_validation():
    g = _grid(1.0, 0.01)
    z = np.zeros(g.n_points)
    with pytest.raises(ParameterError):
        RateSeries(g, {2: z}, {2: z}, 3)
    with pytest.raises(ParameterError):
        RateSeries(g, {2: z}, {2: z}, 4)  # missing order 4
    full = RateSeries(g, {2: z, 4: z}, {2: z, 4: z}, 4)
    with pytest.raises(ParameterError):
        full.total_gamma(6)
    assert list(full.orders()) == [2, 4]
    # 4.0 == 4, but an order must be an integer: rejected by name, not by a
    # TypeError from range(); a numpy integer is an order
    with pytest.raises(ParameterError, match=r"got 4\.0"):
        RateSeries(g, {2: z, 4: z}, {2: z, 4: z}, 4.0)
    with pytest.raises(ParameterError, match=r"order 4\.0"):
        full.total_gamma(4.0)
    for bad in (4.0, 2.0):
        with pytest.raises(ParameterError, match=f"got {bad}"):
            tcl.tcl_series_rates(volterra.memory_kernel(trap(5e4), g), bad)
    assert list(RateSeries(g, {2: z, 4: z}, {2: z, 4: z}, np.int64(4)).orders()) == [2, 4]


def test_waiting_time_monotone_case():
    g = _grid(3.0, 0.01)
    n = np.exp(-g.times())
    wt = waiting_time(n)
    assert not wt.decreasing_steps.any()
    np.testing.assert_allclose(wt.F, 1.0 - n)


def test_waiting_time_flags_nonmonotone():
    g = _grid(3.0, 0.01)
    t = g.times()
    # rises right after t = 0, so F = 1 - n dips negative-slope there
    n = np.exp(-t) * (1.0 + 0.3 * np.sin(6 * t))
    wt = waiting_time(n)
    assert wt.decreasing_steps.any()


def test_waiting_time_rejects_unnormalized():
    g = _grid(1.0, 0.01)
    n = 0.9 * np.exp(-g.times())
    with pytest.raises(ParameterError):
        waiting_time(n)


def test_order6_occupation_close_to_exact():
    # at Gamma = 1e5 the sixth-order resummation stays within a few percent of
    # the exact occupation over the figure window (measured gap 0.015)
    p = trap(1e5)
    gm = model.gamma_markov_closed_form(p)
    dt = 1.5e-5
    g = _grid(np.ceil(3.5 / gm / dt) * dt, dt)
    traj = amplitude(p, t_max=g.t_end, dt=dt)
    assert traj.grid.n_points == g.n_points
    n_exact = volterra.occupation(traj)
    rates = series_rates(p, g, order_max=6)
    n6 = tcl.occupation_from_rates(rates)
    assert np.max(np.abs(n6 - n_exact)) <= 0.05


def test_series_breakdown_at_strong_coupling():
    # at Gamma = 1e6 the expansion must flag its own failure after the
    # collapse of the occupation but before the revival
    p = trap(1e6)
    gm = model.gamma_markov_closed_form(p)
    dt = 2e-6
    g = _grid(np.ceil(7.0 / gm / dt) * dt, dt)
    rates = series_rates(p, g, order_max=6)
    idx = tcl.series_breakdown_index(rates)
    assert idx is not None
    t_break = idx * dt * gm
    assert 3.0 < t_break < 6.0


@pytest.mark.parametrize("Gamma,t_max,dt", [
    (1e3, 0.05, 2e-5),
    (1e4, 0.11, 2e-5),
    (5e4, 0.043, 1e-5),   # figure regime where order 4 is accurate
])
def test_series_no_breakdown_below_strong_coupling(Gamma, t_max, dt):
    rates = series_rates(trap(Gamma), _grid(t_max, dt), order_max=6)
    assert tcl.series_breakdown_index(rates) is None


def test_residual_beyond_order6_scales_as_fourth_power():
    # exact rate minus the summed series through order 6 is dominated by the
    # order-8 term, so halving the coupling shrinks it about 16x
    t_fix, dt = 0.02, 1e-5

    def residual(Gamma):
        p = trap(Gamma)
        g = _grid(t_fix, dt)
        traj = amplitude(p, t_max=t_fix, dt=dt)
        series = series_rates(p, g, order_max=6)
        return volterra.exact_rates(traj).gamma[-1] - series.total_gamma()[-1]

    ratio = residual(1e4) / residual(5e3)
    assert 10.0 <= ratio <= 24.0


def test_occupation_ordering_at_figure_regime():
    # at Gamma = 5e4, gm*t = 2: the order-2 resummation overshoots the decay
    # (its cumulative rate exceeds gamma_M*t) and lands slightly BELOW the
    # Born-Markov curve, while order 4 corrects back between Born-Markov and
    # exact; measured 0.1303 < 0.1353 < 0.1362 < 0.1406, stable under dt halving
    p = trap(5e4)
    gm = model.gamma_markov_closed_form(p)
    dt = 1e-5
    t_probe = np.ceil(2.0 / gm / dt) * dt
    g = _grid(t_probe, dt)
    traj = amplitude(p, t_max=t_probe, dt=dt)
    n_exact = volterra.occupation(traj)[-1]
    series = series_rates(p, g, 4)
    n2 = tcl.occupation_from_rates(series, 2)[-1]
    n4 = tcl.occupation_from_rates(series, 4)[-1]
    n_markov = np.exp(-gm * t_probe)
    assert n2 < n_markov < n4 < n_exact
    # order 2 is still the right magnitude: within 5% of Born-Markov here
    assert abs(n2 - n_markov) / n_markov < 0.05


def test_asymptote_envelope_scalings():
    # the oscillation about gamma_M has envelope 2*Gamma/sqrt(alpha*omega0^2*t):
    # doubling Gamma doubles the deviation, quadrupling t halves it (compare
    # at matched phase by sampling a dense cycle and taking the peak)
    p = trap(5e4)
    gm = GAMMA_M_5E4

    def peak_dev(params, t_center, scale=1.0):
        t = t_center + np.linspace(0.0, 2 * np.pi / OMEGA0, 400)
        return np.max(np.abs(asymptotic_gamma2(params, t) - scale * gm))

    # the envelope itself drifts ~1% across one sampled cycle, hence 2%
    d1 = peak_dev(p, 100.0 / OMEGA0)
    assert peak_dev(p, 400.0 / OMEGA0) == pytest.approx(0.5 * d1, rel=2e-2)
    assert peak_dev(trap(1e5), 100.0 / OMEGA0, scale=2.0) == pytest.approx(
        2.0 * d1, rel=1e-9)
