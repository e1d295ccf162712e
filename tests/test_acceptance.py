"""Acceptance gate: ten numbered criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 8 fails honestly at the default truncation: the solved stationary
occupation sits 3.8% above the factorized closed form, outside the 2% band
(the closed form drops number correlations; see README).
"""

import numpy as np
import pytest

from atomlaser import model
from atomlaser.quad import UniformGrid, cumulative_integral
from atomlaser.tcl import RateSeries, occupation_from_rates, series_breakdown_index
from atomlaser.volterra import exact_rates, occupation

from conftest import OMEGA0, amplitude, cw_params, halving_difference, series_rates, trap
from reference import (asymptotic_gamma2, build_generator, markov_constants_by_quadrature,
                       steady_state_markov, tcl2_rates, tcl4_rates, waiting_time)

STATIONARY_N0 = 99.83412993229939


def _verdict(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _grid(t_max, dt):
    n = int(np.ceil(t_max / dt - 1e-12)) + 1
    return UniformGrid(dt, n)


@pytest.fixture(scope="module")
def fig2_traj(trap5e4):
    gm = model.gamma_markov_closed_form(trap5e4)
    dt = 1e-5
    grid = _grid(3.0 / gm, dt)
    traj = amplitude(trap5e4, grid.t_end, dt)
    assert traj.grid.n_points == grid.n_points
    return traj


def test_criterion_01_markov_baseline():
    # the baseline occupation must be exactly exponential in the closed-form
    # rate, and that rate must agree with its quadrature cross-check
    worst = 0.0
    for Gamma in (1e3, 5e4, 1e6):
        p = trap(Gamma)
        gm = model.gamma_markov_closed_form(p)
        grid = UniformGrid(0.05 / gm, 101)
        const = RateSeries(grid, {2: np.full(101, gm)}, {2: np.zeros(101)}, 2)
        n = occupation_from_rates(const)
        worst = max(worst, np.abs(n / np.exp(-gm * grid.times()) - 1.0).max())
        assert markov_constants_by_quadrature(p)[0] == pytest.approx(gm, rel=1e-3)
        assert gm / Gamma == pytest.approx(1.852452633e-3, rel=1e-6)
    _verdict(1, worst < 1e-12,
             f"markov baseline is exp(-gamma_M t) to {worst:.1e} relative")


def test_criterion_02_timescale_ratios(trap5e4, trap1e5):
    r1 = model.timescale_ratio(trap5e4)
    r2 = model.timescale_ratio(trap1e5)
    ok = abs(r1 / 16.0 - 1.0) < 0.15 and abs(r2 / 8.0 - 1.0) < 0.15
    _verdict(2, ok, f"system/reservoir timescale ratios {r1:.3f} vs 16, "
                    f"{r2:.3f} vs 8 (band 15%)")


def test_criterion_03_series_vs_quadrature(trap5e4):
    gm = model.gamma_markov_closed_form(trap5e4)
    grid = _grid(6.0 / gm, 0.02 / OMEGA0)
    series = series_rates(trap5e4, grid, order_max=4)
    q2, _ = tcl2_rates(trap5e4, grid)
    q4, _ = tcl4_rates(trap5e4, grid)

    dev2 = np.abs(series.gamma_by_order[2] - q2).max()
    dev4 = np.abs(series.gamma_by_order[4] - q4).max()
    est2 = (halving_difference(lambda g: tcl2_rates(trap5e4, g)[0], grid)
            + halving_difference(
                lambda g: series_rates(trap5e4, g, 2).gamma_by_order[2], grid))
    est4 = (halving_difference(lambda g: tcl4_rates(trap5e4, g)[0], grid)
            + halving_difference(
                lambda g: series_rates(trap5e4, g, 4).gamma_by_order[4], grid))
    ok = dev2 <= est2 and dev4 <= est4
    _verdict(3, ok, f"order-2 routes differ by {dev2:.2e} (allowed {est2:.2e}), "
                    f"order-4 by {dev4:.2e} (allowed {est4:.2e})")


def test_criterion_04_moderate_coupling_occupations(trap5e4, fig2_traj):
    gm = model.gamma_markov_closed_form(trap5e4)
    t = fig2_traj.grid.times()
    n_ex = occupation(fig2_traj)
    n_mk = np.exp(-gm * t)
    rates = series_rates(trap5e4, fig2_traj.grid, order_max=4)
    n4 = occupation_from_rates(rates)

    mid = (gm * t >= 1.0) & (gm * t <= 3.0)
    dev_markov = (np.abs(n_ex - n_mk)[mid] / n_mk[mid]).max()
    dev4 = np.abs(n4 - n_ex)[gm * t <= 3.0].max()
    ok = dev_markov > 0.10 and dev4 <= 0.02
    _verdict(4, ok, f"exact departs from markov by {dev_markov:.1%} (> 10%), "
                    f"order-4 within {dev4:.4f} absolute (<= 0.02)")


def test_criterion_05_order6_tracks_exact(trap1e5):
    # rates diverge pointwise at every oscillation crossing, so the tracking
    # statement is made on the integrated exponents instead
    gm = model.gamma_markov_closed_form(trap1e5)
    dt = 1.5e-5
    grid = _grid(3.5 / gm, dt)
    traj = amplitude(trap1e5, grid.t_end, dt)
    assert traj.grid.n_points == grid.n_points
    n_ex = occupation(traj)
    w_exact = -np.log(n_ex)
    rates = series_rates(trap1e5, grid, order_max=6)
    w6 = cumulative_integral(rates.total_gamma(6), grid.dt)
    metric = (np.abs(w6 - w_exact) / np.maximum(w_exact, 1.0)).max()
    _verdict(5, metric <= 0.10,
             f"order-6 exponent tracks the exact one to {metric:.1%} (<= 10%)")


def test_criterion_06_collapse_revival_breakdown(trap1e6):
    gm = model.gamma_markov_closed_form(trap1e6)
    dt = 1e-6
    grid = _grid(7.0 / gm, dt)
    traj = amplitude(trap1e6, grid.t_end, dt)
    t = traj.grid.times()
    n_ex = occupation(traj)

    win = (gm * t >= 2.0) & (gm * t <= 5.0)
    i_min = np.flatnonzero(win)[np.argmin(n_ex[win])]
    i_max = i_min + int(np.argmax(n_ex[i_min:]))
    collapse, revival = n_ex[i_min], n_ex[i_max]

    er = exact_rates(traj)
    spike = er.gamma[win].max()

    srates = series_rates(trap1e6, _grid(7.0 / gm, 2e-6), order_max=6)
    idx = series_breakdown_index(srates)
    t_break = gm * srates.grid.times()[idx] if idx is not None else np.inf

    wt = waiting_time(occupation(traj))

    ok = (collapse < 0.01 and revival > 10 * collapse and i_max > i_min
          and spike > 5 * gm and idx is not None and 3.0 < t_break < 6.0
          and wt.decreasing_steps.any())
    _verdict(6, ok, f"collapse to {collapse:.4f} then revival to {revival:.3f}, "
                    f"rate spike {spike / gm:.1f} gamma_M, series flagged at "
                    f"gamma_M t = {t_break:.2f}, waiting-time reading voided")


def test_criterion_07_asymptotic_rate(trap5e4):
    dt = 0.005 / OMEGA0
    grid = _grid(300.0 / OMEGA0, dt)
    g2 = tcl2_rates(trap5e4, grid)[0]
    t = grid.times()
    win = OMEGA0 * t >= 50.0
    formula = asymptotic_gamma2(trap5e4, t[win])
    envelope = 2.0 * trap5e4.Gamma / np.sqrt(trap5e4.alpha * OMEGA0**2 * t[win])
    metric = (np.abs(g2[win] - formula) / envelope).max()
    _verdict(7, metric <= 0.10,
             f"quadrature rate matches the asymptotic form to {metric:.2%} "
             "of the envelope on omega0 t in [50, 300]")


def test_criterion_08_cw_steady_state(stationary_default):
    params, st = stationary_default
    formula = steady_state_markov(params)
    gap = abs(st.mean_n0() - formula) / formula
    _verdict(8, gap <= 0.02,
             f"stationary <n0> = {st.mean_n0():.3f} vs closed form "
             f"{formula:.3f}: gap {gap:.1%} exceeds the 2% band "
             "(the factorized form drops number correlations)")


def test_criterion_09_cw_oscillations(fig7_runs, weak_cw_runs):
    gm = fig7_runs["gamma_M"]
    run4 = fig7_runs[4]
    late = gm * run4.times >= 3.0
    x = run4.mean_n0[late] - run4.mean_n0[late].mean()
    hann = np.hanning(x.size)
    spec = np.abs(np.fft.rfft(x * hann, n=8 * x.size))
    freqs = np.fft.rfftfreq(8 * x.size, d=run4.times[1] - run4.times[0])
    k = int(np.argmax(spec[1:])) + 1
    # parabolic peak interpolation on the log spectrum
    if 1 <= k < spec.size - 1:
        a, b, c = np.log(spec[k - 1: k + 2])
        k = k + 0.5 * (a - c) / (a - 2 * b + c)
    omega_dom = 2.0 * np.pi * k * (freqs[1] - freqs[0])
    freq_ok = abs(omega_dom / OMEGA0 - 1.0) <= 0.20

    above = run4.mean_n0[late].mean() > STATIONARY_N0

    gmw = weak_cw_runs["gamma_M"]
    w4, w2 = weak_cw_runs[4], weak_cw_runs[2]
    wlate = gmw * w4.times >= 3.0
    envelope = np.ptp(w4.mean_n0[wlate])
    dev = np.abs(w4.mean_n0[wlate] - w2.mean_n0[wlate]).max()
    weak_ok = dev <= envelope and envelope < 0.10 * w4.mean_n0[wlate].mean()

    ok = freq_ok and above and weak_ok
    _verdict(9, ok, f"dominant frequency {omega_dom / OMEGA0:.3f} omega0, late "
                    f"mean {run4.mean_n0[late].mean():.2f} > stationary "
                    f"{STATIONARY_N0:.2f}; weak coupling: order gap {dev:.3f} "
                    f"inside envelope {envelope:.3f}")


def test_criterion_10_conservation_suite(trap5e4, fig7_runs, fig2_traj):
    # probability accounting on the shared cw runs
    drift = max(np.abs(r.prob_sum + r.clipped_flux - 1.0).max()
                for r in (fig7_runs[o] for o in ("markov", 2, 4)))

    # generator columns balance against the leak at the default truncation
    gen = build_generator(cw_params(trap5e4, "markov"))
    colsum = np.asarray(gen.matrix.sum(axis=0)).ravel() + gen.leak
    col_res = np.abs(colsum).max() / np.abs(gen.matrix.data).max()

    # pulsed solver converges at second order under grid halving
    t_shared = 0.00512
    occs = [occupation(amplitude(trap5e4, t_shared, dt))
            for dt in (1.6e-5, 8e-6, 4e-6)]
    e1 = np.abs(occs[0] - occs[1][::2]).max()
    e2 = np.abs(occs[1] - occs[2][::2]).max()
    ratio = e1 / e2

    # the occupation and the extracted rate tell one consistent story
    er = exact_rates(fig2_traj)
    w = cumulative_integral(er.gamma, fig2_traj.grid.dt)
    closure = np.abs(np.exp(-w) - occupation(fig2_traj)).max()

    ok = (drift < 1e-9 and col_res < 1e-12 and 2.67 < ratio < 6.0
          and closure < 1e-4)
    _verdict(10, ok, f"probability drift {drift:.1e}, column residual "
                     f"{col_res:.1e}, refinement ratio {ratio:.2f} (order 2), "
                     f"rate/occupation closure {closure:.1e}")
