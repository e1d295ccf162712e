"""Pumped two-mode number dynamics: generator algebra, steady states,
time stepping, and the non-Lindblad cross term."""

import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.linalg import expm

from atomlaser import ConfigError, GeneratorError, NumericalFailure, ParameterError, cw, model, tcl
from atomlaser.quad import UniformGrid

from conftest import OMEGA0, cw_params, trap

GAMMA_M_5E4 = 92.62263163409446
# frozen from the replaced-row linear solve at the default (200, 60) box
STATIONARY_N0 = 99.83412993229939
STATIONARY_N1 = 0.33317401353996956
FORMULA_N0 = 96.1863428306443


# ---------------------------------------------------------------------------
# parameters and state


def test_params_validation():
    t = trap(5e4)
    gm = GAMMA_M_5E4
    with pytest.raises(ParameterError):
        cw.CwParams(trap=t, kappa1=0.0, Omega=gm, N=1.0)
    with pytest.raises(ParameterError):
        cw.CwParams(trap=t, kappa1=10 * gm, Omega=-1.0, N=1.0)
    with pytest.raises(ParameterError):
        cw.CwParams(trap=t, kappa1=10 * gm, Omega=gm, N=0.0)
    with pytest.raises(ParameterError):
        cw.CwParams(trap=t, kappa1=10 * gm, Omega=gm, N=1.0, n0_max=0)
    with pytest.raises(ParameterError):
        cw.CwParams(trap=t, kappa1=10 * gm, Omega=gm, N=1.0, order=6)
    with pytest.raises(ParameterError):
        cw.CwParams(trap=t, kappa1=10 * gm, Omega=gm, N=1.0, r_reading="middle")
    # a pump weaker than the output rate voids the elimination behind the model
    with pytest.warns(UserWarning):
        cw.CwParams(trap=t, kappa1=0.5 * gm, Omega=gm, N=1.0)
    for name in ("kappa1", "Omega", "N"):
        for bad in (np.nan, np.inf, -np.inf):
            kwargs = dict(kappa1=10 * gm, Omega=gm, N=1.0)
            kwargs[name] = bad
            with pytest.raises(ParameterError, match=f"{name} must be finite"):
                cw.CwParams(trap=t, **kwargs)
    p = cw.CwParams(trap=t, kappa1=10 * gm, Omega=0.0, N=1.0)  # Omega = 0 legal
    assert p.dim == 201 * 61


def test_diagonal_state():
    with pytest.raises(ParameterError):
        cw.DiagonalState(np.ones(5))            # not 2-d
    with pytest.raises(ParameterError):
        cw.DiagonalState(np.full((3, 3), 0.2))  # sums to 1.8
    # non-finite tables and clipped masses fail every comparison; reject them
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="non-finite"):
            cw.DiagonalState(np.full((2, 2), bad))
        with pytest.raises(ParameterError, match="non-finite"):
            cw.DiagonalState(np.eye(2) / 2, bad)
    s = cw.DiagonalState.vacuum(4, 3)
    assert s.p.shape == (5, 4)
    assert s.p[0, 0] == 1.0
    assert s.mean_n0() == 0.0 and s.mean_n1() == 0.0
    table = np.zeros((3, 4))
    table[2, 1] = 1.0
    s2 = cw.DiagonalState(table)
    assert s2.mean_n0() == 2.0 and s2.mean_n1() == 1.0
    assert s2.p.ravel()[2 * 4 + 1] == 1.0


# ---------------------------------------------------------------------------
# history weight r(t)


def test_r_outer_matches_single_integral_reduction():
    # the double integral collapses to Omega * int_0^t tau f(tau) dtau
    t5 = trap(5e4)
    params = cw_params(t5, 4)
    g = UniformGrid(0.0, 1e-5, 401)
    r = cw.r_function(params, g)
    assert r.values[0] == 0.0
    t = g.times()
    fv = model.correlation_f(t5, t)
    for j in (200, 400):
        oracle = params.Omega * np.trapezoid(t[: j + 1] * fv[: j + 1], dx=g.dt)
        assert r.values[j] == pytest.approx(oracle, rel=1e-4)


@pytest.mark.parametrize("reading", ["outer", "inner"])
def test_r_matches_double_quadrature(reading):
    t5 = trap(5e4)
    params = cw.CwParams(trap=t5, kappa1=10 * GAMMA_M_5E4, Omega=15 * GAMMA_M_5E4,
                         N=20.3, r_reading=reading)
    g = UniformGrid(0.0, 1e-5, 201)
    r = cw.r_function(params, g)
    T = 2e-3

    if reading == "outer":
        integrand = lambda y, x: model.correlation_f(t5, T - y)
    else:
        integrand = lambda y, x: model.correlation_f(t5, x - y)
    re = dblquad(lambda y, x: integrand(y, x).real, 0, T, 0, lambda x: x)[0]
    im = dblquad(lambda y, x: integrand(y, x).imag, 0, T, 0, lambda x: x)[0]
    assert r.values[200] == pytest.approx(params.Omega * (re + 1j * im), rel=1e-4)


def test_r_constant_kernel_quadratic():
    # slow heavy trap: f = Gamma, both readings give Omega*Gamma*t^2/2
    toy = model.TrapParams(M=1.0, omega0=1e-6, sigma_k=1.0, Gamma=0.25)
    g = UniformGrid(0.0, 0.01, 101)
    want = 3.0 * 0.25 * g.times() ** 2 / 2.0
    for reading in ("outer", "inner"):
        params = cw.CwParams(trap=toy, kappa1=1.0, Omega=3.0, N=1.0,
                             r_reading=reading)
        r = cw.r_function(params, g)
        np.testing.assert_allclose(r.values.real, want, rtol=1e-4, atol=1e-12)
        np.testing.assert_allclose(r.values.imag, 0.0, atol=1e-6)


def test_r_linear_in_omega_and_gamma():
    g = UniformGrid(0.0, 1e-5, 101)
    base = cw.r_function(cw_params(trap(5e4), 4), g).values
    gm = GAMMA_M_5E4
    doubled_omega = cw.CwParams(trap=trap(5e4), kappa1=10 * gm, Omega=30 * gm, N=20.3)
    np.testing.assert_allclose(cw.r_function(doubled_omega, g).values, 2 * base,
                               rtol=1e-12)
    # doubling Gamma doubles f pointwise, with gm rescaled to keep Omega fixed
    same_omega = cw.CwParams(trap=trap(1e5), kappa1=10 * gm, Omega=15 * gm, N=20.3)
    np.testing.assert_allclose(cw.r_function(same_omega, g).values, 2 * base,
                               rtol=1e-12)


# ---------------------------------------------------------------------------
# generator algebra


def test_diagonal_closure_against_operator_form():
    assert cw.verify_diagonal_closure(cw_params(trap(5e4), 4)) is True


def test_diagonal_closure_rejects_overflowing_rates():
    # kappa1 (1 + N) overflows the tolerance scale to inf and the algebra to
    # NaN; the self-check must fail rather than compare NaN > inf as False
    gm = model.gamma_markov_closed_form(trap(5e4))
    params = cw.CwParams(trap=trap(5e4), kappa1=1e307, Omega=15 * gm, N=20.3,
                         n0_max=6, n1_max=5, order=2)
    with np.errstate(all="ignore"), pytest.raises(GeneratorError):
        cw.verify_diagonal_closure(params)


def test_build_generator_rates_required():
    # gamma defaults to gamma_M only at order markov; the weights enter as
    # G = static + gamma out (+ Re r oc at order 4)
    small = dict(n0_max=6, n1_max=5)
    with pytest.raises(ParameterError):
        cw.build_generator(cw_params(trap(5e4), 2, **small))
    mats = {g: cw.build_generator(cw_params(trap(5e4), 2, **small), g).matrix.toarray()
            for g in (0.0, 1.0, 40.0)}
    np.testing.assert_allclose(mats[40.0] - mats[0.0], 40.0 * (mats[1.0] - mats[0.0]),
                               rtol=1e-12, atol=1e-9)
    order4 = cw_params(trap(5e4), 4, **small)
    with_r = cw.build_generator(order4, 40.0, 0.5 - 3.0j).matrix.toarray()
    unit_r = cw.build_generator(order4, 40.0, 1.0).matrix.toarray()
    np.testing.assert_allclose(with_r - mats[40.0], 0.5 * (unit_r - mats[40.0]),
                               rtol=1e-12, atol=1e-9)
    # the cross term is absent below order 4, whatever r says
    np.testing.assert_array_equal(
        cw.build_generator(cw_params(trap(5e4), 2, **small), 40.0, 1.0).matrix.toarray(),
        mats[40.0])


def test_generator_column_balance():
    params = cw_params(trap(5e4), "markov", n0_max=30, n1_max=15)
    gen = cw.build_generator(params)
    colsum = np.asarray(gen.matrix.sum(axis=0)).ravel() + gen.leak
    scale = np.abs(gen.matrix.data).max()
    assert np.abs(colsum).max() <= 1e-12 * scale
    np.testing.assert_allclose(gen.matrix.toarray(),
                               cw.build_generator(params, GAMMA_M_5E4).matrix.toarray(),
                               rtol=1e-12)


# ---------------------------------------------------------------------------
# steady states


def test_steady_state_formula_value():
    params = cw_params(trap(5e4), "markov")
    assert cw.steady_state_markov(params) == pytest.approx(FORMULA_N0, rel=1e-12)


def test_steady_state_threshold_root():
    gm = GAMMA_M_5E4
    n_threshold = 0.5 + np.sqrt(0.25 + gm / (15 * gm))
    params = cw.CwParams(trap=trap(5e4), kappa1=10 * gm, Omega=15 * gm,
                         N=n_threshold)
    assert cw.steady_state_markov(params) == pytest.approx(0.0, abs=1e-12)


def test_steady_state_strong_collision_limit():
    # Omega -> infinity removes the sqrt correction: kappa1 (N-1) / (2 gamma_M)
    gm = GAMMA_M_5E4
    params = cw.CwParams(trap=trap(5e4), kappa1=10 * gm, Omega=1e12 * gm, N=20.3)
    want = 10 * gm * (20.3 - 1.0) / (2 * gm)
    assert cw.steady_state_markov(params) == pytest.approx(want, rel=1e-5)


def test_steady_state_rejects_degenerate_inputs():
    gm = GAMMA_M_5E4
    with pytest.raises(ParameterError):
        cw.steady_state_markov(cw.CwParams(trap=trap(0.0), kappa1=1.0,
                                           Omega=1.0, N=2.0))
    with pytest.raises(ParameterError):
        cw.steady_state_markov(cw.CwParams(trap=trap(5e4), kappa1=10 * gm,
                                           Omega=0.0, N=2.0))


def test_stationary_distribution_default_box(stationary_default):
    params, st = stationary_default
    assert st.mean_n0() == pytest.approx(STATIONARY_N0, rel=1e-9)
    assert st.mean_n1() == pytest.approx(STATIONARY_N1, rel=1e-9)
    assert st.p.min() > -1e-15
    # the factorized closed form sits a few percent below the solved value
    gap = abs(st.mean_n0() - FORMULA_N0) / FORMULA_N0
    assert 0.02 < gap < 0.06


def test_stationary_balance_identities(stationary_default):
    # output flux = collision feeding flux, pump absorption = 2x output flux
    params, st = stationary_default
    gm = GAMMA_M_5E4
    p = st.p
    n0g, n1g = np.meshgrid(np.arange(p.shape[0]), np.arange(p.shape[1]),
                           indexing="ij")
    coll = float(((n0g + 1.0) * n1g * (n1g - 1.0) * p).sum())
    out_flux = gm * st.mean_n0()
    assert params.Omega * coll == pytest.approx(out_flux, rel=1e-10)
    pump_flux = params.kappa1 * (params.N - st.mean_n1())
    assert pump_flux == pytest.approx(2.0 * out_flux, rel=1e-10)


def test_stationary_truncation_sufficient(stationary_default):
    # doubling the condensate box moves the stationary mean by far below 0.5%
    params, st = stationary_default
    wide = cw_params(trap(5e4), "markov", n0_max=400, n1_max=60)
    st_wide = cw.stationary_distribution(wide)
    assert abs(st_wide.mean_n0() - st.mean_n0()) / st.mean_n0() < 0.005


def test_stationary_matrix_equals_lil_row_replacement(monkeypatch):
    # the solver sees the very arrays of the former LIL round trip, and its
    # minimum-degree ordering moves the means only by rounding
    params = cw_params(trap(5e4), "markov", n0_max=9, n1_max=6)
    reference = cw.build_generator(params).matrix.tolil()
    reference[0, :] = 1.0
    reference = reference.tocsc()
    solved = []
    spsolve = cw.spsolve
    monkeypatch.setattr(cw, "spsolve",
                        lambda A, b, **kw: solved.append(A) or spsolve(A, b, **kw))
    state = cw.stationary_distribution(params)
    A, = solved
    assert A.format == "csc" and A.shape == reference.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(A, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    b = np.zeros(params.dim)
    b[0] = 1.0
    p = spsolve(reference, b, permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(state.p.ravel(), p / p.sum())
    q = spsolve(reference, b)   # SuperLU's default COLAMD ordering
    colamd = cw.DiagonalState((q / q.sum()).reshape(state.p.shape))
    assert state.mean_n0() == pytest.approx(colamd.mean_n0(), rel=1e-12)
    assert state.mean_n1() == pytest.approx(colamd.mean_n1(), rel=1e-12)


def test_stationary_rejects_non_finite_solve(monkeypatch):
    params = cw_params(trap(5e4), "markov", n0_max=6, n1_max=5)
    monkeypatch.setattr(cw, "spsolve", lambda A, b, **kw: np.full(b.size, np.nan))
    with pytest.raises(NumericalFailure, match="non-finite"):
        cw.stationary_distribution(params)


def test_only_banded_orders_build_band_storage(monkeypatch):
    # the stationary solve, the closure probe and markov runs never allocate
    # the band layout; orders 2 and 4 build it once per run
    def refuse(tpl):
        raise AssertionError("band storage built")

    monkeypatch.setattr(cw, "_band_storage", refuse)
    monkeypatch.setattr(cw, "_closure_checked", set())
    t = trap(5e4)
    params = cw_params(t, "markov", n0_max=12, n1_max=8)
    st = cw.stationary_distribution(params)
    assert st.p.sum() == pytest.approx(1.0, abs=1e-12)
    p0 = cw.DiagonalState.vacuum(12, 8)
    t_max = 0.05 / GAMMA_M_5E4
    traj = cw.evolve(params, p0, t_max, t_max / 10)
    assert np.isfinite(traj.mean_n0).all()
    with pytest.raises(AssertionError, match="band storage built"):
        cw.evolve(cw_params(t, 2, n0_max=12, n1_max=8), p0, t_max, t_max / 10)


def test_pump_only_stationary_occupancy():
    # Gamma = 0 and Omega = 0: mode 1 thermalizes to <n1> = N, mode 0 frozen
    t0 = trap(0.0)
    params = cw.CwParams(trap=t0, kappa1=50.0, Omega=0.0, N=3.0,
                         n0_max=1, n1_max=80)
    p0 = cw.DiagonalState.vacuum(1, 80)
    traj = cw.evolve(params, p0, 0.5, 1e-3)
    assert traj.mean_n1[-1] == pytest.approx(3.0, abs=1e-5)
    assert traj.mean_n0[-1] == 0.0


def test_output_only_exponential_decay():
    # Omega = 0 decouples n0 from the pump: <n0> decays at exactly gamma_M
    t5 = trap(5e4)
    gm = GAMMA_M_5E4
    params = cw.CwParams(trap=t5, kappa1=10 * gm, Omega=0.0, N=0.5,
                         n0_max=10, n1_max=30)
    table = np.zeros((11, 31))
    table[5, 0] = 1.0
    p0 = cw.DiagonalState(table)
    t_max = 3.0 / gm
    traj = cw.evolve(params, p0, t_max, t_max / 600)
    want = 5.0 * np.exp(-gm * traj.times)
    np.testing.assert_allclose(traj.mean_n0, want, rtol=1e-4)


# ---------------------------------------------------------------------------
# evolution: steppers and safety rails


def test_steppers_agree_with_matrix_exponential():
    # constant generator on a tiny box: the implicit stepper lands on expm
    t5 = trap(5e4)
    params = cw.CwParams(trap=t5, kappa1=200.0, Omega=GAMMA_M_5E4, N=0.5,
                         n0_max=8, n1_max=6)
    gen = cw.build_generator(params)
    p0 = cw.DiagonalState.vacuum(8, 6)
    t_max, dt = 0.02, 3.2e-6
    exact = expm(gen.matrix.toarray() * t_max) @ p0.p.ravel()
    n0_exact = float((np.arange(params.dim) // 7) @ exact)
    tr_cn = cw.evolve(params, p0, t_max, dt)
    assert tr_cn.mean_n0[-1] == pytest.approx(n0_exact, abs=1e-7)


@pytest.mark.parametrize("order", ["markov", 2, 4])
def test_time_dependent_implicit_stepper_matches_dense_recurrence(order):
    # the stepper (one sparse LU for markov, banded gbsv for orders 2 and 4)
    # against the same Rannacher + Crank-Nicolson recurrence written out with
    # dense matrices from build_generator
    t5 = trap(5e4)
    params = cw.CwParams(trap=t5, kappa1=200.0, Omega=GAMMA_M_5E4, N=0.5,
                         n0_max=8, n1_max=6, order=order)
    n_steps, dt = 12, 2e-3
    traj = cw.evolve(params, cw.DiagonalState.vacuum(8, 6), n_steps * dt, dt)

    half = UniformGrid(0.0, 0.5 * dt, 2 * n_steps + 1)
    if order == "markov":
        gamma = [None] * half.n_points
    else:
        gamma = tcl.tcl_series_rates(t5, half, order).total_gamma().values
    r = cw.r_function(params, half).values
    gens = [cw.build_generator(params, gamma[k], r[k]) for k in range(half.n_points)]
    eye = np.eye(params.dim)

    def step(h, k, b):
        return np.linalg.solve(eye - h * gens[k].matrix.toarray(), b)

    p = cw.DiagonalState.vacuum(8, 6).p.ravel()
    clip = 0.0
    n0_of, n1_of = np.arange(params.dim) // 7, np.arange(params.dim) % 7
    for j in range(n_steps):
        k0, k1 = 2 * j, 2 * j + 2
        if j < cw.RANNACHER_STEPS:
            p_mid = step(0.5 * dt, k0 + 1, p)
            p_new = step(0.5 * dt, k1, p_mid)
            clip += 0.5 * dt * (gens[k0 + 1].leak @ p_mid + gens[k1].leak @ p_new)
        else:
            p_new = step(0.5 * dt, k1, p + 0.5 * dt * (gens[k0].matrix @ p))
            clip += 0.5 * dt * (gens[k0].leak @ p + gens[k1].leak @ p_new)
        p = p_new
        assert traj.mean_n0[j + 1] == pytest.approx(n0_of @ p, abs=1e-12)
        assert traj.mean_n1[j + 1] == pytest.approx(n1_of @ p, abs=1e-12)
        assert traj.prob_sum[j + 1] == pytest.approx(p.sum(), abs=1e-12)
        assert traj.clipped_flux[j + 1] == pytest.approx(clip, abs=1e-12)
    assert clip > 1e-9   # the box is tight enough for the leak to count


def test_evolve_config_errors():
    params = cw_params(trap(5e4), "markov", n0_max=5, n1_max=5)
    p0 = cw.DiagonalState.vacuum(5, 5)
    with pytest.raises(ConfigError):
        cw.evolve(params, p0, -1.0, 1e-5)
    with pytest.raises(ConfigError):
        cw.evolve(params, p0, 0.01, 0.0)
    with pytest.raises(ParameterError):
        cw.evolve(params, cw.DiagonalState.vacuum(4, 4), 0.01, 1e-5)


def test_markov_relaxes_to_stationary_mean():
    # long markov run from vacuum: monotone filling, endpoint at the solved
    # stationary mean to solver precision
    params = cw_params(trap(5e4), "markov")
    gm = GAMMA_M_5E4
    p0 = cw.DiagonalState.vacuum(200, 60)
    traj = cw.evolve(params, p0, 20.0 / gm, (20.0 / gm) / 2000)
    assert np.all(np.diff(traj.mean_n0) >= 0.0)
    assert traj.mean_n0[-1] == pytest.approx(STATIONARY_N0, rel=1e-6)
    assert np.abs(traj.prob_sum + traj.clipped_flux - 1.0).max() < 1e-9


def test_default_box_conservation(fig7_runs):
    for order in ("markov", 2, 4):
        traj = fig7_runs[order]
        assert np.abs(traj.prob_sum + traj.clipped_flux - 1.0).max() < 1e-9
        assert traj.clipped_flux[-1] < 1e-3
        assert traj.min_p.min() > -1e-9
        assert traj.final_state.p.shape == (201, 61)
    assert not fig7_runs["markov"].negativity_flagged
    assert not fig7_runs[2].negativity_flagged


def test_clip_warning_on_tight_box():
    params = cw_params(trap(5e4), "markov", n0_max=40, n1_max=30)
    gm = GAMMA_M_5E4
    p0 = cw.DiagonalState.vacuum(40, 30)
    with pytest.warns(UserWarning, match="clipping"):
        traj = cw.evolve(params, p0, 2.0 / gm, (2.0 / gm) / 200)
    assert traj.clipped_flux[-1] > 0.5
    # the returned state is validated: its table and clipped mass sum to 1
    final = traj.final_state
    assert final.clipped == traj.clipped_flux[-1]
    cw.DiagonalState(final.p, final.clipped)
    with pytest.raises(ParameterError, match="not normalized"):
        cw.DiagonalState(final.p, final.clipped + 1e-3)
    with pytest.raises(ParameterError, match="not normalized"):
        cw.DiagonalState(final.p)


def test_negativity_raises_for_lindblad_orders():
    # coarse implicit steps on a stiff box ring the startup transient negative;
    # for Lindblad-form generators that is an integration failure, not physics
    params = cw_params(trap(5e4), "markov", n0_max=150, n1_max=40)
    p0 = cw.DiagonalState.vacuum(150, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalFailure):
            cw.evolve(params, p0, 0.05, 1e-3)


def test_negativity_flagged_for_order4():
    # the order-4 cross term is not of Lindblad form; genuine small negativity
    # is returned flagged instead of raised
    t6 = trap(1e6)
    gm6 = model.gamma_markov_closed_form(t6)
    params = cw.CwParams(trap=t6, kappa1=10 * gm6, Omega=15 * gm6, N=5,
                         n0_max=30, n1_max=12, order=4)
    p0 = cw.DiagonalState.vacuum(30, 12)
    with pytest.warns(UserWarning):
        traj = cw.evolve(params, p0, 3.0 / gm6, 1e-3 / gm6)
    assert traj.negativity_flagged
    assert traj.min_p.min() < -1e-6


# ---------------------------------------------------------------------------
# figure-regime behavior (shared session runs)


def test_order2_stays_within_rate_envelope_of_markov(fig7_runs):
    # the order-2 rate oscillates about gamma_M inside the decaying envelope
    # 2 Gamma / sqrt(alpha omega0^2 t); the induced occupation wiggle is
    # bounded by envelope * n0 / gamma_M
    gm = fig7_runs["gamma_M"]
    markov = fig7_runs["markov"].mean_n0
    order2 = fig7_runs[2].mean_n0
    t_end = fig7_runs[2].times[-1]
    p = trap(5e4)
    envelope = 2.0 * p.Gamma / np.sqrt(p.alpha * OMEGA0**2 * t_end)
    bound = envelope * markov.max() / gm
    diff = np.abs(order2 - markov).max()
    assert diff <= bound
    # and the difference is a real effect, not numerical noise
    assert diff > 0.01


def test_order4_oscillates_above_markov(fig7_runs):
    # late-time mean of the order-4 run sits above the markov level
    markov = fig7_runs["markov"].mean_n0
    order4 = fig7_runs[4].mean_n0
    gm = fig7_runs["gamma_M"]
    t = fig7_runs[4].times
    late = t * gm >= 3.0
    assert order4[late].mean() > markov[late].mean() > FORMULA_N0
