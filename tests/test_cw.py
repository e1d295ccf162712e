"""Pumped two-mode number dynamics: generator algebra, steady states,
time stepping, and the non-Lindblad cross term."""

import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.interpolate import CubicSpline
from scipy.linalg import expm
from scipy.sparse.linalg import spsolve

from atomlaser import (ConfigError, GeneratorError, NumericalFailure, ParameterError, cw, model,
                       tcl, volterra)
from atomlaser.cli import _run_calls
from atomlaser.quad import SampledFunction, UniformGrid, cumulative_integral

from conftest import OMEGA0, cw_params, evolve_here, trap
from reference import (build_generator, inner_r_function, linear_gain_n0, reduced_cw_mean_n0,
                       reduced_cw_stationary, serial_banded_evolve, stationary_full_storage,
                       steady_state_markov, verify_diagonal_closure)

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


@pytest.mark.parametrize("size", [10.5, 10.0, "10", True], ids=["10.5", "10.0", "str", "bool"])
@pytest.mark.parametrize("name", ["n0_max", "n1_max"])
def test_box_sizes_must_be_integers(name, size):
    # rejected at construction, naming the field, not by a TypeError in the solve
    kwargs = dict(trap=trap(5e4), kappa1=10 * GAMMA_M_5E4, Omega=GAMMA_M_5E4, N=1.0,
                  n0_max=6, n1_max=5)
    kwargs[name] = size
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        cw.CwParams(**kwargs)


def test_numpy_integer_box_sizes_are_accepted():
    params = cw.CwParams(trap=trap(5e4), kappa1=10 * GAMMA_M_5E4, Omega=GAMMA_M_5E4, N=1.0,
                         n0_max=np.int64(6), n1_max=np.int64(5))
    assert params.dim == 7 * 6
    state = cw.stationary_distribution(params)
    assert state.p.shape == (7, 6)


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


def r_on(params, grid):
    """cw.r_function on the memory kernel of params.trap sampled on grid."""
    return cw.r_function(params, volterra.memory_kernel(params.trap, grid))


def test_r_outer_matches_single_integral_reduction():
    # the double integral collapses to Omega * int_0^t tau f(tau) dtau
    t5 = trap(5e4)
    params = cw_params(t5, 4)
    g = UniformGrid(0.0, 1e-5, 401)
    r = r_on(params, g)
    assert r.values[0] == 0.0
    t = g.times()
    fv = model.correlation_f(t5, t)
    for j in (200, 400):
        oracle = params.Omega * np.trapezoid(t[: j + 1] * fv[: j + 1], dx=g.dt)
        assert r.values[j] == pytest.approx(oracle, rel=1e-4)


def test_r_matches_double_quadrature():
    t5 = trap(5e4)
    params = cw_params(t5, 4)
    g = UniformGrid(0.0, 1e-5, 201)
    r = r_on(params, g)
    T = 2e-3

    integrand = lambda y, x: model.correlation_f(t5, T - y)
    re = dblquad(lambda y, x: integrand(y, x).real, 0, T, 0, lambda x: x)[0]
    im = dblquad(lambda y, x: integrand(y, x).imag, 0, T, 0, lambda x: x)[0]
    assert r.values[200] == pytest.approx(params.Omega * (re + 1j * im), rel=1e-4)


def test_r_constant_kernel_quadratic():
    # slow heavy trap: f = Gamma gives Omega*Gamma*t^2/2
    toy = model.TrapParams(M=1.0, omega0=1e-6, sigma_k=1.0, Gamma=0.25)
    g = UniformGrid(0.0, 0.01, 101)
    want = 3.0 * 0.25 * g.times() ** 2 / 2.0
    r = r_on(cw.CwParams(trap=toy, kappa1=1.0, Omega=3.0, N=1.0), g)
    np.testing.assert_allclose(r.values.real, want, rtol=1e-4, atol=1e-12)
    np.testing.assert_allclose(r.values.imag, 0.0, atol=1e-6)


def test_r_linear_in_omega_and_gamma():
    g = UniformGrid(0.0, 1e-5, 101)
    base = r_on(cw_params(trap(5e4), 4), g).values
    gm = GAMMA_M_5E4
    doubled_omega = cw.CwParams(trap=trap(5e4), kappa1=10 * gm, Omega=30 * gm, N=20.3)
    np.testing.assert_allclose(r_on(doubled_omega, g).values, 2 * base,
                               rtol=1e-12)
    # doubling Gamma doubles f pointwise, with gm rescaled to keep Omega fixed
    same_omega = cw.CwParams(trap=trap(1e5), kappa1=10 * gm, Omega=15 * gm, N=20.3)
    np.testing.assert_allclose(r_on(same_omega, g).values, 2 * base,
                               rtol=1e-12)


# ---------------------------------------------------------------------------
# generator algebra


def test_diagonal_closure_against_operator_form():
    # fig7's rates, at the order that carries every channel
    assert verify_diagonal_closure(cw_params(trap(5e4), 4)) is True


def test_run_path_rejects_overflowing_rates():
    # kappa1 (1 + N) overflows the static part's rates to inf and its column
    # sums to NaN; the balance check of every template build must fail
    # rather than compare NaN > tolerance as False, in the stationary solve
    # and in a run alike
    gm = model.gamma_markov_closed_form(trap(5e4))
    rates = dict(trap=trap(5e4), kappa1=1e307, Omega=15 * gm, N=20.3, n0_max=6, n1_max=5)
    with np.errstate(all="ignore"):
        with pytest.raises(GeneratorError, match=r"\bstatic \("):
            cw.stationary_distribution(cw.CwParams(**rates))
        with pytest.raises(GeneratorError, match=r"\bstatic \("):
            cw.evolve(cw.CwParams(**rates, order=2), cw.DiagonalState.vacuum(6, 5), 2e-4, 1e-4)


def test_build_generator_rates_required():
    # gamma defaults to gamma_M only at order markov; the weights enter as
    # G = static + gamma out (+ Re r oc at order 4)
    small = dict(n0_max=6, n1_max=5)
    with pytest.raises(ParameterError):
        build_generator(cw_params(trap(5e4), 2, **small))
    mats = {g: build_generator(cw_params(trap(5e4), 2, **small), g).matrix.toarray()
            for g in (0.0, 1.0, 40.0)}
    np.testing.assert_allclose(mats[40.0] - mats[0.0], 40.0 * (mats[1.0] - mats[0.0]),
                               rtol=1e-12, atol=1e-9)
    order4 = cw_params(trap(5e4), 4, **small)
    with_r = build_generator(order4, 40.0, 0.5 - 3.0j).matrix.toarray()
    unit_r = build_generator(order4, 40.0, 1.0).matrix.toarray()
    np.testing.assert_allclose(with_r - mats[40.0], 0.5 * (unit_r - mats[40.0]),
                               rtol=1e-12, atol=1e-9)
    # the cross term is absent below order 4, whatever r says
    np.testing.assert_array_equal(
        build_generator(cw_params(trap(5e4), 2, **small), 40.0, 1.0).matrix.toarray(),
        mats[40.0])


def test_generator_column_balance():
    params = cw_params(trap(5e4), "markov", n0_max=30, n1_max=15)
    gen = build_generator(params)
    colsum = np.asarray(gen.matrix.sum(axis=0)).ravel() + gen.leak
    scale = np.abs(gen.matrix.data).max()
    assert np.abs(colsum).max() <= 1e-12 * scale
    np.testing.assert_allclose(gen.matrix.toarray(),
                               build_generator(params, GAMMA_M_5E4).matrix.toarray(),
                               rtol=1e-12)


def test_balance_check_names_the_unbalanced_part(monkeypatch):
    # the plant of test_singular_step_names_gbtrf_info: column 0 of every
    # part is zeroed, the out part gains 2/dt there and the static leak
    # loses 1/dt, so G balances at gamma = 1/2 only. Checked part by part,
    # static and out are named, and oc, whose column 0 holds no rate, is not
    params = cw_params(trap(5e4), 2, n0_max=4, n1_max=3)
    dt = 2.0 ** -12
    tpl = cw._templates_for(params)
    cw._check_balance(tpl)
    diags = tpl.diags.copy()
    diags[:, :, 0] = 0.0
    diags[1, list(tpl.shifts).index(0), 0] = 2.0 / dt
    leak = tpl.leak_static.copy()
    leak[0] = -1.0 / dt
    with pytest.raises(GeneratorError, match=r"\bout \(worst residual 8\.192e\+03") as caught:
        cw._check_balance(tpl._replace(diags=diags, leak_static=leak))
    assert "static (" in str(caught.value) and "oc (" not in str(caught.value)
    # every template build is checked, once
    checked = []
    monkeypatch.setattr(cw, "_check_balance", checked.append)
    built = cw._templates(4, 3, 1.25, 2.0, 0.5)   # a key no other test builds
    assert len(checked) == 1 and checked[0] is built


# ---------------------------------------------------------------------------
# steady states


def test_steady_state_formula_value():
    params = cw_params(trap(5e4), "markov")
    assert steady_state_markov(params) == pytest.approx(FORMULA_N0, rel=1e-12)


def test_steady_state_threshold_root():
    gm = GAMMA_M_5E4
    n_threshold = 0.5 + np.sqrt(0.25 + gm / (15 * gm))
    params = cw.CwParams(trap=trap(5e4), kappa1=10 * gm, Omega=15 * gm,
                         N=n_threshold)
    assert steady_state_markov(params) == pytest.approx(0.0, abs=1e-12)


def test_steady_state_strong_collision_limit():
    # Omega -> infinity removes the sqrt correction: kappa1 (N-1) / (2 gamma_M)
    gm = GAMMA_M_5E4
    params = cw.CwParams(trap=trap(5e4), kappa1=10 * gm, Omega=1e12 * gm, N=20.3)
    want = 10 * gm * (20.3 - 1.0) / (2 * gm)
    assert steady_state_markov(params) == pytest.approx(want, rel=1e-5)


def test_steady_state_rejects_degenerate_inputs():
    gm = GAMMA_M_5E4
    with pytest.raises(ParameterError):
        steady_state_markov(cw.CwParams(trap=trap(0.0), kappa1=1.0, Omega=1.0, N=2.0))
    with pytest.raises(ParameterError):
        steady_state_markov(cw.CwParams(trap=trap(5e4), kappa1=10 * gm, Omega=0.0, N=2.0))


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


def _markov_params(Gamma, n0_max, n1_max, Omega_gamma=15.0):
    # the rates of cw_params in units of the Gamma = 5e4 gamma_M, so that
    # Gamma = 0 keeps a pump and collisions
    return cw.CwParams(trap=trap(Gamma), kappa1=10 * GAMMA_M_5E4,
                       Omega=Omega_gamma * GAMMA_M_5E4, N=20.3,
                       n0_max=n0_max, n1_max=n1_max)


@pytest.mark.parametrize("params", [
    _markov_params(5e4, 9, 6),
    _markov_params(0.0, 6, 5),        # Gamma = 0, Omega > 0: no output
    _markov_params(0.0, 200, 60),
    _markov_params(5e4, 9, 6, Omega_gamma=0.0),
    _markov_params(5e4, 1, 1),        # collision shift n1p - 2 = 0
    _markov_params(5e4, 3, 2),        # collision shift n1p - 2 = +1
    _markov_params(5e4, 400, 60),
], ids=["9x6", "Gamma0-6x5", "Gamma0-200x60", "Omega0", "1x1", "3x2", "400x60"])
def test_stationary_matrix_equals_lil_row_replacement(params):
    # the block elimination agrees to rounding with SuperLU on the former
    # LIL round trip, row 0 of G replaced by ones, under both its minimum
    # degree and its default COLAMD column orderings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # small boxes and Gamma = 0 leak at the boundary
        state = cw.stationary_distribution(params)
    reference = build_generator(params).matrix.tolil()
    reference[0, :] = 1.0
    reference = reference.tocsc()
    b = np.zeros(params.dim)
    b[0] = 1.0
    p = state.p.ravel()
    for permc_spec in ("MMD_AT_PLUS_A", "COLAMD"):
        q = spsolve(reference, b, permc_spec=permc_spec)
        q = q / q.sum()
        assert np.abs(p - q).max() <= 1e-12 * q.max()
        superlu = cw.DiagonalState(q.reshape(state.p.shape))
        assert state.mean_n0() == pytest.approx(superlu.mean_n0(), rel=1e-12)
        assert state.mean_n1() == pytest.approx(superlu.mean_n1(), rel=1e-12)


@pytest.mark.parametrize("n0_max, n1_max", [
    (1, 1),       # one segment of one level
    (2, 2),       # segments of one level; collision shift n1p - 2 = +1
    (3, 1),       # collision shift n1p - 2 = 0
    (15, 6),      # 15 levels above 0 in segments of 4: the lowest holds 3
    (16, 6),      # 16 levels above 0 in segments of 4
    (24, 2),
    (200, 60),
    (400, 60),
])
def test_checkpointed_stationary_is_bit_identical_to_full_storage(n0_max, n1_max):
    # recomputing each segment's R_k from its saved S_k repeats the numpy
    # calls of the way down on the same arrays, so p keeps every bit
    params = cw_params(trap(5e4), "markov", n0_max=n0_max, n1_max=n1_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # the small boxes leak at the boundary
        p = cw.stationary_distribution(params).p
    assert p.tobytes() == stationary_full_storage(params).tobytes()


def test_stationary_solve_keeps_checkpoints_only():
    # with the templates cached, a solve on the default box holds the 15
    # segment tops S_k and one segment's 14 R_k: its allocations peak at
    # 1.8 MiB, against 6.75 MiB with all 200 R_k kept
    params = cw_params(trap(5e4), "markov")
    cw.stationary_distribution(params)
    tracemalloc.start()
    try:
        cw.stationary_distribution(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20


def test_stationary_rejects_non_finite_solve(monkeypatch):
    params = cw_params(trap(5e4), "markov", n0_max=6, n1_max=5)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(np.shape(b), np.nan))
    with pytest.raises(NumericalFailure, match="non-finite"):
        cw.stationary_distribution(params)


@pytest.mark.parametrize("order", [2, 4])
def test_stationary_rejects_time_dependent_orders(order):
    # the stationary state is that of the constant markov generator
    with pytest.raises(ParameterError, match="markov generator, not of order"):
        cw.stationary_distribution(cw_params(trap(5e4), order, n0_max=6, n1_max=5))


def test_stationary_needs_no_sparse_solver(monkeypatch):
    # the level elimination is dense block work: no SuperLU call remains
    def forbidden(*args, **kwargs):
        raise AssertionError("the stationary solve called a sparse solver")

    monkeypatch.setattr(cw, "spsolve", forbidden)
    monkeypatch.setattr(cw, "splu", forbidden)
    state = cw.stationary_distribution(cw_params(trap(5e4), "markov"))
    assert state.mean_n0() == pytest.approx(STATIONARY_N0, rel=1e-9)


@pytest.mark.parametrize("n0_max, warns", [(200, False), (60, True)])
def test_stationary_warns_on_boundary_leak(n0_max, warns):
    # the default box loses 6.6e-22 of the pump flux at its boundary, the
    # n0_max = 60 box 3.4e-3, above CLIP_WARN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cw.stationary_distribution(cw_params(trap(5e4), "markov", n0_max=n0_max))
    assert any("box boundary" in str(w.message) for w in caught) == warns


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
    gen = build_generator(params)
    p0 = cw.DiagonalState.vacuum(8, 6)
    t_max, dt = 0.02, 3.2e-6
    exact = expm(gen.matrix.toarray() * t_max) @ p0.p.ravel()
    n0_exact = float((np.arange(params.dim) // 7) @ exact)
    tr_cn = cw.evolve(params, p0, t_max, dt)
    assert tr_cn.mean_n0[-1] == pytest.approx(n0_exact, abs=1e-7)


@pytest.mark.parametrize("order", ["markov", 2, 4])
def test_time_dependent_implicit_stepper_matches_dense_recurrence(order):
    # the stepper (one sparse LU for markov; for orders 2 and 4 a banded LU
    # per solve, factored ahead on threads) against the same Rannacher +
    # Crank-Nicolson recurrence written out with dense matrices from
    # build_generator
    t5 = trap(5e4)
    params = cw.CwParams(trap=t5, kappa1=200.0, Omega=GAMMA_M_5E4, N=0.5,
                         n0_max=8, n1_max=6, order=order)
    n_steps, dt = 12, 2e-3
    traj = cw.evolve(params, cw.DiagonalState.vacuum(8, 6), n_steps * dt, dt)

    kernel = volterra.memory_kernel(t5, UniformGrid(0.0, 0.5 * dt, 2 * n_steps + 1))
    if order == "markov":
        gamma = [None] * kernel.grid.n_points
    else:
        gamma = tcl.tcl_series_rates(kernel, order).total_gamma().values
    r = cw.r_function(params, kernel).values
    gens = [build_generator(params, gamma[k], r[k]) for k in range(kernel.grid.n_points)]
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


# no shrink phase: shrinking the failures of a stepper with a planted fault
# took about 13 minutes and 1.09 GB; without it they are reported as drawn,
# within seconds
@pytest.mark.parametrize("cpus", [1, 2, 3])
@settings(derandomize=True, database=None, deadline=None, max_examples=12,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(n0_max=st.integers(1, 12), n1_max=st.integers(1, 8), order=st.sampled_from([2, 4]),
       n_steps=st.integers(1, 14), dt_gamma=st.floats(1e-3, 4e-2), N=st.floats(0.5, 5.0))
def test_banded_stepper_matches_serial_solve_banded(cpus, n0_max, n1_max, order, n_steps,
                                                    dt_gamma, N):
    # factors computed ahead on 1, 2 or 3 threads, in a ring of cpus + 1
    # arrays that runs past the Rannacher start and wraps, give the bits of
    # one solve_banded per step; the interpreter switches threads every
    # 10 us, so that a factor read before it is done would show
    params = cw_params(trap(5e4), order, n0_max, n1_max, N)
    p0 = cw.DiagonalState.vacuum(n0_max, n1_max)
    dt = dt_gamma / GAMMA_M_5E4
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(cw, "usable_cpus", lambda: cpus)
            warnings.simplefilter("ignore")   # small boxes clip, order 4 may flag negativity
            traj = cw.evolve(params, p0, n_steps * dt, dt)
    finally:
        sys.setswitchinterval(interval)
    got = (traj.mean_n0, traj.mean_n1, traj.prob_sum, traj.min_p, traj.clipped_flux,
           traj.final_state.p.ravel())
    for mine, serial in zip(got, serial_banded_evolve(params, p0, n_steps * dt, dt)):
        assert mine.tobytes() == serial.tobytes()


def test_singular_step_names_gbtrf_info(monkeypatch):
    # column 0 of I - h G is zeroed but for its pivot 1 - h g (1/h): 1/2 at
    # the rate g = 1/2, and exactly 0 (h = 2^-13) at g = 1, planted at
    # half-grid point 14, the solve of step 6. gbtrf stops there with info
    # 1, while factors run ahead on two threads; the pool's threads end
    # with the run. A leak of -1/dt from state 0 balances column 0 at the
    # rate 1/2 only; planted past _templates, it escapes the part-by-part
    # balance check (test_balance_check_names_the_unbalanced_part)
    params = cw_params(trap(5e4), 2, n0_max=4, n1_max=3)
    dt, n_steps = 2.0 ** -12, 10
    tpl = cw._templates_for(params)
    diags = tpl.diags.copy()
    diags[:, :, 0] = 0.0
    diags[1, list(tpl.shifts).index(0), 0] = 2.0 / dt
    leak = tpl.leak_static.copy()
    leak[0] = -1.0 / dt
    gamma = np.full(2 * n_steps + 1, 0.5)
    gamma[14] = 1.0
    rates = SimpleNamespace(total_gamma=lambda: SimpleNamespace(values=gamma))
    monkeypatch.setattr(cw, "_templates_for",
                        lambda params: tpl._replace(diags=diags, leak_static=leak))
    monkeypatch.setattr(tcl, "tcl_series_rates", lambda kernel, order: rates)
    monkeypatch.setattr(cw, "usable_cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(NumericalFailure, match=r"\(LAPACK gbtrf info 1\)"):
        cw.evolve(params, cw.DiagonalState.vacuum(4, 3), n_steps * dt, dt)
    assert threading.active_count() == threads


def test_evolve_config_errors(monkeypatch):
    # a bad grid or a state of the wrong shape is rejected before the rate
    # tables are built
    def refuse(*args):
        raise AssertionError("rate tables built")

    monkeypatch.setattr(volterra, "memory_kernel", refuse)
    monkeypatch.setattr(tcl, "tcl_series_rates", refuse)
    monkeypatch.setattr(cw, "r_function", refuse)
    params = cw_params(trap(5e4), 4, n0_max=5, n1_max=5)
    p0 = cw.DiagonalState.vacuum(5, 5)
    with pytest.raises(ConfigError):
        cw.evolve(params, p0, -1.0, 1e-5)
    with pytest.raises(ConfigError):
        cw.evolve(params, p0, 0.01, 0.0)
    with pytest.raises(ParameterError, match="initial state has 25 entries"):
        cw.evolve(params, cw.DiagonalState.vacuum(4, 4), 0.01, 1e-5)
    # a table of the box's size but not its shape would be read in the
    # wrong order: a (4, 7) table with q[1, 0] = 1 on the (6, 3) box would
    # start at <n0> = 1, <n1> = 3
    q = np.zeros((4, 7))
    q[1, 0] = 1.0
    with pytest.raises(ParameterError, match=r"shape \(4, 7\).*shape \(7, 4\)"):
        cw.evolve(cw_params(trap(5e4), 4, n0_max=6, n1_max=3), cw.DiagonalState(q), 0.01, 1e-5)


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


def test_order4_instability_is_named(monkeypatch):
    # fig7's rates and step with the cross-term weight read at the inner
    # time, on a 40 x 12 box: as Re r grows the order-4 generator gains
    # eigenvalues with positive real part, which no step size cures. The run
    # stops near gamma_M t = 7.9, a point rounding moves by a few steps, so
    # the horizon is 12/gamma_M
    monkeypatch.setattr(cw, "r_function", inner_r_function)
    params = cw_params(trap(5e4), 4, n0_max=40, n1_max=12)
    dt = 8.0 / GAMMA_M_5E4 / 800
    threads = threading.active_count()
    with pytest.raises(NumericalFailure, match=r"unstable at t = ") as err:
        cw.evolve(params, cw.DiagonalState.vacuum(40, 12), 1200 * dt, dt)
    assert "too coarse" not in str(err.value)
    # the factor threads, some still ahead of the stop, have ended
    assert threading.active_count() == threads


def test_order4_evolve_samples_f_once(monkeypatch):
    # the order-4 rates and cross-term weight read one memory kernel
    calls = []
    correlation_f = model.correlation_f
    monkeypatch.setattr(model, "correlation_f",
                        lambda *args: calls.append(1) or correlation_f(*args))
    params = cw_params(trap(5e4), 4, n0_max=5, n1_max=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the tiny box clips
        cw.evolve(params, cw.DiagonalState.vacuum(5, 5), 1e-4, 1e-5)
    assert len(calls) == 1


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


def test_reduced_model_stationary_mean(stationary_default):
    # the mean-field n0 with an exact n1 chain lands 3.3e-5 from the solve;
    # the factorized closed form of criterion 8 is 3.8% off
    params, state = stationary_default
    assert reduced_cw_stationary(params) == pytest.approx(state.mean_n0(), rel=1e-4)


@pytest.mark.parametrize("order", ["markov", 2])
def test_reduced_model_tracks_fig7_runs(fig7_runs, order):
    # what is left is the mean-field error of the n0 fluctuations: 0.138
    # (markov) and 0.140 (order 2) on <n0> ~ 100
    traj = fig7_runs[order]
    params = cw_params(trap(5e4), order)
    if order == "markov":
        gamma = lambda t: fig7_runs["gamma_M"]
    else:
        # the order-2 rate on the run's half-step grid, as evolve samples it
        half = UniformGrid(0.0, 0.5 * (traj.times[1] - traj.times[0]), 2 * traj.times.size - 1)
        rates = tcl.tcl_series_rates(volterra.memory_kernel(params.trap, half), 2)
        gamma = CubicSpline(half.times(), rates.total_gamma().values)
    m = reduced_cw_mean_n0(params, traj.times, gamma)
    assert np.abs(m - traj.mean_n0).max() <= 2e-3 * traj.mean_n0.max()


def _per_trap_period(times, values, start, stop):
    """(mid time, half peak-to-peak) of values, less their running mean over
    one trap period, in each whole period inside [start, stop). A period
    starts where sin(omega0 t + pi/4), the order-2 oscillation, rises
    through zero, so that both its extremes fall inside."""
    period = 2.0 * np.pi / OMEGA0
    width = round(period / (times[1] - times[0]))
    wiggle = values - np.convolve(values, np.full(width, 1.0 / width), mode="same")
    out = []
    a = start + (-np.pi / 4 - OMEGA0 * start) % (2.0 * np.pi) / OMEGA0
    while a + period <= min(stop, times[-1] - period / 2):  # clear of the running mean's edge
        window = wiggle[(times >= a) & (times < a + period)]
        out.append((a + 0.5 * period, 0.5 * (window.max() - window.min())))
        a += period
    return np.array(out).T


def test_order2_oscillation_decays_as_inverse_sqrt_t(fig7_runs):
    # the dispersion of the free atoms gives the order-2 rate its slow tail,
    # gamma_2 - gamma_M = -2 Gamma cos(omega0 t + pi/4) / sqrt(alpha omega0^2 t),
    # and linear response of d<n0>/dt = -gamma <n0> + ... turns it into
    # <n0>_2 - <n0>_markov = <n0>_2 2 Gamma sin(omega0 t + pi/4) / (omega0^2 sqrt(alpha t)):
    # a t^(-1/2) decay, not an exponential. Measured per period: 0.992-0.993
    # of it here, 1.004-1.006 at Gamma = 1e4
    gm, p = fig7_runs["gamma_M"], trap(5e4)
    times, order2 = fig7_runs[2].times, fig7_runs[2].mean_n0
    mid, amp = _per_trap_period(times, order2 - fig7_runs["markov"].mean_n0, 2.0 / gm, 8.0 / gm)
    predicted = np.interp(mid, times, order2) * 2.0 * p.Gamma / (OMEGA0**2 * np.sqrt(p.alpha * mid))
    assert mid.size >= 7
    assert np.all((0.990 <= amp / predicted) & (amp / predicted <= 1.012))


def test_order4_excess_grows_with_r(fig7_runs, stationary_default):
    # the order-4 cross term adds Re r(t) <(n0 + 2) n1 (n1 - 1)> to d<n0>/dt.
    # Re r oscillates at the trap frequency with an amplitude that grows as
    # Omega Gamma sqrt(t) / (omega0 sqrt(alpha)) in the outer reading, so the
    # excess <n0>_4 - <n0>_2 oscillates with that amplitude times the
    # mean-field <(n0 + 2) n1 (n1 - 1)> / omega0 of the stationary state.
    # Measured 0.89-0.91 of it per trap period for gamma_M t >= 3 (at
    # Gamma = 1e4 only 0.76-0.78, so the band is not asserted there)
    gm, p = fig7_runs["gamma_M"], trap(5e4)
    times = fig7_runs[4].times
    mid, amp = _per_trap_period(times, fig7_runs[4].mean_n0 - fig7_runs[2].mean_n0, 3.0 / gm,
                                times[-1])
    grid = UniformGrid(0.0, times[1] - times[0], times.size)
    r = cw.r_function(cw_params(p, 4), volterra.memory_kernel(p, grid)).values.real
    _, r_amp = _per_trap_period(times, r, 3.0 / gm, times[-1])
    params, state = stationary_default
    n0, n1 = np.ogrid[: params.n0_max + 1, : params.n1_max + 1]
    mean_field = float(((n0 + 2) * n1 * (n1 - 1) * state.p).sum()) / OMEGA0
    assert mid.size >= 5
    assert np.all(np.abs(amp / r_amp / mean_field - 1.0) <= 0.15)


def test_order4_oscillates_above_markov(fig7_runs):
    # late-time mean of the order-4 run sits above the markov level
    markov = fig7_runs["markov"].mean_n0
    order4 = fig7_runs[4].mean_n0
    gm = fig7_runs["gamma_M"]
    t = fig7_runs[4].times
    late = t * gm >= 3.0
    assert order4[late].mean() > markov[late].mean() > FORMULA_N0


# ---------------------------------------------------------------------------
# the linear-gain limit, where mode 0 is solvable exactly


def test_linear_gain_reference_converges_at_second_order():
    # over 8/gamma_M, the differences from 4000 to 8000, 8000 to 16000 and
    # 16000 to 32000 steps are 1.318e-5, 3.295e-6 and 8.24e-7: each halving
    # quarters the error
    p = trap(5e4)
    g, t_max = 0.6 * GAMMA_M_5E4, 8.0 / GAMMA_M_5E4
    runs = [linear_gain_n0(p, g, UniformGrid(0.0, t_max / n, n + 1))
            for n in (4000, 8000, 16000, 32000)]
    diffs = [np.abs(fine[::2] - coarse).max() for coarse, fine in zip(runs, runs[1:])]
    assert diffs[0] < 2e-5
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 3.8 <= coarse / fine <= 4.2


def test_linear_gain_reference_without_gain_is_the_pulsed_occupation():
    p = trap(5e4)
    grid = UniformGrid(0.0, 8.0 / GAMMA_M_5E4 / 8000, 8001)
    pulsed = volterra.occupation(volterra.solve_amplitude(p, volterra.memory_kernel(p, grid)))
    np.testing.assert_allclose(linear_gain_n0(p, 0.0, grid, n0_init=1.0), pulsed.values,
                               rtol=0.0, atol=1e-15)


def test_linear_gain_limit_order4_nearest_exact():
    # a fast pump (kappa1 = 1e4 gamma_M) keeps n1 thermal at N = 1, so mode 0
    # sees the Markov gain g = 2 Omega N^2 = 0.6 gamma_M and the exact output
    # memory: linear_gain_n0, on a grid 20 times finer than the run's. The
    # worst |<n0> - exact| over max <n0>, measured at 800 and 1600 steps:
    # markov 1.418e-2 and 1.418e-2, order 2 1.511e-2 and 1.508e-2, order 4
    # 4.03e-3 and 4.51e-3 (n1_max = 30, which clips 5e-4, adds about 5e-4 to
    # each). Order 4 supplies the shift of the exact pole by the gain, which
    # order 2 lacks; the inner reading of r diverges here instead.
    # In this limit each order is the rate equation
    #     dn/dt = g (n + 1) - gamma(t) n  [+ g Re(r(t)/Omega) (n + 2) at order 4]
    # on the run's half-step rates, solved here by its integrating factor.
    # The worst |<n0> - rate equation| over max of the rate equation,
    # measured at 800 and 1600 steps: markov 2.128e-3 and 2.128e-3, order 2
    # 2.140e-3 and 2.130e-3, order 4 2.186e-3 and 2.159e-3; <n0> ends below
    # it (1.4358 against 1.4389 at markov). The gap does not move with the
    # step, so it is the model's distance from the limit, not the stepper's
    p = trap(1e4)
    gm = model.gamma_markov_closed_form(p)
    g, t_max, n_steps = 0.6 * gm, 8.0 / gm, 800
    dt = t_max / n_steps
    exact = linear_gain_n0(p, g, UniformGrid(0.0, dt / 20, 20 * n_steps + 1))[::20]
    params = {order: cw.CwParams(trap=p, kappa1=1e4 * gm, Omega=0.5 * g, N=1.0, n0_max=60,
                                 n1_max=45, order=order) for order in cw.ORDERS}
    calls = [(f"order {order}", order != "markov", evolve_here,
              (params[order], cw.DiagonalState.vacuum(60, 45), t_max, dt))
             for order in cw.ORDERS]
    trajs = dict(zip(cw.ORDERS, _run_calls(calls)))
    error = {order: np.abs(traj.mean_n0 - exact).max() / exact.max()
             for order, traj in trajs.items()}
    assert 3.0e-3 <= error[4] <= 5.5e-3
    for order in ("markov", 2):
        assert 1.2e-2 <= error[order] <= 1.7e-2

    half = UniformGrid(0.0, 0.5 * dt, 2 * n_steps + 1)
    kernel = volterra.memory_kernel(p, half)
    for order, traj in trajs.items():
        gamma = (np.full(half.n_points, gm) if order == "markov"
                 else tcl.tcl_series_rates(kernel, order).total_gamma().values)
        cross = 0.0
        if order == 4:
            cross = g * cw.r_function(params[4], kernel).values.real / params[4].Omega
        # dn/dt = (g + cross - gamma) n + g + 2 cross from n = 0
        lam = cumulative_integral(SampledFunction(half, g + cross - gamma)).values
        rate = np.exp(lam) * cumulative_integral(
            SampledFunction(half, (g + 2.0 * cross) * np.exp(-lam))).values
        gap = np.abs(traj.mean_n0 - rate[::2]).max() / rate.max()
        assert 1.8e-3 <= gap <= 2.6e-3, (order, gap)


def test_exact_oscillation_decays_faster_than_order2():
    # in the linear-gain limit (Gamma = 5e4, g = 0.6 gamma_M, 20/gamma_M on
    # 20,000 steps), the half peak-to-peak about the Markov curve per trap
    # period, over gamma_M t in [2, 19): the exact one falls from 1.196e-3 to
    # 5.39e-5 (22.18 times), the gamma_2 rate equation's from 1.873e-2 to
    # 1.097e-2 (1.707 times, slower than the t^(-1/2) of its rate); the exact
    # one is at most 0.0639 of the gamma_2 one. All four figures move by less
    # than 3e-4 relative from 10,000 to 80,000 steps
    p = trap(5e4)
    gm = model.gamma_markov_closed_form(p)
    g = 0.6 * gm
    grid = UniformGrid(0.0, 20.0 / gm / 20000, 20001)
    t = grid.times()
    exact = linear_gain_n0(p, g, grid)
    # dn/dt = g (n + 1) - gamma_2(t) n from n = 0, by its integrating factor
    gamma2 = tcl.tcl_series_rates(volterra.memory_kernel(p, grid), 2).total_gamma().values
    lam = cumulative_integral(SampledFunction(grid, gamma2 - g)).values
    order2 = g * np.exp(-lam) * cumulative_integral(SampledFunction(grid, np.exp(lam))).values
    markov = g / (gm - g) * -np.expm1(-(gm - g) * t)
    mid, amp_exact = _per_trap_period(t, exact - markov, 2.0 / gm, 19.0 / gm)
    _, amp_2 = _per_trap_period(t, order2 - markov, 2.0 / gm, 19.0 / gm)
    assert mid.size >= 20
    assert np.all(amp_exact <= 0.08 * amp_2)
    fall_exact, fall_2 = amp_exact[0] / amp_exact[-1], amp_2[0] / amp_2[-1]
    assert 18.0 <= fall_exact <= 27.0
    assert 1.5 <= fall_2 <= np.sqrt(mid[-1] / mid[0])
    assert fall_exact >= 10.0 * fall_2
