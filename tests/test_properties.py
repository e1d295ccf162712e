"""Property tests of the cw generator assembly and stationary solve over
random small boxes and rates, of the CSV writer over arbitrary floats, of config parsing over
hostile values, of pulsed runs over random couplings and horizons, of the TCL series rates
against their quadrature over random couplings and grids, of the memory kernel's samples
under grid halving, of the exact amplitude against its Laplace-domain reference over random
couplings, of cw runs over random small boxes, rates, orders and short horizons, and of
grid_for over whole numbers of steps.
Derandomized: every run draws the same examples, so a failure always reproduces."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from atomlaser import cw, model, tcl, volterra
from atomlaser.cli import BUILTIN_SCENARIOS, Scenario, _write_csv, main, parse_scenario
from atomlaser.quad import SampledFunction, UniformGrid, grid_for

from conftest import amplitude, halving_difference, series_rates, trap
from reference import (_dense_channel_columns, build_generator, channel_operators,
                       laplace_amplitude, tcl2_rates, tcl4_rates)
from test_cli import _write_csv_per_element

GAMMA_M_5E4 = 92.62263163409446

PROPERTY = settings(derandomize=True, database=None, deadline=None)

boxes = st.integers(1, 12)
# rates in units of gamma_M; the pump dominates the output rate, as the model assumes
kappa1s = st.floats(1.5, 1e3).map(lambda x: x * GAMMA_M_5E4)
Ns = st.floats(0.05, 50.0)
Omegas = st.floats(0.0, 100.0).map(lambda x: x * GAMMA_M_5E4)
gammas = st.floats(0.0, 50.0).map(lambda x: x * GAMMA_M_5E4)
rs = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


def log_uniform(lo, hi):
    """Floats spread evenly in log10 between lo and hi."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# the operator-algebra check's parameters, log-uniform over many decades
# toward what the config reader accepts: kappa1, Omega and gamma in units of
# gamma_M, |r| in 1/s; a pump far below the output rate or far above it, and
# Omega = 0 or of any size
wide_kappa1s = log_uniform(1e-3, 1e12).map(lambda x: x * GAMMA_M_5E4)
wide_Ns = log_uniform(1e-6, 1e6)
wide_Omegas = st.one_of(st.just(0.0), log_uniform(1e-6, 1e12).map(lambda x: x * GAMMA_M_5E4))
wide_gammas = log_uniform(1e-6, 1e12).map(lambda x: x * GAMMA_M_5E4)
wide_rs = st.builds(cmath.rect, log_uniform(1e-6, 1e9), st.floats(-math.pi, math.pi))


# the (n0, n1) moves of the channels: pump gain and loss, collision, output,
# the cross term's -2w entry, and the diagonal
MOVES = {(0, 1), (0, -1), (1, -2), (-1, 0), (0, -2), (0, 0)}


@PROPERTY
@given(boxes, boxes, kappa1s, Ns, Omegas)
@example(3, 1, 10 * GAMMA_M_5E4, 2.0, 15 * GAMMA_M_5E4)   # collision shift n1p - 2 = 0
@example(3, 2, 10 * GAMMA_M_5E4, 2.0, 15 * GAMMA_M_5E4)   # collision shift n1p - 2 = +1
def test_diagonals_rebuild_templates(n0_max, n1_max, kappa1, N, Omega):
    # the diagonals are the stored form; the CSR matrices that evolve's
    # right-hand side builds from them hold exactly the same rates
    tpl = cw._templates(n0_max, n1_max, kappa1, N, Omega)
    shifts, n1p = tpl.shifts, n1_max + 1
    dim = (n0_max + 1) * n1p
    assert np.all(np.diff(shifts) > 0) and 0 in shifts
    assert shifts[-1] >= 1 and -shifts[0] >= 1   # LAPACK's lower and upper
    # no channel moves n0 by more than one level, as the stationary solve's
    # block-tridiagonal level reduction needs
    assert np.abs(shifts).max() <= n1p
    assert tpl.diags.shape == (3, shifts.size, dim)
    j = np.arange(dim)
    for diags in tpl.diags:
        mat = cw._csr(diags, shifts)
        dense = np.zeros((dim, dim))
        for s, vals in zip(shifts, diags):
            i = j + s
            inside = (i >= 0) & (i < dim)
            assert not vals[~inside].any()   # no rate lands outside the matrix
            dense[i[inside], j[inside]] = vals[inside]
        np.testing.assert_array_equal(dense, mat.toarray())
        # every rate moves a state to a neighbour inside the box
        i, j_nz = np.nonzero(dense)
        moves = set(zip(i // n1p - j_nz // n1p, i % n1p - j_nz % n1p))
        assert moves <= MOVES


@PROPERTY
@given(boxes, boxes, kappa1s, Ns, Omegas)
def test_stationary_solves_the_generator(n0_max, n1_max, kappa1, N, Omega):
    params = cw.CwParams(trap=trap(5e4), kappa1=kappa1, Omega=Omega, N=N,
                         n0_max=n0_max, n1_max=n1_max)
    state = cw.stationary_distribution(params)
    p = state.p.ravel()
    G, leak = build_generator(params)
    assert p.min() >= -1e-15 * p.max()
    assert p.sum() == pytest.approx(1.0, abs=1e-14)   # a few ulp of summation
    # G p = 0 off row 0, which the normalization replaced; on a tight box
    # row 0 carries the flux clipped at the boundary, since columns of G
    # sum to minus the leak
    resid = G @ p
    resid[0] += leak @ p
    assert np.abs(resid).max() <= 1e-12 * np.abs(G.data).max()
    # the minimum-degree ordering agrees with SuperLU's default COLAMD
    A = G.tolil()
    A[0, :] = 1.0
    b = np.zeros(params.dim)
    b[0] = 1.0
    q = spsolve(A.tocsc(), b)
    colamd = cw.DiagonalState((q / q.sum()).reshape(state.p.shape))
    assert state.mean_n0() == pytest.approx(colamd.mean_n0(), rel=1e-9)
    assert state.mean_n1() == pytest.approx(colamd.mean_n1(), rel=1e-9)


@PROPERTY
@given(boxes, boxes, kappa1s, Ns, Omegas, gammas, rs, st.sampled_from(cw.ORDERS))
def test_generator_columns_plus_leak_vanish(n0_max, n1_max, kappa1, N, Omega,
                                            gamma, r, order):
    params = cw.CwParams(trap=trap(5e4), kappa1=kappa1, Omega=Omega, N=N,
                         n0_max=n0_max, n1_max=n1_max, order=order)
    gen = build_generator(params, None if order == "markov" else gamma, r)
    colsum = np.asarray(gen.matrix.sum(axis=0)).ravel() + gen.leak
    scale = max(np.abs(gen.matrix.data).max(), 1.0)
    assert np.abs(colsum).max() <= 1e-12 * scale
    assert np.all(gen.leak >= 0.0) or order == 4   # only the cross term leaks negative


@PROPERTY
@given(boxes, boxes, kappa1s, Ns, Omegas, gammas, rs, st.sampled_from(cw.ORDERS))
@example(3, 1, 10 * GAMMA_M_5E4, 2.0, 15 * GAMMA_M_5E4, 0.0, 0j, "markov")
@example(3, 1, 10 * GAMMA_M_5E4, 2.0, 15 * GAMMA_M_5E4, 4 * GAMMA_M_5E4, 2.5 - 1j, 4)
@example(3, 2, 10 * GAMMA_M_5E4, 2.0, 15 * GAMMA_M_5E4, 4 * GAMMA_M_5E4, -2.5 + 1j, 4)
@example(200, 60, 10 * GAMMA_M_5E4, 20.3, 15 * GAMMA_M_5E4, 0.0, 0j, "markov")
@example(40, 12, 10 * GAMMA_M_5E4, 20.3, 15 * GAMMA_M_5E4, 0.3 * GAMMA_M_5E4, 0j, 2)
def test_generator_is_the_summed_channel_operators(n0_max, n1_max, kappa1, N, Omega,
                                                   gamma, r, order):
    # the diagonals combined at (gamma, Re r) give, byte for byte, the CSR
    # sum static + gamma out (+ Re r oc) of the per-channel operators: the
    # markov splu factors I - h G, so its input must not move by one bit
    params = cw.CwParams(trap=trap(5e4), kappa1=kappa1, Omega=Omega, N=N,
                         n0_max=n0_max, n1_max=n1_max, order=order)
    G = build_generator(params, None if order == "markov" else gamma, r).matrix
    if order == "markov":
        gamma = model.gamma_markov_closed_form(params.trap)
    static, out, oc = channel_operators(cw._templates_for(params))
    summed = static + gamma * out
    if order == 4 and r.real != 0.0:
        summed = summed + r.real * oc
    for field in ("data", "indices", "indptr"):
        assert getattr(G, field).tobytes() == getattr(summed, field).tobytes()


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), wide_kappa1s, wide_Ns, wide_Omegas, wide_gammas,
       wide_rs)
def test_interior_columns_match_operator_algebra(n0c, n1c, kappa1, N, Omega, gamma, r):
    channels, worst_offdiag = _dense_channel_columns(n0c, n1c, kappa1, N, Omega, gamma, 1.3, r)
    dense = sum(channels[c] for c in ("in", "coll", "out", "oc"))
    scale = max(np.abs(dense).max(), 1.0)
    assert worst_offdiag <= 1e-11 * scale
    assert np.abs(channels["l0"]).max() <= 1e-11 * scale
    assert np.abs(dense.imag).max() <= 1e-11 * scale
    static, out, oc = channel_operators(cw._templates(n0c, n1c, kappa1, N, Omega))
    G = (static + gamma * out + r.real * oc).toarray()
    # columns whose jumps all stay inside the box
    interior = [a * (n1c + 1) + b for a in range(n0c) for b in range(n1c)]
    np.testing.assert_allclose(G[:, interior], dense.real[:, interior],
                               rtol=0.0, atol=1e-11 * scale)


def _sign(x, negative):
    return -x if negative else x


# any float64, nan, inf, zero and subnormals included; scaled mantissas near
# a rounding tie; and values just below a power of ten, whose mantissa may
# carry into the next decade
csv_values = st.one_of(
    st.floats(),
    st.builds(lambda m, e, neg: _sign(float(f"{m}5e{e}"), neg),
              st.integers(10**11, 10**12 - 1), st.integers(-330, 310), st.booleans()),
    st.builds(lambda d, e, neg: _sign(float(f"9.99999999999{d}e{e}"), neg),
              st.integers(0, 99_999), st.integers(-320, 308), st.booleans()),
)
# one row, a few rows, and more rows than one write chunk (1,024)
csv_rows = st.one_of(st.just(1), st.integers(2, 40), st.integers(1025, 2600))


@PROPERTY
@given(st.lists(csv_values, min_size=1, max_size=60), csv_rows, st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_csv_writer_matches_per_element(tmp_path_factory, pool, rows, n_columns, seed):
    # the drawn values, repeated and shuffled out to the drawn shape
    values = np.random.default_rng(seed).permutation(np.resize(pool, rows * n_columns))
    columns = [(f"c{j}", col) for j, col in enumerate(values.reshape(n_columns, rows))]
    out = tmp_path_factory.mktemp("csv")
    _write_csv(out / "new.csv", columns)
    _write_csv_per_element(out / "old.csv", columns)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


# every numeric key of the [trap], [grid] and [cw] sections of fig2 and fig7,
# plus the optional box keys of [cw]
FUZZ_KEYS = {"fig2": ("M", "omega0", "sigma_k", "Gamma", "t_max_gamma", "n_steps"),
             "fig7": ("M", "omega0", "sigma_k", "Gamma", "t_max_gamma", "n_steps",
                      "kappa1_gamma", "Omega_gamma", "N", "n0_max", "n1_max")}
# signed zeros, negatives, the edges of the float range, inf, nan, and text
# that is not a number
config_values = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "-0.0", "-1", "-5e4", "1e300", "-1e300", "1e-300",
                     "-1e-300", "1e308", "5e-324", "inf", "-inf", "nan", "-nan", "", "abc",
                     "1e", "0x10", "1,5", "5%", "%(M)s", "1_0", "true"]),
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
configs = st.sampled_from(sorted(FUZZ_KEYS)).flatmap(lambda name: st.tuples(
    st.just(name), st.dictionaries(st.sampled_from(FUZZ_KEYS[name]), config_values,
                                   min_size=1)))


@settings(PROPERTY, max_examples=400)
@given(configs)
def test_config_values_parse_or_raise_value_error(config):
    name, values = config
    text = BUILTIN_SCENARIOS[name]
    if name == "fig7":
        text += "n0_max = 200\nn1_max = 60\n"
    for key, value in values.items():
        text = re.sub(rf"^{key} = .*$", lambda _: f"{key} = {value}", text, flags=re.M)
    try:
        scen = parse_scenario(text, name)
    except ValueError:   # ConfigError, ParameterError and the like: exit 1
        return
    assert isinstance(scen, Scenario)


@settings(PROPERTY, max_examples=100)
@given(st.floats(np.log10(5e4), 8.0).map(lambda x: 10.0**x), st.sampled_from([2, 4, 6]),
       st.integers(1, 1500), st.floats(0.01, 0.999), st.booleans())
@example(3e6, 6, 1200, 1.8e-5 / 0.05 * trap(3e6).omega0, False)  # order 6 overflows exp
def test_pulsed_runs_exit_zero_or_two(tmp_path_factory, Gamma, order, n_steps, dt_share, rates):
    # a parsed pulsed scenario with dt inside solve_amplitude's limit either
    # writes its outputs or fails numerically: never exit 1, never a traceback
    p = trap(Gamma)
    dt = dt_share * min(0.05 / p.omega0, 0.05 / p.alpha)
    text = re.sub(r"^Gamma = .*$", f"Gamma = {Gamma!r}", BUILTIN_SCENARIOS["fig2"], flags=re.M)
    text = text.replace("tcl_order = 4", f"tcl_order = {order}\nrates = {rates}")
    text = text.replace("t_max_gamma = 4.0", f"t_max = {n_steps * dt!r}")
    text = text.replace("n_steps = 4000", f"n_steps = {n_steps}")
    out = tmp_path_factory.mktemp("pulsed")
    cfg = out / "fuzz.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(out)]) in (0, 2)


# 30 examples take about 0.6 s. In 1,500 random examples the difference
# reached at most 0.35 of the allowance, near the 1/3 that two second-order
# rules predict; about 1 draw in 100 lies past the breakdown line
@settings(PROPERTY, max_examples=30)
@given(st.floats(3.0, 6.0).map(lambda x: 10.0**x), st.integers(50, 1500), st.floats(0.05, 1.0))
def test_series_rates_equal_quadrature_rates(Gamma, n_steps, dt_share):
    # below the breakdown line the order-2 and order-4 series rates and shifts
    # equal the quadrature ones within the sum of both routes' halving differences
    p = trap(Gamma)
    grid = UniformGrid(0.0, dt_share * min(0.05 / p.omega0, 0.05 / p.alpha), n_steps + 1)
    assume(tcl.series_breakdown_index(series_rates(p, grid, 4)) is None)
    for order, quadrature in ((2, tcl2_rates), (4, tcl4_rates)):
        for k, by_order in enumerate(("gamma_by_order", "S_by_order")):
            def by_quadrature(g):
                return quadrature(p, g)[k]

            def by_series(g):
                return SampledFunction(g, getattr(series_rates(p, g, order), by_order)[order])

            est = halving_difference(by_quadrature, grid) + halving_difference(by_series, grid)
            diff = np.max(np.abs(by_quadrature(grid).values - by_series(grid).values))
            assert diff <= est, (order, by_order)


@settings(PROPERTY, max_examples=100)
@given(st.floats(3.0, 6.0).map(lambda x: 10.0**x), st.integers(1, 9000), st.floats(1e-3, 1.0))
def test_kernel_samples_survive_halving(Gamma, n, dt_share):
    # a pulsed run samples the memory kernel once, on the dt/2 grid, and its
    # coarse run reads the even samples: they must be the coarse grid's own
    # samples bit for bit, since (dt/2) (2k) rounds as dt k
    p = trap(Gamma)
    dt = dt_share * min(0.05 / p.omega0, 0.05 / p.alpha)
    coarse = volterra.memory_kernel(p, UniformGrid(0.0, dt, n + 1)).values
    fine = volterra.memory_kernel(p, UniformGrid(0.0, 0.5 * dt, 2 * n + 1)).values
    assert np.array_equal(coarse, fine[::2])


# At dt = 1 us the worst error at the 40 times rises from 2.0e-8 at
# Gamma = 5e4 to 1.7e-7 at 1e6. Over 302 couplings in that range it stayed
# within 0.75-1.004 of 1.7e-7 (Gamma/1e6)^0.72; the bound is 1.5 times that
# curve. 30 examples take about 0.3 s
@settings(PROPERTY, max_examples=30)
@given(st.floats(np.log10(5e4), 6.0).map(lambda x: 10.0**x))
@example(5e4)
@example(1e6)
def test_amplitude_matches_laplace_reference(Gamma):
    # solve_amplitude against the Laplace-domain solution of the same memory
    # equation, at 40 grid times in (0, 3/gamma_M]
    p = trap(Gamma)
    steps = round(3.0 / model.gamma_markov_closed_form(p) / 1e-6)
    idx = steps * np.arange(1, 41) // 40
    traj = amplitude(p, 1e-6 * steps, 1e-6)
    err = np.abs(traj.u[idx] - laplace_amplitude(p, 1e-6 * idx)).max()
    assert err <= 1.5 * 1.7e-7 * (Gamma / 1e6) ** 0.72


# each example forks one child per (order, grid) solve: 25 take about 4 s
@settings(PROPERTY, max_examples=25)
@given(st.floats(3.0, 6.0).map(lambda x: 10.0**x), boxes, boxes, st.integers(1, 40),
       st.floats(0.01, 10.0), st.floats(0.5, 100.0), st.floats(0.0, 100.0), Ns,
       st.lists(st.sampled_from(["markov", "2", "4"]), min_size=1, max_size=3, unique=True))
def test_cw_runs_never_end_in_a_traceback(tmp_path_factory, Gamma, n0_max, n1_max, n_steps,
                                          t_max_gamma, kappa1_gamma, Omega_gamma, N, orders):
    # a parsed cw scenario on a box up to 12 x 12 with at most 40 steps writes
    # its outputs (0) or stops with a handled error (1 or 2), whatever the
    # orders; main lets nothing else through
    values = {"Gamma": repr(Gamma), "t_max_gamma": repr(t_max_gamma), "n_steps": str(n_steps),
              "kappa1_gamma": repr(kappa1_gamma), "Omega_gamma": repr(Omega_gamma),
              "N": repr(N), "orders": ",".join(orders)}
    text = BUILTIN_SCENARIOS["fig7"]
    for key, value in values.items():
        text = re.sub(rf"^{key} = .*$", lambda _: f"{key} = {value}", text, flags=re.M)
    text += f"n0_max = {n0_max}\nn1_max = {n1_max}\n"
    out = tmp_path_factory.mktemp("cw")
    cfg = out / "fuzz.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # pump, clipping and negativity warnings
        assert main(["run", str(cfg), "--out", str(out)]) in (0, 1, 2)


@PROPERTY
@given(st.integers(1, 10**6), st.floats(1e-12, 1e3))
@example(30620, 5.84070183228255e-07)   # (n dt) / dt rounds a few ulp above n
@example(29286, 5.3077076661103494e-06)
def test_grid_for_whole_steps_gives_n_plus_one_points(n, dt):
    assert grid_for(n * dt, dt).n_points == n + 1
