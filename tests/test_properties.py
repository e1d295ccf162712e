"""Property tests of the cw generator assembly and stationary solve over
random small boxes and rates, of the CSV writer over arbitrary floats, and of config parsing over
hostile values. Derandomized: every run draws the same examples, so a
failure always reproduces."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from atomlaser import cw
from atomlaser.cli import BUILTIN_SCENARIOS, Scenario, _write_csv, parse_scenario

from conftest import trap
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


def _from_band(bs, band):
    """The dense matrix whose LAPACK band rows bs.rows are `band`; entries
    that fall outside the matrix must be zero."""
    dim = band.shape[1]
    dense = np.zeros((dim, dim))
    j = np.arange(dim)
    for row, vals in zip(bs.rows, band):
        i = j + (row - bs.upper)
        inside = (i >= 0) & (i < dim)
        assert not vals[~inside].any()
        dense[i[inside], j[inside]] = vals[inside]
    return dense


@PROPERTY
@given(boxes, boxes, kappa1s, Ns, Omegas)
def test_band_rows_rebuild_templates(n0_max, n1_max, kappa1, N, Omega):
    tpl = cw._templates(n0_max, n1_max, kappa1, N, Omega)
    bs = cw._band_storage(tpl)
    rows = bs.rows
    assert np.all(np.diff(rows) > 0)
    assert rows[0] >= 0 and rows[-1] <= bs.lower + bs.upper
    assert bs.upper in rows
    pairs = ((bs.static, tpl.static), (bs.out, tpl.out),
             (bs.oc, tpl.oc), (bs.eye, sp.identity(tpl.dim)))
    for band, mat in pairs:
        assert band.shape == (rows.size, tpl.dim)
        np.testing.assert_array_equal(_from_band(bs, band), mat.toarray())
    # every stored row but the main diagonal holds an entry of some template
    used = np.abs(bs.static) + np.abs(bs.out) + np.abs(bs.oc)
    assert np.all(used.any(axis=1) | (rows == bs.upper))


@PROPERTY
@given(boxes, boxes, kappa1s, Ns, Omegas)
def test_stationary_solves_the_generator(n0_max, n1_max, kappa1, N, Omega):
    params = cw.CwParams(trap=trap(5e4), kappa1=kappa1, Omega=Omega, N=N,
                         n0_max=n0_max, n1_max=n1_max)
    state = cw.stationary_distribution(params)
    p = state.p.ravel()
    G, leak = cw.build_generator(params)
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
    gen = cw.build_generator(params, None if order == "markov" else gamma, r)
    colsum = np.asarray(gen.matrix.sum(axis=0)).ravel() + gen.leak
    scale = max(np.abs(gen.matrix.data).max(), 1.0)
    assert np.abs(colsum).max() <= 1e-12 * scale
    assert np.all(gen.leak >= 0.0) or order == 4   # only the cross term leaks negative


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), kappa1s, Ns, Omegas, gammas, rs)
def test_interior_columns_match_operator_algebra(n0c, n1c, kappa1, N, Omega, gamma, r):
    channels, worst_offdiag = cw._dense_channel_columns(n0c, n1c, kappa1, N, Omega,
                                                        gamma, 1.3, r)
    dense = sum(channels[c] for c in ("in", "coll", "out", "oc"))
    scale = max(np.abs(dense).max(), 1.0)
    assert worst_offdiag <= 1e-11 * scale
    assert np.abs(channels["l0"]).max() <= 1e-11 * scale
    assert np.abs(dense.imag).max() <= 1e-11 * scale
    tpl = cw._templates(n0c, n1c, kappa1, N, Omega)
    G = (tpl.static + gamma * tpl.out + r.real * tpl.oc).toarray()
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
