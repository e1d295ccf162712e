"""Grid quadrature: running integrals, convolutions, and the ordered triple
integrals of the order-4 quadrature reference."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlaser import ConfigError, GridError, ParameterError, cli, cw, volterra
from atomlaser.quad import (
    SampledFunction,
    UniformGrid,
    cumulative_integral,
    grid_for,
    iterated_convolution,
    next_fast_len,
)

from conftest import cw_params, halving_difference, trap
from reference import ordered_triple_direct, ordered_triple_factored, sample


def test_grid_validation():
    with pytest.raises(GridError):
        UniformGrid(0.0, -0.1, 10)
    with pytest.raises(GridError):
        UniformGrid(0.0, 0.0, 10)
    with pytest.raises(GridError):
        UniformGrid(0.0, 0.1, 1)
    g = UniformGrid(1.0, 0.5, 5)
    assert g.t_end == pytest.approx(3.0)
    np.testing.assert_allclose(g.times(), [1.0, 1.5, 2.0, 2.5, 3.0])


def test_grid_for_covers():
    g = grid_for(1.0, 0.3)
    assert g.t_end >= 1.0 - 1e-12
    assert g.n_points == 5
    # exact division stays exact
    g2 = grid_for(1.0, 0.25)
    assert g2.n_points == 5
    with pytest.raises(ConfigError, match="t_max/dt must be finite"):
        grid_for(1e300, 1e-300)


@pytest.mark.parametrize("arg", ["t_max", "dt"])
@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
def test_solver_entry_points_reject_bad_grids(arg, bad):
    # grid_for is the one place (t_max, dt) becomes a grid, so cw.evolve
    # refuses a bad value with a ConfigError that names it; the Volterra
    # solve takes no (t_max, dt), only a kernel sampled on a grid
    good = {"t_max": 1e-3, "dt": 1e-5}
    kwargs = {**good, arg: bad}
    match = f"{arg} must be finite and positive"
    with pytest.raises(ConfigError, match=match):
        grid_for(**kwargs)
    params = cw_params(trap(5e4), "markov", n0_max=5, n1_max=5)
    with pytest.raises(ConfigError, match=match):
        cw.evolve(params, cw.DiagonalState.vacuum(5, 5), **kwargs)


def test_sampled_function_validation():
    g = UniformGrid(0.0, 0.1, 4)
    with pytest.raises(GridError):
        SampledFunction(g, np.zeros(5))
    with pytest.raises(GridError):
        SampledFunction(g, np.array([0.0, 1.0, np.nan, 2.0]))
    f = sample(np.sin, g)
    np.testing.assert_allclose(f.values, np.sin(g.times()))


def test_cumulative_integral_linear_exact():
    # trapezoid integrates polynomials of degree <= 1 exactly
    g = UniformGrid(0.0, 0.05, 201)
    t = g.times()
    f = SampledFunction(g, 3.0 * t + 2.0)
    v = cumulative_integral(f)
    assert v.values[0] == 0.0
    np.testing.assert_allclose(v.values, 1.5 * t**2 + 2.0 * t, atol=1e-12)


def test_cumulative_integral_linearity():
    g = UniformGrid(0.0, 0.02, 300)
    t = g.times()
    a = SampledFunction(g, np.cos(t))
    b = SampledFunction(g, t**2)
    combo = SampledFunction(g, 2.0 * a.values - 5.0 * b.values)
    lhs = cumulative_integral(combo).values
    rhs = 2.0 * cumulative_integral(a).values - 5.0 * cumulative_integral(b).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_convolution_of_ones_is_t():
    g = UniformGrid(0.0, 0.01, 500)
    ones = SampledFunction(g, np.ones(g.n_points))
    v = iterated_convolution(ones, ones)
    assert v.values[0] == 0.0
    np.testing.assert_allclose(v.values, g.times(), atol=1e-10)


def test_convolution_exponential():
    # exp(-tau) * 1 = 1 - exp(-t)
    g = UniformGrid(0.0, 0.005, 800)
    t = g.times()
    ker = SampledFunction(g, np.exp(-t))
    one = SampledFunction(g, np.ones_like(t))
    v = iterated_convolution(ker, one)
    np.testing.assert_allclose(v.values, 1.0 - np.exp(-t), atol=2e-6)


# sizes 2 and 3 (a grid of one point is refused, see test_grid_validation),
# and either side of the 11-smooth lengths that 2n - 1 reaches (n = 6: 11,
# n = 7: 13 -> 14, n = 40: 79 -> 80, n = 41: 81)
CONVOLVE_SIZES = st.one_of(st.sampled_from([2, 3, 6, 7, 40, 41, 2048, 2049]),
                           st.integers(2, 300))


@pytest.mark.parametrize("kinds", ["rr", "cc", "rc", "cr"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=CONVOLVE_SIZES, seed=st.integers(0, 2**32 - 1))
def test_convolve_matches_direct_convolution(kinds, n, seed):
    # the one FFT convolution of the package against numpy's direct sum, for
    # real and complex samples and operands
    rng = np.random.default_rng(seed)

    def draw(kind):
        x = rng.standard_normal(n)
        return x + 1j * rng.standard_normal(n) if kind == "c" else x

    a, b = draw(kinds[0]), draw(kinds[1])
    got = SampledFunction(UniformGrid(0.0, 1.0, n), a).convolve(b)
    want = np.convolve(a, b)[:n]
    assert got.shape == (n,)
    assert np.iscomplexobj(got) == (kinds != "rr")
    scale = np.abs(a).sum() * np.abs(b).max()
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_next_fast_len_matches_scipy():
    # every FFT length of the convolutions and the Volterra solve comes from
    # here, and all operands are complex; pocketfft's bits depend on the
    # length, so it stays scipy's complex length
    ns = range(1, 70_000)
    assert [n for n in ns if next_fast_len(n) != scipy.fft.next_fast_len(n, False)] == []


def test_pulsed_run_transforms_the_kernel_once(monkeypatch):
    # the exact solve and the series rates of one grid share one kernel
    # spectrum: one transform of the conj f samples at the kernel length
    scen = cli.parse_scenario(cli.BUILTIN_SCENARIOS["fig3"], "fig3")
    n_steps, dt = 500, scen.dt
    grid = UniformGrid(0.0, dt, n_steps + 1)
    kernel = volterra.memory_kernel(scen.trap, grid)
    samples = kernel.values
    size = next_fast_len(2 * grid.n_points - 1)
    seen = []
    real_fft = np.fft.fft

    def counting_fft(a, n=None, *args, **kwargs):
        if n == size and np.array_equal(a, samples):
            seen.append(n)
        return real_fft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    cli._pulsed_columns(scen, kernel)
    assert seen == [size]


def test_convolution_bilinearity_and_grid_check():
    g = UniformGrid(0.0, 0.01, 200)
    t = g.times()
    a = SampledFunction(g, np.sin(3 * t))
    b = SampledFunction(g, np.cos(t))
    u = SampledFunction(g, np.exp(-0.5 * t))
    lhs = iterated_convolution(
        SampledFunction(g, 2.0 * a.values + b.values), u).values
    rhs = 2.0 * iterated_convolution(a, u).values + iterated_convolution(b, u).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    other = SampledFunction(UniformGrid(0.0, 0.02, 200), np.ones(200))
    with pytest.raises(GridError):
        iterated_convolution(a, other)


def test_triple_constant_integrand():
    # g = 1 over the ordered simplex gives t^3/6; both routes must agree
    t, dt = 1.0, 0.02
    want = t**3 / 6.0
    direct = ordered_triple_direct(lambda t1, t2, t3: np.ones_like(t3), t, dt)
    assert direct.real == pytest.approx(want, rel=2e-3)
    g = grid_for(t, dt)
    ones = SampledFunction(g, np.ones(g.n_points, dtype=complex))
    for pairing in ("outer-mid", "outer-late"):
        curve = ordered_triple_factored(ones, ones, pairing)
        assert curve.values[-1].real == pytest.approx(want, rel=2e-3)
        assert curve.values[0] == 0.0
    with pytest.raises(ParameterError):
        ordered_triple_factored(ones, ones, "sideways")


def test_triple_linear_integrand():
    # g = t1 over the simplex: integral = t^4/8
    t, dt = 1.0, 0.02
    direct = ordered_triple_direct(
        lambda t1, t2, t3: t1 * np.ones_like(t3), t, dt)
    assert direct.real == pytest.approx(t**4 / 8.0, rel=2e-3)


@pytest.mark.parametrize("pairing", ["outer-mid", "outer-late"])
def test_factored_matches_direct(pairing):
    # a(x) = exp(-x), b(x) = cos(5x); the two pairings hit different argument
    # combinations, so check each against its own direct nested rule
    t, dt = 0.8, 0.008
    g = grid_for(t, dt)
    x = g.times()
    a = SampledFunction(g, np.exp(-x).astype(complex))
    b = SampledFunction(g, np.cos(5 * x).astype(complex))
    if pairing == "outer-mid":
        integrand = lambda t1, t2, t3: np.exp(-(t - t2)) * np.cos(5 * (t1 - t3))
    else:
        integrand = lambda t1, t2, t3: np.exp(-(t - t3)) * np.cos(5 * (t1 - t2))
    direct = ordered_triple_direct(integrand, t, dt)
    fast = complex(ordered_triple_factored(a, b, pairing).values[round(t / dt)])
    assert fast == pytest.approx(direct, rel=1e-3, abs=1e-9)


def test_factored_refinement_is_second_order():
    # halving dt should shrink the fast-route error by about 4
    t = 0.8

    def run(dt):
        g = grid_for(t, dt)
        x = g.times()
        a = SampledFunction(g, np.exp(-x).astype(complex))
        b = SampledFunction(g, np.cos(5 * x).astype(complex))
        return complex(ordered_triple_factored(a, b, "outer-mid").values[round(t / dt)])

    exact = run(0.0005)
    e1 = abs(run(0.008) - exact)
    e2 = abs(run(0.004) - exact)
    assert 2.67 <= e1 / e2 <= 6.0


def test_halving_difference_tracks_error():
    g = UniformGrid(0.0, 0.01, 401)

    def compute(grid):
        f = sample(lambda t: np.sin(2 * t), grid)
        return cumulative_integral(f)

    est = halving_difference(compute, g)
    t = g.times()
    true_err = np.max(np.abs(
        cumulative_integral(sample(lambda x: np.sin(2 * x), g)).values
        - (1 - np.cos(2 * t)) / 2))
    # halving difference should bound the fine-grid error (roughly 3x it)
    assert est > true_err
    assert est < 10 * true_err
