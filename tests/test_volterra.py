"""Exact amplitude dynamics via the memory integro-differential equation."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomlaser import ConfigError, GridError, NumericalFailure, model, volterra
from atomlaser.quad import SampledFunction, UniformGrid, cumulative_integral
from atomlaser.volterra import RATE_CUTOFF, AmplitudeTrajectory

from conftest import trap
from reference import laplace_amplitude

ALPHA = 2636.4295425
GAMMA_M_5E4 = 92.62263163409446


def reference_march(kernel, max_growth=None):
    """Step-by-step march of the discrete scheme, one history dot per step.

    O(n^2) reference for solve_volterra, which solves the same scheme as one
    Toeplitz system; the two agree up to rounding.
    """
    k = np.ascontiguousarray(kernel.values, dtype=complex)
    dt = kernel.grid.dt
    n = kernel.grid.n_points
    u = np.empty(n, dtype=complex)
    udot = np.empty(n, dtype=complex)
    # reversed copy of u so the history dot product runs on a contiguous slice
    u_rev = np.empty(n, dtype=complex)
    u[0] = 1.0
    udot[0] = 0.0
    u_rev[n - 1] = 1.0
    den = 1.0 + dt * dt * k[0] / 4.0
    for j in range(1, n):
        hist = np.dot(k[1:j], u_rev[n - j : n - 1]) if j > 1 else 0.0
        edge = 0.5 * k[j] * u[0]
        rhs = u[j - 1] + 0.5 * dt * udot[j - 1] - 0.5 * dt * dt * (hist + edge)
        u[j] = rhs / den
        u_rev[n - 1 - j] = u[j]
        udot[j] = -dt * (0.5 * k[0] * u[j] + hist + edge)
        if max_growth is not None and abs(u[j]) > max_growth:
            raise NumericalFailure(
                f"amplitude grew to |u| = {abs(u[j]):.6f} at step {j}; the scheme has destabilized"
            )
    return u, udot


def _assert_matches_reference(kernel):
    u, udot = volterra.solve_volterra(kernel, np.inf)
    u_ref, udot_ref = reference_march(kernel)
    assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
    assert np.abs(udot - udot_ref).max() <= 1e-12 * max(np.abs(udot_ref).max(), 1e-300)
    rates = volterra.exact_rates(AmplitudeTrajectory(kernel.grid, u, udot))
    rates_ref = volterra.exact_rates(AmplitudeTrajectory(kernel.grid, u_ref, udot_ref))
    assert rates.truncation_index == rates_ref.truncation_index
    # exact_rates keeps only the samples with |u| >= RATE_CUTOFF
    gam, gam_ref = rates.gamma.values, rates_ref.gamma.values
    assert np.abs(gam - gam_ref).max() <= 1e-9 * max(np.abs(gam_ref).max(), 1e-300)
    return u_ref


@pytest.mark.parametrize("grid_name, t_max_gamma, n_steps", [("fig2", 4.0, 4000),
                                                             ("fig4", 10.0, 5400)])
@pytest.mark.parametrize("Gamma", [5e4, 1e5, 1e6])
def test_matches_reference_march_on_trap_kernels(Gamma, grid_name, t_max_gamma, n_steps):
    p = trap(Gamma)
    dt = t_max_gamma / model.gamma_markov_closed_form(p) / n_steps
    g = UniformGrid(0.0, dt, n_steps + 1)
    _assert_matches_reference(SampledFunction(g, np.conj(model.correlation_f(p, g.times()))))


def test_matches_reference_march_through_amplitude_collapse():
    # k(tau) = a exp(-(a - 3i) tau) with a >> 1 gives u ~ exp(-t): |u| falls
    # to ~6e-7, so the rates lose digits and the cutoff truncates them
    g = UniformGrid(0.0, 14.0 / 2000, 2001)
    kernel = SampledFunction(g, 50.0 * np.exp(-(50.0 - 3.0j) * g.times()))
    u_ref = _assert_matches_reference(kernel)
    assert 1e-7 < np.abs(u_ref).min() < RATE_CUTOFF


@pytest.mark.parametrize("n_points", [2, 3, 64, 65, 66, 129])
def test_matches_reference_march_at_leaf_boundaries(n_points):
    g = UniformGrid(0.0, 1e-3, n_points)
    t = g.times()
    kernel = SampledFunction(g, 4e4 * np.exp(-300.0 * t) * (1.0 + 0.3j * np.cos(900.0 * t)))
    _assert_matches_reference(kernel)


# a sum of damped complex exponentials a exp(-(g - i w) tau) with a, g > 0:
# each has a non-negative spectrum, so |u| <= 1
exponentials = st.tuples(st.floats(0.0, 40.0), st.floats(0.1, 30.0), st.floats(-60.0, 60.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 12), st.sampled_from([-1, 0, 1]), st.floats(0.5, 5.0),
       st.lists(exponentials, min_size=1, max_size=3))
@example(4, 0, 1.0, [(20.0, 1.0, 5.0)])    # 256 unknowns
@example(4, 1, 1.0, [(20.0, 1.0, 5.0)])    # 257 unknowns
@example(0, 1, 1.0, [(20.0, 1.0, 5.0)])    # 1 unknown: no tail to the Karp-Markstein step
@example(0, 2, 1.0, [(20.0, 1.0, 5.0)])    # 2 unknowns
@example(0, 3, 1.0, [(20.0, 1.0, 5.0)])    # 3 unknowns: odd, the head one longer than the tail
@example(1, -1, 2.0, [(30.0, 2.0, -8.0)])  # 63 = 2^6 - 1 unknowns
@example(1, 1, 2.0, [(30.0, 2.0, -8.0)])   # 65 = 2^6 + 1 unknowns
@example(2, -1, 2.0, [(30.0, 2.0, -8.0)])  # 127 = 2^7 - 1 unknowns
@example(2, 1, 2.0, [(30.0, 2.0, -8.0)])   # 129 = 2^7 + 1: the first Newton doubling
@example(16, -1, 3.0, [(25.0, 0.5, 40.0)])  # 1023 = 2^10 - 1 unknowns
@example(16, 1, 3.0, [(25.0, 0.5, 40.0)])   # 1025 = 2^10 + 1 unknowns
def test_toeplitz_solve_matches_reference_march(leaves, offset, t_max, terms):
    # 64 k - 1, 64 k and 64 k + 1 unknowns u_1..u_{n-1}, up to 769, and the
    # examples above: Newton doublings that start at volterra.LEAF terms or
    # fewer, and odd and even splits of the Karp-Markstein step
    g = UniformGrid(0.0, t_max / (64 * leaves + offset), 64 * leaves + offset + 1)
    t = g.times()
    k = sum(a * np.exp(-(gam - 1j * w) * t) for a, gam, w in terms)
    kernel = SampledFunction(g, k + 0j)
    u, udot = volterra.solve_volterra(kernel, np.inf)
    u_ref, udot_ref = reference_march(kernel)
    assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
    assert np.abs(udot - udot_ref).max() <= 1e-12 * max(np.abs(udot_ref).max(), 1e-300)


@pytest.mark.parametrize("unknowns", [8000, 10799])
def test_toeplitz_solve_fft_budget(unknowns, monkeypatch):
    # five numpy FFT calls per Newton doubling, at most ceil(log2 n) - 6
    # doublings from a start of volterra.LEAF = 64 terms, and eight for the
    # Karp-Markstein step: 5 ceil(log2 n) - 22 in all (43 and 48 here). The
    # recursive halving this solve replaced made 71 and 139 calls
    calls = []
    for name in ("fft", "ifft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    t = 0.5 ** np.arange(unknowns) + 0j
    b = np.ones(unknowns, dtype=complex)
    x = volterra._solve_lower_toeplitz(t, b)
    assert len(calls) <= 5 * math.ceil(math.log2(unknowns)) - 22
    # b(z)/t(z) = (1 - z/2)/(1 - z) = 1 + z/2 + z^2/2 + ...
    np.testing.assert_allclose(x, np.r_[1.0, np.full(unknowns - 1, 0.5)], rtol=1e-12)


@pytest.mark.parametrize("Gamma", [5e4, 1e5, 1e6])
def test_amplitude_converges_to_laplace_reference(Gamma):
    # an answer reached by another road: the Laplace-domain solution of the
    # same memory equation (tests/reference.py), sampled at 40 times in
    # (0, 3/gamma_M] that the grids at dt = 4, 2 and 1 us share; the error
    # falls as dt^2
    p = trap(Gamma)
    steps = round(3.0 / model.gamma_markov_closed_form(p) / 4e-6)
    coarse = steps * np.arange(1, 41) // 40  # indices on the 4 us grid
    u_ref = laplace_amplitude(p, 4e-6 * coarse)
    errors = []
    for m in (1, 2, 4):
        traj = volterra.solve_amplitude(p, 4e-6 * steps, 4e-6 / m)
        errors.append(np.abs(traj.u[m * coarse] - u_ref).max())
    assert errors[2] < 2e-7
    assert 3.8 < errors[0] / errors[1] < 4.2
    assert 3.8 < errors[1] / errors[2] < 4.2


def test_zero_coupling_is_free():
    traj = volterra.solve_amplitude(trap(0.0), t_max=1e-3, dt=1e-6)
    np.testing.assert_allclose(traj.u, 1.0, atol=1e-14)
    np.testing.assert_allclose(traj.udot, 0.0, atol=1e-14)
    n = volterra.occupation(traj)
    np.testing.assert_allclose(n.values, 1.0, atol=1e-14)


def test_constant_kernel_gives_cosine():
    # with kernel k(tau) = c the equation closes to u'' = -c u, so u = cos(sqrt(c) t)
    c = 400.0
    g = UniformGrid(0.0, 2e-4, 5001)
    kernel = SampledFunction(g, np.full(g.n_points, c, dtype=complex))
    u, udot = volterra.solve_volterra(kernel, np.inf)
    t = g.times()
    np.testing.assert_allclose(u.real, np.cos(np.sqrt(c) * t), atol=5e-5)
    np.testing.assert_allclose(u.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(udot.real, -np.sqrt(c) * np.sin(np.sqrt(c) * t),
                               atol=5e-3)


def test_short_time_quadratic_depletion():
    # n(t) ~ 1 - Gamma t^2 before the kernel decorrelates
    p = trap(5e4)
    t_probe = 1e-3 / ALPHA
    traj = volterra.solve_amplitude(p, t_max=t_probe, dt=t_probe / 50)
    n_end = abs(traj.u[-1]) ** 2
    expected = 1.0 - p.Gamma * traj.grid.t_end ** 2
    assert n_end == pytest.approx(expected, rel=1e-2)


def test_weak_coupling_matches_markov():
    # at Gamma = 1e3 the memory correction is tiny; n should track exp(-gamma_M t)
    p = trap(1e3)
    gm = model.gamma_markov_closed_form(p)
    t_max = 3.0 / gm
    traj = volterra.solve_amplitude(p, t_max=t_max, dt=0.05 / ALPHA)
    n = volterra.occupation(traj)
    markov = np.exp(-gm * traj.grid.times())
    assert np.max(np.abs(n.values - markov) / markov) < 0.02


def test_strong_coupling_decays_slower_than_markov():
    p = trap(5e4)
    t_probe = 2.0 / GAMMA_M_5E4
    traj = volterra.solve_amplitude(p, t_max=t_probe, dt=1e-5)
    n_end = abs(traj.u[-1]) ** 2
    assert n_end > np.exp(-2.0)


def test_exact_rates_zero_coupling():
    traj = volterra.solve_amplitude(trap(0.0), t_max=1e-3, dt=1e-6)
    rates = volterra.exact_rates(traj)
    assert rates.truncation_index is None
    np.testing.assert_allclose(rates.gamma.values, 0.0, atol=1e-14)
    np.testing.assert_allclose(rates.shift.values, 0.0, atol=1e-14)


def test_exact_rate_early_slope():
    # gamma(t) ~ 2 Gamma t while the kernel still looks constant
    p = trap(5e4)
    t_probe = 2e-3 / ALPHA
    traj = volterra.solve_amplitude(p, t_max=t_probe, dt=t_probe / 100)
    rates = volterra.exact_rates(traj)
    t = rates.gamma.grid.times()[1:]
    np.testing.assert_allclose(rates.gamma.values[1:], 2.0 * p.Gamma * t, rtol=5e-3)


def test_rate_integral_reproduces_occupation():
    # internal consistency: exp(-int gamma dt) must equal |u|^2
    p = trap(5e4)
    traj = volterra.solve_amplitude(p, t_max=2.0 / GAMMA_M_5E4, dt=1e-5)
    rates = volterra.exact_rates(traj)
    w = cumulative_integral(rates.gamma)
    n = volterra.occupation(traj)
    assert np.max(np.abs(np.exp(-w.values) - n.values)) < 1e-4


def test_refinement_is_second_order():
    p = trap(5e4)
    # t_max commensurate with every dt below, so all runs end at the same time
    t_max = 0.00512

    def n_end(dt):
        traj = volterra.solve_amplitude(p, t_max=t_max, dt=dt)
        assert abs(traj.grid.t_end - t_max) < 1e-12
        return abs(traj.u[-1]) ** 2

    exact = n_end(5e-7)
    e1 = abs(n_end(1.6e-5) - exact)
    e2 = abs(n_end(8e-6) - exact)
    assert 2.67 <= e1 / e2 <= 6.0


def test_monotone_decay_at_moderate_coupling():
    p = trap(1e4)
    gm = model.gamma_markov_closed_form(p)
    traj = volterra.solve_amplitude(p, t_max=2.0 / gm, dt=1.5e-5)
    n = volterra.occupation(traj).values
    assert np.all(np.diff(n) <= 1e-12)


def test_config_errors():
    p = trap(5e4)
    with pytest.raises(ConfigError):
        volterra.solve_amplitude(p, t_max=-1.0, dt=1e-5)
    with pytest.raises(ConfigError):
        volterra.solve_amplitude(p, t_max=0.0, dt=1e-5)
    with pytest.raises(ConfigError):
        # coarser than 0.05/omega0
        volterra.solve_amplitude(p, t_max=1e-2, dt=0.2 / p.omega0)


def test_shared_kernel_must_sit_on_the_solve_grid():
    p = trap(5e4)
    kernel = volterra.memory_kernel(p, UniformGrid(0.0, 1e-5, 101))
    traj = volterra.solve_amplitude(p, 1e-3, 1e-5, kernel)
    np.testing.assert_array_equal(traj.u, volterra.solve_amplitude(p, 1e-3, 1e-5).u)
    with pytest.raises(GridError):
        volterra.solve_amplitude(p, 1.01e-3, 1e-5, kernel)


def test_divergence_detection():
    # a negative constant kernel makes u'' = +|c| u, growing like cosh;
    # the growth guard must abort rather than return garbage. At c = -1e6
    # |u| passes 1.001 at step 1 and the solution overflows long before the
    # grid ends; the report still names step 1 and its finite |u|
    g = UniformGrid(0.0, 2e-4, 5001)
    step = re.compile(r"\|u\| = ([0-9.]+) at step (\d+);")
    for c in (-400.0, -1e6):
        kernel = SampledFunction(g, np.full(g.n_points, c, dtype=complex))
        with pytest.raises(NumericalFailure) as fast:
            volterra.solve_volterra(kernel, max_growth=1.001)
        with pytest.raises(NumericalFailure) as ref:
            reference_march(kernel, max_growth=1.001)
        assert step.search(str(fast.value)).groups() == step.search(str(ref.value)).groups()


def test_singular_implicit_diagonal():
    # 1 + dt^2 k_0 / 4 = 0 for c = -1e8 at dt = 2e-4: no step can be taken
    g = UniformGrid(0.0, 2e-4, 5001)
    kernel = SampledFunction(g, np.full(g.n_points, -1e8, dtype=complex))
    with pytest.raises(NumericalFailure, match="implicit diagonal .* is zero"):
        volterra.solve_volterra(kernel, max_growth=1.001)


def test_rate_truncation_when_amplitude_collapses():
    # synthetic decaying amplitude crossing the cutoff mid-grid
    g = UniformGrid(0.0, 0.01, 400)
    t = g.times()
    u = np.exp(-5.0 * t) + 0j          # falls below 1e-6 near t = 2.76
    udot = -5.0 * u
    traj = AmplitudeTrajectory(g, u, udot)
    rates = volterra.exact_rates(traj)
    assert rates.truncation_index is not None
    assert rates.gamma.grid.n_points == rates.truncation_index
    assert rates.gamma.grid.t_end < g.t_end
    np.testing.assert_allclose(rates.gamma.values, 10.0, rtol=1e-12)


def test_rates_fail_when_amplitude_dead_from_start():
    g = UniformGrid(0.0, 0.01, 50)
    u = np.full(50, 1e-9, dtype=complex)
    traj = AmplitudeTrajectory(g, u, np.zeros(50, dtype=complex))
    with pytest.raises(NumericalFailure):
        volterra.exact_rates(traj)
