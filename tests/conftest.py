"""Shared fixtures. The expensive cw trajectories are session-scoped because
several tests (module-level and acceptance) read the same runs, and each
fixture computes its runs at once, one per usable CPU, through the scenario
runner's fork scheduler."""

import pytest

from atomlaser import cw, model, tcl, volterra
from atomlaser.cli import _run_calls
from atomlaser.quad import UniformGrid, grid_for, shared_points_difference


OMEGA0 = 772.8317927830892   # 2*pi*123
M_ATOM = 2e-26
SIGMA_K = 1e6


def trap(Gamma):
    return model.TrapParams(M=M_ATOM, omega0=OMEGA0, sigma_k=SIGMA_K, Gamma=Gamma)


@pytest.fixture(scope="session")
def trap5e4():
    return trap(5e4)


@pytest.fixture(scope="session")
def trap1e5():
    return trap(1e5)


@pytest.fixture(scope="session")
def trap1e6():
    return trap(1e6)


def amplitude(params, t_max, dt):
    """volterra.solve_amplitude on the memory kernel of grid_for(t_max, dt)."""
    return volterra.solve_amplitude(params, volterra.memory_kernel(params, grid_for(t_max, dt)))


def series_rates(params, grid, order_max=6):
    """tcl.tcl_series_rates on the memory kernel of params sampled on grid."""
    return tcl.tcl_series_rates(volterra.memory_kernel(params, grid), order_max)


def halving_difference(compute, grid):
    """max |curve(dt) - curve(2 dt)| on shared points.

    compute maps a grid to a SampledFunction. For an order-2 rule the true
    fine-grid error is about a third of this difference; tests use the raw
    difference as a conservative tolerance.
    """
    coarse = UniformGrid(grid.t0, 2.0 * grid.dt, (grid.n_points + 1) // 2)
    return shared_points_difference(compute(grid).values, compute(coarse).values)


def cw_params(t, order, n0_max=200, n1_max=60, N=20.3):
    gm = model.gamma_markov_closed_form(t)
    return cw.CwParams(trap=t, kappa1=10 * gm, Omega=15 * gm, N=N,
                       n0_max=n0_max, n1_max=n1_max, order=order)


def evolve_here(*args):
    """cw.evolve called from this module, so that the warnings it raises
    with stacklevel=2 name this file whether the call runs forked or not."""
    return cw.evolve(*args)


def evolve_orders(t, orders, n_steps):
    """{order: cw.evolve from the vacuum over 8/gamma_M} at the default box,
    the banded orders first; plus "gamma_M"."""
    gm = model.gamma_markov_closed_form(t)
    t_max = 8.0 / gm
    calls = [(f"order {order}", order != "markov", evolve_here,
              (cw_params(t, order), cw.DiagonalState.vacuum(200, 60), t_max, t_max / n_steps))
             for order in orders]
    out = dict(zip(orders, list(_run_calls(calls))))
    out["gamma_M"] = gm
    return out


@pytest.fixture(scope="session")
def fig7_runs(trap5e4):
    """markov / order-2 / order-4 cw runs in the oscillation regime."""
    return evolve_orders(trap5e4, ("markov", 2, 4), 800)


@pytest.fixture(scope="session")
def weak_cw_runs():
    """order-2 / order-4 cw runs in the weak-oscillation regime."""
    return evolve_orders(trap(1e4), (2, 4), 2160)


@pytest.fixture(scope="session")
def stationary_default(trap5e4):
    """Exact stationary distribution of the Markovian generator, default box."""
    params = cw_params(trap5e4, "markov")
    return params, cw.stationary_distribution(params)
