"""Shared fixtures. The expensive cw trajectories are session-scoped because
several tests (module-level and acceptance) read the same runs."""

import numpy as np
import pytest

from atomlaser import cw, model


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


def cw_params(t, order, n0_max=200, n1_max=60, N=20.3):
    gm = model.gamma_markov_closed_form(t)
    return cw.CwParams(trap=t, kappa1=10 * gm, Omega=15 * gm, N=N,
                       n0_max=n0_max, n1_max=n1_max, order=order)


@pytest.fixture(scope="session")
def fig7_runs(trap5e4):
    """markov / order-2 / order-4 cw runs in the oscillation regime."""
    gm = model.gamma_markov_closed_form(trap5e4)
    t_max = 8.0 / gm
    out = {}
    for order in ("markov", 2, 4):
        params = cw_params(trap5e4, order)
        p0 = cw.DiagonalState.vacuum(200, 60)
        out[order] = cw.evolve(params, p0, t_max, t_max / 800)
    out["gamma_M"] = gm
    return out


@pytest.fixture(scope="session")
def weak_cw_runs():
    """order-2 / order-4 cw runs in the weak-oscillation regime."""
    t = trap(1e4)
    gm = model.gamma_markov_closed_form(t)
    t_max = 8.0 / gm
    out = {}
    for order in (2, 4):
        params = cw_params(t, order)
        p0 = cw.DiagonalState.vacuum(200, 60)
        out[order] = cw.evolve(params, p0, t_max, t_max / 2160)
    out["gamma_M"] = gm
    return out


@pytest.fixture(scope="session")
def stationary_default(trap5e4):
    """Exact stationary distribution of the Markovian generator, default box."""
    params = cw_params(trap5e4, "markov")
    return params, cw.stationary_distribution(params)
