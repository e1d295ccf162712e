"""Trap/reservoir model: constants, coupling, spectral density, memory kernel.

Frozen reference numbers were computed from independent routes (closed-form
arithmetic, scipy adaptive quadrature of the defining integrals, a Cauchy-
weight principal-value integral for the frequency shift) and hard-coded here.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import atomlaser as al
from atomlaser import DomainError, NumericalFailure, ParameterError

from conftest import OMEGA0, trap

ALPHA = 2636.4295425                    # hbar*sigma_k^2/(2M) by hand
GAMMA_M_5E4 = 92.62263163409446         # Gamma*sqrt(4pi/(omega0*alpha))*exp(-omega0/alpha)
S_M_5E4 = 62.6369815367                 # 2*PV int J(w)/(omega0-w) dw, Cauchy-weight quadrature
J_AT_OMEGA0_5E4 = 14.74134966674589
KAPPA0_SQ_5E4 = 0.01994711402007163     # Gamma/sqrt(2*pi*sigma_k^2)
RATIO_5E4 = 16.68775285582815           # 2*omega0/gamma_M
RATIO_1E5 = 8.343876427914074


def test_alpha_arithmetic():
    p = trap(5e4)
    assert p.alpha == pytest.approx(ALPHA, rel=1e-12)
    assert al.derive_alpha(p) == p.alpha
    heavier = al.TrapParams(M=4e-26, omega0=OMEGA0, sigma_k=1e6, Gamma=5e4)
    assert heavier.alpha == pytest.approx(ALPHA / 2, rel=1e-12)
    wider = al.TrapParams(M=2e-26, omega0=OMEGA0, sigma_k=2e6, Gamma=5e4)
    assert wider.alpha == pytest.approx(4 * ALPHA, rel=1e-12)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        al.TrapParams(M=0.0, omega0=OMEGA0, sigma_k=1e6, Gamma=5e4)
    with pytest.raises(ParameterError):
        al.TrapParams(M=2e-26, omega0=-1.0, sigma_k=1e6, Gamma=5e4)
    with pytest.raises(ParameterError):
        al.TrapParams(M=2e-26, omega0=OMEGA0, sigma_k=0.0, Gamma=5e4)
    with pytest.raises(ParameterError):
        al.TrapParams(M=2e-26, omega0=OMEGA0, sigma_k=1e6, Gamma=-1.0)
    # zero coupling is legal (free evolution)
    assert trap(0.0).Gamma == 0.0


@pytest.mark.parametrize("field", ["M", "omega0", "sigma_k", "Gamma", "hbar"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_parameter_validation_rejects_non_finite(field, bad):
    kwargs = dict(M=2e-26, omega0=OMEGA0, sigma_k=1e6, Gamma=5e4)
    kwargs[field] = bad
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        al.TrapParams(**kwargs)


def test_coupling_amplitude():
    p = trap(5e4)
    k0 = 1e4
    at_center = al.coupling_kappa(p, k0, k0=k0)
    # purely imaginary at the center, squared magnitude matches the closed form
    assert at_center.real == 0.0
    assert abs(at_center) ** 2 == pytest.approx(KAPPA0_SQ_5E4, rel=1e-12)
    # gaussian profile: two sigma out, |kappa|^2 drops by e^-2
    off = al.coupling_kappa(p, k0 + 2 * p.sigma_k, k0=k0)
    assert abs(off) ** 2 / abs(at_center) ** 2 == pytest.approx(np.exp(-2.0), rel=1e-12)
    # total coupling strength integrates to Gamma
    total, err = quad(lambda k: abs(al.coupling_kappa(p, k)) ** 2, -8e6, 8e6, limit=200)
    assert total == pytest.approx(5e4, rel=1e-9)


def test_spectral_density_values():
    p = trap(5e4)
    assert al.spectral_density(p, OMEGA0) == pytest.approx(J_AT_OMEGA0_5E4, rel=1e-12)
    # defining identity: the markov rate is the density at the trap frequency
    assert 2 * np.pi * al.spectral_density(p, OMEGA0) == pytest.approx(
        al.gamma_markov_closed_form(p), rel=1e-12)
    total, err = quad(lambda w: al.spectral_density(p, w), 0, np.inf, limit=400)
    assert total == pytest.approx(5e4, rel=1e-8)
    with pytest.raises(DomainError):
        al.spectral_density(p, 0.0)
    with pytest.raises(DomainError):
        al.spectral_density(p, -10.0)
    # linear in Gamma
    assert al.spectral_density(trap(1e5), 500.0) == pytest.approx(
        2 * al.spectral_density(p, 500.0), rel=1e-12)


def test_correlation_function_values():
    p = trap(5e4)
    assert al.correlation_f(p, 0.0) == pytest.approx(5e4 + 0j, rel=1e-12)
    # frozen closed-form samples (cross-checked against the J-transform quadrature)
    frozen = {
        0.5: 47115.3297413115 - 4026.62152024254j,
        3.0: 27208.6726232094 + 7089.25589361174j,
        10.0: -9228.18359124785 + 12790.6186386242j,
    }
    for ta, want in frozen.items():
        got = al.correlation_f(p, ta / ALPHA)
        assert got == pytest.approx(want, rel=1e-12)
    # magnitude decays as (1 + (alpha tau)^2)^(-1/4)
    tau = 7.0 / ALPHA
    assert abs(al.correlation_f(p, tau)) == pytest.approx(
        5e4 / (1 + 49.0) ** 0.25, rel=1e-12)
    # negative times need the explicit hermitian extension
    with pytest.raises(DomainError):
        al.correlation_f(p, -1e-3)
    assert al.correlation_f(p, -tau, extend=True) == pytest.approx(
        np.conj(al.correlation_f(p, tau)), rel=1e-12)


def test_correlation_is_transform_of_spectral_density():
    # independent route: f(tau) = int_0^inf J(w) exp(i(omega0-w) tau) dw
    p = trap(5e4)
    for ta in (0.5, 3.0):
        tau = ta / ALPHA
        re, _ = quad(lambda w: al.spectral_density(p, w) * np.cos((OMEGA0 - w) * tau),
                     0, np.inf, limit=4000)
        im, _ = quad(lambda w: al.spectral_density(p, w) * np.sin((OMEGA0 - w) * tau),
                     0, np.inf, limit=4000)
        got = al.correlation_f(p, tau)
        assert got.real == pytest.approx(re, rel=1e-7)
        assert got.imag == pytest.approx(im, rel=1e-7)


def test_phi_psi():
    p = trap(5e4)
    assert al.model.phi(p, 0.0) == pytest.approx(2 * 5e4, rel=1e-12)
    assert al.model.psi(p, 0.0) == 0.0
    tau = 2.2 / ALPHA
    f = al.correlation_f(p, tau)
    assert al.model.phi(p, tau) == pytest.approx(2 * f.real, rel=1e-12)
    assert al.model.psi(p, tau) == pytest.approx(2 * f.imag, rel=1e-12)


def test_reservoir_functions_binding():
    p = trap(5e4)
    rf = al.ReservoirFunctions(p)
    tau = 1.3 / ALPHA
    assert rf.f(tau) == al.correlation_f(p, tau)
    assert rf.phi(tau) == al.model.phi(p, tau)
    assert rf.psi(tau) == al.model.psi(p, tau)
    assert rf.J(900.0) == al.spectral_density(p, 900.0)
    assert rf.kappa(3e5) == al.coupling_kappa(p, 3e5)


def test_markov_rate_closed_form():
    assert al.gamma_markov_closed_form(trap(5e4)) == pytest.approx(
        GAMMA_M_5E4, rel=1e-12)
    # linear in Gamma
    assert al.gamma_markov_closed_form(trap(1e6)) == pytest.approx(
        20 * GAMMA_M_5E4, rel=1e-12)
    assert al.gamma_markov_closed_form(trap(0.0)) == 0.0


def test_markov_rate_quadrature_route():
    # independent route through the oscillatory-tail quadrature
    p = trap(5e4)
    assert al.gamma_markov_by_quadrature(p) == pytest.approx(GAMMA_M_5E4, rel=1e-3)


def test_markov_constants():
    p = trap(5e4)
    mc = al.markov_constants(p)
    assert mc.gamma_M == pytest.approx(GAMMA_M_5E4, rel=1e-12)
    assert mc.S_M == pytest.approx(S_M_5E4, rel=1e-5)
    assert mc.t_res == pytest.approx(0.4 / OMEGA0, rel=1e-12)
    # shift scales linearly in Gamma as well
    mc2 = al.markov_constants(trap(1e5))
    assert mc2.S_M == pytest.approx(2 * mc.S_M, rel=1e-9)


def test_markov_constants_zero_coupling():
    mc = al.markov_constants(trap(0.0))
    assert mc.gamma_M == 0.0
    assert mc.S_M == 0.0
    assert mc.t_res > 0.0


def test_timescale_ratio():
    assert al.timescale_ratio(trap(5e4)) == pytest.approx(RATIO_5E4, rel=1e-12)
    assert al.timescale_ratio(trap(1e5)) == pytest.approx(RATIO_1E5, rel=1e-12)
    with pytest.raises(ParameterError):
        al.timescale_ratio(trap(0.0))
