"""Continuous-wave laser dynamics on a truncated two-mode diagonal Fock space.

Mode 1 is pumped by a thermal reservoir (rate kappa1, occupancy N), two mode-1
atoms collide to feed one atom into the condensate mode 0 (strength Omega),
and mode 0 drains through the non-Markovian output coupler at the time-local
rate gamma(t) of the pulsed theory. All four channels map diagonal density
matrix elements to diagonal ones, so the state is a probability vector
p(n0, n1) and the generator a sparse rate matrix.

At fourth order an extra output-collision cross term appears whose weight is
the complex history integral r(t); it is not of Lindblad form (its rate matrix
carries a negative off-diagonal entry), so small transient negativities of p
are tolerated and flagged instead of treated as errors.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import model, tcl
from .errors import GeneratorError, NumericalFailure, ParameterError
from .quad import SampledFunction, UniformGrid, cumulative_integral, grid_for, sample

__all__ = [
    "CwParams",
    "DiagonalState",
    "CwTrajectory",
    "r_function",
    "build_generator",
    "verify_diagonal_closure",
    "steady_state_markov",
    "stationary_distribution",
    "evolve",
]

ORDERS = ("markov", 2, 4)
R_READINGS = ("outer", "inner")

# |sum p + clipped - 1| beyond this aborts a run
CONSERVATION_TOL = 1e-6
# negative probability beyond this is an error (Lindblad orders) or a flagged
# warning (order 4, whose generator is legitimately not Lindblad)
NEGATIVITY_TOL = 1e-6
# clipped boundary flux beyond this marks the truncation as too tight
CLIP_WARN = 1e-3
# implicit-stepper startup: this many leading steps are taken as pairs of
# backward-Euler half-steps to damp the stiff transient
RANNACHER_STEPS = 4
# verify_diagonal_closure checks the templates on the (CLOSURE_N, CLOSURE_N) box
CLOSURE_N = 3


# scipy loads on the first cw solve, not when cw is imported: `import
# atomlaser.cli` imports cw, and a pulsed run needs numpy only. These three
# names stay module-level callables, called through this module's globals,
# because perfbench/layertrace.py (1) reads the import time of atomlaser.cw
# from `python -X importtime -c "import atomlaser.cli"`, so cli must keep
# importing cw, and (2) looks up `splu`, `spsolve` and `solve_banded` in cw by
# name and rebinds them to timed wrappers. solve_banded is not called.
def splu(A, **kwargs):
    from scipy.sparse.linalg import splu
    return splu(A, **kwargs)


def spsolve(A, b, **kwargs):
    from scipy.sparse.linalg import spsolve
    return spsolve(A, b, **kwargs)


def solve_banded(l_and_u, ab, b, **kwargs):
    from scipy.linalg import solve_banded
    return solve_banded(l_and_u, ab, b, **kwargs)


@dataclass(frozen=True)
class CwParams:
    trap: model.TrapParams
    kappa1: float
    Omega: float
    N: float
    n0_max: int = 200
    n1_max: int = 60
    order: object = "markov"
    r_reading: str = "outer"

    def __post_init__(self):
        model._require_finite(self, ("kappa1", "Omega", "N"))
        if not (self.kappa1 > 0):
            raise ParameterError(f"kappa1 must be positive, got {self.kappa1}")
        if not (self.Omega >= 0):
            # Omega = 0 is legal: a pump-only system with no condensate feeding
            raise ParameterError(f"Omega must be non-negative, got {self.Omega}")
        if not (self.N > 0):
            raise ParameterError(f"pump occupancy N must be positive, got {self.N}")
        if self.n0_max < 1 or self.n1_max < 1:
            raise ParameterError("truncation bounds must be at least 1")
        if self.order not in ORDERS:
            raise ParameterError(f"order must be one of {ORDERS}, got {self.order!r}")
        if self.r_reading not in R_READINGS:
            raise ParameterError(f"r_reading must be one of {R_READINGS}")
        gm = model.gamma_markov_closed_form(self.trap)
        if gm > 0 and self.kappa1 <= gm:
            warnings.warn(
                "pump rate kappa1 does not dominate the output rate; the "
                "effective-reservoir elimination behind this model assumes it does",
                stacklevel=2,
            )

    @property
    def dim(self):
        return (self.n0_max + 1) * (self.n1_max + 1)


@dataclass
class DiagonalState:
    """Probability table p[n0, n1] on the truncated space, plus the mass
    clipped at the box boundary; the two together sum to 1."""

    p: np.ndarray
    clipped: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2:
            raise ParameterError("state must be a 2-d table indexed (n0, n1)")
        if not (np.isfinite(p).all() and np.isfinite(self.clipped)):
            raise ParameterError("state holds a non-finite probability or clipped mass")
        if not (abs(p.sum() + self.clipped - 1.0) <= CONSERVATION_TOL):
            raise ParameterError(
                f"state is not normalized: sum p + clipped = {p.sum() + self.clipped!r}")
        self.p = p

    @classmethod
    def vacuum(cls, n0_max, n1_max):
        p = np.zeros((n0_max + 1, n1_max + 1))
        p[0, 0] = 1.0
        return cls(p)

    def mean_n0(self):
        return float((self.p.sum(axis=1) * np.arange(self.p.shape[0])).sum())

    def mean_n1(self):
        return float((self.p.sum(axis=0) * np.arange(self.p.shape[1])).sum())


def r_function(params, grid):
    """History weight of the output-collision cross term.

    The defining double integral carries a reference time that the model
    leaves ambiguous; both readings are implemented:

      outer (default): r(t) = Omega int_0^t dt1 int_0^t1 dt2 f(t - t2)
                            = Omega int_0^t tau f(tau) dtau
      inner:           r(t) = Omega int_0^t dt1 int_0^t1 dt2 f(t1 - t2)

    Either way r(0) = 0 and r is linear in Omega and in Gamma.
    """
    f_s = sample(lambda t: model.correlation_f(params.trap, t), grid)
    F = cumulative_integral(f_s)
    F2 = cumulative_integral(F)
    if params.r_reading == "outer":
        vals = params.Omega * (grid.times() * F.values - F2.values)
    else:
        vals = params.Omega * F2.values
    return SampledFunction(grid, vals)


# ---------------------------------------------------------------------------
# Generator assembly
#
# Flat index i = n0 * (n1_max + 1) + n1. Each Lindblad channel with jump
# weight w contributes +w at the target row and -w on the diagonal of the
# source column; targets outside the box are clipped and their weight goes
# into a leak vector instead, so that column sums plus leak vanish exactly.


class _Templates(NamedTuple):
    # static, out and oc are scipy.sparse CSR matrices
    static: object
    out: object
    oc: object
    leak_static: np.ndarray
    leak_oc: np.ndarray
    dim: int
    n1p: int


# One scenario reads exactly two keys: its own (box, kappa1, N, Omega) and the
# (CLOSURE_N, CLOSURE_N) probe of verify_diagonal_closure. Parameters change
# from one scenario to the next, so a larger cache would only hold stale sets.
@lru_cache(maxsize=2)
def _templates(n0_max, n1_max, kappa1, N, Omega):
    import scipy.sparse as sp

    n1p = n1_max + 1
    dim = (n0_max + 1) * n1p
    n0g, n1g = np.meshgrid(np.arange(n0_max + 1), np.arange(n1p), indexing="ij")
    n0f = n0g.ravel().astype(float)
    n1f = n1g.ravel().astype(float)
    src = (n0g * n1p + n1g).ravel()

    def fidx(a, b):
        return (a * n1p + b).astype(int)

    def assemble(entries):
        rows = np.hstack([e[0] for e in entries])
        cols = np.hstack([e[1] for e in entries])
        vals = np.hstack([e[2] for e in entries])
        return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))

    # static part: pump gain/loss and bare collisions
    entries = []
    leak_s = np.zeros(dim)
    rate = kappa1 * N * (n1f + 1.0)           # thermal absorption n1 -> n1+1
    ok = n1g.ravel() + 1 <= n1_max
    entries.append((fidx(n0f[ok], n1f[ok] + 1), src[ok], rate[ok]))
    np.add.at(leak_s, src[~ok], rate[~ok])
    entries.append((src, src, -rate))
    rate = kappa1 * (1.0 + N) * n1f           # thermal emission n1 -> n1-1
    ok = n1g.ravel() >= 1
    entries.append((fidx(n0f[ok], n1f[ok] - 1), src[ok], rate[ok]))
    entries.append((src, src, -rate))
    w = Omega * (n0f + 1.0) * n1f * (n1f - 1.0)   # collision (n0,n1)->(n0+1,n1-2)
    has = n1g.ravel() >= 2
    ok = has & (n0g.ravel() + 1 <= n0_max)
    clip = has & ~ok
    entries.append((fidx(n0f[ok] + 1, n1f[ok] - 2), src[ok], w[ok]))
    np.add.at(leak_s, src[clip], w[clip])
    entries.append((src, src, -w))
    static = assemble(entries)

    # output channel, weighted by gamma(t) at run time
    entries = []
    rate = n0f.copy()
    ok = n0g.ravel() >= 1
    entries.append((fidx(n0f[ok] - 1, n1f[ok]), src[ok], rate[ok]))
    entries.append((src, src, -rate))
    out = assemble(entries)

    # output-collision cross term, weighted by Re r(t) at run time.
    # Applying the cross superoperator to a diagonal projector |n0,n1><n0,n1|
    # gives, with w = (n0+1) n1 (n1-1) and w' = n0 n1 (n1-1):
    #     +2w  at (n0+1, n1-2)     -2w  at (n0, n1-2)
    #     +w'  at (n0-1, n1)       -w'  on the diagonal
    # (columns sum to zero identically; the -2w entry is the non-Lindblad bit)
    entries = []
    leak_oc = np.zeros(dim)
    w = (n0f + 1.0) * n1f * (n1f - 1.0)
    has = n1g.ravel() >= 2
    ok = has & (n0g.ravel() + 1 <= n0_max)
    clip = has & ~ok
    entries.append((fidx(n0f[ok] + 1, n1f[ok] - 2), src[ok], 2.0 * w[ok]))
    np.add.at(leak_oc, src[clip], 2.0 * w[clip])
    entries.append((fidx(n0f[has], n1f[has] - 2), src[has], -2.0 * w[has]))
    wp = n0f * n1f * (n1f - 1.0)
    ok = (n0g.ravel() >= 1) & (n1g.ravel() >= 2)
    entries.append((fidx(n0f[ok] - 1, n1f[ok]), src[ok], wp[ok]))
    entries.append((src, src, -wp))
    oc = assemble(entries)

    return _Templates(static, out, oc, leak_s, leak_oc, dim, n1p)


def _templates_for(params):
    return _templates(params.n0_max, params.n1_max, params.kappa1, params.N, params.Omega)


class _BandStorage(NamedTuple):
    # the three templates and the identity in LAPACK band storage (row
    # upper + i - j holds entry (i, j)), cut to `rows`: the rows that hold a
    # non-zero entry of some template (at most 6), plus the main diagonal
    lower: int
    upper: int
    rows: np.ndarray
    static: np.ndarray
    out: np.ndarray
    oc: np.ndarray
    eye: np.ndarray


def _band_storage(tpl):
    """The templates of tpl in band storage, for the banded solves of
    orders 2 and 4; built per run, so that no other solve holds it."""
    # collisions reach n1p - 2 diagonals below the main one, output n1p above
    lower, upper = max(1, tpl.n1p - 2), tpl.n1p
    coos = [m.tocoo() for m in (tpl.static, tpl.out, tpl.oc)]
    rows = {upper}
    for coo in coos:
        rows.update((upper + coo.row - coo.col)[coo.data != 0].tolist())
    rows = np.array(sorted(rows))
    if rows[0] < 0 or rows[-1] > lower + upper:
        raise GeneratorError(f"generator entries fall outside the ({lower}, {upper}) band")
    bands = []
    for coo in coos:
        ab = np.zeros((len(rows), tpl.dim))
        nz = coo.data != 0
        slot = np.searchsorted(rows, upper + coo.row[nz] - coo.col[nz])
        np.add.at(ab, (slot, coo.col[nz]), coo.data[nz])
        bands.append(ab)
    eye = np.zeros((len(rows), tpl.dim))
    eye[rows == upper] = 1.0
    return _BandStorage(lower, upper, rows, *bands, eye)


# -- dense reference implementation on a tiny space -------------------------

def _dense_ladder(nmax):
    a = np.zeros((nmax + 1, nmax + 1))
    for n in range(1, nmax + 1):
        a[n - 1, n] = np.sqrt(n)
    return a


def _dense_channel_columns(n0c, n1c, kappa1, N, Omega, gamma, shift, r):
    """Diagonal action of every superoperator, built literally from operators.

    Applies each channel to the full basis of diagonal projectors and records
    (columns, worst off-diagonal leakage). This is the reference the fast
    index-arithmetic templates are checked against.
    """
    d0, d1 = n0c + 1, n1c + 1
    a0 = np.kron(_dense_ladder(n0c), np.eye(d1))
    a1 = np.kron(np.eye(d0), _dense_ladder(n1c))
    a0d, a1d = a0.T, a1.T
    n0op = a0d @ a0
    A2 = a1 @ a1          # a1^2
    A2d = a1d @ a1d       # a1^dag 2
    C = a0d @ A2          # collision jump operator

    def lin(R):
        return (N * kappa1 * (a1d @ R @ a1 - 0.5 * (a1 @ a1d @ R + R @ a1 @ a1d))
                + (1.0 + N) * kappa1 * (a1 @ R @ a1d - 0.5 * (a1d @ a1 @ R + R @ a1d @ a1)))

    def lcoll(R):
        return Omega * (C @ R @ C.T - 0.5 * (C.T @ C @ R + R @ C.T @ C))

    def lout(R):
        return gamma * (a0 @ R @ a0d - 0.5 * (n0op @ R + R @ n0op))

    def l0(R):
        return -0.5j * shift * (n0op @ R - R @ n0op)

    def loc(R):
        rc = np.conj(r)
        return (r * (a0d @ A2 @ R @ a0 @ A2d - A2 @ R @ a0 @ a0d @ A2d)
                + rc * (a0d @ A2 @ R @ a0 @ A2d - a0 @ a0d @ A2 @ R @ A2d)
                + 0.5 * r * (a0 @ A2d @ A2 @ R @ a0d - a0d @ a0 @ A2d @ A2 @ R)
                + 0.5 * rc * (a0 @ R @ a0d @ A2d @ A2 - R @ a0d @ a0 @ A2d @ A2))

    dim = d0 * d1
    channels = {}
    worst_offdiag = 0.0
    for name, L in (("in", lin), ("coll", lcoll), ("out", lout), ("l0", l0), ("oc", loc)):
        cols = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            R = np.zeros((dim, dim))
            R[j, j] = 1.0
            LR = L(R)
            off = LR - np.diag(np.diag(LR))
            worst_offdiag = max(worst_offdiag, float(np.abs(off).max()))
            cols[:, j] = np.diag(LR)
        channels[name] = cols
    return channels, worst_offdiag


def verify_diagonal_closure(params):
    """Self-test of the generator assembly on a tiny space.

    Checks, with generic probe values for the run-time weights, that
    (a) every channel maps diagonal projectors to diagonal projectors,
    (b) the frequency-shift commutator acts as zero there, and
    (c) the index-arithmetic templates agree with the literal operator
        algebra on all interior columns.
    Raises GeneratorError on any failure.
    """
    gamma_p, shift_p, r_p = 0.7, 1.3, 0.4 - 0.9j
    channels, worst = _dense_channel_columns(
        CLOSURE_N, CLOSURE_N, params.kappa1, params.N, params.Omega, gamma_p, shift_p, r_p
    )
    scale = max(params.kappa1 * (1 + params.N), params.Omega) * (CLOSURE_N + 1) ** 3
    if not (worst <= 1e-12 * scale):
        raise GeneratorError(
            f"a channel leaks off the diagonal (worst element {worst:.3e}); "
            "the diagonal closure of the master equation is broken"
        )
    if not (np.abs(channels["l0"]).max() <= 1e-12 * scale):
        raise GeneratorError("the frequency-shift term acts on the diagonal; it must not")
    dense = (channels["in"] + channels["coll"] + channels["out"] + channels["oc"]).real
    imag_part = np.abs(channels["oc"].imag).max()
    if not (imag_part <= 1e-10 * scale):
        raise GeneratorError(f"cross-term diagonal action is not real (max imag {imag_part:.3e})")
    tpl = _templates(CLOSURE_N, CLOSURE_N, params.kappa1, params.N, params.Omega)
    G = (tpl.static + gamma_p * tpl.out + r_p.real * tpl.oc).toarray()
    n1p = CLOSURE_N + 1
    interior = [a * n1p + b for a in range(CLOSURE_N) for b in range(CLOSURE_N)]
    diff = np.abs(G[:, interior] - dense[:, interior]).max()
    if not (diff <= 1e-10 * scale):
        raise GeneratorError(
            f"template generator deviates from the operator algebra by {diff:.3e}"
        )
    return True


_closure_checked = set()


def _ensure_closure(params):
    key = (params.kappa1, params.N, params.Omega)
    if key not in _closure_checked:
        verify_diagonal_closure(params)
        _closure_checked.add(key)


class GeneratorAt(NamedTuple):
    matrix: object  # scipy.sparse CSR matrix
    leak: np.ndarray


def build_generator(params, gamma=None, r=0j):
    """Rate matrix G on the flattened diagonal space, with its leak vector.

    gamma is the output rate (default: the markov gamma_M, the only choice
    at order "markov") and r the cross-term weight, used at order 4 only.
    Column sums of G plus the leak must vanish; they are checked against a
    tolerance relative to the largest rate in the matrix (the absolute scale
    reaches 1e9 1/s at the default truncation, so an absolute tolerance would
    be meaningless in float64).
    """
    if gamma is None:
        if params.order != "markov":
            raise ParameterError(f"order {params.order} needs its output rate gamma")
        gamma = model.gamma_markov_closed_form(params.trap)
    _ensure_closure(params)
    tpl = _templates_for(params)
    rr = complex(r).real if params.order == 4 else 0.0
    G = tpl.static + gamma * tpl.out
    leak = tpl.leak_static.copy()
    if rr != 0.0:
        G = G + rr * tpl.oc
        leak += rr * tpl.leak_oc
    colsum = np.asarray(G.sum(axis=0)).ravel() + leak
    scale = max(float(np.abs(G.data).max()) if G.nnz else 0.0, 1.0)
    if not (np.abs(colsum).max() <= 1e-12 * scale):
        raise GeneratorError(
            f"generator columns do not balance: worst residual {np.abs(colsum).max():.3e} "
            f"against rate scale {scale:.3e}"
        )
    return GeneratorAt(G.tocsr(), leak)


def steady_state_markov(params):
    """Closed-form factorized estimate of the stationary condensate occupation,

        kappa1/(2 gamma_M) (N - 1/2 - sqrt(1/4 + gamma_M/Omega)).

    Derived from the moment balance with factorized correlations; exact
    numerics on the truncated space sit a few percent above it.
    """
    gm = model.gamma_markov_closed_form(params.trap)
    if gm <= 0:
        raise ParameterError("steady state needs gamma_M > 0")
    if params.Omega <= 0:
        raise ParameterError("the closed form needs Omega > 0 (collisional feeding)")
    return params.kappa1 / (2.0 * gm) * (params.N - 0.5 - np.sqrt(0.25 + gm / params.Omega))


def stationary_distribution(params):
    """Stationary state of the Markovian generator by direct linear solve.

    The singular system G p = 0 is regularized by replacing the first row
    with the normalization constraint sum p = 1. Row 0 of the canonical CSR
    matrix is swapped for ones directly; the CSC matrix handed to the solver
    equals, array for array, what `tolil()`, `G[0, :] = 1.0` and `tocsc()`
    give. SuperLU orders its columns by minimum degree on A^T + A
    (MMD_AT_PLUS_A; George & Liu, SIAM Review 31, 1989), which on the
    default box keeps under half the fill of the default COLAMD ordering.
    """
    import scipy.sparse as sp

    G = build_generator(params).matrix
    dim = params.dim
    tail = G.indptr[1]
    indptr = G.indptr + (dim - tail)
    indptr[0] = 0
    A = sp.csr_matrix((np.concatenate((np.ones(dim), G.data[tail:])),
                       np.concatenate((np.arange(dim, dtype=G.indices.dtype), G.indices[tail:])),
                       indptr), shape=G.shape)
    b = np.zeros(dim)
    b[0] = 1.0
    p = spsolve(A.tocsc(), b, permc_spec="MMD_AT_PLUS_A")
    if not np.isfinite(p).all():
        raise NumericalFailure("the stationary solve returned a non-finite probability")
    p = p / p.sum()
    return DiagonalState(p.reshape(params.n0_max + 1, params.n1_max + 1))


# ---------------------------------------------------------------------------
# Time evolution


@dataclass
class CwTrajectory:
    times: np.ndarray
    mean_n0: np.ndarray
    mean_n1: np.ndarray
    prob_sum: np.ndarray
    min_p: np.ndarray
    clipped_flux: np.ndarray
    final_state: DiagonalState
    negativity_flagged: bool = False


def evolve(params, p0, t_max, dt):
    """Integrate dp/dt = G(t) p and record the observables at every step.

    One stepper serves every order: trapezoidal implicit (Crank-Nicolson)
    stepping with G evaluated at both ends of each step. It is
    unconditionally stable, which matters because the fastest collision
    rates at the default truncation reach 1e9 1/s while the physics of
    interest moves on the 1e-2 s scale. The first RANNACHER_STEPS steps are
    taken as pairs of backward-Euler half-steps (Rannacher startup): plain
    trapezoidal stepping rings on the stiff startup transient and pushes
    small probabilities negative, while backward Euler is positivity
    preserving; the damped start keeps second-order accuracy globally.

    Boundary-clipped flux is accumulated with the same trapezoid weights the
    stepping uses, so sum(p) + clipped stays at 1 to rounding.

    How the solves are factored follows from whether G changes in time. The
    markov generator is constant, so one sparse LU built before the first
    step serves every solve. At orders 2 and 4, gamma(t) and r(t) change
    every step, so each solve factors I - (dt/2) G(t) anew with LAPACK's
    banded gbsv. The band is (n1_max - 1) diagonals below and n1_max + 1
    above the main one, but only the few diagonals that hold a template
    entry are stored, built once per run (_band_storage); each solve
    combines them into one reused LAPACK work array whose other rows stay
    zero.
    """
    grid = grid_for(t_max, dt)
    n_steps = grid.n_points - 1
    tpl = _templates_for(params)
    static, out_csr, oc_csr, dim, n1p = tpl.static, tpl.out, tpl.oc, tpl.dim, tpl.n1p
    # rates and the cross-term weight are sampled at half steps so both the
    # endpoints and the Rannacher midpoint come from one table
    half = UniformGrid(0.0, 0.5 * dt, 2 * n_steps + 1)
    if params.order == "markov":
        gamma_h = np.full(half.n_points, model.gamma_markov_closed_form(params.trap))
    else:
        gamma_h = tcl.tcl_series_rates(params.trap, half, params.order).total_gamma().values
    if params.order == 4:
        rr_h = r_function(params, half).values.real
    else:
        rr_h = np.zeros(half.n_points)

    p = np.asarray(p0.p, dtype=float).ravel().copy()
    if p.size != dim:
        raise ParameterError(
            f"initial state has {p.size} entries, the truncated space has {dim}"
        )
    # one assembly through the checked path validates column balance up front
    build_generator(params, gamma_h[0], rr_h[0])

    h = 0.5 * dt

    def rhs(vec, g, rr):
        y = static @ vec + g * (out_csr @ vec)
        if rr != 0.0:
            y += rr * (oc_csr @ vec)
        return y

    def leak_dot(vec, rr):
        val = tpl.leak_static @ vec
        if rr != 0.0:
            val += rr * (tpl.leak_oc @ vec)
        return float(val)

    if params.order == "markov":
        import scipy.sparse as sp

        lu = splu(sp.identity(dim, format="csc") - h * (static + gamma_h[0] * out_csr).tocsc())

        def implicit_solve(g, rr, b):
            return lu.solve(b)
    else:
        from scipy.linalg import get_lapack_funcs

        bs = _band_storage(tpl)
        lower, upper = bs.lower, bs.upper
        # gbsv's band layout: `lower` fill-in rows above the band itself
        work = np.zeros((2 * lower + upper + 1, dim), order="F")
        gbsv, = get_lapack_funcs(("gbsv",), (work,))

        def implicit_solve(g, rr, b):
            band = bs.eye - h * (bs.static + g * bs.out)
            if rr != 0.0:
                band -= h * rr * bs.oc
            work.fill(0.0)
            work[lower + bs.rows] = band
            _, _, x, info = gbsv(lower, upper, work, b, overwrite_ab=True)
            if info != 0:
                raise NumericalFailure(
                    f"banded LU of the implicit step failed (LAPACK gbsv info {info})")
            return x

    n0_of = (np.arange(dim) // n1p).astype(float)
    n1_of = (np.arange(dim) % n1p).astype(float)

    times = grid.times()
    mean_n0 = np.empty(n_steps + 1)
    mean_n1 = np.empty(n_steps + 1)
    prob_sum = np.empty(n_steps + 1)
    min_p = np.empty(n_steps + 1)
    clipped = np.empty(n_steps + 1)

    def record(j, vec, clip):
        mean_n0[j] = n0_of @ vec
        mean_n1[j] = n1_of @ vec
        prob_sum[j] = vec.sum()
        min_p[j] = vec.min()
        clipped[j] = clip

    clip = 0.0
    record(0, p, clip)
    for j in range(n_steps):
        g0, g1 = gamma_h[2 * j], gamma_h[2 * j + 2]
        r0, r1 = rr_h[2 * j], rr_h[2 * j + 2]
        if j < RANNACHER_STEPS:
            gm_, rm_ = gamma_h[2 * j + 1], rr_h[2 * j + 1]
            p_new = implicit_solve(gm_, rm_, p)
            clip += h * leak_dot(p_new, rm_)
            p_new = implicit_solve(g1, r1, p_new)
            clip += h * leak_dot(p_new, r1)
        else:
            y = p + h * rhs(p, g0, r0)
            p_new = implicit_solve(g1, r1, y)
            clip += h * (leak_dot(p, r0) + leak_dot(p_new, r1))
        p = p_new
        record(j + 1, p, clip)

    drift = float(np.abs(prob_sum + clipped - 1.0).max())
    if not (drift <= CONSERVATION_TOL):
        raise NumericalFailure(
            f"probability accounting drifted by {drift:.3e} (limit {CONSERVATION_TOL:.0e}); "
            "the step size is too coarse for this generator"
        )
    negativity_flagged = False
    worst_neg = float(min_p.min())
    if not (worst_neg >= -NEGATIVITY_TOL):
        if params.order == 4:
            negativity_flagged = True
            warnings.warn(
                f"order-4 run produced negative probabilities down to {worst_neg:.3e}; "
                "result returned flagged (the cross term is not of Lindblad form)",
                stacklevel=2,
            )
        else:
            raise NumericalFailure(
                f"negative probability {worst_neg:.3e} from a Lindblad-form generator; "
                "refine dt"
            )
    if clipped[-1] > CLIP_WARN:
        warnings.warn(
            f"boundary clipping lost {clipped[-1]:.3e} probability; "
            "enlarge n0_max/n1_max for trustworthy output",
            stacklevel=2,
        )
    final = DiagonalState(p.reshape(params.n0_max + 1, n1p), float(clipped[-1]))
    return CwTrajectory(times, mean_n0, mean_n1, prob_sum, min_p, clipped,
                        final, negativity_flagged)
