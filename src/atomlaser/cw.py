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
are tolerated and flagged instead of treated as errors. Once Re r(t) grows
large enough the generator itself turns unstable; evolve stops there.
"""

import math
import os
import warnings
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from importlib import import_module
from typing import NamedTuple

import numpy as np

from . import model, tcl, volterra
from .errors import GeneratorError, NumericalFailure, ParameterError
from .quad import SampledFunction, UniformGrid, cumulative_integral, grid_for

__all__ = [
    "CwParams",
    "DiagonalState",
    "CwTrajectory",
    "r_function",
    "stationary_distribution",
    "evolve",
]

ORDERS = ("markov", 2, 4)

# |sum p + clipped - 1| beyond this aborts a run
CONSERVATION_TOL = 1e-6
# negative probability beyond this is an error (Lindblad orders) or a flagged
# warning (order 4, whose generator is legitimately not Lindblad)
NEGATIVITY_TOL = 1e-6
# clipped boundary flux beyond this marks the truncation as too tight
CLIP_WARN = 1e-3
# an order-4 run whose ||p||_1 passes this (negative mass 1/2) has met an
# unstable generator; a flagged but stable run stays far below it
L1_BOUND = 2.0
# implicit-stepper startup: this many leading steps are taken as pairs of
# backward-Euler half-steps to damp the stiff transient
RANNACHER_STEPS = 4


def usable_cpus():
    """The number of CPUs this process may run on: os.sched_getaffinity,
    else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# scipy loads on the first evolve call, not when cw is imported: `import
# atomlaser.cli` imports cw, and a pulsed run and the stationary solve need
# numpy only. _lazy(module, name) calls module.name, importing module on the
# first call. The three names stay module-level callables, called through this
# module's globals, because perfbench/layertrace.py (1) reads the import time
# of atomlaser.cw from `python -X importtime -c "import atomlaser.cli"`, so
# cli must keep importing cw, and (2) looks up `splu`, `spsolve` and
# `solve_banded` in cw by name and rebinds them to timed wrappers. Only splu
# is called, by evolve's markov branch: the stationary solve needs no sparse
# solver, and the banded orders call LAPACK's gbtrf and gbtrs directly
# (_banded_solves).
def _lazy(module, name):
    return lambda *args, **kwargs: getattr(import_module(module), name)(*args, **kwargs)


splu = _lazy("scipy.sparse.linalg", "splu")
spsolve = _lazy("scipy.sparse.linalg", "spsolve")
solve_banded = _lazy("scipy.linalg", "solve_banded")


@dataclass(frozen=True)
class CwParams:
    trap: model.TrapParams
    kappa1: float
    Omega: float
    N: float
    n0_max: int = 200
    n1_max: int = 60
    order: object = "markov"

    def __post_init__(self):
        model._require_finite(self, ("kappa1", "Omega", "N"))
        if not (self.kappa1 > 0):
            raise ParameterError(f"kappa1 must be positive, got {self.kappa1}")
        if not (self.Omega >= 0):
            # Omega = 0 is legal: a pump-only system with no condensate feeding
            raise ParameterError(f"Omega must be non-negative, got {self.Omega}")
        if not (self.N > 0):
            raise ParameterError(f"pump occupancy N must be positive, got {self.N}")
        for name in ("n0_max", "n1_max"):
            size = getattr(self, name)
            # a float box size fails deep inside the solve, a string at the
            # comparison below; bool is an int, but not a box size
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {size!r}")
        if self.n0_max < 1 or self.n1_max < 1:
            raise ParameterError("truncation bounds must be at least 1")
        if self.order not in ORDERS:
            raise ParameterError(f"order must be one of {ORDERS}, got {self.order!r}")
        gm = model.gamma_markov_closed_form(self.trap)
        if gm > 0 and self.kappa1 <= gm:
            warnings.warn(
                "pump rate kappa1 does not dominate the output rate; the "
                "effective-reservoir elimination behind this model assumes it does",
                # past this method and the dataclass's generated __init__, to
                # the line that built the parameters
                stacklevel=3,
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


def r_function(params, kernel):
    """History weight of the output-collision cross term, on the grid of the
    memory kernel conj f (volterra.memory_kernel of params.trap) it is handed.

    The double integral is read with the outer time t as its reference:

      r(t) = Omega int_0^t dt1 int_0^t1 dt2 f(t - t2) = Omega int_0^t tau f(tau) dtau,

    so r(0) = 0 and r is linear in Omega and in Gamma. In the linear-gain
    limit (fast pump, weak collisions), where mode 0 is solvable exactly,
    this reading brings order 4 closer to the exact <n0> than order 2 or
    markov; the inner one, f(t1 - t2) under the integrals, diverges there.
    tests/test_cw.py::test_linear_gain_limit_order4_nearest_exact pins this.
    """
    grid = kernel.grid
    F = cumulative_integral(SampledFunction(grid, np.conj(kernel.values)))
    F2 = cumulative_integral(F)
    return SampledFunction(grid, params.Omega * (grid.times() * F.values - F2.values))


# ---------------------------------------------------------------------------
# Generator assembly
#
# Flat index i = n0 * (n1_max + 1) + n1. Each Lindblad channel with jump
# weight w contributes +w at the target row and -w on the diagonal of the
# source column; targets outside the box are clipped and their weight goes
# into a leak vector instead, so that column sums plus leak vanish exactly.


class _Templates(NamedTuple):
    # the one stored form of the generator's parts static, out and oc, at
    # diags[0..2]: every channel moves a state by one fixed flat-index shift,
    # and row k of a part's diagonals holds, for each source column j, its
    # rate into flat index j + shifts[k] (DIA offset -shifts[k]; row
    # upper + shifts[k] of LAPACK's band storage, lower + upper + shifts[k]
    # with gbtrf's fill-in rows). _csr views them as sparse matrices where
    # sparse algebra runs
    diags: np.ndarray
    shifts: np.ndarray
    leak_static: np.ndarray
    leak_oc: np.ndarray


# One scenario reads exactly one key, its own (box, kappa1, N, Omega), in its
# stationary solve and in each of its runs. Parameters change from one
# scenario to the next, so a larger cache would only hold stale sets.
@lru_cache(maxsize=1)
def _templates(n0_max, n1_max, kappa1, N, Omega):
    n1p = n1_max + 1
    dim = (n0_max + 1) * n1p
    n0 = (np.arange(dim) // n1p).astype(float)
    n1 = (np.arange(dim) % n1p).astype(float)
    # output n1p up, collision n1p - 2 down; at n1_max = 1 or 2 the collision
    # shift coincides with 0 or +1, and the channels sharing a row are summed
    shifts = np.unique([-n1p, -2, -1, 0, 1, n1p - 2])
    diags = np.zeros((3, len(shifts), dim))
    at = {s: k for k, s in enumerate(shifts.tolist())}
    top = n0 < n0_max
    has = n1 >= 2
    # static part: pump gain/loss and bare collisions
    absorb = kappa1 * N * (n1 + 1.0)          # thermal absorption n1 -> n1+1
    emit = kappa1 * (1.0 + N) * n1            # thermal emission n1 -> n1-1
    w = Omega * (n0 + 1.0) * n1 * (n1 - 1.0)  # collision (n0,n1)->(n0+1,n1-2)
    diags[0, at[1]] += np.where(n1 < n1_max, absorb, 0.0)
    diags[0, at[-1]] += emit
    diags[0, at[n1p - 2]] += np.where(has & top, w, 0.0)
    diags[0, at[0]] += -absorb - emit - w
    leak_s = np.where(n1 == n1_max, absorb, 0.0) + np.where(has & ~top, w, 0.0)

    # output channel, weighted by gamma(t) at run time
    diags[1, at[-n1p]] += n0
    diags[1, at[0]] -= n0

    # output-collision cross term, weighted by Re r(t) at run time.
    # Applying the cross superoperator to a diagonal projector |n0,n1><n0,n1|
    # gives, with w = (n0+1) n1 (n1-1) and w' = n0 n1 (n1-1):
    #     +2w  at (n0+1, n1-2)     -2w  at (n0, n1-2)
    #     +w'  at (n0-1, n1)       -w'  on the diagonal
    # (columns sum to zero identically; the -2w entry is the non-Lindblad bit)
    w = (n0 + 1.0) * n1 * (n1 - 1.0)
    wp = n0 * n1 * (n1 - 1.0)
    diags[2, at[n1p - 2]] += np.where(has & top, 2.0 * w, 0.0)
    diags[2, at[-2]] += np.where(has, -2.0 * w, 0.0)
    diags[2, at[-n1p]] += wp
    diags[2, at[0]] -= wp
    leak_oc = np.where(has & ~top, 2.0 * w, 0.0)

    tpl = _Templates(diags, shifts, leak_s, leak_oc)
    _check_balance(tpl)
    return tpl


def _templates_for(params):
    return _templates(params.n0_max, params.n1_max, params.kappa1, params.N, params.Omega)


def _csr(diags, shifts):
    """The scipy.sparse CSR matrix whose flat-index shift shifts[k] holds
    diags[k]: the sparse view of template diagonals, built only where
    sparse algebra runs (evolve's right-hand side and its markov step
    matrix)."""
    import scipy.sparse as sp

    dim = diags.shape[-1]
    return sp.dia_matrix((diags, -shifts), shape=(dim, dim)).tocsr()


def _check_balance(tpl):
    """Raise GeneratorError unless each part of the templates conserves
    probability on its own: the column sums of static plus leak_static, of
    out, and of oc plus leak_oc must vanish, to 1e-12 of that part's largest
    rate (the absolute scale reaches 1e9 1/s at the default truncation, so
    an absolute tolerance would be meaningless in float64). Then G = static
    + gamma out + Re r oc balances at every gamma(t) and r(t) of a run."""
    bad = []
    for name, d, leak in zip(("static", "out", "oc"), tpl.diags,
                             (tpl.leak_static, 0.0, tpl.leak_oc)):
        residual = float(np.abs(d.sum(axis=0) + leak).max())
        scale = max(float(np.abs(d).max()), 1.0)
        if not (residual <= 1e-12 * scale):
            bad.append(f"{name} (worst residual {residual:.3e} against rate scale {scale:.3e})")
    if bad:
        raise GeneratorError("generator columns do not balance: " + "; ".join(bad))


def _step_diagonals(tpl, h, gamma, rr):
    """Diagonals, on tpl.shifts, of the implicit step matrix I - h G at
    G = static + gamma out + rr oc: the one formula for every order."""
    d_static, d_out, d_oc = tpl.diags
    band = (tpl.shifts == 0)[:, None] - h * (d_static + gamma * d_out)
    if rr != 0.0:
        band -= h * rr * d_oc
    return band


def _level_blocks(d, shifts, k, n1p):
    """Blocks (G[k, k-1], G[k, k], G[k, k+1]) of the rows of level n0 = k,
    filled from the diagonals d of G, whose shifts reach no further than
    one level (n1p states) up or down."""
    slab = np.zeros((n1p, 3 * n1p))
    flat, step = slab.ravel(), 3 * n1p + 1
    for s, vals in zip(shifts.tolist(), d):
        # row k n1p + a reads source column j = k n1p + a - s, at slab column
        # n1p + a - s: one strided run of the slab, from the first row a
        # whose j is a column of G to the last
        lo, hi = max(0, s - k * n1p), min(n1p, d.shape[1] + s - k * n1p)
        if lo < hi:
            flat[n1p - s + lo * step::step][:hi - lo] = vals[k * n1p + lo - s:k * n1p + hi - s]
    return slab[:, :n1p], slab[:, n1p:2 * n1p], slab[:, 2 * n1p:]


def _reduction(d, shifts, n1p, S, top, bottom):
    """Yield (k, R_k, S_{k-1}) for the levels k = top, top - 1, ..., bottom
    of stationary_distribution's level reduction, started from S = S_top."""
    below = _level_blocks(d, shifts, top, n1p)[0]
    for k in range(top, bottom - 1, -1):
        R = -np.linalg.solve(S, below)
        below, diag, above = _level_blocks(d, shifts, k - 1, n1p)
        S = diag + above @ R
        yield k, R, S


def stationary_distribution(params):
    """Stationary state of the Markovian generator by block elimination over
    the n0 levels.

    The singular system G p = 0 is regularized by replacing its first row
    with the normalization constraint sum p = 1. Every channel moves n0 by
    at most one, so G is block tridiagonal in the levels n0 = k, with square
    blocks G[k, l] of side n1_max + 1, and the linear level reduction
    (Gaver, Jacobs & Latouche, Adv. Appl. Probab. 16, 1984; Latouche &
    Ramaswami, Introduction to Matrix Analytic Methods, SIAM 1999) solves it
    with dense block work and no fill. From the top level down,

        S_top = G[top, top],  R_k = -S_k^-1 G[k, k-1],
        S_{k-1} = G[k-1, k-1] + G[k-1, k] R_k,

    so that p_k = R_k p_{k-1}, recovered upward. The weights c = 1 + c R_k,
    accumulated on the way down, turn sum p into c p_0, and level 0 solves
    S_0 p_0 = e_0 with row 0 of S_0 replaced by c: in exact arithmetic the
    row-0 replacement of the whole G. At the markov order every -S_k is a
    nonsingular M-matrix, so R_k >= 0 and nothing cancels.

    The R_k are not all kept (checkpointing; Griewank, Optim. Methods
    Softw. 1, 1992). The way down keeps S_k only at the segment tops
    k = top, top - m, ..., m = isqrt(n0_max + 1) levels apart; the way up
    takes the segments bottom first, recomputes R_a ... R_b of a segment
    from its saved S_a by the same numpy calls on the same arrays, and
    recovers p_b ... p_a, so p is bit for bit that of keeping every R_k.
    That costs a second pass of block solves and keeps about
    2 sqrt(n0_max + 1) (n1_max + 1)^2 doubles of blocks, 0.85 MiB on the
    default box, against (n0_max + 1)(n1_max + 1)^2 (5.7 MiB). The blocks
    are filled straight from the template diagonals combined at gamma_M,
    so the solve needs numpy only: no sparse matrix is built and no scipy
    module is loaded. Measured on a 2-CPU x86-64 host with numpy 2.4, on
    the default box, a call with the templates cached peaks at 1.8 MiB of
    allocations (tracemalloc), against 6.75 MiB with every R_k kept.
    Warns, as evolve does, when the flux clipped at the box boundary exceeds
    CLIP_WARN of the pump flux kappa1 N (<n1> + 1).
    """
    if params.order != "markov":
        raise ParameterError(
            f"the stationary state is that of the markov generator, not of order {params.order}")
    tpl = _templates_for(params)
    # G = static + gamma_M out
    d_static, d_out, _ = tpl.diags
    d = model.gamma_markov_closed_form(params.trap) * d_out
    d += d_static
    shifts = tpl.shifts
    levels, n1p = params.n0_max + 1, params.n1_max + 1
    m = math.isqrt(levels)
    # S_a at the segment tops a = levels - 1, levels - 1 - m, ..., a >= 1
    S = _level_blocks(d, shifts, levels - 1, n1p)[1]
    tops = [S]
    c = np.ones(n1p)
    for k, R, S in _reduction(d, shifts, n1p, S, levels - 1, 1):
        c = 1.0 + c @ R
        if k > 1 and (levels - k) % m == 0:
            tops.append(S)
    S[0] = c
    p = np.empty((levels, n1p))
    p[0] = np.linalg.solve(S, np.eye(1, n1p)[0])
    R = []
    for i in range(len(tops) - 1, -1, -1):
        top = levels - 1 - i * m
        bottom = max(top - m + 1, 1)
        # the last segment's R_k are freed before this one's are made
        R.clear()
        R.extend(Rk for _, Rk, _ in _reduction(d, shifts, n1p, tops.pop(), top, bottom))
        for k in range(bottom, top + 1):
            p[k] = R[top - k] @ p[k - 1]
    p = p.ravel()
    if not np.isfinite(p).all():
        raise NumericalFailure("the stationary solve returned a non-finite probability")
    p = p / p.sum()
    state = DiagonalState(p.reshape(levels, n1p))
    lost = (tpl.leak_static @ p) / (params.kappa1 * params.N * (state.mean_n1() + 1.0))
    if lost > CLIP_WARN:
        warnings.warn(
            f"the stationary state loses {lost:.3e} of the pump flux at the box boundary; "
            "enlarge n0_max/n1_max for trustworthy output",
            stacklevel=2,
        )
    return state


# ---------------------------------------------------------------------------
# Time evolution


def _lapack(name):
    """Routine `name` of the LAPACK that scipy bundles, as a ctypes function
    of Fortran-style pointer arguments: an int argument takes a c_int (or a
    pointer to int), a char one bytes, a double one an address. It is the
    routine scipy's f2py wrappers call, but they hold the GIL while it runs,
    and a ctypes call releases it."""
    import ctypes
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    # the capsule is named by the C signature, "void (int *, char *, ..., <double> *)"
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, signature)
    kinds = {b"int": ctypes.POINTER(ctypes.c_int), b"char": ctypes.c_char_p}
    args = signature[signature.index(b"(") + 1:-1].split(b", ")
    return ctypes.CFUNCTYPE(None, *(kinds.get(a.rstrip(b" *"), ctypes.c_void_p) for a in args))(
        address)


@contextmanager
def _banded_solves(shifts, dim, band, points):
    """Yield solve(b) = (I - h G_k)^-1 b for each half-grid point k of
    points in turn, I - h G_k having the diagonals band(k) on shifts
    (evolve's _step_diagonals); the i-th call solves at points[i].

    G_k depends on k alone, not on the state, so its banded LU (LAPACK
    gbtrf) runs ahead of the solves on a pool of one thread per usable CPU:
    the factors are taken in order, each into the next of a ring of
    cpus + 1 reused work arrays, and a solve (gbtrs) with the oldest frees
    its array for the next factor. gbsv is gbtrf followed by gbtrs, so
    every bit is that of one gbsv per solve. The band is (n1_max - 1)
    diagonals below and n1_max + 1 above the main one, but only the
    template diagonals (at most six) are written, into the rows
    upper + shifts of a work array whose other rows are zero.
    """
    import ctypes
    # like scipy, loaded by the first banded run: its logging import would
    # add about 10 ms to every `import atomlaser.cli`
    from concurrent.futures import ThreadPoolExecutor

    gbtrf, gbtrs = _lapack("dgbtrf"), _lapack("dgbtrs")
    lower, upper = int(shifts[-1]), int(-shifts[0])
    rows = 2 * lower + upper + 1   # gbtrf's layout: `lower` fill-in rows above the band
    n, kl, ku, ldab, one = (ctypes.c_int(v) for v in (dim, lower, upper, rows, 1))
    int_p = ctypes.POINTER(ctypes.c_int)
    cpus = usable_cpus()
    ring = [(np.zeros((rows, dim), order="F"), np.empty(dim, np.intc)) for _ in range(cpus + 1)]

    def check(routine, info):
        if info.value != 0:
            raise NumericalFailure(
                f"banded solve of the implicit step failed (LAPACK {routine} info {info.value})")

    def factor(k, ab, ipiv):
        ab.fill(0.0)
        ab[lower + upper + shifts] = band(k)
        info = ctypes.c_int()
        gbtrf(n, n, kl, ku, ab.ctypes.data, ldab, ipiv.ctypes.data_as(int_p), info)
        check("gbtrf", info)
        return ab, ipiv

    pool = ThreadPoolExecutor(cpus)
    factors, queued = deque(), iter(range(len(points)))

    def queue_next():
        i = next(queued, None)
        if i is not None:
            factors.append(pool.submit(factor, points[i], *ring[i % len(ring)]))

    def solve(b):
        ab, ipiv = factors[0].result()
        x = np.array(b, dtype=float)
        if x.shape != (dim,):   # gbtrs reads and writes dim entries at x's address
            raise ParameterError(f"right-hand side of shape {x.shape}, the step has {dim} rows")
        info = ctypes.c_int()
        gbtrs(b"N", n, kl, ku, one, ab.ctypes.data, ldab, ipiv.ctypes.data_as(int_p),
              x.ctypes.data, n, info)
        check("gbtrs", info)
        factors.popleft()
        queue_next()
        return x

    try:
        for _ in ring:
            queue_next()
        yield solve
    finally:
        pool.shutdown(cancel_futures=True)


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

    An order-4 run stops once ||p||_1 passes L1_BOUND: the cross term has
    then made the generator unstable, which no step size cures.

    One function, _step_diagonals, forms the diagonals of the step matrix
    I - (dt/2) G(t) for every order; how it is factored follows from
    whether G changes in time. The markov generator is constant, so one
    sparse LU of the step matrix at gamma_M serves every solve. At orders 2
    and 4, gamma(t) and r(t) change every step, so each solve needs a new
    banded LU. These depend on the half-step grid alone, so threads factor
    them ahead, one per usable CPU (_banded_solves); the bits are those of
    one LAPACK gbsv per solve. Factors and steps walk one schedule of
    (half-grid point k, trapezoid) entries, one solve each: (2j + 1, False)
    and (2j + 2, False) in a Rannacher step j, else (2j + 2, True), which
    adds the explicit half at point k - 2. Each even k ends step k/2. The
    right-hand side's three sparse matrices are built from the template
    diagonals per run (about 1-2 ms on the default box); _templates has
    checked that each part balances, so G(t) does at every gamma(t) and
    Re r(t). The observables go into one (n_steps + 1, 5) table whose
    columns the trajectory's fields view.
    """
    dim, n1p = params.dim, params.n1_max + 1
    box = (params.n0_max + 1, n1p)
    if np.shape(p0.p) != box:
        raise ParameterError(
            f"initial state has {np.size(p0.p)} entries of shape {np.shape(p0.p)}, "
            f"the truncated space has shape {box}")
    p = np.asarray(p0.p, dtype=float).ravel().copy()
    grid = grid_for(t_max, dt)
    n_steps = grid.n_points - 1
    tpl = _templates_for(params)
    # gamma(t) and r(t) read one memory kernel sampled at half steps, so the
    # endpoints and the Rannacher midpoint of a step come from one table
    half = UniformGrid(0.0, 0.5 * dt, 2 * n_steps + 1)
    rr_h = np.zeros(half.n_points)
    if params.order == "markov":
        gamma_h = np.full(half.n_points, model.gamma_markov_closed_form(params.trap))
    else:
        kernel = volterra.memory_kernel(params.trap, half)
        gamma_h = tcl.tcl_series_rates(kernel, params.order).total_gamma().values
        if params.order == 4:
            rr_h = r_function(params, kernel).values.real

    static, out, oc = (_csr(d, tpl.shifts) for d in tpl.diags)

    h = 0.5 * dt

    def rhs(vec, g, rr):
        y = static @ vec + g * (out @ vec)
        if rr != 0.0:
            y += rr * (oc @ vec)
        return y

    def leak_dot(vec, rr):
        val = tpl.leak_static @ vec
        if rr != 0.0:
            val += rr * (tpl.leak_oc @ vec)
        return float(val)

    schedule = [(k, j >= RANNACHER_STEPS) for j in range(n_steps)
                for k in ((2 * j + 1, 2 * j + 2) if j < RANNACHER_STEPS else (2 * j + 2,))]
    if params.order == "markov":
        lu = splu(_csr(_step_diagonals(tpl, h, gamma_h[0], 0.0), tpl.shifts).tocsc())
        solves = nullcontext(lu.solve)
    else:
        solves = _banded_solves(tpl.shifts, dim,
                                lambda k: _step_diagonals(tpl, h, gamma_h[k], rr_h[k]),
                                [k for k, _ in schedule])

    n0_of = (np.arange(dim) // n1p).astype(float)
    n1_of = (np.arange(dim) % n1p).astype(float)

    times = grid.times()
    # one row per step: mean_n0, mean_n1, prob_sum, min_p, clipped flux
    rows = np.empty((n_steps + 1, 5))
    clip = leak = 0.0
    rows[0] = n0_of @ p, n1_of @ p, p.sum(), p.min(), clip
    with solves as implicit_solve:
        for k, trapezoid in schedule:
            p = implicit_solve(p + h * rhs(p, gamma_h[k - 2], rr_h[k - 2]) if trapezoid else p)
            start, leak = leak, leak_dot(p, rr_h[k])
            clip += h * (start + leak) if trapezoid else h * leak
            if k % 2:
                continue
            rows[k // 2] = n0_of @ p, n1_of @ p, p.sum(), p.min(), clip
            if params.order == 4 and not (np.abs(p).sum() <= L1_BOUND):
                raise NumericalFailure(
                    f"the order-4 generator is unstable at t = {times[k // 2]:.6e} s, Re r = "
                    f"{rr_h[k]:.6e}: ||p||_1 = "
                    f"{np.abs(p).sum():.3e} passed {L1_BOUND}; no step size cures this")

    mean_n0, mean_n1, prob_sum, min_p, clipped = rows.T
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
    final = DiagonalState(p.reshape(box), float(clipped[-1]))
    return CwTrajectory(times, mean_n0, mean_n1, prob_sum, min_p, clipped,
                        final, negativity_flagged)
