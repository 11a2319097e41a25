"""Unitary Crank-Nicolson evolution on graphs and on coefficient lines.

Solves i u_t + Lu = 0 where L is either the graph Laplacian with Kirchhoff
vertex conditions or d/dx(sigma du/dx) on the line with a piecewise-constant
coefficient (a ``PiecewiseCoefficient``, the object the transfer-matrix
kernels read, or one sigma per grid cell).  The operator is assembled from
the Dirichlet form on a (possibly non-uniform) grid with a lumped trapezoid
mass matrix, so the Cayley step

    (i M - dt/2 K) u_next = (i M + dt/2 K) u

conserves the trapezoid L2 norm to round-off whenever K is Hermitian.

One chain list describes a run.  A chain (dofs, a, b, w, h) is a path of
samples: ``dofs`` index them in the packed state from end a to end b, an
end is a junction 0..p-1, p (a Dirichlet end) or, as a chain's first end,
None (a Neumann end: a plain half-mass row), and w = sigma / h and h are
numbers or one value per cell.  A graph has one chain per edge
(``_pack_graph``: vertex k is dof and junction k, a ray's far end is
Dirichlet), a stepped line one chain with p = 0, a free line one chain per
layer joined at its interfaces, and a star's modes N chains with no
junction (below).  ``_chain_cells`` gives the stepper the cells of the
Dirichlet form and the Dirichlet rows of a list, and the free path
(``_free_chains``) gathers the same chains from the packed state and
scatters them back.  A graph run hands its system's one chain list to
whichever of the two takes it.

Lines and graphs share one stepper, written with the single matrix A = i M
- dt/2 K as u_next = A^{-1}(2 i M u) - u (Dirichlet rows: identity and 2).
The vertices come first and each chain's other samples take contiguous
dofs, so the chain block of A is tridiagonal and strictly diagonally
dominant.  A is never formed as a matrix: its pieces come straight from the
cells (the three bands of the chain block, the dense vertex block and the
few vertex-chain entries).  The chain block is factored once without
pivoting, with its pivots 1/p folded into the row scale, so each step is
one multiply and two banded BLAS solves, and the vertices solve a small
dense Schur complement.  The BLAS routine is scipy's ``ztbsv``, bound when
the first stepper is built from scipy's ``_fblas`` extension module alone
(``_ztbsv``), so no part of the package loads the ``scipy.linalg`` package.

A run sweeps each chain only on its live window, which the stepper keeps
from step to step.  A value is quiet below cut = eps^2 max|u|, read from the
first state and again every m steps.  A sweep carries the value of a row on
scaled by the product of the unit factors' couplings it passes, so the
margin m is the fewest rows such that every run of m couplings of either
factor multiplies to at most eps^2: one large coupling costs one factor,
not a slower decay over the whole block.  The window first spans the rows
above cut and the rows next to a vertex, widened by m, so the chain rows
that a vertex value enters are always in it.  Rows outside stay exactly
zero, and the step's elementwise work (row scale, - u, phase multiplies)
runs only on the vertex rows and the window's hull, from its first live row
to its last.  Windows only grow, through their edge bands: after each step
only the outer m rows at each window edge are read, and an edge whose band
holds a value above cut moves out by m; a chain with no row in the window
is not swept.  Each step drops at most about m cut per row, far below one
rounding, and the quiet far field is neither swept nor filled with
subnormal numbers.

A star whose rays share one grid, with potentials that do not depend on the
edge, steps the same equations in other unknowns, its modes: the edge mean,
whose far end is Dirichlet, and the differences u_k - u_0, k >= 1, which
vanish at the vertex and are Dirichlet at both ends.  They are the even/odd
split of ``reduction.star_sum`` (the sum S and u_k - S/N) in another
normalisation.  The vertex row divided by N is the half-mass Neumann first
row of the mean, its end marked None: a plain row with no vertex dof, so the
Laplacian and the potential act on every mode as on one edge.  Data equal on
every edge has differences exactly zero, so their chains stay quiet and a
step sweeps one ray, not N.  Other graphs, and stars with unequal rays or
per-edge potentials, run on the vertex system, which stays the oracle of the
mode system.

Free runs (no potential) of stars, lines and small graphs take no steps one
by one.  Their chains are uniform (a chain with a Neumann end reflected
evenly about it, so a star's mean runs on twice its ray), and the steps of
a uniform chain are diagonal in its sine basis, so the only unknowns left
are the junction values.  The rows of A at
the junctions, with each chain row next to one written as its free trace
plus its response to the earlier junction values, are a recurrence with the
same coefficients at every step.  Its inverse series comes once per run
from a relaxed divide and conquer (``_series_inverse``: products with the
first leaf's inverse, and FFT products between halves), and its solution
is one FFT convolution per run of up to ``_SEGMENT`` steps, after which
each chain takes all the run's steps at once (``_free_chains``).  Sums of
powers of each chain's step factors, a few matrix products, replace nsteps
sweeps, so such runs build no stepper and load no scipy.  Chains with the
same row count and coupling share one basis, and one pass over its blocks
of powers (``_Basis.sweep``) per segment end serves them all: the first
gives the junction response and the first traces, each later one advances
every chain on the basis and takes its next traces.  A run with junctions
allocates one workspace for its blocks of powers (``_power_blocks``),
which every block of every pass reuses, so the blocks map no fresh pages
and no table outlives its block.  A star's modes qualify
whenever ``_star_modes`` admits the run, a line with at most
``_MAX_INTERFACES`` interfaces (the nodes where the cell's (sigma, dx)
changes; ``_free_line``) and a graph with at most ``_MAX_INTERFACES``
vertices.  Other lines and graphs and runs with a potential step the Cayley
core, which stays the oracle of this path: ``_graph_oracle`` and
``_line_oracle`` step it for a run that took a faster path.  On this path
the far field holds round-off of about eps max|u|, not exact zeros.

Potentials are applied as exact pointwise phase half-steps around the Cayley
core, which keeps real potentials unitary and makes a spatially constant
potential act as an exact gauge factor.  The stepper's run takes every
potential, the two half-steps that meet between steps merged into one
multiply on the window.  One guard, on the share of the mass beyond
``boundary_guard`` of each truncated ray or line end, rejects runs whose
wavefront has reached the artificial boundary.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _GuardError
from ._report import from_columns, write_csv
from .exppoly import PiecewiseCoefficient
from .graphs import GraphGrid, GraphState, MetricGraph

__all__ = [
    "EvolutionConfig",
    "TruncationGuardError",
    "evolve_graph",
    "evolve_graph_potential",
    "evolve_line_sigma",
    "write_checkpoint",
]


class TruncationGuardError(_GuardError, RuntimeError):
    """The wavefront reached the guarded fraction of the truncated domain."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Time stepping parameters.

    ``boundary_guard`` is the fraction of the truncated length beyond which
    solution mass counts as having hit the artificial boundary; runs whose
    final state carries more than ``guard_tol`` (finite, >= 0) of its mass
    there raise TruncationGuardError.  Set ``boundary_guard=None`` to disable.
    """

    dt: float
    boundary_guard: float | None = 0.8
    guard_tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.boundary_guard is not None and not 0.0 < self.boundary_guard < 1.0:
            raise ValueError("boundary_guard must lie in (0, 1)")
        if not (math.isfinite(self.guard_tol) and self.guard_tol >= 0):
            raise ValueError(f"guard_tol must be finite and non-negative, got {self.guard_tol}")


def _n_steps(t_final: float, dt: float) -> int:
    if not (math.isfinite(dt) and dt > 0 and math.isfinite(abs(t_final) / dt)):
        raise ValueError(f"t_final = {t_final} and dt = {dt} must be finite, with dt > 0")
    n = abs(t_final) / dt
    if abs(n - round(n)) > 1e-9 * n:  # relative, so that a nonzero t_final never rounds to no step
        raise ValueError(f"|t_final| = {abs(t_final)} is not an integer multiple of dt = {dt}")
    return int(round(n))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _pack_graph(graph: MetricGraph, grid: GraphGrid):
    """(n_dof, chains) of the vertex system: one chain per edge, in edge order.

    Vertex k is dof and junction k; each edge's other samples take the next
    free dofs, and a ray's far end is its Dirichlet end, len(graph.vertices).
    """
    nv = len(graph.vertices)
    vertex = {v: i for i, v in enumerate(graph.vertices)}
    n_dof, chains = nv, []
    for e, n in zip(graph.edges, grid.counts):
        b = nv if e.terminal is None else vertex[e.terminal]
        dofs = np.arange(n_dof - 1, n_dof + n - 1)  # samples 1.. take fresh dofs, a vertex end its own
        dofs[0] = vertex[e.initial]
        if b < nv:
            dofs[-1] = b
        n_dof += n - 1 - (b < nv)
        chains.append((dofs, vertex[e.initial], b, 1.0 / grid.h, grid.h))
    return n_dof, chains


def _assemble(n_dof, cells, dt, dirichlet, nv):
    """The pieces of A = iM - (dt/2)K and c, straight from the cell list.

    ``cells`` = (pairs, weights, h) of the Dirichlet form sum_c w_c |u_i - u_j|^2
    with the lumped mass M = sum_c (h_c / 2)(e_i + e_j), so A_ii = i M_ii -
    (dt/2) sum of w_c over the cells at i (a cell with i = j adds nothing)
    and A_ij = (dt/2) w_c.  Dirichlet rows are the identity, with c = 2 there
    and c = 2i M elsewhere.  Returns c, the bands (sub, diag, sup) of the
    chain block T = A[nv:, nv:], the dense vertex block D = A[:nv, :nv], and
    F = A[:nv, nv:] and E = A[nv:, :nv] as (row, col, value) arrays in dof
    numbering, duplicates not summed.
    """
    pairs, weights, hs = cells
    rows = pairs.T.ravel()  # i of every cell, then j
    cols = pairs[:, ::-1].T.ravel()
    keep = np.ones(n_dof)
    keep[dirichlet] = 0.0
    mass = np.bincount(rows, np.concatenate([hs, hs]) / 2.0, n_dof)
    w = np.concatenate([weights, weights]) * (rows != cols)
    diag = np.where(keep > 0, 1j * mass - (dt / 2.0) * np.bincount(rows, w, n_dof), 1.0)
    c = np.where(keep > 0, 2j * mass, 2.0)
    vals = keep[rows] * ((dt / 2.0) * w)
    live = vals != 0  # drops Dirichlet rows and cells with i = j
    rows, cols, vals = rows[live], cols[live], vals[live]
    m = n_dof - nv
    sub = np.zeros(max(m - 1, 0), dtype=complex)
    sup = np.zeros(max(m - 1, 0), dtype=complex)
    chain = (rows >= nv) & (cols >= nv)  # consecutive dofs of one chain
    up = chain & (cols > rows)
    sup[rows[up] - nv] = vals[up]
    down = chain & (cols < rows)
    sub[cols[down] - nv] = vals[down]
    D = np.diag(diag[:nv])
    at = (rows < nv) & (cols < nv)
    np.add.at(D, (rows[at], cols[at]), vals[at])
    to_f = (rows < nv) & (cols >= nv)
    to_e = (rows >= nv) & (cols < nv)
    F = (rows[to_f], cols[to_f], vals[to_f])
    E = (rows[to_e], cols[to_e], vals[to_e])
    return c, (sub, diag[nv:], sup), D, F, E


def _chain_cells(chains, p: int):
    """(cells, dirichlet) of a chain list, as ``_cayley_stepper`` reads them.

    Each two neighbouring samples of a chain are one cell, with the chain's
    w and h; the Dirichlet dofs are the chain ends marked p.  The stepper
    takes junction k as dof k (nv = p).  An end marked None, a Neumann end
    such as the vertex row of a star's mean, is a plain half-mass row:
    neither a junction nor Dirichlet.  ``_free_chains`` reads the same
    marker by reflecting the chain about that end.
    """
    cell = lambda d, x: np.broadcast_to(x, len(d) - 1)  # a chain's w or h, one value per cell
    parts = [(np.stack([d[:-1], d[1:]], axis=1), cell(d, w), cell(d, h)) for d, _, _, w, h in chains]
    ends = [d[k] for d, a, b, _, _ in chains for k, end in ((0, a), (-1, b)) if end == p]
    return tuple(np.concatenate(part) for part in zip(*parts)), np.array(sorted(ends), dtype=int)


def _scatter(packing, edge_values, tol, message: str) -> np.ndarray:
    """One complex value per dof from one array per edge, filled edge by edge.

    Where edges meet at a vertex, a value that differs from the one already
    there by more than ``tol(values)`` raises ValueError(``message``).
    """
    n_dof, chains = packing
    out = np.zeros(n_dof, dtype=complex)
    filled = np.zeros(n_dof, dtype=bool)
    for (dofs, *_), vals in zip(chains, edge_values):
        if np.any(filled[dofs] & (np.abs(out[dofs] - vals) > tol(vals))):
            raise ValueError(message)
        out[dofs] = vals
        filled[dofs] = True
    return out


def _pack_state(state: GraphState, packing) -> np.ndarray:
    scale = max(float(np.max(np.abs(v))) for v in state.values) or 1.0
    return _scatter(packing, state.values, lambda v: 1e-9 * scale, "initial data is discontinuous at a vertex")


def _factor_chains(sub, diag, sup):
    """Banded factors of the tridiagonal T = diag(p) L U, with no pivoting.

    T is given by its bands.  Returns the unit-lower band of L, 1/p and the
    unit-upper band of U, each band in the (2, m) Fortran layout that BLAS
    ``ztbsv`` reads (the unit diagonal row is stored but not referenced).
    This L is diag(p)^{-1} L0 diag(p) for the usual T = L0 diag(p) U, with
    couplings sub_i / p_{i+1}, so T^{-1} = U^{-1} L^{-1} diag(1/p): a solve
    is a multiply by 1/p and then two sweeps with nothing between them.
    Strict row diagonal dominance of T keeps every pivot p_i away from zero.
    """
    piv = diag.tolist()
    for i, q in enumerate((sub * sup).tolist(), start=1):
        piv[i] -= q / piv[i - 1]
    piv = np.asarray(piv, dtype=complex)
    lower = np.ones((2, len(diag)), dtype=complex, order="F")
    upper = np.ones((2, len(diag)), dtype=complex, order="F")
    lower[1, :-1] = sub / piv[1:]
    upper[0, 1:] = sup / piv[:-1]
    return lower, 1.0 / piv, upper


def _sweep(tbsv, factors, x, off=0, trans=0):
    """x[off:off+n] <- (LU)^{-1} x[off:off+n] ((LU)^{-T} when ``trans``), in place, from _factor_chains(T).

    T^{-1} = (LU)^{-1} diag(1/p) and T^{-T} = diag(1/p) (LU)^{-T}.
    ``factors`` may be the columns a:b of every factor, a slice of them:
    that sweeps the rows a:b of T alone, exactly so when x is zero before
    them.
    """
    lower, rp, upper = factors
    if len(rp):
        # positional, as keywords cost more to parse than the call itself:
        # tbsv(k, a, x, incx, offx, lower, trans, diag, overwrite_x)
        x = tbsv(1, upper if trans else lower, x, 1, off, 1 - trans, trans, 1, 1)
        x = tbsv(1, lower if trans else upper, x, 1, off, trans, trans, 1, 1)
    return x


_FBLAS = "scipy.linalg._fblas"


def _ztbsv():
    """scipy's BLAS ``ztbsv``, loaded without importing the ``scipy.linalg`` package.

    ``import scipy.linalg`` takes 0.3-0.4 s and about 28 MB in a fresh
    process (2-core x86 VM), while the routine lives in scipy's ``_fblas``
    extension module, which loads alone in about 5 ms and 3 MB.  The module
    is found inside the scipy package without running scipy's ``__init__``
    and is registered under its own name, so that a later ``import
    scipy.linalg`` reuses it, and one already loaded is reused here.
    ``_fblas`` is private to scipy: when the direct load fails, the public
    ``scipy.linalg.blas.ztbsv``, the same routine, is bound instead.
    """
    fblas = sys.modules.get(_FBLAS)
    if fblas is None:
        try:
            scipy = importlib.util.find_spec("scipy")  # runs no scipy code
            where = [os.path.join(scipy.submodule_search_locations[0], "linalg")] if scipy else []
            spec = importlib.machinery.PathFinder.find_spec(_FBLAS, where)
            if spec is None:
                raise ImportError(f"no {_FBLAS} extension module in scipy")
            fblas = importlib.util.module_from_spec(spec)
            sys.modules[_FBLAS] = fblas
            spec.loader.exec_module(fblas)
        except (ImportError, OSError):
            sys.modules.pop(_FBLAS, None)
            from scipy.linalg.blas import ztbsv

            return ztbsv
    return fblas.ztbsv


# Entries of W (``_chain_rows``) below this fraction of the largest of their solve are
# dropped: a backward perturbation of eps^2 relative cannot show in a
# double-precision step, and the decayed tail of T^{-1} would otherwise be
# summed in subnormal numbers.  The same fraction of the initial data is where a state
# value counts as quiet for the live window of ``_cayley_stepper``.
_NEGLIGIBLE = np.finfo(float).eps ** 2


def _margin(factors, dirichlet) -> int:
    """The fewest rows m such that every run of m couplings of either unit factor multiplies to at most eps^2.

    With L0 = diag(p) L diag(1/p), the factor of T = L0 diag(p) U, the sweep
    of L on diag(1/p) r is diag(1/p) L0^{-1} r, and the entries of L0^{-1}
    and U^{-1} are exactly the products of the couplings between their row
    and column: past m rows a sweep has carried any value below eps^2 of
    itself.  The coupling out of a Dirichlet row (``dirichlet``, in
    chain-row numbering) is applied once, not carried on, and is left out;
    the others are below 1, since T is diagonally dominant and symmetric off
    its Dirichlet rows.  Per factor this is one cumsum of logs and one
    search: the run i..j-1 qualifies once the log sum over it reaches
    log(1 / eps^2).  A coupling below eps^2 counts as eps^2, which decides
    every run through it the same way.  So m is at most ceil(log(eps^2) /
    log q) for the largest coupling q.
    """
    lower, rp, upper = factors
    carried = np.abs(lower[1, :-1] * rp[:-1] / rp[1:])
    carried[dirichlet[dirichlet < len(carried)]] = 0.0
    m = 1
    for couplings in (carried, np.abs(upper[0, 1:])):
        if not np.all(couplings < 1.0):  # |dt| so large against h^2 that a coupling rounds to 1
            return len(rp)
        logs = np.concatenate([[0.0], np.cumsum(-np.log(np.maximum(couplings, _NEGLIGIBLE)))])
        ends = np.searchsorted(logs, logs[:-1] - math.log(_NEGLIGIBLE))
        m = max(m, int(np.max(ends - np.arange(len(couplings)), initial=1)))
    return m


def _chain_rows(F, nv, first, stop, solve_t):
    """W = F X as (row, col, value) triplets sorted by row, then column.

    ``F`` holds (vertex, dof, value) triplets, X is the inverse of a block of
    chains (the stepper's is (LU)^{-1} = T^{-1} diag(p), T = A[nv:, nv:]),
    chain k is the rows first[k]:stop[k] of X, with no coupling between
    chains, and ``solve_t(w, a, b)`` applies X^T to w on the rows a:b alone.
    W is in dof numbering like F.  Row v of W is nonzero only on the chains
    that meet vertex v, so each (vertex, chain) pair is one solve on that
    chain's rows, taken in sorted order.
    """
    f_rows, f_cols, f_vals = F[0], F[1] - nv, F[2]
    pair = f_rows * len(first) + np.searchsorted(first, f_cols, side="right") - 1
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    for key in np.unique(pair).tolist():
        v, k = divmod(key, len(first))
        a, b = first[k], stop[k]
        w = np.zeros(b - a, dtype=complex)
        np.add.at(w, f_cols[pair == key] - a, f_vals[pair == key])
        w = solve_t(w, a, b)
        nz = np.flatnonzero(np.abs(w) > _NEGLIGIBLE * np.max(np.abs(w)))
        rows.append(np.full(len(nz), v))
        cols.append(nz + a + nv)
        vals.append(w[nz])
    return tuple(np.concatenate(t) for t in (rows, cols, vals))


def _cayley_stepper(n_dof, chains, nv, dt):
    """Runs of the Crank-Nicolson step u -> A^{-1}(c u) - u of a chain list on n_dof dofs, factored once.

    A = iM - (dt/2)K with identity rows at the Dirichlet dofs and c = 2i mass
    (2 on Dirichlet rows), assembled by ``_assemble`` from the cells and
    Dirichlet rows of ``chains`` (``_chain_cells``, junction marker nv):
    since iM + (dt/2)K = 2iM - A, this is the Cayley step.  The first ``nv``
    dofs are the junctions and the rest chain rows, so T = A[nv:, nv:] is
    tridiagonal with no coupling between chains (lines and the star's modes
    are nv = 0).  T is strictly row diagonally dominant for either sign of
    dt, |A_ii| = hypot(M_ii, dt K_ii / 2) > |dt| K_ii / 2 = sum_{j != i}
    |A_ij|, so it factors as diag(p) L U without pivoting (``_factor_chains``)
    and the row scale of a chain row is c / p: each step makes two banded
    triangular solves with no multiply between them.  With A = [[D, F], [E,
    T]] the vertices solve the dense Schur complement S = D - W E, W = F
    T^{-1}, and then x_I = T^{-1}(r_I - E x_V).  Kept are W diag(p) = F (LU)^{-1}
    and diag(1/p) E, which act on the scaled chain rows.  Row v of W is
    nonzero only on the chains that meet vertex v, so W is built by one
    transposed solve per (vertex, chain) pair on that chain's rows
    (``_chain_rows``), kept as row-sorted triplets and applied by one
    gather, one multiply and a segmented sum.  The rows of E are next to a
    vertex, inside every window, so E x_V is subtracted with no mask.

    It returns one function, ``run(u, nsteps, phase=None)``, which takes a
    whole run and returns its final state; ``run(u, 0)`` returns u, and u is
    never written.  ``phase(k)`` is multiplied in before step k + 1 and, as
    ``phase(nsteps)``, after the last step: the product of a potential's
    two phase half-steps that meet there.  The chains are solved only on the
    live window of the state (see the module docstring), which ``run``
    opens from u times ``phase(0)`` and keeps for the run: each step, and
    each phase between steps, touches only the window's spans.  An edge
    band moves out when its l2 norm exceeds cut, which it does whenever one
    of its values does.  Windows that touch share one sweep.  Every m steps
    cut is read again from the whole state, one scan per m sweeps, so that
    a state damped by a complex potential keeps its window growing.
    """
    ztbsv = _ztbsv()  # bound here: runs that build no stepper load no scipy

    cells, dirichlet = _chain_cells(chains, nv)
    c, bands, D, F, E = _assemble(n_dof, cells, dt, dirichlet, nv)
    factors = _factor_chains(*bands)
    rp = factors[1]
    n_rows = len(rp)
    c[nv:] *= rp  # the row scale of the chain rows: T^{-1} = (LU)^{-1} diag(1/p)
    # chain k is the rows first[k]:stop[k] of T, with no coupling between chains
    breaks = (np.flatnonzero((bands[0] == 0) & (bands[2] == 0)) + 1).tolist()
    first, stop = [0] + breaks, breaks + [n_rows]
    m = _margin(factors, dirichlet[dirichlet >= nv] - nv)

    if nv:
        solve_t = lambda w, a, b: _sweep(ztbsv, tuple(f[..., a:b] for f in factors), w, trans=1)
        w_rows, w_cols, w_vals = _chain_rows(F, nv, first, stop, solve_t)  # W diag(p)
        starts = np.flatnonzero(np.diff(w_rows, prepend=-1))
        w_hit = w_rows[starts]
        e_rows, e_cols, e_vals = E[0], E[1], E[2] * rp[E[0] - nv]  # diag(1/p) E
        # S = D - W E, with W and E cut down to the few chain dofs that E touches
        touched = np.unique(e_rows)
        pos = np.full(n_dof, -1)
        pos[touched] = np.arange(len(touched))
        E_t = np.zeros((len(touched), nv), dtype=complex)
        np.add.at(E_t, (pos[e_rows], e_cols), e_vals)
        hit = pos[w_cols] >= 0
        W_t = np.zeros((nv, len(touched)), dtype=complex)
        np.add.at(W_t, (w_rows[hit], pos[w_cols[hit]]), w_vals[hit])
        s_inv = np.linalg.inv(D - W_t @ E_t)

    def settle(lo, hi):
        """(sweeps, spans, edge bands) of the window [lo[k], hi[k]) of each chain k; touching windows share a sweep."""
        runs, edges = [], []
        for k, (a, b) in enumerate(zip(lo, hi)):
            if a == b:
                continue
            if runs and runs[-1][1] == a:
                runs[-1][1] = b
            else:
                runs.append([a, b])
            if a > first[k]:
                edges.append((k, False, slice(nv + a, nv + min(a + m, b))))
            if b < stop[k]:
                edges.append((k, True, slice(nv + max(b - m, a), nv + b)))
        sweeps = [(nv + a, tuple(f[..., a:b] for f in factors)) for a, b in runs]
        spans = [slice(0, nv)] if nv else []
        if runs:
            spans.append(slice(nv + runs[0][0], nv + runs[-1][1]))
        return sweeps, spans, edges

    def run(u, nsteps, phase=None):
        if nsteps == 0:
            return u
        if phase is not None:
            u = phase(0) * u
        mag = np.abs(u)
        cut = _NEGLIGIBLE * float(np.max(mag, initial=0.0))
        if not math.isfinite(cut):
            raise ValueError("the state to evolve contains NaN or infinity")
        hot = mag[nv:] > cut
        hot[E[0] - nv] = True  # the rows next to a vertex, so that E x_V never leaves the window
        lo, hi = list(first), list(first)
        for k, (a, b) in enumerate(zip(first, stop)):
            on = np.flatnonzero(hot[a:b])
            if len(on):
                lo[k], hi[k] = max(a + int(on[0]) - m, a), min(a + int(on[-1]) + 1 + m, b)
        sweeps, spans, edges = settle(lo, hi)
        keep = np.zeros(n_dof, dtype=bool)
        keep[:nv] = True
        for off, sweep in sweeps:
            keep[off : off + len(sweep[1])] = True
        u = np.where(keep, u, 0.0).astype(complex, copy=False)
        x = np.zeros(n_dof, dtype=complex)  # scaled right-hand side; zero outside the spans
        for age in range(1, nsteps + 1):
            for s in spans:
                np.multiply(c[s], u[s], out=x[s])
            if nv:
                r = x[:nv].copy()
                r[w_hit] -= np.add.reduceat(w_vals * x[w_cols], starts)
                xv = s_inv @ r
                np.subtract.at(x, e_rows, e_vals * xv[e_cols])
                x[:nv] = xv
            for off, sweep in sweeps:
                x = _sweep(ztbsv, sweep, x, off)
            for s in spans:
                np.subtract(x[s], u[s], out=u[s])
            if age % m == 0:  # a potential may have damped the whole state
                cut = _NEGLIGIBLE * float(np.max(np.abs(u)))
            grown = False
            for k, outward, band in edges:
                if np.vdot(u[band], u[band]).real > cut**2:
                    if outward:
                        hi[k] = min(hi[k] + m, stop[k])
                    else:
                        lo[k] = max(lo[k] - m, first[k])
                    grown = True
            if grown:
                sweeps, spans, edges = settle(lo, hi)
            if phase is not None and age < nsteps:
                f = phase(age)
                for s in spans:
                    np.multiply(u[s], f[s], out=u[s])
        return u if phase is None else phase(nsteps) * u

    return run


def _sample_potential(fn, t, packing, graph, grid):
    """Sample a per-edge potential on the dof vector.

    A potential is a function on the graph, so per-edge callables must agree
    at shared vertices; a mismatch is rejected rather than silently resolved.
    """
    fns = list(fn) if isinstance(fn, (list, tuple)) else [fn] * graph.n_edges
    if len(fns) != graph.n_edges:
        raise ValueError("need one potential per edge")
    vals = (_sample_edge(f, t, grid.x(eid)) for eid, f in enumerate(fns))
    message = "per-edge potentials disagree at a shared vertex"
    return _scatter(packing, vals, lambda v: 1e-9 * (1.0 + np.abs(v)), message)


def _sample_edge(f, t, x) -> np.ndarray:
    """f(t, x) as one complex value per point of x; NaN and infinity are refused."""
    vals = np.asarray(f(t, x), dtype=complex) + np.zeros_like(x, dtype=complex)
    if not np.all(np.isfinite(vals.view(float))):
        raise ValueError("potential samples contain NaN or infinity")
    return vals


def _guard_tail(pieces, cfg: EvolutionConfig) -> float:
    """Share of the trapezoid mass in the cut region, the truncation guard.

    ``pieces`` holds (x, w, cut) per edge or line: sample points, weights
    |u|^2 and the cut mask; a cell counts when both of its ends are cut.
    Raises TruncationGuardError when the share exceeds ``cfg.guard_tol``.
    """
    total = tail = 0.0
    for x, w, cut in pieces:
        cells = np.diff(x) * (w[:-1] + w[1:]) / 2.0
        total += float(np.sum(cells))
        tail += float(np.sum(cells[cut[:-1] & cut[1:]]))
    fraction = tail / total if total > 0 else 0.0
    if fraction > cfg.guard_tol:
        raise TruncationGuardError(
            f"fraction {fraction:.3e} of the mass lies beyond {cfg.boundary_guard:.2f} of the truncated domain"
        )
    return fraction


def _vertex_system(u0: GraphState):
    """The vertex system of any graph: (n_dof, chains, p, packed u0, potential sampler, spread, unpacker).

    Its chain list is the graph's (``_pack_graph``), junction k vertex k.
    The sampler returns one value per dof, so ``spread`` is the identity.
    """
    graph, grid = u0.graph, u0.grid
    packing = _pack_graph(graph, grid)
    n_dof, chains = packing
    sample = lambda f, t: _sample_potential(f, t, packing, graph, grid)
    unpack = lambda u: tuple(u[dofs] for dofs, *_ in chains)
    return n_dof, chains, len(graph.vertices), _pack_state(u0, packing), sample, lambda a: a, unpack


def _star_modes(u0: GraphState, static, dynamic) -> bool:
    """Whether the run may step the edge-mean/difference modes of a star.

    It may when the graph is a star whose edges share one length and neither
    potential is given per edge, so that every edge sees the same operator.
    """
    return (
        u0.graph.is_star
        and len(set(u0.grid.lengths)) == 1
        and not any(isinstance(f, (list, tuple)) for f in (static, dynamic))
    )


def _mode_system(u0: GraphState):
    """The mode system of a star that ``_star_modes`` admits, laid out like ``_vertex_system``.

    The modes are an (N, n) array on the shared ray grid, packed row by row:
    row 0 is the edge mean, whose first sample is the vertex value, and row
    k is u_k - u_0.  Row 0 is a chain whose vertex end is None (the
    half-mass Neumann row, ``_chain_cells``) and whose far end is Dirichlet;
    rows 1.. are chains Dirichlet at both ends.  No chain has a junction (p
    = 0).  The vertex value and the continuity check are the vertex
    system's (``_pack_state``).  A potential is sampled once on the ray, and
    ``spread`` tiles a function of it (its phase) over the chains.
    """
    n_edges, n, h = u0.graph.n_edges, u0.grid.counts[0], u0.grid.h
    x = u0.grid.x(0)
    vertex = _pack_state(u0, _pack_graph(u0.graph, u0.grid))[0]
    vals = np.stack(u0.values)
    modes = np.empty_like(vals)
    modes[0] = np.mean(vals, axis=0)
    modes[1:] = vals[1:] - vals[0]
    modes[:, 0] = 0.0
    modes[0, 0] = vertex
    ray = np.arange(n)
    chains = [(ray, None, 0, 1.0 / h, h), *((k * n + ray, 0, 0, 1.0 / h, h) for k in range(1, n_edges))]
    sample = lambda f, t: _sample_edge(f, t, x)
    spread = lambda a: np.tile(a, n_edges)

    def unpack(u):
        d = np.zeros((n_edges, n), dtype=complex)
        d[1:] += u.reshape(n_edges, n)[1:]  # adding to +0 turns -0 into +0: equal edges come out bit-equal
        return tuple(u[:n] - d.sum(axis=0) / n_edges + d)

    return n_edges * n, chains, 0, modes.ravel(), sample, spread, unpack


def _evolve_graph(
    u0: GraphState, t_final: float, cfg: EvolutionConfig, static, dynamic, vertex_path: bool = False
) -> GraphState:
    """Cayley steps wrapped in the potential's phase half-steps.

    ``static`` is sampled once, ``dynamic`` at every half-step; a number
    (any ``numbers.Number``) stands for the constant potential.  One call
    of the stepper's run (``_cayley_stepper``) takes the steps, with the
    half-steps that meet between steps multiplied in as one ``phase(k)``: a
    static potential's exp(i dt/2 v) and its square are computed once, a
    dynamic potential's two half-steps are sampled and multiplied.  The
    phase is computed where the system samples (on the ray for the modes)
    and then spread over the dofs.  The steps run on the star's mode system
    when ``_star_modes`` admits the run and ``vertex_path`` is False, and on
    the vertex system otherwise.  Both systems give one chain list, which
    ``_free_chains`` or the stepper takes.  A free run (no potential at all)
    with at most ``_MAX_INTERFACES`` junctions takes all its steps at once
    (``_free_chains``) unless ``vertex_path`` asks for the stepped vertex
    system.  A run of no steps samples the static potential, so that its
    checks run, and returns the data without building a stepper.
    """
    nsteps = _n_steps(t_final - u0.time, cfg.dt)
    graph, grid = u0.graph, u0.grid
    dt_signed = math.copysign(cfg.dt, t_final - u0.time) if t_final != u0.time else cfg.dt
    modes = not vertex_path and _star_modes(u0, static, dynamic)
    n_dof, chains, p, u, sample_at, spread, unpack = (_mode_system if modes else _vertex_system)(u0)

    def sample(f, t):
        if isinstance(f, numbers.Number):
            f = lambda t, x, c=f: c
        return sample_at(f, t)

    v1 = None if static is None else sample(static, u0.time)
    if nsteps == 0:
        values = u0.values
    elif static is None and dynamic is None and p <= _MAX_INTERFACES and not vertex_path:
        values = unpack(_free_chains(u, chains, p, dt_signed, nsteps))
    else:
        half = lambda v: np.exp(1j * (dt_signed / 2.0) * v)  # the phase half-step of the potential v
        phase = None
        if dynamic is not None:
            at = lambda t: half(sample(dynamic, t) if v1 is None else v1 + sample(dynamic, t))
            def phase(k):  # the half-step after step k - 1 times the one before step k
                t = u0.time + k * dt_signed
                before = at(t - dt_signed / 4.0) if k else 1.0
                return spread(before * at(t + dt_signed / 4.0) if k < nsteps else before)
        elif v1 is not None:
            ends = spread(half(v1))
            between = ends * ends
            phase = lambda k: between if 0 < k < nsteps else ends
        values = unpack(_cayley_stepper(n_dof, chains, p, dt_signed)(u, nsteps, phase))
    out = GraphState(graph, grid, values, u0.time + nsteps * dt_signed)
    if cfg.boundary_guard is not None:
        pieces = []
        for eid, e in enumerate(graph.edges):
            x = grid.x(eid)
            pieces.append((x, np.abs(out.values[eid]) ** 2, e.infinite & (x >= cfg.boundary_guard * grid.lengths[eid])))
        _guard_tail(pieces, cfg)
    return out


def _graph_oracle(u0: GraphState, t_final: float, cfg: EvolutionConfig) -> GraphState | None:
    """The stepped vertex system's run of ``evolve_graph(u0, t_final, cfg)``, the oracle of its modes and free run.

    None when ``evolve_graph`` steps the vertex system itself, which has no other oracle.
    """
    if not _star_modes(u0, None, None) and len(u0.graph.vertices) > _MAX_INTERFACES:
        return None
    return _evolve_graph(u0, t_final, cfg, None, None, vertex_path=True)


def evolve_graph(u0: GraphState, t_final: float, cfg: EvolutionConfig) -> GraphState:
    """Evolve i u_t + Laplacian_Gamma u = 0 to t_final, with no potential.

    The L2 norm of the result equals the initial norm to round-off.  Negative
    t_final runs the reversed group.
    """
    return _evolve_graph(u0, t_final, cfg, None, None)


def evolve_graph_potential(
    u0: GraphState,
    V1: Callable | Sequence[Callable] | float | None,
    V2: Callable | Sequence[Callable] | None,
    t_final: float,
    cfg: EvolutionConfig,
) -> GraphState:
    """Evolve u_t = i (Laplacian_Gamma + V1(x) + V2(t, x)) u.

    V1 is time independent (real for a unitary flow) and is sampled once, at
    t = u0.time; V2 may be complex, in which case the norm drifts like
    exp(-t * Im V2) for constant V2.  Either may be a single callable used on
    every edge or one callable per edge; callables receive (t, x).
    ``evolve_graph`` is the case V1 = V2 = None.
    """
    return _evolve_graph(u0, t_final, cfg, V1, V2)


# ---------------------------------------------------------------------------
# line problems
# ---------------------------------------------------------------------------


def _cell_sigma(sigma, nodes) -> np.ndarray:
    if isinstance(sigma, PiecewiseCoefficient):
        for b in sigma.breakpoints():
            if np.min(np.abs(nodes - b)) > 1e-9 * max(1.0, abs(b)):
                raise ValueError(f"breakpoint {b} is not a grid node")
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        return sigma.sigma_at(mid)
    arr = np.asarray(sigma, dtype=float)
    if arr.shape != (len(nodes) - 1,):
        raise ValueError("per-cell sigma must have one value per grid cell")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sigma must be finite")
    if np.any(arr <= 0):
        raise ValueError("sigma must be positive")
    return arr


# A free line with more interfaces than this, or a free graph with more
# vertices, steps the Cayley core instead of taking the whole run at once
# (``_free_chains``).  Measured on a 2-core x86 VM with one BLAS thread, 2000
# steps at dt = 5e-4: on a 201-node line the whole run took 45% of the
# stepped time with 2 interfaces, 80% with 4, 1.8 times with 6 and 2.2 with
# 8; on a 4001-node line 14%, 20%, 25% and 40%.  The cap stays 4 until the
# free path's round-off at large dt/h is settled.  c07's line has 2
# interfaces, the depth-2 fold of a binary tree 4, the binary tree 3
# vertices and the depth-2 binary tree 7.
_MAX_INTERFACES = 4
# Steps per segment of ``_free_chains``: the junction response is computed once
# for this many steps, and longer runs restart from the state at each end.
_SEGMENT = 1024
# Most terms per leaf of ``_series_inverse``'s divide and conquer: the first
# leaf comes term by term from the recurrence, every leaf from one product
# with its (p leaf)^2 block Toeplitz matrix, and the pulls between halves
# from FFT products.  64 was as fast on c07 and c08 and held 0.2 MB more.
_LEAF = 32
# Entries (16 bytes each) of the largest array of powers that ``_power_blocks``
# holds.  A ``_free_chains`` run with junctions allocates one workspace of
# 3 _BLOCK entries (768 kB) for them; each block overwrites the last.
_BLOCK = 16384


def _sine(v: np.ndarray) -> np.ndarray:
    """a_j = sum_k sin(pi j k / (m + 1)) v_k for j, k = 1..m: the FFT of the odd extension.

    Its own inverse up to the factor 2 / (m + 1).
    """
    m = len(v)
    z = np.zeros(2 * (m + 1), dtype=complex)
    z[1 : m + 1] = v
    z[m + 2 :] = -v[::-1]
    return 0.5j * np.fft.fft(z)[1 : m + 1]


def _powers(mu: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """mu^0 .. mu^(k-1), one row each, by doubling, in the first k len(mu) entries of out."""
    out = out[: k * len(mu)].reshape(k, len(mu))
    out[0] = 1.0
    n = 1
    while n < k:
        np.multiply(out[: min(n, k - n)], mu if n == 1 else out[n - 1] * mu, out=out[n : 2 * n])
        n *= 2
    return out


def _power_blocks(mu: np.ndarray, nterms: int, work: np.ndarray):
    """(cols, near, far, spare) over blocks of columns of mu, with near[b] = mu^b and far[i] = mu^(i len(near)).

    Power r < nterms is near[r % len(near)] * far[r // len(near)], both about
    sqrt(nterms) rows, and neither holds more than ``_BLOCK`` entries.  near,
    far and the spare (cols, len(far)) array are views into the workspace
    work (``3 * _BLOCK`` entries), so the next block overwrites them.
    """
    inner = math.isqrt(max(nterms - 1, 0)) + 1
    outer = -(-nterms // inner)
    size = max(1, _BLOCK // max(inner, outer))
    for j in range(0, len(mu), size):
        cols = slice(j, j + size)
        near = _powers(mu[cols], inner, work[:_BLOCK])
        far = _powers(near[-1] * mu[cols], outer, work[_BLOCK : 2 * _BLOCK])
        yield cols, near, far, work[2 * _BLOCK : 2 * _BLOCK + far.size].reshape(far.shape[::-1])


def _power_sums(near: np.ndarray, far: np.ndarray, spare: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j mu_j^r weights_j over one block's columns j (``_power_blocks``), r < len(near) len(far): one matrix product."""
    return (near @ np.multiply(far.T, weights[:, None], out=spare)).T.reshape(-1)


def _power_poly(near: np.ndarray, far: np.ndarray, spare: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_r coeffs_r mu_j^r for one block's columns j (``_power_blocks``), len(coeffs) <= len(near) len(far): one matrix product."""
    padded = np.zeros(len(near) * len(far), dtype=complex)
    padded[: len(coeffs)] = coeffs
    product = np.matmul(near.T, padded.reshape(len(far), len(near)).T, out=spare)
    return np.einsum("ji,ij->j", product, far)


class _Basis:
    """The data-independent tables of a uniform chain: m interior rows, coupling g = (dt/2) sigma / h^2.

    With a = _sine(rows) and vertex values entering as q = s_next + s at
    each end, one Cayley step is a_next = mu a + beta S_1 (q_first +- q_last),
    + for odd j, - for even, where S_1 = sin(pi j / (m + 1)) is the sine
    mode at the first row (at the last it is (-1)^(j+1) S_1), mu = (i + g
    lam) / (i - g lam) = exp(-2i arctan(g lam)), beta = -g / (i - g lam) and
    lam = 4 sin^2(pi j / 2(m + 1)).  A row next to a vertex reads 2 / (m +
    1) S_1 a (with the sign at the last row), so every sum over the modes
    splits into one over odd j and one over even j.  The junction terms mu,
    beta and S_1 are built on first use, so a chain that no junction reads
    (``_free_chains`` with p = 0) builds only its phases.  Chains with the
    same m and g share one basis, and one ``sweep`` serves them all.  work is
    the run's workspace for blocks of powers (``_power_blocks``), None when
    no junction reads the chain.
    """

    def __init__(self, m: int, g: float, work: np.ndarray | None):
        self.g = g
        self.work = work
        self.lam = 4.0 * np.sin(np.pi * np.arange(1, m + 1) / (2 * (m + 1))) ** 2
        self.theta = np.arctan(g * self.lam)

    @functools.cached_property
    def mu(self) -> np.ndarray:
        return np.exp(-2j * self.theta)

    @functools.cached_property
    def beta(self) -> np.ndarray:
        return -self.g / (1j - self.g * self.lam)

    @functools.cached_property
    def edge(self) -> np.ndarray:
        m = len(self.lam)
        return np.sin(np.pi * np.arange(1, m + 1) / (m + 1))

    def sweep(self, layers, nterms, q=None):
        """One ``_power_blocks`` pass per parity of j for the layers on this basis: their traces, and the response on the first pass.

        With q, the (run, p + 1) junction values of a run, each layer first
        takes the run's steps, its vertices entering as q[k, ends] at step k:
        the free phases (``_Layer.advance``), then per block the kick sum_r
        q[run - 1 - r] mu^r.  Each layer's ``traces`` become its rows next to
        the vertices after r free steps from its state, r < nterms: (first
        row, last row).  Without q (the run's first pass) it returns the same
        pair for the rows r free steps after the step a unit q enters at the
        first vertex, the junction response; by symmetry a unit q at the last
        vertex gives it swapped.
        """
        run, polys = 0, ([], [])
        if q is not None:
            run = len(q)
            for layer in layers:
                layer.advance(run)
            polys = [[q[::-1, a] + sign * q[::-1, b] for a, b in (layer.ends for layer in layers)] for sign in (1.0, -1.0)]
        read = (2.0 / (len(self.mu) + 1)) * self.edge  # a row next to a vertex reads read . a
        kick = self.beta * self.edge
        sums = np.zeros((len(layers) + (q is None), 2, nterms), dtype=complex)  # (weight, parity, r)
        for parity in (0, 1):
            for cols, near, far, spare in _power_blocks(self.mu[parity::2], max(nterms, run), self.work):
                at = slice(parity + 2 * cols.start, parity + 2 * cols.stop, 2)
                for layer, coeffs in zip(layers, polys[parity]):
                    layer.coef[at] += kick[at] * _power_poly(near, far, spare, coeffs)
                if nterms:
                    weights = [layer.coef[at] for layer in layers] + ([kick[at]] if q is None else [])
                    for out, w in zip(sums[:, parity], weights):
                        out += _power_sums(near, far, spare, read[at] * w)[:nterms]
        for layer, (odd, even) in zip(layers, sums):
            layer.traces = (odd + even, odd - even)
        if q is None:
            return sums[-1, 0] + sums[-1, 1], sums[-1, 0] - sums[-1, 1]


class _Layer:
    """The interior rows of one uniform chain in its sine basis (a ``_Basis``): their coefficients a.

    ends are the chain's ends (a, b), and traces its rows next to them over
    the next run's free steps, as the last ``_Basis.sweep`` left them.
    """

    def __init__(self, basis: _Basis, rows: np.ndarray, ends: tuple[int, int]):
        self.basis = basis
        self.coef = _sine(rows)
        self.ends = ends
        self.traces = None

    def advance(self, nsteps):
        """nsteps free steps, the vertices held at zero; ``_Basis.sweep`` adds what they send."""
        self.coef = np.exp(-2j * nsteps * self.basis.theta) * self.coef

    def values(self) -> np.ndarray:
        """The interior rows of the current state."""
        return (2.0 / (len(self.coef) + 1)) * _sine(self.coef)


def _series_inverse(T: np.ndarray) -> np.ndarray:
    """Z with sum_{k <= r} T[k] Z[r - k] = (r == 0) I for r < len(T), by relaxed divide and conquer.

    With S[k] = -T[0]^{-1} T[k] the terms obey Z[r] = sum_{1 <= k <= r} S[k]
    Z[r - k] from Z[0] = T[0]^{-1}, and so do the terms of Y = (I - S)^{-1}
    from Y[0] = I.  The n terms, padded to leaf 2^d with leaf at most
    ``_LEAF``, are halved down to leaves (van der Hoeven's relaxed division).
    The first leaf terms of Y come from the recurrence, one (p, k p) @ (k p,
    p) product per term, and they solve every leaf: a leaf whose earlier
    halves sent it the sums c[r] has Z[r] = sum_j Y[r - j] c[j], one product
    with the leaf's block Toeplitz matrix of Y.  A finished half's pull on the
    next half, sum_j S[r - j] Z[j] over its terms j, is one cyclic FFT product
    of twice its length (the wrap reaches only the half's own lags), and each
    length's spectrum of S is taken once.  That is about p^3 (leaf^2 / 2 + n
    leaf + n log2(n / leaf)) multiply-adds in a few dozen products, against
    p^3 n^2 / 2 in n small products term by term.  Every term is still the
    recurrence's, from terms already solved: an FFT product only adds a sum
    of them, within about eps log n of its largest entry, and is never fed
    back into itself as a Newton iteration's products are.  So where the
    terms decay the result stays within rounding of the term-by-term
    recurrence; where they do not (four interfaces at dt/h = 10) the two
    part by 1.4e-13 of max|Z| over 1024 terms, each within 2e-13 of a long
    double recurrence.
    """
    n, p = T.shape[:2]
    depth = max(0, math.ceil(math.log2(n / _LEAF)))
    leaf = -(-n // (1 << depth))
    size = leaf << depth  # S is zero past n, so the padded terms change none below n
    head = -np.linalg.inv(T[0])
    S = np.zeros((p, p, size), dtype=complex)  # the series axis last, as the FFTs read it
    S[:, :, 1:n] = (head @ T[1:]).transpose(1, 2, 0)
    # Y[r] in rows (leaf - 1 - r) p .., term by term
    flat = S[:, :, :leaf].transpose(0, 2, 1).reshape(p, leaf * p)
    back = np.zeros((leaf * p, p), dtype=complex)
    back[(leaf - 1) * p :] = np.eye(p)
    for r in range(1, leaf):
        back[(leaf - 1 - r) * p : (leaf - r) * p] = flat[:, p : (r + 1) * p] @ back[(leaf - r) * p :]
    # the leaf's block Toeplitz matrix, rows (a, i) and columns (b, j) holding Y[i - j][a, b] for i >= j
    toeplitz = np.zeros((leaf * p, leaf * p), dtype=complex)
    blocks = toeplitz.reshape(p, leaf, p, leaf)
    for lag in range(leaf):
        i = np.arange(lag, leaf)
        blocks[:, i, :, i - lag] = back[(leaf - 1 - lag) * p : (leaf - lag) * p]
    Z = np.zeros((p, p, size), dtype=complex)
    Z[:, :, 0] = -head
    spectra = {}

    def solve(lo, hi):
        if hi - lo == leaf:
            sent = Z[:, :, lo:hi].transpose(0, 2, 1).reshape(leaf * p, p)
            Z[:, :, lo:hi] = (toeplitz @ sent).reshape(p, leaf, p).transpose(0, 2, 1)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        if mid < n:
            if hi - lo not in spectra:
                spectra[hi - lo] = np.fft.fft(S[:, :, : hi - lo])
            pull = np.einsum("abf,bcf->acf", spectra[hi - lo], np.fft.fft(Z[:, :, lo:mid], hi - lo))
            Z[:, :, mid:hi] += np.fft.ifft(pull)[:, :, mid - lo :]
            solve(mid, hi)

    solve(0, size)
    return Z[:, :, :n].transpose(2, 0, 1)


def _free_chains(u: np.ndarray, chains, p: int, dt: float, nsteps: int) -> np.ndarray:
    """``nsteps`` Cayley steps of uniform chains joined at p junctions, with no potential, each chain in its sine basis.

    ``chains`` is a chain list (see the module docstring) with numbers w and
    h; a junction's row of A reads i M - (dt/2) sum w over the chain ends
    there (M = sum h / 2).  A chain (d, None, b, w, h), whose first end is
    Neumann, runs reflected evenly about that end, as (d reversed without
    its first sample, then d) from b to b: its middle row is twice the
    half-mass row that ``_chain_cells`` makes of the end, so the even data
    takes the same steps.  Each chain's samples are gathered from the packed
    state u, and a copy of u with every chain's samples after the run,
    scattered in chain order, is returned; a dof that one chain lists twice
    takes its later sample, so a reflected chain writes back its original
    half.

    The harmonic ramp (K ramp = 0: linear on each chain, Kirchhoff at the
    junctions, the data at the Dirichlet ends; none without a Dirichlet end)
    is a fixed point of the step, so the rest v is stepped with zero ends.
    The interior rows of each chain are a ``_Layer``, and chains with the
    same row count and coupling share one ``_Basis``, its junction response
    and its passes over blocks of powers (a tree's equal rays, a star's
    difference modes); a one-cell
    chain couples its two ends directly.  The unknowns left are the junction
    values s.  Their rows of A (u_next + u) = 2iM u, with the chain row next
    to each written as its free trace plus its response to the earlier q =
    s_next + s, read sum_{k <= n} R[n - k] q^k = 2iM s^n - (free traces):
    R[0] is the junction rows of A with the chain responses at lag 0, R[r]
    the responses at lag r.  With x^n = s^(n+1), q^n = x^n + x^(n-1), this is
    sum_{k <= n} U[n - k] x^k = b^n with U[r] = R[r] + R[r - 1] - 2iM (r ==
    1), the same at every step, and b^n from the free traces and s^0.  The
    inverse Z of U (``_series_inverse``) solves a run of up to ``_SEGMENT``
    steps as one FFT convolution, x = Z * b; each chain then takes the run's
    steps at once (``_Basis.sweep``), and a longer run restarts from there
    with the same Z.  With no junction (p = 0) there is no recurrence, and
    each chain takes the whole run at once.  The rows hold round-off of
    about eps max|u| where the stepped core keeps zeros.
    """
    out = u.copy()
    if nsteps == 0:
        return out
    chains = [(np.r_[d[:0:-1], d], b, b, w, h) if a is None else (d, a, b, w, h) for d, a, b, w, h in chains]
    dofs = [c[0] for c in chains]
    chains = [(u[d], *rest) for d, *rest in chains]  # each chain's samples, from end a to end b
    ramp_at = np.zeros(p + 1, dtype=complex)
    if p and any(p in (a, b) for _, a, b, _, _ in chains):
        # the ramp's junction values: conductance w / cells on each chain, the data at the Dirichlet ends
        G = np.zeros((p + 1, p + 1))
        flux = np.zeros(p + 1, dtype=complex)
        for vals, a, b, w, h in chains:
            c = w / (len(vals) - 1)
            for x, y, far in ((a, b, vals[-1]), (b, a, vals[0])):
                G[x, x] += c
                G[x, y] -= c
                flux[x] += c * far if y == p else 0.0
        ramp_at[:p] = np.linalg.solve(G[:p, :p], flux[:p])
    s = np.zeros(p + 1, dtype=complex)  # v at the junctions; entry p, the Dirichlet ends, stays 0
    work = np.empty(3 * _BLOCK, dtype=complex) if p else None  # every layer's blocks of powers
    bases = functools.cache(lambda m, g: _Basis(m, g, work))  # one per distinct (m, g)
    ramps, layers = [], []
    for vals, a, b, w, h in chains:
        t = np.arange(len(vals)) / (len(vals) - 1)
        ramps.append((vals[0] if a == p else ramp_at[a]) * (1.0 - t) + (vals[-1] if b == p else ramp_at[b]) * t)
        v = vals - ramps[-1]  # exactly 0 at a Dirichlet end
        s[a], s[b] = v[0], v[-1]
        layers.append(_Layer(bases(len(vals) - 2, (dt / 2.0) * w / h), v[1:-1], (a, b)) if len(vals) > 2 else None)
    s = s[:p]
    if not p:  # no recurrence: each chain takes the whole run at once
        for layer in layers:
            if layer is not None:
                layer.advance(nsteps)
    else:
        seg = min(nsteps, _SEGMENT)
        groups = {}  # the layers on each basis
        for layer in layers:
            if layer is not None:
                groups.setdefault(layer.basis, []).append(layer)
        # one pass per basis: its layers' first traces and its junction response,
        # each lag summed with the one before it (the chain row at two
        # successive steps, as q is)
        lagged = {}
        for basis, members in groups.items():
            lagged[basis] = [np.concatenate([f[:1], f[1:seg] + f[: seg - 1]]) for f in basis.sweep(members, seg + 1)]
        R = np.zeros((seg, p + 1, p + 1), dtype=complex)  # row and column p: the Dirichlet ends, dropped
        mass = np.zeros(p + 1)
        for layer, (vals, a, b, w, h) in zip(layers, chains):
            alpha = (dt / 2.0) * w  # the entry of A between a junction and the chain row next to it
            if layer is not None:
                same, cross = lagged[layer.basis]
            for x, y in ((a, b), (b, a)):
                mass[x] += h / 2.0
                R[0, x, x] -= alpha
                if layer is None:  # one cell: the two ends are neighbours
                    R[0, x, y] += alpha
                else:
                    R[:, x, x] += alpha * same
                    R[:, x, y] += alpha * cross
        mass = mass[:p]
        R = R[:, :p, :p]
        R[0] += np.diag(1j * mass)
        U = R.copy()
        U[1:] += R[:-1]
        U[1] -= np.diag(2j * mass)
        Zf = np.fft.fft(_series_inverse(U), 2 * seg, axis=0)
        done = 0
        while done < nsteps:
            run = min(seg, nsteps - done)
            rhs = np.zeros((run, p + 1), dtype=complex)
            rhs[:, :p] = -(R[:run] @ s)
            rhs[0, :p] += 2j * mass * s
            for layer, (vals, a, b, w, h) in zip(layers, chains):
                for x, f in zip((a, b), layer.traces if layer is not None else ()):
                    rhs[:, x] -= (dt / 2.0) * w * (f[1 : run + 1] + f[:run])
            rhs = np.fft.fft(rhs[:, :p], 2 * seg, axis=0)
            x = np.fft.ifft(np.einsum("fab,fb->fa", Zf, rhs), axis=0)[:run]
            q = np.zeros((run, p + 1), dtype=complex)  # column p: the Dirichlet ends keep q = 0
            q[:, :p] = x
            q[0, :p] += s
            q[1:, :p] += x[:-1]
            s = x[-1]
            done += run
            # one pass per basis: its layers take the run's steps and their next traces
            after = min(seg, nsteps - done)
            for basis, members in groups.items():
                basis.sweep(members, after + 1 if after else 0, q)
    s = np.append(s, 0.0)
    for d, layer, ramp, (vals, a, b, w, h) in zip(dofs, layers, ramps, chains):
        ramp[[0, -1]] += s[[a, b]]
        if layer is not None:
            ramp[1:-1] += layer.values()
        dof, first = np.unique(d[::-1], return_index=True)  # the later sample of a repeated dof
        out[dof] = ramp[::-1][first]
    return out


def _free_line(cells: np.ndarray, nodes: np.ndarray):
    """(chains, p) of a line's free run, layer by layer in sine bases (``_free_chains``); None if it does not qualify.

    The line splits at the interfaces, the nodes where the cell's (sigma, dx)
    changes.  A width counts as unchanged within 8 eps of the largest |node|,
    the rounding of the node coordinates, and each layer, a run of cells
    between two splits, is taken as uniform with its length over its cell
    count as spacing.  A line qualifies with at most ``_MAX_INTERFACES``
    interfaces and no layer whose widths spread wider than that.  It is the
    path graph of ``_free_chains``: layer k runs from interface k - 1 to
    interface k, the line's ends are its Dirichlet ends.
    """
    dx = np.diff(nodes)
    tol = 8.0 * np.finfo(float).eps * max(abs(nodes[0]), abs(nodes[-1]))
    splits = np.flatnonzero((cells[1:] != cells[:-1]) | (np.abs(np.diff(dx)) > tol)) + 1
    ends = np.concatenate([[0], splits, [len(nodes) - 1]])
    p = len(splits)  # interface k sits between layers k and k + 1
    if p > _MAX_INTERFACES or np.any(np.maximum.reduceat(dx, ends[:-1]) - np.minimum.reduceat(dx, ends[:-1]) > tol):
        return None
    h = np.diff(nodes[ends]) / np.diff(ends)
    w = cells[ends[:-1]] / h  # each layer's coupling sigma / h
    # layer 0 starts at the Dirichlet end p, layer p ends at it
    return [(np.arange(ends[k], ends[k + 1] + 1), (k - 1) % (p + 1), k, w[k], h[k]) for k in range(p + 1)], p


def _stepped_line(u0: np.ndarray, cells: np.ndarray, nodes: np.ndarray, dt: float, nsteps: int) -> np.ndarray:
    """``nsteps`` steps of the Cayley core on the line, one chain Dirichlet at both ends."""
    dx = np.diff(nodes)
    return _cayley_stepper(len(nodes), [(np.arange(len(nodes)), 0, 0, cells / dx, dx)], 0, dt)(u0, nsteps)


def evolve_line_sigma(
    u0: np.ndarray,
    sigma: PiecewiseCoefficient | np.ndarray,
    nodes: np.ndarray,
    t_final: float,
    cfg: EvolutionConfig,
) -> np.ndarray:
    """Evolve i u_t + d/dx(sigma du/dx) = 0 on [nodes[0], nodes[-1]], Dirichlet ends.

    ``nodes`` may be non-uniform; for a PiecewiseCoefficient every breakpoint
    must be a node, which keeps the discrete flux sigma u_x continuous across
    the jumps without special cases.  A line with at most
    ``_MAX_INTERFACES`` interfaces takes the whole run at once
    (``_free_line``); other lines step the Cayley core.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 5:
        raise ValueError("need a 1-D grid with at least 5 nodes")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("grid nodes must be finite")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("grid nodes must be strictly increasing")
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != nodes.shape:
        raise ValueError("u0 must be sampled on the grid nodes")
    if not np.all(np.isfinite(u0)):
        raise ValueError("the state to evolve contains NaN or infinity")
    cells = _cell_sigma(sigma, nodes)
    nsteps = _n_steps(t_final, cfg.dt)
    dt_signed = math.copysign(cfg.dt, t_final)
    free = _free_line(cells, nodes)
    if nsteps == 0:
        u = u0.copy()
    elif free:
        u = _free_chains(u0, *free, dt_signed, nsteps)
    else:
        u = _stepped_line(u0, cells, nodes, dt_signed, nsteps)
    if cfg.boundary_guard is not None:
        cutL = nodes[0] * cfg.boundary_guard if nodes[0] < 0 else nodes[0]
        cutR = nodes[-1] * cfg.boundary_guard if nodes[-1] > 0 else nodes[-1]
        _guard_tail([(nodes, np.abs(u) ** 2, (nodes <= cutL) | (nodes >= cutR))], cfg)
    return u


def _line_oracle(u0, sigma, nodes, t_final: float, cfg: EvolutionConfig) -> np.ndarray | None:
    """The stepped core's run of ``evolve_line_sigma`` on these arguments, with no guard; None if that run steps it itself."""
    nodes = np.asarray(nodes, dtype=float)
    cells = _cell_sigma(sigma, nodes)
    if _free_line(cells, nodes) is None:
        return None
    return _stepped_line(np.asarray(u0, dtype=complex), cells, nodes, math.copysign(cfg.dt, t_final), _n_steps(t_final, cfg.dt))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(state: GraphState, path, cfg: EvolutionConfig | None = None, meta: dict | None = None) -> None:
    """CSV checkpoint: meta lines t, h, dt, L (after ``meta``), then edge_id, x, re_u, im_u.

    L is the longest ray's truncation length, nan when the graph has no ray
    (as dt is without a config).
    """
    header = dict(meta or {})
    header["t"] = float(state.time)
    header["h"] = float(state.grid.h)
    header["dt"] = float(cfg.dt) if cfg is not None else float("nan")
    rays = [L for e, L in zip(state.graph.edges, state.grid.lengths) if e.infinite]
    header["L"] = float(max(rays, default=math.nan))
    edges = range(state.graph.n_edges)
    edge_id = np.concatenate([np.full(len(state.values[eid]), eid) for eid in edges])
    x = np.concatenate([state.grid.x(eid) for eid in edges])
    u = np.concatenate(state.values)
    write_csv(path, ["edge_id", "x", "re_u", "im_u"], from_columns(edge_id, x, u.real, u.imag), header)

