"""Unitary Crank-Nicolson evolution on graphs and on coefficient lines.

Solves i u_t + Lu = 0 where L is either the graph Laplacian with Kirchhoff
vertex conditions or d/dx(sigma du/dx) on the line with a piecewise-constant
coefficient (a ``PiecewiseCoefficient``, the object the transfer-matrix
kernels read, or one sigma per grid cell).  The operator is assembled from
the Dirichlet form on a (possibly non-uniform) grid with a lumped trapezoid
mass matrix, so the Cayley step

    (i M - dt/2 K) u_next = (i M + dt/2 K) u

conserves the trapezoid L2 norm to round-off whenever K is Hermitian.  Lines
and graphs share one stepper, written with the single matrix
A = i M - dt/2 K as u_next = A^{-1}(2 i M u) - u (Dirichlet rows: identity
and 2).  Vertex dofs come first and every edge is one contiguous chain, so
the chain block of A is tridiagonal and strictly diagonally dominant.  A is
never formed as a matrix: its pieces come straight from the cell list (the
three bands of the chain block, the dense vertex block and the few
vertex-chain entries).  The chain block is factored once without pivoting,
with its pivots 1/p folded into the row scale, so each step is one multiply
and two banded BLAS solves, and the vertices solve a small dense Schur
complement.  The BLAS routine is scipy's, imported when the first stepper is
built, so the rest of the package loads without scipy.

A run sweeps each chain only on its live window, carried from step to step
with the state.  A value is quiet below cut = eps^2 max|u|, read from the
first state and again every m steps.  A sweep carries the value of a row on
scaled by the product of the unit factors' couplings it passes, so the
margin m is the fewest rows such that every run of m couplings of either
factor multiplies to at most eps^2: one large coupling costs one factor,
not a slower decay over the whole block.  The window first spans the rows
above cut, widened by m.  Rows outside stay exactly zero, and the step's
elementwise work (row scale, - u, phase multiplies) runs only on the vertex
rows and the window's hull, from its first live row to its last.  Windows
only grow: after each step only the outer m rows at each window edge are
read, and an edge whose band holds a value above cut moves out by m; a
chain end next to a vertex above cut joins, and a quiet chain is not swept.
Each step drops at most about m cut per row, far below one rounding, and
the quiet far field is neither swept nor filled with subnormal numbers.

A star whose rays share one grid, with potentials that do not depend on the
edge, steps the same equations in other unknowns, its modes (the reduction
of ``reduction.star_sum``): the edge mean, whose far end is Dirichlet, and
the differences u_k - u_0, k >= 1, which vanish at the vertex and are
Dirichlet at both ends.  The vertex row divided by N is the half-mass
Neumann first row of the mean, so the modes are N plain chains with no
vertex dof, and the Laplacian and the potential act on every mode as on one
edge.  Data equal on every edge has differences exactly zero, so their
chains stay quiet and a step sweeps one ray, not N.  Other graphs, and stars
with unequal rays or per-edge potentials, step the vertex system, which
stays the oracle of the mode system.

Potentials are applied as exact pointwise phase half-steps around the Cayley
core, which keeps real potentials unitary and makes a spatially constant
potential act as an exact gauge factor; the half-steps of a static potential
merge into one multiply between steps.  One guard, on the share of the mass
beyond ``boundary_guard`` of each truncated ray or line end, rejects runs
whose wavefront has reached the artificial boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._report import from_columns, read_csv, write_csv
from .exppoly import PiecewiseCoefficient
from .graphs import GraphGrid, GraphState, MetricGraph

__all__ = [
    "EvolutionConfig",
    "TruncationGuardError",
    "evolve_graph",
    "evolve_graph_potential",
    "evolve_line_sigma",
    "line_grid",
    "write_checkpoint",
    "read_checkpoint",
]


class TruncationGuardError(RuntimeError):
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
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"|t_final| = {abs(t_final)} is not an integer multiple of dt = {dt}")
    return int(round(n))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GraphPacking:
    n_dof: int
    edge_dofs: tuple[np.ndarray, ...]  # per edge: dof index of each sample
    dirichlet: np.ndarray
    x_of_dof: np.ndarray  # edge coordinate of one representative sample
    edge_of_dof: np.ndarray  # representative edge id (vertices: any incident edge)


def _pack_graph(graph: MetricGraph, grid: GraphGrid) -> _GraphPacking:
    vertex_dof = {v: i for i, v in enumerate(graph.vertices)}
    n_dof = len(graph.vertices)
    edge_dofs = []
    dirichlet = []
    x_rep = [0.0] * n_dof
    e_rep = [0] * n_dof
    for v, d in vertex_dof.items():
        eid, end = graph.incident(v)[0]
        e_rep[d] = eid
        x_rep[d] = 0.0 if end == "initial" else grid.lengths[eid]
    for eid, e in enumerate(graph.edges):
        n = grid.counts[eid]
        dofs = np.empty(n, dtype=int)
        dofs[0] = vertex_dof[e.initial]
        interior = np.arange(n_dof, n_dof + n - 2)
        dofs[1:-1] = interior
        x = grid.x(eid)
        x_rep.extend(x[1:-1].tolist())
        e_rep.extend([eid] * (n - 2))
        n_dof += n - 2
        if e.terminal is None:
            dofs[-1] = n_dof
            dirichlet.append(n_dof)
            x_rep.append(x[-1])
            e_rep.append(eid)
            n_dof += 1
        else:
            dofs[-1] = vertex_dof[e.terminal]
        edge_dofs.append(dofs)
    return _GraphPacking(
        n_dof,
        tuple(edge_dofs),
        np.asarray(dirichlet, dtype=int),
        np.asarray(x_rep, dtype=float),
        np.asarray(e_rep, dtype=int),
    )


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


def _graph_cells(graph: MetricGraph, grid: GraphGrid, packing: _GraphPacking):
    pairs, weights, hs = [], [], []
    for eid in range(graph.n_edges):
        dofs = packing.edge_dofs[eid]
        h = grid.spacings[eid]
        pairs.append(np.stack([dofs[:-1], dofs[1:]], axis=1))
        weights.append(np.full(len(dofs) - 1, 1.0 / h))
        hs.append(np.full(len(dofs) - 1, h))
    return np.concatenate(pairs), np.concatenate(weights), np.concatenate(hs)


def _pack_state(state: GraphState, packing: _GraphPacking) -> np.ndarray:
    u = np.zeros(packing.n_dof, dtype=complex)
    filled = np.zeros(packing.n_dof, dtype=bool)
    scale = max(float(np.max(np.abs(v))) for v in state.values) or 1.0
    for eid in range(state.graph.n_edges):
        dofs = packing.edge_dofs[eid]
        vals = state.values[eid]
        mism = np.abs(u[dofs] - vals) * filled[dofs]
        if np.any(mism > 1e-9 * scale):
            raise ValueError("initial data is discontinuous at a vertex")
        u[dofs] = vals
        filled[dofs] = True
    return u


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
        x = tbsv(1, upper if trans else lower, x, offx=off, lower=1 - trans, trans=trans, diag=1, overwrite_x=1)
        x = tbsv(1, lower if trans else upper, x, offx=off, lower=trans, trans=trans, diag=1, overwrite_x=1)
    return x


# Entries of W (``_chain_rows``) below this fraction of the largest are
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
    every run through it the same way.
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


def _chain_rows(F, nv, chain_of, solve_t):
    """W = F X as (row, col, value) triplets sorted by row, then column.

    ``F`` holds (vertex, dof, value) triplets, X is the inverse of a block of
    chains (the stepper's is (LU)^{-1} = T^{-1} diag(p), T = A[nv:, nv:]),
    row i of X lies on chain ``chain_of[i]``, and ``solve_t`` applies X^T in
    place; W is in dof numbering like F.  Solves on different chains (runs
    of rows of X with no coupling between runs) do not mix.  So each vertex that meets a chain
    is ranked among the vertices meeting that chain, and the rows of F of one
    rank share a solve: a few solves in total, whatever the number of vertices.
    """
    f_rows, f_cols, f_vals = F[0], F[1] - nv, F[2]
    meets, pair = np.unique(np.stack([chain_of[f_cols], f_rows]), axis=1, return_inverse=True)
    pair_rank = np.arange(meets.shape[1]) - np.searchsorted(meets[0], meets[0])
    rank = pair_rank[pair.ravel()]
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    for r in range(rank.max(initial=-1) + 1):
        w = np.zeros(len(chain_of), dtype=complex)
        np.add.at(w, f_cols[rank == r], f_vals[rank == r])
        w = solve_t(w)
        owner = np.full(len(chain_of), -1)
        owner[meets[0, pair_rank == r]] = meets[1, pair_rank == r]
        nz = np.flatnonzero(np.abs(w) > _NEGLIGIBLE * np.max(np.abs(w)))
        rows.append(owner[chain_of[nz]])
        cols.append(nz + nv)
        vals.append(w[nz])
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


class _Window:
    """The chain rows that the Cayley steps of one run solve: [lo[k], hi[k]) of chain k.

    A stepper fills an empty window from the first state it steps (``cut`` is
    then the level below which a value is quiet, ``age`` counts the steps)
    and afterwards only widens it, so a window travels with one run's state
    and is never shared.  The other fields are derived from ``lo`` and ``hi``
    each time they change; ``spans`` are the vertex rows and the hull of the
    window, outside which the state is exactly zero.
    """

    def __init__(self):
        self.cut = None
        self.age = 0

    @property
    def rows(self) -> int:
        """Number of chain rows a step solves."""
        return sum(hi - lo for lo, hi in zip(self.lo, self.hi))

    def scale(self, u, f):
        """u *= f in place, on the spans once the window is open; returns u."""
        for s in self.spans if self.cut is not None else (slice(None),):
            np.multiply(u[s], f[s], out=u[s])
        return u


def _cayley_stepper(n_dof, cells, dt, dirichlet, nv=0):
    """The Crank-Nicolson step u -> A^{-1}(c u) - u, factored once.

    A = iM - (dt/2)K with identity rows at the Dirichlet dofs and c = 2i mass
    (2 on Dirichlet rows), assembled from ``cells`` by ``_assemble``: since
    iM + (dt/2)K = 2iM - A, this is the Cayley step.  The first ``nv`` dofs
    are graph vertices and the rest are edge chains, so T = A[nv:, nv:] is
    tridiagonal with no coupling between chains (lines and the star's modes
    are nv = 0).  T is strictly row diagonally dominant for either sign of
    dt, |A_ii| = hypot(M_ii, dt K_ii / 2) > |dt| K_ii / 2 = sum_{j != i}
    |A_ij|, so it factors as diag(p) L U without pivoting (``_factor_chains``)
    and the row scale of a chain row is c / p: each step makes two banded
    triangular solves with no multiply between them.  With A = [[D, F], [E,
    T]] the vertices solve the dense Schur complement S = D - W E, W = F
    T^{-1}, and then x_I = T^{-1}(r_I - E x_V).  Kept are W diag(p) = F (LU)^{-1}
    and diag(1/p) E, which act on the scaled chain rows.  Row v of W is
    nonzero only on the chains that meet vertex v, so W is kept as
    row-sorted triplets and applied by one gather, one multiply and a
    segmented sum.

    The chains are solved only on the live window of the state (see the
    module docstring), a ``_Window`` passed as ``step(u, live)`` and carried
    from step to step by the caller; ``step(u)`` finds a fresh one from u.
    A step on a carried window writes the next state over u and returns it
    (a fresh window first copies u), and touches only the window's spans.
    An edge band moves out when its l2 norm exceeds cut, which it does
    whenever one of its values does.  Windows that touch share one sweep.
    Every m steps cut is read again from the whole state, one scan per m
    sweeps, so that a state damped by a complex potential keeps its window
    growing.
    """
    # Importing scipy's BLAS wrappers costs more than numpy itself (0.1-0.15 s
    # and about 28 MB on a 2-core x86 VM) and only stepping needs them, so
    # ztbsv is bound here: runs that never evolve never load scipy.
    from scipy.linalg.blas import ztbsv

    c, bands, D, F, E = _assemble(n_dof, cells, dt, dirichlet, nv)
    factors = _factor_chains(*bands)
    rp = factors[1]
    n_rows = len(rp)
    c[nv:] *= rp  # the row scale of the chain rows: T^{-1} = (LU)^{-1} diag(1/p)
    # chain k is the rows first[k]:stop[k] of T, with no coupling between chains
    breaks = (np.flatnonzero((bands[0] == 0) & (bands[2] == 0)) + 1).tolist()
    first, stop = [0] + breaks, breaks + [n_rows]
    chain_of = np.repeat(np.arange(len(first)), np.diff(first + [n_rows]))
    m = _margin(factors, dirichlet[dirichlet >= nv] - nv)

    if nv:
        solve_t = lambda w: _sweep(ztbsv, factors, w, trans=1)
        w_rows, w_cols, w_vals = _chain_rows(F, nv, chain_of, solve_t)  # W diag(p)
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
        # the chain row and chain of each entry of E, and the rows that join
        # a window when the entry's vertex is live
        e_at = e_rows - nv
        e_chain = chain_of[e_at]
        e_join = [
            (k, max(r - m, first[k]), min(r + 1 + m, stop[k])) for r, k in zip(e_at.tolist(), e_chain.tolist())
        ]

    def settle(live):
        """Derive the sweeps, spans, edge bands and live entries of E from live.lo, live.hi."""
        runs, live.edges = [], []
        for k, (a, b) in enumerate(zip(live.lo, live.hi)):
            if a == b:
                continue
            if runs and runs[-1][1] == a:
                runs[-1][1] = b
            else:
                runs.append([a, b])
            if a > first[k]:
                live.edges.append((k, False, slice(nv + a, nv + min(a + m, b))))
            if b < stop[k]:
                live.edges.append((k, True, slice(nv + max(b - m, a), nv + b)))
        live.runs = [(nv + a, tuple(f[..., a:b] for f in factors)) for a, b in runs]
        live.spans = [slice(0, nv)] if nv else []
        if runs:
            live.spans.append(slice(nv + runs[0][0], nv + runs[-1][1]))
        if nv:
            inside = (np.asarray(live.lo)[e_chain] <= e_at) & (e_at < np.asarray(live.hi)[e_chain])
            live.e_vals = np.where(inside, e_vals, 0.0)
            live.cold = np.flatnonzero(~inside)

    def open_window(u, live):
        """Fill the empty ``live`` from u and return u, as a complex copy, set to zero outside it."""
        mag = np.abs(u)
        live.cut = _NEGLIGIBLE * float(np.max(mag, initial=0.0))
        if not math.isfinite(live.cut):
            raise ValueError("the state to evolve contains NaN or infinity")
        rows = np.flatnonzero(mag[nv:] > live.cut)
        live.lo, live.hi = list(first), list(first)
        if len(rows):
            ks, i = np.unique(chain_of[rows], return_index=True)
            j = np.append(i[1:], len(rows)) - 1
            for k, a, b in zip(ks.tolist(), rows[i].tolist(), rows[j].tolist()):
                live.lo[k], live.hi[k] = max(a - m, first[k]), min(b + 1 + m, stop[k])
        settle(live)
        live.x = np.zeros(n_dof, dtype=complex)  # scaled right-hand side; zero outside the spans
        keep = np.zeros(n_dof, dtype=bool)
        keep[:nv] = True
        for off, run in live.runs:
            keep[off : off + len(run[1])] = True
        return np.where(keep, u, 0.0).astype(complex, copy=False)

    def step(u, live=None):
        if live is None:
            live = _Window()
        if live.cut is None:
            u = open_window(u, live)
        x = live.x
        for s in live.spans:
            np.multiply(c[s], u[s], out=x[s])
        if nv:
            r = x[:nv].copy()
            r[w_hit] -= np.add.reduceat(w_vals * x[w_cols], starts)
            xv = s_inv @ r
            if len(live.cold):
                joins = live.cold[np.abs(xv[e_cols[live.cold]]) > live.cut]
                for k, a, b in (e_join[i] for i in joins.tolist()):
                    quiet = live.lo[k] == live.hi[k]
                    live.lo[k] = a if quiet else min(live.lo[k], a)
                    live.hi[k] = b if quiet else max(live.hi[k], b)
                if len(joins):
                    settle(live)
            np.subtract.at(x, e_rows, live.e_vals * xv[e_cols])
            x[:nv] = xv
        for off, run in live.runs:
            x = _sweep(ztbsv, run, x, off)
        for s in live.spans:
            np.subtract(x[s], u[s], out=u[s])
        live.age += 1
        if live.age % m == 0:  # a potential may have damped the whole state
            live.cut = _NEGLIGIBLE * float(np.max(np.abs(u)))
        grown = False
        for k, outward, band in live.edges:
            if np.vdot(u[band], u[band]).real > live.cut**2:
                if outward:
                    live.hi[k] = min(live.hi[k] + m, stop[k])
                else:
                    live.lo[k] = max(live.lo[k] - m, first[k])
                grown = True
        if grown:
            settle(live)
        return u

    return step


def _sample_potential(fn, t, packing: _GraphPacking, graph, grid):
    """Sample a per-edge potential on the dof vector.

    A potential is a function on the graph, so per-edge callables must agree
    at shared vertices; a mismatch is rejected rather than silently resolved.
    """
    fns = list(fn) if isinstance(fn, (list, tuple)) else [fn] * graph.n_edges
    if len(fns) != graph.n_edges:
        raise ValueError("need one potential per edge")
    out = np.zeros(packing.n_dof, dtype=complex)
    filled = np.zeros(packing.n_dof, dtype=bool)
    for eid in range(graph.n_edges):
        dofs = packing.edge_dofs[eid]
        vals = _sample_edge(fns[eid], t, grid.x(eid))
        clash = filled[dofs] & (np.abs(out[dofs] - vals) > 1e-9 * (1.0 + np.abs(vals)))
        if np.any(clash):
            raise ValueError("per-edge potentials disagree at a shared vertex")
        out[dofs] = vals
        filled[dofs] = True
    return out


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


def _steps(u, stepper, nsteps, phase=None):
    """``nsteps`` Cayley steps between static phase half-steps.

    The half-steps of consecutive steps merge: ``phase`` before the first
    step, ``phase**2`` between steps (on the window's spans only) and
    ``phase`` after the last.  The steps share one live window, which starts
    from the state they are given.
    """
    live = _Window()
    if phase is None or nsteps == 0:
        for _ in range(nsteps):
            u = stepper(u, live)
        return u
    phase2 = phase * phase
    u = phase * u
    for _ in range(nsteps - 1):
        u = live.scale(stepper(u, live), phase2)
    return phase * stepper(u, live)


def _vertex_system(u0: GraphState, dt: float):
    """The vertex system of any graph: (stepper, packed u0, potential sampler, spread, unpacker).

    The sampler returns one value per dof, so ``spread`` is the identity.
    """
    graph, grid = u0.graph, u0.grid
    packing = _pack_graph(graph, grid)
    cells = _graph_cells(graph, grid, packing)
    stepper = _cayley_stepper(packing.n_dof, cells, dt, packing.dirichlet, len(graph.vertices))
    sample = lambda f, t: _sample_potential(f, t, packing, graph, grid)
    unpack = lambda u: tuple(u[dofs].copy() for dofs in packing.edge_dofs)
    return stepper, _pack_state(u0, packing), sample, lambda a: a, unpack


def _star_modes(u0: GraphState, static, dynamic) -> bool:
    """Whether the run may step the edge-mean/difference modes of a star.

    It may when the graph is a star whose edges share one grid and neither
    potential is given per edge, so that every edge sees the same operator.
    """
    grid = u0.grid
    return (
        u0.graph.is_star
        and len(set(grid.spacings)) == len(set(grid.lengths)) == len(set(grid.counts)) == 1
        and not any(isinstance(f, (list, tuple)) for f in (static, dynamic))
    )


def _mode_chains(n_edges: int, n: int, h: float):
    """(n_dof, cells, dirichlet) of the N mode chains of n samples each, spacing h.

    Chain 0 is the edge mean, whose first row is the vertex (a half-mass
    Neumann row) and whose last is Dirichlet; chains 1..N-1 are the
    differences, Dirichlet at both ends.
    """
    first = np.arange(n_edges) * n
    i = (first[:, None] + np.arange(n - 1)).ravel()
    cells = (np.stack([i, i + 1], axis=1), np.full(len(i), 1.0 / h), np.full(len(i), h))
    return n_edges * n, cells, np.sort(np.concatenate([first[1:], first + n - 1]))


def _mode_system(u0: GraphState, dt: float):
    """The mode system of a star that ``_star_modes`` admits, laid out like ``_vertex_system``.

    The modes are an (N, n) array on the shared ray grid, stepped flattened
    as N plain chains (``_mode_chains``, nv = 0): row 0 is the edge mean,
    whose first sample is the vertex value, and row k is u_k - u_0.  A
    potential is sampled once on the ray, and ``spread`` tiles a function of
    it (its phase) over the chains.
    """
    n_edges, n, h = u0.graph.n_edges, u0.grid.counts[0], u0.grid.spacings[0]
    x = u0.grid.x(0)
    vals = np.stack(u0.values)
    # the vertex path's continuity check: each edge against the one before it
    if np.any(np.abs(np.diff(vals[:, 0])) > 1e-9 * (float(np.max(np.abs(vals))) or 1.0)):
        raise ValueError("initial data is discontinuous at a vertex")
    modes = np.empty_like(vals)
    modes[0] = np.mean(vals, axis=0)
    modes[1:] = vals[1:] - vals[0]
    modes[:, 0] = 0.0
    modes[0, 0] = vals[-1, 0]  # the vertex value the vertex path keeps
    n_dof, cells, dirichlet = _mode_chains(n_edges, n, h)
    stepper = _cayley_stepper(n_dof, cells, dt, dirichlet, 0)
    sample = lambda f, t: _sample_edge(f, t, x)
    spread = lambda a: np.tile(a, n_edges)

    def unpack(u):
        d = np.zeros((n_edges, n), dtype=complex)
        d[1:] += u.reshape(n_edges, n)[1:]  # adding to +0 turns -0 into +0: equal edges come out bit-equal
        return tuple(u[:n] - d.sum(axis=0) / n_edges + d)

    return stepper, modes.ravel(), sample, spread, unpack


def _evolve_graph(
    u0: GraphState, t_final: float, cfg: EvolutionConfig, static, dynamic, vertex_path: bool = False
) -> GraphState:
    """Cayley steps wrapped in the potential's phase half-steps.

    ``static`` is sampled once, ``dynamic`` at every half-step; a number
    stands for the constant potential.  Without a dynamic part the phase
    exp(i dt/2 v) is computed once and the half-steps merge (``_steps``).
    The phase is computed where the system samples (on the ray for the
    modes) and then spread over the dofs; after the first step it multiplies
    only the window's spans.  The steps run on the star's mode system when
    ``_star_modes`` admits the run and ``vertex_path`` is False, and on the
    vertex system otherwise.
    """
    nsteps = _n_steps(t_final - u0.time, cfg.dt)
    graph, grid = u0.graph, u0.grid
    dt_signed = math.copysign(cfg.dt, t_final - u0.time) if t_final != u0.time else cfg.dt
    modes = not vertex_path and _star_modes(u0, static, dynamic)
    stepper, u, sample_at, spread, unpack = (_mode_system if modes else _vertex_system)(u0, dt_signed)

    def sample(f, t):
        if isinstance(f, (int, float, complex)):
            f = lambda t, x, c=f: c
        return sample_at(f, t)

    v1 = None if static is None else sample(static, u0.time)
    if dynamic is not None:
        def phase(t):
            v = sample(dynamic, t)
            return spread(np.exp(1j * (dt_signed / 2.0) * (v if v1 is None else v1 + v)))

        t = u0.time
        live = _Window()
        for _ in range(nsteps):
            u = stepper(live.scale(u, phase(t + dt_signed / 4.0)), live)
            live.scale(u, phase(t + 3.0 * dt_signed / 4.0))
            t += dt_signed
    else:
        u = _steps(u, stepper, nsteps, None if v1 is None else spread(np.exp(1j * (dt_signed / 2.0) * v1)))
    out = GraphState(graph, grid, unpack(u), u0.time + nsteps * dt_signed)
    if cfg.boundary_guard is not None:
        pieces = []
        for eid, e in enumerate(graph.edges):
            x = grid.x(eid)
            pieces.append((x, np.abs(out.values[eid]) ** 2, e.infinite & (x >= cfg.boundary_guard * grid.lengths[eid])))
        _guard_tail(pieces, cfg)
    return out


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


def line_grid(L_left: float, L_right: float, h: float) -> np.ndarray:
    """Uniform nodes on [-L_left, L_right] with 0 on the grid."""
    if not all(math.isfinite(v) and v > 0 for v in (L_left, L_right, h)) or not math.isfinite(max(L_left, L_right) / h):
        raise ValueError(f"lengths {L_left}, {L_right} and spacing {h} must be positive, finite and not overflow")
    nl = round(L_left / h)
    nr = round(L_right / h)
    if abs(nl * h - L_left) > 1e-8 or abs(nr * h - L_right) > 1e-8:
        raise ValueError("domain ends must be integer multiples of h")
    return h * np.arange(-nl, nr + 1)


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
    if np.any(arr <= 0):
        raise ValueError("sigma must be positive")
    return arr


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
    the jumps without special cases.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 5:
        raise ValueError("need a 1-D grid with at least 5 nodes")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("grid nodes must be strictly increasing")
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != nodes.shape:
        raise ValueError("u0 must be sampled on the grid nodes")
    cells = _cell_sigma(sigma, nodes)
    nsteps = _n_steps(t_final, cfg.dt)
    dx = np.diff(nodes)
    n = len(nodes)
    pairs = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    dt_signed = math.copysign(cfg.dt, t_final) if t_final != 0 else cfg.dt
    stepper = _cayley_stepper(n, (pairs, cells / dx, dx), dt_signed, np.array([0, n - 1]))
    u = _steps(u0.copy(), stepper, nsteps)
    if cfg.boundary_guard is not None:
        cutL = nodes[0] * cfg.boundary_guard if nodes[0] < 0 else nodes[0]
        cutR = nodes[-1] * cfg.boundary_guard if nodes[-1] > 0 else nodes[-1]
        _guard_tail([(nodes, np.abs(u) ** 2, (nodes <= cutL) | (nodes >= cutR))], cfg)
    return u


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(state: GraphState, path, cfg: EvolutionConfig | None = None, meta: dict | None = None) -> None:
    """CSV checkpoint: meta lines t, h, dt, L (after ``meta``), then edge_id, x, re_u, im_u."""
    header = dict(meta or {})
    header["t"] = float(state.time)
    header["h"] = float(state.grid.spacings[0])
    header["dt"] = float(cfg.dt) if cfg is not None else float("nan")
    header["L"] = float(max(state.grid.lengths))
    edges = range(state.graph.n_edges)
    edge_id = np.concatenate([np.full(len(state.values[eid]), eid) for eid in edges])
    x = np.concatenate([state.grid.x(eid) for eid in edges])
    u = np.concatenate(state.values)
    write_csv(path, ["edge_id", "x", "re_u", "im_u"], from_columns(edge_id, x, u.real, u.imag), header)


def read_checkpoint(path) -> tuple[dict, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Inverse of write_checkpoint; returns ({t, h, dt, L}, {edge_id: (x, u)})."""
    meta, cols, rows = read_csv(path)
    if cols != ["edge_id", "x", "re_u", "im_u"]:
        raise ValueError("unexpected checkpoint columns")
    try:
        times = {key: float(meta[key]) for key in ("t", "h", "dt", "L")}
    except KeyError as exc:
        raise ValueError(f"checkpoint lacks meta line {exc}") from exc
    data = np.array(rows, dtype=float).reshape(-1, 4)
    out = {}
    for eid in np.unique(data[:, 0]).astype(int):
        sel = data[:, 0] == eid
        out[int(eid)] = (data[sel, 1], data[sel, 2] + 1j * data[sel, 3])
    return times, out
