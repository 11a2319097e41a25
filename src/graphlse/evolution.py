"""Unitary Crank-Nicolson evolution on graphs and on coefficient lines.

Solves i u_t + Lu = 0 where L is either the graph Laplacian with Kirchhoff
vertex conditions or d/dx(sigma du/dx) on the line with a piecewise-constant
coefficient.  The operator is assembled from the Dirichlet form on a (possibly
non-uniform) grid with a lumped trapezoid mass matrix, so the Cayley step

    (i M - dt/2 K) u_next = (i M + dt/2 K) u

conserves the trapezoid L2 norm to round-off whenever K is Hermitian.  Lines
and graphs share one stepper, written with the single matrix
A = i M - dt/2 K as u_next = A^{-1}(2 i M u) - u (Dirichlet rows: identity
and 2).  Vertex dofs come first and every edge is one contiguous chain, so
the chain block of A is tridiagonal and strictly diagonally dominant: it is
factored once without pivoting, each step makes two banded BLAS solves, and
the vertices solve a small dense Schur complement.

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
import scipy.sparse as sp
from scipy.linalg.blas import ztbsv

from ._report import read_csv, write_csv
from .graphs import GraphGrid, GraphState, MetricGraph

__all__ = [
    "EvolutionConfig",
    "PiecewiseCoefficient",
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
class PiecewiseCoefficient:
    """Step coefficient sigma = a_i^{-2} on I_i with breakpoints (j-1)*l.

    I_1 = (-inf, 0), I_j = ((j-2) l, (j-1) l) for 2 <= j <= N-1 and
    I_N = ((N-2) l, inf).  ``values`` are the a_i, all positive.
    """

    values: tuple[float, ...]
    spacing: float = 1.0

    def __post_init__(self):
        if not self.values:
            raise ValueError("need at least one layer value")
        if any(a <= 0 for a in self.values):
            raise ValueError("layer values a_i must be positive")
        if self.spacing <= 0:
            raise ValueError("breakpoint spacing must be positive")
        object.__setattr__(self, "values", tuple(float(a) for a in self.values))

    @property
    def n_layers(self) -> int:
        return len(self.values)

    @property
    def sigma_minus(self) -> float:
        return self.values[0] ** -2

    @property
    def sigma_plus(self) -> float:
        return self.values[-1] ** -2

    def breakpoints(self) -> np.ndarray:
        """Finite breakpoints 0, l, ..., (N-2) l (empty when N = 1)."""
        return self.spacing * np.arange(self.n_layers - 1, dtype=float)

    def layer_of(self, x: np.ndarray) -> np.ndarray:
        """0-based layer index of each point."""
        x = np.asarray(x, dtype=float)
        return np.clip(np.searchsorted(self.breakpoints(), x, side="right"), 0, self.n_layers - 1)

    def sigma_at(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(self.values, dtype=float)
        return a[self.layer_of(x)] ** -2.0


@dataclass(frozen=True)
class EvolutionConfig:
    """Time stepping parameters.

    ``boundary_guard`` is the fraction of the truncated length beyond which
    solution mass counts as having hit the artificial boundary; runs whose
    final state carries more than ``guard_tol`` of its mass there raise
    TruncationGuardError.  Set ``boundary_guard=None`` to disable.
    """

    dt: float
    potential: object = None
    boundary_guard: float | None = 0.8
    guard_tol: float = 1e-6

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.boundary_guard is not None and not 0.0 < self.boundary_guard < 1.0:
            raise ValueError("boundary_guard must lie in (0, 1)")


def _n_steps(t_final: float, dt: float) -> int:
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


def _assemble(n_dof, cell_pairs, cell_weights, cell_h):
    """Lumped mass + stiffness from the Dirichlet form sum w_c |u_i - u_j|^2."""
    mass = np.zeros(n_dof)
    i = cell_pairs[:, 0]
    j = cell_pairs[:, 1]
    np.add.at(mass, i, cell_h / 2.0)
    np.add.at(mass, j, cell_h / 2.0)
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([cell_weights, cell_weights, -cell_weights, -cell_weights])
    K = sp.csc_matrix((vals, (rows, cols)), shape=(n_dof, n_dof))
    return mass, K


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


def _unpack_state(u, state, packing, time) -> GraphState:
    values = tuple(u[packing.edge_dofs[eid]].copy() for eid in range(state.graph.n_edges))
    return GraphState(state.graph, state.grid, values, time)


def _factor_chains(T):
    """Banded factors of the tridiagonal T = L diag(p) U, with no pivoting.

    Returns the unit-lower band of L, 1/p and the unit-upper band of U, each
    band in the (2, m) Fortran layout that BLAS ``ztbsv`` reads (the unit
    diagonal row is stored but not referenced).  Strict row diagonal dominance
    of T keeps every pivot p_i away from zero.
    """
    sub, diag, sup = (T.diagonal(k) for k in (-1, 0, 1))
    piv = diag.tolist()
    for i, q in enumerate((sub * sup).tolist(), start=1):
        piv[i] -= q / piv[i - 1]
    piv = np.asarray(piv, dtype=complex)
    lower = np.ones((2, len(diag)), dtype=complex, order="F")
    upper = np.ones((2, len(diag)), dtype=complex, order="F")
    lower[1, :-1] = sub / piv[:-1]
    upper[0, 1:] = sup / piv[:-1]
    return lower, 1.0 / piv, upper


def _solve_chains(factors, x, off=0, trans=0):
    """x[off:] <- T^{-1} x[off:] (T^{-T} x[off:] when ``trans``), in place, from _factor_chains(T)."""
    lower, rp, upper = factors
    if len(rp):
        x = ztbsv(1, upper if trans else lower, x, offx=off, lower=1 - trans, trans=trans, diag=1, overwrite_x=1)
        x[off:] *= rp
        x = ztbsv(1, lower if trans else upper, x, offx=off, lower=trans, trans=trans, diag=1, overwrite_x=1)
    return x


# Entries of F T^{-1} below this fraction of the largest are dropped: a
# backward perturbation of eps^2 relative cannot show in a double-precision
# step, and the decayed tail of T^{-1} would otherwise be summed in
# subnormal numbers.
_NEGLIGIBLE = np.finfo(float).eps ** 2


def _chain_rows(F, T, factors):
    """W = F T^{-1} as a sparse matrix, from a few transposed solves in total.

    Solves on different chains (runs of rows of T with no coupling between
    runs) do not mix.  So each vertex that meets a chain is ranked among the
    vertices meeting that chain, and the rows of F of one rank share a solve.
    """
    cut = (T.diagonal(-1) == 0) & (T.diagonal(1) == 0)
    chain_of = np.concatenate([[0], np.cumsum(cut)])
    meets, pair = np.unique(np.stack([chain_of[F.col], F.row]), axis=1, return_inverse=True)
    pair_rank = np.arange(meets.shape[1]) - np.searchsorted(meets[0], meets[0])
    rank = pair_rank[pair.ravel()]
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    for r in range(rank.max(initial=-1) + 1):
        w = np.zeros(T.shape[0], dtype=complex)
        w[F.col[rank == r]] = F.data[rank == r]
        w = _solve_chains(factors, w, trans=1)
        owner = np.full(len(chain_of), -1)
        owner[meets[0, pair_rank == r]] = meets[1, pair_rank == r]
        nz = np.flatnonzero(np.abs(w) > _NEGLIGIBLE * np.max(np.abs(w)))
        rows.append(owner[chain_of[nz]])
        cols.append(nz)
        vals.append(w[nz])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=F.shape)


def _cayley_stepper(mass, K, dt, dirichlet, nv=0):
    """The Crank-Nicolson step u -> A^{-1}(c u) - u, factored once.

    A = iM - (dt/2)K with identity rows at the Dirichlet dofs and c = 2i mass
    (2 on Dirichlet rows): since iM + (dt/2)K = 2iM - A, this is the Cayley
    step.  The first ``nv`` dofs are graph vertices and the rest are edge
    chains, so T = A[nv:, nv:] is tridiagonal with no coupling between chains
    (the line is nv = 0).  T is strictly row diagonally dominant for either
    sign of dt, |A_ii| = hypot(M_ii, dt K_ii / 2) > |dt| K_ii / 2 =
    sum_{j != i} |A_ij|, so it factors without pivoting and each step makes
    two banded triangular solves.  With A = [[D, F], [E, T]] the vertices
    solve the dense Schur complement S = D - W E, W = F T^{-1}, and then
    x_I = T^{-1}(r_I - E x_V).  Row v of W is nonzero only on the chains that
    meet vertex v, so W is stored sparse.
    """
    keep = np.ones(len(mass))
    keep[dirichlet] = 0.0
    A = (sp.diags(keep) @ (sp.diags(1j * mass) - (dt / 2.0) * K) + sp.diags(1.0 - keep)).tocsr()
    c = np.where(keep > 0, 2j * mass, 2.0)
    T = A[nv:, nv:]
    factors = _factor_chains(T)
    if nv:
        W = _chain_rows(A[:nv, nv:].tocoo(), T, factors)
        E = A[nv:, :nv].tocoo()
        e_rows, e_cols, e_vals = E.row + nv, E.col, E.data
        s_inv = np.linalg.inv(A[:nv, :nv].toarray() - (W @ E).toarray())

    def step(u):
        x = c * u
        if nv:
            xv = s_inv @ (x[:nv] - W @ x[nv:])
            np.subtract.at(x, e_rows, e_vals * xv[e_cols])
            x[:nv] = xv
        x = _solve_chains(factors, x, nv)
        x -= u
        return x

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
        x = grid.x(eid)
        vals = np.asarray(fns[eid](t, x), dtype=complex) + np.zeros_like(x, dtype=complex)
        clash = filled[dofs] & (np.abs(out[dofs] - vals) > 1e-9 * (1.0 + np.abs(vals)))
        if np.any(clash):
            raise ValueError("per-edge potentials disagree at a shared vertex")
        out[dofs] = vals
        filled[dofs] = True
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError("potential samples contain NaN or infinity")
    return out


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
    step, ``phase**2`` between steps and ``phase`` after the last.
    """
    if phase is None or nsteps == 0:
        for _ in range(nsteps):
            u = stepper(u)
        return u
    phase2 = phase * phase
    u = phase * u
    for _ in range(nsteps - 1):
        u = stepper(u)
        u *= phase2
    return phase * stepper(u)


def _evolve_graph(u0: GraphState, t_final: float, cfg: EvolutionConfig, static, dynamic) -> GraphState:
    """Cayley steps wrapped in the potential's phase half-steps.

    ``static`` is sampled once, ``dynamic`` at every half-step; a number
    stands for the constant potential.  Without a dynamic part the phase
    exp(i dt/2 v) is computed once and the half-steps merge (``_steps``).
    """
    nsteps = _n_steps(t_final - u0.time, cfg.dt)
    graph, grid = u0.graph, u0.grid
    packing = _pack_graph(graph, grid)
    pairs, weights, hs = _graph_cells(graph, grid, packing)
    mass, K = _assemble(packing.n_dof, pairs, weights, hs)
    dt_signed = math.copysign(cfg.dt, t_final - u0.time) if t_final != u0.time else cfg.dt
    stepper = _cayley_stepper(mass, K, dt_signed, packing.dirichlet, len(graph.vertices))
    u = _pack_state(u0, packing)

    def sample(f, t):
        if isinstance(f, (int, float, complex)):
            f = lambda t, x, c=f: c
        return _sample_potential(f, t, packing, graph, grid)

    v1 = None if static is None else sample(static, u0.time)
    if dynamic is not None:
        def phase(t):
            v = sample(dynamic, t)
            return np.exp(1j * (dt_signed / 2.0) * (v if v1 is None else v1 + v))

        t = u0.time
        for _ in range(nsteps):
            u = stepper(phase(t + dt_signed / 4.0) * u)
            u = phase(t + 3.0 * dt_signed / 4.0) * u
            t += dt_signed
    else:
        u = _steps(u, stepper, nsteps, None if v1 is None else np.exp(1j * (dt_signed / 2.0) * v1))
    out = _unpack_state(u, u0, packing, u0.time + nsteps * dt_signed)
    if cfg.boundary_guard is not None:
        pieces = []
        for eid, e in enumerate(graph.edges):
            x = grid.x(eid)
            pieces.append((x, np.abs(out.values[eid]) ** 2, e.infinite & (x >= cfg.boundary_guard * grid.lengths[eid])))
        _guard_tail(pieces, cfg)
    return out


def evolve_graph(u0: GraphState, t_final: float, cfg: EvolutionConfig) -> GraphState:
    """Evolve i u_t + Laplacian_Gamma u = 0 (plus cfg.potential if set) to t_final.

    The L2 norm of the result equals the initial norm to round-off for a real
    (or absent) potential.  Negative t_final runs the reversed group.
    """
    return _evolve_graph(u0, t_final, cfg, None, cfg.potential)


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
    ``cfg.potential`` is not used.
    """
    return _evolve_graph(u0, t_final, cfg, V1, V2)


# ---------------------------------------------------------------------------
# line problems
# ---------------------------------------------------------------------------


def line_grid(L_left: float, L_right: float, h: float) -> np.ndarray:
    """Uniform nodes on [-L_left, L_right] with 0 on the grid."""
    if L_left <= 0 or L_right <= 0 or h <= 0:
        raise ValueError("lengths and spacing must be positive")
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
    mass, K = _assemble(n, pairs, cells / dx, dx)
    dt_signed = math.copysign(cfg.dt, t_final) if t_final != 0 else cfg.dt
    stepper = _cayley_stepper(mass, K, dt_signed, np.array([0, n - 1]))
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
    rows = (
        (eid, xi, vi.real, vi.imag)
        for eid in range(state.graph.n_edges)
        for xi, vi in zip(state.grid.x(eid), state.values[eid])
    )
    write_csv(path, ["edge_id", "x", "re_u", "im_u"], rows, header)


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
