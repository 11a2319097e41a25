"""Unitary Crank-Nicolson evolution on graphs and on coefficient lines.

Solves i u_t + Lu = 0 where L is either the graph Laplacian with Kirchhoff
vertex conditions or d/dx(sigma du/dx) on the line with a piecewise-constant
coefficient.  The operator is assembled from the Dirichlet form on a (possibly
non-uniform) grid with a lumped trapezoid mass matrix, so the Cayley step

    (i M - dt/2 K) u_next = (i M + dt/2 K) u

conserves the trapezoid L2 norm to round-off whenever K is Hermitian.
Potentials are applied as exact pointwise phase half-steps around the Cayley
core, which keeps real potentials unitary and makes a spatially constant
potential act as an exact gauge factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def _cayley_stepper(mass, K, dt, dirichlet):
    Md = sp.diags(mass)
    A = (1j * Md - (dt / 2.0) * K).tolil()
    B = (1j * Md + (dt / 2.0) * K).tolil()
    for d in dirichlet:
        A.rows[d] = [d]
        A.data[d] = [1.0]
        B.rows[d] = [d]
        B.data[d] = [1.0]
    A = A.tocsc()
    B = B.tocsc()
    solve = spla.factorized(A)
    return lambda u: solve(B @ u)


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


def _guard_graph(state: GraphState, guard: float, tol: float):
    total = 0.0
    tail = 0.0
    worst = 0.0
    for eid, e in enumerate(state.graph.edges):
        x = state.grid.x(eid)
        w = np.abs(state.values[eid]) ** 2
        total += float(np.trapezoid(w, x))
        if e.infinite:
            cut = guard * state.grid.lengths[eid]
            mask = x >= cut
            if np.count_nonzero(mask) > 1:
                tail += float(np.trapezoid(w[mask], x[mask]))
    if total > 0:
        worst = tail / total
    if worst > tol:
        raise TruncationGuardError(
            f"fraction {worst:.3e} of the mass lies beyond {guard:.2f} of the truncated length"
        )
    return worst


def _evolve_packed(u, stepper, nsteps, t0, dt_signed, phase_fn=None):
    t = t0
    for _ in range(nsteps):
        if phase_fn is not None:
            u = phase_fn(t + dt_signed / 4.0) * u
        u = stepper(u)
        if phase_fn is not None:
            u = phase_fn(t + 3.0 * dt_signed / 4.0) * u
        t += dt_signed
    return u


def _evolve_graph(u0: GraphState, t_final: float, cfg: EvolutionConfig, static, dynamic) -> GraphState:
    """Cayley steps wrapped in the potential's phase half-steps.

    ``static`` is sampled once, ``dynamic`` at every half-step; a number
    stands for the constant potential.  Without a dynamic part the phase
    exp(i dt/2 v) is computed once.
    """
    nsteps = _n_steps(t_final - u0.time, cfg.dt)
    packing = _pack_graph(u0.graph, u0.grid)
    pairs, weights, hs = _graph_cells(u0.graph, u0.grid, packing)
    mass, K = _assemble(packing.n_dof, pairs, weights, hs)
    dt_signed = math.copysign(cfg.dt, t_final - u0.time) if t_final != u0.time else cfg.dt
    stepper = _cayley_stepper(mass, K, dt_signed, packing.dirichlet)
    u = _pack_state(u0, packing)

    def sample(f, t):
        if isinstance(f, (int, float, complex)):
            f = lambda t, x, c=f: c
        return _sample_potential(f, t, packing, u0.graph, u0.grid)

    v1 = None if static is None else sample(static, u0.time)
    phase_fn = None
    if dynamic is not None:
        def phase_fn(t):
            v = sample(dynamic, t)
            return np.exp(1j * (dt_signed / 2.0) * (v if v1 is None else v1 + v))
    elif v1 is not None:
        phase = np.exp(1j * (dt_signed / 2.0) * v1)
        phase_fn = lambda t: phase
    u = _evolve_packed(u, stepper, nsteps, u0.time, dt_signed, phase_fn)
    out = _unpack_state(u, u0, packing, u0.time + nsteps * dt_signed)
    if cfg.boundary_guard is not None:
        _guard_graph(out, cfg.boundary_guard, cfg.guard_tol)
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
    u = _evolve_packed(u0.copy(), stepper, nsteps, 0.0, dt_signed)
    if cfg.boundary_guard is not None:
        w = np.abs(u) ** 2
        total = float(np.trapezoid(w, nodes))
        if total > 0:
            cutL = nodes[0] * cfg.boundary_guard if nodes[0] < 0 else nodes[0]
            cutR = nodes[-1] * cfg.boundary_guard if nodes[-1] > 0 else nodes[-1]
            mask = (nodes <= cutL) | (nodes >= cutR)
            if np.count_nonzero(mask) > 1:
                tail = float(np.trapezoid(np.where(mask, w, 0.0), nodes))
                if tail / total > cfg.guard_tol:
                    raise TruncationGuardError(
                        f"fraction {tail / total:.3e} of the mass lies beyond "
                        f"{cfg.boundary_guard:.2f} of the truncated line"
                    )
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
