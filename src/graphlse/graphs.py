"""Metric graphs, grids, sampled states, norms and Kirchhoff diagnostics.

A metric graph is a set of vertices joined by edges that are real intervals;
every edge carries its own coordinate starting at 0 at the initial vertex.
Infinite edges (rays) are truncated at a finite length ``L`` for numerical
work, with a homogeneous Dirichlet condition at the truncation point.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Edge",
    "MetricGraph",
    "GraphGrid",
    "GraphState",
    "KirchhoffResidual",
    "NormOverflowError",
    "build_star",
    "build_regular_tree",
    "kirchhoff_residual",
    "weighted_l2_norm",
    "edge_derivative_at_start",
    "edge_derivative_at_end",
]


class NormOverflowError(ArithmeticError):
    """Weighted norm would overflow, or is dominated by the truncation boundary."""


@dataclass(frozen=True)
class Edge:
    """One edge: interval [0, length] from ``initial`` towards ``terminal``.

    ``terminal`` is None exactly when the edge is an infinite ray.  Trees
    additionally record the generation (1-based) and the multi-index of the
    edge within its tree.
    """

    initial: int
    terminal: int | None
    length: float
    generation: int = 0
    index: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.length > 0:  # NaN too
            raise ValueError(f"edge length must be positive, got {self.length}")
        if math.isinf(self.length) != (self.terminal is None):
            raise ValueError("infinite edges must have no terminal vertex, finite edges must have one")

    @property
    def infinite(self) -> bool:
        return self.terminal is None


@dataclass(frozen=True)
class MetricGraph:
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    generation_lengths: tuple[float, ...] = ()  # l_1..l_n for regular trees
    branching: tuple[int, ...] = ()  # d_1..d_{n+1} for regular trees

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if not self.edges:
            raise ValueError("graph needs at least one edge")
        for e in self.edges:
            if e.initial not in vset:
                raise ValueError(f"edge initial vertex {e.initial} not in vertex set")
            if e.terminal is not None and e.terminal not in vset:
                raise ValueError(f"edge terminal vertex {e.terminal} not in vertex set")
        # connectivity over the finite skeleton
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            if e.terminal is not None:
                adj[e.initial].add(e.terminal)
                adj[e.terminal].add(e.initial)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != vset:
            raise ValueError("graph is not connected")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def is_star(self) -> bool:
        return len(self.vertices) == 1 and all(e.infinite for e in self.edges)


@dataclass(frozen=True)
class GraphGrid:
    """Uniform sampling at one spacing ``h`` on every edge; infinite edges truncated at ``lengths[e]``.

    Every length must be a whole number of steps; edge e has ``counts[e]``
    samples, its length over h plus one.
    """

    h: float
    lengths: tuple[float, ...]

    def __post_init__(self):
        for L in self.lengths:
            _uniform_count(L, self.h)  # refuses a bad spacing or length

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(_uniform_count(L, self.h) for L in self.lengths)

    def x(self, edge_id: int) -> np.ndarray:
        return np.linspace(0.0, self.lengths[edge_id], _uniform_count(self.lengths[edge_id], self.h))


def _uniform_count(L: float, h: float) -> int:
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"grid spacing must be positive and finite, got {h}")
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"edge length must be positive and finite, got {L}")
    if not math.isfinite(L / h):
        raise ValueError(f"length {L} over spacing {h} is not a finite sample count")
    n = round(L / h)
    if n < 1 or abs(n * h - L) > 1e-8 * max(1.0, L):
        raise ValueError(f"length {L} is not an integer multiple of spacing {h}")
    return int(n) + 1


def build_star(n_edges: int, L: float, h: float) -> tuple[MetricGraph, GraphGrid]:
    """Star graph: ``n_edges`` infinite rays joined at vertex 0, truncated at L.

    It is the regular tree of depth 0: no finite generation, root degree
    ``n_edges``.

    L should exceed ten times the width of the data under study so the
    Dirichlet truncation error stays at the exp(-c L^2) level.
    """
    if n_edges < 2:
        raise ValueError("a star needs at least 2 edges")
    if L <= 0 or h <= 0:
        raise ValueError("L and h must be positive")
    if L / h < 16:
        raise ValueError("grid too coarse: require L/h >= 16")
    return build_regular_tree((), (n_edges,), L, h)


def _nested_indices(degrees: Sequence[int], generation: int):
    """Multi-indices of a regular tree's generation-``generation`` edges, in nested (lexicographic) order."""
    return itertools.product(*(range(1, d + 1) for d in degrees[:generation]))


def build_regular_tree(
    lengths: Sequence[float],
    degrees: Sequence[int],
    L: float,
    h: float,
) -> tuple[MetricGraph, GraphGrid]:
    """Regular tree: generation k has edges of length ``lengths[k-1]`` and every
    generation-k vertex has ``degrees[k]`` children; the last generation is
    infinite rays truncated at L.

    ``degrees`` has one more entry than ``lengths``; ``degrees[0]`` is the root
    degree.  Edge multi-indices follow the nesting of the tree, so the edges of
    generation k number ``degrees[0]*...*degrees[k-1]``.  The edges are stored
    generation by generation, each generation in nested (lexicographic
    multi-index) order, so the descendants of an edge at any later generation
    form one contiguous block; ``reduction.averaged_sums`` relies on that.
    """
    if not degrees:
        raise ValueError("need at least one branching degree")
    if len(degrees) != len(lengths) + 1:
        raise ValueError("need exactly one more degree than generation lengths")
    if any(d < 1 for d in degrees):
        raise ValueError("branching degrees must be >= 1")
    n_gen = len(degrees)

    vertex_of: dict[tuple[int, ...], int] = {(): 0}
    edges: list[Edge] = []
    for gen in range(1, n_gen + 1):
        for idx in _nested_indices(degrees, gen):
            parent = vertex_of[idx[:-1]]
            if gen < n_gen:
                vertex_of[idx] = len(vertex_of)
                edges.append(Edge(parent, vertex_of[idx], lengths[gen - 1], gen, idx))
            else:
                edges.append(Edge(parent, None, math.inf, gen, idx))

    graph = MetricGraph(
        vertices=tuple(range(len(vertex_of))),
        edges=tuple(edges),
        generation_lengths=tuple(float(l) for l in lengths),
        branching=tuple(int(d) for d in degrees),
    )
    # the grid refuses a length that is not a whole number of steps, so breakpoints land on it
    return graph, GraphGrid(h, tuple(L if e.infinite else e.length for e in graph.edges))


@dataclass(frozen=True)
class GraphState:
    """Complex samples of a function on the graph at one time, one array per edge.

    The state keeps its own read-only copy of each array, so neither the
    caller's arrays nor a write to ``values[k]`` can change it.
    """

    graph: MetricGraph
    grid: GraphGrid
    values: tuple[np.ndarray, ...]
    time: float = 0.0

    def __post_init__(self):
        if not len(self.values) == len(self.grid.lengths) == self.graph.n_edges:
            raise ValueError("one value array and one grid length per edge required")
        for e, L in zip(self.graph.edges, self.grid.lengths):
            if not e.infinite and abs(L - e.length) > 1e-8 * max(1.0, L):  # a ray keeps any truncation
                raise ValueError(f"grid length {L} differs from the length {e.length} of its finite edge")
        vals = tuple(np.array(v, dtype=complex) for v in self.values)  # the state's own copies, read-only below
        object.__setattr__(self, "values", vals)
        for v, n in zip(vals, self.grid.counts):
            if v.shape != (n,):
                raise ValueError("value array length does not match grid")
            if not np.all(np.isfinite(v.view(float))):
                raise ValueError("state contains non-finite values")
            v.flags.writeable = False

    @classmethod
    def sample(
        cls,
        graph: MetricGraph,
        grid: GraphGrid,
        fn: Callable[[np.ndarray], np.ndarray] | Sequence[Callable[[np.ndarray], np.ndarray]],
        time: float = 0.0,
    ) -> "GraphState":
        fns = list(fn) if isinstance(fn, (list, tuple)) else [fn] * graph.n_edges
        if len(fns) != graph.n_edges:
            raise ValueError("need one sampling function per edge")
        return cls(graph, grid, tuple(f(grid.x(e)) for e, f in enumerate(fns)), time)


@dataclass(frozen=True)
class KirchhoffResidual:
    continuity: float
    flux: float


_D5 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0  # one-sided 4th order


def edge_derivative_at_start(values: np.ndarray, h: float) -> complex:
    if len(values) < 5:
        raise ValueError("need at least 5 samples for the one-sided stencil")
    return complex(np.dot(_D5, values[:5]) / h)


def edge_derivative_at_end(values: np.ndarray, h: float) -> complex:
    if len(values) < 5:
        raise ValueError("need at least 5 samples for the one-sided stencil")
    return complex(-np.dot(_D5, values[-1:-6:-1]) / h)


def kirchhoff_residual(state: GraphState) -> KirchhoffResidual:
    """Continuity and flux defects of the Kirchhoff vertex conditions.

    Continuity is the worst pairwise mismatch of edge samples at a vertex.
    Flux is |sum of the outward derivatives at a vertex|, with derivatives
    estimated by one-sided 4th-order stencils so that the residual of a
    second-order solver state is resolvable.  One pass over the edges, in
    edge order, gathers each vertex's edge ends.
    """
    h = state.grid.h
    ends = {v: [] for v in state.graph.vertices}  # (value, outward derivative) per edge end
    for e, u in zip(state.graph.edges, state.values):
        ends[e.initial].append((u[0], edge_derivative_at_start(u, h)))
        if not e.infinite:
            ends[e.terminal].append((u[-1], -edge_derivative_at_end(u, h)))
    cont = flux = 0.0
    for at in ends.values():
        for i, (a, _) in enumerate(at):
            for b, _ in at[i + 1 :]:
                cont = max(cont, abs(a - b))
        flux = max(flux, abs(sum((d for _, d in at), 0j)))
    return KirchhoffResidual(continuity=cont, flux=flux)


_EXP_LIMIT = 700.0  # exp argument ceiling for float64


def weighted_l2_norm(state: GraphState, gamma: float = 0.0) -> float:
    """sqrt of sum over edges of the trapezoid integral of exp(2*gamma*x^2)|u|^2.

    gamma = 0 is the plain L2 norm.  For gamma > 0 the call fails loudly when
    exp(2 gamma x^2) exceeds the float range or when the weighted integrand is
    not decaying at the truncation boundary (the truncated integral would then
    say nothing about the true one).
    """
    total = 0.0
    for e in range(state.graph.n_edges):
        x = state.grid.x(e)
        mag = np.abs(state.values[e])
        # assemble the integrand exp(2 gamma x^2) |u|^2 in log space so the
        # weight alone cannot overflow when the product still decays
        logw = np.full(x.shape, -np.inf)
        pos = mag > 0.0
        logw[pos] = 2.0 * gamma * x[pos] ** 2 + 2.0 * np.log(mag[pos])
        if gamma > 0.0 and float(np.max(logw, initial=-np.inf)) > _EXP_LIMIT:
            raise NormOverflowError(
                f"weighted integrand reaches exp({float(np.max(logw)):.3g}), beyond the float range"
            )
        w = np.where(pos, np.exp(logw), 0.0)
        if gamma > 0.0:
            peak = float(np.max(w))
            outer = w[x > 0.5 * x[-1]]
            if peak > 0.0 and outer.size and float(np.max(outer)) > 1e-10 * peak:
                raise NormOverflowError(
                    "weighted integrand is not decaying towards the truncation boundary"
                )
        total += float(np.trapezoid(w, x))
    return math.sqrt(total)
