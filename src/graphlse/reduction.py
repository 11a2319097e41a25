"""Reductions from graphs to the line: sums, averaged sums and folding maps.

A star state collapses to the line through the sum of its components (even
extension) or the per-edge differences from the mean (odd extension).  A
regular-tree state collapses through the averaged sums Z^alpha: the root
average, extended evenly and rectified by piecewise-linear maps, solves the
line equation with a piecewise-constant coefficient determined by the
branching degrees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._report import write_csv
from .graphs import GraphState, MetricGraph, _nested_indices

__all__ = [
    "AveragedSums",
    "ReductionMap",
    "FoldedLine",
    "star_sum",
    "averaged_sums",
    "difference_Z",
    "reduction_map",
    "fold_to_line",
    "write_reduction_report",
]


def _require_star(state_or_graph) -> MetricGraph:
    graph = state_or_graph.graph if isinstance(state_or_graph, GraphState) else state_or_graph
    if not graph.is_star:
        raise ValueError("operation requires a star graph")
    return graph


def star_sum(state: GraphState, mode: str, component: int | None = None):
    """Collapse a star state to line samples on [-L, L].

    mode='even': the sum S of all components, extended evenly (S has zero
    flux at the vertex, so the extension is a free-line solution whenever the
    state is).  mode='odd': the difference u_k - S/N of component
    ``component`` (0-based), which vanishes at the vertex, extended oddly.
    Returns (x, values).  The evolution steps a star in another
    normalisation of the same even/odd split, the edge mean S/N and the
    differences u_k - u_0 (see ``evolution``), so that data equal on every
    edge sweeps one ray.
    """
    graph = _require_star(state)
    if len(set(state.grid.counts)) != 1:
        raise ValueError("star edges must share one grid")
    S = np.sum(np.stack(state.values), axis=0)
    x_half = state.grid.x(0)
    x = np.concatenate([-x_half[:0:-1], x_half])
    if mode == "even":
        vals = np.concatenate([S[:0:-1], S])
        return x, vals
    if mode == "odd":
        if component is None or not 0 <= component < graph.n_edges:
            raise ValueError("odd mode needs a valid component index")
        d = state.values[component] - S / graph.n_edges
        vals = np.concatenate([-d[:0:-1], d])
        return x, vals
    raise ValueError(f"unknown mode {mode!r}")


def _tree_meta(graph: MetricGraph):
    if not graph.branching:
        raise ValueError("graph carries no regular-tree metadata")
    n = len(graph.generation_lengths)
    return n, graph.generation_lengths, graph.branching


@dataclass(frozen=True)
class AveragedSums:
    """Averaged sums of a regular-tree state.

    ``pieces[alpha]`` holds, for each generation m = |alpha| .. n+1, the
    average of the state over all descendants of edge alpha at generation m;
    piece m lives on the global interval (a_{m-1}, a_m).  ``root`` is the
    average over everything (the function evolved on the folded line).  By
    construction the piece at generation |alpha| is the edge value itself.
    """

    breakpoints: tuple[float, ...]  # a_0 .. a_n (finite)
    grids: tuple[np.ndarray, ...]  # local coordinates per generation 1..n+1
    pieces: dict[tuple[int, ...], tuple[np.ndarray, ...]]
    root: tuple[np.ndarray, ...]
    time: float

    def n_generations(self) -> int:
        return len(self.grids)

    def global_x(self, generation: int) -> np.ndarray:
        return self.breakpoints[generation - 1] + self.grids[generation - 1]


def averaged_sums(state: GraphState) -> AveragedSums:
    """All Z^alpha and the root average of a regular-tree state.

    Sibling grids must be identical per generation so the averages are exact
    sample-wise means (no interpolation).  The edges must be stored as
    ``build_regular_tree`` stores them: generation by generation, each in
    nested multi-index order.  Then the generation-g descendants of the j-th
    of the n_m generation-m edges are the j-th of n_m equal blocks of
    generation g, so every Z^alpha is one block mean.
    """
    graph = state.graph
    n, lengths, degrees = _tree_meta(graph)
    nested = [idx for g in range(1, n + 2) for idx in _nested_indices(degrees, g)]
    if [e.index for e in graph.edges] != nested:
        raise ValueError("regular-tree edges must be the full index set, generation by generation in nested order")
    starts = np.cumsum([0, *np.cumprod(degrees)])  # first edge of each generation
    counts = state.grid.counts
    stacks, grids = [], []
    for g in range(n + 1):
        ids = range(starts[g], starts[g + 1])
        if len({counts[i] for i in ids}) != 1:
            raise ValueError(f"generation {g + 1} edges do not share one grid")
        stacks.append(np.stack([state.values[i] for i in ids]))
        grids.append(state.grid.x(ids[0]))
    breakpoints = (0.0,) + tuple(np.cumsum(lengths))

    pieces: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
    for m in range(n + 1):
        n_m = starts[m + 1] - starts[m]
        means = [stack.reshape(n_m, -1, stack.shape[1]).mean(axis=1) for stack in stacks[m:]]
        for j, alpha in enumerate(nested[starts[m] : starts[m + 1]]):
            pieces[alpha] = tuple(z[j] for z in means)
    return AveragedSums(
        breakpoints=tuple(float(b) for b in breakpoints),
        grids=tuple(grids),
        pieces=pieces,
        root=tuple(stack.mean(axis=0) for stack in stacks),
        time=state.time,
    )


def difference_Z(avg: AveragedSums, alpha: tuple[int, ...], beta: int):
    """Z-tilde = Z^{alpha beta} - Z^alpha on the child's domain (root: Z^beta - Z).

    Vanishes at the junction a_{|alpha|} for vertex-continuous states; the
    overall sign is immaterial to that property and is fixed here as child
    minus parent at every level.
    Returns (global_x_pieces, value_pieces), one entry per generation
    |alpha|+1 .. n+1.
    """
    child = tuple(alpha) + (beta,)
    if child not in avg.pieces:
        raise ValueError(f"no edge with index {child}")
    # a parent's own piece is at generation |alpha|, the child's first at |alpha|+1
    parent = avg.pieces[tuple(alpha)][1:] if alpha else avg.root
    xs = [avg.global_x(g) for g in range(len(alpha) + 1, avg.n_generations() + 1)]
    return xs, [cv - pv for cv, pv in zip(avg.pieces[child], parent)]


@dataclass(frozen=True)
class ReductionMap:
    """Folded breakpoints, rectifying slopes and the induced step coefficient.

    Interval k = 0..2n+1 of the folded axis (the even extension of (0, inf))
    maps onto (b_k, b_{k+1}) with slope ``slopes[k]``; the line equation for
    the rectified function carries sigma = slope^2 there, equal to 1 on both
    unbounded intervals.
    """

    tilde_breakpoints: tuple[float, ...]  # finite folded breakpoints, ascending
    targets: tuple[float, ...]  # finite b_k, ascending, anchored at b_{n+1} = 0
    slopes: tuple[float, ...]  # mu_0 .. mu_{2n+1}
    sigma: tuple[float, ...]  # sigma on each of the 2n+2 intervals

    @property
    def sigma_minus(self) -> float:
        return self.sigma[0]

    @property
    def sigma_plus(self) -> float:
        return self.sigma[-1]


def reduction_map(graph: MetricGraph) -> ReductionMap:
    """Rectifying maps for a regular tree, built from the branching degrees.

    Slopes: mu_k = (d_2...d_{n+1-k}) / (d_2...d_{n+1}) on the negative side
    (0 <= k <= n-1), the two middle intervals share 1/(d_2...d_{n+1}), and the
    positive side mirrors.  sigma = slope^2, symmetric, with sigma = 1 outside.
    The target breakpoints are anchored by mapping the vertex image of the
    root to 0; any other anchor is a global translation.
    """
    n, lengths, degrees = _tree_meta(graph)
    prods = np.cumprod([1.0, *degrees[1:]])  # 1, d_2, d_2 d_3, ..., d_2...d_{n+1}
    slopes = np.concatenate([prods[::-1], prods]) / prods[-1]
    a = np.cumsum([0.0, *lengths])  # a_0 .. a_n
    # b_{n+1} = 0 at the folded origin; fold interval n+1+i maps (a_i, a_{i+1})
    b = np.cumsum(slopes[n + 1 : 2 * n + 1] * np.diff(a))
    return ReductionMap(
        tilde_breakpoints=tuple(np.concatenate([-a[:0:-1], a]).tolist()),  # -a_n..-a_1, 0, a_1..a_n
        targets=tuple(np.concatenate([-b[::-1], [0.0], b]).tolist()),
        slopes=tuple(slopes.tolist()),
        sigma=tuple((slopes * slopes).tolist()),
    )


@dataclass(frozen=True)
class FoldedLine:
    """A line-sampled function with per-cell coefficient, ready for evolution."""

    nodes: np.ndarray
    values: np.ndarray
    cell_sigma: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.trapezoid(np.abs(self.values) ** 2, self.nodes)))


def fold_to_line(avg: AveragedSums, rmap: ReductionMap) -> FoldedLine:
    """Rectified even extension of the root average, with its step coefficient.

    The result w satisfies w(T_k(x)) = v(x) with v the even extension of the
    root Z; junction nodes are shared (continuity is inherited from the state)
    and each grid cell carries the sigma of its interval.
    """
    n = avg.n_generations() - 1
    nodes, values, cell_sigma = [], [], []
    for k in range(2 * n + 2):
        # interval k covers generation n+1-k mirrored (k <= n), else generation k-n
        m = n + 1 - k if k <= n else k - n
        x, v = avg.global_x(m), avg.root[m - 1]
        if k <= n:
            x, v = -x[::-1], v[::-1]
        # T_k anchors at the finite breakpoint tilde_k, which for k = 0 is -a_n
        p = max(k - 1, 0)
        mapped = rmap.targets[p] + rmap.slopes[k] * (x - rmap.tilde_breakpoints[p])
        if nodes and abs(mapped[0] - nodes[-1][-1]) > 1e-9:
            raise ValueError("folded pieces do not join continuously")
        shared = 1 if nodes else 0  # junction nodes are shared with the previous piece
        nodes.append(mapped[shared:])
        values.append(v[shared:])
        cell_sigma.append(np.full(len(mapped) - 1, rmap.sigma[k]))
    return FoldedLine(
        nodes=np.concatenate(nodes),
        values=np.concatenate(values),
        cell_sigma=np.concatenate(cell_sigma),
    )


def write_reduction_report(rmap: ReductionMap, path, meta: dict | None = None) -> None:
    """CSV audit table: k, tilde_a_k, b_k, slope_k, sigma_k (-inf ends for k = 0)."""
    ends = [(-math.inf, -math.inf)] + list(zip(rmap.tilde_breakpoints, rmap.targets))
    rows = ((k, *ends[k], rmap.slopes[k], rmap.sigma[k]) for k in range(len(rmap.slopes)))
    write_csv(path, ["k", "tilde_a", "b", "slope", "sigma"], rows, meta)
