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
from .graphs import GraphGrid, GraphState, MetricGraph, edge_derivative_at_end, edge_derivative_at_start

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
    Returns (x, values).  The evolution steps a star in these modes (the
    edge mean and the differences u_k - u_0, see ``evolution``), so that
    data equal on every edge sweeps one ray.
    """
    graph = _require_star(state)
    counts = set(state.grid.counts)
    spac = set(state.grid.spacings)
    if len(counts) != 1 or len(spac) != 1:
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
    trunc_length: float  # truncation of the infinite generation
    grids: tuple[np.ndarray, ...]  # local coordinates per generation 1..n+1
    pieces: dict[tuple[int, ...], tuple[np.ndarray, ...]]
    root: tuple[np.ndarray, ...]
    time: float

    def n_generations(self) -> int:
        return len(self.grids)

    def global_x(self, generation: int) -> np.ndarray:
        return self.breakpoints[generation - 1] + self.grids[generation - 1]

    def jump_ratio(self, k: int, h: float) -> complex:
        """Discrete Z_x(a_k-) / Z_x(a_k+) of the root average, k = 1..n."""
        left = edge_derivative_at_end(self.root[k - 1], h)
        right = edge_derivative_at_start(self.root[k], h)
        return left / right


def averaged_sums(state: GraphState) -> AveragedSums:
    """All Z^alpha and the root average of a regular-tree state.

    Sibling grids must be identical per generation so the averages are exact
    sample-wise means (no interpolation).
    """
    graph = state.graph
    n, lengths, degrees = _tree_meta(graph)
    by_gen: dict[int, list[int]] = {}
    for eid, e in enumerate(graph.edges):
        by_gen.setdefault(e.generation, []).append(eid)
    grids = []
    for gen in range(1, n + 2):
        ids = by_gen[gen]
        cs = {state.grid.counts[i] for i in ids}
        hs = {state.grid.spacings[i] for i in ids}
        if len(cs) != 1 or len(hs) != 1:
            raise ValueError(f"generation {gen} edges do not share one grid")
        grids.append(state.grid.x(ids[0]))
    breakpoints = (0.0,) + tuple(np.cumsum(lengths))
    trunc = state.grid.lengths[by_gen[n + 1][0]]

    pieces: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
    for eid, e in enumerate(graph.edges):
        alpha = e.index
        k = e.generation
        stack = []
        for gen in range(k, n + 2):
            members = [
                state.values[i]
                for i in by_gen[gen]
                if graph.edges[i].index[:k] == alpha
            ]
            stack.append(np.mean(np.stack(members), axis=0))
        pieces[alpha] = tuple(stack)
    root = tuple(
        np.mean(np.stack([state.values[i] for i in by_gen[gen]]), axis=0) for gen in range(1, n + 2)
    )
    return AveragedSums(
        breakpoints=tuple(float(b) for b in breakpoints),
        trunc_length=float(trunc),
        grids=tuple(grids),
        pieces=pieces,
        root=root,
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
    parent = avg.root if len(alpha) == 0 else avg.pieces[tuple(alpha)]
    child_pieces = avg.pieces[child]
    k = len(alpha)
    # parent pieces start at generation max(k,1); child pieces at k+1
    offset = (k + 1) - max(k, 1)
    xs, vals = [], []
    for i, cv in enumerate(child_pieces):
        gen = k + 1 + i
        xs.append(avg.global_x(gen))
        vals.append(cv - parent[i + offset])
    return xs, vals


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
    full = 1.0  # d_2 ... d_{n+1}
    for d in degrees[1:]:
        full *= d
    slopes = []
    for k in range(0, 2 * n + 2):
        if k <= n - 1:
            num = 1.0
            for d in degrees[1 : n + 1 - k]:
                num *= d
            slopes.append(num / full)
        elif k <= n + 1:
            slopes.append(1.0 / full)
        else:
            num = 1.0
            for d in degrees[1 : k - n]:
                num *= d
            slopes.append(num / full)
    a = [0.0]
    for l in lengths:
        a.append(a[-1] + l)
    tilde = [-v for v in a[::-1][:-1]] + a  # -a_n..-a_1, 0, a_1..a_n
    # b_{n+1} = 0 at tilde index n+1 (value 0); accumulate outwards
    m = len(tilde)
    b = [0.0] * m
    # interval k of the fold runs (tilde_k, tilde_{k+1}) with tilde_0 = -inf; our
    # finite list covers tilde_1..tilde_{2n+1}, i.e. list position p = k-1, so
    # the interval between list positions p-1 and p is fold interval k = p.
    pos0 = n  # list position of the 0 breakpoint (= tilde_{n+1})
    for p in range(pos0 + 1, m):
        b[p] = b[p - 1] + slopes[p] * (tilde[p] - tilde[p - 1])
    for p in range(pos0 - 1, -1, -1):
        k = p + 1
        b[p] = b[p + 1] - slopes[k] * (tilde[p + 1] - tilde[p])
    sigma = tuple(s * s for s in slopes)
    return ReductionMap(
        tilde_breakpoints=tuple(tilde),
        targets=tuple(b),
        slopes=tuple(slopes),
        sigma=sigma,
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
    gens = avg.n_generations()
    n = gens - 1
    pieces_x = []
    pieces_v = []
    pieces_s = []
    # negative side: fold interval k = 0..n covers generation m = n+1-k
    for k in range(0, n + 1):
        m = n + 1 - k
        x_glob = avg.global_x(m)
        v = avg.root[m - 1]
        mapped = _affine(rmap, k, -x_glob)[::-1]
        pieces_x.append(mapped)
        pieces_v.append(v[::-1])
        pieces_s.append(rmap.sigma[k])
    # positive side: fold interval k = n+1..2n+1 covers generation m = k-n
    for k in range(n + 1, 2 * n + 2):
        m = k - n
        x_glob = avg.global_x(m)
        v = avg.root[m - 1]
        mapped = _affine(rmap, k, x_glob)
        pieces_x.append(mapped)
        pieces_v.append(v)
        pieces_s.append(rmap.sigma[k])
    nodes = [pieces_x[0]]
    values = [pieces_v[0]]
    cell_sigma = [np.full(len(pieces_x[0]) - 1, pieces_s[0])]
    for px, pv, ps in zip(pieces_x[1:], pieces_v[1:], pieces_s[1:]):
        if abs(px[0] - nodes[-1][-1]) > 1e-9:
            raise ValueError("folded pieces do not join continuously")
        nodes.append(px[1:])
        values.append(pv[1:])
        cell_sigma.append(np.full(len(px) - 1, ps))
    return FoldedLine(
        nodes=np.concatenate(nodes),
        values=np.concatenate(values),
        cell_sigma=np.concatenate(cell_sigma),
    )


def _affine(rmap: ReductionMap, k: int, x: np.ndarray) -> np.ndarray:
    """T_k(x) for fold interval k; finite breakpoint list starts at tilde_1 = -a_n,
    which also anchors the unbounded interval k = 0."""
    p = max(k - 1, 0)
    return rmap.targets[p] + rmap.slopes[k] * (x - rmap.tilde_breakpoints[p])


def write_reduction_report(rmap: ReductionMap, path, meta: dict | None = None) -> None:
    """CSV audit table: k, tilde_a_k, b_k, slope_k, sigma_k (-inf ends for k = 0)."""
    ends = [(-math.inf, -math.inf)] + list(zip(rmap.tilde_breakpoints, rmap.targets))
    rows = ((k, *ends[k], rmap.slopes[k], rmap.sigma[k]) for k in range(len(rmap.slopes)))
    write_csv(path, ["k", "tilde_a", "b", "slope", "sigma"], rows, meta)
