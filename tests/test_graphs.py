import math

import numpy as np
import pytest
from scipy.optimize import brentq

from graphlse import (
    Edge,
    GraphGrid,
    GraphState,
    KirchhoffResidual,
    MetricGraph,
    NormOverflowError,
    build_regular_tree,
    build_star,
    kirchhoff_residual,
    weighted_l2_norm,
)
from graphlse.graphs import edge_derivative_at_end, edge_derivative_at_start


def test_build_star_counts():
    graph, grid = build_star(3, 40.0, 0.05)
    assert graph.n_edges == 3
    assert grid.counts == (801, 801, 801)
    assert all(e.infinite for e in graph.edges)


def test_build_star_two_edges_is_a_split_line():
    graph, grid = build_star(2, 40.0, 0.05)
    assert graph.n_edges == 2
    assert len(graph.vertices) == 1


@pytest.mark.parametrize("bad", [1, 0, -2])
def test_build_star_rejects_small_n(bad):
    with pytest.raises(ValueError):
        build_star(bad, 40.0, 0.05)


def test_build_star_rejects_bad_geometry():
    with pytest.raises(ValueError):
        build_star(3, -1.0, 0.05)
    with pytest.raises(ValueError):
        build_star(3, 40.0, 0.0)
    with pytest.raises(ValueError):
        build_star(3, 1.0, 0.5)  # L/h < 16


@pytest.mark.parametrize("n", [2, 3, 5])
def test_build_star_is_the_depth_0_regular_tree(n):
    assert build_star(n, 40.0, 0.05) == build_regular_tree((), (n,), 40.0, 0.05)


@pytest.mark.parametrize(
    "h,lengths,message",
    [
        (0.0, (1.0,), "spacing must be positive and finite"),
        (-0.05, (1.0,), "spacing must be positive and finite"),
        (math.nan, (1.0,), "spacing must be positive and finite"),
        (0.05, (1.0, 0.0), "length must be positive and finite"),
        (0.05, (-1.0,), "length must be positive and finite"),
        (0.05, (math.inf,), "length must be positive and finite"),
        (0.05, (math.nan,), "length must be positive and finite"),
        (0.05, (1.0, 1.03), "not an integer multiple"),
        (0.05, (0.02,), "not an integer multiple"),
    ],
)
def test_graph_grid_refuses_bad_spacing_or_length(h, lengths, message):
    with pytest.raises(ValueError, match=message):
        GraphGrid(h, lengths)


def test_graph_grid_counts_follow_lengths():
    grid = GraphGrid(0.05, (1.0, 0.05, 40.0))
    assert grid.counts == (21, 2, 801)
    assert [len(grid.x(e)) for e in range(3)] == [21, 2, 801]
    assert grid.x(0)[-1] == 1.0


def test_regular_tree_binary_one_generation():
    graph, grid = build_regular_tree([1.0], [2, 2], 20.0, 0.05)
    finite = [e for e in graph.edges if not e.infinite]
    infinite = [e for e in graph.edges if e.infinite]
    assert len(finite) == 2 and len(infinite) == 4


def test_regular_tree_degenerate_is_star():
    graph, _ = build_regular_tree([], [3], 20.0, 0.05)
    assert graph.is_star and graph.n_edges == 3


def test_regular_tree_generation_sizes_match_degree_products():
    graph, _ = build_regular_tree([1.0, 2.0], [2, 3, 2], 10.0, 0.125)
    sizes = {}
    for e in graph.edges:
        sizes[e.generation] = sizes.get(e.generation, 0) + 1
    assert sizes == {1: 2, 2: 6, 3: 12}


@pytest.mark.parametrize(
    "lengths,degrees,max_gen",
    [([1.0], [2, 2], 2), ([1.0, 1.0], [3, 2, 2], 3), ([0.5, 1.0, 1.5], [2, 2, 3, 2], 4)],
)
def test_regular_tree_edge_counts_products(lengths, degrees, max_gen):
    graph, _ = build_regular_tree(lengths, degrees, 8.0, 0.125)
    for gen in range(1, max_gen + 1):
        expected = 1
        for d in degrees[:gen]:
            expected *= d
        assert sum(1 for e in graph.edges if e.generation == gen) == expected


def test_regular_tree_nested_edge_order():
    # generation by generation, each in lexicographic multi-index order; the
    # vertex ids number the finite edges' terminals in that order
    graph, _ = build_regular_tree([1.0, 0.5], [2, 3, 2], 8.0, 0.125)
    keys = [(e.generation, e.index) for e in graph.edges]
    assert keys == sorted(keys) and all(len(idx) == g for g, idx in keys)
    vertex_of = {(): 0}
    for e in graph.edges:
        assert e.initial == vertex_of[e.index[:-1]]
        if not e.infinite:
            vertex_of[e.index] = e.terminal
    assert list(vertex_of.values()) == list(graph.vertices)


def test_regular_tree_rejects_empty_degrees():
    with pytest.raises(ValueError):
        build_regular_tree([], [], 10.0, 0.05)


def test_kirchhoff_symmetric_even_data():
    graph, grid = build_star(3, 40.0, 0.05)
    state = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    res = kirchhoff_residual(state)
    assert res.continuity == 0.0
    # one-sided 4th-order stencil: O(h^4) for generic even data
    assert res.flux < 64.0 * 0.05**4


def test_kirchhoff_flux_exact_for_even_quartics():
    # the stencil differentiates degree <= 4 polynomials exactly, and even
    # polynomials have zero derivative at the vertex
    graph, grid = build_star(4, 40.0, 0.05)
    state = GraphState.sample(graph, grid, lambda x: 2.0 - 3.0 * x**2 + 0.25 * x**4)
    res = kirchhoff_residual(state)
    assert res.flux < 1e-9
    assert res.continuity == 0.0


def test_kirchhoff_flux_shrinks_like_h4():
    vals = []
    for h in (0.1, 0.05):
        graph, grid = build_star(3, 40.0, h)
        state = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
        vals.append(kirchhoff_residual(state).flux)
    assert vals[1] < vals[0] / 8.0  # at least 8x reduction for halved h (expect ~16x)


def test_kirchhoff_continuity_mismatch():
    graph, grid = build_star(2, 40.0, 0.05)
    state = GraphState(
        graph,
        grid,
        (np.exp(-grid.x(0) ** 2), 2.0 * np.exp(-grid.x(1) ** 2)),
    )
    res = kirchhoff_residual(state)
    assert res.continuity == pytest.approx(1.0)


def test_kirchhoff_balanced_asymmetric_gaussians():
    # choose centers with sum of derivatives 2 c_k exp(-c_k^2) balanced at 0
    g = lambda c: 2.0 * c * math.exp(-(c**2))
    c3 = brentq(lambda c: g(0.1) + g(0.3) + g(c), -1.0 / math.sqrt(2.0), -1e-6)
    assert abs(g(0.1) + g(0.3) + g(c3)) < 1e-12
    h = 0.02
    graph, grid = build_star(3, 40.0, h)
    fns = [
        (lambda x, c=c: np.exp(-((x - c) ** 2))) for c in (0.1, 0.3, c3)
    ]
    state = GraphState.sample(graph, grid, fns)
    res = kirchhoff_residual(state)
    assert res.flux <= 10.0 * h  # actual scale is O(h^4); C*h is the contract


def _incident_scan_residual(state):
    """The vertex-by-vertex scan that ``kirchhoff_residual`` replaced, kept as its oracle."""
    cont = 0.0
    flux = 0.0
    for v in state.graph.vertices:
        inc = []
        for i, e in enumerate(state.graph.edges):
            if e.initial == v:
                inc.append((i, "initial"))
            if e.terminal == v:
                inc.append((i, "terminal"))
        if not inc:
            continue
        vals = [state.values[eid][0] if end == "initial" else state.values[eid][-1] for eid, end in inc]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                cont = max(cont, abs(vals[i] - vals[j]))
        total = 0.0 + 0.0j
        for eid, end in inc:
            if end == "terminal":
                total += edge_derivative_at_end(state.values[eid], state.grid.h)
            else:
                total -= edge_derivative_at_start(state.values[eid], state.grid.h)
        flux = max(flux, abs(total))
    return KirchhoffResidual(continuity=cont, flux=flux)


def _cycle_with_loop_and_rays():
    """A triangle 0-1-2, a loop at 1 and rays at 0 and 2, every edge with at least 5 samples."""
    h = 0.1
    edges = (
        Edge(0, 1, 1.0),
        Edge(1, 2, 0.5),
        Edge(2, 0, 0.7),
        Edge(1, 1, 0.4),
        Edge(0, None, math.inf),
        Edge(2, None, math.inf),
    )
    return MetricGraph((0, 1, 2), edges), GraphGrid(h, (1.0, 0.5, 0.7, 0.4, 3.0, 2.0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_star(4, 4.0, 0.125),
        lambda: build_regular_tree((1.0, 0.5), (2, 3, 2), 4.0, 0.125),
        _cycle_with_loop_and_rays,
    ],
    ids=["star", "tree", "cycle-loop-rays"],
)
def test_kirchhoff_residual_equals_incident_scan(make):
    graph, grid = make()
    assert min(grid.counts) >= 5
    rng = np.random.default_rng(11)
    for _ in range(20):  # enough draws that a change of summation order shows in the last bit
        values = tuple(rng.normal(size=n) + 1j * rng.normal(size=n) for n in grid.counts)
        state = GraphState(graph, grid, values)
        assert kirchhoff_residual(state) == _incident_scan_residual(state)


def test_weighted_norm_zero_state():
    graph, grid = build_star(2, 40.0, 0.05)
    state = GraphState.sample(graph, grid, lambda x: 0.0 * x)
    assert weighted_l2_norm(state) == 0.0


def test_weighted_norm_halfline_gaussian_matches_quadrature_oracle():
    # oracle: closed-form integral of exp(-2 x^2) over one ray is sqrt(pi/8)
    graph, grid = build_star(2, 40.0, 0.01)
    state = GraphState.sample(
        graph, grid, [lambda x: np.exp(-(x**2)), lambda x: 0.0 * x]
    )
    assert weighted_l2_norm(state) == pytest.approx((math.pi / 8.0) ** 0.25, abs=1e-7)


def test_weighted_norm_agrees_with_flat_trapezoid():
    graph, grid = build_star(3, 20.0, 0.05)
    rng = np.random.default_rng(3)
    state = GraphState.sample(
        graph, grid, [lambda x, a=a: a * np.exp(-((x - 1) ** 2)) for a in rng.normal(size=3)]
    )
    brute = 0.0
    for e in range(3):
        brute += np.trapezoid(np.abs(state.values[e]) ** 2, grid.x(e))
    assert weighted_l2_norm(state) == pytest.approx(math.sqrt(brute), rel=1e-12)


def test_weighted_norm_divergence_guard():
    graph, grid = build_star(2, 40.0, 0.05)
    state = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    with pytest.raises(NormOverflowError):
        weighted_l2_norm(state, gamma=1.0)  # integrand no longer decays


def test_weighted_norm_overflow_guard():
    graph, grid = build_star(2, 40.0, 0.05)
    state = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    with pytest.raises(NormOverflowError):
        weighted_l2_norm(state, gamma=10.0)


def test_weighted_norm_small_gamma_ok():
    graph, grid = build_star(2, 40.0, 0.01)
    state = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    # closed form: integral over two rays of exp((2g-2)x^2) with g=0.25
    val = weighted_l2_norm(state, gamma=0.25)
    assert val == pytest.approx(math.sqrt(2.0 * 0.5 * math.sqrt(math.pi / 1.5)), rel=1e-6)


def test_state_validation():
    graph, grid = build_star(2, 40.0, 0.05)
    with pytest.raises(ValueError):
        GraphState(graph, grid, (np.zeros(5), np.zeros(801)))
    for lengths in ((40.0,), (40.0, 40.0, 20.0)):  # a grid for another number of edges
        with pytest.raises(ValueError, match="one grid length per edge"):
            GraphState(graph, GraphGrid(0.05, lengths), (np.zeros(801), np.zeros(801)))
    bad = np.zeros(801)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GraphState(graph, grid, (bad, np.zeros(801)))


def test_state_keeps_its_own_read_only_arrays():
    # the state copies the caller's arrays once and marks its copies read-only,
    # so neither a later write by the caller nor one into values[k] reaches it
    graph, grid = build_star(3, 4.0, 0.05)
    vals = [np.exp(-(grid.x(e) ** 2)).astype(complex) for e in range(3)]
    want = [v.copy() for v in vals]
    st = GraphState(graph, grid, vals)
    vals[0][5] = 7.0
    assert all(a.tobytes() == b.tobytes() for a, b in zip(st.values, want))
    with pytest.raises(ValueError, match="read-only"):
        st.values[1][3] = np.nan
    assert not any(v.flags.writeable for v in st.values)
    assert all(np.isfinite(v).all() for v in st.values)


def test_state_refuses_a_grid_that_disagrees_with_a_finite_edge():
    # a grid of edges 2 long on a tree whose finite edges are 1 long would
    # sample and evolve on the wrong lengths; only folding it would fail
    graph, grid = build_regular_tree([1.0], [2, 2], 10.0, 0.05)
    wrong = GraphGrid(0.05, (2.0, 2.0, 10.0, 10.0, 10.0, 10.0))
    with pytest.raises(ValueError, match="differs from the length 1.0 of its finite edge"):
        GraphState.sample(graph, wrong, lambda x: np.exp(-(x**2)))
    # within the grid's own rounding rule the lengths agree; a ray keeps any truncation
    close = GraphGrid(0.05, (1.0 + 5e-9, 1.0, 7.5, 10.0, 10.0, 12.5))
    assert GraphState.sample(graph, close, lambda x: np.exp(-(x**2))).grid is close


def test_edge_refuses_nan_length():
    with pytest.raises(ValueError, match="must be positive"):
        Edge(0, 1, math.nan)
