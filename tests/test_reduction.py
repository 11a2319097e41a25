import numpy as np
import pytest

from graphlse import (
    EvolutionConfig,
    GraphGrid,
    GraphState,
    MetricGraph,
    averaged_sums,
    build_regular_tree,
    build_star,
    difference_Z,
    evolve_graph,
    evolve_line_sigma,
    fold_to_line,
    reduction_map,
    star_sum,
    write_reduction_report,
)
from graphlse._report import read_csv
from graphlse.graphs import edge_derivative_at_end, edge_derivative_at_start


def rel_l2(u, v, x):
    return float(np.sqrt(np.trapezoid(np.abs(u - v) ** 2, x) / np.trapezoid(np.abs(v) ** 2, x)))


def bump(center, width=0.5, amp=1.0):
    # smooth, effectively compactly supported, zero at the vertex region
    return lambda x, c=center, w=width, a=amp: a * np.exp(-((np.asarray(x) - c) ** 2) / w**2)


def ray_bump(center, width=0.5, amp=1.0):
    # exactly zero (with zero slope) at the edge origin, Gaussian elsewhere
    def f(x, c=center, w=width, a=amp):
        x = np.asarray(x, dtype=float)
        return a * x**2 / (1.0 + x**2) * np.exp(-((x - c) ** 2) / w**2)
    return f


def finite_bump(length, amp=1.0):
    # vanishes with zero slope at both ends of a finite edge
    def f(x, l=length, a=amp):
        x = np.asarray(x, dtype=float)
        return a * (x * (l - x)) ** 2 / (l / 2.0) ** 4
    return f


# ---------------------------------------------------------------------------
# star sums
# ---------------------------------------------------------------------------


def test_star_sum_even_of_equal_components():
    graph, grid = build_star(3, 20.0, 0.05)
    st = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    x, vals = star_sum(st, "even")
    assert len(x) == 2 * grid.counts[0] - 1
    np.testing.assert_allclose(vals, 3.0 * np.exp(-(x**2)), atol=1e-14)
    np.testing.assert_allclose(vals, vals[::-1], atol=0)  # even


def test_star_sum_odd_mode_continuous():
    graph, grid = build_star(3, 20.0, 0.05)
    fns = [ray_bump(3.0, 0.7, a) for a in (1.0, -0.5, 2.0)]
    st = GraphState.sample(graph, grid, fns)
    x, vals = star_sum(st, "odd", component=0)
    i0 = len(x) // 2
    assert vals[i0] == 0.0
    np.testing.assert_allclose(vals, -vals[::-1], atol=0)  # odd


def test_star_sum_rejects_bad_mode():
    graph, grid = build_star(3, 20.0, 0.05)
    st = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError):
        star_sum(st, "sideways")
    with pytest.raises(ValueError):
        star_sum(st, "odd")  # missing component


def test_star_sum_diagram_commutes_with_free_evolution():
    # evolve the star, sum, extend evenly; versus: extend the initial sum and
    # evolve on the line (two independent solver runs)
    graph, grid = build_star(3, 40.0, 0.02)
    fns = [ray_bump(4.0, 0.8, a) for a in (1.0, 0.3 + 0.2j, -0.7)]
    st = GraphState.sample(graph, grid, fns)
    cfg = EvolutionConfig(dt=1e-3)
    x, s0 = star_sum(st, "even")
    out = evolve_graph(st, 0.5, cfg)
    _, s1 = star_sum(out, "even")
    line = evolve_line_sigma(s0, np.ones(len(x) - 1), x, 0.5, cfg)
    assert rel_l2(s1, line, x) <= 1e-3


# ---------------------------------------------------------------------------
# averaged sums
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def binary_tree():
    return build_regular_tree([1.0], [2, 2], 30.0, 0.02)


def prefix_average_oracle(state):
    """Z^alpha and the root by matching index prefixes edge by edge, in O(E^2)."""
    edges = state.graph.edges
    last = max(e.generation for e in edges)

    def mean(k, prefix, g):
        return np.mean(np.stack([v for v, f in zip(state.values, edges) if f.generation == g and f.index[:k] == prefix]), axis=0)

    pieces = {e.index: tuple(mean(e.generation, e.index, g) for g in range(e.generation, last + 1)) for e in edges}
    return pieces, tuple(mean(0, (), g) for g in range(1, last + 1))


@pytest.mark.parametrize(
    "lengths, degrees",
    [([], [3]), ([1.0], [2, 2]), ([1.0, 0.5], [2, 3, 2]), ([0.5, 0.25, 0.25], [3, 2, 2, 3])],
    ids=["star", "binary", "2-3-2", "3-2-2-3"],
)
def test_averaged_sums_block_means_match_prefix_oracle(lengths, degrees):
    graph, grid = build_regular_tree(lengths, degrees, 4.0, 0.125)
    rng = np.random.default_rng(graph.n_edges)
    amps = rng.normal(size=graph.n_edges) + 1j * rng.normal(size=graph.n_edges)
    st = GraphState.sample(graph, grid, [bump(c, 0.7, a) for c, a in zip(rng.uniform(0, 2, graph.n_edges), amps)])
    avg = averaged_sums(st)
    pieces, root = prefix_average_oracle(st)
    assert list(avg.pieces) == list(pieces)
    for alpha, expected in pieces.items():
        assert [z.tobytes() for z in avg.pieces[alpha]] == [z.tobytes() for z in expected]
    assert [z.tobytes() for z in avg.root] == [z.tobytes() for z in root]


def test_averaged_sums_refuse_missing_index(binary_tree):
    graph, grid = binary_tree
    # drop the ray (2, 2) and keep the branching metadata
    pruned = MetricGraph(graph.vertices, graph.edges[:-1], graph.generation_lengths, graph.branching)
    pruned_grid = GraphGrid(grid.h, grid.lengths[:-1])
    st = GraphState.sample(pruned, pruned_grid, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError, match="nested order"):
        averaged_sums(st)


def test_averaged_sums_identity_on_own_edge(binary_tree):
    graph, grid = binary_tree
    rng = np.random.default_rng(5)
    fns = [bump(2.0 + e, 0.4, a) for e, a in enumerate(rng.normal(size=graph.n_edges))]
    st = GraphState.sample(graph, grid, fns)
    avg = averaged_sums(st)
    for eid, e in enumerate(graph.edges):
        np.testing.assert_array_equal(avg.pieces[e.index][0], st.values[eid])


def test_averaged_sums_equal_profiles(binary_tree):
    graph, grid = binary_tree
    per_gen = {1: bump(0.5, 0.2), 2: bump(1.0, 0.3)}
    fns = [per_gen[e.generation] for e in graph.edges]
    st = GraphState.sample(graph, grid, fns)
    avg = averaged_sums(st)
    np.testing.assert_allclose(avg.root[0], per_gen[1](avg.grids[0]), atol=1e-15)
    np.testing.assert_allclose(avg.root[1], per_gen[2](avg.grids[1]), atol=1e-15)


def test_averaged_sums_sibling_cancellation(binary_tree):
    graph, grid = binary_tree
    f = bump(2.0, 0.5)
    fns = []
    for e in graph.edges:
        if e.generation == 1:
            fns.append(lambda x: 0.0 * np.asarray(x))
        else:
            sign = 1.0 if e.index[-1] == 1 else -1.0
            fns.append(lambda x, s=sign: s * f(x))
    st = GraphState.sample(graph, grid, fns)
    avg = averaged_sums(st)
    np.testing.assert_allclose(avg.pieces[(1,)][1], 0.0, atol=1e-15)
    np.testing.assert_allclose(avg.root[1], 0.0, atol=1e-15)


def test_averaged_sums_jump_ratio_from_solver(binary_tree):
    # the root average of an evolved state satisfies Z_x(a_1-) = 2 Z_x(a_1+),
    # read with one-sided differences on either side of a_1
    graph, grid = binary_tree
    fns = [ray_bump(3.0, 0.8, 1.0 if e.generation == 2 else 0.0) for e in graph.edges]
    st = GraphState.sample(graph, grid, fns)
    out = evolve_graph(st, 0.3, EvolutionConfig(dt=1e-3))
    avg = averaged_sums(out)
    ratio = edge_derivative_at_end(avg.root[0], grid.h) / edge_derivative_at_start(avg.root[1], grid.h)
    assert abs(ratio - 2.0) <= 0.05  # O(h) tolerance band


def test_difference_vanishes_for_equal_siblings(binary_tree):
    graph, grid = binary_tree
    per_gen = {1: bump(0.5, 0.2), 2: bump(1.5, 0.4)}
    st = GraphState.sample(graph, grid, [per_gen[e.generation] for e in graph.edges])
    avg = averaged_sums(st)
    xs, vals = difference_Z(avg, (), 1)
    for v in vals:
        np.testing.assert_allclose(v, 0.0, atol=1e-15)


def test_difference_sign_convention(binary_tree):
    # siblings +f and -f below edge (1,): child minus parent average gives +f
    # on the child (1,1)
    graph, grid = binary_tree
    f = bump(2.0, 0.5)
    fns = []
    for e in graph.edges:
        if e.generation == 1:
            fns.append(lambda x: 0.0 * np.asarray(x))
        else:
            fns.append((lambda x, s=1.0 if e.index[-1] == 1 else -1.0: s * f(x)))
    st = GraphState.sample(graph, grid, fns)
    avg = averaged_sums(st)
    xs, vals = difference_Z(avg, (1,), 1)
    np.testing.assert_allclose(vals[0], f(avg.grids[1]), atol=1e-15)


def test_difference_dirichlet_at_junction_for_solver_state(binary_tree):
    graph, grid = binary_tree
    rng = np.random.default_rng(9)
    amps = rng.normal(size=graph.n_edges) + 1j * rng.normal(size=graph.n_edges)
    fns = [finite_bump(1.0, a) if e.generation == 1 else ray_bump(2.5, 0.6, a)
           for e, a in zip(graph.edges, amps)]
    st = GraphState.sample(graph, grid, fns)
    out = evolve_graph(st, 0.2, EvolutionConfig(dt=1e-3))
    avg = averaged_sums(out)
    xs, vals = difference_Z(avg, (1,), 2)
    assert abs(vals[0][0]) <= 1e-10  # continuity of the discrete solution
    with pytest.raises(ValueError):
        difference_Z(avg, (1, 1), 1)  # beyond the last generation


# ---------------------------------------------------------------------------
# reduction map and folding
# ---------------------------------------------------------------------------


def test_reduction_map_binary_one_generation(binary_tree):
    graph, _ = binary_tree
    rmap = reduction_map(graph)
    assert rmap.sigma == (1.0, 0.25, 0.25, 1.0)
    assert rmap.slopes == (1.0, 0.5, 0.5, 1.0)
    assert rmap.sigma_minus == 1.0 and rmap.sigma_plus == 1.0
    np.testing.assert_allclose(rmap.tilde_breakpoints, [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(rmap.targets, [-0.5, 0.0, 0.5])


def test_reduction_map_star_is_identity():
    graph, _ = build_regular_tree([], [3], 20.0, 0.05)
    rmap = reduction_map(graph)
    assert rmap.sigma == (1.0, 1.0)
    assert rmap.slopes == (1.0, 1.0)


def test_reduction_map_general_degrees():
    # two generations of edges with degrees (2, 3): middle value is 1/d_2^2
    graph, _ = build_regular_tree([1.0], [2, 3], 12.0, 0.125)
    rmap = reduction_map(graph)
    assert rmap.sigma == (1.0, 1.0 / 9.0, 1.0 / 9.0, 1.0)


def test_reduction_map_three_generations_symmetric():
    graph, _ = build_regular_tree([1.0, 0.5], [2, 3, 2], 12.0, 0.125)
    rmap = reduction_map(graph)
    assert rmap.sigma == rmap.sigma[::-1]
    assert rmap.sigma[0] == 1.0
    full = 3.0 * 2.0  # d_2 d_3
    assert rmap.sigma[2] == pytest.approx(full**-2)
    assert rmap.sigma[1] == pytest.approx((3.0 / full) ** 2)


def test_reduction_map_depth_two_uniform_fold():
    # every generation folds to width 0.25: the layered line a = (1, 2, 4, 4, 2, 1), l = 0.25
    graph, _ = build_regular_tree([1.0, 0.5], [2, 2, 2], 12.0, 0.125)
    rmap = reduction_map(graph)
    assert rmap.sigma == (1.0, 1 / 4, 1 / 16, 1 / 16, 1 / 4, 1.0)
    assert rmap.targets == (-0.5, -0.25, 0.0, 0.25, 0.5)
    assert rmap.tilde_breakpoints == (-1.5, -1.0, 0.0, 1.0, 1.5)


def test_slope_compatibility_with_jump_ratios():
    # mu_{k-1} = mu_k / eta_k with eta the derivative-jump ratio at each fold
    # point (1/d on the mirrored side, d on the original side)
    graph, _ = build_regular_tree([1.0, 0.5], [2, 3, 2], 12.0, 0.125)
    n = 2
    degrees = (2, 3, 2)
    rmap = reduction_map(graph)
    for k in range(1, 2 * n + 2):
        if k <= n:
            eta = 1.0 / degrees[n + 1 - k]
        elif k == n + 1:
            eta = 1.0  # both one-sided derivatives vanish at the origin
        else:
            eta = degrees[k - n - 1]
        assert rmap.slopes[k - 1] == pytest.approx(rmap.slopes[k] / eta)


def test_fold_even_symmetry(binary_tree):
    graph, grid = binary_tree
    per_gen = {1: finite_bump(1.0), 2: ray_bump(2.0, 0.5)}
    st = GraphState.sample(graph, grid, [per_gen[e.generation] for e in graph.edges])
    avg = averaged_sums(st)
    folded = fold_to_line(avg, reduction_map(graph))
    np.testing.assert_allclose(folded.values, folded.values[::-1], atol=1e-15)
    np.testing.assert_allclose(folded.nodes, -folded.nodes[::-1], atol=1e-12)


def test_fold_constant_state(binary_tree):
    graph, grid = binary_tree
    st = GraphState.sample(graph, grid, lambda x: np.ones_like(np.asarray(x), dtype=complex))
    folded = fold_to_line(averaged_sums(st), reduction_map(graph))
    np.testing.assert_allclose(folded.values, 1.0, atol=0)


def test_fold_then_evolve_equals_evolve_then_fold(binary_tree):
    graph, grid = binary_tree
    rng = np.random.default_rng(1)
    amps = rng.normal(size=graph.n_edges) + 1j * rng.normal(size=graph.n_edges)
    fns = [finite_bump(1.0, a) if e.generation == 1 else ray_bump(3.0, 0.6, a)
           for e, a in zip(graph.edges, amps)]
    st = GraphState.sample(graph, grid, fns)
    cfg = EvolutionConfig(dt=5e-4)
    rmap = reduction_map(graph)
    folded0 = fold_to_line(averaged_sums(st), rmap)
    w_line = evolve_line_sigma(folded0.values, folded0.cell_sigma, folded0.nodes, 0.3, cfg)
    folded1 = fold_to_line(averaged_sums(evolve_graph(st, 0.3, cfg)), rmap)
    assert rel_l2(folded1.values, w_line, folded0.nodes) <= 2e-2


def test_reduction_report(tmp_path, binary_tree):
    graph, _ = binary_tree
    path = tmp_path / "report.csv"
    write_reduction_report(reduction_map(graph), path)
    assert path.read_text().startswith("# tool=graphlse")
    _, columns, rows = read_csv(path)
    assert columns == ["k", "tilde_a", "b", "slope", "sigma"]
    assert len(rows) == 4  # 4 intervals for n = 1
    assert rows[0][:3] == ["0", "-inf", "-inf"]
