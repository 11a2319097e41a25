import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphlse import (
    Edge,
    EvolutionConfig,
    GraphGrid,
    GraphState,
    MetricGraph,
    PiecewiseCoefficient,
    TruncationGuardError,
    averaged_sums,
    build_regular_tree,
    build_star,
    evolve_graph,
    evolve_graph_potential,
    evolve_line_sigma,
    fold_to_line,
    kirchhoff_residual,
    line_grid,
    read_checkpoint,
    reduction_map,
    weighted_l2_norm,
    write_checkpoint,
)
from graphlse.evolution import _assemble, _cayley_stepper, _factor_chains, _graph_cells, _guard_tail, _pack_graph


def gaussian(alpha=1.0, center=0.0, chirp=0.0):
    return lambda x: np.exp(-(alpha + 1j * chirp) * (np.asarray(x) - center) ** 2)


def free_gaussian_evolution(alpha, t, x):
    # closed form for exp(-alpha x^2) through the free kernel
    return np.exp(-alpha * x**2 / (1 + 4j * alpha * t)) / np.sqrt(1 + 4j * alpha * t)


def rel_l2(u, v, x):
    return float(np.sqrt(np.trapezoid(np.abs(u - v) ** 2, x) / np.trapezoid(np.abs(v) ** 2, x)))


@pytest.fixture(scope="module")
def star3():
    return build_star(3, 40.0, 0.05)


def test_zero_steps_returns_initial(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    out = evolve_graph(st, 0.0, EvolutionConfig(dt=1e-2))
    for e in range(3):
        np.testing.assert_allclose(out.values[e], st.values[e])


def test_unitarity_star(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    out = evolve_graph(st, 1.0, EvolutionConfig(dt=1e-3))
    n0, n1 = weighted_l2_norm(st), weighted_l2_norm(out)
    assert abs(n1 - n0) <= 1e-10 * n0


def test_two_edge_star_matches_free_line():
    graph, grid = build_star(2, 40.0, 0.02)
    st = GraphState.sample(graph, grid, gaussian(alpha=0.5))
    out = evolve_graph(st, 1.0, EvolutionConfig(dt=1e-3))
    x = grid.x(0)
    exact = free_gaussian_evolution(0.5, 1.0, x)
    assert rel_l2(out.values[0], exact, x) <= 1e-4
    assert rel_l2(out.values[1], exact, x) <= 1e-4


def test_time_reversibility(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian(alpha=0.8))
    cfg = EvolutionConfig(dt=1e-3)
    fwd = evolve_graph(st, 0.5, cfg)
    back = evolve_graph(fwd, 0.0, cfg)
    x = grid.x(0)
    for e in range(3):
        assert rel_l2(back.values[e], st.values[e], x) <= 1e-9


def test_produced_states_satisfy_discrete_kirchhoff(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian(alpha=0.7))
    out = evolve_graph(st, 0.4, EvolutionConfig(dt=1e-3))
    res = kirchhoff_residual(out)
    assert res.continuity == 0.0  # shared vertex unknown by construction
    assert res.flux <= 10.0 * grid.spacings[0]


def test_second_order_convergence():
    errs = []
    for h, dt in ((0.08, 4e-3), (0.04, 2e-3)):
        graph, grid = build_star(2, 40.0, h)
        st = GraphState.sample(graph, grid, gaussian(alpha=0.5))
        out = evolve_graph(st, 0.5, EvolutionConfig(dt=dt))
        x = grid.x(0)
        errs.append(rel_l2(out.values[0], free_gaussian_evolution(0.5, 0.5, x), x))
    assert errs[1] <= errs[0] / 3.0  # ~4x for a second-order scheme


def test_discontinuous_initial_data_rejected(star3):
    graph, grid = star3
    vals = tuple(np.exp(-grid.x(e) ** 2) * (1.0 + 0.1 * e) for e in range(3))
    st = GraphState(graph, grid, vals)
    with pytest.raises(ValueError, match="discontinuous"):
        evolve_graph(st, 0.1, EvolutionConfig(dt=1e-2))


def test_dt_must_divide_t_final(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    with pytest.raises(ValueError, match="integer multiple"):
        evolve_graph(st, 0.35, EvolutionConfig(dt=0.1))


def test_wavefront_guard_trips():
    graph, grid = build_star(2, 8.0, 0.05)
    st = GraphState.sample(graph, grid, gaussian(alpha=0.25))
    with pytest.raises(TruncationGuardError):
        evolve_graph(st, 2.0, EvolutionConfig(dt=1e-2, guard_tol=1e-10))


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_zero_potential_matches_free(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    cfg = EvolutionConfig(dt=1e-2)
    a = evolve_graph(st, 0.2, cfg)
    b = evolve_graph_potential(st, None, None, 0.2, cfg)
    for e in range(3):
        np.testing.assert_allclose(a.values[e], b.values[e], atol=1e-14)


def test_constant_real_potential_is_exact_gauge_factor(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    cfg = EvolutionConfig(dt=1e-2)
    c = 0.7
    free = evolve_graph(st, 0.3, cfg)
    withv = evolve_graph_potential(st, c, None, 0.3, cfg)
    for e in range(3):
        diff = np.max(np.abs(withv.values[e] - np.exp(1j * c * 0.3) * free.values[e]))
        assert diff <= 1e-10


def test_real_potential_preserves_norm(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    V1 = lambda t, x: np.cos(x) / (1 + x**2)
    out = evolve_graph_potential(st, V1, None, 0.5, EvolutionConfig(dt=1e-3))
    assert abs(weighted_l2_norm(out) - weighted_l2_norm(st)) <= 1e-10 * weighted_l2_norm(st)


def test_constant_imaginary_potential_decays_exactly(star3):
    # oracle: spatially constant V2 acts as the exact gauge factor exp(i V2 t),
    # so V2 = +i m damps the norm by exp(-m t)
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    m = 0.8
    out = evolve_graph_potential(st, None, lambda t, x: 1j * m * np.ones_like(x), 0.5, EvolutionConfig(dt=1e-3))
    expected = np.exp(-m * 0.5) * weighted_l2_norm(st)
    assert abs(weighted_l2_norm(out) - expected) <= 1e-6 * expected


def test_static_potential_sampled_once_per_edge(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    calls = []

    def V1(t, x):
        calls.append(t)
        return np.cos(x) / (1 + x**2)

    V2 = lambda t, x: 0.1 * t + 0.0 * x
    for v2 in (None, V2):
        calls.clear()
        evolve_graph_potential(st, V1, v2, 0.1, EvolutionConfig(dt=1e-2))
        assert len(calls) == graph.n_edges


def test_nan_potential_rejected(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    bad = lambda t, x: np.where(x > 1.0, np.nan, 0.0)
    with pytest.raises(ValueError, match="NaN|finite|infinity"):
        evolve_graph_potential(st, bad, None, 0.1, EvolutionConfig(dt=1e-2))


# ---------------------------------------------------------------------------
# line with piecewise coefficient
# ---------------------------------------------------------------------------


def test_piecewise_coefficient_fields():
    sig = PiecewiseCoefficient((1.0, 2.0), spacing=1.0)
    assert sig.sigma_minus == 1.0
    assert sig.sigma_plus == 0.25
    np.testing.assert_allclose(sig.breakpoints(), [0.0])
    np.testing.assert_allclose(sig.sigma_at(np.array([-1.0, 0.5])), [1.0, 0.25])
    with pytest.raises(ValueError):
        PiecewiseCoefficient((1.0, -2.0))


def test_constant_sigma_equals_free_evolution():
    nodes = line_grid(40.0, 40.0, 0.02)
    sig = PiecewiseCoefficient((1.0, 1.0, 1.0), spacing=1.0)
    u0 = gaussian(alpha=0.5)(nodes)
    cfg = EvolutionConfig(dt=1e-3)
    a = evolve_line_sigma(u0, sig, nodes, 0.5, cfg)
    b = evolve_line_sigma(u0, np.ones(len(nodes) - 1), nodes, 0.5, cfg)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_line_sigma_norm_preserved_1000_steps():
    nodes = line_grid(40.0, 40.0, 0.02)
    sig = PiecewiseCoefficient((1.0, 2.0), spacing=1.0)
    u0 = gaussian(alpha=1.0)(nodes)
    u1 = evolve_line_sigma(u0, sig, nodes, 1.0, EvolutionConfig(dt=1e-3))
    n0 = np.sqrt(np.trapezoid(np.abs(u0) ** 2, nodes))
    n1 = np.sqrt(np.trapezoid(np.abs(u1) ** 2, nodes))
    assert abs(n1 - n0) <= 1e-10 * n0


def test_breakpoint_off_grid_rejected():
    nodes = line_grid(40.0, 40.0, 0.02) + 0.007
    sig = PiecewiseCoefficient((1.0, 2.0), spacing=1.0)
    with pytest.raises(ValueError, match="breakpoint"):
        evolve_line_sigma(np.exp(-nodes**2), sig, nodes, 0.1, EvolutionConfig(dt=1e-2))


def test_discrete_flux_continuity_across_breakpoint():
    # sigma u_x should be continuous across the jump: compare one-sided
    # difference quotients scaled by sigma on both sides of x = 0
    nodes = line_grid(40.0, 40.0, 0.01)
    sig = PiecewiseCoefficient((1.0, 2.0), spacing=1.0)
    u0 = gaussian(alpha=1.0, center=-2.0)(nodes)
    u1 = evolve_line_sigma(u0, sig, nodes, 0.5, EvolutionConfig(dt=5e-4))
    i0 = int(np.argmin(np.abs(nodes)))
    h = nodes[1] - nodes[0]
    left = 1.0 * (u1[i0] - u1[i0 - 1]) / h
    right = 0.25 * (u1[i0 + 1] - u1[i0]) / h
    scale = np.max(np.abs(u1))
    assert abs(left - right) <= 30.0 * h * scale


def test_nonuniform_grid_supported():
    nodes = np.concatenate([np.arange(-30.0, 0.0, 0.05), np.arange(0.0, 30.0 + 0.025, 0.025)])
    cells = np.where(0.5 * (nodes[:-1] + nodes[1:]) < 0, 1.0, 0.25)
    u0 = np.exp(-(nodes**2))
    u1 = evolve_line_sigma(u0, cells, nodes, 0.2, EvolutionConfig(dt=1e-3))
    n0 = np.sqrt(np.trapezoid(np.abs(u0) ** 2, nodes))
    n1 = np.sqrt(np.trapezoid(np.abs(u1) ** 2, nodes))
    assert abs(n1 - n0) <= 1e-10 * n0


def test_checkpoint_roundtrip(tmp_path, star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    cfg = EvolutionConfig(dt=1e-2)
    out = evolve_graph(st, 0.1, cfg)
    path = tmp_path / "ck.csv"
    write_checkpoint(out, path, cfg)
    meta, data = read_checkpoint(path)
    assert meta["t"] == pytest.approx(0.1)
    assert meta["dt"] == pytest.approx(1e-2)
    assert meta["h"] == pytest.approx(0.05)
    assert meta["L"] == pytest.approx(40.0)
    assert set(data) == {0, 1, 2}
    x0, u0 = data[0]
    np.testing.assert_allclose(x0, grid.x(0))
    np.testing.assert_allclose(u0, out.values[0], atol=1e-15)


def test_complex_potential_norm_drift_bounded(star3):
    # d/dt ||u||^2 = -2 Im<Vu, u> <= 2 sup|Im V| ||u||^2, so the norm can grow
    # at most like exp(t sup|Im V|); check a spatially varying complex V2
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    m = 0.6
    V2 = lambda t, x: 0.3 * np.cos(x) + 1j * m * np.exp(-(x**2))
    out = evolve_graph_potential(st, None, V2, 0.5, EvolutionConfig(dt=1e-3))
    n0, n1 = weighted_l2_norm(st), weighted_l2_norm(out)
    bound = np.exp(m * 0.5) * n0
    assert n1 <= bound * (1 + 1e-9)
    assert n1 >= n0 / bound * (1 - 1e-9)


def test_per_edge_potentials_must_agree_at_vertex(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    mismatched = [lambda t, x, c=c: c + 0.0 * x for c in (0.0, 0.0, 1.0)]
    with pytest.raises(ValueError, match="disagree"):
        evolve_graph_potential(st, mismatched, None, 0.1, EvolutionConfig(dt=1e-2))


# ---------------------------------------------------------------------------
# the Cayley core against the two-matrix SuperLU step
# ---------------------------------------------------------------------------


def superlu_stepper(mass, K, dt, dirichlet):
    """Oracle: (iM - dt/2 K) u' = (iM + dt/2 K) u with identity Dirichlet rows, by SuperLU."""
    Md = sp.diags(mass)
    A = (1j * Md - (dt / 2.0) * K).tolil()
    B = (1j * Md + (dt / 2.0) * K).tolil()
    for d in dirichlet:
        A.rows[d] = [d]
        A.data[d] = [1.0]
        B.rows[d] = [d]
        B.data[d] = [1.0]
    solve = spla.factorized(A.tocsc())
    B = B.tocsc()
    return lambda u: solve(B @ u)


def line_system(nodes, cells):
    n = len(nodes)
    dx = np.diff(nodes)
    mass, K = _assemble(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1), cells / dx, dx)
    return mass, K, np.array([0, n - 1]), 0, float(np.min(dx))


def graph_system(graph, grid):
    packing = _pack_graph(graph, grid)
    mass, K = _assemble(packing.n_dof, *_graph_cells(graph, grid, packing))
    return mass, K, packing.dirichlet, len(graph.vertices), min(grid.spacings)


def folded_tree_line():
    graph, grid = build_regular_tree([1.0], [2, 2], 4.0, 0.05)
    state = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    folded = fold_to_line(averaged_sums(state), reduction_map(graph))
    return folded.nodes, folded.cell_sigma


def mixed_graph():
    """A triangle 0-1-2, a loop at 1, a two-sample edge 0-2, a ray at 0 and a two-sample ray at 2."""
    h = 0.05
    edges = (
        Edge(0, 1, 1.0),
        Edge(1, 2, 0.5),
        Edge(2, 0, 0.75),
        Edge(1, 1, 1.0),
        Edge(0, 2, h),
        Edge(0, None, math.inf),
        Edge(2, None, math.inf),
    )
    lengths = (1.0, 0.5, 0.75, 1.0, h, 3.0, h)
    counts = tuple(round(L / h) + 1 for L in lengths)
    return MetricGraph((0, 1, 2), edges), GraphGrid((h,) * len(edges), lengths, counts)


def vertices_only_graph():
    """A triangle and a loop, every edge with two samples: no chain at all."""
    h = 0.05
    edges = (Edge(0, 1, h), Edge(1, 2, h), Edge(2, 0, h), Edge(1, 1, h))
    return MetricGraph((0, 1, 2), edges), GraphGrid((h,) * 4, (h,) * 4, (2,) * 4)


CORE_CASES = {
    "line": lambda: line_system(line_grid(5.0, 5.0, 0.05), np.ones(200)),
    "folded-tree-line": lambda: line_system(*folded_tree_line()),
    "star3": lambda: graph_system(*build_star(3, 4.0, 0.05)),
    "tree": lambda: graph_system(*build_regular_tree([1.0], [2, 2], 4.0, 0.05)),
    "cycle-loop-short-edge": lambda: graph_system(*mixed_graph()),
    "vertices-only": lambda: graph_system(*vertices_only_graph()),
}


@pytest.mark.parametrize("dt_over_h", [0.02, -0.02, 10.0])
@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_cayley_core_matches_superlu_oracle(case, dt_over_h):
    mass, K, dirichlet, nv, h = CORE_CASES[case]()
    dt = dt_over_h * h
    rng = np.random.default_rng(7)
    u0 = rng.normal(size=len(mass)) + 1j * rng.normal(size=len(mass))
    new, old = _cayley_stepper(mass, K, dt, dirichlet, nv), superlu_stepper(mass, K, dt, dirichlet)
    u, v = u0, u0
    for _ in range(200):
        u, v = new(u), old(v)
    assert np.max(np.abs(u - v)) <= 1e-12 * np.max(np.abs(v))
    np.testing.assert_array_equal(u[dirichlet], u0[dirichlet])


@pytest.mark.parametrize("case", sorted(set(CORE_CASES) - {"vertices-only"}))
def test_chain_factor_is_unit_banded_and_certified(case):
    mass, K, dirichlet, nv, h = CORE_CASES[case]()
    dt = -10.0 * h
    keep = np.ones(len(mass))
    keep[dirichlet] = 0.0
    A = sp.diags(keep) @ (sp.diags(1j * mass) - (dt / 2.0) * K) + sp.diags(1.0 - keep)
    T = sp.csr_matrix(A)[nv:, nv:]
    # the certificate: strict row diagonal dominance of every chain row
    off = np.abs(T).sum(axis=1).A1 - np.abs(T.diagonal())
    assert np.all(np.abs(T.diagonal()) > off)
    assert sp.triu(T, 2).nnz == 0 and sp.tril(T, -2).nnz == 0
    lower, rp, upper = _factor_chains(T)
    assert lower.flags.f_contiguous and upper.flags.f_contiguous
    np.testing.assert_array_equal(lower[0], 1.0)
    np.testing.assert_array_equal(upper[1], 1.0)
    assert np.all(np.isfinite(rp)) and np.all(rp != 0)
    m = len(rp)
    L = sp.eye(m) + sp.diags(lower[1, :-1], -1, shape=(m, m))
    U = sp.eye(m) + sp.diags(upper[0, 1:], 1, shape=(m, m))
    LDU = (L @ sp.diags(1.0 / rp) @ U).toarray()
    np.testing.assert_allclose(LDU, T.toarray(), rtol=0, atol=1e-12 * np.max(np.abs(T.data), initial=0.0))


@pytest.mark.parametrize("t_final", [0.3, -0.3])
def test_static_phase_merge_matches_half_steps(star3, t_final):
    # a static V1 multiplies by phase, phase**2 between steps, phase at the end;
    # the same V given as V2 runs one phase half-step on each side of every step
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    V = lambda t, x: np.cos(x) / (1 + x**2)
    cfg = EvolutionConfig(dt=1e-2)
    merged = evolve_graph_potential(st, V, None, t_final, cfg)
    halves = evolve_graph_potential(st, None, V, t_final, cfg)
    scale = max(np.max(np.abs(v)) for v in halves.values)
    for e in range(3):
        assert np.max(np.abs(merged.values[e] - halves.values[e])) <= 1e-12 * scale


def test_guard_tail_counts_cells_inside_the_cut():
    x = np.arange(11.0)
    w = np.ones(11)
    loose = EvolutionConfig(dt=1.0, guard_tol=1.0)
    assert _guard_tail([(x, w, x >= 8.0)], loose) == pytest.approx(0.2)
    assert _guard_tail([(x, w, (x <= 1.0) | (x >= 8.0))], loose) == pytest.approx(0.3)
    assert _guard_tail([(x, w, x >= 8.0), (x, w, np.zeros(11, bool))], loose) == pytest.approx(0.1)
    assert _guard_tail([(x, w, x >= 10.0)], loose) == 0.0
    with pytest.raises(TruncationGuardError):
        _guard_tail([(x, w, x >= 8.0)], EvolutionConfig(dt=1.0, guard_tol=0.1))


def test_line_guard_trips():
    nodes = line_grid(8.0, 8.0, 0.05)
    with pytest.raises(TruncationGuardError):
        evolve_line_sigma(gaussian(alpha=0.25)(nodes), np.ones(len(nodes) - 1), nodes, 2.0, EvolutionConfig(dt=1e-2))


def test_line_guard_disabled_lets_run_finish():
    nodes = line_grid(8.0, 8.0, 0.05)
    u0 = gaussian(alpha=0.25)(nodes)
    cfg = EvolutionConfig(dt=1e-2, boundary_guard=None)
    u1 = evolve_line_sigma(u0, np.ones(len(nodes) - 1), nodes, 2.0, cfg)
    assert u1.shape == nodes.shape and np.all(np.isfinite(u1))
    assert np.max(np.abs(u1[np.abs(nodes) >= 0.8 * 8.0])) > 1e-2  # the wavefront is in the cut
