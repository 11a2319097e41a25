import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import sliding_window_view

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
    invert_E,
    kirchhoff_residual,
    line_grid,
    read_checkpoint,
    reduction_map,
    weighted_l2_norm,
    solve_line,
    write_checkpoint,
)
from graphlse import evolution
from graphlse.evolution import (
    _assemble,
    _cayley_stepper,
    _chain_cells,
    _chain_rows,
    _factor_chains,
    _guard_tail,
    _margin,
    _pack_graph,
    _pack_state,
    _sweep,
    _ztbsv,
)
from test_acceptance import c08_tree_state


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
    assert res.flux <= 10.0 * grid.h


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
    with pytest.raises(ValueError, match="discontinuous"):  # the vertex path, which the star bypasses
        evolution._evolve_graph(st, 0.1, EvolutionConfig(dt=1e-2), None, None, vertex_path=True)


def test_dt_must_divide_t_final(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    with pytest.raises(ValueError, match="integer multiple"):
        evolve_graph(st, 0.35, EvolutionConfig(dt=0.1))


@pytest.mark.parametrize("t_final", [math.inf, -math.inf, math.nan])
def test_non_finite_t_final_rejected(star3, t_final):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    with pytest.raises(ValueError, match="finite"):
        evolve_graph(st, t_final, EvolutionConfig(dt=1e-2))
    nodes = line_grid(8.0, 8.0, 0.05)
    with pytest.raises(ValueError, match="finite"):
        evolve_line_sigma(np.exp(-(nodes**2)), np.ones(len(nodes) - 1), nodes, t_final, EvolutionConfig(dt=1e-2))


@pytest.mark.parametrize(
    "bad",
    [
        {"dt": math.inf},
        {"dt": math.nan},
        {"dt": 0.0},
        {"dt": 1e-2, "guard_tol": math.nan},  # would switch the guard off
        {"dt": 1e-2, "guard_tol": -1e-6},
        {"dt": 1e-2, "guard_tol": math.inf},
    ],
)
def test_evolution_config_rejects_bad_numbers(bad):
    with pytest.raises(ValueError):
        EvolutionConfig(**bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_line_data_rejected(bad):
    # the window would find no value above a NaN or infinite cut and return zeros
    nodes = line_grid(8.0, 8.0, 0.05)
    u0 = np.where(nodes > 1.0, bad, np.exp(-(nodes**2)))
    with pytest.raises(ValueError, match="NaN or infinity"):
        evolve_line_sigma(u0, np.ones(len(nodes) - 1), nodes, 0.1, EvolutionConfig(dt=1e-2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_line_grid_and_sigma_rejected(bad):
    # a NaN node passes the strictly-increasing check, and a NaN or infinite
    # sigma the positivity check; both ran to NaN results with only warnings
    nodes = line_grid(8.0, 8.0, 0.05)
    u0 = np.exp(-(nodes**2))
    cfg = EvolutionConfig(dt=1e-2)
    bad_nodes = nodes.copy()
    bad_nodes[100] = bad
    with pytest.raises(ValueError, match="nodes must be finite"):
        evolve_line_sigma(u0, np.ones(len(nodes) - 1), bad_nodes, 0.1, cfg)
    sigma = np.ones(len(nodes) - 1)
    sigma[100] = bad
    with pytest.raises(ValueError, match="sigma must be finite"):
        evolve_line_sigma(u0, sigma, nodes, 0.1, cfg)


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


def uneven_star(lengths=(40.0, 40.0, 39.0), h=0.05):
    """A star whose rays are cut at different lengths, so that it takes the vertex path."""
    edges = tuple(Edge(0, None, math.inf) for _ in lengths)
    return MetricGraph((0,), edges), GraphGrid(h, tuple(lengths))


def counted_potential():
    """A static real potential that records the time of every call."""
    calls = []

    def V1(t, x):
        calls.append(t)
        return np.cos(x) / (1 + x**2)

    return V1, calls


def test_static_potential_sampled_once_per_edge():
    graph, grid = uneven_star()
    st = GraphState.sample(graph, grid, gaussian())
    V1, calls = counted_potential()
    V2 = lambda t, x: 0.1 * t + 0.0 * x
    for v2 in (None, V2):
        assert not evolution._star_modes(st, V1, v2)
        calls.clear()
        evolve_graph_potential(st, V1, v2, 0.1, EvolutionConfig(dt=1e-2))
        assert len(calls) == graph.n_edges


def test_static_potential_sampled_once_on_a_star(star3):
    # the mode path samples the shared ray once and tiles its phase across the chains
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    V1, calls = counted_potential()
    V2 = lambda t, x: 0.1 * t + 0.0 * x
    for v2 in (None, V2):
        assert evolution._star_modes(st, V1, v2)
        calls.clear()
        evolve_graph_potential(st, V1, v2, 0.1, EvolutionConfig(dt=1e-2))
        assert len(calls) == 1


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
    sig = PiecewiseCoefficient((1.0, 2.0), l=1.0)
    assert sig.sigma_minus == 1.0
    assert sig.sigma_plus == 0.25
    np.testing.assert_allclose(sig.breakpoints(), [0.0])
    np.testing.assert_allclose(sig.sigma_at(np.array([-1.0, 0.5])), [1.0, 0.25])
    assert sig == PiecewiseCoefficient([1, 2])  # positional (values, spacing), floats stored
    # one layout: I_k holds a_k^{-2}, and the breakpoints are the finite ends of the I_k
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        sig = PiecewiseCoefficient(rng.uniform(0.3, 3.0, size=n), float(rng.uniform(0.2, 2.0)))
        ends = [sig.interval(k) for k in range(1, n + 1)]
        assert ends[0][0] == -math.inf and ends[-1][1] == math.inf
        assert all(hi == lo for (_, hi), (lo, _) in zip(ends[:-1], ends[1:]))
        np.testing.assert_array_equal(sig.breakpoints(), [hi for _, hi in ends[:-1]])
        # midpoints, with the outer half-lines cut to one spacing
        mids = [(max(lo, -sig.l) + min(hi, (n - 1) * sig.l)) / 2 for lo, hi in ends]
        np.testing.assert_array_equal(sig.sigma_at(np.array(mids)), np.array(sig.a) ** -2.0)
    with pytest.raises(ValueError, match="layer index"):
        sig.interval(0)
    with pytest.raises(TypeError):
        PiecewiseCoefficient((1.0, 2.0), 1.0, gamma=(0.5,))  # jump data are derived, not passed
    for bad in (((1.0, -2.0), 1.0), ((1.0, 0.0), 1.0), ((1.0, 2.0), 0.0), ((1.0, 2.0), -1.0), ((), 1.0)):
        with pytest.raises(ValueError):
            PiecewiseCoefficient(*bad)


def test_constant_sigma_equals_free_evolution():
    nodes = line_grid(40.0, 40.0, 0.02)
    sig = PiecewiseCoefficient((1.0, 1.0, 1.0), l=1.0)
    u0 = gaussian(alpha=0.5)(nodes)
    cfg = EvolutionConfig(dt=1e-3)
    a = evolve_line_sigma(u0, sig, nodes, 0.5, cfg)
    b = evolve_line_sigma(u0, np.ones(len(nodes) - 1), nodes, 0.5, cfg)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_line_sigma_norm_preserved_1000_steps():
    nodes = line_grid(40.0, 40.0, 0.02)
    sig = PiecewiseCoefficient((1.0, 2.0), l=1.0)
    u0 = gaussian(alpha=1.0)(nodes)
    u1 = evolve_line_sigma(u0, sig, nodes, 1.0, EvolutionConfig(dt=1e-3))
    n0 = np.sqrt(np.trapezoid(np.abs(u0) ** 2, nodes))
    n1 = np.sqrt(np.trapezoid(np.abs(u1) ** 2, nodes))
    assert abs(n1 - n0) <= 1e-10 * n0


def test_breakpoint_off_grid_rejected():
    nodes = line_grid(40.0, 40.0, 0.02) + 0.007
    sig = PiecewiseCoefficient((1.0, 2.0), l=1.0)
    with pytest.raises(ValueError, match="breakpoint"):
        evolve_line_sigma(np.exp(-nodes**2), sig, nodes, 0.1, EvolutionConfig(dt=1e-2))


def test_discrete_flux_continuity_across_breakpoint():
    # sigma u_x should be continuous across the jump: compare one-sided
    # difference quotients scaled by sigma on both sides of x = 0
    nodes = line_grid(40.0, 40.0, 0.01)
    sig = PiecewiseCoefficient((1.0, 2.0), l=1.0)
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


def test_checkpoint_L_is_the_ray_truncation(tmp_path):
    # the finite generation (50) is longer than the rays' truncation (30)
    graph, grid = build_regular_tree([50.0], [2, 2], 30.0, 0.5)
    path = tmp_path / "ck.csv"
    write_checkpoint(GraphState.sample(graph, grid, gaussian()), path)
    meta, _ = read_checkpoint(path)
    assert meta["L"] == 30.0
    assert math.isnan(meta["dt"])
    # a graph without rays has no truncation length
    segment = MetricGraph((0, 1), (Edge(0, 1, 2.0),)), GraphGrid(0.5, (2.0,))
    write_checkpoint(GraphState.sample(*segment, gaussian()), path)
    assert math.isnan(read_checkpoint(path)[0]["L"])


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


def sparse_form(n_dof, cells):
    """Lumped mass and sparse stiffness K of sum_c w_c |u_i - u_j|^2, apart from the program's assembly."""
    pairs, weights, hs = cells
    i, j = pairs[:, 0], pairs[:, 1]
    mass = np.zeros(n_dof)
    np.add.at(mass, i, hs / 2.0)
    np.add.at(mass, j, hs / 2.0)
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([weights, weights, -weights, -weights])
    return mass, sp.csc_matrix((vals, (rows, cols)), shape=(n_dof, n_dof))


def sparse_A(n_dof, cells, dt, dirichlet):
    """A = iM - dt/2 K with identity Dirichlet rows, as a sparse matrix."""
    mass, K = sparse_form(n_dof, cells)
    keep = np.ones(n_dof)
    keep[dirichlet] = 0.0
    return sp.csr_matrix(sp.diags(keep) @ (sp.diags(1j * mass) - (dt / 2.0) * K) + sp.diags(1.0 - keep))


def superlu_stepper(n_dof, cells, dt, dirichlet):
    """Oracle: (iM - dt/2 K) u' = (iM + dt/2 K) u with identity Dirichlet rows, by SuperLU."""
    mass, K = sparse_form(n_dof, cells)
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


# A system is (n_dof, chains, nv, h): a chain list on n_dof dofs whose
# junctions are the first nv dofs, and its smallest spacing.


def line_system(nodes, cells):
    """The stepped line: one chain, Dirichlet at both ends."""
    dx = np.diff(nodes)
    return len(nodes), [(np.arange(len(nodes)), 0, 0, cells / dx, dx)], 0, float(np.min(dx))


def graph_system(graph, grid):
    n_dof, chains = _pack_graph(graph, grid)
    return n_dof, chains, len(graph.vertices), grid.h


def star_mode_system(n_edges, n, h):
    """The stepped mode chains of a star with n samples a ray, spacing h.

    Chain 0 is the edge mean, whose first row is the vertex (a plain,
    half-mass Neumann row) and whose last is Dirichlet; chains 1..N-1 are
    the differences, Dirichlet at both ends.
    """
    ray = np.arange(n)
    chains = [(ray, None, 0, 1.0 / h, h)] + [(k * n + ray, 0, 0, 1.0 / h, h) for k in range(1, n_edges)]
    return n_edges * n, chains, 0, h


def folded_tree_line():
    graph, grid = build_regular_tree([1.0], [2, 2], 4.0, 0.05)
    state = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    folded = fold_to_line(averaged_sums(state), reduction_map(graph))
    return folded.nodes, folded.cell_sigma


def mixed_graph():
    """A triangle 0-1-2, a loop at 1, a three-sample loop at 0, a two-sample edge 0-2,
    a ray at 0 and a two-sample ray at 2."""
    h = 0.05
    edges = (
        Edge(0, 1, 1.0),
        Edge(1, 2, 0.5),
        Edge(2, 0, 0.75),
        Edge(1, 1, 1.0),
        Edge(0, 0, 2 * h),
        Edge(0, 2, h),
        Edge(0, None, math.inf),
        Edge(2, None, math.inf),
    )
    lengths = (1.0, 0.5, 0.75, 1.0, 2 * h, h, 3.0, h)
    return MetricGraph((0, 1, 2), edges), GraphGrid(h, lengths)


def vertices_only_graph():
    """A triangle and a loop, every edge with two samples: no chain at all."""
    h = 0.05
    edges = (Edge(0, 1, h), Edge(1, 2, h), Edge(2, 0, h), Edge(1, 1, h))
    return MetricGraph((0, 1, 2), edges), GraphGrid(h, (h,) * 4)


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
    n_dof, chains, nv, h = CORE_CASES[case]()
    cells, dirichlet = _chain_cells(chains, nv)
    dt = dt_over_h * h
    rng = np.random.default_rng(7)
    u0 = rng.normal(size=n_dof) + 1j * rng.normal(size=n_dof)
    new, old = _cayley_stepper(n_dof, chains, nv, dt), superlu_stepper(n_dof, cells, dt, dirichlet)
    u, v = new(u0, 200), u0
    for _ in range(200):
        v = old(v)
    assert np.max(np.abs(u - v)) <= 1e-12 * np.max(np.abs(v))
    np.testing.assert_array_equal(u[dirichlet], u0[dirichlet])


def localized(graph, grid, fns):
    """Graph system with data ``fns`` (one callable per edge) packed on its dofs."""
    system = graph_system(graph, grid)
    u0 = _pack_state(GraphState.sample(graph, grid, fns), _pack_graph(graph, grid))
    return system, u0


def narrow(center=0.0, alpha=25.0):
    """A complex Gaussian bump of width about 0.2."""
    return lambda x: np.exp(-alpha * (np.asarray(x) - center) ** 2) * (1.0 + 0.5j * np.asarray(x))


def quiet(x):
    return np.zeros_like(np.asarray(x), dtype=complex)


def line_121_gaussian():
    nodes = line_grid(40.0, 40.0, 0.02)
    sigma = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    cells = sigma.sigma_at(0.5 * (nodes[:-1] + nodes[1:]))
    return line_system(nodes, cells), narrow(-3.0)(nodes)


def star_modes(graph, grid, fns):
    """The star's mode system (N plain chains, nv = 0) with data ``fns`` packed as its modes."""
    modes = evolution._mode_system(GraphState.sample(graph, grid, fns), 1e-3)[1]
    return star_mode_system(graph.n_edges, grid.counts[0], grid.h), modes


def tilted(k):
    """The bump ``narrow()`` tilted along the edge by k, the same at the vertex for every k."""
    return lambda x: narrow()(x) * (1.0 + 0.4 * k * np.asarray(x))


# (graph, grid, one callable per edge): vertex systems whose data has not reached a vertex
VERTEX_WINDOW_CASES = {
    "star3-far-bump": lambda: (*build_star(3, 10.0, 0.05), [narrow(4.0), quiet, quiet]),
    "tree-leaf-ray": lambda: (*build_regular_tree([1.0], [2, 2], 6.0, 0.05), [quiet] * 3 + [narrow(2.5)] + [quiet] * 2),
}

# Localized data, so that a step solves a narrow window of the chain rows.
WINDOW_CASES = {
    "line-121-gaussian": line_121_gaussian,
    "star3-vertex-data": lambda: localized(*build_star(3, 10.0, 0.05), narrow()),
    "star3-far-bump": lambda: localized(*VERTEX_WINDOW_CASES["star3-far-bump"]()),
    "tree-leaf-ray": lambda: localized(*VERTEX_WINDOW_CASES["tree-leaf-ray"]()),
    # the vertex is the first row of the mean chain, so data there starts its window at row 0
    "star3-modes-vertex-data": lambda: star_modes(*build_star(3, 10.0, 0.05), narrow()),
    "star3-modes-tilted-vertex-data": lambda: star_modes(*build_star(3, 10.0, 0.05), [tilted(k) for k in range(3)]),
}


# Windowed runs are checked after 1, 2, 17 and all steps.
RUN_LENGTHS = (1, 2, 17, 200)


def swept_dofs(step, n_dof):
    """The dofs that one step of ``sweep_spy`` swept, as a mask."""
    swept = np.zeros(n_dof, dtype=bool)
    for off, rows in step:
        swept[off : off + rows] = True
    return swept


def swept_rows(step):
    return sum(rows for _, rows in step)


@pytest.mark.parametrize("dt_over_h", [0.02, -0.02])
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_windowed_core_matches_superlu_oracle_on_localized_data(case, dt_over_h, sweep_spy):
    (n_dof, chains, nv, h), u0 = WINDOW_CASES[case]()
    cells, dirichlet = _chain_cells(chains, nv)
    dt = dt_over_h * h
    new, old = _cayley_stepper(n_dof, chains, nv, dt), superlu_stepper(n_dof, cells, dt, dirichlet)
    v, done = u0, 0
    for nsteps in RUN_LENGTHS:
        for _ in range(nsteps - done):
            v = old(v)
        done = nsteps
        assert np.max(np.abs(new(u0, nsteps) - v)) <= 1e-12 * np.max(np.abs(v))
    assert len(sweep_spy) == sum(RUN_LENGTHS)
    assert 0 < swept_rows(sweep_spy[0]) < n_dof - nv  # the first step already swept fewer rows than this


@pytest.mark.parametrize("case", sorted(VERTEX_WINDOW_CASES))
def test_vertex_window_holds_the_rows_next_to_every_vertex(case, sweep_spy):
    # from the first step on, every chain's m rows next to a vertex are in the
    # window, quiet chains included, so that E x_V never falls outside it
    graph, grid, fns = VERTEX_WINDOW_CASES[case]()
    (n_dof, chains, nv, h), u0 = localized(graph, grid, fns)
    cells, dirichlet = _chain_cells(chains, nv)
    dt = 0.02 * h
    m = _margin(_factor_chains(*_assemble(n_dof, cells, dt, dirichlet, nv)[1]), dirichlet[dirichlet >= nv] - nv)
    _cayley_stepper(n_dof, chains, nv, dt)(u0, 1)
    (step,) = sweep_spy
    swept = swept_dofs(step, n_dof)
    assert 0 < swept_rows(step) < n_dof - nv
    for dofs, *_ in chains:  # one chain per edge
        rows = dofs[dofs >= nv]
        for at_vertex, next_to in ((dofs[0] < nv, rows[:m]), (dofs[-1] < nv, rows[-m:])):
            if at_vertex:
                assert np.all(swept[next_to])


@pytest.mark.parametrize("case", ["star3-vertex-data", "tree-leaf-ray", "star3-modes-vertex-data"])
def test_rows_outside_the_window_stay_exactly_zero(case, sweep_spy):
    # after one step, the exact zeros of the state are the chain rows that the step did not sweep
    (n_dof, chains, nv, h), u0 = WINDOW_CASES[case]()
    u = _cayley_stepper(n_dof, chains, nv, 0.02 * h)(u0, 1)
    (step,) = sweep_spy
    swept = swept_dofs(step, n_dof)
    swept[:nv] = True  # the vertex rows
    assert not np.all(swept)
    np.testing.assert_array_equal(u == 0, ~swept)


@pytest.mark.parametrize("case", ["star3", "tree", "cycle-loop-short-edge"])
def test_chain_rows_solve_each_vertex_chain_pair_once_on_its_chain(case):
    # W diag(p) = F (LU)^{-1}: one transposed solve per (vertex, chain) pair,
    # in sorted order, on that chain's rows alone
    from scipy.linalg.blas import ztbsv

    n_dof, chains, nv, h = CORE_CASES[case]()
    cells, dirichlet = _chain_cells(chains, nv)
    c, bands, D, F, E = _assemble(n_dof, cells, 1e-3, dirichlet, nv)
    factors = _factor_chains(*bands)
    n_rows = len(factors[1])
    breaks = (np.flatnonzero((bands[0] == 0) & (bands[2] == 0)) + 1).tolist()
    first, stop = [0] + breaks, breaks + [n_rows]
    calls = []

    def solve_t(w, a, b):
        calls.append((a, b, len(w)))
        return _sweep(ztbsv, tuple(f[..., a:b] for f in factors), w, trans=1)

    rows, cols, vals = _chain_rows(F, nv, first, stop, solve_t)
    chain = np.searchsorted(first, F[1] - nv, side="right") - 1
    pairs = sorted(set(zip(F[0].tolist(), chain.tolist())))
    assert [(a, b) for a, b, _ in calls] == [(first[k], stop[k]) for _, k in pairs]
    assert all(n == b - a for a, b, n in calls)
    key = rows * n_dof + cols
    assert np.all(np.diff(key) > 0)  # sorted by row, then column, no repeats
    lower, rp, upper = factors
    LU = (np.eye(n_rows) + np.diag(lower[1, :-1], -1)) @ (np.eye(n_rows) + np.diag(upper[0, 1:], 1))
    F_dense = np.zeros((nv, n_rows), dtype=complex)
    np.add.at(F_dense, (F[0], F[1] - nv), F[2])
    want = F_dense @ np.linalg.inv(LU)
    got = np.zeros_like(want)
    got[rows, cols - nv] = vals
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("trans", [0, 1])
def test_positional_sweep_equals_keyword_sweep(trans):
    # _sweep calls ztbsv positionally; the keyword call is the oracle, bit for bit
    n_dof, chains, nv, h = CORE_CASES["tree"]()
    cells, dirichlet = _chain_cells(chains, nv)
    factors = _factor_chains(*_assemble(n_dof, cells, 1e-3, dirichlet, nv)[1])
    lower, rp, upper = factors
    ztbsv = _ztbsv()
    off = 7
    x = np.zeros(off + len(rp) + 3, dtype=complex)
    x[off:-3] = np.random.default_rng(5).standard_normal((len(rp), 2)) @ [1.0, 1j]
    want = x.copy()
    first, second = (upper, lower) if trans else (lower, upper)
    want = ztbsv(1, first, want, offx=off, lower=1 - trans, trans=trans, diag=1, overwrite_x=1)
    want = ztbsv(1, second, want, offx=off, lower=trans, trans=trans, diag=1, overwrite_x=1)
    got = _sweep(ztbsv, factors, x.copy(), off, trans)
    assert got.tobytes() == want.tobytes()
    assert not np.array_equal(got[off:-3], x[off:-3])


@pytest.mark.parametrize(
    "V2",
    [
        lambda t, x: (0.3 + t) * np.cos(x) + 0.5j * np.exp(-(x**2)),
        lambda t, x: 500j + 0.0 * x,  # damps the state by e^-100, far below eps^2
    ],
    ids=["mixed", "absorbing"],
)
def test_windowed_core_matches_superlu_oracle_with_complex_v2(monkeypatch, V2, sweep_spy):
    # the window travels through the dynamic-potential run: the same run with
    # the SuperLU step in place of the Cayley core is the oracle
    graph, grid = uneven_star((10.0, 10.0, 9.0))
    st = GraphState.sample(graph, grid, [narrow(3.0), quiet, quiet])
    assert not evolution._star_modes(st, None, V2)
    cfg = EvolutionConfig(dt=1e-3, boundary_guard=None)

    def oracle(n_dof, chains, nv, dt):
        cells, dirichlet = _chain_cells(chains, nv)
        step = superlu_stepper(n_dof, cells, dt, dirichlet)

        def run(u, nsteps, phase):
            u = phase(0) * u
            for k in range(1, nsteps + 1):
                u = phase(k) * step(u)
            return u

        return run

    got = [evolve_graph_potential(st, None, V2, nsteps * cfg.dt, cfg) for nsteps in RUN_LENGTHS]
    monkeypatch.setattr(evolution, "_cayley_stepper", oracle)
    want = [evolve_graph_potential(st, None, V2, nsteps * cfg.dt, cfg) for nsteps in RUN_LENGTHS]
    for a, b in zip(got, want):
        scale = max(np.max(np.abs(w)) for w in b.values)
        for e in range(3):
            assert np.max(np.abs(a.values[e] - b.values[e])) <= 1e-12 * scale
    assert len(sweep_spy) == sum(RUN_LENGTHS)
    assert swept_rows(sweep_spy[0]) < _pack_graph(graph, grid)[0] - len(graph.vertices)


def test_windowed_line_run_holds_no_subnormals():
    # c07's line, data and step: a full sweep lets the far field decay row by
    # row through the subnormal range (161 parts at step 10, 98 at step 200)
    nodes = line_grid(40.0, 40.0, 0.02)
    u0 = np.exp(-((nodes + 3.0) ** 2))
    u = evolve_line_sigma(u0, PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0), nodes, 0.1, EvolutionConfig(dt=5e-4))
    parts = np.abs(u.view(float))
    assert np.all((parts == 0) | (parts >= np.finfo(float).tiny))


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_assembled_blocks_match_sparse_form(case):
    n_dof, chains, nv, h = CORE_CASES[case]()
    cells, dirichlet = _chain_cells(chains, nv)
    dt = -10.0 * h
    A = sparse_A(n_dof, cells, dt, dirichlet).toarray()
    mass, _ = sparse_form(n_dof, cells)
    c, (sub, diag, sup), D, F, E = _assemble(n_dof, cells, dt, dirichlet, nv)
    tol = 1e-14 * np.max(np.abs(A))
    np.testing.assert_array_equal(c, np.where(np.isin(np.arange(n_dof), dirichlet), 2.0, 2j * mass))
    T = A[nv:, nv:]
    for band, k in ((sub, -1), (diag, 0), (sup, 1)):
        np.testing.assert_allclose(band, np.diagonal(T, k), rtol=0, atol=tol)
    np.testing.assert_allclose(D, A[:nv, :nv], rtol=0, atol=tol)
    for (rows, cols, vals), block in ((F, np.s_[:nv, nv:]), (E, np.s_[nv:, :nv])):
        assert np.all(vals != 0)
        got, want = np.zeros_like(A), np.zeros_like(A)
        np.add.at(got, (rows, cols), vals)
        want[block] = A[block]
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def c07_line():
    nodes = line_grid(40.0, 40.0, 0.02)
    return line_system(nodes, PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0).sigma_at(0.5 * (nodes[:-1] + nodes[1:])))


def fine_two_layer_line():
    nodes = line_grid(40.0, 40.0, 0.0125)
    return line_system(nodes, PiecewiseCoefficient((1.0, 2.0), 1.0).sigma_at(0.5 * (nodes[:-1] + nodes[1:])))


def sharpness_star_modes():
    h = 0.0125
    return star_mode_system(3, round(10.0 / h) + 1, h)


# (system, dt): c07's line, the two-layer line and the three-ray mode system
# on the sharpness configs' grid, and the tree of reduce-tree
MARGIN_CASES = {
    "c07-line": (c07_line, 5e-4),
    "line-12-h0.0125": (fine_two_layer_line, 5e-4),
    "star3-modes-h0.0125": (sharpness_star_modes, 5e-4),
    "tree-1-22": (lambda: graph_system(*build_regular_tree([1.0], [2, 2], 8.0, 0.05)), 1e-3),
}


@pytest.mark.parametrize("case", sorted(MARGIN_CASES))
def test_margin_is_the_fewest_rows_whose_coupling_runs_reach_eps2(case):
    make, dt = MARGIN_CASES[case]
    n_dof, chains, nv, h = make()
    cells, dirichlet = _chain_cells(chains, nv)
    factors = _factor_chains(*_assemble(n_dof, cells, dt, dirichlet, nv)[1])
    lower, rp, upper = factors
    chain_dirichlet = dirichlet[dirichlet >= nv] - nv
    m = _margin(factors, chain_dirichlet)
    # the couplings of T = L0 diag(p) U, L0 = diag(p) L diag(1/p); those out of Dirichlet rows are left out
    coupling_l = np.abs(lower[1, :-1] * rp[:-1] / rp[1:])
    coupling_l[chain_dirichlet[chain_dirichlet < len(coupling_l)]] = 0.0
    coupling_u = np.abs(upper[0, 1:])
    eps2 = np.finfo(float).eps ** 2
    runs = lambda a, k: np.prod(sliding_window_view(a, k), axis=1)
    assert all(np.all(runs(a, m) <= eps2) for a in (coupling_l, coupling_u))
    assert any(np.any(runs(a, m - 1) > eps2) for a in (coupling_l, coupling_u))
    # never more rows than the rule from the largest coupling q
    q = max(np.max(coupling_l), np.max(coupling_u))
    assert 0 < q < 1 and m <= math.ceil(math.log(eps2) / math.log(q))


@pytest.mark.parametrize("case", sorted(set(CORE_CASES) - {"vertices-only"}))
def test_chain_factor_is_unit_banded_and_certified(case):
    n_dof, chains, nv, h = CORE_CASES[case]()
    dt = -10.0 * h
    cells, dirichlet = _chain_cells(chains, nv)
    T = sparse_A(n_dof, cells, dt, dirichlet)[nv:, nv:]
    # the certificate: strict row diagonal dominance of every chain row
    off = np.abs(T).sum(axis=1).A1 - np.abs(T.diagonal())
    assert np.all(np.abs(T.diagonal()) > off)
    assert sp.triu(T, 2).nnz == 0 and sp.tril(T, -2).nnz == 0
    lower, rp, upper = _factor_chains(T.diagonal(-1), T.diagonal(), T.diagonal(1))
    assert lower.flags.f_contiguous and upper.flags.f_contiguous
    np.testing.assert_array_equal(lower[0], 1.0)
    np.testing.assert_array_equal(upper[1], 1.0)
    assert np.all(np.isfinite(rp)) and np.all(rp != 0)
    m = len(rp)
    L = sp.eye(m) + sp.diags(lower[1, :-1], -1, shape=(m, m))
    U = sp.eye(m) + sp.diags(upper[0, 1:], 1, shape=(m, m))
    DLU = (sp.diags(1.0 / rp) @ L @ U).toarray()
    np.testing.assert_allclose(DLU, T.toarray(), rtol=0, atol=1e-12 * np.max(np.abs(T.data), initial=0.0))


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


def two_half_steps_a_step(state, V1, V2, t_final, cfg, system):
    """The oracle of the merged half-steps: one sampled phase half-step on each side of every Cayley step."""
    dt = math.copysign(cfg.dt, t_final - state.time)
    build, u, sample, spread, unpack, _ = system(state, dt)
    v1 = sample(V1, state.time)
    phase = lambda t: spread(np.exp(1j * (dt / 2.0) * (v1 + sample(V2, t))))
    run, t = build(), state.time
    for _ in range(round(abs(t_final - state.time) / cfg.dt)):
        halves = (phase(t + dt / 4.0), phase(t + 3.0 * dt / 4.0))
        u = run(u, 1, lambda k: halves[k])  # a run of one step: a half-step before it, one after
        t += dt
    return unpack(u)


# (graph, the system its runs with an edge-independent potential step)
MERGE_CASES = {
    "star3-modes": (lambda: build_star(3, 10.0, 0.05), evolution._mode_system),
    "tree-vertex-system": (lambda: build_regular_tree([1.0], [2, 2], 6.0, 0.05), evolution._vertex_system),
}


@pytest.mark.parametrize("t_final", [0.2, -0.2])
@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_merged_dynamic_half_steps_match_two_half_steps_a_step(case, t_final):
    # a dynamic V2 multiplies once between steps, by its two half-steps' product
    make, system = MERGE_CASES[case]
    st = random_graph_data(*make())
    # period 1 in x, so that both agree at the tree's vertices (edge ends x = 0 and 1)
    V1 = lambda t, x: np.cos(2.0 * np.pi * x)
    V2 = lambda t, x: (0.3 + t) * np.cos(2.0 * np.pi * x) + 0.5j * np.cos(np.pi * x) ** 2
    assert evolution._star_modes(st, V1, V2) == (system is evolution._mode_system)
    cfg = EvolutionConfig(dt=1e-3, boundary_guard=None)
    got = evolve_graph_potential(st, V1, V2, t_final, cfg)
    want = two_half_steps_a_step(st, V1, V2, t_final, cfg, system)
    scale = max(np.max(np.abs(w)) for w in want)
    for a, b in zip(got.values, want):
        assert np.max(np.abs(a - b)) <= 1e-13 * scale


def test_chain_cells_are_the_grid_cells_of_every_chain():
    graph, grid = mixed_graph()
    n_dof, chains = _pack_graph(graph, grid)
    nv = len(graph.vertices)
    assert [(a, b) for _, a, b, _, _ in chains] == [(e.initial, nv if e.infinite else e.terminal) for e in graph.edges]
    (pairs, weights, hs), dirichlet = _chain_cells(chains, nv)
    assert len(pairs) == sum(n - 1 for n in grid.counts)
    np.testing.assert_array_equal(np.unique(pairs), np.arange(n_dof))  # every dof is in a cell
    assert np.all(weights == 1.0 / grid.h) and np.all(hs == grid.h)
    rays = [dofs[-1] for (dofs, *_), e in zip(chains, graph.edges) if e.infinite]
    np.testing.assert_array_equal(dirichlet, sorted(rays))
    # the mean's vertex row, marked None, is a plain row: only the far ends are Dirichlet
    n = 9
    _, chains, nv, _ = star_mode_system(3, n, 0.1)
    np.testing.assert_array_equal(_chain_cells(chains, nv)[1], [n - 1, n, 2 * n - 1, 2 * n, 3 * n - 1])


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


# ---------------------------------------------------------------------------
# the star's mode system against the vertex system
# ---------------------------------------------------------------------------


def symmetric(n_edges):
    """The same data on every edge."""
    return gaussian(alpha=0.8, chirp=0.3)


def asymmetric(n_edges):
    """Different data on every edge, continuous at the vertex."""
    return [
        lambda x, k=k: np.exp(-(x**2)) * (1.0 + 0.3j * k * x) + k * x**2 * np.exp(-4.0 * (x - 2.0) ** 2)
        for k in range(n_edges)
    ]


MODE_CASES = {
    "symmetric": (symmetric, None, None, 0.3),
    "asymmetric": (asymmetric, None, None, 0.3),
    "static-v1": (asymmetric, lambda t, x: np.cos(x) / (1 + x**2), None, 0.3),
    "complex-v2": (asymmetric, None, lambda t, x: (0.3 + t) * np.cos(x) + 0.5j * np.exp(-(x**2)), 0.3),
    "backwards": (asymmetric, lambda t, x: np.cos(x) / (1 + x**2), None, -0.3),
}


@pytest.mark.parametrize("n_edges", [2, 3, 5])
@pytest.mark.parametrize("case", sorted(MODE_CASES))
def test_star_modes_match_vertex_path(case, n_edges):
    data, V1, V2, t_final = MODE_CASES[case]
    graph, grid = build_star(n_edges, 12.0, 0.05)
    st = GraphState.sample(graph, grid, data(n_edges))
    cfg = EvolutionConfig(dt=1e-3)
    assert evolution._star_modes(st, V1, V2)
    got = evolve_graph_potential(st, V1, V2, t_final, cfg)
    want = evolution._evolve_graph(st, t_final, cfg, V1, V2, vertex_path=True)
    assert got.time == want.time == t_final
    scale = max(np.max(np.abs(w)) for w in want.values)
    for e in range(n_edges):
        assert np.max(np.abs(got.values[e] - want.values[e])) <= 1e-12 * scale
    if data is symmetric:  # bit-identical edges in, bit-identical edges out
        assert all(v.tobytes() == got.values[0].tobytes() for v in got.values)


def test_symmetric_star_sweeps_only_the_mean_chain(monkeypatch, star3, sweep_spy):
    graph, grid = star3
    st = GraphState.sample(graph, grid, symmetric(3))

    def unbuilt(*args):
        raise AssertionError("a free star run built a Cayley stepper")

    monkeypatch.setattr(evolution, "_cayley_stepper", unbuilt)
    evolve_graph(st, 0.2, EvolutionConfig(dt=1e-3))  # the free run propagates its modes in a sine basis
    monkeypatch.setattr(evolution, "_cayley_stepper", _cayley_stepper)
    V2 = lambda t, x: 0.2 * np.cos(x) + 0.0 * t
    evolve_graph_potential(st, None, V2, 0.2, EvolutionConfig(dt=1e-3))
    assert len(sweep_spy) == 200
    # one sweep a step, on rows of the mean chain (vertex row first) alone
    assert all(len(step) == 1 and step[0][0] == 0 and 0 < step[0][1] <= grid.counts[0] - 1 for step in sweep_spy)


def test_mode_path_steps_plain_chains(monkeypatch, star3):
    # the modes are N chains with no vertex dof; the vertex system keeps its vertex
    graph, grid = star3
    st = GraphState.sample(graph, grid, asymmetric(3))
    built = []

    def spy(n_dof, chains, nv, dt):
        built.append((n_dof, nv))
        return _cayley_stepper(n_dof, chains, nv, dt)

    monkeypatch.setattr(evolution, "_cayley_stepper", spy)
    cfg = EvolutionConfig(dt=1e-3)
    V1 = lambda t, x: np.cos(x)  # a free run would build no stepper at all
    evolve_graph_potential(st, V1, None, 0.01, cfg)
    evolution._evolve_graph(st, 0.01, cfg, V1, None, vertex_path=True)
    assert built == [(3 * grid.counts[0], 0), (_pack_graph(graph, grid)[0], 1)]


def mode_free_run(n_edges, n, h, dt):
    """The ``free(u, nsteps)`` of the mode system of a star with n samples a ray, spacing h."""
    graph, grid = build_regular_tree((), (n_edges,), (n - 1) * h, h)  # build_star refuses L/h < 16
    assert grid.counts == (n,) * n_edges
    return evolution._mode_system(GraphState.sample(graph, grid, gaussian()), dt)[5]


@pytest.mark.parametrize("dt", [0.02, -0.02, 1.0, -1.0])
@pytest.mark.parametrize("n_edges, n, nsteps", [(2, 9, 40), (3, 12, 120), (4, 7, 200)])
def test_star_free_run_matches_dense_cayley_power(n_edges, n, nsteps, dt):
    # all nsteps free steps of the mode chains at once, against the nsteps-th
    # power of the dense Cayley step, on random data with nonzero Dirichlet
    # values, at dt/h = 0.2 and 10
    h = 0.1
    n_dof, chains, nv, _ = star_mode_system(n_edges, n, h)
    cells, dirichlet = _chain_cells(chains, nv)
    mass, K = sparse_form(n_dof, cells)
    A = 1j * np.diag(mass) - (dt / 2.0) * K.toarray()
    B = 1j * np.diag(mass) + (dt / 2.0) * K.toarray()
    A[dirichlet], B[dirichlet] = 0.0, 0.0
    A[dirichlet, dirichlet] = B[dirichlet, dirichlet] = 1.0
    rng = np.random.default_rng(n_edges)
    u0 = rng.normal(size=n_dof) + 1j * rng.normal(size=n_dof)
    assert np.all(np.abs(u0[dirichlet]) > 0)
    want = np.linalg.matrix_power(np.linalg.solve(A, B), nsteps) @ u0
    got = mode_free_run(n_edges, n, h, dt)(u0, nsteps)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_array_equal(got[dirichlet], u0[dirichlet])


def test_star_free_run_zero_steps_return_the_input():
    rng = np.random.default_rng(3)
    modes = rng.normal(size=33) + 1j * rng.normal(size=33)
    assert mode_free_run(3, 11, 0.1, 0.02)(modes, 0).tobytes() == modes.tobytes()


@pytest.mark.parametrize("dt", [0.02, 1.0])
def test_free_chains_write_back_the_later_sample_of_a_repeated_dof(dt):
    # the star mean's reflected chain lists dofs 1..n-1 twice; its run writes
    # back the right half, bit for bit that of the same chain on distinct dofs
    n, h = 11, 0.1
    rng = np.random.default_rng(5)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    reflected = np.r_[n - 1 : 0 : -1, 0:n]
    got = evolution._free_chains(u, [(reflected, 0, 0, 1.0 / h, h)], 0, dt, 50)
    wide = evolution._free_chains(u[reflected], [(np.arange(2 * n - 1), 0, 0, 1.0 / h, h)], 0, dt, 50)
    assert got.tobytes() == wide[n - 1 :].tobytes()


def test_free_star_runs_its_modes_as_chains_with_no_junction(monkeypatch, star3):
    # p = 0: no junction recurrence (_series_inverse), no junction response
    # (_power_sums) and no stepper
    graph, grid = star3
    st = GraphState.sample(graph, grid, asymmetric(3))
    calls = []
    chains = evolution._free_chains

    def spy(u, chain_list, p, dt, nsteps):
        calls.append((len(u), len(chain_list), p, nsteps))
        return chains(u, chain_list, p, dt, nsteps)

    def forbidden(*args):
        raise AssertionError("a free star run reached junction or stepper code")

    monkeypatch.setattr(evolution, "_free_chains", spy)
    for name in ("_cayley_stepper", "_series_inverse", "_power_sums"):
        monkeypatch.setattr(evolution, name, forbidden)
    evolve_graph(st, 0.2, EvolutionConfig(dt=1e-3))
    evolve_graph(st, -0.2, EvolutionConfig(dt=1e-3))
    assert calls == [(3 * grid.counts[0], 3, 0, 200)] * 2


@pytest.mark.parametrize("vertex_path", [False, True])
def test_numpy_scalar_potentials_are_constants(star3, vertex_path):
    # numpy scalars that do not subclass float or int stand for constants too
    graph, grid = star3
    st = GraphState.sample(graph, grid, asymmetric(3))
    cfg = EvolutionConfig(dt=1e-2)
    for number, same in ((np.float32(0.5), 0.5), (np.int64(1), 1)):
        for static, dynamic in ((number, None), (None, number)):
            got = evolution._evolve_graph(st, 0.1, cfg, static, dynamic, vertex_path)
            want = evolution._evolve_graph(
                st, 0.1, cfg, same if static is not None else None, same if dynamic is not None else None, vertex_path
            )
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got.values, want.values))


@pytest.mark.parametrize("vertex_path", [False, True])
def test_zero_step_runs_with_a_potential_build_no_stepper(monkeypatch, star3, vertex_path):
    graph, grid = star3
    st = GraphState.sample(graph, grid, asymmetric(3), time=0.3)
    cfg = EvolutionConfig(dt=1e-3)
    monkeypatch.setattr(evolution, "_cayley_stepper", unbuilt)
    V1 = lambda t, x: np.cos(x) / (1 + x**2)
    V2 = lambda t, x: (0.3 + t) * np.cos(x) + 0.5j * np.exp(-(x**2))
    for static, dynamic in ((V1, None), (None, V2), (V1, V2)):
        out = evolution._evolve_graph(st, 0.3, cfg, static, dynamic, vertex_path)
        assert out.time == 0.3
        assert all(a.tobytes() == b.tobytes() for a, b in zip(out.values, st.values))
    bad = lambda t, x: np.where(x > 1.0, np.nan, 0.0)  # the static potential is still sampled and checked
    with pytest.raises(ValueError, match="NaN"):
        evolution._evolve_graph(st, 0.3, cfg, bad, None, vertex_path)


@pytest.mark.parametrize("t_final", [1.0, -1.0])
@pytest.mark.parametrize("data", [symmetric, asymmetric])
def test_free_star_norm_drift_at_sharpness_size(data, t_final):
    # the sharpness configs' star grid: 3 x 3201 samples, 2000 steps; a phase
    # factor that is not bit-even in the frequency drifts the symmetric run by 6.9e-15
    graph, grid = build_star(3, 40.0, 0.0125)
    st = GraphState.sample(graph, grid, data(3))
    out = evolve_graph(st, t_final, EvolutionConfig(dt=5e-4))
    n0 = weighted_l2_norm(st)
    assert abs(weighted_l2_norm(out) - n0) <= 2e-15 * n0


def test_unequal_rays_and_per_edge_potentials_take_the_vertex_path(star3):
    graph, grid = star3
    st = GraphState.sample(graph, grid, gaussian())
    V = lambda t, x: np.cos(x) + 0.0 * t
    assert evolution._star_modes(st, V, 0.5)
    assert not evolution._star_modes(st, [V] * 3, None)
    assert not evolution._star_modes(st, None, (V, V, V))
    tree = build_regular_tree([1.0], [2, 2], 8.0, 0.05)
    assert not evolution._star_modes(GraphState.sample(*tree, gaussian()), None, None)
    assert not evolution._star_modes(GraphState.sample(*uneven_star(), gaussian()), None, None)


# ---------------------------------------------------------------------------
# the free line's whole run against the stepped Cayley core
# ---------------------------------------------------------------------------


def line_cells(nodes, values, l=1.0):
    return PiecewiseCoefficient(values, l).sigma_at(0.5 * (nodes[:-1] + nodes[1:]))


def short_layers():
    nodes = line_grid(5.0, 5.0, 0.05)
    cells = np.ones(len(nodes) - 1)
    cells[60] = 3.0  # a one-cell layer: both its nodes are interfaces, with no row between them
    cells[120:122] = 0.5  # a two-cell layer: one row
    return nodes, cells


def two_spacings():
    # test_nonuniform_grid_supported's grid: the spacing and sigma change at 0
    nodes = np.concatenate([np.arange(-30.0, 0.0, 0.05), np.arange(0.0, 30.0 + 0.025, 0.025)])
    return nodes, np.where(0.5 * (nodes[:-1] + nodes[1:]) < 0, 1.0, 0.25)


FREE_LINES = {
    "line-121": lambda: (line_grid(5.0, 5.0, 0.05), line_cells(line_grid(5.0, 5.0, 0.05), (1.0, 2.0, 1.0))),
    "uniform": lambda: (line_grid(5.0, 5.0, 0.05), np.ones(200)),
    "short-layers": short_layers,
    "folded-tree-line": folded_tree_line,
    "two-spacings": two_spacings,
}


def stepped_line(nodes, cells, u0, dt, nsteps):
    """The oracle: nsteps steps of the stepped Cayley core on the line."""
    n_dof, chains, nv, h = line_system(nodes, cells)
    return _cayley_stepper(n_dof, chains, nv, dt)(u0, nsteps)


def unbuilt(*args):
    raise AssertionError("a free line or small free graph built a Cayley stepper")


def random_line_data(n, seed=7):
    u0 = np.random.default_rng(seed).normal(size=(n, 2)) @ [1.0, 1j]
    assert u0[0] != 0 and u0[-1] != 0  # nonzero Dirichlet ends
    return u0


@pytest.mark.parametrize("dt_over_h", [0.02, -0.02, 10.0])
@pytest.mark.parametrize("case", sorted(FREE_LINES))
def test_free_line_matches_stepped_core(monkeypatch, case, dt_over_h):
    nodes, cells = FREE_LINES[case]()
    dt = dt_over_h * float(np.min(np.diff(nodes)))
    u0 = random_line_data(len(nodes))
    want = stepped_line(nodes, cells, u0, dt, 200)
    monkeypatch.setattr(evolution, "_cayley_stepper", unbuilt)
    got = evolve_line_sigma(u0, cells, nodes, 200 * dt, EvolutionConfig(dt=abs(dt), boundary_guard=None))
    assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))
    assert got[0] == u0[0] and got[-1] == u0[-1]


def test_free_line_matches_stepped_core_on_c07():
    nodes = line_grid(40.0, 40.0, 0.02)
    cells = line_cells(nodes, (1.0, 2.0, 1.0))
    u0 = np.exp(-((nodes + 3.0) ** 2)).astype(complex)
    want = stepped_line(nodes, cells, u0, 5e-4, 2000)
    got = evolve_line_sigma(u0, cells, nodes, 1.0, EvolutionConfig(dt=5e-4))
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("extra", [1, 300])
def test_free_line_restarts_at_segment_ends(extra):
    # a run one segment and some steps long restarts from the state at the segment's end
    nodes, cells = FREE_LINES["line-121"]()
    nsteps = evolution._SEGMENT + extra
    u0 = random_line_data(len(nodes), seed=3)
    dt = 1e-3
    want = stepped_line(nodes, cells, u0, dt, nsteps)
    got = evolve_line_sigma(u0, cells, nodes, nsteps * dt, EvolutionConfig(dt=dt, boundary_guard=None))
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


# (columns, terms, blocks of columns): one column and one term; one block;
# two blocks, the last narrow; three blocks of up to 496 columns, the last
# narrow.  37 and 1025 terms are not inner * outer (7 * 6, 33 * 32).
POWER_CASES = [(1, 1, 1), (7, 2, 1), (3000, 37, 2), (1000, 1025, 3)]


@pytest.mark.parametrize("ncols, nterms, nblocks", POWER_CASES)
def test_power_helpers_match_direct_powers(ncols, nterms, nblocks):
    rng = np.random.default_rng(ncols + nterms)
    mu = np.exp(1j * rng.uniform(-np.pi, np.pi, ncols))
    weights = rng.normal(size=ncols) + 1j * rng.normal(size=ncols)
    coeffs = rng.normal(size=nterms) + 1j * rng.normal(size=nterms)
    # long double: a double mu ** r for r >= 100 is off by about r eps
    direct = mu.astype(np.clongdouble)[None, :] ** np.arange(nterms)[:, None]
    work = np.empty(3 * evolution._BLOCK, dtype=complex)
    for call, want in (
        (lambda: evolution._power_sums(mu, weights, nterms, work), direct @ weights),
        (lambda: evolution._power_poly(mu, coeffs, work), coeffs @ direct),
    ):
        work[:] = np.nan  # a read of an entry the call did not write shows as NaN
        want = want.astype(complex)
        assert np.max(np.abs(call() - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("ncols, nterms, nblocks", POWER_CASES)
def test_power_blocks_are_views_into_the_workspace(ncols, nterms, nblocks):
    mu = np.exp(1j * np.linspace(0.1, 3.0, ncols))
    work = np.empty(3 * evolution._BLOCK, dtype=complex)
    widths = []
    for cols, near, far, spare in evolution._power_blocks(mu, nterms, work):
        widths.append(len(mu[cols]))
        assert near.shape[1] == far.shape[1] == widths[-1] and spare.shape == far.shape[::-1]
        assert len(near) * len(far) >= nterms
        assert all(np.shares_memory(x, work) for x in (near, far, spare))
    assert len(widths) == nblocks and sum(widths) == ncols


def test_free_line_zero_steps_return_the_data():
    nodes, cells = FREE_LINES["line-121"]()
    u0 = random_line_data(len(nodes))
    cfg = EvolutionConfig(dt=1e-3, boundary_guard=None)
    assert evolve_line_sigma(u0, cells, nodes, 0.0, cfg).tobytes() == u0.tobytes()


def test_lines_over_the_interface_cap_or_graded_step(monkeypatch):
    nodes = line_grid(5.0, 5.0, 0.05)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    u0 = np.exp(-(nodes**2)).astype(complex)
    cfg = EvolutionConfig(dt=1e-3, boundary_guard=None)
    built = []

    def spy(n_dof, chains, nv, dt):
        built.append(n_dof)
        return _cayley_stepper(n_dof, chains, nv, dt)

    monkeypatch.setattr(evolution, "_cayley_stepper", spy)
    for p in range(evolution._MAX_INTERFACES + 1):
        evolve_line_sigma(u0, 1.0 + (np.searchsorted(np.linspace(-2.0, 2.0, p), mid) % 2), nodes, 0.1, cfg)
    assert built == []
    over = evolution._MAX_INTERFACES + 1
    evolve_line_sigma(u0, 1.0 + (np.searchsorted(np.linspace(-2.0, 2.0, over), mid) % 2), nodes, 0.1, cfg)
    graded = nodes + 0.01 * nodes**2  # every cell a different width
    evolve_line_sigma(u0, np.ones(len(nodes) - 1), graded, 0.1, cfg)
    # each width within rounding of the one before it, the widths of the whole line not
    creeping = np.concatenate([[0.0], np.cumsum(0.05 * (1.0 + 5e-14 * np.arange(len(nodes) - 1)))]) - 5.0
    evolve_line_sigma(u0, np.ones(len(nodes) - 1), creeping, 0.1, cfg)
    assert built == [len(nodes)] * 3


# ---------------------------------------------------------------------------
# a small free graph's whole run against its stepped vertex system
# ---------------------------------------------------------------------------


def two_edge_cycle():
    """Two vertices joined by two finite edges: a graph with no ray, so no ramp."""
    edges = (Edge(0, 1, 1.0), Edge(1, 0, 0.75))
    return MetricGraph((0, 1), edges), GraphGrid(0.05, (1.0, 0.75))


FREE_GRAPHS = {
    "binary-tree": lambda: build_regular_tree([1.0], [2, 2], 4.0, 0.05),
    "tree-3-2": lambda: build_regular_tree([1.0], [3, 2], 4.0, 0.05),
    "degree-1-root": lambda: build_regular_tree([1.0], [1, 1], 4.0, 0.05),
    "one-cell-edges": lambda: build_regular_tree([0.05], [2, 2], 4.0, 0.05),
    "uneven-star": lambda: uneven_star((4.0, 4.0, 3.5)),
    "cycle-loop-short-edge": mixed_graph,
    "no-ray": two_edge_cycle,
}


def random_graph_data(graph, grid, seed=7, time=0.0):
    """Random complex data, continuous at the vertices, with nonzero ray ends."""
    n_dof, chains = _pack_graph(graph, grid)
    u = np.random.default_rng(seed).normal(size=(n_dof, 2)) @ [1.0, 1j]
    assert np.all(u[_chain_cells(chains, len(graph.vertices))[1]] != 0)
    return GraphState(graph, grid, tuple(u[dofs] for dofs, *_ in chains), time)


def stepped_graph(state, dt, nsteps):
    """The oracle: nsteps steps of the stepped Cayley core on the vertex system, one array per edge."""
    build, u, _, _, unpack, _ = evolution._vertex_system(state, dt)
    return unpack(build()(u, nsteps))


@pytest.mark.parametrize("dt_over_h", [0.02, -0.02, 10.0])
@pytest.mark.parametrize("case", sorted(FREE_GRAPHS))
def test_free_graph_matches_stepped_vertex_system(monkeypatch, case, dt_over_h):
    graph, grid = FREE_GRAPHS[case]()
    assert len(graph.vertices) <= evolution._MAX_INTERFACES
    state = random_graph_data(graph, grid)
    dt = dt_over_h * grid.h
    want = stepped_graph(state, dt, 200)
    monkeypatch.setattr(evolution, "_cayley_stepper", unbuilt)
    got = evolve_graph(state, 200 * dt, EvolutionConfig(dt=abs(dt), boundary_guard=None))
    scale = max(np.max(np.abs(w)) for w in want)
    at_vertex = {}
    for e, edge in enumerate(graph.edges):
        assert np.max(np.abs(got.values[e] - want[e])) <= 2e-12 * scale
        if edge.infinite:  # the Dirichlet end keeps its data
            assert got.values[e][-1] == state.values[e][-1]
        for v, value in ((edge.initial, got.values[e][0]), (edge.terminal, got.values[e][-1])):
            if v is not None:  # every edge reads one value at a vertex
                assert at_vertex.setdefault(v, value) == value


@pytest.mark.parametrize("extra", [1, 300])
def test_free_graph_restarts_at_segment_ends(extra):
    graph, grid = FREE_GRAPHS["binary-tree"]()
    state = random_graph_data(graph, grid, seed=3)
    nsteps, dt = evolution._SEGMENT + extra, 1e-3
    want = stepped_graph(state, dt, nsteps)
    got = evolve_graph(state, nsteps * dt, EvolutionConfig(dt=dt, boundary_guard=None))
    scale = max(np.max(np.abs(w)) for w in want)
    for e in range(graph.n_edges):
        assert np.max(np.abs(got.values[e] - want[e])) <= 1e-11 * scale


def test_free_graph_zero_steps_return_the_data(monkeypatch):
    state = random_graph_data(*FREE_GRAPHS["tree-3-2"](), time=0.3)
    monkeypatch.setattr(evolution, "_cayley_stepper", unbuilt)
    out = evolve_graph(state, 0.3, EvolutionConfig(dt=1e-3, boundary_guard=None))
    assert out.time == 0.3
    assert all(a.tobytes() == b.tobytes() for a, b in zip(out.values, state.values))


def test_free_graph_path_takes_small_free_graphs_only(monkeypatch):
    built = []

    def spy(n_dof, chains, nv, dt):
        built.append(nv)
        return _cayley_stepper(n_dof, chains, nv, dt)

    monkeypatch.setattr(evolution, "_cayley_stepper", spy)
    cfg = EvolutionConfig(dt=1e-3, boundary_guard=None)
    small = [FREE_GRAPHS[case]() for case in ("uneven-star", "no-ray", "binary-tree", "tree-3-2")]
    assert [len(graph.vertices) for graph, _ in small] == list(range(1, evolution._MAX_INTERFACES + 1))
    for graph, grid in small:
        evolve_graph(random_graph_data(graph, grid), 0.05, cfg)
    assert built == []
    over = build_regular_tree([1.0], [evolution._MAX_INTERFACES, 2], 4.0, 0.05)  # one vertex over the cap
    evolve_graph(random_graph_data(*over), 0.05, cfg)
    tree = random_graph_data(*FREE_GRAPHS["binary-tree"]())
    evolve_graph_potential(tree, 0.5, None, 0.05, cfg)
    evolution._evolve_graph(tree, 0.05, cfg, None, None, vertex_path=True)
    assert built == [evolution._MAX_INTERFACES + 1, 3, 3]


def test_c08_tree_run_matches_stepped_vertex_system(monkeypatch):
    # c08's tree side takes its whole run at once; the stepped vertex system is its oracle
    state = c08_tree_state()
    cfg = EvolutionConfig(dt=5e-4)
    stepped = evolution._evolve_graph(state, 0.3, cfg, None, None, vertex_path=True)
    monkeypatch.setattr(evolution, "_cayley_stepper", unbuilt)
    free = evolve_graph(state, 0.3, cfg)
    scale = max(np.max(np.abs(v)) for v in stepped.values)
    for a, b in zip(free.values, stepped.values):
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_equal_chains_share_one_basis_and_junction_response(monkeypatch):
    # the binary tree's four rays share one junction response and its two
    # finite edges another; a free 5-star's four difference modes share one
    # basis, its reflected mean has its own
    calls = {"bases": 0, "responses": 0}
    init, response = evolution._Basis.__init__, evolution._Basis.response

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(evolution._Basis, "__init__", counted("bases", init))
    monkeypatch.setattr(evolution._Basis, "response", counted("responses", response))
    evolve_graph(c08_tree_state(), 0.3, EvolutionConfig(dt=5e-4))
    assert calls == {"bases": 2, "responses": 2}
    graph, grid = build_star(5, 10.0, 0.05)
    data = [lambda x, k=k: np.exp(-(x**2)) + k * x**2 * np.exp(-((x - 2.0) ** 2)) for k in range(5)]
    evolve_graph(GraphState.sample(graph, grid, data), 0.1, EvolutionConfig(dt=1e-3))
    assert calls == {"bases": 4, "responses": 2}


# the errors of a free 3-star at h = 0.04, 0.02 and 0.01 (dt = h / 20, t = 1)
# against its exact solution, as a share of max|u|
STAR_EXACT_ERRORS = {0.04: 1.245e-3, 0.02: 3.113e-4, 0.01: 7.783e-5}


def test_free_star_converges_onto_its_exact_modes():
    """A 3-star with different data on each edge against the exact solution of its modes at t = 1.

    The data is exp(-x^2) + a_k x^2 exp(-(x - 3)^2) on edge k.  The edge mean,
    reflected evenly about the vertex, and the differences u_k - u_0,
    reflected oddly, are free whole-line problems, each solved exactly by
    ``solve_line`` with the one-layer coefficient (1/E = 1); edge k is the
    mean plus (a_k - mean a) times the odd solution.  The run converges onto
    it at O(h^2).
    """
    a = np.array([1.0, -0.7 + 0.4j, 0.3j])
    bump = lambda x: np.asarray(x) ** 2 * np.exp(-((np.asarray(x) - 3.0) ** 2))
    series = invert_E(PiecewiseCoefficient((1.0,)), 0)
    errors = []
    for h, pinned in STAR_EXACT_ERRORS.items():
        graph, grid = build_star(3, 40.0, h)
        state = GraphState.sample(graph, grid, [lambda x, ak=ak: np.exp(-np.asarray(x) ** 2) + ak * bump(x) for ak in a])
        out = evolve_graph(state, 1.0, EvolutionConfig(dt=h / 20))
        left = -grid.x(0)[::-1]  # the ray's mirror image: the line's left ray, one convolution
        even = solve_line(lambda y: np.exp(-np.asarray(y) ** 2) + a.mean() * bump(np.abs(y)), (-40.0, 40.0), 1.0, left, series)
        odd = -solve_line(lambda y: np.sign(y) * bump(np.abs(y)), (-40.0, 40.0), 1.0, left, series)
        exact = [even[::-1] + (ak - a.mean()) * odd[::-1] for ak in a]
        scale = max(np.max(np.abs(e)) for e in exact)
        errors.append(max(np.max(np.abs(u - e)) for u, e in zip(out.values, exact)) / scale)
        assert errors[-1] <= 1.1 * pinned, h
    assert all(3.9 <= coarse / fine <= 4.1 for coarse, fine in zip(errors, errors[1:]))
