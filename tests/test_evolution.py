import numpy as np
import pytest

from graphlse import (
    EvolutionConfig,
    GraphState,
    PiecewiseCoefficient,
    TruncationGuardError,
    build_star,
    evolve_graph,
    evolve_graph_potential,
    evolve_line_sigma,
    kirchhoff_residual,
    line_grid,
    read_checkpoint,
    weighted_l2_norm,
    write_checkpoint,
)


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
