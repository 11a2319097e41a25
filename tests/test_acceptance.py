"""End-to-end acceptance suite.

One test per shipped guarantee, each pinned to its stated tolerance; the
conftest hook prints one PASS/FAIL line per criterion at the end of the run.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_acceptance
from graphlse import (
    CarlemanWeight,
    EvolutionConfig,
    GraphState,
    PiecewiseCoefficient,
    alpha_vectors,
    appell_transform,
    averaged_sums,
    build_regular_tree,
    build_star,
    carleman_sides,
    chain_lower_entries,
    chain_product,
    determinant_product,
    evolve_graph,
    evolve_line_sigma,
    fit_gaussian_decay,
    fold_to_line,
    gamma_star,
    invert_E,
    line_grid,
    reduction_map,
    sample_zcomp,
    sharp_example_star,
    sharp_example_two_step,
    solve_line,
    weighted_l2_norm,
)
from graphlse.uncertainty import magnitude_window


def rel_l2(u, v, x):
    return float(np.sqrt(np.trapezoid(np.abs(u - v) ** 2, x) / np.trapezoid(np.abs(v) ** 2, x)))


def test_c01_unitarity_star_1000_steps():
    """1000 Crank-Nicolson steps on a 3-star preserve the norm to 1e-10."""
    t0 = time.time()
    graph, grid = build_star(3, 40.0, 0.05)
    state = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    out = evolve_graph(state, 1.0, EvolutionConfig(dt=1e-3))
    n0, n1 = weighted_l2_norm(state), weighted_l2_norm(out)
    drift = abs(n1 - n0) / n0
    record_acceptance("test_c01_unitarity_star_1000_steps", f"(drift {drift:.2e}, {time.time()-t0:.1f}s)")
    assert drift <= 1e-10
    assert time.time() - t0 <= 10.0


def _random_params(rng):
    n = int(rng.integers(2, 7))
    a = rng.uniform(0.5, 2.0, size=n)
    l = float(rng.uniform(0.5, 1.5))
    return PiecewiseCoefficient(a, l)


def test_c02_closed_form_vs_chain_product():
    """Entry formulas match brute-force transfer-matrix chains to 1e-12."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        p = _random_params(rng)
        xi = float(rng.uniform(-10.0, 10.0))
        n = p.n_layers
        k = int(rng.integers(1, n))
        j = int(rng.integers(k, n))
        for jj, kk in {(j, k), (n - 1, 1)}:
            M = chain_product(jj, kk, xi, p)
            b, abar = chain_lower_entries(jj, kk, xi, p)
            worst = max(worst, abs(M[1, 0] - b), abs(M[1, 1] - abar))
    record_acceptance("test_c02_closed_form_vs_chain_product", f"(worst {worst:.2e}, {time.time()-t0:.1f}s)")
    assert worst <= 1e-12
    assert time.time() - t0 <= 1.0


def test_c03_determinant_identity_and_xi_independence():
    """|A|^2 - |B|^2 equals the layer product and is frequency independent."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    xi_grid = np.linspace(-9.0, 9.0, 33)
    worst_match = 0.0
    worst_spread = 0.0
    for _ in range(50):
        p = _random_params(rng)
        n = p.n_layers
        k = int(rng.integers(1, n))
        j = int(rng.integers(k, n))
        target = determinant_product(j, k, p)
        vals = []
        for xi in xi_grid:
            M = chain_product(j, k, float(xi), p)
            vals.append(abs(M[0, 0]) ** 2 - abs(M[1, 0]) ** 2)
        vals = np.array(vals)
        worst_match = max(worst_match, float(np.max(np.abs(vals - target))))
        worst_spread = max(worst_spread, float(np.max(vals) - np.min(vals)))
    record_acceptance(
        "test_c03_determinant_identity_and_xi_independence",
        f"(match {worst_match:.2e}, spread {worst_spread:.2e}, {time.time()-t0:.1f}s)",
    )
    assert worst_match <= 1e-12
    assert worst_spread <= 1e-12
    assert time.time() - t0 <= 1.0


def test_c04_wiener_inversion_residual():
    """Truncated inversion of the denominator entry: residual below 1e-6 and
    below the reported contraction tail bound on a 2048-point grid."""
    t0 = time.time()
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    series = invert_E(p, 20)
    grid = np.linspace(-2 * math.pi / (1.0 * 2.0) * 4, 2 * math.pi / (1.0 * 2.0) * 4, 2048)
    resid = series.residual_on(grid)
    record_acceptance(
        "test_c04_wiener_inversion_residual",
        f"(residual {resid:.2e}, rho {series.rho:.3f}, bound {series.tail_bound:.2e}, {time.time()-t0:.1f}s)",
    )
    assert resid <= 1e-6
    assert resid <= series.tail_bound
    assert time.time() - t0 <= 5.0


def test_c05_two_step_sharpness():
    """Two-layer saturating family: the finite-difference run and the kernel
    solve both match the closed form at t=1 to 1e-3 relative L2, and the
    fitted decay-rate product sits at min(a1^2,a2^2)^2/16 within 5%."""
    t0 = time.time()
    ex = sharp_example_two_step(1.0, 2.0)
    nodes = line_grid(40.0, 40.0, 0.0125)
    fd = evolve_line_sigma(ex.u0(nodes), ex.sigma, nodes, 1.0, EvolutionConfig(dt=5e-4))
    closed = ex.u1(nodes)
    rel_fd = rel_l2(fd, closed, nodes)

    series = invert_E(ex.sigma, 8)
    xs = np.arange(-20.0, 0.0 + 1e-12, 0.0125)
    half = solve_line(ex.u0, (-40.0, 40.0), 1.0, xs, series)
    rel_half = rel_l2(half, ex.u1(xs), xs)

    # fit windows stop where the scheme's dispersive noise floor (~1e-7 of
    # peak, visible beyond |x| ~ 14) would bias the tail
    alpha_hat = fit_gaussian_decay(nodes, ex.u0(nodes), side="-inf", window=(1.5, 4.0)).rate
    beta_hat = fit_gaussian_decay(nodes, fd, side="-inf", window=(4.0, 11.0)).rate
    target = min(ex.a1**2, ex.a2**2) ** 2 / 16.0
    product = alpha_hat * beta_hat
    record_acceptance(
        "test_c05_two_step_sharpness",
        f"(fd {rel_fd:.2e}, kernel {rel_half:.2e}, product {product:.4f} vs {target:.4f}, {time.time()-t0:.1f}s)",
    )
    assert rel_fd <= 1e-3
    assert rel_half <= 1e-3
    assert abs(product - target) <= 0.05 * target
    assert time.time() - t0 <= 60.0


@pytest.mark.parametrize("alpha", [0.125, 0.25])
def test_c06_star_sharpness(alpha):
    """Star saturating family: the solver matches the closed form at t=1 to
    1e-3 relative L2 and the fitted rate product sits at 1/16 within 5%."""
    t0 = time.time()
    ex = sharp_example_star(alpha, 3)
    graph, grid = build_star(3, 40.0, 0.02)
    state = GraphState.sample(graph, grid, ex.u0)
    out = evolve_graph(state, 1.0, EvolutionConfig(dt=1e-3))
    x = grid.x(0)
    closed = ex.u1(x)
    rels = [rel_l2(out.values[e], closed, x) for e in range(3)]
    alpha_hat = fit_gaussian_decay(x, state.values[0], side="+inf", window=magnitude_window(x, state.values[0])).rate
    beta_hat = fit_gaussian_decay(x, out.values[0], side="+inf", window=magnitude_window(x, out.values[0])).rate
    product = alpha_hat * beta_hat
    name = f"test_c06_star_sharpness[{alpha}]"
    record_acceptance(name, f"(rel {max(rels):.2e}, product {product:.4f}, {time.time()-t0:.1f}s)")
    assert max(rels) <= 1e-3
    assert abs(product - 1.0 / 16.0) <= 0.05 / 16.0
    assert time.time() - t0 <= 60.0


def test_c07_representation_cross_check():
    """Three-layer line: transfer-kernel solution equals the independent
    finite-difference solution on [-20, 0] at t=1 to 1e-2 relative L2.
    The FD run is the free line's whole run at once, which the evolution
    tests pin to the stepped Cayley core."""
    t0 = time.time()
    sigma = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    u0 = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    series = invert_E(sigma, 24)
    nodes = line_grid(40.0, 40.0, 0.02)
    fd = evolve_line_sigma(u0(nodes), sigma, nodes, 1.0, EvolutionConfig(dt=5e-4))
    sel = (nodes >= -20.0) & (nodes <= 0.0)
    xs = nodes[sel]
    kernel = solve_line(u0, (nodes[0], nodes[-1]), 1.0, xs, series)
    rel = rel_l2(kernel, fd[sel], xs)
    record_acceptance("test_c07_representation_cross_check", f"(rel {rel:.2e}, {time.time()-t0:.1f}s)")
    assert rel <= 1e-2
    assert time.time() - t0 <= 120.0


def c08_tree_state():
    """c08's binary tree (one interior generation, rays cut at 30, h = 0.02) and its data."""
    graph, grid = build_regular_tree([1.0], [2, 2], 30.0, 0.02)
    rng = np.random.default_rng(8)
    amps = rng.normal(size=graph.n_edges) + 1j * rng.normal(size=graph.n_edges)

    def fn(e, a):
        if graph.edges[e].infinite:
            return lambda x, a=a: a * np.exp(-((x - 3.0) ** 2)) * x**2 / (1 + x**2)
        return lambda x, a=a: a * (x * (1.0 - x)) ** 2 * 16.0

    return GraphState.sample(graph, grid, [fn(e, a) for e, a in enumerate(amps)])


def test_c08_tree_reduction_diagram():
    """Binary tree, one interior generation: folding commutes with evolution
    to 2e-2 relative L2 at t=0.3, with the step coefficient (1, 1/4, 1/4, 1).
    Both sides take their whole run at once, on different systems:
    fold-then-evolve runs the free line, evolve-then-fold the tree's free
    vertex system (three vertices), each through the junction recurrence."""
    t0 = time.time()
    state = c08_tree_state()
    rmap = reduction_map(state.graph)
    assert rmap.sigma == (1.0, 0.25, 0.25, 1.0)
    cfg = EvolutionConfig(dt=5e-4)
    folded0 = fold_to_line(averaged_sums(state), rmap)
    line = evolve_line_sigma(folded0.values, folded0.cell_sigma, folded0.nodes, 0.3, cfg)
    folded1 = fold_to_line(averaged_sums(evolve_graph(state, 0.3, cfg)), rmap)
    rel = rel_l2(folded1.values, line, folded0.nodes)
    record_acceptance("test_c08_tree_reduction_diagram", f"(rel {rel:.2e}, {time.time()-t0:.1f}s)")
    assert rel <= 2e-2
    assert time.time() - t0 <= 120.0


def test_c09_carleman_inequality_sweep():
    """The weighted inequality holds for 20 seeds x N in {3,4,5} x the full
    (mu, eps, R) grid; any negative margin beyond quadrature error fails."""
    t0 = time.time()
    failures = []
    worst = math.inf
    cells = [(mu, eps, R) for mu in (0.5, 1.0, 2.0) for eps in (0.25, 0.5) for R in (2.0, 4.0, 8.0)]
    weights = [CarlemanWeight(mu, eps, R) for mu, eps, R in cells]
    for n_edges in (3, 4, 5):
        av = alpha_vectors(n_edges)
        for seed in range(20):
            margins = carleman_sides(sample_zcomp(n_edges, seed), weights, av)
            for (mu, eps, R), m in zip(cells, margins, strict=True):
                worst = min(worst, m.margin / max(m.rhs, 1e-300))
                if m.margin < -m.quad_error:
                    failures.append((n_edges, seed, mu, eps, R, m.margin))
    record_acceptance(
        "test_c09_carleman_inequality_sweep",
        f"(1080 cells, worst relative margin {worst:.3f}, {time.time()-t0:.0f}s)",
    )
    assert not failures
    assert time.time() - t0 <= 300.0


def test_c10_appell_identities():
    """Appell transform: quadrature norm identity to 1e-8, round trip to
    1e-10, equal-rate fixed point to 1e-14."""
    t0 = time.time()
    alpha, beta, gamma = 0.25, 1.0, 0.02
    fam = lambda s, y: np.exp(-(0.3 + 0.1j * s) * np.asarray(y) ** 2)
    x = np.linspace(0.0, 40.0, 80001)
    tr = appell_transform(fam, alpha, beta)
    ra, rb = math.sqrt(alpha), math.sqrt(beta)
    worst_norm = 0.0
    for t in (0.0, 0.35, 0.8):
        s = rb * t / (ra * (1 - t) + rb * t)
        denom = ra * s + rb * (1 - s)
        w = gamma * math.sqrt(alpha * beta) / denom**2  # A = 0: no drift term
        lhs = math.sqrt(np.trapezoid(np.exp(2 * gamma * x**2) * np.abs(tr(t, x)) ** 2, x))
        rhs = math.sqrt(np.trapezoid(np.exp(2 * w * x**2) * np.abs(fam(s, x)) ** 2, x))
        worst_norm = max(worst_norm, abs(lhs - rhs) / rhs)

    back = appell_transform(tr, alpha, beta, direction="inverse")
    xs = np.linspace(0.0, 15.0, 1501)
    rt = max(float(np.max(np.abs(back(t, xs) - fam(t, xs)))) for t in (0.0, 0.25, 0.6, 1.0))

    fix = appell_transform(fam, 0.7, 0.7)
    fx = max(float(np.max(np.abs(fix(t, xs) - fam(t, xs)))) for t in (0.0, 0.5, 1.0))
    record_acceptance(
        "test_c10_appell_identities",
        f"(norm {worst_norm:.2e}, roundtrip {rt:.2e}, fixed point {fx:.2e}, {time.time()-t0:.1f}s)",
    )
    assert worst_norm <= 1e-8
    assert rt <= 1e-10
    assert fx <= 1e-14
    assert time.time() - t0 <= 10.0


def test_c11_alpha_vector_invariants_exact():
    """Direction-vector identities hold exactly in rational arithmetic for
    2 <= N <= 8 stars (zero row and column sums, edge-independent square sum,
    magnitudes in [1, 2 gamma])."""
    for n in range(3, 9):
        av = alpha_vectors(n)
        for row in av.vectors:
            assert sum(row) == 0
        for j in range(n):
            assert sum(av.vectors[k][j] for k in range(n)) == 0
        sq = {sum(av.vectors[k][j] ** 2 for k in range(n)) for j in range(n)}
        assert len(sq) == 1
        mags = [abs(v) for row in av.vectors for v in row]
        assert min(mags) >= 1
        assert Fraction(max(mags)) == Fraction(2 * gamma_star(n)).limit_denominator(10**6)
    record_acceptance("test_c11_alpha_vector_invariants_exact", "(N = 3..8, exact rationals)")
