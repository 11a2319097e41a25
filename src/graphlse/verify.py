"""Fast invariant checks runnable from the command line (--verify).

Each check exercises one structural invariant of a module touched by the
requested experiment kind and runs in well under a second; they are smoke
tests, not the full pytest suite.
"""
from __future__ import annotations

import numpy as np

from .carleman import alpha_vectors, membership_residual, sample_zcomp
from .evolution import EvolutionConfig, evolve_graph, evolve_line_sigma, line_grid
from .evolution import (
    _MAX_INTERFACES,
    _cayley_stepper,
    _chain_cells,
    _evolve_graph,
    _pack_graph,
    _pack_state,
    _star_modes,
    _steps,
    _Window,
)
from .exppoly import PiecewiseCoefficient, chain_lower_entries, chain_product, determinant_product, ef_recursion, invert_E
from .graphs import GraphState, build_regular_tree, build_star, weighted_l2_norm
from .kernels import free_kernel, kernel_h
from .reduction import reduction_map
from .uncertainty import appell_transform, fit_gaussian_decay


def check_unitarity() -> bool:
    graph, grid = build_star(3, 20.0, 0.1)
    st = GraphState.sample(graph, grid, lambda x: np.exp(-(x**2)))
    out = evolve_graph(st, 0.1, EvolutionConfig(dt=1e-3))
    return abs(weighted_l2_norm(out) - weighted_l2_norm(st)) < 1e-10 * weighted_l2_norm(st)


def check_windowed_core() -> bool:
    """The windowed Cayley core against a dense Cayley step from the same ``_chain_cells``, on a localized Gaussian."""
    graph, grid = build_star(3, 6.65, 0.05)  # 400 dofs
    packing = _pack_graph(graph, grid)
    (n, chains), nv, dt = packing, len(graph.vertices), 1e-3
    (pairs, weights, hs), dirichlet = _chain_cells(chains, nv)
    M = np.zeros((n, n))
    K = np.zeros((n, n))
    for (i, j), w, h in zip(pairs, weights, hs):
        M[i, i] += h / 2
        M[j, j] += h / 2
        K[np.ix_([i, j], [i, j])] += w * np.array([[1.0, -1.0], [-1.0, 1.0]])
    A, B = 1j * M - dt / 2 * K, 1j * M + dt / 2 * K
    A[dirichlet], B[dirichlet] = 0.0, 0.0
    A[dirichlet, dirichlet] = B[dirichlet, dirichlet] = 1.0
    dense = np.linalg.solve(A, B)
    step = _cayley_stepper(n, chains, nv, dt)
    gauss, zero = lambda x: np.exp(-25.0 * (x - 1.5) ** 2), lambda x: np.zeros_like(x)
    u = _pack_state(GraphState.sample(graph, grid, [gauss, zero, zero]), packing)
    live = _Window()
    u, v = step(u, live), dense @ u
    narrow = live.rows < n - nv  # the first step left quiet rows out
    for _ in range(99):
        u, v = step(u, live), dense @ v
    return narrow and float(np.max(np.abs(u - v))) <= 1e-12 * float(np.max(np.abs(v)))


def check_star_modes() -> bool:
    """The star's mode system against its vertex system, on different data per edge.

    The free run takes the modes' whole run at once, as chains of
    ``_free_chains`` with no junction, each in its sine basis; the run with a
    static potential steps them with the Cayley mode stepper.
    """
    graph, grid = build_star(3, 10.0, 0.05)
    edge = lambda k: lambda x: np.exp(-(x**2)) * (1.0 + 0.3j * k * x) + k * x**2 * np.exp(-4.0 * (x - 2.0) ** 2)
    st = GraphState.sample(graph, grid, [edge(k) for k in range(3)])
    cfg = EvolutionConfig(dt=1e-3)
    ok = True
    for V1 in (None, lambda t, x: np.cos(x)):
        modes = _evolve_graph(st, 0.1, cfg, V1, None)
        vertex = _evolve_graph(st, 0.1, cfg, V1, None, vertex_path=True)
        scale = max(float(np.max(np.abs(v))) for v in vertex.values)
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(modes.values, vertex.values))
        ok = ok and _star_modes(st, V1, None) and err <= 1e-12 * scale
    return ok


def check_free_line() -> bool:
    """A layered line's whole run at once against the stepped Cayley core, with nonzero Dirichlet ends."""
    nodes = line_grid(5.0, 5.0, 0.05)
    cells = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0).sigma_at(0.5 * (nodes[:-1] + nodes[1:]))
    u0 = np.exp(-((nodes + 1.0) ** 2)) * (1.0 + 0.5j * nodes) + 0.1 * (1.0 + nodes / 5.0)
    line = [(np.arange(len(nodes)), 0, 0, cells / np.diff(nodes), np.diff(nodes))]
    want = _steps(u0.copy(), _cayley_stepper(len(nodes), line, 0, 1e-3), 100)
    got = evolve_line_sigma(u0, cells, nodes, 0.1, EvolutionConfig(dt=1e-3, boundary_guard=None))
    return float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))


def check_free_graph() -> bool:
    """A small tree's whole run at once against its stepped vertex system, with nonzero ray ends."""
    graph, grid = build_regular_tree([1.0], [2, 2], 4.0, 0.05)
    inner = lambda x: np.exp(-((x - 0.5) ** 2)) * (1.0 + 0.5j * x)
    ray = lambda x: np.exp(-((x + 0.5) ** 2)) * (1.0 + 0.5j) + 0.05 * x  # inner's value at its vertex, 0.2 at the far end
    st = GraphState.sample(graph, grid, [ray if e.infinite else inner for e in graph.edges])
    cfg = EvolutionConfig(dt=1e-3, boundary_guard=None)
    free = _evolve_graph(st, 0.1, cfg, None, None)
    stepped = _evolve_graph(st, 0.1, cfg, None, None, vertex_path=True)
    scale = max(float(np.max(np.abs(v))) for v in stepped.values)
    err = max(float(np.max(np.abs(a - b))) for a, b in zip(free.values, stepped.values))
    return len(graph.vertices) <= _MAX_INTERFACES and err <= 1e-12 * scale


def check_chain_identities() -> bool:
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = PiecewiseCoefficient(rng.uniform(0.3, 3.0, size=n), 0.7)
        xi = float(rng.uniform(-5, 5))
        for k in range(1, n):
            for j in range(k, n):
                M = chain_product(j, k, xi, p)
                b, abar = chain_lower_entries(j, k, xi, p)
                if abs(M[1, 0] - b) > 1e-11 or abs(M[1, 1] - abar) > 1e-11:
                    return False
                det = abs(M[0, 0]) ** 2 - abs(M[1, 0]) ** 2
                if abs(det - determinant_product(j, k, p)) > 1e-11:
                    return False
    return True


def check_wiener() -> bool:
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    s = invert_E(p, 20)
    grid = np.linspace(-8, 8, 512)
    sampled = 0.0
    for j in (1, 2):
        E, F = ef_recursion(j, 1, p)
        sampled = max(sampled, float(np.max(np.abs(F(grid) / E(grid)))))
    return (
        s.residual_on(grid) <= max(s.tail_bound, 1e-10)
        and sampled <= s.rho + 1e-14
        and abs(s.rho - 0.6) <= 1e-12  # the certificate is exact for three layers
    )


def check_kernel_free_limit() -> bool:
    p = PiecewiseCoefficient((1.0, 2.0), 1.0)
    s = invert_E(p, 4)
    x = np.linspace(-3, 3, 11)
    return float(np.max(np.abs(kernel_h(0.7, x, s) - free_kernel(0.7, x)))) < 1e-14


def check_reduction_sigma() -> bool:
    graph, _ = build_regular_tree([1.0], [2, 2], 8.0, 0.125)
    rmap = reduction_map(graph)
    return rmap.sigma == (1.0, 0.25, 0.25, 1.0)


def check_decay_fit() -> bool:
    x = np.linspace(0, 10, 400)
    fit = fit_gaussian_decay(x, 3.0 * np.exp(-2.0 * x**2), side="+inf", window=(1.0, 3.0))
    return abs(fit.rate - 2.0) < 1e-8


def check_appell_roundtrip() -> bool:
    fam = lambda s, y: np.exp(-(0.4 + 0.2j * s) * np.asarray(y) ** 2)
    x = np.linspace(0, 8, 200)
    back = appell_transform(appell_transform(fam, 0.3, 0.9), 0.3, 0.9, direction="inverse")
    return float(np.max(np.abs(back(0.4, x) - fam(0.4, x)))) < 1e-12


def check_alpha_vectors() -> bool:
    for n in range(2, 9):
        alpha_vectors(n)  # raises on violation
    cont, flux = membership_residual(sample_zcomp(4, 1))
    return cont < 1e-12 and flux < 1e-12


_CHECKS = {
    "simulate": [check_unitarity, check_windowed_core, check_star_modes, check_free_line, check_free_graph],
    "kernel-compare": [check_chain_identities, check_wiener, check_kernel_free_limit, check_windowed_core, check_free_line],
    "sharpness": [check_unitarity, check_windowed_core, check_star_modes, check_decay_fit],
    "reduce-tree": [check_unitarity, check_windowed_core, check_reduction_sigma, check_free_line, check_free_graph],
    "carleman": [check_alpha_vectors],
    "appell": [check_appell_roundtrip],
    "threshold-sweep": [check_decay_fit],
}


def run_checks(kind: str) -> bool:
    ok = True
    for fn in _CHECKS.get(kind, []):
        passed = False
        try:
            passed = bool(fn())
        except Exception as exc:  # a check crashing is a failure, not an error
            print(f"FAIL {fn.__name__}: {exc}")
            ok = False
            continue
        print(("PASS" if passed else "FAIL") + f" {fn.__name__}")
        ok = ok and passed
    return ok
