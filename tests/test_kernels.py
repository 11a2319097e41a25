import math

import numpy as np
import pytest

from graphlse import (
    EtaProfile,
    EvolutionConfig,
    PiecewiseCoefficient,
    QuadratureDomainError,
    eta_profile,
    evolve_line_sigma,
    free_kernel,
    invert_E,
    kernel_h,
    kernel_p1k,
    line_grid,
    solve_line,
)
from graphlse import kernels
from graphlse.exppoly import ef_recursion
from graphlse.uncertainty import sharp_example_two_step


def rel_l2(u, v, x):
    return float(np.sqrt(np.trapezoid(np.abs(u - v) ** 2, x) / np.trapezoid(np.abs(v) ** 2, x)))


def interpolant(nodes, values):
    """The linear interpolant of the samples, 0 outside the nodes: sampled
    data as the function ``EtaProfile.convolve`` and ``solve_line`` take."""
    return lambda y: np.interp(y, nodes, values.real, 0.0, 0.0) + 1j * np.interp(y, nodes, values.imag, 0.0, 0.0)


def dense_oracle(u0f, t, xs, series, h, reach):
    """The layered solution as a trapezoid sum of p_t^{1,k} over each layer.

    Every layer gets its own nodes of spacing about h, ending exactly at the
    layer ends, so the oracle is second order in h wherever the breakpoints
    fall; the outer layers stop at |y| = reach.  It builds a dense
    len(xs) x n_y kernel matrix per layer.
    """
    ends = [-reach, *series.params.breakpoints(), reach]
    out = np.zeros(len(xs), dtype=complex)
    for k, (lo, hi) in enumerate(zip(ends[:-1], ends[1:]), start=1):
        ys = np.linspace(lo, hi, round((hi - lo) / h) + 1)
        out += np.trapezoid(kernel_p1k(k, t, xs[:, None], ys[None, :], series) * u0f(ys), ys, axis=1)
    return out


@pytest.fixture(scope="module")
def p121():
    return PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)


@pytest.fixture(scope="module")
def s121(p121):
    return invert_E(p121, 24)


def test_free_kernel_values_and_symmetry():
    z = np.array([0.0, 1.0, -2.0])
    k = free_kernel(1.0, z)
    np.testing.assert_allclose(np.abs(k), 1.0 / math.sqrt(4 * math.pi), atol=1e-15)
    np.testing.assert_allclose(free_kernel(-1.0, z), np.conj(k), atol=1e-15)
    with pytest.raises(ValueError):
        free_kernel(0.0, z)


def test_h_equals_free_kernel_for_two_layers():
    p = PiecewiseCoefficient((1.0, 2.0), 1.0)
    s = invert_E(p, 10)
    x = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(kernel_h(0.7, x, s), free_kernel(0.7, x), atol=1e-15)


def test_h_against_regularized_quadrature_oracle(p121, s121):
    # oracle: Gaussian-regularized frequency integral of 1/conj(E), Richardson
    # extrapolated in the regularization strength
    E, _ = ef_recursion(2, 1, p121)

    def h_quad(t, x, eps):
        cutoff = 8.0 / math.sqrt(eps)
        xi = np.linspace(-cutoff, cutoff, int(cutoff / 0.002) * 2 + 1)
        integrand = np.exp(-eps * xi**2 - 1j * xi**2 * t + 1j * x * xi) / np.conj(E(xi))
        return np.trapezoid(integrand, xi) / (2 * math.pi)

    for x in (0.3, -1.2, 2.5):
        v1, v2, v3 = (h_quad(1.0, x, e) for e in (0.02, 0.01, 0.005))
        extrap = (4 * (2 * v3 - v2) - (2 * v2 - v1)) / 3.0
        assert abs(complex(kernel_h(1.0, np.array([x]), s121)[0]) - extrap) <= 1e-4


def test_p11_reflected_weight_two_layers():
    # two layers: p^{1,1}(x,y) = a1 k(a1 x - a1 y) - a1 gamma_1 k(a1 x + a1 y)
    a1, a2 = 1.0, 2.0
    p = PiecewiseCoefficient((a1, a2), 1.0)
    s = invert_E(p, 10)
    gamma = (a1 - a2) / (a1 + a2)
    x, y = -1.3, -0.4
    val = kernel_p1k(1, 1.0, x, y, s)
    expected = a1 * free_kernel(1.0, a1 * (x - y)) - a1 * gamma * free_kernel(1.0, a1 * (x + y))
    assert complex(val) == pytest.approx(complex(expected), abs=1e-14)


def test_p11_equal_layers_is_pure_translation():
    p = PiecewiseCoefficient((1.5, 1.5, 1.5), 1.0)
    s = invert_E(p, 6)
    x, y = -0.7, -2.0
    val = kernel_p1k(1, 0.8, x, y, s)
    assert complex(val) == pytest.approx(complex(1.5 * free_kernel(0.8, 1.5 * (x - y))), abs=1e-14)


def test_p1N_single_atom(p121, s121):
    # transmission into the last layer is one shifted h_t atom with the
    # alpha_N prefactor
    from graphlse import alpha_prefactor

    aN = p121.a[-1]
    x, y = -0.5, 2.7
    val = kernel_p1k(3, 1.0, x, y, s121)
    arg = 1.0 * x - aN * (y - 1.0) - 1.0 * p121.a[1]
    expected = 1.0 * alpha_prefactor(3, p121) * kernel_h(1.0, np.array([arg]), s121)[0]
    assert complex(val) == pytest.approx(complex(expected), abs=1e-14)


def test_p1k_domain_validation(p121, s121):
    with pytest.raises(ValueError, match="outside layer"):
        kernel_p1k(2, 1.0, -1.0, 5.0, s121)  # layer 2 is (0, 1)
    with pytest.raises(ValueError, match="layer index"):
        kernel_p1k(4, 1.0, -1.0, 0.5, s121)


def test_eta_matches_u0_on_negative_axis(p121, s121):
    u0 = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    eta = eta_profile(s121)
    y = np.linspace(-10.0, -1e-9, 401)
    np.testing.assert_allclose(eta(y, u0), u0(y / p121.a[0]), rtol=0, atol=1e-14)


def two_layer_eta(u0, a1, a2):
    """The closed-form two-layer profile: u0(y / a1) on y <= 0 and, on y > 0,
    the reflected copy with weight (a2 - a1)/(a1 + a2) plus the transmitted
    copy with weight 2 a1/(a1 + a2)."""
    refl, trans = (a2 - a1) / (a1 + a2), 2 * a1 / (a1 + a2)
    return lambda y: np.where(y <= 0, u0(y / a1), refl * u0(-y / a1) + trans * u0(y / a2))


# The order (2, 1) is the reversed coefficient, whose left ray is the right
# ray of (1, 2).
TWO_LAYER_ORDERS = [(1.0, 2.0), (2.0, 1.0)]


def test_eta_reduces_to_two_step_psi_for_two_layers():
    u0 = lambda y: np.exp(-((np.asarray(y) - 0.3) ** 2))
    y = np.linspace(-6, 6, 501)
    for a1, a2 in TWO_LAYER_ORDERS:
        s = invert_E(PiecewiseCoefficient((a1, a2), 1.0), 8)
        eta = eta_profile(s)
        np.testing.assert_allclose(eta(y, u0), two_layer_eta(u0, a1, a2)(y), atol=1e-13)


def test_eta_refuses_a_psi_atom_on_the_negative_axis(monkeypatch, s121):
    # every psi image interval lies in z >= 0; an atom reaching below it is refused
    spill = (np.array([1.0 + 0j]), np.array([[1.0, -0.5, 0.0, 1.0]]))  # one row: weight, (scale, shift, y_lo, y_hi)
    monkeypatch.setattr(kernels, "_p_terms", lambda params, k: spill)
    with pytest.raises(AssertionError, match="spills onto the negative axis"):
        eta_profile(s121)


def test_two_step_psi_weights_sum_to_one():
    y = np.linspace(0.01, 4, 100)
    for a1, a2 in TWO_LAYER_ORDERS:
        s = invert_E(PiecewiseCoefficient((a1, a2), 1.0), 8)
        refl, trans = (a2 - a1) / (a1 + a2), 2 * a1 / (a1 + a2)
        assert refl + trans == pytest.approx(1.0)
        u0 = lambda y: np.exp(-np.asarray(y) ** 2)
        eta = eta_profile(s)
        np.testing.assert_allclose(eta(y, u0), refl * u0(-y / a1) + trans * u0(y / a2), atol=1e-14)
        np.testing.assert_allclose(eta(-y, u0), u0(-y / a1), atol=1e-14)
        # a bump far from the interface: the reflected and transmitted copies
        # are apart, so eta reads each weight at its copy's peak
        bump = lambda y: np.exp(-((np.asarray(y) + 6.0) ** 2)) + np.exp(-((np.asarray(y) - 6.0) ** 2))
        assert eta(np.array([6.0 * a1]), bump)[0] == pytest.approx(refl + trans * bump(6.0 * a1 / a2), abs=1e-14)
        assert eta(np.array([6.0 * a2]), bump)[0] == pytest.approx(trans + refl * bump(-6.0 * a2 / a1), abs=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_eta_equal_layers_identity(n):
    u0 = lambda y: np.exp(-((np.asarray(y) - 0.5) ** 2)) * (1 + 2j)
    s = invert_E(PiecewiseCoefficient((1.3,) * n, 1.0), 6)
    y = np.linspace(-5, 5, 201)
    np.testing.assert_allclose(eta_profile(s)(y, u0), u0(y / 1.3), atol=1e-14)


@pytest.mark.parametrize(
    "a, center, sides",
    [((1.0, 2.0), 0.0, ("left", "right")), ((1.0, 2.0, 1.0), 4.0, ("right",))],
    ids=["two-layer", "three-layer"],
)
def test_right_ray_by_reflection_vs_fd(a, center, sides):
    sigma = PiecewiseCoefficient(a, 1.0)
    u0 = lambda y: np.exp(-((np.asarray(y) - center) ** 2))
    nodes = line_grid(40.0, 40.0, 0.01)
    fd = evolve_line_sigma(u0(nodes), sigma, nodes, 1.0, EvolutionConfig(dt=5e-4))
    series = invert_E(sigma, 24)
    edge = (sigma.n_layers - 2) * sigma.l
    if "right" in sides:
        sel = (nodes >= edge) & (nodes <= edge + 12)
        upos = solve_line(u0, (-40.0, 40.0), 1.0, nodes[sel], series)
        assert rel_l2(upos, fd[sel], nodes[sel]) <= 1e-3
    if "left" in sides:
        sel = (nodes <= 0) & (nodes >= -12)
        # the left ray on a lattice twice as fine for the oscillatory convolution quadrature
        fine = np.linspace(-12.0, 0.0, 2 * np.count_nonzero(sel) - 1)
        uneg = solve_line(u0, (-40.0, 40.0), 1.0, fine, series)[::2]
        assert rel_l2(uneg, fd[sel], nodes[sel]) <= 1e-3


@pytest.mark.parametrize("a1, a2", TWO_LAYER_ORDERS)
def test_solve_line_two_step_family_is_exact(a1, a2):
    # the closed-form data at every lattice image leaves round-off (about
    # 1e-14) against u(1, .) on both rays
    ex = sharp_example_two_step(a1, a2)
    x = line_grid(20.0, 20.0, 0.02)
    u = solve_line(ex.u0, (x[0], x[-1]), 1.0, x, invert_E(ex.sigma, 8))
    for ray in (x <= 0, x >= 0):
        assert rel_l2(u[ray], ex.u1(x[ray]), x[ray]) <= 1e-10


def test_solve_line_refuses_points_between_the_rays(p121):
    # (0, l) is the middle layer of three, where no first-row kernel reaches
    u0 = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    with pytest.raises(ValueError, match=r"strictly inside \(0, 1.0\)"):
        solve_line(u0, (-30.0, 30.0), 1.0, line_grid(5.0, 5.0, 0.25), invert_E(p121, 8))
    # a grid that steps over the middle layer, both ends on it, is solved
    assert np.all(np.isfinite(solve_line(u0, (-30.0, 30.0), 1.0, line_grid(5.0, 5.0, 1.0), invert_E(p121, 8))))


@pytest.mark.parametrize("x", [[0.0, 1.0, 2.0], [-2.0, -1.0, 0.0, 1.0]], ids=["left", "right"])
def test_solve_line_solves_a_ray_of_one_point(s121, x):
    # a ray of one point is solved with its grid neighbour, on the lattice of a longer grid that holds it
    u0f = lambda y: np.exp(-((np.asarray(y) + 1.0) ** 2))
    longer = np.arange(-4.0, 5.0)
    full = solve_line(u0f, (-30.0, 30.0), 1.0, longer, s121)
    got = solve_line(u0f, (-30.0, 30.0), 1.0, np.array(x), s121)
    np.testing.assert_allclose(got, full[np.searchsorted(longer, x)], rtol=0, atol=1e-12 * np.max(np.abs(full)))


def test_solve_line_refuses_a_support_beyond_the_lattice_cap(p121):
    # the guard samples the support at the grid spacing; 2e8 samples are refused before any is taken
    with pytest.raises(ValueError, match="more than"):
        solve_line(lambda y: np.exp(-np.asarray(y) ** 2), (-1e6, 1e6), 1.0, np.linspace(-1.0, 0.0, 101), invert_E(p121, 8))


def test_solve_line_rejects_truncated_data(p121):
    # a Gaussian cut off at its support: the data dropped beyond the ends is not small
    u0 = lambda y: np.exp(-((np.asarray(y) + 1.0) ** 2))
    with pytest.raises(QuadratureDomainError):
        solve_line(u0, (-2.0, 2.0), 1.0, np.linspace(-5.0, 0.0, 101), invert_E(p121, 8))


def test_solve_constant_coefficient_matches_closed_form():
    s = invert_E(PiecewiseCoefficient((1.0, 1.0, 1.0), 1.0), 8)
    nodes = line_grid(30.0, 30.0, 0.01)
    alpha = 1.0
    u0 = np.exp(-alpha * nodes**2)
    # sampled data on the lattice of its nodes, every 10th point kept
    xs = np.linspace(-8.0, 0.0, 81)
    val = eta_profile(s).convolve(1.0, np.linspace(-8.0, 0.0, 801), interpolant(nodes, u0), (nodes[0], nodes[-1]))[::10]
    exact = np.exp(-alpha * xs**2 / (1 + 4j * alpha)) / np.sqrt(1 + 4j * alpha)
    assert rel_l2(val, exact, xs) <= 1e-6


def test_one_layer_solve_matches_closed_form():
    # one layer has no junction, so the solve is the free flow with sigma = a^-2
    a = 1.3
    nodes = line_grid(30.0, 30.0, 0.02)
    xs = nodes[(nodes >= -20.0) & (nodes <= 0.0)]
    series = invert_E(PiecewiseCoefficient((a,), 1.0), 24)
    val = eta_profile(series).convolve(1.0, xs, interpolant(nodes, np.exp(-((nodes + 3.0) ** 2))), (nodes[0], nodes[-1]))
    z = 1.0 + 4j * a**-2
    assert np.max(np.abs(val - np.exp(-((xs + 3.0) ** 2) / z) / np.sqrt(z))) <= 1e-12


def test_one_layer_p11_is_the_scaled_free_kernel():
    a = 1.3
    series = invert_E(PiecewiseCoefficient((a,), 1.0), 24)
    x, y = np.linspace(-5.0, 0.0, 6), np.linspace(-3.0, 4.0, 6)
    np.testing.assert_allclose(kernel_p1k(1, 0.7, x, y, series), a * free_kernel(0.7, a * (x - y)), rtol=1e-12, atol=0)


def test_solve_halfline_vs_fd_three_layers(p121, s121):
    u0f = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    nodes = line_grid(40.0, 40.0, 0.02)
    xs = nodes[(nodes >= -20.0) & (nodes <= 0.0)]
    u_rep = eta_profile(s121).convolve(1.0, xs, interpolant(nodes, u0f(nodes)), (nodes[0], nodes[-1]))
    fd = evolve_line_sigma(u0f(nodes), p121, nodes, 1.0, EvolutionConfig(dt=5e-4))
    assert rel_l2(u_rep, fd[(nodes >= -20.0) & (nodes <= 0.0)], xs) <= 1e-2


def test_p_route_equals_eta_route(p121, s121):
    # the p_t^{1,k} layer sums (dense oracle) against the eta lattice
    # convolution; the oracle at h = 0.01 moves by 8e-6 from h = 0.02 and is
    # second order, so it is ~10x closer to the solution than the lattice
    # path on its h = 0.05 nodes (every 4th point of its lattice kept), which errs by 2.2e-5
    u0f = lambda y: np.exp(-((np.asarray(y) + 2.0) ** 2) * 0.8)
    nodes = line_grid(30.0, 30.0, 0.05)
    xs = np.linspace(-12.0, 0.0, 61)
    fine = np.linspace(-12.0, 0.0, 241)
    route_eta = eta_profile(s121).convolve(1.0, fine, interpolant(nodes, u0f(nodes)), (nodes[0], nodes[-1]))[::4]
    route_p = dense_oracle(u0f, 1.0, xs, s121, h=0.01, reach=12.0)
    assert rel_l2(route_eta, route_p, xs) <= 5e-5


def test_lattice_path_matches_dense_oracle_c07(p121, s121):
    # the c07 problem, breakpoints on the h = 0.02 nodes: the oracle uses the
    # same nodes and the lattice path the same z-spacing (every 10th
    # observation point keeps the oracle cheap and the lattice unchanged)
    u0f = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    nodes = line_grid(40.0, 40.0, 0.02)
    fine = nodes[(nodes >= -20.0) & (nodes <= 0.0)]
    xs = fine[::10]
    lattice = eta_profile(s121).convolve(1.0, fine, interpolant(nodes, u0f(nodes)), (nodes[0], nodes[-1]))[::10]
    oracle = dense_oracle(u0f, 1.0, xs, s121, h=0.02, reach=40.0)
    assert rel_l2(lattice, oracle, xs) <= 1e-6


def test_solve_line_pins_the_interpolant_route_c07(s121):
    # the exact data read at every lattice image against the same lattice on
    # the linear interpolant of the h = 0.02 samples: they differ by 8.95e-9
    # against a peak of 0.51, and the bound is 5 times that gap
    u0f = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    nodes = line_grid(40.0, 40.0, 0.02)
    xs = nodes[(nodes >= -20.0) & (nodes <= 0.0)]
    exact = solve_line(u0f, (nodes[0], nodes[-1]), 1.0, xs, s121)
    sampled = eta_profile(s121).convolve(1.0, xs, interpolant(nodes, u0f(nodes)), (nodes[0], nodes[-1]))
    assert np.max(np.abs(exact - sampled)) <= 5 * 8.95e-9


def test_convolve_grid_rules(p121, s121):
    # the lattice is the grid's own spacing: one point, uneven and decreasing grids are refused
    u0f = lambda y: np.exp(-((np.asarray(y) + 2.0) ** 2))
    nodes = line_grid(20.0, 20.0, 0.05)
    eta = eta_profile(s121)
    xs = nodes[(nodes >= -5.0) & (nodes <= 0.0)]
    support = (nodes[0], nodes[-1])
    with pytest.raises(ValueError, match="at least two points"):
        eta.convolve(1.0, xs[[40]], u0f, support)
    for bad in (np.array([-2.0, -1.0, -0.5]), xs[::-1]):
        with pytest.raises(ValueError, match="uniformly spaced"):
            eta.convolve(1.0, bad, u0f, support)


def test_solve_rejects_truncated_data(s121):
    nodes = line_grid(2.0, 2.0, 0.05)
    u0 = np.exp(-((nodes + 1.0) ** 2))  # visibly nonzero at the ends
    with pytest.raises(QuadratureDomainError):
        solve_line(interpolant(nodes, u0), (nodes[0], nodes[-1]), 1.0, np.array([-1.0, -0.95]), s121)


def test_solves_reject_non_finite_samples(p121, s121):
    nodes = line_grid(30.0, 30.0, 0.05)
    u0 = np.exp(-(nodes**2)).astype(complex)
    u0[100] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_line(interpolant(nodes, u0), (nodes[0], nodes[-1]), 1.0, np.linspace(-5.0, 0.0, 101), s121)
    spike = lambda y: np.where(np.abs(y) < 0.01, np.inf, np.exp(-np.asarray(y) ** 2))
    with pytest.raises(ValueError, match="finite"):
        solve_line(spike, (-30.0, 30.0), 1.0, np.linspace(-5.0, 0.0, 101), invert_E(p121, 8))


def test_solve_rejects_positive_observation(s121):
    # on three layers x > 0 is refused up to the right ray x >= l
    u0f = lambda y: np.exp(-np.asarray(y) ** 2)
    with pytest.raises(ValueError, match=r"strictly inside \(0, 1.0\)"):
        solve_line(u0f, (-30.0, 30.0), 1.0, np.array([0.25, 0.5]), s121)
    with pytest.raises(ValueError, match="t != 0"):
        solve_line(u0f, (-30.0, 30.0), 0.0, np.array([-1.0, -0.5]), s121)


def test_p1k_rejects_positive_observation(p121, s121):
    with pytest.raises(ValueError, match="x <= 0"):
        kernel_p1k(1, 1.0, 0.5, -0.5, s121)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_every_kernel_path_refuses_a_non_finite_time(s121, t):
    # each path reaches free_kernel, which refuses the time instead of returning NaN
    u0f = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    calls = [
        lambda: free_kernel(t, 0.5),
        lambda: kernel_h(t, -1.0, s121),
        lambda: kernel_p1k(1, t, -1.0, -0.5, s121),
        lambda: kernel_p1k(2, t, -1.0, 0.5, s121),
        lambda: eta_profile(s121).convolve(t, np.linspace(-4.0, 0.0, 9), u0f, (-30.0, 30.0)),
        lambda: solve_line(u0f, (-30.0, 30.0), t, np.linspace(-4.0, 0.0, 9), s121),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite time"):
            call()


@pytest.mark.parametrize("bad", [-math.inf, math.nan])
def test_solves_refuse_non_finite_observation_points(s121, bad):
    # a plain ValueError: the CLI reports a QuadratureDomainError as a numerical guard
    u0f = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    for call in (
        lambda: solve_line(u0f, (-30.0, 30.0), 1.0, np.array([bad, -1.0, 0.0]), s121),
        lambda: solve_line(u0f, (-30.0, 30.0), 1.0, np.array([bad, 0.0]), s121),
    ):
        with pytest.raises(ValueError, match="finite") as caught:
            call()
        assert not isinstance(caught.value, QuadratureDomainError)


@pytest.mark.parametrize("bad", [-math.inf, math.nan])
def test_p1k_refuses_non_finite_points(s121, bad):
    with pytest.raises(ValueError, match="finite observation points"):
        kernel_p1k(1, 1.0, bad, -0.5, s121)
    with pytest.raises(ValueError, match="not finite"):
        kernel_p1k(1, 1.0, -1.0, bad, s121)
    with pytest.raises(ValueError, match="not finite"):
        kernel_p1k(3, 1.0, -1.0, -bad, s121)


@pytest.mark.parametrize(
    "support",
    [(5.0, -5.0), (1.0, 1.0), (-math.inf, 30.0), (-30.0, math.nan)],
    ids=["support-reversed", "support-empty", "support-infinite", "support-nan"],
)
def test_convolve_refuses_a_bad_spacing_or_support(s121, support):
    # one ValueError that names the support
    u0f = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    with pytest.raises(ValueError, match=r"support .* must be a finite interval"):
        eta_profile(s121).convolve(1.0, np.linspace(-4.0, 0.0, 9), u0f, support)


@pytest.mark.parametrize("front_scale", [0.0, -1.0, math.nan, math.inf])
def test_eta_table_refuses_a_front_scale_not_positive_and_finite(s121, front_scale):
    # 0 and NaN once failed in convolve with "cannot convert float NaN to integer", -1 with numpy's broadcast error
    eta = eta_profile(s121)
    with pytest.raises(ValueError, match="front_scale .* positive and finite"):
        EtaProfile(eta.weight, eta.atoms, front_scale)


def test_eta_table_refuses_bad_rows_and_is_read_only():
    weight, atoms = np.array([1.0 + 0j, 0.5j]), np.array([[1.0, 0.0, -math.inf, 0.0], [-2.0, 1.0, 0.0, 1.0]])
    eta = EtaProfile(weight, atoms, 1.0)
    weight[0], atoms[0, 0] = 7.0, 7.0  # the profile holds copies
    assert eta.weight[0] == 1.0 and eta.atoms[0, 0] == 1.0
    for table in (eta.weight, eta.atoms):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    u0f = lambda y: np.exp(-np.asarray(y) ** 2)
    # row 1 maps (0, 1) onto (-1, 1) by z = 1 - 2 y; at its end z = -1 it adds half, so eta
    # there is the mean of its limits u0(-1) and u0(-1) + 0.25j u0(1) from the two sides
    np.testing.assert_array_equal(
        eta(np.array([-2.0, -1.0, 0.5]), u0f), [u0f(-2.0), u0f(-1.0) + 0.125j * u0f(1.0), 0.25j * u0f(0.25)]
    )
    zero_scale = atoms.copy()
    zero_scale[1, 0] = 0.0
    with pytest.raises(ValueError, match="scale must be nonzero"):
        EtaProfile(weight, zero_scale, 1.0)
    for y_lo, y_hi in ((1.0, 1.0), (1.0, 0.0), (math.nan, 1.0)):
        interval = atoms.copy()
        interval[1, 2:] = y_lo, y_hi
        with pytest.raises(ValueError, match="empty source interval"):
            EtaProfile(weight, interval, 1.0)
    for w, a in ((weight[:1], atoms), (weight, atoms[:, :3]), (weight[None, :], atoms), (weight, atoms.ravel())):
        with pytest.raises(ValueError, match=r"weight of shape \(n,\) and atoms of shape \(n, 4\)"):
            EtaProfile(w, a, 1.0)


# a four-layer line whose eta rows share ends that differ in their last bits
FOUR_LAYERS = PiecewiseCoefficient((1.0, 1.6, 0.7, 1.2), 0.8)


def four_layer_data(y):
    return np.exp(-(0.5 + 0.3j) * (np.asarray(y) - 1.0) ** 2)


def test_solve_line_point_does_not_depend_on_the_grid_extent():
    # a lattice point on a shared row end once counted twice or not at all, so
    # x = 33.6 on the right ray read 1.90e-4 + 1.91e-4i on the grid of extent 36
    # and 4.46e-4 + 7.62e-4i on those of extent 38 and 40
    at = {}
    for L in (36.0, 38.0, 40.0):
        x = 1.6 + 0.02 * np.arange(round(L / 0.02) + 1)
        at[L] = solve_line(four_layer_data, (-20.0, 22.0), 0.7, x, invert_E(FOUR_LAYERS, 24))[1600]
    for L in (38.0, 40.0):
        assert abs(at[L] - at[36.0]) <= 1e-10 * abs(at[36.0])


@pytest.mark.parametrize("order", [8, 24])
def test_solve_line_right_ray_is_the_reversed_left_ray(order):
    # x >= (N-2) l = 1.6 is the left ray of the reversed coefficient, inverted to the series' order, on reflected data
    x = np.linspace(1.6, 9.6, 401)
    right = solve_line(four_layer_data, (-20.0, 22.0), 0.7, x, invert_E(FOUR_LAYERS, order))
    reversed_series = invert_E(PiecewiseCoefficient(FOUR_LAYERS.a[::-1], FOUR_LAYERS.l), order)
    left = solve_line(lambda y: four_layer_data(1.6 - y), (1.6 - 22.0, 1.6 + 20.0), 0.7, (1.6 - x)[::-1], reversed_series)
    np.testing.assert_array_equal(right, left[::-1])


def test_eta_counts_shared_row_ends_once():
    # at a row end shared by two rows up to rounding, eta is the mean of its
    # limits from the two sides: rows of the reversed four-layer table at t = 0.7
    eta = eta_profile(invert_E(PiecewiseCoefficient(FOUR_LAYERS.a[::-1], FOUR_LAYERS.l), 24))
    z = eta.atoms[:, 0:1] * eta.atoms[:, 2:4] + eta.atoms[:, 1:2]
    ends = np.unique(z[np.isfinite(z)])
    shared = ends[1:][(np.diff(ends) > 0) & (np.diff(ends) < 1e-12)]
    assert len(shared) > 100
    u0 = lambda y: four_layer_data(1.6 - np.asarray(y))
    below, on, above = (eta(shared + d, u0) for d in (-1e-7, 0.0, 1e-7))
    assert np.max(np.abs(on - 0.5 * (below + above))) <= 1e-7


def test_solve_halfline_vs_fd_four_layers():
    # exercises the multi-index machinery beyond one middle layer
    a = (1.0, 1.6, 0.7, 1.2)
    sigma = PiecewiseCoefficient(a, 0.8)
    series = invert_E(sigma, 20)
    assert series.tail_bound <= 5e-3
    u0 = lambda y: np.exp(-0.8 * (np.asarray(y) + 2.0) ** 2)
    nodes = line_grid(40.0, 40.0, 0.02)
    fd = evolve_line_sigma(u0(nodes), sigma, nodes, 1.0, EvolutionConfig(dt=1e-3))
    xs = np.linspace(-10.0, 0.0, 41)
    quad = line_grid(16.0, 12.0, 0.02)
    # the lattice at the grid spacing 0.25 split 13 ways, just under the node spacing
    ker = eta_profile(series).convolve(1.0, np.linspace(-10.0, 0.0, 521), interpolant(quad, u0(quad)), (quad[0], quad[-1]))[::13]
    fd_xs = np.interp(xs, nodes, fd.real) + 1j * np.interp(xs, nodes, fd.imag)
    assert rel_l2(ker, fd_xs, xs) <= 1e-2


def test_eta_support_and_route_consistency_random_configs():
    rng = np.random.default_rng(17)
    for _ in range(3):
        n = int(rng.integers(2, 5))
        a = tuple(rng.uniform(0.6, 1.8, size=n))
        l = float(rng.uniform(0.6, 1.2))
        params = PiecewiseCoefficient(a, l)
        series = invert_E(params, 10)
        u0f = lambda y: np.exp(-0.7 * (np.asarray(y) + 1.5) ** 2)
        qnodes = line_grid(24.0, 24.0, 0.1)
        xs = np.linspace(-8.0, 0.0, 17)
        eta = eta_profile(series)
        route_eta = eta.convolve(1.0, np.linspace(-8.0, 0.0, 81), interpolant(qnodes, u0f(qnodes)), (qnodes[0], qnodes[-1]))[::5]
        # breakpoints fall between the h = 0.1 nodes: the lattice path errs by
        # 1.6e-4 to 2.0e-4, the oracle at h = 0.01 by about 2e-6
        route_p = dense_oracle(u0f, 1.0, xs, series, h=0.01, reach=10.0)
        assert rel_l2(route_eta, route_p, xs) <= 5e-4
        y = np.linspace(-8.0, -1e-9, 201)
        np.testing.assert_array_equal(eta(y, u0f), u0f(y / params.a[0]))


def per_atom_convolve(eta, t, x, u0, support):
    """(k_t * eta)(front_scale x) with u0 read once per atom and the lattice sum taken directly: the oracle of convolve."""
    dz = eta.front_scale * (x[-1] - x[0]) / (len(x) - 1)
    z0 = eta.front_scale * x[0]
    parts = []
    for w, (scale, shift, y_lo, y_hi) in zip(eta.weight, eta.atoms):
        ends = sorted((scale * y_lo + shift, scale * y_hi + shift))
        lo, hi = sorted((scale * max(y_lo, support[0]) + shift, scale * min(y_hi, support[1]) + shift))
        j = np.arange(math.ceil((lo - z0) / dz - 1e-6), math.floor((hi - z0) / dz + 1e-6) + 1)
        if len(j):
            vals = (w / abs(scale)) * np.asarray(u0((z0 + dz * j - shift) / scale), dtype=complex)
            vals[0] *= 0.5 if abs(z0 + dz * j[0] - ends[0]) <= 1e-6 * dz else 1.0
            vals[-1] *= 0.5 if abs(z0 + dz * j[-1] - ends[1]) <= 1e-6 * dz else 1.0
            parts.append((j, vals))
    j = np.concatenate([j for j, _ in parts])
    samples = np.zeros(j.max() - j.min() + 1, dtype=complex)
    for k, vals in parts:
        samples[k - j.min()] += vals
    # output i is dz sum_j k_t((i - j) dz) eta_j over lags i - j from -j.max() on
    kern = free_kernel(t, dz * np.arange(-j.max(), len(x) - j.min()))
    return dz * np.convolve(samples, kern)[j.max() - j.min() : j.max() - j.min() + len(x)]


def c07_left_ray():
    nodes = line_grid(40.0, 40.0, 0.02)
    return (nodes[0], nodes[-1]), nodes[(nodes >= -20.0) & (nodes <= 0.0)]


def test_eta_reads_u0_once_per_source_row_c07(s121):
    # c07's 86 atoms lie on 5 source rows (scale, y_lo, y_hi), the direct row
    # and 4 psi rows, and on each the shifts differ by whole lattice steps:
    # convolve reads u0 once per row, and solve_line once more for its tail check
    eta = eta_profile(s121)
    assert len(eta.atoms) == 86 and len({(s, lo, hi) for s, _, lo, hi in eta.atoms.tolist()}) == 5
    support, xs = c07_left_ray()
    calls = []

    def u0(y):
        calls.append(len(y))
        return np.exp(-((np.asarray(y) + 3.0) ** 2))

    solve_line(u0, support, 1.0, xs, s121)
    assert len(calls) == 6


@pytest.mark.parametrize("case", ["c07-left", "four-layers-right"])
def test_convolve_equals_the_per_atom_sum(s121, case):
    if case == "c07-left":
        eta, (support, x) = eta_profile(s121), c07_left_ray()
        u0 = lambda y: np.exp(-((np.asarray(y) + 3.0) ** 2))
    else:
        # the right ray at dx = 0.02 is the left ray of the reversed coefficient,
        # whose lattice offsets 2 l a_j / (a_4 dx) are 106.67 and 46.67 steps:
        # no atom's shift is a whole number of steps from every other's on its row
        a, l = FOUR_LAYERS.a[::-1], FOUR_LAYERS.l
        offsets = 2 * l * np.array(a[1:3]) / (a[0] * 0.02)
        assert np.all(np.abs(offsets - np.round(offsets)) > 0.3)
        eta = eta_profile(invert_E(PiecewiseCoefficient(a, l), 24))
        support, x = (1.6 - 22.0, 1.6 + 20.0), np.linspace(-20.0, 0.0, 1001)
        u0 = lambda y: four_layer_data(1.6 - np.asarray(y))
    got = eta.convolve(1.0, x, u0, support)
    want = per_atom_convolve(eta, 1.0, x, u0, support)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
