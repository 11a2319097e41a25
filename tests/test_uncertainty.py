import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphlse import (
    PiecewiseCoefficient,
    appell_time_map,
    appell_transform,
    classify_threshold,
    fit_gaussian_decay,
    free_kernel,
    gamma_star,
    sharp_example_star,
    sharp_example_two_step,
)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------


def test_fit_recovers_exact_rate():
    x = np.linspace(0.0, 10.0, 1001)
    fit = fit_gaussian_decay(x, np.exp(-x**2 / 4.0), side="+inf")
    assert fit.rate == pytest.approx(0.25, abs=1e-6)
    assert fit.residual_rms < 1e-10


def test_fit_absorbs_prefactor():
    x = np.linspace(-12.0, 12.0, 2001)
    fit = fit_gaussian_decay(x, 3.0 * np.exp(-2.0 * x**2), side="both", window=(1.0, 2.2))
    assert fit.rate == pytest.approx(2.0, abs=1e-8)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-8)


@given(st.floats(0.05, 3.0), st.floats(0.1, 5.0))
@settings(max_examples=40, deadline=None)
def test_fit_recovers_planted_rates(rate, amp):
    x = np.linspace(0.0, 6.0 / math.sqrt(rate), 400)
    fit = fit_gaussian_decay(x, amp * np.exp(-rate * x**2), side="+inf")
    assert abs(fit.rate - rate) <= 1e-6 * max(1.0, rate)


def test_fit_sides():
    x = np.linspace(-10, 10, 2001)
    u = np.where(x < 0, np.exp(-0.5 * x**2), np.exp(-2.0 * x**2))
    assert fit_gaussian_decay(x, u, side="-inf", window=(2.0, 6.0)).rate == pytest.approx(0.5, abs=1e-6)
    assert fit_gaussian_decay(x, u, side="+inf", window=(1.0, 3.0)).rate == pytest.approx(2.0, abs=1e-6)


def test_fit_identically_zero_flag():
    x = np.linspace(0, 10, 500)
    fit = fit_gaussian_decay(x, np.zeros_like(x), side="+inf")
    assert fit.identically_zero
    assert math.isnan(fit.rate)


def test_fit_too_few_samples():
    x = np.linspace(0, 10, 30)
    with pytest.raises(ValueError, match="20"):
        fit_gaussian_decay(x, np.exp(-x**2), side="+inf", window=(0.0, 5.0))


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_gamma_star_values():
    assert gamma_star(4) == 0.5
    assert gamma_star(3) == 1.0
    assert gamma_star(5) == 0.75
    assert gamma_star(2) == 0.5
    with pytest.raises(ValueError):
        gamma_star(1)


def test_free_line_boundary():
    v = classify_threshold(0.25, 0.25, "star-free")
    assert v.regime == "boundary"
    assert v.threshold == pytest.approx(1.0 / 16.0)


def test_two_step_case_iii_threshold():
    sig = PiecewiseCoefficient((1.0, 2.0), 1.0)
    v = classify_threshold(0.5, 0.5, "line-sigma-iii", sigma=sig)
    # sigma_- = 1, sigma_+ = 1/4: the larger square is 1
    assert v.threshold == pytest.approx(1.0 / 16.0)
    assert v.regime == "above"
    v2 = classify_threshold(0.5, 0.5, "line-sigma-ii", sigma=sig)
    assert v2.threshold == pytest.approx(1.0)


def test_star_potential_threshold():
    v = classify_threshold(3.0, 2.0, "star-potential", n_edges=3)
    assert v.threshold == pytest.approx(4.0)
    assert v.regime == "above"
    v4 = classify_threshold(0.3, 0.3, "star-potential", n_edges=4)
    assert v4.threshold == pytest.approx(0.25)


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_threshold(-1.0, 1.0, "star-free")
    with pytest.raises(ValueError):
        classify_threshold(1.0, 1.0, "no-such-rule")
    with pytest.raises(ValueError):
        classify_threshold(1.0, 1.0, "line-sigma-i")  # sigma missing


@given(
    st.floats(0.01, 4.0),
    st.floats(0.01, 4.0),
    st.floats(0.01, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_classification_monotone(alpha, beta, bump):
    order = {"below": 0, "boundary": 1, "above": 2}
    v1 = classify_threshold(alpha, beta, "star-free")
    v2 = classify_threshold(alpha + bump, beta, "star-free")
    v3 = classify_threshold(alpha, beta + bump, "star-free")
    assert order[v2.regime] >= order[v1.regime]
    assert order[v3.regime] >= order[v1.regime]


# ---------------------------------------------------------------------------
# sharpness families (closed forms pinned against the convolution oracle)
# ---------------------------------------------------------------------------


def quad_free_evolution(u0_fn, x, span=40.0, h=0.0005):
    # oracle: direct trapezoid quadrature of the free kernel convolution
    y = np.arange(-span, span + h / 2, h)
    vals = u0_fn(y)
    out = np.empty(len(x), dtype=complex)
    for i, xx in enumerate(x):
        out[i] = np.trapezoid(free_kernel(1.0, xx - y) * vals, dx=h)
    return out


@pytest.mark.parametrize("alpha", [0.125, 0.25])
def test_star_sharpness_closed_form_matches_oracle(alpha):
    ex = sharp_example_star(alpha, 3)
    xs = np.array([0.0, 0.5, 1.3, 2.0, 3.7])
    oracle = quad_free_evolution(ex.u0, xs)
    np.testing.assert_allclose(ex.u1(xs), oracle, atol=5e-9)


def test_star_sharpness_norm_conserved():
    # the closed form must carry the same L2 mass as the initial data
    ex = sharp_example_star(0.25, 3)
    x = np.linspace(0, 60, 400001)
    n0 = np.trapezoid(np.abs(ex.u0(x)) ** 2, x)
    n1 = np.trapezoid(np.abs(ex.u1(x)) ** 2, x)
    assert n1 == pytest.approx(n0, rel=1e-10)


def test_star_sharpness_product_on_boundary():
    ex = sharp_example_star(0.25, 3)
    assert ex.alpha * ex.beta == pytest.approx(1.0 / 16.0)
    x = np.linspace(0.0, 20.0, 4001)
    fit = fit_gaussian_decay(x, ex.u1(x), side="+inf")
    assert fit.rate == pytest.approx(ex.beta, rel=1e-6)
    v = classify_threshold(ex.alpha, fit.rate, "star-free")
    assert v.regime == "boundary"


def test_two_step_sharpness_closed_form_matches_oracle():
    # for x <= 0 the transported profile is the single chirped Gaussian
    # exp(-(1 + i/4) y^2); convolve it with the free kernel directly
    ex = sharp_example_two_step(1.0, 2.0)
    xs = np.array([-3.0, -1.0, -0.25])
    psi_fn = lambda y: np.exp(-(1.0 + 0.25j) * np.asarray(y) ** 2)
    oracle = quad_free_evolution(psi_fn, ex.a1 * xs)
    np.testing.assert_allclose(ex.u1(xs), oracle, atol=5e-9)


def test_two_step_sharpness_pointwise_magnitude():
    ex = sharp_example_two_step(1.0, 2.0)
    assert abs(complex(ex.u1(np.array([-3.0]))[0])) == pytest.approx(0.5 * math.exp(-9.0 / 16.0), rel=1e-12)


def test_two_step_equal_layers_reduces_to_line_pair():
    ex = sharp_example_two_step(1.0, 1.0)
    assert ex.alpha == 1.0
    assert ex.beta == pytest.approx(1.0 / 16.0)
    x = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(ex.u0(x), np.exp(-(1 + 0.25j) * x**2), atol=1e-15)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_sharp_examples_refuse_bad_parameters(value):
    # only "<= 0" was checked: NaN built a star family, and inf a two-step family with alpha = 1
    with pytest.raises(ValueError, match=f"alpha must be positive and finite, not {value}"):
        sharp_example_star(value, 3)
    with pytest.raises(ValueError, match=f"layer amplitude a1 must be positive and finite, not {value}"):
        sharp_example_two_step(value, 1.0)
    with pytest.raises(ValueError, match=f"layer amplitude a2 must be positive and finite, not {value}"):
        sharp_example_two_step(1.0, value)


def test_two_step_rates():
    ex = sharp_example_two_step(1.0, 2.0)
    assert ex.alpha == 1.0 and ex.beta == pytest.approx(1.0 / 16.0)
    nodes = np.linspace(-20, 20, 4001)
    fit0 = fit_gaussian_decay(nodes, ex.u0(nodes), side="-inf", window=(1.5, 4.0))
    fit1 = fit_gaussian_decay(nodes, ex.u1(nodes), side="-inf", window=(4.0, 12.0))
    assert fit0.rate == pytest.approx(1.0, rel=1e-6)
    assert fit1.rate == pytest.approx(1.0 / 16.0, rel=1e-6)


# ---------------------------------------------------------------------------
# Appell transform
# ---------------------------------------------------------------------------


def gaussian_family(c0=0.3, drift=0.1j):
    return lambda s, y: np.exp(-(c0 + drift * s) * np.asarray(y) ** 2)


def weighted_halfline_norm(f, gamma, X=40.0, n=80001):
    x = np.linspace(0.0, X, n)
    w = np.exp(2.0 * gamma * x**2) * np.abs(f(x)) ** 2
    return math.sqrt(np.trapezoid(w, x))


def test_appell_fixed_point_alpha_equals_beta():
    fam = gaussian_family()
    tr = appell_transform(fam, 0.7, 0.7)  # A=0, B=1
    x = np.linspace(0, 10, 501)
    for t in (0.0, 0.3, 1.0):
        assert np.max(np.abs(tr(t, x) - fam(t, x))) <= 1e-14


def test_appell_time_map_endpoints():
    assert appell_time_map(0.0, 0.3, 2.0) == 0.0
    assert appell_time_map(1.0, 0.3, 2.0) == 1.0
    s = appell_time_map(0.5, 0.25, 1.0)
    assert s == pytest.approx(1.0 / (0.5 * 1.0 + 1.0) * 0.5 / 0.75 * 1.5) or 0 < s < 1


def test_appell_roundtrip_identity():
    fam = gaussian_family()
    x = np.linspace(0.0, 15.0, 1501)
    fwd = appell_transform(fam, 0.25, 1.44)
    back = appell_transform(fwd, 0.25, 1.44, direction="inverse")
    err = max(float(np.max(np.abs(back(t, x) - fam(t, x)))) for t in (0.0, 0.25, 0.6, 1.0))
    assert err <= 1e-10


def test_appell_roundtrip_general_AB():
    fam = gaussian_family()
    x = np.linspace(0.0, 15.0, 1501)
    fwd = appell_transform(fam, 0.5, 2.0, A=0.3, B=0.8)
    back = appell_transform(fwd, 0.5, 2.0, A=0.3, B=0.8, direction="inverse")
    err = max(float(np.max(np.abs(back(t, x) - fam(t, x)))) for t in (0.0, 0.5, 1.0))
    assert err <= 1e-10


def test_appell_norm_identity_at_zero_gamma_zero():
    # at t = 0 with A = 0 the matching source weight is trivial
    fam = gaussian_family()
    tr = appell_transform(fam, 0.25, 1.0)
    lhs = weighted_halfline_norm(lambda y: tr(0.0, y), 0.0)
    rhs = weighted_halfline_norm(lambda y: fam(0.0, y), 0.0)
    assert abs(lhs - rhs) <= 1e-8 * rhs


@pytest.mark.parametrize("t", [0.0, 0.35, 0.8])
@pytest.mark.parametrize("A,B", [(0.0, 1.0), (0.4, 1.0)])
def test_appell_norm_identity_general(t, A, B):
    # || e^{gamma x^2} u~(t) || equals the weighted norm of u(s) with the
    # combined weight gamma sqrt(ab)/(ra s + rb (1-s))^2 + (ra-rb) A /
    # (4 (A^2+B^2)(ra s + rb (1-s)))
    alpha, beta, gamma = 0.25, 1.0, 0.02
    fam = gaussian_family()
    tr = appell_transform(fam, alpha, beta, A=A, B=B)
    ra, rb = math.sqrt(alpha), math.sqrt(beta)
    s = float(appell_time_map(t, alpha, beta))
    denom = ra * s + rb * (1.0 - s)
    w = gamma * math.sqrt(alpha * beta) / denom**2 + (ra - rb) * A / (4.0 * (A**2 + B**2) * denom)
    lhs = weighted_halfline_norm(lambda y: tr(t, y), gamma)
    rhs = weighted_halfline_norm(lambda y: fam(s, y), w)
    assert abs(lhs - rhs) <= 1e-8 * rhs


def test_appell_rejects_degenerate_coefficient():
    with pytest.raises(ValueError):
        appell_transform(gaussian_family(), 1.0, 1.0, A=0.0, B=0.0)
    with pytest.raises(ValueError):
        appell_transform(gaussian_family(), -1.0, 1.0)


def test_star_sharpness_product_across_rates_via_solver():
    # fitted product lands within 5% of 1/16 for alpha in {1/8, 1/4, 1/2}
    from graphlse import EvolutionConfig, GraphState, build_star, evolve_graph
    from graphlse.uncertainty import magnitude_window

    for alpha in (0.125, 0.25, 0.5):
        ex = sharp_example_star(alpha, 3)
        graph, grid = build_star(3, 40.0, 0.02)
        state = GraphState.sample(graph, grid, ex.u0)
        out = evolve_graph(state, 1.0, EvolutionConfig(dt=1e-3))
        x = grid.x(0)
        a_hat = fit_gaussian_decay(x, state.values[0], "+inf", magnitude_window(x, state.values[0], 1e-5)).rate
        b_hat = fit_gaussian_decay(x, out.values[0], "+inf", magnitude_window(x, out.values[0], 1e-5)).rate
        assert abs(a_hat * b_hat - 1.0 / 16.0) <= 0.05 / 16.0
