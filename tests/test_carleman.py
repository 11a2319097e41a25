from fractions import Fraction

import numpy as np
import pytest

from graphlse import (
    CarlemanWeight,
    WeightOverflowError,
    alpha_vectors,
    carleman_sides,
    gamma_star,
    membership_residual,
    sample_zcomp,
)
from graphlse.carleman import _bump012


def test_alpha_vectors_n4():
    av = alpha_vectors(4)
    assert av.vectors[0] == (1, -1, 1, -1)
    assert len(av.vectors) == 4
    assert av.vectors[1] == (-1, 1, -1, 1)


def test_alpha_vectors_n3():
    av = alpha_vectors(3)
    assert av.vectors[0] == (-1, -1, 2)
    assert set(av.vectors) == {(-1, -1, 2), (2, -1, -1), (-1, 2, -1)}
    total_sq = sum(v**2 for v in av.vectors[0])
    assert total_sq == 6
    for j in range(3):
        assert sum(av.vectors[k][j] ** 2 for k in range(3)) == 6


@pytest.mark.parametrize("n", range(2, 9))
def test_alpha_vector_invariants_exact(n):
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


def test_alpha_vectors_reject_small_n():
    with pytest.raises(ValueError):
        alpha_vectors(1)


def test_weight_properties():
    w = CarlemanWeight(mu=1.0, eps=0.5, R=4.0)
    av = alpha_vectors(3)
    t = np.linspace(0, 1, 11)
    # vertex slope sum: d/dx phi at x=0 is 2 mu alpha R t(1-t); the alphas sum
    # to zero inside every vector
    for k in range(3):
        slopes = sum(
            2.0 * w.mu * float(av.vectors[k][j]) * w.R * t * (1 - t) for j in range(3)
        )
        np.testing.assert_allclose(slopes, 0.0, atol=1e-14)
    # vertex value independent of (j, k)
    vals = {complex(w.phi(float(av.vectors[k][j]), 0.3, 0.0)) for k in range(3) for j in range(3)}
    assert len(vals) == 1
    with pytest.raises(ValueError):
        CarlemanWeight(mu=0.0, eps=0.5, R=1.0)


def test_bump_derivatives_by_finite_differences():
    s = np.linspace(-0.95, 0.95, 41)
    v, d1, d2 = _bump012(s)
    h = 1e-6
    vp, _, _ = _bump012(s + h)
    vm, _, _ = _bump012(s - h)
    np.testing.assert_allclose(d1, (vp - vm) / (2 * h), atol=1e-6, rtol=1e-5)
    np.testing.assert_allclose(d2, (vp - 2 * v + vm) / h**2, atol=1e-4, rtol=1e-4)
    v_out, d1_out, d2_out = _bump012(np.array([-1.0, 1.0, 2.0]))
    assert np.all(v_out == 0) and np.all(d1_out == 0) and np.all(d2_out == 0)


def test_sample_deterministic_and_admissible():
    a = sample_zcomp(4, seed=7)
    b = sample_zcomp(4, seed=7)
    t = np.linspace(0, 1, 101)
    x = np.linspace(0, 4, 101)
    np.testing.assert_array_equal(a.values(t, x), b.values(t, x))
    cont, flux = membership_residual(a)
    assert cont <= 1e-12
    assert flux <= 1e-12


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 3), (5, 11)])
def test_sample_membership(n, seed):
    cont, flux = membership_residual(sample_zcomp(n, seed))
    assert cont <= 1e-12
    assert flux <= 1e-12


def test_zero_sample_gives_zero_sides():
    s = sample_zcomp(3, 0)
    zero = type(s)(s.n_edges, (), s.support_x, s.seed)
    [m] = carleman_sides(zero, (CarlemanWeight(1.0, 0.5, 4.0),), alpha_vectors(3), nt=51, nx=101)
    assert m.lhs == 0.0 and m.rhs == 0.0


def test_edge_sums_match_values_and_defect():
    # the Gram form against the (n_edges, nt, nx) arrays it replaces, and the
    # sample with no terms, whose sums must be exactly zero
    t = np.linspace(0.0, 1.0, 101)
    x = np.linspace(0.0, 4.0, 301)
    samples = [sample_zcomp(n, seed) for n in range(2, 9) for seed in range(3)]
    s = samples[0]
    samples.append(type(s)(s.n_edges, (), s.support_x, s.seed))
    for s in samples:
        mass, defect = s.edge_sums(t, x)
        mass_ref = np.sum(np.abs(s.values(t, x)) ** 2, axis=0)
        defect_ref = np.sum(np.abs(s.defect(t, x)) ** 2, axis=0)
        assert mass.shape == defect.shape == (len(t), len(x))
        assert np.max(np.abs(mass - mass_ref)) <= 1e-13 * np.max(mass_ref)
        assert np.max(np.abs(defect - defect_ref)) <= 1e-13 * np.max(defect_ref)


def test_defect_matches_finite_differences():
    s = sample_zcomp(3, 5)
    t = np.linspace(0.2, 0.8, 7)
    x = np.linspace(0.3, 3.5, 9)
    d = s.defect(t, x)
    ht, hx = 1e-5, 1e-5
    qt = (s.values(t + ht, x) - s.values(t - ht, x)) / (2 * ht)
    qxx = (s.values(t, x + hx) - 2 * s.values(t, x) + s.values(t, x - hx)) / hx**2
    np.testing.assert_allclose(d, qt + 1j * qxx, atol=1e-4)


def test_inequality_holds_sampled():
    av3 = alpha_vectors(3)
    for seed in range(3):
        s = sample_zcomp(3, seed)
        [m] = carleman_sides(s, (CarlemanWeight(1.0, 0.5, 4.0),), av3)
        assert m.rhs >= m.lhs - m.quad_error
        assert m.margin > 0  # comfortably positive in practice


def test_sides_scale_quadratically_in_amplitude():
    s = sample_zcomp(4, 2)
    scaled = type(s)(
        s.n_edges,
        tuple(type(term)(tuple(3.0 * c for c in term.coeffs), term.time, term.space) for term in s.terms),
        s.support_x,
        s.seed,
    )
    w = CarlemanWeight(0.5, 0.25, 2.0)
    av = alpha_vectors(4)
    [m1] = carleman_sides(s, (w,), av, nt=101, nx=301)
    [m2] = carleman_sides(scaled, (w,), av, nt=101, nx=301)
    assert m2.lhs == pytest.approx(9.0 * m1.lhs, rel=1e-12)
    assert m2.rhs == pytest.approx(9.0 * m1.rhs, rel=1e-12)


def _n2_oracle(sample, weight, alphas, nt, nx):
    """Both sides and the stride-2 error estimate from the N^2 weights
    e^{2 phi_j^k}, each integrated against its own edge and re-evaluated on the
    coarse grid."""
    alpha = alphas.as_array()

    def both(t, x):
        q2 = np.abs(sample.values(t, x)) ** 2
        d2 = np.abs(sample.defect(t, x)) ** 2
        mass = rhs = 0.0
        for k in range(alphas.n_edges):
            for j in range(alphas.n_edges):
                w = np.exp(2.0 * weight.phi(alpha[k][j], t[:, None], x[None, :]))
                mass += np.trapezoid(np.trapezoid(w * q2[j], x, axis=-1), t)
                rhs += np.trapezoid(np.trapezoid(w * d2[j], x, axis=-1), t)
        return weight.lhs_prefactor * float(mass), float(rhs)

    t = np.linspace(0.0, 1.0, nt)
    x = np.linspace(0.0, sample.support_x, nx)
    lhs, rhs = both(t, x)
    lhs_c, rhs_c = both(t[::2], x[::2])
    return lhs, rhs, (abs(lhs - lhs_c) + abs(rhs - rhs_c)) / 3.0


def test_lhs_prefactor_identity():
    # one call over several weights gives, weight by weight and in order, the
    # N^2 sums over (k, j) of the weighted edge integrals, lhs carrying the
    # prefactor R^2 eps / 8 mu
    assert CarlemanWeight(1.0, 0.5, 2.0).lhs_prefactor == pytest.approx(0.25)
    weights = [CarlemanWeight(mu, eps, R) for mu, eps, R in [(1.0, 0.5, 2.0), (0.5, 0.25, 8.0), (2.0, 0.5, 4.0)]]
    for n in range(2, 9):
        av = alpha_vectors(n)
        s = sample_zcomp(n, n)
        margins = carleman_sides(s, weights, av, nt=101, nx=301)
        assert len(margins) == len(weights)
        for w, m in zip(weights, margins):
            lhs, rhs, err = _n2_oracle(s, w, av, nt=101, nx=301)
            assert m.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
            assert m.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
            assert m.margin == pytest.approx(rhs - lhs, rel=1e-12, abs=0.0)
            assert abs(m.quad_error - err) <= 1e-12 * (lhs + rhs)


def test_folded_time_grid_even_nt():
    # nt even: the fold pairs every row and leaves no middle row
    weights = [CarlemanWeight(mu, eps, R) for mu, eps, R in [(1.0, 0.5, 2.0), (0.5, 0.25, 8.0), (2.0, 0.5, 4.0)]]
    for n in range(2, 9):
        av = alpha_vectors(n)
        s = sample_zcomp(n, n)
        margins = carleman_sides(s, weights, av, nt=100, nx=300)
        for w, m in zip(weights, margins, strict=True):
            lhs, rhs, err = _n2_oracle(s, w, av, nt=100, nx=300)
            assert m.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
            assert m.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
            assert m.margin == pytest.approx(rhs - lhs, rel=1e-12, abs=0.0)
            assert abs(m.quad_error - err) <= 1e-12 * (lhs + rhs)


def test_overflow_guard():
    s = sample_zcomp(3, 0, x_max=12.0)
    with pytest.raises(WeightOverflowError, match="phi"):
        carleman_sides(s, (CarlemanWeight(4.0, 0.5, 8.0),), alpha_vectors(3), nt=51, nx=201)
