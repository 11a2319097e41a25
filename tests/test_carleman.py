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
from graphlse.carleman import ZcompSample, _bump012, _phi_peaks


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
@pytest.mark.parametrize("field", ["mu", "eps", "R"])
def test_weight_rejects_non_positive_or_non_finite(field, bad):
    # a NaN would also break the grouping of weights by (mu, R)
    kwargs = {"mu": 1.0, "eps": 0.5, "R": 4.0, field: bad}
    with pytest.raises(ValueError, match="positive and finite"):
        CarlemanWeight(**kwargs)


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


@pytest.mark.parametrize("n_bumps, least", [(2, 1.45), (0, 1.0)])
def test_sample_support_floor(n_bumps, least):
    # at the floor every seed draws a sample that vanishes at x = x_max; just
    # below it, and at a non-finite x_max, the call is refused before any
    # draw, whatever the seed
    t = np.linspace(0.0, 1.0, 51)
    for seed in range(50):
        s = sample_zcomp(3, seed, n_bumps=n_bumps, x_max=least)
        assert np.all(s.values(t, [least]) == 0.0)
    for x_max in (least - 0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match="x_max"):
            for seed in range(50):
                sample_zcomp(3, seed, n_bumps=n_bumps, x_max=x_max)


@pytest.mark.parametrize("n_bumps", [-1, -3])
def test_sample_refuses_a_negative_bump_count(monkeypatch, n_bumps):
    # refused before any draw, not read as 0 bumps
    def no_draws(seed):
        raise AssertionError("drew before checking n_bumps")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="n_bumps"):
        sample_zcomp(3, 0, n_bumps=n_bumps)


def test_sample_tables_are_checked_and_read_only():
    s = sample_zcomp(3, 0)
    assert s.coeffs.shape == (3, 4) and s.time.shape == (4, 2) and s.space.shape == (4, 3)
    with pytest.raises(ValueError, match="read-only"):
        s.coeffs[0, 0] = 0.0
    with pytest.raises(ValueError, match=r"coeffs \(n_edges, K\)"):
        ZcompSample(4, s.coeffs, s.time, s.space, s.support_x, s.seed)
    with pytest.raises(ValueError, match=r"space \(K, 3\)"):
        ZcompSample(3, s.coeffs, s.time, s.space[:, :2], s.support_x, s.seed)


def test_vertex_trace_matches_values_and_finite_differences():
    # the coefficients of no term sum to zero, so the flux sum cannot hide a
    # wrong slope: the odd profile's x-derivative at 0 is its bump(0) = 1, and
    # the bump centred at 0.3 has a nonzero slope at 0
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    time = [(0.5, 0.3), (0.45, 0.4), (0.55, 0.35)]
    s = ZcompSample(3, coeffs, time, [(0.0, 0.8, 0.0), (0.3, 0.6, 0.0), (0.0, 0.6, 1.0)], 4.0, 0)
    t = np.linspace(0.2, 0.8, 13)
    vals, ders = s.vertex_trace(t)
    h = 1e-5
    np.testing.assert_allclose(vals, s.values(t, [0.0])[:, :, 0], rtol=0.0, atol=1e-14)
    fd = (s.values(t, [h])[:, :, 0] - s.values(t, [-h])[:, :, 0]) / (2.0 * h)
    assert np.max(np.abs(ders)) > 0.1
    np.testing.assert_allclose(ders, fd, rtol=0.0, atol=1e-8)


def _zero_sample(s):
    """The sample s with no terms."""
    return ZcompSample(s.n_edges, s.coeffs[:, :0], s.time[:0], s.space[:0], s.support_x, s.seed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_sample_gives_zero_sides():
    # the support box is empty: every sum, the grouped eps factor's included,
    # is a sum of no terms
    zero = _zero_sample(sample_zcomp(3, 0))
    weights = (CarlemanWeight(1.0, 0.5, 4.0), CarlemanWeight(1.0, 0.25, 4.0), CarlemanWeight(2.0, 0.5, 2.0))
    for m in carleman_sides(zero, weights, alpha_vectors(3), nt=51, nx=101):
        assert m.lhs == 0.0 and m.rhs == 0.0 and m.quad_error == 0.0


def test_edge_sums_match_values_and_defect():
    # the Gram form against the (n_edges, nt, nx) arrays it replaces, and the
    # sample with no terms, whose sums must be exactly zero
    t = np.linspace(0.0, 1.0, 101)
    x = np.linspace(0.0, 4.0, 301)
    samples = [sample_zcomp(n, seed) for n in range(2, 9) for seed in range(3)]
    samples.append(_zero_sample(samples[0]))
    for s in samples:
        (U, V), (Ud, Vd) = s.edge_factors(t, x)
        mass, defect = U.T @ V, Ud.T @ Vd
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
    scaled = ZcompSample(s.n_edges, 3.0 * s.coeffs, s.time, s.space, s.support_x, s.seed)
    w = CarlemanWeight(0.5, 0.25, 2.0)
    av = alpha_vectors(4)
    [m1] = carleman_sides(s, (w,), av, nt=101, nx=301)
    [m2] = carleman_sides(scaled, (w,), av, nt=101, nx=301)
    assert m2.lhs == pytest.approx(9.0 * m1.lhs, rel=1e-12)
    assert m2.rhs == pytest.approx(9.0 * m1.rhs, rel=1e-12)


def _n2_oracle(sample, weights, alphas, nt, nx):
    """Per weight, both sides and the stride-2 error estimate from the N^2
    weights e^{2 phi_j^k}, each integrated against its own edge and
    re-evaluated on the coarse grid.  The sample is evaluated once per grid
    and shared by every weight."""
    alpha = alphas.as_array()

    def edge_squares(t, x):
        return t, x, np.abs(sample.values(t, x)) ** 2, np.abs(sample.defect(t, x)) ** 2

    def both(weight, t, x, q2, d2):
        mass = rhs = 0.0
        for k in range(alphas.n_edges):
            for j in range(alphas.n_edges):
                w = np.exp(2.0 * weight.phi(alpha[k][j], t[:, None], x[None, :]))
                mass += np.trapezoid(np.trapezoid(w * q2[j], x, axis=-1), t)
                rhs += np.trapezoid(np.trapezoid(w * d2[j], x, axis=-1), t)
        return weight.lhs_prefactor * float(mass), float(rhs)

    t = np.linspace(0.0, 1.0, nt)
    x = np.linspace(0.0, sample.support_x, nx)
    fine, coarse = edge_squares(t, x), edge_squares(t[::2], x[::2])
    out = []
    for weight in weights:
        lhs, rhs = both(weight, *fine)
        lhs_c, rhs_c = both(weight, *coarse)
        out.append((lhs, rhs, (abs(lhs - lhs_c) + abs(rhs - rhs_c)) / 3.0))
    return out


# two pairs share (mu, R), so that each group has a smallest-eps weight and
# one more; (2.0, 0.5, 4.0) is a group of one
ORACLE_WEIGHTS = [
    CarlemanWeight(mu, eps, R)
    for mu, eps, R in [(1.0, 0.5, 2.0), (0.5, 0.25, 8.0), (2.0, 0.5, 4.0), (1.0, 0.25, 2.0), (0.5, 1.0, 8.0)]
]


def test_lhs_prefactor_identity():
    # one call over several weights gives, weight by weight and in order, the
    # N^2 sums over (k, j) of the weighted edge integrals, lhs carrying the
    # prefactor R^2 eps / 8 mu
    assert CarlemanWeight(1.0, 0.5, 2.0).lhs_prefactor == pytest.approx(0.25)
    weights = ORACLE_WEIGHTS
    for n in range(2, 9):
        av = alpha_vectors(n)
        s = sample_zcomp(n, n)
        margins = carleman_sides(s, weights, av, nt=101, nx=301)
        assert len(margins) == len(weights)
        for m, (lhs, rhs, err) in zip(margins, _n2_oracle(s, weights, av, nt=101, nx=301), strict=True):
            assert m.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
            assert m.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
            assert m.margin == pytest.approx(rhs - lhs, rel=1e-12, abs=0.0)
            assert abs(m.quad_error - err) <= 1e-12 * (lhs + rhs)


def test_folded_time_grid_even_nt():
    # nt even: the fold pairs every row and leaves no middle row
    weights = ORACLE_WEIGHTS
    for n in range(2, 9):
        av = alpha_vectors(n)
        s = sample_zcomp(n, n)
        margins = carleman_sides(s, weights, av, nt=100, nx=300)
        for m, (lhs, rhs, err) in zip(margins, _n2_oracle(s, weights, av, nt=100, nx=300), strict=True):
            assert m.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
            assert m.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
            assert m.margin == pytest.approx(rhs - lhs, rel=1e-12, abs=0.0)
            assert abs(m.quad_error - err) <= 1e-12 * (lhs + rhs)


@pytest.mark.parametrize("n", range(2, 9))
def test_grouped_weights_match_one_call_per_weight(n):
    # three eps per (mu, R), one weight twice, in a shuffled order: each margin
    # is the one a call with that weight alone gives
    rng = np.random.default_rng(n)
    cells = [(mu, eps, R) for mu, R in [(0.5, 8.0), (1.0, 2.0), (2.0, 4.0)] for eps in (0.25, 0.5, 1.0)]
    cells.append(cells[4])
    weights = [CarlemanWeight(*cells[k]) for k in rng.permutation(len(cells))]
    av = alpha_vectors(n)
    s = sample_zcomp(n, n)
    margins = carleman_sides(s, weights, av, nt=101, nx=301)
    for w, m in zip(weights, margins, strict=True):
        [ref] = carleman_sides(s, [w], av, nt=101, nx=301)
        assert m.lhs == pytest.approx(ref.lhs, rel=1e-13, abs=0.0)
        assert m.rhs == pytest.approx(ref.rhs, rel=1e-13, abs=0.0)
        assert abs(m.quad_error - ref.quad_error) <= 1e-12 * (ref.lhs + ref.rhs)


def _covering_sample(n):
    """A sample whose time and space factors are nonzero on every node of the
    default [0, 1] x [0, 4] grid, so that its support box is the whole folded
    grid; the corrector's coefficients sum to zero, as in ``sample_zcomp``."""
    rng = np.random.default_rng(n)
    corr = rng.normal(size=n) + 1j * rng.normal(size=n)
    coeffs = np.stack([np.full(n, 1.0 + 0.5j), corr - corr.mean()], axis=1)
    return ZcompSample(n, coeffs, [(0.5, 0.6), (0.45, 0.7)], [(0.0, 4.5, 0.0), (0.0, 5.0, 1.0)], 4.0, seed=n)


@pytest.mark.parametrize(
    "sample, weights, nt, nx, covers",
    [
        # no space factor lives on x in about (0.9, 6.7), (7.7, 9.7) and (10.3, 12]; the
        # weights' peaks stay below the overflow limit on the whole grid
        (
            sample_zcomp(3, 0, x_max=12.0),
            [CarlemanWeight(0.25, 0.5, 2.0), CarlemanWeight(0.125, 0.25, 4.0), CarlemanWeight(0.25, 1.0, 2.0)],
            51,
            201,
            False,
        ),
        (_covering_sample(4), ORACLE_WEIGHTS, 101, 301, True),
    ],
    ids=["zero-gap", "full-grid"],
)
def test_support_box_matches_n2_oracle(sample, weights, nt, nx, covers):
    # the box drops the cells where the integrand is exactly zero, and only those
    t, x = np.linspace(0.0, 1.0, nt), np.linspace(0.0, sample.support_x, nx)
    _, (U, V) = sample.edge_factors(t, x)
    assert bool(np.all(np.any(U != 0.0, axis=0)) and np.all(np.any(V != 0.0, axis=0))) == covers
    av = alpha_vectors(sample.n_edges)
    margins = carleman_sides(sample, weights, av, nt=nt, nx=nx)
    for m, (lhs, rhs, err) in zip(margins, _n2_oracle(sample, weights, av, nt=nt, nx=nx), strict=True):
        assert m.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
        assert m.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
        assert abs(m.quad_error - err) <= 1e-12 * (lhs + rhs)


def _folded_grid(n, support_x, nt, nx):
    """(entries, tau, x) as carleman_sides builds them."""
    i = np.arange((nt + 1) // 2)
    tau = i * (nt - 1 - i) / (nt - 1) ** 2
    return np.unique(alpha_vectors(n).as_array()[0]), tau, np.linspace(0.0, support_x, nx)


@pytest.mark.parametrize(
    "n, support_x, nt, nx, cells",
    [
        (n, 4.0, 201, 801, [(mu, eps, R) for mu in (0.5, 1.0, 2.0) for eps in (0.25, 0.5) for R in (2.0, 4.0, 8.0)])
        for n in (3, 4, 5)
    ]
    + [(3, 12.0, 51, 201, [(4.0, 0.5, 8.0)])],
    ids=["c09-n3", "c09-n4", "c09-n5", "overflow-guard"],
)
def test_end_column_peak_is_grid_peak(n, support_x, nt, nx, cells):
    entries, tau, x = _folded_grid(n, support_x, nt, nx)
    for cell in cells:
        w = CarlemanWeight(*cell)
        grid_peak = max(float(np.max(w._phi_tau(b, tau[:, None], x[None, :]))) for b in entries)
        assert _phi_peaks([w], entries, tau, x)[0] == grid_peak


def test_overflow_guard():
    s = sample_zcomp(3, 0, x_max=12.0)
    with pytest.raises(WeightOverflowError, match="phi"):
        carleman_sides(s, (CarlemanWeight(4.0, 0.5, 8.0),), alpha_vectors(3), nt=51, nx=201)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_off_the_support_still_raises():
    # the terms of sample_zcomp(3, 0) on [0, 12]: nothing lives beyond x = 4,
    # where phi stays far below the limit, but the check runs over the whole
    # grid, so the weight is refused with the grid peak in its message
    s = sample_zcomp(3, 0)
    s = ZcompSample(s.n_edges, s.coeffs, s.time, s.space, 12.0, s.seed)
    w = CarlemanWeight(1.0, 0.5, 2.0)
    entries, tau, x = _folded_grid(3, 12.0, 51, 201)
    assert 2.0 * _phi_peaks([w], entries, tau, x[x <= 4.0])[0] < 700.0
    grid_peak = max(float(np.max(w._phi_tau(b, tau[:, None], x[None, :]))) for b in entries)
    assert 2.0 * grid_peak > 700.0
    message = f"max phi = {grid_peak:.1f} would overflow exp; reduce mu, R or the support"
    with pytest.raises(WeightOverflowError) as refused:
        carleman_sides(s, (w,), alpha_vectors(3), nt=51, nx=201)
    assert str(refused.value) == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "late",
    [CarlemanWeight(8.0, 0.5, 4.0), CarlemanWeight(1.0, 0.25, 48.0)],
    ids=["own-group", "shares-mu-r"],
)
def test_overflow_of_a_later_weight(late):
    # every peak is checked before any exp: the first weight, and the second in
    # the "shares-mu-r" case, pass the check, and the call raises the message a
    # call with the late weight alone raises.  At eps = 4 the pair (1, 48)
    # peaks at phi = 220; at eps = 0.25, at 355.
    s = sample_zcomp(3, 0)
    av = alpha_vectors(3)
    with pytest.raises(WeightOverflowError) as alone:
        carleman_sides(s, [late], av, nt=51, nx=201)
    with pytest.raises(WeightOverflowError) as grouped:
        carleman_sides(s, [CarlemanWeight(1.0, 4.0, 48.0), CarlemanWeight(1.0, 0.5, 4.0), late], av, nt=51, nx=201)
    assert str(grouped.value) == str(alone.value)
    [ok] = carleman_sides(s, [CarlemanWeight(1.0, 4.0, 48.0)], av, nt=51, nx=201)
    assert np.isfinite(ok.lhs) and np.isfinite(ok.rhs)
