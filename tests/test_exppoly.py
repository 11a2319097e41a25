import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphlse import (
    ExpPolynomial,
    PiecewiseCoefficient,
    alpha_prefactor,
    chain_lower_entries,
    chain_product,
    coefficients_C,
    determinant_product,
    ef_recursion,
    invert_E,
    transfer_matrix,
    write_series_csv,
)
from graphlse._report import read_csv
from graphlse.exppoly import _top_E

configs = st.tuples(
    st.lists(st.floats(0.3, 3.0), min_size=2, max_size=6),
    st.floats(-8.0, 8.0),
    st.floats(0.2, 2.0),
)


def test_layer_params_basic():
    p = PiecewiseCoefficient((1.0, 2.0), 1.0)
    assert p.delta == (-1.0,)
    assert p.eps == (3.0,)
    assert p.gamma == (-1.0 / 3.0,)
    assert complex(p.lam(1, 0.0)) == 1.0
    assert complex(p.mu(1, 0.0)) == pytest.approx(-1.0 / 3.0)


def test_layer_params_equal_layers_trivial():
    p = PiecewiseCoefficient((1.7, 1.7, 1.7), 0.5)
    assert p.gamma == (0.0, 0.0)


def test_layer_params_rejects_nonpositive():
    with pytest.raises(ValueError):
        PiecewiseCoefficient((1.0, -2.0), 1.0)


@given(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=8), st.floats(-20, 20))
@settings(max_examples=60, deadline=None)
def test_gamma_magnitude_below_one_and_phases(a, xi):
    p = PiecewiseCoefficient(a, 1.0)
    for j in range(1, p.n_layers):
        assert abs(p.gamma[j - 1]) < 1.0
        assert abs(abs(complex(p.lam(j, xi))) - 1.0) < 1e-12
        assert abs(abs(complex(p.mu(j, xi))) - abs(p.gamma[j - 1])) < 1e-12


def test_transfer_matrix_values_at_zero():
    p = PiecewiseCoefficient((1.0, 2.0), 1.0)
    M = transfer_matrix(1, 0.0, p)
    np.testing.assert_allclose(M, 1.5 * np.array([[1.0, -1.0 / 3.0], [-1.0 / 3.0, 1.0]]))


def test_transfer_matrix_determinant_oracle():
    # direct 2x2 determinant: det T_j = a_{j+1} / a_j at every frequency
    p = PiecewiseCoefficient((1.0, 2.0), 1.0)
    for xi in (0.0, 0.3, -2.7):
        det = np.linalg.det(transfer_matrix(1, xi, p))
        assert det == pytest.approx(2.0, abs=1e-13)


def test_transfer_matrix_equal_layers_identity():
    p = PiecewiseCoefficient((0.9, 0.9), 1.0)
    np.testing.assert_allclose(transfer_matrix(1, 1.3, p), np.eye(2), atol=1e-15)


def test_transfer_matrix_index_range():
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        transfer_matrix(0, 0.0, p)
    with pytest.raises(ValueError):
        transfer_matrix(3, 0.0, p)


def test_chain_product_single():
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    np.testing.assert_allclose(chain_product(1, 1, 0.4, p), transfer_matrix(1, 0.4, p))
    with pytest.raises(ValueError):
        chain_product(1, 2, 0.4, p)


def test_chain_conjugate_structure():
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    M = chain_product(2, 1, 0.7, p)
    assert abs(M[0, 0] - np.conj(M[1, 1])) < 1e-14
    assert abs(M[0, 1] - np.conj(M[1, 0])) < 1e-14


def test_chain_determinant_121():
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    for xi in (0.0, 0.9, 5.2):
        M = chain_product(2, 1, xi, p)
        val = abs(M[0, 0]) ** 2 - abs(M[1, 0]) ** 2
        assert val == pytest.approx(1.0, abs=1e-12)
    assert determinant_product(2, 1, p) == pytest.approx(1.0)


@given(configs)
@settings(max_examples=80, deadline=None)
def test_chain_structure_and_determinant_random(cfg):
    a, xi, l = cfg
    p = PiecewiseCoefficient(a, l)
    n = p.n_layers
    for k in range(1, n):
        for j in range(k, n):
            M = chain_product(j, k, xi, p)
            assert abs(M[0, 0] - np.conj(M[1, 1])) < 1e-12
            assert abs(M[0, 1] - np.conj(M[1, 0])) < 1e-12
            det = abs(M[0, 0]) ** 2 - abs(M[1, 0]) ** 2
            assert det == pytest.approx(determinant_product(j, k, p), rel=1e-11, abs=1e-12)


def test_ef_seed_values():
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    E, F = ef_recursion(1, 1, p)
    assert sum(E.terms.values()) == 1.0
    assert sum(F.terms.values()) == pytest.approx(p.gamma[0])
    E2, F2 = ef_recursion(2, 2, p)
    assert sum(F2.terms.values()) == pytest.approx(p.gamma[1])


def test_ef_equal_layers_trivial():
    p = PiecewiseCoefficient((1.3, 1.3, 1.3, 1.3), 1.0)
    E, F = ef_recursion(3, 1, p)
    xi = np.linspace(-4, 4, 64)
    np.testing.assert_allclose(E(xi), 1.0)
    np.testing.assert_allclose(F(xi), 0.0, atol=1e-16)


def test_ef_closed_form_reproduces_chain_121():
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    rng = np.random.default_rng(0)
    for xi in rng.uniform(-10, 10, size=50):
        M = chain_product(2, 1, xi, p)
        b, abar = chain_lower_entries(2, 1, xi, p)
        assert abs(M[1, 0] - b) <= 1e-13
        assert abs(M[1, 1] - abar) <= 1e-13


@given(configs)
@settings(max_examples=60, deadline=None)
def test_ef_closed_form_random(cfg):
    a, xi, l = cfg
    p = PiecewiseCoefficient(a, l)
    n = p.n_layers
    for k in range(1, n):
        for j in range(k, n):
            M = chain_product(j, k, xi, p)
            b, abar = chain_lower_entries(j, k, xi, p)
            assert abs(M[1, 0] - b) < 1e-11
            assert abs(M[1, 1] - abar) < 1e-11


def test_exppoly_algebra():
    p = PiecewiseCoefficient((1.0, 2.0, 0.5, 1.0), 1.0)
    E, F = ef_recursion(3, 1, p)
    xi = np.linspace(-3, 3, 11)
    np.testing.assert_allclose((E * E)(xi), E(xi) ** 2, atol=1e-13)
    np.testing.assert_allclose((E + E)(xi), 2 * E(xi), atol=1e-14)
    assert sum(E.terms.values()) == pytest.approx(complex(E(0.0)))
    with pytest.raises(ValueError):
        E * F  # opposite sign lattices


def test_coefficients_c11_constant():
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    xi = np.linspace(-5, 5, 33)
    cm, cp = coefficients_C(1, xi, p)
    np.testing.assert_allclose(cm, 1.0 / (2 * math.pi))
    assert np.max(np.abs(cp)) > 0


def test_coefficients_equal_layers():
    p = PiecewiseCoefficient((0.8, 0.8, 0.8), 1.0)
    xi = np.linspace(-5, 5, 17)
    cm1, cp1 = coefficients_C(1, xi, p)
    np.testing.assert_allclose(cp1, 0.0, atol=1e-16)
    cmn, cpn = coefficients_C(3, xi, p)
    np.testing.assert_allclose(cmn, 0.8 / (2 * math.pi), atol=1e-15)
    np.testing.assert_allclose(cpn, 0.0, atol=1e-16)
    assert alpha_prefactor(3, p) == pytest.approx(1.0)


def test_coefficients_two_layer_value():
    # oracle: solve the 2x2 linear system from the matrix relation directly
    p = PiecewiseCoefficient((1.0, 2.0), 1.0)
    xi = 0.0
    cm1, cp1 = coefficients_C(1, xi, p)
    T = chain_product(1, 1, xi, p)
    # [C-_{1N}; 0] = T [a1/2pi; C+_{11}]  =>  C+_{11} = -T[1,0]/T[1,1] * a1/2pi
    expected = -T[1, 0] / T[1, 1] * (1.0 / (2 * math.pi))
    assert complex(cp1) == pytest.approx(complex(expected))
    assert complex(cp1) == pytest.approx(1.0 / (6.0 * math.pi))


@given(configs)
@settings(max_examples=40, deadline=None)
def test_coefficients_satisfy_matrix_relation(cfg):
    # push [C-_{11}; C+_{11}] through the full chain: row 2 must vanish and
    # row 1 must equal C-_{1N}
    a, xi, l = cfg
    p = PiecewiseCoefficient(a, l)
    N = p.n_layers
    cm1, cp1 = coefficients_C(1, xi, p)
    vec = np.array([complex(cm1), complex(cp1)])
    out = chain_product(N - 1, 1, xi, p) @ vec
    cmN, cpN = coefficients_C(N, xi, p)
    assert abs(out[1]) < 1e-12
    assert abs(out[0] - complex(cmN)) < 1e-11
    # interior coefficients: [C-_{1k}; C+_{1k}] propagated from the left
    for k in range(2, N):
        cmk, cpk = coefficients_C(k, xi, p)
        vk = chain_product(k - 1, 1, xi, p) @ vec
        assert abs(vk[0] - complex(cmk)) < 1e-11
        assert abs(vk[1] - complex(cpk)) < 1e-11


def test_invert_two_layers_is_one():
    p = PiecewiseCoefficient((1.0, 2.0), 1.0)
    s = invert_E(p, 5)
    assert s.coefficients == {(): 1.0}
    assert s.residual_on(np.linspace(-10, 10, 101)) == 0.0


def test_invert_one_layer_is_one():
    s = invert_E(PiecewiseCoefficient((1.3,), 1.0), 6)
    assert s.coefficients == {(): 1.0}
    assert (s.rho, s.tail_bound) == (0.0, 0.0)


def test_invert_equal_layers_is_one():
    p = PiecewiseCoefficient((1.0, 1.0, 1.0), 1.0)
    s = invert_E(p, 8)
    assert s.coefficients == {(0,): 1.0}


def _level_oracle(params, K):
    """1/E_{N-1,1} by the level-by-level geometric expansion
    1/E_{j,1} = (1/E_{j-1,1}) sum_n (-gamma_j e^{2 i xi l a_j} G_j)^n with
    G_j = e^{2 i xi l (a_2+...+a_{j-1})} F_{j-1,1}/E_{j-1,1}, truncated at weight K."""
    zero = (0,) * max(params.n_layers - 2, 0)
    width = len(zero)

    def prune(p):
        return ExpPolynomial({i: c for i, c in p.terms.items() if sum(i) <= K}, p.sign, p.a_mid, p.l)

    one = ExpPolynomial({zero: 1.0}, +1, params.a_mid, params.l)
    inv = one
    for j in range(2, params.n_layers):
        _, F_prev = ef_recursion(j - 1, 1, params)
        G = prune(F_prev.reflect(tuple(1 if q < j - 2 else 0 for q in range(width))) * inv)
        unit = tuple(1 if q == j - 2 else 0 for q in range(width))
        step = ExpPolynomial({unit: -params.gamma[j - 1]}, +1, params.a_mid, params.l) * G
        term, series = one, one
        for _ in range(K):
            term = prune(term * step)
            series = series + term
        inv = prune(inv * series)
    return inv


def _neumann_oracle(params, K):
    """1/E_{N-1,1} by K Neumann passes S <- prune_K(1 - P S) from S = 1, with P = E_{N-1,1} - 1."""
    one = ExpPolynomial({(0,) * max(params.n_layers - 2, 0): 1.0}, +1, params.a_mid, params.l)

    def prune_K(p):
        return ExpPolynomial({i: c for i, c in p.terms.items() if sum(i) <= K}, p.sign, p.a_mid, p.l)

    P = _top_E(params) + (-1.0) * one
    S = one
    for _ in range(K):
        S = prune_K(one + (-1.0) * (P * S))
    return S


def _bits(poly):
    # repr of the complex value, so a signed zero counts
    return {idx: repr(complex(c)) for idx, c in poly.terms.items()}


# six layers stop at K = 12: at K = 24 they hold about 13,000 terms and the
# oracle takes seconds; the depth-2 fold covers six layers at K = 24
layered = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n), st.floats(0.2, 2.0), st.integers(0, 24 if n < 6 else 12)
    )
)


@given(layered)
@example(((1.0, 2.0, 4.0, 4.0, 2.0, 1.0), 0.25, 24))  # the depth-2 tree fold
@settings(max_examples=30, deadline=None)
def test_invert_is_the_neumann_series_bit_for_bit(cfg):
    a, l, K = cfg
    p = PiecewiseCoefficient(a, l)
    got, want = _bits(invert_E(p, K).poly), _bits(_neumann_oracle(p, K))
    assert got == want
    if p.n_layers <= 3:  # one middle layer: the same order too, so every sum over the series keeps its bits
        assert list(got) == list(want)


@given(st.lists(st.floats(0.3, 3.0), min_size=1, max_size=7), st.floats(0.2, 2.0))
@settings(max_examples=40, deadline=None)
def test_top_E_is_one_plus_terms_of_positive_weight(a, l):
    # the weight-by-weight solve in invert_E rests on this
    p = PiecewiseCoefficient(a, l)
    terms = dict(_top_E(p).terms)
    assert terms.pop((0,) * max(p.n_layers - 2, 0)) == 1.0
    assert all(sum(idx) >= 1 for idx in terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_invert_matches_level_oracle_and_truncated_identity(n):
    rng = np.random.default_rng(100 + n)
    K = 10
    p = PiecewiseCoefficient(rng.uniform(0.4, 2.5, size=n), float(rng.uniform(0.4, 1.5)))
    s = invert_E(p, K)
    oracle = _level_oracle(p, K)
    for idx in set(s.poly.terms) | set(oracle.terms):
        assert abs(s.poly.terms.get(idx, 0.0) - oracle.terms.get(idx, 0.0)) <= 1e-14
    # S * E = 1 up to weight K
    E = ef_recursion(n - 1, 1, p)[0] if n > 2 else ExpPolynomial({(): 1.0}, +1, (), p.l)
    zero = (0,) * max(n - 2, 0)
    for idx, c in (s.poly * E).terms.items():
        if sum(idx) <= K:
            assert abs(c - (1.0 if idx == zero else 0.0)) <= 1e-13


def test_invert_121_residual_and_bound():
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    s = invert_E(p, 20)
    grid = np.linspace(-8, 8, 2048)
    resid = s.residual_on(grid)
    assert resid <= 1e-6
    assert resid <= s.tail_bound
    assert s.rho == pytest.approx(0.6, abs=1e-12)  # the certificate is exact for three layers
    assert s.tail_bound == pytest.approx(0.6**21 / 0.4, rel=1e-12)


def test_invert_nonnegative_indices_and_real_coeffs():
    p = PiecewiseCoefficient((0.7, 1.3, 2.1, 0.9, 1.1), 0.7)
    s = invert_E(p, 12)
    for idx in s.poly.terms:
        assert min(idx) >= 0
    for c in s.poly.terms.values():
        assert abs(complex(c).imag) < 1e-12


@given(st.lists(st.floats(0.4, 2.5), min_size=3, max_size=6), st.floats(0.3, 1.5))
@settings(max_examples=15, deadline=None)
def test_contraction_below_one_random(a, l):
    # |E_j|^2 - |F_j|^2 = D_j on a dense grid, and the sampled |F_j / E_j|
    # never exceeds the certified rho < 1 (up to the rounding of the samples:
    # rho is attained for three layers)
    p = PiecewiseCoefficient(a, l)
    s = invert_E(p, 2)
    assert s.rho < 1.0
    grid = np.linspace(-40.0, 40.0, 8001)
    D = 1.0
    for j in range(1, p.n_layers):
        D *= 1.0 - p.gamma[j - 1] ** 2
        E, F = ef_recursion(j, 1, p)
        e, f = E(grid), F(grid)
        np.testing.assert_allclose(np.abs(e) ** 2 - np.abs(f) ** 2, D, rtol=1e-10)
        assert np.max(np.abs(f / e)) <= s.rho + 1e-14


def test_invert_rejects_contrast_beyond_double_precision():
    with pytest.raises(ValueError, match="layer contrast"):
        invert_E(PiecewiseCoefficient((1.0, 1e17, 1.0), 1.0), 4)


def test_invert_residual_within_bound_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(3, 6))
        p = PiecewiseCoefficient(rng.uniform(0.4, 2.5, size=n), float(rng.uniform(0.4, 1.5)))
        s = invert_E(p, 18)
        span = 2.0 * math.pi / (p.l * min(p.a_mid))
        grid = np.linspace(-2.0 * span, 2.0 * span, 1024)
        assert s.residual_on(grid) <= max(s.tail_bound, 1e-12)


def test_series_csv_dump(tmp_path):
    p = PiecewiseCoefficient((1.0, 2.0, 1.0), 1.0)
    s = invert_E(p, 6)
    path = tmp_path / "series.csv"
    write_series_csv(s, path)
    assert path.read_text().startswith("# tool=graphlse")
    meta, columns, rows = read_csv(path)
    assert (meta["N"], meta["a"], meta["l"], meta["K"]) == ("3", "[1.0 2.0 1.0]", "1.0", "6")
    assert float(meta["rho"]) == s.rho
    assert columns == ["n_2", "re_c", "im_c"]
    assert len(rows) == len(s.poly.terms)
