"""The step coefficient, layer transfer matrices and almost-periodic exponential polynomials.

``PiecewiseCoefficient`` is the one description of a line with N layers
sigma = a_k^{-2}: its layout and its jump data, read both by the transfer
matrices here and by the finite-difference solver; ``line_grid`` gives the
uniform nodes, 0 among them, that both solvers sample a line on.  The line
couples left- and right-moving plane-wave amplitudes across each jump
through a 2x2 transfer matrix.  Products of those matrices have entries
that are finite sums

    sum_m  c_m  exp(+-2 i xi l (m . a_mid)),   a_mid = (a_2, ..., a_{N-1}),

with integer multi-indices m, which this module manipulates exactly: the
E / F recursion that generates the entries, the scattering coefficients built
from them, and the Wiener-algebra inversion of the denominator entry
E_{N-1,1} whose coefficients define the layered propagation kernel.  The
inversion solves E S = 1 weight by weight up to a truncation weight; the
contraction ratio of its tail is certified from the determinant identity
|E_{j,1}|^2 - |F_{j,1}|^2 = prod_{m<=j} (1 - gamma_m^2) and needs no
frequency sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._report import write_csv

__all__ = [
    "PiecewiseCoefficient",
    "ExpPolynomial",
    "WienerSeries",
    "line_grid",
    "lattice_point",
    "transfer_matrix",
    "chain_product",
    "ef_recursion",
    "chain_lower_entries",
    "determinant_product",
    "alpha_prefactor",
    "coefficients_C",
    "invert_E",
    "write_series_csv",
]

PRUNE_TOL = 1e-16  # coefficients below this magnitude are dropped


@dataclass(frozen=True)
class PiecewiseCoefficient:
    """Step coefficient sigma = a_k^{-2} on the layers I_k, breakpoints spaced by l.

    I_1 = (-inf, 0), I_k = ((k-2) l, (k-1) l) for 2 <= k <= N-1 and
    I_N = ((N-2) l, inf); the a_k are positive.  The jump data of the
    junctions j = 1..N-1 are derived from them: delta_j = a_j - a_{j+1},
    eps_j = a_j + a_{j+1} and gamma_j = delta_j / eps_j, so |gamma_j| < 1.
    """

    a: tuple[float, ...]
    l: float = 1.0
    delta: tuple[float, ...] = field(init=False, repr=False, compare=False)
    eps: tuple[float, ...] = field(init=False, repr=False, compare=False)
    gamma: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        if not a:
            raise ValueError("need at least one layer")
        # a NaN fails every comparison, so it is refused here as well
        if not all(0.0 < v < math.inf for v in a):
            raise ValueError("layer amplitudes a_k must be positive and finite")
        if not 0.0 < self.l < math.inf:
            raise ValueError("breakpoint spacing must be positive and finite")
        delta = tuple(a[j] - a[j + 1] for j in range(len(a) - 1))
        eps = tuple(a[j] + a[j + 1] for j in range(len(a) - 1))
        gamma = tuple(d / e for d, e in zip(delta, eps))
        for name, value in (("a", a), ("l", float(self.l)), ("delta", delta), ("eps", eps), ("gamma", gamma)):
            object.__setattr__(self, name, value)

    @property
    def n_layers(self) -> int:
        return len(self.a)

    @property
    def a_mid(self) -> tuple[float, ...]:
        """The contraction vector (a_2, ..., a_{N-1}) of the exponent lattice."""
        return self.a[1:-1]

    @property
    def sigma_minus(self) -> float:
        return self.a[0] ** -2

    @property
    def sigma_plus(self) -> float:
        return self.a[-1] ** -2

    def interval(self, k: int) -> tuple[float, float]:
        """Ends of the layer I_k, k in 1..N; the outer layers are half-lines."""
        if not 1 <= k <= self.n_layers:
            raise ValueError(f"layer index {k} outside 1..{self.n_layers}")
        lo = -math.inf if k == 1 else (k - 2) * self.l
        hi = math.inf if k == self.n_layers else (k - 1) * self.l
        return lo, hi

    def breakpoints(self) -> np.ndarray:
        """Finite breakpoints 0, l, ..., (N-2) l: the inner ends of the layers (empty when N = 1)."""
        return np.array([self.interval(k)[1] for k in range(1, self.n_layers)], dtype=float)

    def sigma_at(self, x: np.ndarray) -> np.ndarray:
        """sigma at each point; a breakpoint counts to the layer on its right."""
        layer = np.searchsorted(self.breakpoints(), np.asarray(x, dtype=float), side="right")
        return np.asarray(self.a, dtype=float)[layer] ** -2.0

    def lam(self, j: int, xi) -> np.ndarray:
        """Unimodular phase exp(-i xi delta_j (j-1) l), j in 1..N-1."""
        self._check_j(j)
        return np.exp(-1j * np.asarray(xi, dtype=float) * self.delta[j - 1] * (j - 1) * self.l)

    def mu(self, j: int, xi) -> np.ndarray:
        """gamma_j exp(-i xi eps_j (j-1) l), magnitude |gamma_j|."""
        self._check_j(j)
        return self.gamma[j - 1] * np.exp(
            -1j * np.asarray(xi, dtype=float) * self.eps[j - 1] * (j - 1) * self.l
        )

    def _check_j(self, j: int) -> None:
        if not 1 <= j <= self.n_layers - 1:
            raise ValueError(f"junction index {j} outside 1..{self.n_layers - 1}")


def line_grid(L_left: float, L_right: float, h: float) -> np.ndarray:
    """Uniform nodes on [-L_left, L_right] with 0 on the grid."""
    if not all(math.isfinite(v) and v > 0 for v in (L_left, L_right, h)) or not math.isfinite(max(L_left, L_right) / h):
        raise ValueError(f"lengths {L_left}, {L_right} and spacing {h} must be positive, finite and not overflow")
    nl = round(L_left / h)
    nr = round(L_right / h)
    if abs(nl * h - L_left) > 1e-8 or abs(nr * h - L_right) > 1e-8:
        raise ValueError("domain ends must be integer multiples of h")
    return h * np.arange(-nl, nr + 1)


def lattice_point(idx: tuple[int, ...], a_mid: tuple[float, ...], l: float) -> float:
    """The point 2 l (m . a_mid) of the exponent lattice with multi-index m."""
    return 2.0 * l * sum(n * am for n, am in zip(idx, a_mid))


@dataclass(frozen=True)
class ExpPolynomial:
    """Finite sum  sum_m terms[m] exp(sign * 2 i xi l (m . a_mid)).

    Multi-indices m run over the middle layers; conjugation flips ``sign`` and
    conjugates the coefficients.  The value at xi = 0 is the coefficient sum.
    """

    terms: Mapping[tuple[int, ...], complex]
    sign: int
    a_mid: tuple[float, ...]
    l: float

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        width = len(self.a_mid)
        for idx in self.terms:
            if len(idx) != width:
                raise ValueError("multi-index width does not match a_mid")

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape, dtype=complex)
        for idx, c in self.terms.items():
            out += c * np.exp(self.sign * 1j * xi * lattice_point(idx, self.a_mid, self.l))
        return out

    def __add__(self, other: "ExpPolynomial") -> "ExpPolynomial":
        self._compatible(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return ExpPolynomial(_prune(out), self.sign, self.a_mid, self.l)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ExpPolynomial(
                _prune({k: other * v for k, v in self.terms.items()}), self.sign, self.a_mid, self.l
            )
        self._compatible(other)
        out: dict[tuple[int, ...], complex] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(i + j for i, j in zip(k1, k2))
                out[key] = out.get(key, 0.0) + v1 * v2
        return ExpPolynomial(_prune(out), self.sign, self.a_mid, self.l)

    __rmul__ = __mul__

    def reflect(self, shift: tuple[int, ...]) -> "ExpPolynomial":
        """Multiply by exp(-sign * 2 i xi l (shift . a_mid)) and flip the sign field.

        The new indices are shift - m; they must stay componentwise >= 0,
        which is exactly the support statement behind the kernel expansion.
        """
        out = {}
        for idx, c in self.terms.items():
            key = tuple(s - i for s, i in zip(shift, idx))
            if min(key, default=0) < 0:
                raise ValueError("reflection produced a negative multi-index")
            out[key] = out.get(key, 0.0) + c
        return ExpPolynomial(out, -self.sign, self.a_mid, self.l)

    def _compatible(self, other: "ExpPolynomial") -> None:
        if self.sign != other.sign or self.a_mid != other.a_mid or self.l != other.l:
            raise ValueError("exponential polynomials live on different lattices")


def _prune(terms: dict) -> dict:
    return {k: complex(v) for k, v in terms.items() if abs(v) > PRUNE_TOL}


def _zero_index(params: PiecewiseCoefficient) -> tuple[int, ...]:
    return (0,) * max(params.n_layers - 2, 0)


def transfer_matrix(j: int, xi: float, params: PiecewiseCoefficient) -> np.ndarray:
    """Conjugated transfer matrix across junction j at frequency xi.

    (eps_j / 2 a_j) [[lam_j, conj(mu_j)], [mu_j, conj(lam_j)]]; its determinant
    is a_{j+1}/a_j independently of xi.
    """
    params._check_j(j)
    lam = complex(params.lam(j, xi))
    mu = complex(params.mu(j, xi))
    pref = params.eps[j - 1] / (2.0 * params.a[j - 1])
    return pref * np.array([[lam, np.conj(mu)], [mu, np.conj(lam)]])


def chain_product(j: int, k: int, xi: float, params: PiecewiseCoefficient) -> np.ndarray:
    """Brute-force product T_j(xi) ... T_k(xi) (left multiplication), k <= j."""
    if k > j:
        raise ValueError("chain product needs k <= j")
    params._check_j(k)
    params._check_j(j)
    M = np.eye(2, dtype=complex)
    for m in range(k, j + 1):
        M = transfer_matrix(m, xi, params) @ M
    return M


def ef_recursion(j: int, k: int, params: PiecewiseCoefficient) -> tuple[ExpPolynomial, ExpPolynomial]:
    """Exact E_{j,k} (sign +1) and F_{j,k} (sign -1) polynomials, 1 <= k <= j <= N-1.

    Seeds E_{k,k} = 1, F_{k,k} = gamma_k; each junction m in (k, j] updates

        E_m = E_{m-1} + gamma_m e^{+2 i xi l (a_{k+1}+...+a_m)} F_{m-1}
        F_m = F_{m-1} + gamma_m e^{-2 i xi l (a_{k+1}+...+a_m)} E_{m-1}

    and all coefficients are real polynomials in the gamma's with multi-index
    entries in {0, 1}.
    """
    if not 1 <= k <= j <= params.n_layers - 1:
        raise ValueError(f"need 1 <= k <= j <= {params.n_layers - 1}")
    zero = _zero_index(params)
    width = len(zero)
    E = ExpPolynomial({zero: 1.0}, +1, params.a_mid, params.l)
    F = ExpPolynomial({zero: params.gamma[k - 1]}, -1, params.a_mid, params.l)
    for m in range(k + 1, j + 1):
        shift = [0] * width
        for q in range(k + 1, m + 1):
            shift[q - 2] = 1  # position of a_q inside a_mid
        shift = tuple(shift)
        g = params.gamma[m - 1]
        E_new = E + g * F.reflect(shift)
        F_new = F + g * E.reflect(shift)
        E, F = E_new, F_new
    return E, F


def chain_lower_entries(j: int, k: int, xi, params: PiecewiseCoefficient) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms of entries (2,1) and (2,2) of T_j ... T_k from the E/F polynomials."""
    E, F = ef_recursion(j, k, params)
    xi = np.asarray(xi, dtype=float)
    pref = 1.0
    lams = np.ones(xi.shape, dtype=complex)
    for m in range(k, j + 1):
        pref *= params.eps[m - 1] / (2.0 * params.a[m - 1])
        lams = lams * params.lam(m, xi)
    phase = np.exp(-2j * xi * params.l * (k - 1) * params.a[k - 1])
    entry_21 = pref * np.conj(lams) * phase * F(xi)
    entry_22 = pref * np.conj(lams) * np.conj(E(xi))
    return entry_21, entry_22


def determinant_product(j: int, k: int, params: PiecewiseCoefficient) -> float:
    """|A_{j,k}|^2 - |B_{j,k}|^2, which is xi independent:
    prod_{m=k..j} (eps_m / 2 a_m)^2 (1 - gamma_m^2)."""
    if not 1 <= k <= j <= params.n_layers - 1:
        raise ValueError("index out of range")
    out = 1.0
    for m in range(k, j + 1):
        out *= (params.eps[m - 1] / (2.0 * params.a[m - 1])) ** 2 * (1.0 - params.gamma[m - 1] ** 2)
    return out


def alpha_prefactor(k: int, params: PiecewiseCoefficient) -> float:
    """Transmission prefactor alpha_k = prod_{m<k} (eps_m / 2 a_m)(1 - gamma_m^2); alpha_1 = 1."""
    if not 1 <= k <= params.n_layers:
        raise ValueError("index out of range")
    out = 1.0
    for m in range(1, k):
        out *= params.eps[m - 1] / (2.0 * params.a[m - 1]) * (1.0 - params.gamma[m - 1] ** 2)
    return out


def _top_E(params: PiecewiseCoefficient) -> ExpPolynomial:
    """E_{N-1,1}, or the constant 1 when N <= 2 (E_{1,1} = 1; one layer has no junction)."""
    if params.n_layers <= 2:
        return ExpPolynomial({_zero_index(params): 1.0}, +1, params.a_mid, params.l)
    return ef_recursion(params.n_layers - 1, 1, params)[0]


def _denominator(params: PiecewiseCoefficient, xi) -> np.ndarray:
    """conj(E)_{N-1,1}(xi); its modulus is at least sqrt(prod_j (1 - gamma_j^2)) > 0."""
    return np.conj(_top_E(params)(xi))


def coefficients_C(k: int, xi, params: PiecewiseCoefficient) -> tuple[np.ndarray, np.ndarray]:
    """Scattering coefficients (C^-_{1k}(xi), C^+_{1k}(xi)) of the first-row kernels.

    C^-_{11} = a_1 / 2 pi and C^+_{1N} = 0 always; the rest are quotients of
    conjugated E / F polynomials against conj(E_{N-1,1}), scaled by alpha_k and
    the accumulated lambda phases.
    """
    N = params.n_layers
    if not 1 <= k <= N:
        raise ValueError("index out of range")
    xi = np.asarray(xi, dtype=float)
    c11 = params.a[0] / (2.0 * math.pi)
    ones = np.ones(xi.shape, dtype=complex)
    if N == 1:
        return c11 * ones, 0.0 * ones
    denom = _denominator(params, xi)
    if k == 1:
        _, F = ef_recursion(N - 1, 1, params)
        return c11 * ones, -c11 * F(xi) / denom
    lam_acc = np.ones(xi.shape, dtype=complex)
    for m in range(1, k):
        lam_acc = lam_acc * params.lam(m, xi)
    pref = alpha_prefactor(k, params) / np.conj(lam_acc) * c11
    if k == N:
        return pref / denom, 0.0 * ones
    E, F = ef_recursion(N - 1, k, params)
    cminus = pref * np.conj(E(xi)) / denom
    cplus = -pref * np.exp(-2j * xi * params.l * (k - 1) * params.a[k - 1]) * F(xi) / denom
    return cminus, cplus


@dataclass(frozen=True)
class WienerSeries:
    """Truncated nonnegative-index expansion of 1 / E_{N-1,1}.

    ``poly`` has sign +1 and real coefficients; the same coefficients expand
    1 / conj(E_{N-1,1}) with sign -1.  ``rho`` is a certified upper bound on
    sup_xi |F_{j,1}/E_{j,1}| over all frequencies and junctions j (see
    ``invert_E``) and ``tail_bound`` = rho^(order+1) / (1 - rho) is the
    geometric tail at that ratio.
    """

    poly: ExpPolynomial
    order: int
    rho: float
    tail_bound: float
    params: PiecewiseCoefficient

    @property
    def coefficients(self) -> dict[tuple[int, ...], float]:
        return {k: v.real for k, v in self.poly.terms.items()}

    def residual_on(self, xi) -> float:
        """max |S(xi) * conj(E_{N-1,1})(xi) - 1| over the given frequencies."""
        denom = _denominator(self.params, xi)
        val = np.conj(self.poly(xi))
        return float(np.max(np.abs(val * denom - 1.0)))


def invert_E(params: PiecewiseCoefficient, K: int) -> WienerSeries:
    """Wiener inversion of E_{N-1,1}, truncated at total multi-index weight K.

    E = 1 + P where every term of P has weight >= 1, so E S = 1 gives
    S_0 = 1 and S_w = -sum_j P_j S_{w-|j|}: one pass in increasing weight
    computes each coefficient once, from terms already final, and gives the
    K-fold Neumann iterate S <- prune_K(1 - P S) bit for bit.  All indices
    stay >= 0, all coefficients are real, and the terms come in order of
    weight.  The contraction ratio is certified without sampling
    frequencies: the phases are unimodular, so |E_{j,1}| <= ||E_{j,1}||_1,
    and |E_{j,1}|^2 - |F_{j,1}|^2 = D_j = prod_{m<=j} (1 - gamma_m^2) gives

        |F_{j,1}/E_{j,1}| <= rho = max_j sqrt(1 - D_j / ||E_{j,1}||_1^2) < 1,

    with equality for up to three layers.  ``tail_bound`` = rho^(K+1)/(1-rho).
    Raises ValueError when the layer contrast is so large that rho rounds to 1.
    """
    if K < 0:
        raise ValueError("truncation order must be >= 0")
    rho, D = 0.0, 1.0
    for j in range(1, params.n_layers):
        D *= 1.0 - params.gamma[j - 1] ** 2
        norm = sum(abs(c) for c in ef_recursion(j, 1, params)[0].terms.values())  # >= 1
        rho = max(rho, math.sqrt(1.0 - D / norm**2))
    if rho >= 1.0:
        contrast = max(params.a) / min(params.a)
        raise ValueError(
            f"layer contrast max(a)/min(a) = {contrast:.3g} is too large: "
            "the Wiener contraction bound rho rounds to 1 in double precision"
        )

    zero = _zero_index(params)
    P = [(j, sum(j), c) for j, c in _top_E(params).terms.items() if j != zero]
    levels = [_prune({zero: 1.0})]  # the kept terms of each weight
    for w in range(1, K + 1):
        level: dict[tuple[int, ...], complex] = {}
        for j, wj, c in P:
            if wj <= w:
                for i, s in levels[w - wj].items():
                    key = tuple(a + b for a, b in zip(j, i))
                    level[key] = level.get(key, 0.0) - c * s
        levels.append(_prune(level))
    poly = ExpPolynomial({i: s for level in levels for i, s in level.items()}, +1, params.a_mid, params.l)
    return WienerSeries(poly=poly, order=K, rho=rho, tail_bound=rho ** (K + 1) / (1.0 - rho), params=params)


def write_series_csv(series: WienerSeries, path, meta: dict | None = None) -> None:
    """Dump: meta lines N, a, l, K, rho (after ``meta``), then rows n_2..n_{N-1}, re_c, im_c."""
    p = series.params
    header = dict(meta or {})
    header.update(
        N=p.n_layers, a="[" + " ".join(repr(float(v)) for v in p.a) + "]", l=float(p.l),
        K=series.order, rho=float(series.rho),
    )
    rows = []
    for idx in sorted(series.poly.terms):
        c = complex(series.poly.terms[idx])
        rows.append((*idx, c.real, c.imag))
    write_csv(path, [f"n_{m}" for m in range(2, p.n_layers)] + ["re_c", "im_c"], rows, header)
