"""Carleman weights on star graphs and numerical verification of the inequality.

The weighted a-priori estimate

    (R^2 eps / 8 mu) sum_k || e^{phi^k} q ||^2  <=  sum_k || e^{phi^k} (d_t + i Laplacian) q ||^2

holds for every admissible q (continuous at the vertex with zero flux there),
all mu, eps, R > 0, with the N weights phi^k built from cyclic shifts of one
integer-ish direction vector per edge.  This module constructs those vectors
exactly, draws random admissible samples (a coefficient matrix over a table of
time envelopes and a table of space profiles, all with closed-form
derivatives), and evaluates both sides by tensor trapezoid quadrature.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _GuardError

__all__ = [
    "AlphaVectors",
    "CarlemanWeight",
    "ZcompSample",
    "CarlemanMargin",
    "WeightOverflowError",
    "alpha_vectors",
    "sample_zcomp",
    "membership_residual",
    "carleman_sides",
]


class WeightOverflowError(_GuardError, ArithmeticError):
    """exp(phi) overflows on the sample support; shrink the support or mu, R."""


@dataclass(frozen=True)
class AlphaVectors:
    """The N cyclic direction vectors, stored as exact rationals.

    For an even number of edges the base vector is (1, -1, ..., 1, -1); for
    N = 2m+1 it is m+1 entries of -1 followed by m entries of (m+1)/m.  Each
    vector sums to zero, every component slot sums to zero across the family,
    sum_k (alpha_j^k)^2 does not depend on j, every entry has magnitude >= 1
    and the largest magnitude is twice the critical star exponent.
    """

    n_edges: int
    vectors: tuple[tuple[Fraction, ...], ...]

    def as_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.vectors])


def alpha_vectors(n_edges: int) -> AlphaVectors:
    if n_edges < 2:
        raise ValueError("a star needs at least 2 edges")
    if n_edges % 2 == 0:
        base = tuple(Fraction(1) if j % 2 == 0 else Fraction(-1) for j in range(n_edges))
    else:
        m = (n_edges - 1) // 2
        base = tuple(Fraction(-1) for _ in range(m + 1)) + tuple(
            Fraction(m + 1, m) for _ in range(m)
        )
    vectors = []
    row = base
    for _ in range(n_edges):
        vectors.append(row)
        row = row[-1:] + row[:-1]
    return AlphaVectors(n_edges, tuple(vectors))


@dataclass(frozen=True)
class CarlemanWeight:
    """phi_j^k(t,x) = mu (alpha_j^k x + R t(1-t))^2 - (1+eps) R^2 t(1-t) / (16 mu)."""

    mu: float
    eps: float
    R: float

    def __post_init__(self):
        # a NaN fails every comparison, so it is refused here as well
        if not all(0.0 < v < np.inf for v in (self.mu, self.eps, self.R)):
            raise ValueError("mu, eps and R must be positive and finite")

    def phi(self, alpha_jk: float, t, x):
        t = np.asarray(t, dtype=float)
        return self._phi_tau(alpha_jk, t * (1.0 - t), x)

    def _phi_tau(self, alpha_jk: float, tau, x):
        """phi with t entering only through tau = t(1-t), so phi(t) = phi(1-t)."""
        x = np.asarray(x, dtype=float)
        return self.mu * (alpha_jk * x + self.R * tau) ** 2 - self.c * tau

    @property
    def c(self) -> float:
        """The rate c = (1+eps) R^2 / (16 mu) of the term -c t(1-t) in phi."""
        return (1.0 + self.eps) * self.R**2 / (16.0 * self.mu)

    @property
    def lhs_prefactor(self) -> float:
        return self.R**2 * self.eps / (8.0 * self.mu)


# ---------------------------------------------------------------------------
# admissible samples with closed-form derivatives
# ---------------------------------------------------------------------------


def _bump012(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """value, first and second derivative of exp(1 - 1/(1-s^2)) extended by zero."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0 - 1e-12
    v = np.zeros(s.shape)
    d1 = np.zeros(s.shape)
    d2 = np.zeros(s.shape)
    si = s[inside]
    g = 1.0 - si**2
    val = np.exp(1.0 - 1.0 / g)
    p1 = -2.0 * si / g**2  # d/ds (1 - 1/g)
    p2 = -2.0 / g**2 - 8.0 * si**2 / g**3
    v[inside] = val
    d1[inside] = p1 * val
    d2[inside] = (p2 + p1**2) * val
    return v, d1, d2


@dataclass(frozen=True, eq=False)
class ZcompSample:
    """Admissible family q_j(t, x) = sum_a C_ja T_a(t) X_a(x): smooth, compactly
    supported inside (0,1) x (0, support_x), equal at the vertex, zero flux there.

    Three read-only tables hold the K terms: ``coeffs`` C, shape (n_edges, K);
    ``time`` (K, 2), each envelope's centre and width, T_a(t) = bump((t -
    centre) / width); ``space`` (K, 3), each profile's centre, width and odd
    flag, X_a(x) = bump((x - centre) / width), times x where the flag is 1;
    bump is ``_bump012``'s.  ``sample_zcomp`` draws a vertex profile shared by
    all edges (zero slope at 0), interior bumps vanishing identically near 0,
    and one odd corrector x*bump whose per-edge coefficients sum to zero.  All
    derivatives are closed form (``factors``), so the quadrature of
    (d_t + i d_xx) q carries no differencing error.
    """

    n_edges: int
    coeffs: np.ndarray
    time: np.ndarray
    space: np.ndarray
    support_x: float
    seed: int

    def __post_init__(self):
        tables = [np.array(a, dtype=d) for a, d in ((self.coeffs, complex), (self.time, float), (self.space, float))]
        K = len(tables[1])
        if [table.shape for table in tables] != [(self.n_edges, K), (K, 2), (K, 3)]:
            raise ValueError("a sample needs coeffs (n_edges, K), time (K, 2) and space (K, 3)")
        for name, table in zip(("coeffs", "time", "space"), tables):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def factors(self, t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """(T, T', X, X', X'') of the K terms: T and T' of shape (K, nt) on t,
        X, X' and X'' of shape (K, nx) on x."""
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        tc, tw = self.time[:, 0:1], self.time[:, 1:2]
        T, Tp, _ = _bump012((t - tc) / tw)
        c, w, odd = self.space[:, 0:1], self.space[:, 1:2], self.space[:, 2:3] == 1.0
        v, d1, d2 = _bump012((x - c) / w)
        w2 = np.float_power(w, 2)  # libm pow, as Python's w**2; w * w rounds otherwise for ~1 width in 1200
        X = np.where(odd, x * v, v)
        Xp = np.where(odd, v + x * d1 / w, d1 / w)
        Xpp = np.where(odd, 2.0 * d1 / w + x * d2 / w2, d2 / w2)
        return T, Tp / tw, X, Xp, Xpp

    def values(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """q on the tensor grid, shape (n_edges, nt, nx)."""
        T, _, X, _, _ = self.factors(t, x)
        return np.einsum("ja,atx->jtx", self.coeffs, T[:, :, None] * X[:, None, :])

    def defect(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(d_t + i d_xx) q on the tensor grid, shape (n_edges, nt, nx)."""
        T, Tp, X, _, Xpp = self.factors(t, x)
        block = Tp[:, :, None] * X[:, None, :] + 1j * T[:, :, None] * Xpp[:, None, :]
        return np.einsum("ja,atx->jtx", self.coeffs, block)

    def edge_factors(self, t: np.ndarray, x: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """((U, V) of the mass, (U, V) of the defect): on the tensor grid,
        sum_j |q_j|^2 = U.T @ V and sum_j |(d_t + i d_xx) q_j|^2 = Ud.T @ Vd,
        with U of shape (M^2, nt) and V of shape (M^2, nx).

        q_j = sum_a C_ja T_a(t) X_a(x), so sum_j |q_j|^2 = sum_{a,a'} Re(G)_{aa'}
        (T_a T_a')(t) (X_a X_a')(x) with G = C^H C and M = K; the defect is the
        same form over the M = 2K terms T'_a X_a, T_a X''_a with coefficients
        [C, iC].  No (n_edges, nt, nx) array is built."""
        T, Tp, X, _, Xpp = self.factors(t, x)
        C = self.coeffs
        mass = _gram_factors(C, T, X)
        defect = _gram_factors(np.hstack([C, 1j * C]), np.vstack([Tp, T]), np.vstack([X, Xpp]))
        return mass, defect

    def vertex_trace(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values (n_edges, nt), x-derivatives (n_edges, nt)) at x = 0."""
        T, _, X, Xp, _ = self.factors(t, [0.0])
        return np.einsum("ja,at,a->jt", self.coeffs, T, X[:, 0]), np.einsum("ja,at,a->jt", self.coeffs, T, Xp[:, 0])


def _gram_factors(C: np.ndarray, U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(UU, VV) with UU.T @ VV = sum_j |sum_a C_ja U_a(t) V_a(x)|^2, for real
    U (M, nt) and V (M, nx): the M^2 products U_a U_a' and Re(C^H C)_aa' V_a V_a'."""
    M = C.shape[1]
    G = (C.conj().T @ C).real
    UU = (U[:, None, :] * U[None, :, :]).reshape(M * M, U.shape[1])
    VV = (G[:, :, None] * V[:, None, :] * V[None, :, :]).reshape(M * M, V.shape[1])
    return UU, VV


def sample_zcomp(n_edges: int, seed: int, n_bumps: int = 2, x_max: float = 4.0) -> ZcompSample:
    """Deterministic admissible sample for the given seed, supported inside
    (0, x_max); x_max must be at least 1.45 with interior bumps, 1.0 without."""
    if n_edges < 2:
        raise ValueError("a star needs at least 2 edges")
    if n_bumps < 0:
        raise ValueError(f"n_bumps = {n_bumps} must be at least 0")
    least = 1.45 if n_bumps > 0 else 1.0
    if not least <= x_max < np.inf:
        raise ValueError(f"x_max = {x_max} must be finite and at least {least}, the room the sample's bumps need")
    rng = np.random.default_rng(seed)

    def cnormal(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    def envelope():
        width = rng.uniform(0.2, 0.3)
        return rng.uniform(width + 0.02, 0.98 - width), width

    coeffs = [np.full(n_edges, complex(cnormal(())))]
    time = [envelope()]
    space = [(0.0, rng.uniform(0.6, 1.0), 0.0)]
    for _ in range(n_bumps):
        width = rng.uniform(0.3, 0.6)
        space.append((rng.uniform(width + 0.2, x_max - width - 0.05), width, 0.0))
        coeffs.append(cnormal(n_edges))
        time.append(envelope())
    corr = cnormal(n_edges)
    coeffs.append(corr - np.mean(corr))
    time.append(envelope())
    space.append((0.0, rng.uniform(0.4, 0.8), 1.0))
    return ZcompSample(n_edges, np.array(coeffs).T, time, space, float(x_max), int(seed))


def membership_residual(sample: ZcompSample, t: np.ndarray | None = None) -> tuple[float, float]:
    """(worst vertex-value mismatch, worst flux sum) over the time grid."""
    if t is None:
        t = np.linspace(0.0, 1.0, 401)
    vals, ders = sample.vertex_trace(t)
    cont = float(np.max(np.abs(vals - vals[0:1, :])))
    flux = float(np.max(np.abs(np.sum(ders, axis=0))))
    return cont, flux


# ---------------------------------------------------------------------------
# quadrature of the inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CarlemanMargin:
    lhs: float
    rhs: float
    quad_error: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


_EXP_LIMIT = 700.0


def _trapezoid_weights(s: np.ndarray) -> np.ndarray:
    """Weights w with w @ f equal to the trapezoid rule for f sampled on s."""
    w = np.zeros(len(s))
    h = np.diff(s) / 2.0
    w[:-1] += h
    w[1:] += h
    return w


def _phi_peaks(weights: Sequence[CarlemanWeight], entries: np.ndarray, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The largest phi(b) of each weight over the grid tau x x, for b in ``entries``.

    mu (b x + R tau)^2 is convex in x, so on every row phi peaks at one of the
    two end columns; rounding is monotone, so the computed row peaks there too
    and each peak equals the maximum over the whole grid bit for bit.  All
    weights are evaluated in one array expression, element by element the
    arithmetic of ``CarlemanWeight._phi_tau``.
    """
    mu, R, c = np.array([(w.mu, w.R, w.c) for w in weights]).reshape(-1, 3).T[:, :, None, None, None]
    tau = tau[:, None]
    phi = mu * (entries[:, None, None] * x[[0, -1]] + R * tau) ** 2 - c * tau
    return phi.max(axis=(1, 2, 3))


def carleman_sides(
    sample: ZcompSample,
    weights: Sequence[CarlemanWeight],
    alphas: AlphaVectors,
    nt: int = 201,
    nx: int = 801,
) -> list[CarlemanMargin]:
    """Evaluate both sides of the inequality for each weight, by tensor
    trapezoid quadrature; the margins come back in the order of ``weights``.

    The family is cyclic, so on every edge j the column {alpha_j^k}_k is the
    base vector in some order and sum_k e^{2 phi_j^k} is one weight
    W = sum_b m_b e^{2 phi(b)}, with b the distinct base entries and m_b
    their multiplicities.  Both sides integrate W against the edge sums
    sum_j |q_j|^2 and sum_j |(d_t + i d_xx) q_j|^2, which come from the
    sample's Gram form (``ZcompSample.edge_factors``).

    The edge sums and the trapezoid weights are evaluated once per call and
    shared by every weight: they form one array B of four rows per time
    sample.  W depends on t only through tau = t(1-t), which is symmetric
    under t <-> 1-t, so the rows of B are folded (B[i] + B[nt-1-i], the
    middle row alone when nt is odd) onto half = (nt+1)//2 rows, with
    tau_i = i (nt-1-i) / (nt-1)^2.  No (nt, nx) array is built: the
    trapezoid weights are a product of a t factor and an x factor, so the
    fold and the t weights act on the sample's (M^2, nt) Gram factors
    (``ZcompSample.edge_factors``), the x weights on its (M^2, nx) ones, and
    each of the four slices of B is one product of the two.

    Every weight's peak of phi is checked first, over the whole folded grid
    and before any exp is taken, in one array expression; each row's peak
    sits at its two end columns (``_phi_peaks``).  The first weight, in the
    order of ``weights``, with 2 max phi > 700 raises ``WeightOverflowError``.

    Everything after the check lives on the support box of the integrand:
    the folded rows i where column i or nt-1-i of a time factor is nonzero,
    crossed with the columns where a space factor is nonzero.  The sample's
    bumps are exactly 0.0 off their supports, so B is exactly zero on every
    dropped cell, and W, which passed the check on the whole grid, is finite
    there: dropping those cells changes only the order of the sums.  On the
    nine samples N = 3, 4, 5, seeds 0-2, at the default grid the box holds
    39-66% of the folded cells; the zero sample's box is empty.

    phi = mu (b x + R tau)^2 - c tau with c = (1+eps) R^2 / (16 mu), so eps
    enters e^{2 phi} only through the row factor e^{-2 c tau}.  Weights that share (mu, R)
    form one group, taken in order of first appearance and held one at a
    time.  A group builds W on the box for its smallest c, c0 (its smallest
    eps), in two reused buffers: at most two exp grids, one per base entry,
    and exactly the W of that weight, which therefore cannot overflow.  One
    batched product gives the row sums P = B @ W, of shape (rows, 4); the
    c0 weight's four sums are P.sum(0) and every other weight's are
    exp(-2 (c - c0) tau) @ P.  A group of one weight is the single-weight case.

    The quadrature error is estimated by re-integrating on the stride-2
    subgrid t[::2], x[::2] (second-order quadrature, so a third of the
    difference bounds the fine-grid error); a negative margin smaller than
    that estimate is noise, anything beyond it is a genuine violation.
    """
    if alphas.n_edges != sample.n_edges:
        raise ValueError("alpha vectors and sample disagree on the edge count")
    if nt < 3 or nx < 3:
        raise ValueError("the stride-2 error estimate needs nt >= 3 and nx >= 3")
    t = np.linspace(0.0, 1.0, nt)
    x = np.linspace(0.0, sample.support_x, nx)
    half = (nt + 1) // 2
    i = np.arange(half)
    tau = i * (nt - 1 - i) / (nt - 1) ** 2
    entries, counts = np.unique(alphas.as_array()[0], return_counts=True)
    peaks = _phi_peaks(weights, entries, tau, x)
    over = np.flatnonzero(2.0 * peaks > _EXP_LIMIT)
    if over.size:
        raise WeightOverflowError(f"max phi = {peaks[over[0]]:.1f} would overflow exp; reduce mu, R or the support")

    fine = _trapezoid_weights(t), _trapezoid_weights(x)
    coarse = np.zeros(nt), np.zeros(nx)  # the stride-2 weights, zero off the subgrid
    coarse[0][::2], coarse[1][::2] = _trapezoid_weights(t[::2]), _trapezoid_weights(x[::2])
    mass, defect = sample.edge_factors(t, x)
    live_t = np.any(mass[0] != 0.0, axis=0) | np.any(defect[0] != 0.0, axis=0)
    rows = np.flatnonzero(live_t[:half] | live_t[::-1][:half])
    cols = np.flatnonzero(np.any(mass[1] != 0.0, axis=0) | np.any(defect[1] != 0.0, axis=0))
    tau, x = tau[rows], x[cols]  # from here on, every grid is the support box
    B = np.empty((len(rows), 4, len(cols)))
    for k, ((U, V), (gt, gx)) in enumerate(((mass, fine), (defect, fine), (mass, coarse), (defect, coarse))):
        Uf = U[:, :half] * gt[:half]
        Uf[:, : nt // 2] += U[:, ::-1][:, : nt // 2] * gt[::-1][: nt // 2]
        np.matmul(Uf[:, rows].T, V[:, cols] * gx[cols], out=B[:, k])

    groups: dict[tuple[float, float], list[int]] = {}
    for n, weight in enumerate(weights):
        groups.setdefault((weight.mu, weight.R), []).append(n)
    W = np.empty((len(rows), len(cols)))
    s = np.empty_like(W)
    sums = np.empty((len(weights), 4))
    for (mu, R), members in groups.items():
        c0 = min(weights[n].c for n in members)
        W.fill(0.0)
        for b, m in zip(entries, counts):
            # s = 2 phi(b) of the c0 weight, bit for bit as 2 * _phi_tau: doubling is exact
            np.add.outer(R * tau, b * x, out=s)
            np.square(s, out=s)
            s *= 2.0 * mu
            s -= (2.0 * c0 * tau)[:, None]
            np.exp(s, out=s)
            s *= m
            W += s
        P = np.matmul(B, W[:, :, None])[:, :, 0]
        total = P.sum(0)
        for n in members:
            c = weights[n].c
            sums[n] = total if c == c0 else np.exp(-2.0 * (c - c0) * tau) @ P

    margins = []
    for weight, (lhs, rhs, lhs_c, rhs_c) in zip(weights, sums):
        lhs, lhs_c = weight.lhs_prefactor * lhs, weight.lhs_prefactor * lhs_c
        err = (abs(lhs - lhs_c) + abs(rhs - rhs_c)) / 3.0
        margins.append(CarlemanMargin(lhs=float(lhs), rhs=float(rhs), quad_error=float(err)))
    return margins
