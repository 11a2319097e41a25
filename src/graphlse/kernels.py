"""Exact propagation kernels for the layered line and the half-line solution map.

Everything here is built from the free kernel

    k_t(z) = exp(i z^2 / 4t) / sqrt(4 pi i t),

the layered kernel h_t (a Wiener-series combination of copies of k_t shifted
to the lattice points 2 l (m . a_mid) of ``exppoly.lattice_point``) and the
first-row kernels p_t^{1,k} built from it.  On the leftmost layer (x <= 0)
the solution is the single free convolution (k_t * eta)(a_1 x) against a
transported source profile eta, evaluated on a uniform lattice with one FFT;
``EtaProfile.convolve`` samples eta from the initial data as a function with
its support, on the lattice of the observation grid's own spacing, so exact
data is read at every lattice image and sampled data enters as its
interpolant.  Atoms on one source row whose shifts differ by whole lattice
steps read the data at the same points, so each such group evaluates it
once (c07's 86 atoms: 5 evaluations); an atom that matches no other is a
group of one.  One table of source atoms per layer k (``_p_terms``), a complex
weight and a row (scale, shift, y_lo, y_hi) per atom, holds the terms of
p_t^{1,k}: ``kernel_p1k`` sums h_t over its rows, and ``eta_profile`` shifts
the rows of every layer along the lattice to build eta's table.  For two layers eta is u0(y / a_1) on y <= 0
and, on y > 0, (a_2 - a_1)/(a_1 + a_2) u0(-y / a_1) + 2 a_1/(a_1 + a_2)
u0(y / a_2), so equal layers give u0(y / a).  The coefficient is the
``PiecewiseCoefficient`` a Wiener series was inverted for (``series.params``).
The right ray x >= (N-2) l is the left ray of the reversed coefficient under
x' = (N-2) l - x, so ``solve_line``, the one solve, treats both rays of a
whole line with the same convolution, the right one on reflected data; only
first-row kernels exist, so points strictly between 0 and (N-2) l are refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _GuardError
from .exppoly import PiecewiseCoefficient, WienerSeries, alpha_prefactor, ef_recursion, invert_E, lattice_point

__all__ = [
    "EtaProfile",
    "QuadratureDomainError",
    "free_kernel",
    "kernel_h",
    "kernel_p1k",
    "eta_profile",
    "solve_line",
]


# largest tail estimate of the initial data, relative to its peak, that
# solve_line accepts
GUARD_TOL = 1e-6
# most lattice points EtaProfile.convolve samples eta on (c07 needs 2563)
MAX_LATTICE = 2**24
_EPS = np.finfo(float).eps


class QuadratureDomainError(_GuardError, ValueError):
    """The sampled initial data does not cover enough of the line for the target accuracy."""


def free_kernel(t: float, z) -> np.ndarray:
    """k_t(z) with the principal square-root branch for t > 0; k_{-t} = conj(k_t)."""
    if t == 0 or not math.isfinite(t):
        raise ValueError(f"the free kernel needs a finite time t != 0, not t = {t}")
    z = np.asarray(z, dtype=float)
    if t > 0:
        return np.exp(1j * z**2 / (4.0 * t)) / np.sqrt(4j * math.pi * t)
    return np.conj(np.exp(1j * z**2 / (-4.0 * t)) / np.sqrt(-4j * math.pi * t))


def kernel_h(t: float, x, series: WienerSeries) -> np.ndarray:
    """Layered kernel h_t(x) = sum_m c_m k_t(x - 2 l (m . a_mid)); reduces to
    the free kernel when there are two layers."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for idx, c in series.coefficients.items():
        out += c * free_kernel(t, x - lattice_point(idx, series.params.a_mid, series.params.l))
    return out


def _p_terms(params: PiecewiseCoefficient, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The psi atoms of layer k as a table (weight, atoms), each on the source interval I_k.

    ``weight`` is complex (n,) and ``atoms`` float (n, 4), one row
    (scale, shift, y_lo, y_hi) per atom.  p_t^{1,k}(x, y) is the sum over the
    rows of weight * h_t(a_1 x - scale y - shift), which ``kernel_p1k``
    evaluates; ``eta_profile`` takes the rows of every layer as the psi part
    of eta, each image interval in z >= 0.  The k = 1 direct term is special:
    it rides on k_t instead of h_t and is added by ``kernel_p1k``
    (``eta_profile``'s direct atom).  One layer has no junction to reflect
    from, so its direct term is the whole kernel and the table has no rows.
    """
    N, a, l = params.n_layers, params.a, params.l
    a1, (lo, hi) = a[0], params.interval(k)
    if N == 1:
        rows = []  # (weight, scale, shift)
    elif k == 1:
        _, F = ef_recursion(N - 1, 1, params)
        rows = [(-a1 * c, -a1, lattice_point(idx, params.a_mid, l)) for idx, c in F.terms.items()]
    elif k == N:
        rows = [(a1 * alpha_prefactor(k, params), a[N - 1], l * sum(a[1 : N - 1]) - a[N - 1] * (N - 2) * l)]
    else:
        w = a1 * alpha_prefactor(k, params)
        E, F = ef_recursion(N - 1, k, params)
        # layer k's right end (k-1) l, scaled by a_k, and its depth l (a_2 + ... + a_k)
        end, depth = a[k - 1] * (k - 1) * l, l * sum(a[1:k])
        rows = [(w * c, a[k - 1], lattice_point(idx, params.a_mid, l) - (end - depth)) for idx, c in E.terms.items()]
        rows += [(-w * c, -a[k - 1], lattice_point(idx, params.a_mid, l) + (end + depth)) for idx, c in F.terms.items()]
    atoms = np.array([(scale, shift, lo, hi) for _, scale, shift in rows], dtype=float).reshape(-1, 4)
    return np.array([w for w, _, _ in rows], dtype=complex), atoms


def kernel_p1k(k: int, t: float, x, y, series: WienerSeries) -> np.ndarray:
    """First-row kernel p_t^{1,k}(x, y) for finite observation points x <= 0 and source points y in layer k.

    The coefficient is the one ``series`` was inverted for, ``series.params``.
    """
    params = series.params
    N = params.n_layers
    if not 1 <= k <= N:
        raise ValueError("layer index out of range")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not np.all(np.isfinite(x) & (x <= 1e-12)):
        raise ValueError("first-row kernels are defined for finite observation points x <= 0")
    lo, hi = params.interval(k)
    if not np.all(np.isfinite(y) & (y >= lo - 1e-9) & (y <= hi + 1e-9)):
        raise ValueError(f"source points outside layer {k} = ({lo}, {hi}) or not finite")
    a1 = params.a[0]
    out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    if k == 1:
        out = out + a1 * free_kernel(t, a1 * x - a1 * y)
    for w, (scale, shift, _, _) in zip(*_p_terms(params, k)):
        out = out + w * kernel_h(t, a1 * x - scale * y - shift, series)
    return out


def _grid_spacing(xs: np.ndarray) -> float:
    """The spacing of the increasing uniform grid xs of at least two finite points."""
    if len(xs) < 2:
        raise ValueError("observation points must be a grid of at least two points")
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    if not (0 < dx < math.inf and np.all(np.isfinite(xs))) or np.any(np.abs(np.diff(xs) - dx) > 1e-9 * dx):
        raise ValueError("observation points must be finite, increasing and uniformly spaced")
    return dx


def _image(row) -> tuple[float, float]:
    """The ends lo < hi of an atom's image {scale y + shift : y_lo < y < y_hi}."""
    scale, shift, y_lo, y_hi = row
    lo, hi = sorted((scale * y_lo + shift, scale * y_hi + shift))
    return lo, hi


def _sample(weight: complex, row, u0: Callable, z: np.ndarray) -> np.ndarray:
    """One atom's part of eta at points z of its image: (weight/|scale|) u0((z - shift)/scale).
    The arguments are Python scalars: numpy scalars divide through a reciprocal."""
    scale, shift = row[0], row[1]
    return (weight / abs(scale)) * np.asarray(u0((z - shift) / scale), dtype=complex)


@dataclass(frozen=True)
class EtaProfile:
    """The transported source eta with (k_t * eta)(a_1 x) equal to the solution at x <= 0.

    Read-only tables hold eta's n atoms: ``weight`` complex (n,) and ``atoms``
    float (n, 4) with rows (scale, shift, y_lo, y_hi).  Atom i contributes
    weight * integral_{y_lo}^{y_hi} k_t(X - (scale y + shift)) u0(y) dy to the
    solution at X = a_1 x.  eta agrees with u0(y / a_1) exactly on y < 0 (the
    direct atom) and adds positively supported psi copies shifted along the
    Wiener lattice.  The data is not bound: ``profile(y, u0)`` reads eta at y.
    """

    weight: np.ndarray
    atoms: np.ndarray
    front_scale: float

    def __post_init__(self):
        weight, atoms = np.array(self.weight, dtype=complex), np.array(self.atoms, dtype=float)
        if weight.ndim != 1 or atoms.shape != (len(weight), 4):
            raise ValueError("an eta table needs weight of shape (n,) and atoms of shape (n, 4)")
        if np.any(atoms[:, 0] == 0):
            raise ValueError("atom scale must be nonzero")
        if not np.all(atoms[:, 2] < atoms[:, 3]):
            raise ValueError("empty source interval")
        if not 0 < self.front_scale < math.inf:
            raise ValueError(f"front_scale {self.front_scale} must be positive and finite")
        for name, table in (("weight", weight), ("atoms", atoms)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def __call__(self, y, u0: Callable) -> np.ndarray:
        """eta at the points y for the initial data u0: each atom adds its value where its image holds y, half of it at an end.

        Adjacent atoms share an end only up to rounding, so a point within
        1e-12 (1 + |e|) of an image end e counts as on it; eta there is the
        mean of its limits from the two sides.
        """
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape, dtype=complex)
        for weight, row in zip(self.weight.tolist(), self.atoms.tolist()):
            lo, hi = _image(row)
            half = np.isclose(y, lo, rtol=1e-12, atol=1e-12) | np.isclose(y, hi, rtol=1e-12, atol=1e-12)
            mask = half | ((y > lo) & (y < hi))
            if np.any(mask):
                out[mask] += np.where(half[mask], 0.5, 1.0) * _sample(weight, row, u0, y[mask])
        return out

    def convolve(self, t: float, x, u0: Callable, support: tuple[float, float]) -> np.ndarray:
        """(k_t * eta)(front_scale * x) on an increasing uniform grid x, as one lattice convolution.

        eta is sampled once on the lattice z_j = front_scale * x[0] + j dz with
        dz = front_scale * dx, where dx is the spacing of x, so the
        observation points are lattice points.  u0 is evaluated at the
        transported lattice points and taken as 0 outside ``support`` =
        (lo, hi); infinite source intervals end at the support ends.  Atoms
        that share a source row (scale, y_lo, y_hi) and whose shifts differ
        by whole lattice steps, to within 16 eps of the shifts, read u0 at
        the same points: one call of u0 per group, each atom adding its
        weighted slice.  An atom
        whose image ends on a lattice point, up to 1e-6 dz, adds half its
        value there, so eta at a shared end is counted once.  The rectangle
        sum dz * sum_j k_t(X - z_j) eta(z_j) is one FFT product.  Raises
        ValueError, before any array is built, unless ``support`` is a finite
        interval and x a grid of at least two points, and when eta's image
        spans more than MAX_LATTICE lattice steps.
        """
        x = np.asarray(x, dtype=float)
        xs = x.ravel()
        lo, hi = support
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"support ({lo}, {hi}) must be a finite interval")
        dz = self.front_scale * _grid_spacing(xs)
        z0 = self.front_scale * xs[0]

        # each row's source interval clipped to the support, and its image's first and last lattice index
        y = np.stack([np.maximum(self.atoms[:, 2], lo), np.minimum(self.atoms[:, 3], hi)], axis=1)
        rows = np.flatnonzero(y[:, 0] < y[:, 1])
        z = self.atoms[rows, 0:1] * y[rows] + self.atoms[rows, 1:2]  # np.sort would page in ~0.2 MB of SIMD sort code
        # the lattice points in each image, its ends included up to rounding (1e-6 dz)
        first, last = np.ceil((z.min(axis=1) - z0) / dz - 1e-6), np.floor((z.max(axis=1) - z0) / dz + 1e-6)
        j0, j1 = int(first.min()), int(max(first.min(), last.max()))
        if j1 - j0 > MAX_LATTICE:
            raise ValueError(
                f"eta needs {j1 - j0 + 1} lattice points, more than {MAX_LATTICE}; "
                "the layer contrast or the Wiener order spreads the source too far"
            )
        eta = np.zeros(j1 - j0 + 1, dtype=complex)
        weight, atoms = self.weight.tolist(), self.atoms.tolist()
        # the atoms with a lattice point in their image, by source row (scale, y_lo, y_hi)
        by_row = {}
        for i, a, b in zip(rows.tolist(), first.astype(int).tolist(), last.astype(int).tolist()):
            if a <= b:
                by_row.setdefault((atoms[i][0], atoms[i][2], atoms[i][3]), []).append((i, a, b))
        for (scale, _, _), found in by_row.items():
            idx, a, b = (np.array(column) for column in zip(*found))
            while len(idx):
                # the atoms whose shifts differ from the first one's by whole lattice
                # steps k, to rounding, read u0 at the same points: one evaluation
                shift = self.atoms[idx, 1]
                k = np.round((shift - shift[0]) / dz).astype(int)
                group = np.abs(shift - shift[0] - k * dz) <= 16 * _EPS * (np.abs(shift) + abs(shift[0]))
                m0, m1 = int(np.min((a - k)[group])), int(np.max((b - k)[group]))
                vals = _sample(1.0, (scale, float(shift[0])), u0, z0 + dz * np.arange(m0, m1 + 1))
                for i, ai, bi, ki in zip(*(v[group].tolist() for v in (idx, a, b, k))):
                    part = weight[i] * vals[ai - ki - m0 : bi - ki - m0 + 1]
                    # an image end on a lattice point: the atom sharing it adds the other half
                    z_lo, z_hi = _image(atoms[i])
                    part[0] *= 0.5 if abs(z0 + dz * ai - z_lo) <= 1e-6 * dz else 1.0
                    part[-1] *= 0.5 if abs(z0 + dz * bi - z_hi) <= 1e-6 * dz else 1.0
                    eta[ai - j0 : bi - j0 + 1] += part
                idx, a, b = idx[~group], a[~group], b[~group]
        # output i is dz * sum_j k_t((i - j) dz) eta_j, entry len(eta) - 1 + i
        # of the linear convolution of eta with k_t on lags -j1 .. len(xs) - 1 - j0
        kern = free_kernel(t, dz * np.arange(-j1, len(xs) - j0))
        size = 1 << (len(kern) - 1).bit_length()
        full = np.fft.ifft(np.fft.fft(eta, size) * np.fft.fft(kern, size))
        return dz * full[len(eta) - 1 : len(eta) - 1 + len(xs)].reshape(x.shape)


def eta_profile(series: WienerSeries) -> EtaProfile:
    """Assemble eta's table: row 0 copies u0 on layer 1 (y <= 0, or all y for one layer), then the Wiener-shifted psi atoms.

    The coefficient is the one ``series`` was inverted for, ``series.params``.
    Row 1 + i n_psi + j is psi row j of ``_p_terms`` (layers in order) times
    coefficient i and shifted to its lattice point.
    """
    params = series.params
    a1 = params.a[0]
    tables = [_p_terms(params, k) for k in range(1, params.n_layers + 1)]
    psi_weight, psi = (np.concatenate(parts) for parts in zip(*tables))
    # the changes of variables that turn every h_t integral over a layer into
    # one over (0, inf) put each psi image interval in z >= 0
    if np.any(psi[:, 0:1] * psi[:, 2:4] + psi[:, 1:2] < -1e-12):
        raise AssertionError("psi atom spills onto the negative axis")
    coefficients = np.array(list(series.coefficients.values()))
    lattice = np.array([lattice_point(idx, params.a_mid, params.l) for idx in series.coefficients])
    shifted = np.tile(psi, (len(lattice), 1))
    shifted[:, 1] = (psi[:, 1] + lattice[:, None]).ravel()
    weight = np.concatenate([[a1], (coefficients[:, None] * psi_weight).ravel()])
    return EtaProfile(weight, np.vstack([(a1, 0.0, -math.inf, params.interval(1)[1]), shifted]), front_scale=a1)


def _check_tail(values, t: float, series: WienerSeries) -> None:
    """Raise QuadratureDomainError when the data's end samples, values[0] and
    values[-1], are not small against its peak: the solve drops the data
    beyond them.  Raises ValueError when a sample is not finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("initial data samples must be finite")
    weight_sum = sum(abs(c) for c in series.coefficients.values()) + 1.0
    scale = float(np.max(np.abs(values))) or 1.0
    tail = (abs(values[0]) + abs(values[-1])) * weight_sum / math.sqrt(4.0 * math.pi * abs(t))
    if tail > GUARD_TOL * scale:
        raise QuadratureDomainError(
            "initial data is not small at the sampled domain ends; enlarge the grid"
        )


def solve_line(u0: Callable, support: tuple[float, float], t: float, x, series: WienerSeries) -> np.ndarray:
    """Solution of the layered line problem at time t on an increasing uniform grid x, from data as a function.

    The coefficient is the one ``series`` was inverted for, ``series.params``.
    ``u0(y)`` is the initial data, taken as 0 outside ``support`` = (lo, hi),
    and is read at every lattice image; sampled data is passed as its
    interpolant.  Points x <= 0 are the left ray,
    (k_t * eta)(a_1 x).  Points x >= (N-2) l are the right ray: under
    x' = (N-2) l - x they are the left ray of the reversed coefficient, its
    series inverted to ``series.order``, with data u0((N-2) l - y), solved the
    same way and flipped back.  The lattice spacing is the spacing of x; a ray
    of one point is solved with its grid neighbour.  Raises ValueError for a
    point strictly inside (0, (N-2) l), where the first-row kernels do not
    reach, and QuadratureDomainError when |u0| at the support ends is not
    small against its peak on the support, sampled at that spacing.
    """
    if t == 0:
        raise ValueError("representation is for t != 0")
    lo, hi = (float(v) for v in support)
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"support ({lo}, {hi}) must be a finite interval")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("observation points must be a grid of at least two points")
    dx = _grid_spacing(x)
    params = series.params
    edge = (params.n_layers - 2) * params.l
    tol = 1e-9 * max(1.0, abs(edge))
    # x is increasing, so the left ray is a prefix of x and the right ray a suffix
    n_left = int(np.count_nonzero(x <= tol))
    n_right = int(np.count_nonzero(x[n_left:] >= edge - tol))
    if n_left + n_right < len(x):
        raise ValueError(f"observation points strictly inside (0, {edge}) need kernels beyond the first row")
    n_support = math.ceil((hi - lo) / dx) + 1
    if n_support > MAX_LATTICE:
        raise ValueError(f"the support needs {n_support} samples at the grid spacing, more than {MAX_LATTICE}")
    values = u0(np.linspace(lo, hi, n_support))
    out = np.empty(len(x), dtype=complex)
    if n_left:
        _check_tail(values, t, series)
        out[:n_left] = eta_profile(series).convolve(t, x[: max(n_left, 2)], u0, (lo, hi))[:n_left]
    if n_right:
        series = invert_E(PiecewiseCoefficient(params.a[::-1], params.l), series.order)
        _check_tail(values, t, series)
        reflected = edge - x[::-1]
        ray = eta_profile(series).convolve(t, reflected[: max(n_right, 2)], lambda y: u0(edge - y), (edge - hi, edge - lo))
        out[len(x) - n_right :] = ray[:n_right][::-1]
    return out
