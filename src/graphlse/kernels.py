"""Exact propagation kernels for the layered line and the half-line solution map.

Everything here is built from the free kernel

    k_t(z) = exp(i z^2 / 4t) / sqrt(4 pi i t),

the layered kernel h_t (a Wiener-series combination of copies of k_t shifted
to the lattice points 2 l (m . a_mid) of ``exppoly.lattice_point``) and the
first-row kernels p_t^{1,k} built from it.  On the leftmost layer (x <= 0)
the solution is the single free convolution (k_t * eta)(a_1 x) against a
transported source profile eta, evaluated on a uniform lattice with one FFT;
``EtaProfile.convolve`` samples eta from the initial data as a function with
its support, so exact data is read at every lattice image and sampled data
through its interpolant (``solve_negative_halfline``).  One list of source
atoms per layer k (``_p_terms``) holds the terms of p_t^{1,k}: ``kernel_p1k``
sums h_t over it, and ``eta_profile`` shifts the same atoms along the lattice
to build eta.  For two layers eta is u0(y / a_1) on y <= 0 and, on y > 0,
(a_2 - a_1)/(a_1 + a_2) u0(-y / a_1) + 2 a_1/(a_1 + a_2) u0(y / a_2), so
equal layers give u0(y / a).  The coefficient is the ``PiecewiseCoefficient``
a Wiener series was inverted for (``series.params``).  The right ray
x >= (N-2) l is the left ray of the reversed coefficient under
x' = (N-2) l - x, so ``solve_line`` solves both rays of a whole line with
the same convolution, the right one on reflected data; only first-row
kernels exist, so points strictly between 0 and (N-2) l are refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exppoly import PiecewiseCoefficient, WienerSeries, alpha_prefactor, ef_recursion, invert_E, lattice_point

__all__ = [
    "SourceAtom",
    "EtaProfile",
    "QuadratureDomainError",
    "free_kernel",
    "kernel_h",
    "kernel_p1k",
    "eta_profile",
    "solve_negative_halfline",
    "solve_line",
]


# largest tail estimate of the initial data, relative to its peak, that
# solve_negative_halfline and solve_line accept
GUARD_TOL = 1e-6
# most lattice points EtaProfile.convolve samples eta on (c07 needs 2563)
MAX_LATTICE = 2**24


class QuadratureDomainError(ValueError):
    """The sampled initial data does not cover enough of the line for the target accuracy."""


def free_kernel(t: float, z) -> np.ndarray:
    """k_t(z) with the principal square-root branch for t > 0; k_{-t} = conj(k_t)."""
    if t == 0:
        raise ValueError("the free kernel is singular at t = 0")
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


@dataclass(frozen=True)
class SourceAtom:
    """Affine transport of a source interval onto the convolution axis.

    Contributes  weight * integral_{y_lo}^{y_hi} k_t(X - (scale y + shift)) u0(y) dy
    to the solution at X = a_1 x, and  (weight/|scale|) u0((z - shift)/scale)
    on the image interval to the transported profile eta(z).
    """

    weight: complex
    scale: float
    shift: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("atom scale must be nonzero")
        if not self.y_lo < self.y_hi:
            raise ValueError("empty source interval")

    def z_interval(self) -> tuple[float, float]:
        za = self.scale * self.y_lo + self.shift
        zb = self.scale * self.y_hi + self.shift
        return (za, zb) if za < zb else (zb, za)

    def eta_values(self, u0: Callable, z) -> np.ndarray:
        # half-open (lo, hi] so that stacked atoms define the profile once at
        # shared endpoints (the direct copy owns y = 0, the psi part does not)
        z = np.asarray(z, dtype=float)
        y = (z - self.shift) / self.scale
        lo, hi = self.z_interval()
        mask = (z > lo) & (z <= hi)
        out = np.zeros(z.shape, dtype=complex)
        if np.any(mask):
            out[mask] = (self.weight / abs(self.scale)) * np.asarray(u0(y[mask]), dtype=complex)
        return out


def _p_terms(params: PiecewiseCoefficient, k: int) -> list[SourceAtom]:
    """The psi atoms of layer k, on the source interval I_k.

    p_t^{1,k}(x, y) is the sum over them of weight * h_t(a_1 x - scale y - shift),
    which ``kernel_p1k`` evaluates; ``eta_profile`` takes the atoms of every
    layer as the psi part of eta, each image interval in z >= 0.  The k = 1
    direct term is special: it rides on k_t instead of h_t and is added by
    ``kernel_p1k`` (``eta_profile``'s direct atom).  One layer has no
    junction to reflect from, so its direct term is the whole kernel and
    there are no atoms.
    """
    N, a, l = params.n_layers, params.a, params.l
    if N == 1:
        return []
    a1 = a[0]
    lo, hi = params.interval(k)
    if k == 1:
        _, F = ef_recursion(N - 1, 1, params)
        return [SourceAtom(-a1 * c, -a1, lattice_point(idx, params.a_mid, l), lo, hi) for idx, c in F.terms.items()]
    w = a1 * alpha_prefactor(k, params)
    if k == N:
        return [SourceAtom(w, a[N - 1], l * sum(a[1 : N - 1]) - a[N - 1] * (N - 2) * l, lo, hi)]
    E, F = ef_recursion(N - 1, k, params)
    # layer k's right end (k-1) l, scaled by a_k, and its depth l (a_2 + ... + a_k)
    end, depth = a[k - 1] * (k - 1) * l, l * sum(a[1:k])
    return [
        SourceAtom(w * c, a[k - 1], lattice_point(idx, params.a_mid, l) - (end - depth), lo, hi)
        for idx, c in E.terms.items()
    ] + [
        SourceAtom(-w * c, -a[k - 1], lattice_point(idx, params.a_mid, l) + (end + depth), lo, hi)
        for idx, c in F.terms.items()
    ]


def kernel_p1k(k: int, t: float, x, y, series: WienerSeries) -> np.ndarray:
    """First-row kernel p_t^{1,k}(x, y) for observation x <= 0 and source y in layer k.

    The coefficient is the one ``series`` was inverted for, ``series.params``.
    """
    params = series.params
    N = params.n_layers
    if not 1 <= k <= N:
        raise ValueError("layer index out of range")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x > 1e-12):
        raise ValueError("first-row kernels are defined for observation points x <= 0")
    lo, hi = params.interval(k)
    if np.any(y < lo - 1e-9) or np.any(y > hi + 1e-9):
        raise ValueError(f"source points outside layer {k} = ({lo}, {hi})")
    a1 = params.a[0]
    out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    if k == 1:
        out = out + a1 * free_kernel(t, a1 * x - a1 * y)
    for atom in _p_terms(params, k):
        out = out + atom.weight * kernel_h(t, a1 * x - atom.scale * y - atom.shift, series)
    return out


def _grid_spacing(xs: np.ndarray, single: float) -> float:
    """The spacing of the increasing uniform grid xs, or ``single`` when xs is one point."""
    dx = (xs[-1] - xs[0]) / (len(xs) - 1) if len(xs) > 1 else single
    if not dx > 0 or np.any(np.abs(np.diff(xs) - dx) > 1e-9 * dx):
        raise ValueError("observation points must be increasing and uniformly spaced")
    return dx


@dataclass(frozen=True)
class EtaProfile:
    """The transported source eta with (k_t * eta)(a_1 x) equal to the solution at x <= 0.

    eta agrees with u0(y / a_1) exactly on y <= 0 (the direct atom) and adds
    positively supported psi copies shifted along the Wiener lattice.  The
    profile stores atoms acting on u0, plus optionally u0 itself so it can be
    evaluated pointwise.
    """

    atoms: tuple[SourceAtom, ...]
    front_scale: float
    u0: Callable | None = None

    def __call__(self, y) -> np.ndarray:
        if self.u0 is None:
            raise ValueError("profile was built without initial data bound to it")
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape, dtype=complex)
        for atom in self.atoms:
            out += atom.eta_values(self.u0, y)
        return out

    def convolve(self, t: float, x, u0: Callable, support: tuple[float, float], spacing: float) -> np.ndarray:
        """(k_t * eta)(front_scale * x) on an increasing uniform grid x, as one lattice convolution.

        eta is sampled once on the lattice z_j = front_scale * x[0] + j dz with
        dz = front_scale * dx / m, where dx is the spacing of x (``spacing``
        for a single point) and m = ceil(dx / spacing), so every m-th lattice
        point is an observation point.  u0 is evaluated at the transported
        lattice points and taken as 0 outside ``support`` = (lo, hi);
        infinite source intervals end at the support ends.  The rectangle sum
        dz * sum_j k_t(X - z_j) eta(z_j) is one FFT product.  Raises
        ValueError, before any array is built, when eta's image spans more
        than MAX_LATTICE lattice steps.
        """
        x = np.asarray(x, dtype=float)
        xs = x.ravel()
        lo, hi = support
        if xs.size == 0:
            raise ValueError("no observation points")
        dx = _grid_spacing(xs, spacing)
        m = math.ceil(dx / spacing - 1e-9)
        dz = self.front_scale * dx / m
        z0 = self.front_scale * xs[0]

        spans = []  # (atom, first, last lattice index of its clipped image)
        for atom in self.atoms:
            y_lo, y_hi = max(atom.y_lo, lo), min(atom.y_hi, hi)
            if y_lo < y_hi:
                za, zb = sorted((atom.scale * y_lo + atom.shift, atom.scale * y_hi + atom.shift))
                spans.append((atom, math.floor((za - z0) / dz), math.ceil((zb - z0) / dz)))
        j0 = min(first for _, first, _ in spans)
        j1 = max(last for _, _, last in spans)
        if j1 - j0 > MAX_LATTICE:
            raise ValueError(
                f"eta needs {j1 - j0 + 1} lattice points, more than {MAX_LATTICE}; "
                "the layer contrast or the Wiener order spreads the source too far"
            )
        eta = np.zeros(j1 - j0 + 1, dtype=complex)
        for atom, first, last in spans:
            eta[first - j0 : last - j0 + 1] += atom.eta_values(u0, z0 + dz * np.arange(first, last + 1))
        # output i is dz * sum_j k_t((i m - j) dz) eta_j, entry len(eta) - 1 + i m
        # of the linear convolution of eta with k_t on lags -j1 .. (len(xs) - 1) m - j0
        n_out = (len(xs) - 1) * m + 1
        kern = free_kernel(t, dz * np.arange(-j1, n_out - j0))
        size = 1 << (len(kern) - 1).bit_length()
        full = np.fft.ifft(np.fft.fft(eta, size) * np.fft.fft(kern, size))
        return dz * full[len(eta) - 1 : len(eta) - 1 + n_out : m].reshape(x.shape)


def eta_profile(series: WienerSeries, u0: Callable | None = None) -> EtaProfile:
    """Assemble eta = direct copy of u0 on layer 1 (y <= 0, or all y for one layer) plus the Wiener-shifted psi atoms.

    The coefficient is the one ``series`` was inverted for, ``series.params``.
    """
    params = series.params
    a1 = params.a[0]
    atoms = [SourceAtom(a1, a1, 0.0, -math.inf, params.interval(1)[1])]
    # the changes of variables that turn every h_t integral over a layer into
    # one over (0, inf) put each psi image interval in z >= 0
    psi = [atom for k in range(1, params.n_layers + 1) for atom in _p_terms(params, k)]
    if any(atom.z_interval()[0] < -1e-12 for atom in psi):
        raise AssertionError("psi atom spills onto the negative axis")
    for idx, c in series.coefficients.items():
        lattice = lattice_point(idx, params.a_mid, params.l)
        for atom in psi:
            atoms.append(
                SourceAtom(c * atom.weight, atom.scale, atom.shift + lattice, atom.y_lo, atom.y_hi)
            )
    return EtaProfile(tuple(atoms), front_scale=a1, u0=u0)


def _check_tail(values, t: float, series: WienerSeries) -> None:
    """Raise QuadratureDomainError when the data's end samples, values[0] and
    values[-1], are not small against its peak: the solve drops the data
    beyond them."""
    weight_sum = sum(abs(c) for c in series.coefficients.values()) + 1.0
    scale = float(np.max(np.abs(values))) or 1.0
    tail = (abs(values[0]) + abs(values[-1])) * weight_sum / math.sqrt(4.0 * math.pi * abs(t))
    if tail > GUARD_TOL * scale:
        raise QuadratureDomainError(
            "initial data is not small at the sampled domain ends; enlarge the grid"
        )


def solve_negative_halfline(
    u0: tuple[np.ndarray, np.ndarray],
    t: float,
    x_grid: np.ndarray,
    series: WienerSeries,
) -> np.ndarray:
    """Solution of the layered line problem at time t on observation points x <= 0.

    The coefficient is the one ``series`` was inverted for, ``series.params``.
    ``u0`` is (nodes, values) sampling the initial data on a grid that covers
    its support, and ``x_grid`` is uniformly spaced.  The solution is the
    single lattice convolution (k_t * eta)(a_1 x) of ``EtaProfile.convolve``
    on the linear interpolant of the samples, with the outer nodes as its
    support and the smallest node spacing as the lattice spacing.  The error
    is O(h^2) from the interpolant plus O(h jump) where eta jumps, at the
    ends of its source intervals.  Fails when the sampled data is visibly
    truncated (boundary samples too large for the requested accuracy).
    """
    if t == 0:
        raise ValueError("representation is for t != 0")
    nodes, values = (np.asarray(u0[0], dtype=float), np.asarray(u0[1], dtype=complex))
    if nodes.shape != values.shape or nodes.ndim != 1:
        raise ValueError("u0 must be (nodes, values) arrays of equal length")
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid > 1e-12):
        raise ValueError("observation points must satisfy x <= 0")
    _check_tail(values, t, series)

    def interpolant(y):
        return np.interp(y, nodes, values.real, 0.0, 0.0) + 1j * np.interp(y, nodes, values.imag, 0.0, 0.0)

    return eta_profile(series).convolve(t, x_grid, interpolant, (nodes[0], nodes[-1]), float(np.min(np.diff(nodes))))


def solve_line(
    u0: Callable,
    support: tuple[float, float],
    t: float,
    x,
    params: PiecewiseCoefficient,
    order: int,
) -> np.ndarray:
    """Solution of the layered line problem at time t on an increasing uniform grid x, from data as a function.

    ``u0(y)`` is the initial data, taken as 0 outside ``support`` = (lo, hi),
    and is evaluated at every lattice image, so no interpolant enters.  Points
    x <= 0 are the left ray, (k_t * eta)(a_1 x) for the series of ``params``
    inverted to ``order``.  Points x >= (N-2) l are the right ray: under
    x' = (N-2) l - x they are the left ray of the reversed coefficient with
    data u0((N-2) l - y), solved the same way and flipped back.  The lattice
    spacing is the spacing of x.  Raises ValueError for a point strictly
    inside (0, (N-2) l), where the first-row kernels do not reach, and
    QuadratureDomainError when |u0| at the support ends is not small against
    its peak on the support, sampled at that spacing.
    """
    if t == 0:
        raise ValueError("representation is for t != 0")
    lo, hi = (float(v) for v in support)
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"support ({lo}, {hi}) must be a finite interval")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("observation points must be a grid of at least two points")
    dx = _grid_spacing(x, math.nan)
    edge = (params.n_layers - 2) * params.l
    tol = 1e-9 * max(1.0, abs(edge))
    left = x <= tol
    right = ~left & (x >= edge - tol)
    if not np.all(left | right):
        raise ValueError(f"observation points strictly inside (0, {edge}) need kernels beyond the first row")
    n_support = math.ceil((hi - lo) / dx) + 1
    if n_support > MAX_LATTICE:
        raise ValueError(f"the support needs {n_support} samples at the grid spacing, more than {MAX_LATTICE}")
    values = u0(np.linspace(lo, hi, n_support))
    out = np.empty(len(x), dtype=complex)
    if left.any():
        series = invert_E(params, order)
        _check_tail(values, t, series)
        out[left] = eta_profile(series).convolve(t, x[left], u0, (lo, hi), dx)
    if right.any():
        series = invert_E(PiecewiseCoefficient(params.a[::-1], params.l), order)
        _check_tail(values, t, series)
        reflected = eta_profile(series).convolve(t, edge - x[right][::-1], lambda y: u0(edge - y), (edge - hi, edge - lo), dx)
        out[right] = reflected[::-1]
    return out
