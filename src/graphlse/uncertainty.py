"""Gaussian decay estimation, uncertainty thresholds and the Appell transform.

The dynamical Hardy-type uncertainty statements bound the product of the
Gaussian decay rates of a solution at two times: above a critical value the
solution must vanish.  This module fits decay rates from samples, classifies
rate pairs against the applicable threshold, provides the explicit families
that saturate the free thresholds, and implements the Appell transform that
trades unequal two-time rates for equal ones.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exppoly import PiecewiseCoefficient

__all__ = [
    "DecayFit",
    "ThresholdVerdict",
    "StarSharpness",
    "TwoStepSharpness",
    "fit_gaussian_decay",
    "gamma_star",
    "classify_threshold",
    "sharp_example_star",
    "sharp_example_two_step",
    "appell_transform",
    "appell_time_map",
]

NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log|u| = intercept - rate * x^2 on a tail window."""

    rate: float
    intercept: float
    residual_rms: float
    window: tuple[float, float]
    side: str
    n_samples: int
    identically_zero: bool = False


def fit_gaussian_decay(
    x: np.ndarray,
    values: np.ndarray,
    side: str = "both",
    window: tuple[float, float] | None = None,
) -> DecayFit:
    """Fit a Gaussian decay rate on |x| in ``window`` (default the 40..80% tail).

    Uses only samples with |u| above the noise floor; needs at least 20 of
    them.  When every windowed sample sits below the floor the data counts as
    identically zero and no rate is fitted.
    """
    x = np.asarray(x, dtype=float)
    v = np.abs(np.asarray(values))
    if x.shape != v.shape:
        raise ValueError("x and values must have matching shapes")
    if side == "-inf":
        keep = x <= 0
    elif side == "+inf":
        keep = x >= 0
    elif side == "both":
        keep = np.ones_like(x, dtype=bool)
    else:
        raise ValueError(f"unknown side {side!r}")
    x, v = x[keep], v[keep]
    if window is None:
        top = float(np.max(np.abs(x)))
        window = (0.4 * top, 0.8 * top)
    lo, hi = window
    if not 0 <= lo < hi:
        raise ValueError("window must satisfy 0 <= lo < hi")
    sel = (np.abs(x) >= lo) & (np.abs(x) <= hi)
    if not np.any(sel):
        raise ValueError("window contains no samples")
    xs, vs = x[sel], v[sel]
    good = vs > NOISE_FLOOR
    if not np.any(good):
        return DecayFit(math.nan, math.nan, 0.0, window, side, int(np.sum(sel)), identically_zero=True)
    xs, vs = xs[good], vs[good]
    if len(xs) < 20:
        raise ValueError(f"only {len(xs)} usable samples in the window; need >= 20")
    A = np.stack([np.ones_like(xs), -(xs**2)], axis=1)
    b = np.log(vs)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - b) ** 2)))
    return DecayFit(
        rate=float(coef[1]),
        intercept=float(coef[0]),
        residual_rms=resid,
        window=window,
        side=side,
        n_samples=len(xs),
    )


def magnitude_window(x: np.ndarray, values: np.ndarray, floor_ratio: float = 1e-9) -> tuple[float, float]:
    """Tail window chosen from where the data actually lives.

    Upper end: the largest |x| whose sample still exceeds floor_ratio times
    the peak; lower end: 45% of that.  Useful when the grid is much larger
    than the support, where a fixed geometric fraction of the domain would
    contain nothing but noise.
    """
    x = np.asarray(x, dtype=float)
    m = np.abs(np.asarray(values))
    peak = float(np.max(m))
    if peak <= 0:
        raise ValueError("cannot window identically zero data")
    alive = np.abs(x)[m > floor_ratio * peak]
    hi = float(np.max(alive))
    return (0.45 * hi, hi)


def gamma_star(n_edges: int) -> float:
    """Critical exponent of the star with n_edges rays: 1/2 for even, (m+1)/2m for 2m+1."""
    if n_edges < 2:
        raise ValueError("a star needs at least 2 edges")
    if n_edges % 2 == 0:
        return 0.5
    m = (n_edges - 1) // 2
    return 0.5 * (m + 1) / m


_RULES = ("line-sigma-i", "line-sigma-ii", "line-sigma-iii", "star-free", "star-potential")


@dataclass(frozen=True)
class ThresholdVerdict:
    product: float
    threshold: float
    regime: str  # above | below | boundary
    rule: str
    boundary_tol: float


def classify_threshold(
    alpha: float,
    beta: float,
    rule: str,
    sigma: PiecewiseCoefficient | None = None,
    n_edges: int | None = None,
    boundary_tol: float = 0.05,
) -> ThresholdVerdict:
    """Compare the rate product alpha*beta against the applicable threshold.

    Rules: 'line-sigma-i' (decay as x -> -inf, threshold 1/(16 sigma_-^2)),
    'line-sigma-ii' (+inf side), 'line-sigma-iii' (both sides, the smaller of
    the two thresholds), 'star-free' (1/16) and 'star-potential'
    (4 gamma_star^4).  Products within ``boundary_tol`` relative distance of
    the threshold are reported as 'boundary': the statements are strict
    inequalities and numerics cannot decide the knife edge.
    """
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise ValueError("decay rates must be positive and finite")
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if rule.startswith("line-sigma"):
        if sigma is None:
            raise ValueError("line rules need the coefficient")
        sm, sp = sigma.sigma_minus, sigma.sigma_plus
        if rule.endswith("-i"):
            thr = 1.0 / (16.0 * sm**2)
        elif rule.endswith("-ii"):
            thr = 1.0 / (16.0 * sp**2)
        else:
            thr = 1.0 / (16.0 * max(sm**2, sp**2))
    elif rule == "star-free":
        thr = 1.0 / 16.0
    else:
        if n_edges is None:
            raise ValueError("star-potential rule needs n_edges")
        thr = 4.0 * gamma_star(n_edges) ** 4
    prod = alpha * beta
    if abs(prod - thr) <= boundary_tol * thr:
        regime = "boundary"
    elif prod > thr:
        regime = "above"
    else:
        regime = "below"
    return ThresholdVerdict(prod, thr, regime, rule, boundary_tol)


@dataclass(frozen=True)
class StarSharpness:
    """Chirped Gaussian family saturating the free-evolution threshold at t = 1.

    u0(x) = exp(-alpha x^2 - i x^2/4) on every edge evolves freely (the data
    is even, so each component solves the whole-line problem) to

        u(1, x) = exp(i x^2 / 4) exp(-x^2 / (16 alpha)) / sqrt(4 i alpha),

    so the decay-rate product alpha * 1/(16 alpha) sits exactly at 1/16.
    """

    alpha: float
    n_edges: int

    @property
    def beta(self) -> float:
        return 1.0 / (16.0 * self.alpha)

    def u0(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-(self.alpha + 0.25j) * x**2)

    def u1(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pref = 1.0 / cmath.sqrt(4j * self.alpha)
        return pref * np.exp((0.25j - 1.0 / (16.0 * self.alpha)) * x**2)


def sharp_example_star(alpha: float, n_edges: int = 3) -> StarSharpness:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_edges < 2:
        raise ValueError("a star needs at least 2 edges")
    return StarSharpness(float(alpha), int(n_edges))


@dataclass(frozen=True)
class TwoStepSharpness:
    """Two-layer line family saturating the one-sided thresholds at t = 1.

    u0(x) = exp(-a_i^2 x^2 - i a_i^2 x^2 / 4) on the respective half lines;
    the transported profile collapses to a single chirped Gaussian, giving

        u(1, x) = exp(-a_i^2 x^2 / 16 + i a_i^2 x^2 / 4) / (2 sqrt(i)).

    With alpha = min(a_1^2, a_2^2) the pair (alpha, alpha/16) is realized by a
    nonzero solution.
    """

    a1: float
    a2: float

    @property
    def alpha(self) -> float:
        return min(self.a1**2, self.a2**2)

    @property
    def beta(self) -> float:
        return self.alpha / 16.0

    @property
    def sigma(self) -> PiecewiseCoefficient:
        return PiecewiseCoefficient((self.a1, self.a2), 1.0)

    def u0(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a = np.where(x <= 0, self.a1, self.a2)
        return np.exp(-(1.0 + 0.25j) * a**2 * x**2)

    def u1(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a = np.where(x <= 0, self.a1, self.a2)
        pref = 0.5 / cmath.sqrt(1j)
        return pref * np.exp((-1.0 / 16.0 + 0.25j) * a**2 * x**2)


def sharp_example_two_step(a1: float, a2: float) -> TwoStepSharpness:
    if a1 <= 0 or a2 <= 0:
        raise ValueError("layer amplitudes must be positive")
    return TwoStepSharpness(float(a1), float(a2))


def appell_time_map(t, alpha: float, beta: float):
    """s(t) = sqrt(beta) t / (sqrt(alpha)(1-t) + sqrt(beta) t); fixes 0 and 1."""
    t = np.asarray(t, dtype=float)
    ra, rb = math.sqrt(alpha), math.sqrt(beta)
    return rb * t / (ra * (1.0 - t) + rb * t)


def appell_transform(
    u: Callable[[float, np.ndarray], np.ndarray],
    alpha: float,
    beta: float,
    A: float = 0.0,
    B: float = 1.0,
    direction: str = "forward",
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Appell transform of a time-slice family for u_s = (A + iB)(Delta u + ...).

    Forward maps a family with rates (alpha at s=0, beta at s=1) to one with
    the geometric-mean rate at both ends:

        u~(t, x) = g(t)^(1/2) u(s(t), g(t) x) exp((ra - rb) x^2 / (4 (A+iB) D(t)))

    with D(t) = ra (1-t) + rb t, g = (alpha beta)^(1/4) / D and s the
    time map above.  'inverse' applies the transform with the roles of alpha
    and beta swapped, which undoes the forward map exactly.
    """
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise ValueError("rates must be positive and finite")
    if A == 0 and B == 0:
        raise ValueError("A + iB must be nonzero")
    if direction == "inverse":
        return appell_transform(u, beta, alpha, A, B, direction="forward")
    if direction != "forward":
        raise ValueError(f"unknown direction {direction!r}")
    ra, rb = math.sqrt(alpha), math.sqrt(beta)
    coeff = A + 1j * B

    def transformed(t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        D = ra * (1.0 - t) + rb * t
        g = (alpha * beta) ** 0.25 / D
        s = rb * t / D
        phase = np.exp((ra - rb) * x**2 / (4.0 * coeff * D))
        return cmath.sqrt(g) * np.asarray(u(s, g * x), dtype=complex) * phase

    return transformed
