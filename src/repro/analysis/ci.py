"""Confidence intervals over small samples (Student's t).

Fig 13 reports "memory savings with 90 % confidence intervals" over the
ten benchmark images; with n = 10 the normal approximation is off by
enough to matter, so the t distribution is used.  Its quantile is
computed here (regularised incomplete beta plus bisection) rather than
imported: the one call is all this package needs of a statistics library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta (modified Lentz)."""
    tiny = 1e-300

    def clamp(v: float) -> float:
        """Keep a Lentz term away from zero."""
        return v if abs(v) > tiny else tiny

    d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    c, h = 1.0, d
    for m in range(1, 500):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coeff in (even, odd):
            d = 1.0 / clamp(1.0 + coeff * d)
            c = clamp(1.0 + coeff / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _regularised_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``, the regularised incomplete beta function."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def t_quantile(p: float, df: int) -> float:
    """Quantile ``p`` of Student's t distribution with ``df`` degrees of freedom.

    Bisects ``P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2)`` to the last
    representable bit.
    """
    if not 0.0 < p < 1.0:
        raise ConfigError(f"quantile must be in (0, 1), got {p}")
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    alpha = 2.0 * (1.0 - p)

    def two_sided_tail(t: float) -> float:
        """``P(|T| > t)``."""
        return _regularised_beta(df / 2.0, 0.5, df / (df + t * t))

    lo, hi = 0.0, 1.0
    while two_sided_tail(hi) > alpha:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if two_sided_tail(mid) > alpha:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A sample mean with its symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f}"


def mean_confidence_interval(
    samples: np.ndarray, confidence: float = 0.90
) -> ConfidenceInterval:
    """Mean and t-based CI half-width of a 1D sample.

    A single sample yields a zero-width interval (there is no spread
    estimate), matching how a one-image sweep should render.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ConfigError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, confidence=confidence, n=1)
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    t_crit = t_quantile(0.5 + confidence / 2.0, arr.size - 1)
    return ConfidenceInterval(
        mean=mean, half_width=t_crit * sem, confidence=confidence, n=arr.size
    )
