"""Small statistics toolkit used by the metrics and analysis layers.

Implemented directly on numpy (no scipy dependency in the library proper)
so the core package runs anywhere numpy does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ValidationError


def _as_1d(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def sum_in_order(values: Sequence[float]) -> float:
    """The float64 sum of ``values`` added strictly left to right.

    One running double, the order ``np.cumsum`` adds in; ``0.0`` when
    empty.  Result-bearing totals use this instead of the builtin
    ``sum()``, which Python 3.12 made compensated (Neumaier), so its
    last bits depend on the interpreter version; this equals the
    builtin ``sum()`` of Python 3.10/3.11 bit for bit (bar a leading
    ``-0.0``).
    """
    arr = np.asarray(values, dtype=np.float64)
    return float(np.cumsum(arr)[-1]) if arr.size else 0.0


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson product-moment correlation coefficient of two sequences.

    Raises :class:`ValidationError` on mismatched lengths, fewer than two
    points, or a zero-variance input (where the coefficient is undefined).
    """
    x = _as_1d(xs, "xs")
    y = _as_1d(ys, "ys")
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValidationError("correlation needs at least two points")
    xd = x - x.mean()
    yd = y - y.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        raise ValidationError("correlation undefined for zero-variance input")
    return float(xd @ yd) / denom


def _rank(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = mean_rank
        i = j + 1
    return ranks


def spearman_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson correlation of ranks)."""
    x = _as_1d(xs, "xs")
    y = _as_1d(ys, "ys")
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    return pearson_correlation(_rank(x), _rank(y))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    arr = _as_1d(values, "values")
    if np.any(arr <= 0):
        raise ValidationError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def mean_absolute_percentage_error(
    actual: Sequence[float], predicted: Sequence[float]
) -> float:
    """Mean |predicted - actual| / actual, as a fraction (0.01 == 1%)."""
    a = _as_1d(actual, "actual")
    p = _as_1d(predicted, "predicted")
    if a.size != p.size:
        raise ValidationError(f"length mismatch: {a.size} vs {p.size}")
    if np.any(a == 0):
        raise ValidationError("actual values must be non-zero")
    return float(np.mean(np.abs(p - a) / np.abs(a)))


@dataclass(frozen=True)
class MannWhitneyResult:
    """Mann–Whitney U test result for two independent samples."""

    u_statistic: float
    p_value: float
    n_x: int
    n_y: int

    def as_dict(self) -> dict:
        return {
            "u_statistic": self.u_statistic,
            "p_value": self.p_value,
            "n_x": self.n_x,
            "n_y": self.n_y,
        }


def mann_whitney_u(
    xs: Sequence[float],
    ys: Sequence[float],
    alternative: str = "two-sided",
) -> MannWhitneyResult:
    """Mann–Whitney U rank-sum test (normal approximation, tie-corrected).

    ``u_statistic`` is the U of the first sample (``xs``): the number of
    ``(x, y)`` pairs with ``x > y``, ties counting half.  The p-value
    uses the normal approximation with a continuity correction and the
    standard tie correction to the variance; for the window sizes the
    regression gates use (a handful of runs per side) the approximation
    is deliberately conservative rather than exact.

    ``alternative`` is ``"two-sided"``, ``"greater"`` (xs stochastically
    larger than ys), or ``"less"``.
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ValidationError(
            f"alternative must be 'two-sided', 'greater', or 'less', "
            f"got {alternative!r}"
        )
    x = _as_1d(xs, "xs")
    y = _as_1d(ys, "ys")
    n_x, n_y = int(x.size), int(y.size)
    combined = np.concatenate([x, y])
    ranks = _rank(combined)
    rank_sum_x = float(ranks[:n_x].sum())
    u_x = rank_sum_x - n_x * (n_x + 1) / 2.0

    mean_u = n_x * n_y / 2.0
    n = n_x + n_y
    # Tie correction: sum over tie groups of (t^3 - t).
    _, tie_counts = np.unique(combined, return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts))
    variance = (n_x * n_y / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        # Every value identical: no evidence of a shift either way.
        p = 1.0
    else:
        sd = math.sqrt(variance)
        # Continuity correction of 0.5 toward the mean.
        if alternative == "greater":
            z = (u_x - mean_u - 0.5) / sd
            p = 1.0 - _normal_cdf(z)
        elif alternative == "less":
            z = (u_x - mean_u + 0.5) / sd
            p = _normal_cdf(z)
        else:
            z = (abs(u_x - mean_u) - 0.5) / sd
            p = 2.0 * (1.0 - _normal_cdf(max(z, 0.0)))
    return MannWhitneyResult(
        u_statistic=float(u_x),
        p_value=float(min(max(p, 0.0), 1.0)),
        n_x=n_x,
        n_y=n_y,
    )


def _normal_cdf(z: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "median": self.median,
            "max": self.maximum,
        }


def summarize(values: Sequence[float]) -> Summary:
    """Summarize a non-empty sequence of finite floats."""
    arr = _as_1d(values, "values")
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
    )
