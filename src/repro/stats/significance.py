"""Significance tests backing the paper's statistical claims.

The paper reports (i) a *statistically significant* advantage of
StratRec-guided deployments (Figure 13) and (ii) linear fits whose (α, β)
lie within the 90% confidence interval of the fitted line (Table 6).  This
module provides exactly those tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a two-sample or paired t-test."""

    statistic: float
    p_value: float
    dof: float
    mean_difference: float

    def significant(self, alpha: float = 0.05) -> bool:
        """True iff the null hypothesis is rejected at level ``alpha``."""
        return self.p_value < alpha


def _as_array(name: str, values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise ValueError(f"{name} needs at least 2 observations, got {arr.size}")
    return arr


def welch_t_test(sample_a: Iterable[float], sample_b: Iterable[float]) -> TTestResult:
    """Welch two-sample t-test (unequal variances) of mean(a) != mean(b)."""
    a = _as_array("sample_a", sample_a)
    b = _as_array("sample_b", sample_b)
    from scipy import stats as sps  # deferred: no serve path loads scipy

    result = sps.ttest_ind(a, b, equal_var=False)
    return TTestResult(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        dof=float(result.df),
        mean_difference=float(a.mean() - b.mean()),
    )


def paired_t_test(sample_a: Iterable[float], sample_b: Iterable[float]) -> TTestResult:
    """Paired t-test for mirror deployments of the same tasks (Figure 13)."""
    a = _as_array("sample_a", sample_a)
    b = _as_array("sample_b", sample_b)
    if a.size != b.size:
        raise ValueError(f"paired samples must match in size ({a.size} vs {b.size})")
    from scipy import stats as sps  # deferred: no serve path loads scipy

    result = sps.ttest_rel(a, b)
    return TTestResult(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        dof=float(a.size - 1),
        mean_difference=float(a.mean() - b.mean()),
    )


@dataclass(frozen=True)
class SlopeSignificance:
    """Significance of the slope of a simple linear regression."""

    slope: float
    intercept: float
    r_squared: float
    slope_p_value: float
    slope_ci_low: float
    slope_ci_high: float
    confidence: float

    def slope_in_ci(self, slope: float) -> bool:
        """True iff ``slope`` lies inside the fitted slope's CI."""
        return self.slope_ci_low <= slope <= self.slope_ci_high


def linear_fit_significance(
    x: Sequence[float], y: Sequence[float], confidence: float = 0.90
) -> SlopeSignificance:
    """OLS fit of ``y = slope*x + intercept`` with a slope CI.

    Table 6's claim is that the estimated (α, β) lie within the 90%
    confidence interval of the fitted line; this exposes the interval.
    """
    x_arr = _as_array("x", x)
    y_arr = _as_array("y", y)
    if x_arr.size != y_arr.size:
        raise ValueError("x and y must have equal length")
    if x_arr.size < 3:
        raise ValueError("need at least 3 points for a slope CI")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from scipy import stats as sps  # deferred: no serve path loads scipy

    fit = sps.linregress(x_arr, y_arr)
    dof = x_arr.size - 2
    t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=dof))
    half = t_crit * float(fit.stderr)
    return SlopeSignificance(
        slope=float(fit.slope),
        intercept=float(fit.intercept),
        r_squared=float(fit.rvalue) ** 2,
        slope_p_value=float(fit.pvalue),
        slope_ci_low=float(fit.slope) - half,
        slope_ci_high=float(fit.slope) + half,
        confidence=confidence,
    )
