"""Correlation and run statistics for the evaluation harness."""

from __future__ import annotations

import math

import numpy as np

from .errors import StatisticsError

_VAR_EPS = 1e-12
_CF_MAX_ITER = 10_000
_CF_EPS = 1e-16
_CF_TINY = 1e-300
_PPF_MAX_ITER = 200


def pearson(x: list[float], y: list[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(x) != len(y):
        raise StatisticsError(f"{len(x)} vs {len(y)} points")
    if len(x) < 3:
        raise StatisticsError("need at least 3 points")
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise StatisticsError("an input holds a NaN or infinite value")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    if sxx == 0.0 or syy == 0.0:
        raise StatisticsError("an input has zero variance")
    r = float(np.dot(xc, yc)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def mean_ci(values: list[float], level: float = 0.95) -> tuple[float, float]:
    """Mean and Student-t confidence-interval halfwidth."""
    n = len(values)
    if n < 2:
        raise StatisticsError("need at least 2 values for an interval")
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    s = float(arr.std(ddof=1))
    t = _t_ppf(0.5 + level / 2.0, n - 1)
    return mean, t * s / math.sqrt(n)


def two_sample_t(a: list[float], b: list[float]) -> tuple[float, float]:
    """Welch's two-sample t-test, two-sided.

    Zero-variance inputs are handled with a small epsilon on the pooled
    variance term instead of failing, so constant samples give p ~ 0 when
    means differ and p = 1 when they do not.
    """
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise StatisticsError("need at least 2 values per sample")
    aa = np.asarray(a, dtype=np.float64)
    ba = np.asarray(b, dtype=np.float64)
    va = float(aa.var(ddof=1))
    vb = float(ba.var(ddof=1))
    se2 = va / na + vb / nb
    if se2 < _VAR_EPS:
        se2 = _VAR_EPS
    t_stat = (float(aa.mean()) - float(ba.mean())) / math.sqrt(se2)
    denom = 0.0
    if va > 0:
        denom += (va / na) ** 2 / (na - 1)
    if vb > 0:
        denom += (vb / nb) ** 2 / (nb - 1)
    if denom == 0.0:
        df = float(na + nb - 2)
    else:
        df = se2 * se2 / denom
    p = 2.0 * _t_sf(abs(t_stat), df)
    return t_stat, min(1.0, p)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta, by the modified Lentz
    method (Numerical Recipes, betacf); converges fast for x < (a+1)/(a+b+2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        for coef in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                     -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coef / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            step = d * c
            h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise StatisticsError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})")


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularised incomplete beta I_x(a, b); y is 1 - x, passed in so
    that it keeps full precision when x is close to 1."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    return math.exp(log_front) * _beta_cf(a, b, x) / a


def _t_sf(t: float, df: float) -> float:
    """Upper tail P(T > t) of Student's t with df degrees of freedom:
    0.5 * I_{df/(df+t^2)}(df/2, 1/2) for t >= 0."""
    t2 = t * t
    tail = 0.5 * _betainc(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))
    return tail if t >= 0.0 else 1.0 - tail


def _t_pdf(t: float, df: float) -> float:
    log_norm = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                - 0.5 * math.log(df * math.pi))
    return math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))


def _t_ppf(q: float, df: float) -> float:
    """Quantile of Student's t: the t with P(T <= t) = q, for 0 < q < 1.

    Newton's method on _t_sf, kept inside a bracket that bisection
    shrinks whenever a Newton step would leave it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    if q < 0.5:
        return -_t_ppf(1.0 - q, df)
    p = 1.0 - q  # exact for q >= 0.5
    if p == 0.5:
        return 0.0
    lo, hi = 0.0, 1.0
    while _t_sf(hi, df) > p:
        lo, hi = hi, 2.0 * hi
    t = 0.5 * (lo + hi)
    for _ in range(_PPF_MAX_ITER):
        excess = _t_sf(t, df) - p
        if excess == 0.0:
            return t
        if excess > 0.0:
            lo = t
        else:
            hi = t
        nxt = t + excess / _t_pdf(t, df)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 4.0 * _CF_EPS * nxt:
            return nxt
        t = nxt
    raise StatisticsError(f"Student-t quantile did not converge (q={q}, df={df})")
