#!/usr/bin/env python3
"""Regenerate the gain-to-SNR lookup table used by the WADA SNR estimator.

The estimator's statistic is

    G = ln E[|z|] - E[ln |z|]

for a signal z = s + n, where the clean-speech amplitude |s| follows a
Gamma distribution with shape 0.4 (two-sided, symmetric signs) and n is
zero-mean Gaussian noise. G is a strictly increasing function of the
mixing SNR, saturating at the pure-noise value (~0.40939) below and the
pure-speech value ln(0.4) - digamma(0.4) (~1.64509) above. The table is
computed from

  * closed-form conditional expectations given the speech amplitude s:
    folded-normal mean for E[|z| | s] and a Poisson-weighted digamma
    series (noncentral chi-square log-moment) for E[ln|z| | s], and
  * the outer expectation over the Gamma-distributed s evaluated on a log
    grid (s = e^x), where the integrand is smooth and decays exponentially
    on both sides, so the trapezoid rule converges to machine precision.

Output file: one "gain snr_db" pair per line, -20 dB to +100 dB. Residual
flat spots at the saturated ends are nudged onto a strictly increasing
sequence, which the interpolating inverse lookup requires.

Requires scipy, which the package itself does not depend on. The standard
library could stand in for `special.erf`, `gammaln` and `digamma`
(`math.erf`, `math.lgamma`, and a recurrence plus asymptotic series for
digamma), but not bit for bit: `math.lgamma` differs from `gammaln` by up
to 1.5e-11 near the Poisson series' largest j (about 6,000), and with those
replacements 38 to 39 of the 241 rows change in the 12th decimal, so the
committed table would no longer regenerate byte-identically. With scipy
(1.17.1 checked) it does.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy import special

GAMMA_SHAPE = 0.4
DB_STEP = 0.5
DB_MIN, DB_MAX = -20.0, 100.0
X_STEP = 0.04
ASYMPTOTIC_LAMBDA = 1e4

OUT_PATH = Path(__file__).resolve().parents[1] / "src" / "asr_inconsistency" / "data" / "wada_gain_table.txt"


def folded_normal_mean(mu: np.ndarray, sigma: float) -> np.ndarray:
    """E[|X|] for X ~ N(mu, sigma^2), vectorized over mu."""
    return (sigma * math.sqrt(2.0 / math.pi) * np.exp(-(mu ** 2) / (2 * sigma ** 2))
            + mu * special.erf(mu / (sigma * math.sqrt(2.0))))


def _noncentral_chisq1_log_moment(lam: float) -> float:
    """E[ln W] for W ~ noncentral chi-square, 1 dof, noncentrality lam."""
    if lam == 0.0:
        return math.log(2.0) + special.digamma(0.5)
    if lam > ASYMPTOTIC_LAMBDA:
        return math.log(lam) - 1.0 / lam - 1.5 / lam ** 2
    half = lam / 2.0
    width = 12.0 * math.sqrt(half + 1.0)
    j0 = max(0, int(half - width))
    j1 = int(half + width) + 1
    j = np.arange(j0, j1 + 1, dtype=np.float64)
    logw = j * math.log(half) - half - special.gammaln(j + 1.0)
    # the truncated Poisson tail mass is < 1e-30 at 12 sigma
    return float(np.sum(np.exp(logw) * (math.log(2.0) + special.digamma(j + 0.5))))


def log_abs_normal_mean(mu: np.ndarray, sigma: float) -> np.ndarray:
    """E[ln |X|] for X ~ N(mu, sigma^2), vectorized over mu."""
    lam = (mu / sigma) ** 2
    out = np.empty_like(lam)
    big = lam > ASYMPTOTIC_LAMBDA
    lb = lam[big]
    out[big] = np.log(lb) - 1.0 / lb - 1.5 / lb ** 2
    idx = np.nonzero(~big)[0]
    for i in idx:
        out[i] = _noncentral_chisq1_log_moment(float(lam[i]))
    return 0.5 * (math.log(sigma ** 2) + out)


class GammaExpectation:
    """E[h(s)] for s ~ Gamma(shape, rate) on the log grid s = e^x."""

    def __init__(self, shape: float, rate: float) -> None:
        self.shape = shape
        self.rate = rate
        self.log_norm = shape * math.log(rate) - math.lgamma(shape)

    def __call__(self, h, scale: float) -> float:
        # the integrand e^(shape*x) exp(-rate*e^x) h(e^x) is smooth; the
        # left edge covers the h-variation scale with 45 nats of headroom
        x_min = min(math.log(scale), 0.0) - 45.0
        x_max = 6.0 - math.log(self.rate)
        x = np.arange(x_min, x_max, X_STEP)
        s = np.exp(x)
        vals = np.exp(self.shape * x - self.rate * s) * h(s)
        return float(np.sum(vals)) * X_STEP * math.exp(self.log_norm)


def gain_for_snr_db(snr_db: float, expect: GammaExpectation) -> float:
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0))
    e_abs = expect(lambda s: folded_normal_mean(s, sigma), sigma)
    e_log = expect(lambda s: log_abs_normal_mean(s, sigma), sigma)
    return math.log(e_abs) - e_log


def main() -> int:
    # speech normalized to unit power: E[s^2] = shape*(shape+1)/rate^2 = 1
    rate = math.sqrt(GAMMA_SHAPE * (GAMMA_SHAPE + 1.0))
    expect = GammaExpectation(GAMMA_SHAPE, rate)
    db_grid = np.arange(DB_MIN, DB_MAX + DB_STEP / 2, DB_STEP)
    gains = np.array([gain_for_snr_db(db, expect) for db in db_grid])

    # sanity: endpoints against the closed-form limits
    g_noise = 0.5 * math.log(2.0 / math.pi) + 0.5 * (np.euler_gamma + math.log(2.0))
    g_speech = math.log(GAMMA_SHAPE) - special.digamma(GAMMA_SHAPE)
    print(f"pure-noise limit  {g_noise:.9f}  table[-20dB]  {gains[0]:.9f}")
    print(f"pure-speech limit {g_speech:.9f}  table[+100dB] {gains[-1]:.9f}")

    for i in range(1, len(gains)):
        if gains[i] <= gains[i - 1]:
            gains[i] = gains[i - 1] + 1e-12

    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT_PATH, "w", encoding="utf-8") as fout:
        fout.write("# gain snr_db -- WADA statistic G = ln E|z| - E ln|z| vs mixing SNR\n")
        fout.write(f"# gamma shape {GAMMA_SHAPE}, regenerate with scripts/make_wada_table.py\n")
        for g, db in zip(gains, db_grid):
            fout.write(f"{g:.12f} {db:.1f}\n")
    print(f"wrote {len(db_grid)} rows to {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
