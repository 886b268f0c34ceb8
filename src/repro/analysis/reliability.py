"""System reliability of the fault-tolerant constructions.

The paper's Hayes-model guarantee is combinatorial: the machine survives
iff at most ``k`` of its ``N + k`` processors have failed.  This module
turns that into the reliability numbers a systems audience asks for:

* :func:`survival_probability` — closed-form P(machine alive) with i.i.d.
  per-node failure probability ``q`` (binomial tail), for the FT machine
  vs the bare machine (which dies at the *first* fault);
* :func:`expected_faults_to_failure` — expected number of random node
  failures until the machine dies (k+1 for the FT machine, 1 for bare:
  a clean "spares buy you exactly k extra deaths" statement);
* :func:`monte_carlo_survival` — simulation cross-check of the closed
  forms.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "survival_probability",
    "bare_survival_probability",
    "expected_faults_to_failure",
    "monte_carlo_survival",
    "reliability_table",
]


def survival_probability(n_target: int, k: int, q: float) -> float:
    """P(at most k of n_target + k nodes fail), nodes failing i.i.d. with
    probability ``q`` — the FT machine's survival probability."""
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"failure probability must be in [0,1], got {q}")
    if k < 0 or n_target <= 0:
        raise ParameterError("need n_target > 0 and k >= 0")
    return _binomial_cdf(k, n_target + k, q)


#: Relative size below which the remaining tail terms are dropped; the
#: terms are log-concave, so what is left sums to far below one ulp.
_NEGLIGIBLE = 2.0 ** -70


def _binomial_cdf(k: int, n: int, q: float) -> float:
    """P(X <= k) for X ~ Binomial(n, q) and 0 <= k < n, to a few ulps,
    stdlib only.

    Sums the smaller side of the distribution: the lower tail when ``k``
    is below the mode, else the upper tail, returned as ``1 - upper``.
    Either way the terms shrink monotonically away from the tail's
    boundary term, so they are generated by the pmf ratio recurrence
    relative to that term (no overflow or underflow at any ``n``) and
    summed with :func:`math.fsum`; only the boundary term goes through
    logarithms, with the exact integer binomial coefficient.
    """
    if q == 0.0:
        return 1.0
    if q == 1.0:  # all n > k nodes fail
        return 0.0
    odds = q / (1.0 - q)
    upper = k >= int((n + 1) * q)
    i = anchor = k + 1 if upper else k
    terms = [1.0]
    t = 1.0
    if upper:
        while i < n and t > _NEGLIGIBLE:
            t *= (n - i) * odds / (i + 1)
            i += 1
            terms.append(t)
    else:
        while i > 0 and t > _NEGLIGIBLE:
            t *= i / ((n - i + 1) * odds)
            i -= 1
            terms.append(t)
    log_anchor = (math.log(math.comb(n, anchor)) + anchor * math.log(q)
                  + (n - anchor) * math.log1p(-q))
    tail = math.exp(log_anchor) * math.fsum(terms)
    return 1.0 - tail if upper else tail


def bare_survival_probability(n_target: int, q: float) -> float:
    """P(zero of n_target nodes fail) — the spare-less machine."""
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"failure probability must be in [0,1], got {q}")
    return float((1.0 - q) ** n_target)


def expected_faults_to_failure(k: int) -> int:
    """Number of (adversarial or random) node deaths the machine absorbs
    before failing: ``k + 1``-st death kills it.  The bare machine dies at
    death 1."""
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    return k + 1


def monte_carlo_survival(
    n_target: int, k: int, q: float, trials: int, rng: np.random.Generator
) -> float:
    """Empirical estimate of :func:`survival_probability`."""
    fails = rng.random((trials, n_target + k)) < q
    return float((fails.sum(axis=1) <= k).mean())


def reliability_table(n_target: int, k_values=(0, 1, 2, 4),
                      q_values=(1e-3, 1e-2, 5e-2)) -> list[dict]:
    """REL experiment: survival probabilities across spare counts and
    failure rates, FT vs bare."""
    rows = []
    for q in q_values:
        row = {
            "q": q,
            "bare": bare_survival_probability(n_target, q),
        }
        for k in k_values:
            row[f"k={k}"] = survival_probability(n_target, k, q)
        rows.append(row)
    return rows
