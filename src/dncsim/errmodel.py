"""Executable error-propagation and runtime models.

All logarithms are base 2 (the derivations rely on 2^log(x) = x); natural
logs appear only inside explicit ln(2) factors.  Big-O constants are set to 1
and reported, never asserted, except that the three lemma bounds are clamped
to preserve the ordering they are used with (see script_bounds).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def default_e_of_n(delta: float, n: int) -> float:
    """Default slice residual: 1 - 2^(log(delta)/log^7(n))."""
    if not 0 < delta < 1:
        return 0.0
    h = math.log2(n) ** 7
    return 1.0 - 2.0 ** (math.log2(delta) / h)


@dataclass(frozen=True)
class ErrorModel:
    n: int
    d: int
    D: int
    h: float
    Delta: int
    K: int
    T: int
    eta: float
    e_of_n: float = 0.0
    g_of_n: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.e_of_n <= 1.0:
            raise ValueError("e_of_n must lie in [0, 1]")
        if self.g_of_n < 0.0:
            raise ValueError("g_of_n must be non-negative")
        if self.K < 1 or self.T < 1:
            raise ValueError("K and T must be >= 1")


def e1(delta: float, h: float) -> float:
    """Slice-test error margin 2^(log d / 2h - 1) - 2^(log d / h - 1)."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    l = math.log2(delta)
    return 2.0 ** (l / (2 * h) - 1) - 2.0 ** (l / h - 1)


def e1_lower_bound(delta: float, h: float) -> float:
    """-log(delta)/(4h) * 2^(log(delta)/h) * ln 2 (a lower bound on e1)."""
    l = math.log2(delta)
    return -l / (4 * h) * 2.0 ** (l / h) * math.log(2.0)


def e2(delta: float, n: int) -> float:
    """delta * 2^(-10 log(n) loglog(n))."""
    if n < 4:
        raise ValueError(f"n must be >= 4 so loglog(n) is defined, got {n}")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    ln = math.log2(n)
    return delta * 2.0 ** (-10.0 * ln * math.log2(ln))


def e3(eps: float, Delta: int) -> float:
    """eps / 2^Delta."""
    if Delta < 0:
        raise ValueError("Delta must be >= 0")
    return eps / (2.0**Delta)


def e5(delta: float, model: ErrorModel) -> float:
    """E3(E2(E1 iterated D times)) -- D = 0 degenerates to E3(E2(delta))."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    out = delta
    for _ in range(model.D):
        out = e1(out, model.h)
    return e3(e2(out, model.n), model.Delta)


def script_bounds(model: ErrorModel, eps: float) -> tuple[float, float, float]:
    """The three per-term lemma bounds (single-, double-, multi-cut).

    With the big-O constant set to 1 the multi-cut bound can dip below the
    double-cut bound outside the asymptotic regime (K far above 2^Delta), so
    it is clamped to keep the ordering bound3 >= bound2 >= bound1 that the
    error recursion consumes.
    """
    e, g = model.e_of_n, model.g_of_n
    K, T, Delta = model.K, model.T, model.Delta
    et = e ** (2 * T)
    b1 = 10.0 * K * (et + 6.0 * g + eps)
    b2 = b1 + eps
    b3 = (2.0**Delta) * 6.0 * g + (2.0**Delta) * K * (et + eps) + eps
    b3 = max(b3, b2)
    return b1, b2, b3


def predicted_error(model: ErrorModel, eps: float) -> float:
    """Closed-form recursion bound eta (20 Delta^2)^eta ((2e+2g)^Delta + 3 Delta^2 B3)."""
    e, g = model.e_of_n, model.g_of_n
    _, _, b3 = script_bounds(model, eps)
    lead = model.eta * (20.0 * model.Delta**2) ** model.eta
    return lead * ((2.0 * e + 2.0 * g) ** model.Delta + 3.0 * model.Delta**2 * b3)


# ---------------------------------------------------------------------------
# runtime predictors
# ---------------------------------------------------------------------------


def eta_i(n: int, i: int) -> float:
    """Per-dimension recursion budget log(n) / (i log(4/3))."""
    return math.log2(n) / (i * math.log2(4.0 / 3.0))


def default_base_cost(n: int, d: int, w: float, delta: float) -> float:
    """Two-dimensional base-case cost model, ~ delta^-2 * 2^(d^3 w^(1/2))."""
    exponent = min(d**3 * w ** 0.5, 500.0)
    return delta**-2 * 2.0**exponent


def predicted_runtime(
    l: float,
    D: int,
    d: int,
    w: float,
    delta: float,
    model: ErrorModel,
) -> dict:
    """Numeric evaluation of the mutual cost recurrences (abstract units).

    A base case costs `default_base_cost`; every recursive step adds one unit.

    Returns the recursion cost, the closed-form envelope
    delta^-2 * 2^(O((d polylog n)^(D 3^D)) w^(1/3)) with the O-constant as a
    reported fit parameter (never asserted), and the call counts by family.
    """
    n = model.n
    Delta, h = model.Delta, model.h
    counts = {"dim_reduce": 0, "recursive": 0, "middle": 0, "sigma": 0, "kappa": 0, "base": 0}

    def t1(l_, D_, d_, w_, delta_, depth=0) -> float:
        if depth > 60 or l_ < 1:
            raise ValueError("non-terminating parameter combination")
        if D_ <= 2:
            counts["base"] += 1
            return default_base_cost(n, d_, w_, delta_)
        slices = max(1, int(l_ / (10 * d_)))
        counts["dim_reduce"] += slices
        sub = slices * t1(l_, D_ - 1, d_, w_ * d_, e1(min(delta_, 1.0), h), depth + 1)
        return sub + t2(l_, D_, d_, w_, e2(delta_, n), eta_i(n, D_), depth + 1)

    def t2(l_, D_, d_, w_, eps_, eta_, depth=0) -> float:
        if depth > 200:
            raise ValueError("non-terminating parameter combination")
        if l_ <= 1 or eta_ < 1:
            counts["base"] += 1
            return t1(max(l_, 1.0), D_ - 1, d_, w_, eps_, depth + 1)
        counts["recursive"] += 2 * Delta
        counts["middle"] += Delta * (Delta - 1) // 2
        counts["sigma"] += Delta**2 * 2**Delta
        counts["kappa"] += 2 * Delta
        cost = 2 * Delta * t2(0.75 * l_, D_, d_, w_, eps_, eta_ - 1, depth + 1)
        cost += Delta**2 * t1(l_, D_ - 1, d_**3, w_ * d_, eps_, depth + 1)
        cost += Delta**2 * 2**Delta * t1(l_, D_ - 1, d_**3, w_ * d_, e3(eps_, Delta), depth + 1)
        cost += 2 * Delta * t1(l_, D_ - 1, d_**2, w_ * d_, eps_, depth + 1)
        return cost + 1.0

    cost = t1(l, D, d, w, delta)
    envelope_exp = (d * max(math.log2(n), 1.0)) ** (D * 3**D) * w ** (1.0 / 3.0)
    envelope = {
        "form": "delta^-2 * 2^(c * (d polylog n)^(D 3^D) * w^(1/3))",
        "fit_constant": math.log2(max(cost * delta**2, 2.0)) / max(envelope_exp, 1e-12),
    }
    return {"cost": cost, "counts": dict(counts), "envelope": envelope}
