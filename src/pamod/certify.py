"""Floating-point certification of expansion and modularity constants.

Everything here evaluates strict inequalities in natural-log space with
zero slack (one documented exception below), so "certified" means the
double-precision comparison holds with room to spare at the published
constants.

The tail term for the event "some k-subset has expansion below
alpha_hat" is

    f(k) = (alpha_hat k) * (e h / alpha_hat)^(2 alpha_hat k)
                        * (k/n)^((h - 1 - 2 alpha_hat) k)

and the union bound sums f(k) for k = 1..floor(u n).  The rate
condition

    (e/(u x))^(2 h x) < (1/u)^(h-1)

decides which expansion rates x are certifiable at set-size fraction u;
for h = 2 the largest admissible multiple of ``precision`` below 1/4 is
found by binary search (the left side is increasing in x on (0, 1/u)).
A grid scan over u then yields the modularity bound constant: with the
default grid step 1e-4 and precision 1e-5 the minimum lands at
u = 0.0142 with delta 0.14851, giving the bound 0.92383 after rounding
up at five decimals.

The one slack exception: ``complement_term_dominates`` allows
``COMPLEMENT_SLACK`` because its two sides are exactly equal at u = 1/2.

``certify_modularity_bound`` refuses grids of more than
``GRID_POINT_CAP`` points before it starts.  Its cost is linear in the
point count: at the cap, about 18 s on a 2-core Xeon host, and 20 s and
200 MiB peak RSS when ``pamod certify --trace`` keeps every point's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COMPLEMENT_SLACK = 1e-12
GRID_POINT_CAP = 10**6


@dataclass(frozen=True)
class TailParams:
    """Parameters of the tail term f(k).

    alpha_hat is the candidate expansion value for mini-trees, and must
    sit strictly inside (0, (h-1)/2); u is the set-size fraction.
    """

    h: int
    alpha_hat: float
    n: int
    u: float

    def __post_init__(self) -> None:
        if self.h < 2:
            raise ValueError(f"need h >= 2, got {self.h}")
        if not 0 < self.alpha_hat < (self.h - 1) / 2:
            raise ValueError(
                f"need 0 < alpha_hat < (h-1)/2 = {(self.h - 1) / 2}, "
                f"got {self.alpha_hat}"
            )
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 0 < self.u <= 0.5:
            raise ValueError(f"need 0 < u <= 1/2, got {self.u}")


@dataclass(frozen=True)
class TailSum:
    total: float  # unclamped sum of f(k); may overflow to inf
    bound: float  # min(total, 1): a probability upper bound
    clamped: bool
    log_total: float  # always finite via log-sum-exp


@dataclass(frozen=True)
class UnimodalityResult:
    is_unimodal: bool
    trough: int  # position of the minimum of log f over 1..floor(n/2)


@dataclass(frozen=True)
class BoundCertificate:
    bound: float  # rounded up at 5 decimals
    minimizer_u: float
    minimizer_delta: float
    grid_step: float
    delta_precision: float
    trace: tuple[tuple[float, float, float], ...] | None  # (u_s, delta, term)


def log_tail_term(params: TailParams, k: int) -> float:
    """ln f(k) for integer 1 <= k <= n/2."""
    if not 1 <= k or 2 * k > params.n:
        raise ValueError(f"need 1 <= k <= n/2, got k={k}, n={params.n}")
    return float(log_tail_terms(params, np.array([k]))[0])


def log_tail_terms(params: TailParams, ks: np.ndarray) -> np.ndarray:
    """Vectorized ln f(k); callers guarantee 1 <= k <= n/2."""
    a = params.alpha_hat
    h = params.h
    n = params.n
    ks = np.asarray(ks, dtype=np.float64)
    return (
        np.log(a * ks)
        + 2.0 * a * ks * (1.0 + math.log(h / a))
        + (h - 1.0 - 2.0 * a) * ks * np.log(ks / n)
    )


def union_bound_sum(params: TailParams) -> TailSum:
    """Sum of f(k) for k = 1..floor(u n), clamped at 1.

    The sum is a union bound on the probability that expansion drops
    below alpha_hat on some set of size fraction <= u, so values above 1
    carry no information; the clamp is flagged.  Accumulation is
    log-sum-exp, so ``log_total`` stays finite even when the plain sum
    overflows.
    """
    k_top = math.floor(params.u * params.n)
    if k_top < 1:
        raise ValueError(
            f"u*n = {params.u * params.n} < 1: no set sizes to sum over"
        )
    logs = log_tail_terms(params, np.arange(1, k_top + 1))
    peak = float(np.max(logs))
    log_total = peak + math.log(float(np.sum(np.exp(logs - peak))))
    total = math.exp(log_total) if log_total < 709.0 else math.inf
    clamped = total > 1.0
    return TailSum(
        total=total,
        bound=1.0 if clamped else total,
        clamped=clamped,
        log_total=log_total,
    )


def verify_unimodality(params: TailParams) -> UnimodalityResult:
    """Check that log f first decreases, then increases, over 1..floor(n/2).

    Scans consecutive differences; at most one sign change, and only
    downward-to-upward, qualifies as unimodal.  Monotone runs count as
    degenerate unimodal with the trough at the matching end.
    """
    half = params.n // 2
    if half < 2:
        raise ValueError(f"need n >= 4 for a meaningful scan, got n={params.n}")
    logs = log_tail_terms(params, np.arange(1, half + 1))
    diffs = np.diff(logs)
    down = diffs < 0.0
    if down.all():
        return UnimodalityResult(is_unimodal=True, trough=half)
    first_up = int(np.argmin(down))  # first index where the run stops falling
    is_unimodal = not down[first_up:].any()
    return UnimodalityResult(is_unimodal=bool(is_unimodal), trough=first_up + 1)


def _log_rate(h: int, u: float, x: float) -> float:
    """ln (e/(u x))^(2 h x), the left side of the rate condition."""
    return 2.0 * h * x * (1.0 - math.log(u * x))


def _rate_holds(h: int, u: float, x: float) -> bool:
    """(e/(u x))^(2 h x) < (1/u)^(h-1), strictly, in log space."""
    return _log_rate(h, u, x) < (h - 1.0) * (-math.log(u))


def check_rate_condition(h: int, u: float, x: float) -> bool:
    """Strict log-space test of (e/(u x))^(2 h x) < (1/u)^(h-1)."""
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    if not 0 < u <= 0.5:
        raise ValueError(f"need 0 < u <= 1/2, got {u}")
    if not 0 < x <= 1:
        raise ValueError(f"need 0 < x <= 1, got {x}")
    return _rate_holds(h, u, x)


def rate_condition_value(h: int, u: float, x: float) -> float:
    """(e/(u x))^(2 h x), for reporting."""
    return math.exp(_log_rate(h, u, x))


def max_certified_delta(u: float, precision: float = 1e-5) -> float:
    """Largest multiple d of ``precision`` with d < 1/4 certifiable at u.

    Certifiable means the h = 2 rate condition (e/(u d))^(4d) < 1/u
    holds strictly.  The left side is increasing in d on (0, 1/u), so
    admissible multiples form a prefix and binary search applies.  Below
    precision 2^-55 there are more than 2^53 multiples under 1/4, past
    float64's exact integers, so the search could not find the top one.
    """
    if not 0 < u <= 0.5:
        raise ValueError(f"need 0 < u <= 1/2, got {u}")
    if not 2.0**-55 <= precision <= 0.25:
        raise ValueError(f"need 2^-55 <= precision <= 1/4, got {precision}")

    def ok(j: int) -> bool:
        return _rate_holds(2, u, j * precision)

    j_max = int(math.floor(0.25 / precision))
    while j_max * precision >= 0.25:
        j_max -= 1
    if j_max < 1:
        raise ValueError(f"precision {precision} leaves no admissible multiples")
    if not ok(1):
        raise ValueError(f"no multiple of {precision} certifiable at u={u}")
    if ok(j_max):
        return j_max * precision
    lo, hi = 1, j_max
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo * precision


def _small_set_term(u, delta):
    """delta/(2+delta) + u/2 on floats, arrays or Fractions; q* is at
    most 1 minus its minimum over u."""
    return delta / (2 + delta) + u / 2


def certify_modularity_bound(
    grid_step: float = 1e-4,
    precision: float = 1e-5,
    with_trace: bool = False,
) -> BoundCertificate:
    """Certify a modularity upper bound constant by a grid scan over u.

    For grid points u_s = s*grid_step up to 1/2, the certified term is
    delta_s/(2 + delta_s) + u_{s-1}/2 with delta_s the largest
    certifiable rate at u_s; the bound is one minus the smallest term,
    rounded up at five decimals so it stays an upper bound.  The default
    grid reproduces bound 0.92383 at u = 0.0142 with delta 0.14851.
    """
    if not 0 < grid_step <= 0.5:
        raise ValueError(f"need 0 < grid_step <= 1/2, got {grid_step}")
    # round(0.5 / grid_step) > cap, read before round() can meet an inf
    if 0.5 / grid_step > GRID_POINT_CAP + 0.5:
        raise ValueError(
            f"grid_step {grid_step} gives more than GRID_POINT_CAP = "
            f"{GRID_POINT_CAP} grid points"
        )
    steps = round(0.5 / grid_step)
    if abs(steps * grid_step - 0.5) > 1e-9 or steps < 1:
        raise ValueError(f"grid_step {grid_step} does not divide 1/2")
    best_term = math.inf
    best_u = 0.0
    best_delta = 0.0
    trace: list[tuple[float, float, float]] = []
    for s in range(1, steps + 1):
        u_s = s * grid_step
        delta = max_certified_delta(u_s, precision)
        term = _small_set_term((s - 1) * grid_step, delta)
        if with_trace:
            trace.append((u_s, delta, term))
        if term < best_term:
            best_term = term
            best_u = u_s
            best_delta = delta
    bound = math.ceil((1.0 - best_term) * 1e5) / 1e5
    return BoundCertificate(
        bound=bound,
        minimizer_u=round(best_u, 10),
        minimizer_delta=round(best_delta, 10),
        grid_step=grid_step,
        delta_precision=precision,
        trace=tuple(trace) if with_trace else None,
    )


def _complement_sides(u, delta):
    """(lhs, rhs) of the domination inequality; floats or arrays."""
    return (
        _small_set_term(u, delta),
        delta * u / (2.0 * (1.0 - u) + delta * u) + (1.0 - u) / 2.0,
    )


def complement_term_dominates(u: float, delta: float) -> bool:
    """delta/(2+delta) + u/2 <= delta*u/(2(1-u)+delta*u) + (1-u)/2, up to
    ``COMPLEMENT_SLACK``.

    This is the reduction that lets small-set terms cover complements of
    large sets.  The two sides agree exactly at u = 1/2, hence the tiny
    additive slack instead of the strict zero-slack rule used elsewhere.
    """
    if not 0 < u <= 0.5:
        raise ValueError(f"need 0 < u <= 1/2, got {u}")
    if not 0 <= delta <= 1:
        raise ValueError(f"need 0 <= delta <= 1, got {delta}")
    lhs, rhs = _complement_sides(u, delta)
    return lhs <= rhs + COMPLEMENT_SLACK


def complement_gap_grid(us: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """rhs - lhs of the domination inequality on a (u, delta) meshgrid."""
    uu, dd = np.meshgrid(np.asarray(us, float), np.asarray(deltas, float))
    lhs, rhs = _complement_sides(uu, dd)
    return rhs - lhs


def expansion_constant_value(eta: float) -> float:
    """(2e/eta)^(4 eta), the h = 2 witness value for the constant eta."""
    if not 0 < eta < 1:
        raise ValueError(f"need 0 < eta < 1, got {eta}")
    return rate_condition_value(2, 0.5, eta)


def check_expansion_constant(eta: float = 0.03418) -> bool:
    """True when (2e/eta)^(4 eta) < 2, certifying expansion >= eta*h.

    The test is the u = 1/2 rate condition at h = 2; for h > 2 the
    condition only gets easier, so one strict comparison covers all h.
    The default constant passes with value 1.99984; already 0.035 fails.
    """
    if not 0 < eta < 1:
        raise ValueError(f"need 0 < eta < 1, got {eta}")
    return _rate_holds(2, 0.5, eta)


def large_h_modularity_bound(h: int) -> float:
    """Leading-order comparator 3*sqrt(2 ln 2)*sqrt(ln h)/sqrt(h).

    Kept for reporting only: it drops lower-order terms, so nothing is
    asserted against it.  Strictly decreasing for h >= 3 and -> 0.
    """
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    return 3.0 * math.sqrt(2.0 * math.log(2.0)) * math.sqrt(math.log(h) / h)
