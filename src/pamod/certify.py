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
read off a float Newton root of the condition and verified, with binary
search where the verification fails (the left side is increasing in x
on (0, 1/u)).
A grid scan over u then yields the modularity bound constant: with the
default grid step 1e-4 and precision 1e-5 the minimum lands at
u = 0.0142 with delta 0.14851, giving the bound 0.92383 after rounding
up at five decimals.

The one slack exception: ``complement_term_dominates`` allows
``COMPLEMENT_SLACK`` because its two sides are exactly equal at u = 1/2.

``certify_modularity_bound`` refuses grids of more than
``GRID_POINT_CAP`` points before it starts.  All grid points are
searched together, in numpy blocks of ``_BLOCK`` points, so the
temporaries do not grow with the grid.  On a 2-core Xeon host the
default grid takes about 0.5 ms (0.05 s for one scalar bisection per
point), and the cap 0.12 s; ``pamod certify`` at the cap runs in 0.4 s
and peaks at 32 MiB RSS.  The trace, built only on request, is one
read-only float64 table of the grid's (u_s, delta_s, term_s) rows, 24
bytes per point; with ``--trace`` the cap peaks at 56 MiB in 1.2-1.5 s,
most of it formatting the CSV.

The blocked search evaluates the rate condition with ``np.log``, which
may differ from ``math.log`` in the last bit.  Its decisions are still
exactly those of the scalar ``_rate_holds``: every decision whose gap
``|lhs - rhs|`` is at most ``_RECHECK_RTOL * rhs``, with
``rhs = ln(1/u) > 0`` and ``_RECHECK_RTOL = 2^-46`` (128 unit
roundoffs), is decided again by ``_rate_holds``.  That tolerance rests
on ``np.log`` staying within ``_LOG_ULP_BUDGET = 4`` ulp of ``math.log``
(measured: at most 1 ulp on 10^6 random doubles in (0, 1/2], checked by
the tests).  b ulp in each log move the left side by at most (2b + 4)
and the right side by at most 2b unit roundoffs of max(lhs, rhs), so a
decision can only flip where the gap is within (4b + 4) = 20 units of
max(lhs, rhs), which there is rhs to within a few units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pamod.models import _check_count, _json_int, _shown

COMPLEMENT_SLACK = 1e-12
GRID_POINT_CAP = 10**6
# most tail terms one union_bound_sum or verify_unimodality call takes;
# each holds 40 bytes of float64 temporaries at the peak, so about 80 MB
TAIL_TERM_CAP = 2 * 10**6
# eta with expansion >= eta*h certified: (2e/eta)^(4 eta) < 2 at h = 2
EXPANSION_CONSTANT = 0.03418
# q* <= this for h = 2: certify_modularity_bound() at its default grid
MODULARITY_CONSTANT = 0.92383

_BLOCK = 2**14  # grid points searched together; bounds the temporaries
_LOG_ULP_BUDGET = 4  # assumed max distance of np.log from math.log, in ulp
_RECHECK_RTOL = 2.0**-46  # 128 unit roundoffs; a flip needs at most 20
_NEWTON_CAP = 8  # Newton steps of _float_root; 5-7 suffice at precision >= 1e-13


def _check_h(h: int) -> None:
    if _json_int(h, "h") < 2:
        raise ValueError(f"need h >= 2, got {_shown(h, str)}")
    _as_float(h, "h")


def _as_float(value: int, name: str) -> float:
    """An int that float64 arithmetic takes, as a float; refused past
    float64's range rather than raising OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}={_shown(value, str)} is past float64 range") from None


def _check_terms(count: int) -> None:
    if count > TAIL_TERM_CAP:
        raise ValueError(
            f"{_shown(count, str)} tail terms, over the tail term cap {TAIL_TERM_CAP}"
        )


def _check_u(u: float) -> None:
    if not 0 < u <= 0.5:
        raise ValueError(f"need 0 < u <= 1/2, got {_shown(u, str)}")


def _check_eta(eta: float) -> None:
    if not 0 < eta < 1:
        raise ValueError(f"need 0 < eta < 1, got {_shown(eta, str)}")


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
        _check_h(self.h)
        if not 0 < self.alpha_hat < (self.h - 1) / 2:
            raise ValueError(
                f"need 0 < alpha_hat < (h-1)/2 = {(self.h - 1) / 2}, "
                f"got {_shown(self.alpha_hat, str)}"
            )
        _check_count(self.n, "n")
        _check_u(self.u)


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
    """``trace``: None, or the read-only float64 (steps, 3) table whose
    row s - 1 is (u_s, delta_s, term_s); left out of ==, hash and repr."""

    bound: float  # rounded up at 5 decimals
    minimizer_u: float
    minimizer_delta: float
    grid_step: float
    delta_precision: float
    trace: np.ndarray | None = field(compare=False, repr=False)


def log_tail_term(params: TailParams, k: int) -> float:
    """ln f(k) for integer 1 <= k <= n/2."""
    if not 1 <= _json_int(k, "k") or 2 * k > params.n:
        raise ValueError(f"need 1 <= k <= n/2, got k={_shown(k, str)}, n={_shown(params.n, str)}")
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
        + (h - 1.0 - 2.0 * a) * ks * np.log(ks / _as_float(n, "n"))
    )


def union_bound_sum(params: TailParams) -> TailSum:
    """Sum of f(k) for k = 1..floor(u n), clamped at 1.

    The sum is a union bound on the probability that expansion drops
    below alpha_hat on some set of size fraction <= u, so values above 1
    carry no information; the clamp is flagged.  Accumulation is
    log-sum-exp, so ``log_total`` stays finite even when the plain sum
    overflows.  Refuses more than ``TAIL_TERM_CAP`` terms.
    """
    un = params.u * _as_float(params.n, "n")
    k_top = math.floor(un)
    if k_top < 1:
        raise ValueError(f"u*n = {un} < 1: no set sizes to sum over")
    _check_terms(k_top)
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
    degenerate unimodal with the trough at the matching end.  Refuses
    more than ``TAIL_TERM_CAP`` terms.
    """
    half = params.n // 2
    if half < 2:
        raise ValueError(f"need n >= 4 for a meaningful scan, got n={params.n}")
    _check_terms(half)
    logs = log_tail_terms(params, np.arange(1, half + 1))
    diffs = np.diff(logs)
    down = diffs < 0.0
    if down.all():
        return UnimodalityResult(is_unimodal=True, trough=half)
    first_up = int(np.argmin(down))  # first index where the run stops falling
    is_unimodal = not down[first_up:].any()
    return UnimodalityResult(is_unimodal=bool(is_unimodal), trough=first_up + 1)


def _log_rate(h: int, u, x, log=math.log):
    """ln (e/(u x))^(2 h x), the left side of the rate condition; on
    arrays with ``log=np.log``."""
    return 2.0 * h * x * (1.0 - log(u * x))


def _rate_holds(h: int, u: float, x: float) -> bool:
    """(e/(u x))^(2 h x) < (1/u)^(h-1), strictly, in log space."""
    return _log_rate(h, u, x) < (h - 1.0) * (-math.log(u))


def _check_rate_args(h: int, u: float, x: float) -> None:
    _check_h(h)
    _check_u(u)
    if not 0 < x <= 1:
        raise ValueError(f"need 0 < x <= 1, got {_shown(x, str)}")


def check_rate_condition(h: int, u: float, x: float) -> bool:
    """Strict log-space test of (e/(u x))^(2 h x) < (1/u)^(h-1)."""
    _check_rate_args(h, u, x)
    return _rate_holds(h, u, x)


def rate_condition_value(h: int, u: float, x: float) -> float:
    """(e/(u x))^(2 h x), for reporting, where ``check_rate_condition`` applies."""
    _check_rate_args(h, u, x)
    return math.exp(_log_rate(h, u, x))


def _rate_holds_h2(us: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``_rate_holds(2, u, x)`` elementwise, with the same decisions.

    A gap within ``_RECHECK_RTOL * rhs``, where the last bit of
    ``np.log`` could matter, or a non-finite side (u x underflows to 0)
    is decided again by the scalar form.
    """
    with np.errstate(divide="ignore"):
        lhs = _log_rate(2, us, xs, np.log)
        rhs = -np.log(us)  # (h - 1) * -ln u at h = 2
    holds = lhs < rhs
    sure = (np.abs(lhs - rhs) > _RECHECK_RTOL * rhs) & np.isfinite(lhs)
    for i in np.flatnonzero(~sure):
        holds[i] = _rate_holds(2, float(us[i]), float(xs[i]))
    return holds


def _float_root(us: np.ndarray, precision: float) -> np.ndarray:
    """Per u in ``us``, a float approximation d of the root of
    g(d) = ln (e/(u d))^(4d) - ln(1/u), clipped at 1/4.

    Newton steps run from d = ``precision`` with g'(d) = -4 ln(u d).  g is
    increasing and concave on (0, 1/u), so each tangent meets zero at or
    left of the root and the iterates rise to it without overshooting.
    They stop once no point moves by more than ``precision`` / 1000, or
    after ``_NEWTON_CAP`` steps, which ends the loop where the float
    spacing of d is coarser than that (precision below about 1e-13).
    """
    d = np.full(us.shape, precision)
    rhs = -np.log(us)  # ln(1/u)
    for _ in range(_NEWTON_CAP):
        step = (rhs - _log_rate(2, us, d, np.log)) / (-4.0 * np.log(us * d))
        nxt = np.minimum(d + step, 0.25)
        moved = np.abs(nxt - d).max(initial=0.0)
        d = nxt
        if moved <= precision / 1000:
            break
    return d


def _certified_js(us: np.ndarray, precision: float) -> np.ndarray:
    """Per u in ``us``, the largest j with j * precision < 1/4 such that
    d = j * precision is certifiable at u.

    Certifiable means the h = 2 rate condition (e/(u d))^(4d) < 1/u
    holds strictly.  The left side is increasing in d on (0, 1/u), so
    admissible multiples form a prefix and binary search applies: all
    points bisect in lock-step with mid = (lo + hi + 1) // 2, each step
    moving only the points with lo < hi.

    The brackets start from ``_float_root``'s d.  With j0 = floor(d /
    precision) clipped to [1, j_max], a point where j0 holds, and j0 + 1
    fails or j0 = j_max, starts and ends at [j0, j0]; every other point
    starts at [1, j_max] and walks the path of a scalar search.  d only
    places brackets: every decision is ``_rate_holds_h2``'s, so the
    scalar ``_rate_holds``'s.  A verified j is the scalar search's
    answer, since over a prefix exactly one j holds with j + 1 failing
    or j = j_max.  At the default grid no point needs the full bracket
    at precision >= 1e-10; at 1e-15 about 1 in 70 does, where a multiple
    spans only a few float spacings of d.  Callers pass at most
    ``_BLOCK`` points, which bounds the temporaries.  Below precision
    2^-55 there are more than 2^53 multiples under 1/4, past float64's
    exact integers, so the search could not find the top one.
    """
    if not 2.0**-55 <= precision <= 0.25:
        raise ValueError(f"need 2^-55 <= precision <= 1/4, got {_shown(precision, str)}")
    j_max = int(math.floor(0.25 / precision))
    while j_max * precision >= 0.25:
        j_max -= 1
    if j_max < 1:
        raise ValueError(f"precision {precision} leaves no admissible multiples")
    fails = np.flatnonzero(~_rate_holds_h2(us, np.full(us.shape, precision)))
    if fails.size:
        u = float(us[fails[0]])
        raise ValueError(f"no multiple of {precision} certifiable at u={u}")
    j0 = np.floor(_float_root(us, precision) / precision)
    j0 = np.clip(j0, 1, j_max).astype(np.int64)
    top = _rate_holds_h2(us, j0 * precision) & (
        (j0 == j_max) | ~_rate_holds_h2(us, np.minimum(j0 + 1, j_max) * precision)
    )
    lo = np.where(top, j0, 1)
    hi = np.where(top, j0, j_max)
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live] + 1) // 2
        ok = _rate_holds_h2(us[live], mid * precision)
        lo[live[ok]] = mid[ok]
        hi[live[~ok]] = mid[~ok] - 1
        live = live[lo[live] < hi[live]]
    return lo


def max_certified_delta(u: float, precision: float = 1e-5) -> float:
    """Largest multiple d of ``precision`` with d < 1/4 certifiable at u:
    the one-point case of ``_certified_js``."""
    _check_u(u)
    return int(_certified_js(np.array([u], np.float64), precision)[0]) * precision


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
    certifiable rate at u_s; the bound is one minus the smallest term
    (its first occurrence), rounded up at five decimals so it stays an
    upper bound.  The default grid reproduces ``MODULARITY_CONSTANT``
    0.92383 at u = 0.0142 with delta 0.14851.  Points are certified in
    blocks of ``_BLOCK``; ``with_trace`` fills the certificate's trace
    table block by block.
    """
    if not 0 < grid_step <= 0.5:
        raise ValueError(f"need 0 < grid_step <= 1/2, got {_shown(grid_step, str)}")
    # round(0.5 / grid_step) > cap, read before round() can meet an inf
    if 0.5 / grid_step > GRID_POINT_CAP + 0.5:
        raise ValueError(
            f"grid_step {grid_step} gives more than GRID_POINT_CAP = "
            f"{GRID_POINT_CAP} grid points"
        )
    steps = round(0.5 / grid_step)
    if abs(steps * grid_step - 0.5) > 1e-9 or steps < 1:
        raise ValueError(f"grid_step {grid_step} does not divide 1/2")
    best = (math.inf, 0.0, 0.0)  # (term, u, delta); an earlier block keeps a tie
    trace = np.empty((steps, 3)) if with_trace else None
    for start in range(0, steps, _BLOCK):
        s = np.arange(start + 1, min(start + _BLOCK, steps) + 1)
        us = s * grid_step
        deltas = _certified_js(us, precision) * precision
        terms = _small_set_term((s - 1) * grid_step, deltas)
        i = int(np.argmin(terms))
        best = min(best, (float(terms[i]), float(us[i]), float(deltas[i])))
        if trace is not None:
            trace[start : start + len(s)] = np.column_stack((us, deltas, terms))
    if trace is not None:
        trace.flags.writeable = False
    best_term, best_u, best_delta = best
    bound = math.ceil((1.0 - best_term) * 1e5) / 1e5
    return BoundCertificate(
        bound=bound,
        minimizer_u=round(best_u, 10),
        minimizer_delta=round(best_delta, 10),
        grid_step=grid_step,
        delta_precision=precision,
        trace=trace,
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
    _check_u(u)
    if not 0 <= delta <= 1:
        raise ValueError(f"need 0 <= delta <= 1, got {_shown(delta, str)}")
    lhs, rhs = _complement_sides(u, delta)
    return lhs <= rhs + COMPLEMENT_SLACK


def complement_gap_grid(us: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """rhs - lhs of the domination inequality on a (u, delta) meshgrid."""
    uu, dd = np.meshgrid(np.asarray(us, float), np.asarray(deltas, float))
    lhs, rhs = _complement_sides(uu, dd)
    return rhs - lhs


def expansion_constant_value(eta: float) -> float:
    """(2e/eta)^(4 eta), the h = 2 witness value for the constant eta."""
    _check_eta(eta)
    return rate_condition_value(2, 0.5, eta)


def check_expansion_constant(eta: float = EXPANSION_CONSTANT) -> bool:
    """True when (2e/eta)^(4 eta) < 2, certifying expansion >= eta*h.

    The test is the u = 1/2 rate condition at h = 2; for h > 2 the
    condition only gets easier, so one strict comparison covers all h.
    The default constant passes with value 1.99984; already 0.035 fails.
    """
    _check_eta(eta)
    return _rate_holds(2, 0.5, eta)


def large_h_modularity_bound(h: int) -> float:
    """Leading-order comparator 3*sqrt(2 ln 2)*sqrt(ln h)/sqrt(h).

    Kept for reporting only: it drops lower-order terms, so nothing is
    asserted against it.  Strictly decreasing for h >= 3 and -> 0.
    """
    _check_h(h)
    return 3.0 * math.sqrt(2.0 * math.log(2.0)) * math.sqrt(math.log(h) / h)
