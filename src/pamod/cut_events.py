"""Exact and Monte-Carlo checks of the cut-event probability bound.

For a fixed vertex subset S with |S| = k and a fixed set A of arrival
indices with |A| < h k, the probability that the boundary edge set of S
is exactly A satisfies

    P(E(S, S-compl) = A) <= C(hk, |A|) / C(hn - |A|, hk - |A|).

Events are identified by arrival index: edge e_t is "in the boundary"
when its merged endpoints straddle S.  e_1 is always a loop at vertex 1,
so any A containing arrival 1 has probability zero.

Both exact checks run the lemma's chain rule, ``_chain``: S fixes the
side of every mini-vertex and the earlier crossings fix both side
volumes, so P(A) is a product of h*n integers over the process's common
denominator.  Each check has one size cap and refuses before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from pamod.cuts import _members
from pamod.models import (
    Model,
    _check_count,
    _check_hn,
    _check_model,
    _check_seed,
    _check_vertices,
    _enumerate_logs,  # unused here; perfbench/test_perfbench.py imports it from here
    _json_int,
    sample_target_matrix,
    vertex_of,
)

# Longest h*n of ``exact_cut_event``; its big-integer work grows like
# (h*n)^2, 0.4 s at the cap (2-core Xeon).
CHAIN_LENGTH_CAP = 20_000
# Most units (2^n - 2) * (h*n)^3 of ``scan_cut_events`` work, at about
# 6 * 10^-8 s each (2-core Xeon).
SCAN_WORK_CAP = 10**8


@dataclass(frozen=True)
class CutEventSpec:
    """A (subset, arrival-set) event for the h, n process.

    The constructor enforces |A| < h|S|; in particular |A| = h|S| is
    rejected, since the bound's denominator degenerates there and the
    inequality is not claimed.
    """

    h: int
    n: int
    subset: frozenset[int]
    arrivals: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subset", frozenset(self.subset))
        object.__setattr__(self, "arrivals", frozenset(self.arrivals))
        _check_hn(self.h, self.n)
        if not self.subset:
            raise ValueError("subset must be nonempty")
        _check_vertices(self.subset, self.n)
        hn = self.h * self.n
        for t in self.arrivals:
            if not 1 <= t <= hn:
                raise ValueError(f"arrival {t} out of range 1..{hn}")
        if len(self.arrivals) >= self.h * len(self.subset):
            raise ValueError(
                f"|A| = {len(self.arrivals)} must be < h|S| = "
                f"{self.h * len(self.subset)}"
            )


@dataclass(frozen=True)
class MCEstimate:
    trials: int
    hits: int
    p_hat: float
    std_err: float
    bound: Fraction


@dataclass(frozen=True)
class CutEventScan:
    """``max_ratio``: the largest exact P / bound of a checked pair, first
    reached at (S, |A|) = ``max_ratio_at`` (by subset mask, then |A|); 0
    and None when no pair was checked."""

    model: Model
    h: int
    n: int
    pairs_checked: int
    violations: tuple[tuple[frozenset[int], frozenset[int]], ...]
    max_ratio: Fraction
    max_ratio_at: tuple[frozenset[int], int] | None


def cut_event_bound(h: int, n: int, k: int, a: int) -> Fraction:
    """C(hk, a) / C(hn - a, hk - a), exactly; over 1 (vacuous, but valid)
    for large a."""
    _check_hn(h, n)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if not 0 <= a < h * k:
        raise ValueError(f"need 0 <= a < h*k = {h * k}, got a={a}")
    return Fraction(math.comb(h * k, a), math.comb(h * n - a, h * k - a))


def spec_bound(spec: CutEventSpec) -> Fraction:
    return cut_event_bound(spec.h, spec.n, len(spec.subset), len(spec.arrivals))


def _chain(model: Model, h: int, n: int, subset, arrivals=None):
    """The sets A of |A| < h|S| (or the one set ``arrivals``) by the chain
    rule over arrivals 2..h*n.

    Arrival tau's side is [ceil(tau/h) in S].  With vol the volume of both
    sides before step tau, e_tau crosses with weight vol_other or stays
    with weight vol_own + [standard], out of D_tau = vol + [standard] =
    2 tau - 1 (standard) or 2 tau - 3 (tilde).  A crossing adds 1 to each
    side and a stay 2 to its own; e_1 puts 2 (standard) or 1 (tilde) on
    the side of vertex 1.  Returns (states, denom): states maps (|A|,
    vol_S) after arrival h*n to (the largest numerator P(A) * denom of an
    A that ends there, the number of A of positive mass that do).
    """
    loops, cap = model is Model.STANDARD, h * len(subset)
    vol = 1 + loops
    states = {(0, vol if 1 in subset else 0): (1, 1)}
    denom = 1
    for tau in range(2, h * n + 1):
        own = vertex_of(tau, h) in subset
        branches = (False, True) if arrivals is None else (tau in arrivals,)
        after: dict = {}
        for (a, vol_s), (num, count) in states.items():
            vol_own = vol_s if own else vol - vol_s
            for cross in branches:
                weight = vol - vol_own if cross else vol_own + loops
                if weight and a + cross < cap:
                    key = (a + cross, vol_s + (1 if cross else 2 * own))
                    num_w = num * weight
                    if key in after:  # no .get: this loop is the scan's cost
                        best, seen = after[key]
                        after[key] = (num_w if num_w > best else best, seen + count)
                    else:
                        after[key] = (num_w, count)
        states = after
        denom *= vol + loops
        vol += 2
    return states, denom


def exact_cut_event(model: Model, spec: CutEventSpec) -> Fraction:
    """P(boundary edge set of S equals A), exactly: the chain rule along
    the one path that A fixes, refused for h*n over ``CHAIN_LENGTH_CAP``."""
    model = _check_model(model)
    hn = spec.h * spec.n
    if hn > CHAIN_LENGTH_CAP:
        raise ValueError(f"h*n = {hn} is over the chain length cap {CHAIN_LENGTH_CAP}")
    if 1 in spec.arrivals:
        return Fraction(0)
    states, denom = _chain(model, spec.h, spec.n, spec.subset, spec.arrivals)
    return Fraction(sum(num for num, _count in states.values()), denom)


def estimate_cut_event(
    model: Model, spec: CutEventSpec, trials: int, seed: int
) -> MCEstimate:
    """Monte-Carlo frequency of the event, with its analytic bound attached.

    Counts the rows of ``sample_target_matrix(model, h*n, trials, seed)``
    whose crossing set equals A; edge e_t crosses when mini-vertex t and
    its target merge onto different sides of S.  The test is one boolean
    reduction over the matrix, with (trials, h*n) bool temporaries.
    """
    model = _check_model(model)
    _check_count(_json_int(trials, "trials"), "trials")
    seed = _check_seed(seed)
    hn = spec.h * spec.n
    mat = sample_target_matrix(model, hn, trials, seed)
    # side[m]: mini-vertex m merges into S (index 0 unused)
    side = np.array([vertex_of(m, spec.h) in spec.subset for m in range(hn + 1)])
    want = np.zeros(hn, dtype=bool)
    want[[t - 1 for t in spec.arrivals]] = True
    hits = int(((side[1:] != side[mat]) == want).all(axis=1).sum())
    p_hat = hits / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return MCEstimate(
        trials=trials, hits=hits, p_hat=p_hat, std_err=std_err, bound=spec_bound(spec)
    )


def scan_cut_events(model: Model, h: int, n: int) -> CutEventScan:
    """Verify the bound for every proper nonempty S and every admissible A.

    Runs ``_chain`` once per subset, in ascending mask order.  The largest
    numerator per |A| is compared exactly with ``cut_event_bound``; sets
    of zero mass hold trivially, and ``pairs_checked`` counts the others.
    Only an (S, |A|) cell over its bound lists its sets, by
    ``exact_cut_event``, in ascending arrival-mask order.  Refused over
    ``SCAN_WORK_CAP``; (h, n) = (2, 10) takes about 0.4 s and standard
    (2, 12) 3.3 s, under 30 MiB peak RSS (2-core Xeon).
    """
    model = _check_model(model)
    _check_hn(h, n)
    hn = h * n
    if (work := ((1 << n) - 2) * hn**3) > SCAN_WORK_CAP:
        raise ValueError(f"{work} work units, over the scan work cap {SCAN_WORK_CAP}")
    sizes = [(k, a) for k in range(1, n) for a in range(h * k)]
    bounds = {ka: cut_event_bound(h, n, *ka) for ka in sizes}
    pairs_checked, violations = 0, []
    top, top_at, denom = Fraction(0), None, 1  # largest P / bound is top / denom
    for mask in range(1, (1 << n) - 1):
        subset = frozenset(_members(mask))
        states, denom = _chain(model, h, n, subset)
        largest: dict[int, int] = {}
        for (a, _vol_s), (num, count) in states.items():
            pairs_checked += count
            largest[a] = max(largest.get(a, 0), num)
        over = []
        for a in sorted(largest):
            bound = bounds[len(subset), a]
            if (ratio := largest[a] / bound) > top:
                top, top_at = ratio, (subset, a)
            if ratio > denom:
                sets = combinations(range(2, hn + 1), a)
                cell = (CutEventSpec(h, n, subset, arrivals) for arrivals in sets)
                over += [c.arrivals for c in cell if exact_cut_event(model, c) > bound]
        over.sort(key=lambda arrivals: sum(1 << t for t in arrivals))
        violations += [(subset, arrivals) for arrivals in over]
    return CutEventScan(
        model, h, n, pairs_checked, tuple(violations), top / denom, top_at
    )
