"""Exact and Monte-Carlo checks of the cut-event probability bound.

For a fixed vertex subset S with |S| = k and a fixed set A of arrival
indices with |A| < h k, the probability that the boundary edge set of S
is exactly A satisfies

    P(E(S, S-compl) = A) <= C(hk, |A|) / C(hn - |A|, hk - |A|).

Events are identified by arrival index: edge e_t is "in the boundary"
when its merged endpoints straddle S.  e_1 is always a loop at vertex 1,
so any A containing arrival 1 has probability zero.

Both exact checks run the lemma's chain rule, one arrival at a time by
``_chain_step``: S fixes the side of every mini-vertex and the earlier
crossings fix both side volumes, so P(A) is a product of h*n integers
over the process's common denominator.  ``exact_cut_event`` steps along
the one path that A fixes; ``scan_cut_events`` steps down the tree of
vertex prefixes, and each complementary pair of subsets shares one run.
Each check has one size cap and refuses before any work.
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
# Most units (2^(n-1) - 1) * (h*n)^3 of ``scan_cut_events`` work, (h*n)^3
# per complementary pair of subsets, at 2-3.5 * 10^-8 s each (2-core Xeon).
SCAN_WORK_CAP = 2 * 10**8


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


def _chain_step(states: dict, own: bool, vol: int, loops: bool, cap: int, branches) -> dict:
    """One arrival of the chain rule: ``states`` after arrival tau - 1 to
    the states after tau.

    ``states`` maps (|A|, vol_S) to (the largest numerator of an A that
    ends there, the number of A of positive mass that do); ``own`` is
    [ceil(tau/h) in S] and ``vol`` = 2 tau - 3 + [standard] the volume of
    both sides before tau.  Each branch ``cross`` of ``branches`` has
    e_tau cross with weight vol_other or stay with weight vol_own +
    [standard], out of D_tau = vol + [standard]; a crossing adds 1 to
    each side and a stay 2 to its own.  States of |A| >= ``cap`` and
    branches of zero weight are dropped.
    """
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
    return after


def _chain_start(loops: bool, inside: bool) -> dict:
    """The state after e_1, which puts 2 (standard) or 1 (tilde) on the
    side of vertex 1."""
    return {(0, 1 + loops if inside else 0): (1, 1)}


def _chain_denominator(loops: bool, hn: int) -> int:
    """The product of D_tau = 2 tau - 3 + 2 [standard] over arrivals 2..h*n."""
    denom = 1
    for tau in range(2, hn + 1):
        denom *= 2 * tau - 3 + 2 * loops
    return denom


def exact_cut_event(model: Model, spec: CutEventSpec) -> Fraction:
    """P(boundary edge set of S equals A), exactly: ``_chain_step`` along
    the one path that A fixes, refused for h*n over ``CHAIN_LENGTH_CAP``."""
    model = _check_model(model)
    h, hn, subset = spec.h, spec.h * spec.n, spec.subset
    if hn > CHAIN_LENGTH_CAP:
        raise ValueError(f"h*n = {hn} is over the chain length cap {CHAIN_LENGTH_CAP}")
    if 1 in spec.arrivals:
        return Fraction(0)
    loops, cap = model is Model.STANDARD, h * len(subset)
    states = _chain_start(loops, 1 in subset)
    for tau in range(2, hn + 1):
        own = vertex_of(tau, h) in subset
        branches = (tau in spec.arrivals,)
        states = _chain_step(states, own, 2 * tau - 3 + loops, loops, cap, branches)
    total = sum(num for num, _count in states.values())
    return Fraction(total, _chain_denominator(loops, hn))


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


def _prefix_walk(loops: bool, h: int, n: int, v: int, mask: int, states: dict):
    """Yield (mask, chain states after arrival h*n) for every proper S
    that holds vertex 1 and agrees with ``mask`` on vertices 1..v-1.

    Vertex v's arrivals run once for the subsets that share the prefix.
    States are dropped at |A| >= h * max(|S|, n - |S|) over every
    completion, since each final state serves both S and its complement.
    """
    if v > n:
        yield mask, states
        return
    k = mask.bit_count()
    for inside in (True,) if v == 1 else (False, True):
        if (s := k + inside) == n:
            continue
        cap = h * max(s + n - v, n - s)
        after = states
        for tau in range(max(2, h * v - h + 1), h * v + 1):
            after = _chain_step(after, inside, 2 * tau - 3 + loops, loops, cap, (False, True))
        yield from _prefix_walk(loops, h, n, v + 1, mask | inside << (v - 1), after)


def scan_cut_events(model: Model, h: int, n: int) -> CutEventScan:
    """Verify the bound for every proper nonempty S and every admissible A.

    The boundary edge set of S is that of its complement, so one chain
    serves both, and ``_prefix_walk`` runs it down the tree of vertex
    prefixes with vertex 1 in S.  Each final state map is reduced at once:
    the sets of positive mass with |A| < h|S| and with |A| < h(n - |S|)
    are counted in ``pairs_checked``, and the largest numerator per |A|
    is compared with ``cut_event_bound`` for each side by integer
    cross-multiplication; sets of zero mass hold trivially.  A tie on the
    largest ratio goes to the lower mask, so ``max_ratio_at`` is the first
    maximum in mask order.  Only an (S, |A|) cell over its bound lists its
    sets, by ``exact_cut_event``; the lists follow ascending subset mask,
    then ascending arrival mask.  Refused over ``SCAN_WORK_CAP``; (h, n)
    = (2, 10) takes 0.1-0.2 s, standard (2, 12) 0.6-1.0 s and (2, 14)
    4.6 s, and the walk holds one state map per vertex: standard (2, 12)
    stays under 30 MiB peak RSS, which importing numpy alone nearly
    reaches (2-core Xeon).
    """
    model = _check_model(model)
    _check_hn(h, n)
    hn, full = h * n, (1 << n) - 1
    if (work := ((1 << (n - 1)) - 1) * hn**3) > SCAN_WORK_CAP:
        raise ValueError(f"{work} work units, over the scan work cap {SCAN_WORK_CAP}")
    loops = model is Model.STANDARD
    denom = _chain_denominator(loops, hn)
    bounds = {(k, a): cut_event_bound(h, n, k, a) for k in range(1, n) for a in range(h * k)}
    # a numerator over ``over_at[k, a]`` is over bound * denom
    over_at = {ka: denom * b.numerator // b.denominator for ka, b in bounds.items()}
    pairs_checked, top, top_at, over = 0, (0, 1), None, {}  # top: P / bound as p / q
    for mask, states in _prefix_walk(loops, h, n, 1, 0, _chain_start(loops, True)):
        k = mask.bit_count()
        largest = [0] * (h * max(k, n - k))
        for (a, _vol_s), (num, count) in states.items():
            pairs_checked += count * ((a < h * k) + (a < h * (n - k)))
            if num > largest[a]:
                largest[a] = num
        for side, size in ((mask, k), (full ^ mask, n - k)):
            for a, num in enumerate(largest[: h * size]):
                if not num:
                    continue
                bound = bounds[size, a]
                p, q = num * bound.denominator, bound.numerator
                # a tie goes to the lower mask: the first maximum in mask order
                if (gain := p * top[1] - top[0] * q) > 0 or gain == 0 and side < top_at[0]:
                    top, top_at = (p, q), (side, a)
                if num > over_at[size, a]:
                    over.setdefault(side, []).append(a)
    violations = []
    for mask in sorted(over):
        subset, found = frozenset(_members(mask)), []
        for a in over[mask]:
            sets = combinations(range(2, hn + 1), a)
            cell = (CutEventSpec(h, n, subset, arrivals) for arrivals in sets)
            bound = bounds[len(subset), a]
            found += [c.arrivals for c in cell if exact_cut_event(model, c) > bound]
        found.sort(key=lambda arrivals: sum(1 << t for t in arrivals))
        violations += [(subset, arrivals) for arrivals in found]
    if top_at is not None:
        top_at = (frozenset(_members(top_at[0])), top_at[1])
    return CutEventScan(
        model, h, n, pairs_checked, tuple(violations), Fraction(top[0], top[1] * denom), top_at
    )
