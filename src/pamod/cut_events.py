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
the one path that A fixes.  ``scan_cut_events`` walks vertices 1..n once:
the bound depends on S only through |S| and the chain's future only on
its state, so the prefixes with equally many vertices in S share one
merged state map, and the work is polynomial, not 2^n.  Each check has
one size cap and refuses before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from pamod.cuts import _members
from pamod.models import (
    Model,
    _check_count,
    _check_hn,
    _check_int,
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
# Most units n * (h*n)^3 of ``scan_cut_events`` work: n vertices, each
# stepping up to n merged maps of (h*n)^2 states through h arrivals, at
# 0.9-2.4 * 10^-7 s per unit, so (2, 40) takes 2-3 s and the cap 4-6 s
# (2-core Xeon).
SCAN_WORK_CAP = 25 * 10**6


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
            if not 1 <= _check_int(t, "arrival") <= hn:
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
    if not 1 <= _json_int(k, "k") <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if not 0 <= _json_int(a, "a") < h * k:
        raise ValueError(f"need 0 <= a < h*k = {h * k}, got a={a}")
    return Fraction(math.comb(h * k, a), math.comb(h * n - a, h * k - a))


def spec_bound(spec: CutEventSpec) -> Fraction:
    return cut_event_bound(spec.h, spec.n, len(spec.subset), len(spec.arrivals))


def _chain_step(
    states: dict, own: bool, vol: int, loops: bool, cap: int, branches, after=None
) -> dict:
    """One arrival of the chain rule: ``states`` after arrival tau - 1 to
    the states after tau, merged into ``after`` (a new map by default).

    ``states`` maps (|A|, vol_S) to (the largest numerator of an A that
    ends there, the number of A of positive mass that do, the least
    subset mask among those that reach that numerator); ``own`` is
    [ceil(tau/h) in S] and ``vol`` = 2 tau - 3 + [standard] the volume of
    both sides before tau.  Each branch ``cross`` of ``branches`` has
    e_tau cross with weight vol_other or stay with weight vol_own +
    [standard], out of D_tau = vol + [standard]; a crossing adds 1 to
    each side and a stay 2 to its own.  Two paths into one state keep the
    larger numerator, add their counts and keep the lesser mask on a tie.
    States of |A| >= ``cap`` and branches of zero weight are dropped.
    """
    after = {} if after is None else after
    for (a, vol_s), (num, count, mask) in states.items():
        vol_own = vol_s if own else vol - vol_s
        for cross in branches:
            weight = vol - vol_own if cross else vol_own + loops
            if weight and a + cross < cap:
                key = (a + cross, vol_s + (1 if cross else 2 * own))
                num_w = num * weight
                if key in after:  # no .get: this loop is the scan's cost
                    best, seen, least = after[key]
                    if num_w > best or num_w == best and mask < least:
                        best, least = num_w, mask
                    after[key] = (best, seen + count, least)
                else:
                    after[key] = (num_w, count, mask)
    return after


def _chain_start(loops: bool, inside: bool) -> dict:
    """The state after e_1, which puts 2 (standard) or 1 (tilde) on the
    side of vertex 1; its mask holds vertex 1 when it is ``inside``."""
    return {(0, 1 + loops if inside else 0): (1, 1, int(inside))}


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
    total = sum(num for num, _count, _mask in states.values())
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


def scan_cut_events(model: Model, h: int, n: int) -> CutEventScan:
    """Verify the bound for every proper nonempty S and every admissible A.

    The bound depends on S only through k = |S|, and the chain's future
    only through its state, so one forward walk over vertices 1..n serves
    every S: the prefixes 1..v with s vertices in S share one state map,
    which each vertex extends on both sides by ``_chain_step``.  Vertex 1
    is walked on both sides too, so the map of s = k after vertex n serves
    exactly the k-sets.  Its states give ``pairs_checked`` (their counts)
    and the largest numerator per (k, |A|), which is compared with
    ``cut_event_bound`` by integer cross-multiplication; sets of zero mass
    hold trivially.  Two prefixes that reach one state have the same
    completions, so the least mask kept per state is the least full mask:
    ``max_ratio_at`` is the first maximum in mask order, then |A| order.
    Only a (k, |A|) cell over its bound lists its sets, by
    ``exact_cut_event``; the lists follow ascending subset mask, then
    ascending arrival mask.  Refused over ``SCAN_WORK_CAP``; standard (2,
    12) takes about 0.01 s, (2, 20) 0.1-0.2 s, and standard and tilde
    (2, 40) 2-3 s at 43 and 55 MiB peak RSS (2-core Xeon).
    """
    model = _check_model(model)
    _check_hn(h, n)
    hn = h * n
    if (work := n * hn**3) > SCAN_WORK_CAP:
        raise ValueError(f"{work} work units, over the scan work cap {SCAN_WORK_CAP}")
    loops, both = model is Model.STANDARD, (False, True)
    layers: list[dict] = [{}]  # layers[s]: the merged states of the prefixes with s in S
    for v in range(1, n + 1):
        after: list[dict] = [{} for _ in range(min(v, n - 1) + 1)]
        bit = 1 << (v - 1)
        for s, states in enumerate(layers):
            for inside in both:
                if (k := s + inside) == n:
                    continue
                if v == 1:
                    run = _chain_start(loops, inside)
                elif inside:
                    run = {
                        key: (num, count, mask | bit) for key, (num, count, mask) in states.items()
                    }
                else:
                    run = states
                # a state of |A| >= h times the largest reachable |S| checks nothing
                cap = h * (k + n - v)
                for tau in range(max(2, h * v - h + 1), h * v + 1):
                    into = after[k] if tau == h * v else None  # merge on v's last arrival
                    run = _chain_step(run, inside, 2 * tau - 3 + loops, loops, cap, both, into)
                after[k] = run  # h = 1 takes no step at vertex 1
        layers = after
    denom = _chain_denominator(loops, hn)
    # top: (P * denom / bound, -mask, -|A|); the largest is the first maximum
    pairs_checked, top, found = 0, (Fraction(0), 0, 0), []
    for k, states in enumerate(layers[1:], start=1):
        largest: dict[int, tuple[int, int]] = {}
        for (a, _vol_s), (num, count, mask) in states.items():
            pairs_checked += count
            largest[a] = max(largest.get(a, (0, 0)), (num, -mask))
        for a, (num, neg_mask) in largest.items():
            bound = cut_event_bound(h, n, k, a)
            top = max(top, (Fraction(num * bound.denominator, bound.numerator), neg_mask, -a))
            if num * bound.denominator > denom * bound.numerator:
                sets = product(combinations(range(1, n + 1), k), combinations(range(2, hn + 1), a))
                cell = (CutEventSpec(h, n, subset, arrivals) for subset, arrivals in sets)
                found += [spec for spec in cell if exact_cut_event(model, spec) > bound]
    found.sort(key=lambda c: (sum(1 << v for v in c.subset), sum(1 << t for t in c.arrivals)))
    violations = tuple((spec.subset, spec.arrivals) for spec in found)
    top_at = (frozenset(_members(-top[1])), -top[2]) if top[0] else None
    return CutEventScan(model, h, n, pairs_checked, violations, top[0] / denom, top_at)
