"""Exact and Monte-Carlo checks of the cut-event probability bound.

For a fixed vertex subset S with |S| = k and a fixed set A of arrival
indices with |A| < h k, the probability that the boundary edge set of S
is exactly A satisfies

    P(E(S, S-compl) = A) <= C(hk, |A|) / C(hn - |A|, hk - |A|).

Events are identified by arrival index: edge e_t is "in the boundary"
when its merged endpoints straddle S.  e_1 is always a loop at vertex 1,
so any A containing arrival 1 has probability zero.

Both exact checks use ``models._enumerate_logs``, which lists arrival
logs level by level with integer probability numerators over one common
denominator; its cap of 500000 logs per level and its refusal of
denominators from 2^63 are the only size rules here.  The exact checker
prunes every edge whose crossing status contradicts A; the batch scanner
shares one unpruned enumeration across all subsets.  A log's boundary
set of S is the XOR over v in S of the arrivals with exactly one end at
v, so the scanner walks the subsets in Gray-code order with one XOR per
subset and accumulates numerators per (subset, boundary-set) cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pamod.cuts import _gray_flip_order, _members
from pamod.models import (
    Model,
    _check_model,
    _check_seed,
    _enumerate_logs,
    sample_target_matrix,
    vertex_of,
)


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
        if self.h < 1 or self.n < 1:
            raise ValueError(f"need h >= 1 and n >= 1, got h={self.h}, n={self.n}")
        if not self.subset:
            raise ValueError("subset must be nonempty")
        for v in self.subset:
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} out of range 1..{self.n}")
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
    model: Model
    h: int
    n: int
    pairs_checked: int
    violations: tuple[tuple[frozenset[int], frozenset[int]], ...]


def cut_event_bound(h: int, n: int, k: int, a: int) -> Fraction:
    """C(hk, a) / C(hn - a, hk - a), exactly.

    Can exceed 1 for large a (the bound is then vacuous but still
    valid).
    """
    if h < 1 or n < 1:
        raise ValueError(f"need h >= 1 and n >= 1, got h={h}, n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if not 0 <= a < h * k:
        raise ValueError(f"need 0 <= a < h*k = {h * k}, got a={a}")
    return Fraction(math.comb(h * k, a), math.comb(h * n - a, h * k - a))


def spec_bound(spec: CutEventSpec) -> Fraction:
    return cut_event_bound(spec.h, spec.n, len(spec.subset), len(spec.arrivals))


def _sides(spec: CutEventSpec) -> np.ndarray:
    """side[m]: mini-vertex m merges into S (index 0 unused)."""
    minis = range(spec.h * spec.n + 1)
    return np.array([vertex_of(m, spec.h) in spec.subset for m in minis])


def exact_cut_event(model: Model, spec: CutEventSpec) -> Fraction:
    """P(boundary edge set of S equals A), by exhaustive enumeration.

    Enumerates the arrival logs level by level, dropping a log as soon as
    a placed edge's crossing status contradicts A, and sums the
    survivors' numerators.  Exact rational output; the enumerator's cap
    refuses a surviving level over 500000 logs (use
    :func:`estimate_cut_event` there).  Memory is a few (L, h*n) arrays
    for the L logs of the largest surviving level: h*n = 10 with one
    arrival in A keeps 322560 logs and peaks near 45 MiB above the
    interpreter.
    """
    model = _check_model(model)
    hn = spec.h * spec.n
    side = _sides(spec)
    _targets, nums, denom = _enumerate_logs(
        model, hn, lambda tau, s: (side[tau] != side[s]) == (tau in spec.arrivals)
    )
    return Fraction(int(nums.sum()), denom)


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
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    seed = _check_seed(seed)
    hn = spec.h * spec.n
    mat = sample_target_matrix(model, hn, trials, seed)
    side = _sides(spec)
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

    The subsets share one log enumeration, walked in Gray-code order
    with one XOR per subset (module docstring); an (n, logs) int64 array
    of incidence masks replaces the enumerated targets.  Integer
    probability numerators are accumulated per boundary mask, and every
    accumulated event with |A| < h|S| is compared exactly (integer
    cross-multiplication) against ``cut_event_bound``, computed once per
    (|S|, |A|); events that never occur hold trivially since the bound
    is positive.  Violations are listed by ascending subset mask.  The
    enumerator's cap admits h*n <= 9 standard and 10 tilde: (h, n) =
    (1, 9) and (1, 10) take 0.6 s and 1.1 s, 100 MiB peak RSS (2-core Xeon).
    """
    model = _check_model(model)
    if h < 1 or n < 1:
        raise ValueError(f"need h >= 1 and n >= 1, got h={h}, n={n}")
    hn = h * n
    targets, nums, denom = _enumerate_logs(model, hn)
    # the cap keeps denom <= 17!!, so float64 accumulation is exact
    assert int(nums.sum()) == denom < 2**53
    weights = nums.astype(np.float64)
    rows = np.arange(len(nums))
    # bit t-1 of inc[v - 1]: edge e_t has exactly one end at v (loops cancel)
    inc = np.zeros((n, len(nums)), dtype=np.int64)
    for t in range(1, hn + 1):
        bit = np.int64(1) << (t - 1)
        inc[vertex_of(t, h) - 1] ^= bit
        inc[vertex_of(targets[:, t - 1], h) - 1, rows] ^= bit
    del targets
    pairs_checked = 0
    found: list[tuple[int, frozenset[int]]] = []
    bounds = {
        (k, a): cut_event_bound(h, n, k, a) for k in range(1, n) for a in range(h * k)
    }
    event = np.zeros(len(nums), dtype=np.int64)
    mask = 0
    for v in _gray_flip_order(n):
        mask ^= 1 << v
        event ^= inc[v]
        if mask == (1 << n) - 1:
            continue
        k = mask.bit_count()
        mass = np.bincount(event, weights=weights, minlength=1 << hn)
        mass_int = mass.astype(np.int64)
        for b in np.nonzero(mass_int)[0]:
            a = int(b).bit_count()
            if a >= h * k:
                continue
            pairs_checked += 1
            bound = bounds[k, a]
            if int(mass_int[b]) * bound.denominator > denom * bound.numerator:
                found.append((mask, frozenset(_members(int(b)))))
    found.sort(key=lambda item: item[0])
    return CutEventScan(
        model=model,
        h=h,
        n=n,
        pairs_checked=pairs_checked,
        violations=tuple((frozenset(_members(m)), a) for m, a in found),
    )
