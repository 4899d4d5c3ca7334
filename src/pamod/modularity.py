"""Modularity scores, exact maximization, and deterministic upper bounds.

The modularity of a partition A is

    q_A = sum_S e(S)/e(G) - sum_S (vol(S)/vol(G))^2

with e(S) the edges inside part S (loops included) and vol the degree
volume.  Everything here is exact rational arithmetic; floats appear
only in reports.

Exact maximization uses a subset dynamic program over vertex masks: with
the common denominator e(G)*vol(G)^2 every part contributes the integer
f(T) = e(T)*vol(G)^2 - vol(T)^2*e(G), and the best partition of a mask
is solved by splitting off the part that contains its lowest vertex.
e(T) and vol(T) come from the subset tables of ``cuts._subset_sums``.
The masks whose lowest bit is l depend only on masks above l, so the DP
runs level by level from l = n-1 down to 0, each level one numpy
(max, +) subset convolution over its 3^(n-1-l) pairs: about 3^n/2
int64 operations in all, far below enumerating all set partitions.  It
refuses graphs above 16 vertices, where one call takes about 0.13 s
and 3 MiB.

Upper bounds provided, all exact:

* ``worst_part_bound``: 1 minus the smallest negative relative
  modularity over the parts of a given partition.
* ``expansion_modularity_bound``: 1 - min(alpha/2h, 3/16) from the
  global expansion alpha (cap 1/16 kept as a comparison baseline).
* ``profile_modularity_bound``: 1 - min_k [d_k/(2+d_k) + k/2n] with
  d_k = min(alpha_{k/n}/h, 1) from the small-set expansion profile.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from pamod.certify import _small_set_term
from pamod.cuts import (
    EXACT_SUBSET_LIMIT,
    _members,
    _pair_weights,
    _part_tallies,
    _subset_sums,
    edge_boundary,
    expansion_profile,
)
from pamod.models import MultiGraph, _check_seed

# Largest n the exact DP accepts; a ``limit`` argument may only lower it.
# Time grows as 3^n: 0.13 s at n = 16, past 1 s per graph near n = 18.
EXACT_PARTITION_LIMIT = 16

# Free bits of a DP level that one vectorised step covers.  The rest are
# looped over in Python through the same pair table, so a level may have
# at most 2 * _LOW_BITS free bits: n <= 17, above the cap.
_LOW_BITS = 8

CAP_STRONG = Fraction(3, 16)
CAP_BASELINE = Fraction(1, 16)

Partition = tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ModularityScore:
    q: Fraction
    edge_fraction: Fraction  # sum_S e(S)/e(G)
    degree_tax: Fraction  # sum_S (vol(S)/vol(G))^2


def check_partition(graph: MultiGraph, parts) -> Partition:
    """Validate disjoint nonempty parts covering 1..n; returns a tuple."""
    norm = tuple(frozenset(p) for p in parts)
    seen: set[int] = set()
    for p in norm:
        if not p:
            raise ValueError("empty part in partition")
        for v in p:
            if not 1 <= v <= graph.n:
                raise ValueError(f"vertex {v} out of range 1..{graph.n}")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two parts")
            seen.add(v)
    if len(seen) != graph.n:
        raise ValueError("partition does not cover all vertices")
    return norm


def modularity_score(graph: MultiGraph, parts) -> ModularityScore:
    """Exact modularity of a partition; zero by convention on empty graphs."""
    parts = check_partition(graph, parts)
    m = graph.m
    if m == 0:
        return ModularityScore(Fraction(0), Fraction(0), Fraction(0))
    inner, _boundary, vols = _part_tallies(graph, parts)
    vol_g = graph.volume
    edge_fraction = Fraction(sum(inner), m)
    degree_tax = Fraction(sum(v * v for v in vols), vol_g * vol_g)
    return ModularityScore(
        q=edge_fraction - degree_tax,
        edge_fraction=edge_fraction,
        degree_tax=degree_tax,
    )


def _inner_table(graph: MultiGraph) -> np.ndarray:
    """inner[mask] = e(S), loops included, for every vertex mask."""
    pairs = _pair_weights(graph, 1)
    return _subset_sums(graph.n, graph.loop_counts[1:], pairs, np.int64)


@cache
def _pair_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (R, S) with S a subset of R over ``_LOW_BITS`` bits,
    as (S, R^S, group starts), grouped by R in increasing order.

    The pairs over the low j bits are the first 3^j entries and their
    groups the first 2^j starts, so one table serves every j.  Built by
    ternary doubling: each new bit is outside R, in R^S, or in S.
    """
    s = t = np.zeros(1, dtype=np.intp)
    for i in range(_LOW_BITS):
        bit = 1 << i
        s, t = np.concatenate([s, s, s | bit]), np.concatenate([t, t | bit, t])
    order = np.argsort(s | t, kind="stable")
    s, t = s[order], t[order]
    starts = np.flatnonzero(np.diff(s | t, prepend=-1))
    return s, t, starts


def _max_plus_level(f_part: np.ndarray, g: np.ndarray) -> np.ndarray:
    """out[R] = max over S subset of R of f_part[S] + g[R^S], over all 2^k masks R.

    The low j = min(k, _LOW_BITS) bits take one gather and one
    ``np.maximum.reduceat`` per pair of the high k - j bits, so the
    temporaries stay at 3^j entries; ``out`` is the (2^(k-j), 2^j) level.
    """
    k = len(f_part).bit_length() - 1
    j = min(k, _LOW_BITS)
    s, t, starts = _pair_table()
    lo_s, lo_t, lo_starts = s[: 3**j], t[: 3**j], starts[: 1 << j]
    f2 = f_part.reshape(-1, 1 << j)
    g2 = g.reshape(-1, 1 << j)
    out = np.full(f2.shape, np.iinfo(np.int64).min, dtype=np.int64)
    for hs, ht in zip(s[: 3 ** (k - j)].tolist(), t[: 3 ** (k - j)].tolist()):
        cand = f2[hs].take(lo_s) + g2[ht].take(lo_t)
        row = out[hs | ht]
        np.maximum(row, np.maximum.reduceat(cand, lo_starts), out=row)
    return out.reshape(-1)


def exact_modularity(
    graph: MultiGraph, limit: int = EXACT_PARTITION_LIMIT
) -> tuple[Fraction, Partition]:
    """Maximum modularity q* and a maximizing partition, exactly.

    The returned partition is canonical: parts are listed by smallest
    member, and each part is the lexicographically smallest optimal
    choice for its lowest vertex given the previously fixed parts.

    Refuses graphs above ``limit`` vertices, which can only lower the
    cap ``EXACT_PARTITION_LIMIT`` = 16 (use :func:`greedy_modularity`
    there), and graphs with e(G)*vol(G)^2 >= 2^63, whose partition sums
    could leave int64.  Level l is one (max, +) subset convolution over
    the 3^(n-1-l) pairs of the bits above l, about 3^n/2 pairs in all:
    about 2 ms at n = 12, 15 ms at n = 14 and 0.13 s at n = 16 on a
    2-core Xeon host.  Memory is a few int64 tables over the 2^n masks
    plus 3^8-entry temporaries: a 3 MiB peak (tracemalloc) at n = 16.
    """
    n = graph.n
    if n > (limit := min(limit, EXACT_PARTITION_LIMIT)):
        raise ValueError(
            f"n={n} exceeds the exact partition limit {limit}; "
            "use greedy_modularity"
        )
    m = graph.m
    if m == 0:
        return Fraction(0), (frozenset(range(1, n + 1)),)
    vol_g = graph.volume
    vg2 = vol_g * vol_g
    # every DP value is a partition sum, within m*vol(G)^2 of zero
    if m * vg2 >= 2**63:
        raise ValueError(f"e(G)*vol(G)^2 = {m * vg2} >= 2^63, beyond int64")
    inner = _inner_table(graph)
    vol = _subset_sums(n, graph.degrees[1:], None, np.int64)
    f = inner * vg2 - vol * vol * m
    opt = np.zeros(1 << n, dtype=np.int64)
    for level in range(n - 1, -1, -1):
        low = 1 << level
        step = low << 1
        opt[low::step] = _max_plus_level(f[low::step], opt[::step])
    q_star = Fraction(int(opt[-1]), m * vg2)

    parts: list[frozenset[int]] = []
    mask = (1 << n) - 1
    while mask:
        low = mask & -mask
        rest = mask ^ low
        bits = [1 << i for i in range(n) if (rest >> i) & 1]
        subs = _subset_sums(len(bits), bits, None, np.int64)
        hits = subs[f[subs | low] + opt[rest ^ subs] == opt[mask]] | low
        best_t = min(hits.tolist(), key=_members)
        parts.append(frozenset(_members(best_t)))
        mask ^= best_t
    return q_star, tuple(parts)


def greedy_modularity(graph: MultiGraph, seed: int) -> tuple[Fraction, Partition]:
    """Agglomerative heuristic: repeatedly merge the best pair of parts.

    Starts from singletons and merges while some merge strictly raises
    q; the seed only breaks ties between equal-gain merges, by drawing
    one of the tied pairs in sorted order (no draw when one pair leads).
    Falls back to the one-part partition when the search ends below
    zero, so the result is always >= 0 and always equals the score of
    the returned partition.

    Parts are named by their smallest vertex.  ``links[a][b]`` holds the
    edge count between parts a and b, and a lazy-deletion heap, as in
    Clauset, Newman & Moore (2004), holds ``(-gain, a, b, stamp_a,
    stamp_b)`` for the linked pairs a < b of positive gain.  Merging b
    into a drops b and bumps a's stamp, which leaves every entry of a or
    b stale, and pushes the new gain of each pair (a, c).  The live
    entries of the top gain wait in a sorted list between merges, so a
    tie is not popped and pushed back each time.  Each merge pushes at
    most one entry per link of the merged part, about 15 pushes per edge
    over a run at standard h = 2, n = 2000, each O(log m).  The heap is
    rebuilt from its live entries whenever it passes twice the number of
    linked pairs, so it stays O(m): tracemalloc peaks of 0.4 / 2.2 /
    5.4 MiB at n = 500 / 2000 / 5000.  One run takes about 0.02 / 0.05 /
    0.14 / 0.7 s at n = 500 / 1000 / 2000 / 5000 on a 2-core Xeon host.
    """
    seed = _check_seed(seed)
    n = graph.n
    m = graph.m
    if m == 0:
        return Fraction(0), (frozenset(range(1, n + 1)),)
    rng = np.random.default_rng(seed)
    vol_g = graph.volume
    vg2 = vol_g * vol_g
    deg = graph.degrees
    members: dict[int, set[int]] = {v: {v} for v in range(1, n + 1)}
    vols: dict[int, int] = {v: deg[v] for v in range(1, n + 1)}
    links = {v: dict(graph.adjacency[v]) for v in range(1, n + 1)}
    stamps = dict.fromkeys(members, 0)

    def entry(a: int, b: int):
        """The heap entry of pair a < b, or None when merging loses q."""
        # merging A and B changes q by e(A,B)/m - 2 vol(A) vol(B)/vol(G)^2
        gain = links[a][b] * vg2 - 2 * vols[a] * vols[b] * m
        return (-gain, a, b, stamps[a], stamps[b]) if gain > 0 else None

    def live(e) -> bool:
        return stamps.get(e[1]) == e[3] and stamps.get(e[2]) == e[4]

    heap = [e for a in links for b in links[a] if a < b and (e := entry(a, b))]
    heapq.heapify(heap)
    # merges never add pairs, so at most this many entries are ever live
    pairs = sum(map(len, links.values())) // 2
    tied: list = []  # the live entries of the top gain, in sorted pair order
    while True:
        while heap and not live(heap[0]):
            heapq.heappop(heap)  # a part of this pair has merged since
        if heap and (not tied or heap[0][0] <= tied[0][0]):
            # the heap holds a pair of at least the group's gain: regroup
            for e in tied:
                heapq.heappush(heap, e)
            key = heap[0][0]
            tied = []
            while heap and heap[0][0] == key:
                if live(e := heapq.heappop(heap)):
                    tied.append(e)
        if not tied:
            break
        pick = int(rng.integers(0, len(tied))) if len(tied) > 1 else 0
        _, a, b, _, _ = tied.pop(pick)
        members[a] |= members.pop(b)
        vols[a] += vols.pop(b)
        del stamps[b]
        stamps[a] += 1
        for c, cnt in links.pop(b).items():
            del links[c][b]
            if c != a:
                links[a][c] = links[a].get(c, 0) + cnt
                links[c][a] = links[c].get(a, 0) + cnt
        # only the pairs of a or b went stale, and each of a's links is new
        tied = [e for e in tied if e[1] not in (a, b) and e[2] not in (a, b)]
        for c in links[a]:
            if e := entry(a, c) if a < c else entry(c, a):
                heapq.heappush(heap, e)
        if len(heap) > 2 * pairs:  # drop the stale entries that sank
            heap = [e for e in heap if live(e)]
            heapq.heapify(heap)
    parts = tuple(
        frozenset(members[k]) for k in sorted(members, key=lambda k: min(members[k]))
    )
    q = modularity_score(graph, parts).q
    if q < 0:
        trivial = (frozenset(range(1, n + 1)),)
        return Fraction(0), trivial
    return q, parts


def negative_relative_modularity(graph: MultiGraph, subset) -> Fraction:
    """(vol(G)/vol(S)) * (e(S,S-compl)/(2 e(G)) + vol(S)^2/vol(G)^2)."""
    report = edge_boundary(graph, subset)
    if report.vol == 0:
        raise ValueError("subset has zero volume")
    if graph.m == 0:
        raise ValueError("graph has no edges")
    return _relative_term(graph, report.e_boundary, report.vol)


def _relative_term(graph: MultiGraph, boundary: int, vs: int) -> Fraction:
    """Negative relative modularity of a set with this boundary and volume."""
    vol_g = graph.volume
    return Fraction(vol_g, vs) * (
        Fraction(boundary, 2 * graph.m) + Fraction(vs * vs, vol_g * vol_g)
    )


def worst_part_bound(graph: MultiGraph, parts) -> Fraction:
    """Upper bound on q_A: one minus the worst part's relative term.

    For every partition A, q_A <= 1 - min over parts S of the negative
    relative modularity of S.  Tight for the one-part partition.
    """
    parts = check_partition(graph, parts)
    if graph.m == 0:
        raise ValueError("graph has no edges")
    _inner, boundary, vols = _part_tallies(graph, parts)
    if 0 in vols:
        raise ValueError("part has zero volume")
    return 1 - min(_relative_term(graph, b, vs) for b, vs in zip(boundary, vols))


def _require_pa_shape(graph: MultiGraph) -> int:
    if graph.h is None:
        raise ValueError("graph.h is required for expansion-based bounds")
    h = graph.h
    deg = graph.degrees
    if min(deg[1:]) < h:
        raise ValueError(f"minimum degree {min(deg[1:])} below h={h}")
    if graph.volume > 2 * h * graph.n:
        raise ValueError("average degree exceeds 2h")
    return h


def expansion_modularity_bound(
    graph: MultiGraph, alpha, cap: Fraction = CAP_STRONG
) -> Fraction:
    """1 - min(alpha/2h, cap) for graphs with min degree >= h, avg <= 2h.

    ``alpha`` is the global expansion alpha_{1/2}; +infinity is accepted
    and simply leaves the cap active.
    """
    h = _require_pa_shape(graph)
    if alpha == math.inf:
        term = cap
    else:
        term = min(Fraction(alpha) / (2 * h), cap)
    return 1 - term


def baseline_expansion_bound(graph: MultiGraph, alpha) -> Fraction:
    """The same bound with the weaker cap 1/16, kept for comparison."""
    return expansion_modularity_bound(graph, alpha, cap=CAP_BASELINE)


def bound_from_expansion_profile(
    profile: dict[int, Fraction], h: int, n: int
) -> Fraction:
    """1 - min_k [d_k/(2+d_k) + k/(2n)], d_k = min(alpha_{k/n}/h, 1).

    The minimum runs over k = 1..floor(n/2); alpha_{k/n} is constant in
    u on [k/n, (k+1)/n), which is what reduces the continuous bound to
    this discrete scan.
    """
    if n < 2:
        raise ValueError("profile bound needs n >= 2")
    if h < 1:
        raise ValueError("need h >= 1")
    best: Fraction | None = None
    for k in range(1, n // 2 + 1):
        alpha = profile[k]
        if alpha == math.inf:
            delta = Fraction(1)
        else:
            delta = min(Fraction(alpha) / h, Fraction(1))
        term = _small_set_term(Fraction(k, n), delta)
        if best is None or term < best:
            best = term
    assert best is not None
    return 1 - best


def profile_modularity_bound(
    graph: MultiGraph, limit: int = EXACT_SUBSET_LIMIT
) -> Fraction:
    """Exact small-set expansion bound on q*, via the full profile.

    Valid when every subset satisfies e(S) <= h|S|, which is checked
    from the edges, whatever the graph's metadata says.  Every inner
    edge of S has its larger endpoint in S, so when no vertex is the
    larger endpoint of more than h edges the cap holds for every S; this
    O(m) test passes on generated and loaded graphs (each vertex is the
    larger endpoint of exactly h edges).  Graphs that fail it are
    checked exhaustively over all subsets, after the profile, so the
    profile's size rule (n <= ``EXACT_SUBSET_LIMIT`` and ``limit``)
    covers both 2^n tables.
    """
    h = _require_pa_shape(graph)
    if graph.n < 2:
        raise ValueError("profile bound needs n >= 2")
    profile = expansion_profile(graph, limit=limit)
    upper = np.bincount(graph.edge_array[:, 1], minlength=graph.n + 1)
    if upper.max() > h:
        _check_inner_edge_cap(graph, h)
    return bound_from_expansion_profile(profile, h, graph.n)


def _check_inner_edge_cap(graph: MultiGraph, h: int) -> None:
    """Refuse the first mask with e(S) > h|S|, from one table of e(S) - h|S|.

    Its entries lie in [-h*n, m], and ``_require_pa_shape`` gives
    h*n <= vol(G) <= 2m, so int32 holds them.
    """
    own = [loops - h for loops in graph.loop_counts[1:]]
    excess = _subset_sums(graph.n, own, _pair_weights(graph, 1), np.int32)
    bad = np.flatnonzero(excess > 0)
    if bad.size:
        mask = int(bad[0])
        cap = h * mask.bit_count()
        raise ValueError(
            f"subset mask {mask:b} has {int(excess[mask]) + cap} inner edges, "
            f"over the cap h*|S| = {cap}"
        )
