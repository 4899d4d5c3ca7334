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
runs level by level from l = n-1 down to 1, each level one numpy
(max, +) subset convolution over its 3^(n-1-l) pairs.  Of level 0 only
the full mask is read, one max over the 2^(n-1) parts holding vertex 1:
about 3^(n-1)/2 int64 operations in all, far below enumerating all set
partitions.  It refuses graphs above 16 vertices, where one call takes
about 0.04 s and 3 MiB.

Upper bounds provided, all exact:

* ``worst_part_bound``: 1 minus the smallest negative relative
  modularity over the parts of a given partition.
* ``expansion_modularity_bound``: 1 - min(alpha/2h, 3/16) from the
  global expansion alpha (cap 1/16 kept as a comparison baseline).
* ``profile_modularity_bound``: 1 - min_k [d_k/(2+d_k) + k/2n] with
  d_k = min(alpha_{k/n}/h, 1) from the small-set expansion profile.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from pamod.certify import _small_set_term
from pamod.cuts import (
    EXACT_SUBSET_LIMIT,
    _check_limit,
    _members,
    _pair_weights,
    _part_tallies,
    _subset_sums,
    edge_boundary,
    expansion_profile,
)
from pamod.models import MultiGraph, _check_count, _check_seed, _check_vertices, _json_int, _shown

# Largest n the exact DP accepts; a ``limit`` argument may only lower it.
# Time grows as 3^n: 0.04 s at n = 16, about 0.4 s per graph at n = 18.
EXACT_PARTITION_LIMIT = 16

# Free bits of a DP level that one vectorised step covers.  The rest are
# looped over in Python through the same pair table, so a level may have
# at most 2 * _LOW_BITS free bits.  The widest level has n - 2: n <= 18,
# above the cap.
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
        for v in _check_vertices(p, graph.n):
            if v in seen:
                raise ValueError(f"vertex {_shown(v, str)} appears in two parts")
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
    for a in (s, t, starts):  # cached: every exact_modularity call shares them
        a.setflags(write=False)
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
    the 3^(n-1-l) pairs of the bits above l, for l = n-1..1; level 0 is
    one max for the full mask.  About 3^(n-1)/2 pairs in all: about
    1 ms at n = 12, 5 ms at n = 14 and 0.04 s at n = 16 on a 2-core
    Xeon host.  Memory is a few int64 tables over the 2^n masks plus
    3^8-entry temporaries: a 3 MiB peak (tracemalloc) at n = 16.
    """
    n = graph.n
    _check_limit(n, limit, EXACT_PARTITION_LIMIT, "exact partition", "greedy_modularity")
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
    for level in range(n - 1, 0, -1):
        low = 1 << level
        step = low << 1
        opt[low::step] = _max_plus_level(f[low::step], opt[::step])
    # level 0: only the full mask is read; its part T = 2i+1 leaves full ^ T,
    # the even masks in reverse
    opt[-1] = (f[1::2] + opt[-2::-2]).max()
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
    The result is >= 0 and is the returned partition's score: a merge of
    P and Q changes q by e(P,Q)/m - 2 vol(P) vol(Q)/vol(G)^2 (the tilde
    weight-1 loop counts alike in both vols), these sum over all pairs of
    final parts to q(one part) - q = -q, and at the stop none is positive.

    Parts are named by their smallest vertex: ``into[v]`` is the part
    holding vertex v, ``members[a]`` lists part a's vertices, and
    ``links[a][b]`` counts the edges between parts a and b.  A heap, as in
    Clauset, Newman & Moore (2004), holds entries ``(-key, x, y)`` whose
    ids resolve through ``into`` to a linked pair; every pair of positive
    gain has an entry with key at least its gain.  Merging B into A adds
    links and volumes, so gain(A+B, C) = gain(A, C) + gain(B, C), and a
    C linked to only one of them adds a negative term: only the pairs
    with a common neighbour C can gain, and only they get a new entry.
    Every other key stays an upper bound and is re-keyed lazily, as in
    Minoux's accelerated greedy (1978): an entry that reaches the top
    naming one part is dropped, one whose key is not its pair's gain goes
    back at that gain (dropped unless positive), and an exact top is the
    best gain left.  The tie group is every pair at that gain, taken off
    the heap, deduplicated and sorted; it waits between merges, and a
    tied pair that a merge touches goes back in the heap at the group's
    gain, an upper bound (or covered by a common-neighbour entry).

    The heap plus the tie group never hold more than twice the linked
    pairs P of the graph: they start with at most P entries, each
    re-key and each return to the heap replaces the entry it came from,
    and the only net growth is a common-neighbour push, which folds two
    links into one, so there are at most P of those.  At standard h = 2
    the heap's peak stayed below P at n = 500-5000.  Each merge pushes
    3.7 / 4.0 / 4.2 / 4.7 entries, re-keys included, at n = 500 / 1000
    / 2000 / 5000.  One run takes about 7 / 15 / 39 / 102 ms there on a
    2-core Xeon host, with tracemalloc peaks of 0.24 / 0.50 / 1.15 / 3.1
    MiB, about 250-330 bytes per edge.
    """
    seed = _check_seed(seed)
    n = graph.n
    m = graph.m
    if m == 0:
        return Fraction(0), (frozenset(range(1, n + 1)),)
    rng = np.random.default_rng(seed)
    vol_g = graph.volume
    vg2 = vol_g * vol_g
    m2 = 2 * m
    vols = list(graph.degrees)
    links = [dict(nbrs) for nbrs in graph.adjacency]
    into = list(range(n + 1))  # into[v]: the part that holds vertex v
    members = [[v] for v in range(n + 1)]

    def gain(a: int, b: int) -> int:
        # merging A and B changes q by e(A,B)/m - 2 vol(A) vol(B)/vol(G)^2
        return links[a][b] * vg2 - m2 * vols[a] * vols[b]

    heap = [
        (-g, a, b)
        for a in range(1, n + 1)
        for b in links[a]
        if a < b and (g := gain(a, b)) > 0
    ]
    heapq.heapify(heap)
    tied: list[tuple[int, int]] = []  # every pair of gain `top`, sorted
    at: dict[int, list[tuple[int, int]]] = {}  # the tied pairs of each part
    top = 0
    while True:
        grew = False
        # pop every entry that could reach the group's gain: a stale key
        # goes back at its pair's gain, an exact one is the best gain left
        while heap and (not tied or -heap[0][0] >= top):
            key, x, y = heapq.heappop(heap)
            a, b = into[x], into[y]
            if a > b:
                a, b = b, a
            if a == b:
                continue
            g = gain(a, b)
            if g != -key:
                if g > 0:
                    heapq.heappush(heap, (-g, a, b))
                continue
            if not tied or g > top:  # a better gain: the old group waits below
                for pair in tied:
                    heapq.heappush(heap, (-top, *pair))
                tied, top = [], g
            tied.append((a, b))
            grew = True
        if not tied:
            break
        if grew:  # two entries may name one pair
            tied = sorted(set(tied))
            at = {}
            for pair in tied:
                for v in pair:
                    at.setdefault(v, []).append(pair)
        pick = int(rng.integers(0, len(tied))) if len(tied) > 1 else 0
        a, b = tied.pop(pick)
        for v in members[b]:
            into[v] = a
        members[a] += members[b]
        members[b] = []
        vols[a] += vols[b]
        link_a = links[a]
        for c, cnt in links[b].items():
            link_c = links[c]
            del link_c[b]
            if c == a:
                continue
            if c in link_a:  # a common neighbour: the only pair that can gain
                link_a[c] += cnt
                link_c[a] += cnt
                if (g := gain(a, c)) > 0:
                    heapq.heappush(heap, (-g, a, c) if a < c else (-g, c, a))
            else:
                link_a[c] = cnt
                link_c[a] = cnt
        links[b] = {}
        # the tied pairs the merge touched wait in the heap at their old key;
        # ``at`` may still list pairs that left the group, so look each up
        for pair in at.pop(a, []) + at.pop(b, []):
            i = bisect.bisect_left(tied, pair)
            if i < len(tied) and tied[i] == pair:
                del tied[i]
                heapq.heappush(heap, (-top, *pair))
    parts = tuple(frozenset(members[v]) for v in range(1, n + 1) if into[v] == v)
    return modularity_score(graph, parts).q, parts


def negative_relative_modularity(graph: MultiGraph, subset) -> Fraction:
    """(vol(G)/vol(S)) * (e(S,S-compl)/(2 e(G)) + vol(S)^2/vol(G)^2)."""
    report = edge_boundary(graph, subset)
    if report.vol == 0:  # also catches a graph with no edges
        raise ValueError("subset has zero volume")
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
    least = min(graph.degrees[1:])
    if least < h:
        raise ValueError(f"minimum degree {least} below h={_shown(h, str)}")
    if graph.volume > 2 * h * graph.n:
        raise ValueError("average degree exceeds 2h")
    return h


def _capped(alpha, divisor: int, cap):
    """min(alpha/divisor, cap), exactly, for alpha >= 0; +infinity gives the cap."""
    if alpha == math.inf:
        return cap
    if alpha == -math.inf or (exact := Fraction(alpha)) < 0:
        raise ValueError(f"need alpha >= 0, got {_shown(alpha, str)}")
    return min(exact / divisor, cap)


def expansion_modularity_bound(
    graph: MultiGraph, alpha, cap: Fraction = CAP_STRONG
) -> Fraction:
    """1 - min(alpha/2h, cap) for graphs with min degree >= h, avg <= 2h.

    ``alpha`` is the global expansion alpha_{1/2}; +infinity is accepted
    and simply leaves the cap active.
    """
    return 1 - _capped(alpha, 2 * _require_pa_shape(graph), cap)


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
    if _json_int(n, "n") < 2:
        raise ValueError("profile bound needs n >= 2")
    _check_count(h, "h")
    return 1 - min(
        _small_set_term(Fraction(k, n), _capped(profile[k], h, Fraction(1)))
        for k in range(1, n // 2 + 1)
    )


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
