"""Edge boundaries and u-bounded edge expansion, exactly.

For a subset S the expansion ratio is e(S, S-complement)/|S| and the
u-bounded expansion alpha_u is the minimum ratio over nonempty S with
|S| <= floor(u*n).  When floor(u*n) < 1 no subset qualifies and alpha_u
is +infinity by convention.

The exhaustive search builds one numpy table, boundary[mask] =
e(S, S-complement), by doubling: the masks that contain vertex i are the
masks below it plus i's degree, minus twice i's edges into each lower
neighbour.  A set and its complement share their boundary, so the table
covers only the 2^(n-1) masks that leave out vertex n, and a mask of size
j there stands for a set of size j and one of size n - j.  The same
kernel, ``_subset_sums``, also gives the inner-edge and volume tables
behind exact modularity; popcounts come from ``np.bitwise_count``.
best[k], the least boundary of size k, comes from block minima over the
table (``_least_by_size``); the profile is the running minimum of
best[k]/k, and exact expansion reads it at floor(u*n).  All ratios are
exact; ties go to the lexicographically least vertex set.  At n = 20 the
profile takes about 1.6 ms and exact expansion 1.9 ms (2-core Xeon).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from pamod.models import (
    MultiGraph, _check_count, _check_seed, _check_vertices, _json_int, _shown
)

# Largest n for the exhaustive search: an int32 boundary over the 2^(n-1)
# masks without vertex n, 2 bytes per mask of all 2^n (a call peaks at
# about 2.5 under tracemalloc), 32 MiB at n = 24, where a call peaks at
# 75-83 MiB RSS in a fresh process.
EXACT_SUBSET_LIMIT = 24

# Low mask bits folded at once by the per-size minima: a 2^12-column block.
FOLD_BITS = 12


class SearchMethod(str, Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class CutReport:
    """Exact counts for one subset: inner edges, boundary edges, volume."""

    subset: frozenset[int]
    e_inner: int
    e_boundary: int
    vol: int
    ratio: Fraction | None  # e(S, S-complement)/|S|; None for the empty set


@dataclass(frozen=True)
class ExpansionResult:
    u: Fraction
    alpha: Fraction | float  # rational, or math.inf when no subset qualifies
    witness: frozenset[int] | None
    method: SearchMethod


def _too_many_digits(shown: str) -> ValueError:
    return ValueError(f"need u of at most {sys.get_int_max_str_digits()} digits, got {shown}")


def as_fraction(u) -> Fraction:
    """Exact conversion; floats, numpy's included, convert via their
    binary value.  A literal past Python's int digit limit is refused as
    a too-long u."""
    if isinstance(u, Fraction):
        return u
    if isinstance(u, (int, np.integer)):
        return Fraction(int(u))
    if isinstance(u, (float, np.floating)):
        if not np.isfinite(u):
            raise ValueError(f"u must be finite, got {u}")
        return Fraction(*u.as_integer_ratio())
    if isinstance(u, str):
        try:
            return Fraction(u)
        except ZeroDivisionError:  # "1/0", "0/0"
            pass
        except ValueError as exc:  # Fraction's own message quotes all of u
            if str(exc).startswith("Invalid literal"):
                raise ValueError(f"Invalid literal for Fraction: {_shown(u)}") from None
            raise _too_many_digits(_shown(u)) from None  # past int's digit limit
    raise ValueError(f"cannot interpret {_shown(u)} as a rational")


def _check_u(u) -> Fraction:
    """``u`` as a Fraction in (0, 1/2] that converts to text, since every
    result shows it; refused otherwise."""
    uf = as_fraction(u)
    text = _shown(uf, str)
    if not 0 < uf <= Fraction(1, 2):
        raise ValueError(f"need 0 < u <= 1/2, got {text}")
    if text.startswith("about"):
        raise _too_many_digits(text)
    return uf


def edge_boundary(graph: MultiGraph, subset) -> CutReport:
    """Count inner and crossing edges for ``subset``.

    Loops never cross.  The volume identity
    2*e_inner + e_boundary == vol(S) holds, shifted by one when the
    weight-1 loop of a tilde graph sits inside S (it counts once in the
    volume but is a full inner edge).
    """
    sset = _check_vertices(subset, graph.n)
    rest = frozenset(range(1, graph.n + 1)) - sset
    inner, boundary, vols = _part_tallies(graph, (sset, rest))
    ratio = Fraction(boundary[0], len(sset)) if sset else None
    return CutReport(
        subset=sset,
        e_inner=inner[0],
        e_boundary=boundary[0],
        vol=vols[0],
        ratio=ratio,
    )


def _part_tallies(graph: MultiGraph, parts):
    """Per-part (inner edges, boundary edges, volume), counted on the edge array.

    ``parts`` must cover every vertex; loops count as inner edges.
    """
    idx = np.zeros(graph.n + 1, dtype=np.int64)
    for i, p in enumerate(parts):
        idx[list(p)] = i
    u, v, _t = graph.edge_array.T
    pu, pv = idx[u], idx[v]
    cross = pu != pv
    k = len(parts)
    inner = np.bincount(pu[~cross], minlength=k)
    boundary = np.bincount(pu[cross], minlength=k) + np.bincount(pv[cross], minlength=k)
    # each vertex's part, repeated once per unit of its degree
    vols = np.bincount(np.repeat(idx, graph.degrees), minlength=k)
    return inner.tolist(), boundary.tolist(), vols.tolist()


def _gray_flip_order(n: int):
    """Yield the vertex bit flipped at each step of the reflected Gray code.

    Starting from the empty mask, the 2^n - 1 flips visit each nonempty
    subset once.  No kernel here walks it; it stays because
    perfbench/test_perfbench.py counts subsets with it.
    """
    for i in range(1, 1 << n):
        yield (i & -i).bit_length() - 1


def _subset_sums(n: int, own, pairs, dtype) -> np.ndarray:
    """Table over all vertex masks (bit i = vertex i+1) of
    t[mask] = sum of own[i] over i in mask + sum of w over pairs in mask.

    ``pairs[i]`` lists (j, w) with j < i, or ``pairs`` is None.  The table
    is built in place by doubling: the masks with top bit i are the masks
    below 2^i plus own[i], plus w on the half of them that holds bit j.
    """
    t = np.zeros(1 << n, dtype=dtype)
    for i in range(n):
        top = t[1 << i : 2 << i]
        np.add(t[: 1 << i], own[i], out=top)
        if pairs is not None:
            for j, w in pairs[i]:
                top.reshape(-1, 2, 1 << j)[:, 1, :] += w
    return t


def _pair_weights(graph: MultiGraph, scale: int) -> list[list[tuple[int, int]]]:
    """pairs[i] = [(j, scale * mult), ...] over the neighbours j < i, 0-based."""
    return [
        [(nb - 1, scale * mult) for nb, mult in graph.adjacency[v] if nb < v]
        for v in range(1, graph.n + 1)
    ]


def _outside_gains(graph: MultiGraph) -> list[int]:
    """Non-loop degrees, index 0 unused: the flip gains while S is empty."""
    return [sum(mult for _nb, mult in nbrs) for nbrs in graph.adjacency]


def _boundary_table(graph: MultiGraph) -> np.ndarray:
    """bnd[mask] = e(S, S-complement) over the 2^(n-1) masks that leave out
    vertex n, the lower half of the full table: the upper half is
    bnd[full ^ mask], since a set and its complement share their boundary.
    Vertex n's edges always cross.  Below vol(G), so int32 holds it."""
    own = _outside_gains(graph)[1:-1]
    return _subset_sums(graph.n - 1, own, _pair_weights(graph, -2)[:-1], np.int32)


def _check_limit(n: int, requested: int, cap: int, kind: str, instead: str) -> None:
    """Refuse a requested limit that is no int, and n over it or over
    ``cap``, before any table: a limit can only lower the cap."""
    if n > (limit := min(_json_int(requested, "limit"), cap)):
        raise ValueError(
            f"n={_shown(n, str)} exceeds the {kind} limit {_shown(limit, str)}; use {instead}"
        )


@lru_cache(maxsize=None)
def _popcount_order(b: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^b masks of b <= FOLD_BITS bits stably sorted by popcount, and
    where popcount 0..b begins in that order."""
    pop = np.bitwise_count(np.arange(1 << b))
    order = np.argsort(pop, kind="stable")
    starts = np.searchsorted(pop[order], np.arange(b + 1))
    for a in (order, starts):
        a.setflags(write=False)
    return order, starts


def _least_by_size(table: np.ndarray, bits: int) -> np.ndarray:
    """least[j] = min of table[mask] over the masks of j set bits, j = 0..bits.

    Block minima, no per-mask scatter: viewed as (2^hi, 2^lo) with
    lo = min(bits, FOLD_BITS), the rows of high popcount p reduce to one
    row, whose columns fold by low popcount q in one reduceat over the
    cached order; size j is the least over p + q = j.
    """
    lo = min(bits, FOLD_BITS)
    hi = bits - lo
    cols, col_starts = _popcount_order(lo)
    rows, row_starts = _popcount_order(hi)
    block = table.reshape(1 << hi, 1 << lo)
    least = np.full(bits + 1, np.iinfo(table.dtype).max, table.dtype)
    for p, (a, b) in enumerate(zip(row_starts, [*row_starts[1:], 1 << hi])):
        by_low = np.minimum.reduceat(block[rows[a:b]].min(axis=0)[cols], col_starts)
        window = least[p : p + lo + 1]  # sizes p + q, q = 0..lo
        np.minimum(window, by_low, out=window)
    return least


def _size_profile(graph: MultiGraph):
    """The half boundary table, best[k] = least boundary of size k, and
    the profile k -> min_{j<=k} best[j]/j.

    A half-table mask of size j stands for itself and for its complement
    of size n - j, so best[k] = min(least[k], least[n-k]).
    """
    n = graph.n
    bnd = _boundary_table(graph)
    least = [*_least_by_size(bnd, n - 1).tolist(), 0]  # size n: the full set
    best = [min(pair) for pair in zip(least, reversed(least))]
    ks = range(1, n // 2 + 1)
    running = accumulate((Fraction(best[k], k) for k in ks), min)
    return bnd, best, dict(zip(ks, running))


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def exact_expansion(
    graph: MultiGraph, u, limit: int = EXACT_SUBSET_LIMIT
) -> ExpansionResult:
    """Minimum expansion ratio over subsets of size 1..floor(u*n).

    The profile's value at floor(u*n), and the least witness among the
    size-k masks with best[k]/k equal to it.  Refuses n above ``limit``,
    or above ``EXACT_SUBSET_LIMIT`` whatever ``limit`` says, before any
    table (use :func:`sampled_expansion`).  The witnesses of size k are
    the half-table hits of size k and the complements of those of size
    n - k.  Peak about 2.5 bytes per mask; 1.9 ms at n = 20, 0.04 s and
    83 MiB RSS at n = 24 (2-core Xeon, fresh process).
    """
    uf = _check_u(u)
    _check_limit(graph.n, limit, EXACT_SUBSET_LIMIT, "exhaustive", "sampled_expansion")
    k_max = math.floor(uf * graph.n)
    if k_max < 1:
        return ExpansionResult(
            u=uf, alpha=math.inf, witness=None, method=SearchMethod.EXHAUSTIVE
        )
    n = graph.n
    bnd, best, profile = _size_profile(graph)
    alpha = profile[k_max]
    masks: list[int] = []
    for k in range(1, k_max + 1):
        if Fraction(best[k], k) == alpha:
            hits = np.flatnonzero(bnd == best[k])
            size = np.bitwise_count(hits)
            masks += hits[size == k].tolist()
            masks += (((1 << n) - 1) ^ hits[size == n - k]).tolist()
    return ExpansionResult(
        u=uf,
        alpha=alpha,
        witness=frozenset(min(map(_members, masks))),
        method=SearchMethod.EXHAUSTIVE,
    )


def expansion_profile(
    graph: MultiGraph, limit: int = EXACT_SUBSET_LIMIT
) -> dict[int, Fraction]:
    """Map k -> alpha_{k/n} for k = 1..floor(n/2), non-increasing in k.

    Refuses as ``exact_expansion`` does.  Peak about 2.5 bytes per mask;
    1.6 ms at n = 20, 0.03 s and 75 MiB RSS at n = 24 (2-core Xeon, fresh
    process).
    """
    _check_limit(graph.n, limit, EXACT_SUBSET_LIMIT, "exhaustive", "sampled_expansion")
    return _size_profile(graph)[2]


def _flip(mult, in_s: list[bool], gain: list[int], w: int) -> None:
    """Move w to the other side and update the flip gains it changes."""
    in_s[w] = not in_s[w]
    gain[w] = -gain[w]
    for nb, m in mult[w].items():
        gain[nb] += 2 * m if in_s[nb] == in_s[w] else -2 * m


def _enter(mult, outside_gains: list[int], members):
    """(in_s, gain, boundary) for S = members, built by flips from S empty,
    each member's gain added to the boundary before it enters."""
    in_s, gain, boundary = [False] * len(outside_gains), outside_gains.copy(), 0
    for v in members:
        boundary += gain[v]
        _flip(mult, in_s, gain, v)
    return in_s, gain, boundary


def _best_move(mult, in_s, gain, boundary: int, size: int, k_max: int):
    """The descent's next move from S: (boundary, size, vertices to flip),
    or the current (boundary, size, ()) when nothing lowers the ratio.

    The move is the first strict minimum of a scan over adds and removes
    by vertex, then swaps (w leaves, w2 enters) row-major, but no pair is
    enumerated: the outside vertices are sorted once by (gain, vertex).
    Its head is the best add, the first inside vertex of least gain the
    best remove.  w's best partner is the first vertex in the list not
    adjacent to w, found in at most deg(w)+1 steps, or an outside
    neighbour w2, valued gain[w2] + 2*mult(w, w2) since w has left.  No
    partner is valued below the head, so w is skipped once gain[w] plus
    the head's gain cannot beat the best swap so far.
    """
    n = len(in_s) - 1
    inside = [w for w in range(1, n + 1) if in_s[w]]
    # a stable sort of vertex order, so ties stay by vertex
    order = sorted((w for w in range(1, n + 1) if not in_s[w]), key=gain.__getitem__)
    singles = []  # (vertex, size after the flip), by vertex below
    if size < k_max:
        singles.append((order[0], size + 1))
    if size > 1:
        singles.append((min(inside, key=gain.__getitem__), size - 1))
    move: tuple[int, ...] = ()
    mb, ms = boundary, size  # best ratio so far, mb/ms
    for w, s in sorted(singles):
        if (boundary + gain[w]) * ms < mb * s:
            mb, ms = boundary + gain[w], s
            move = (w,)
    swap, least = (), 0  # least: the best swap's boundary change
    floor = gain[order[0]]
    for w in inside:
        if swap and gain[w] + floor >= least:
            continue
        mw = mult[w]
        partners = [(gain[x] + 2 * m, x) for x, m in mw.items() if not in_s[x]]
        if head := next((x for x in order if x not in mw), 0):
            partners.append((gain[head], head))
        val, w2 = min(partners)  # an outside vertex is one kind or the other
        if not swap or gain[w] + val < least:
            least, swap = gain[w] + val, (w, w2)
    if swap and (boundary + least) * ms < mb * size:
        return boundary + least, size, swap
    return mb, ms, move


def sampled_expansion(
    graph: MultiGraph, u, trials: int, seed: int
) -> ExpansionResult:
    """Randomized upper estimate of alpha_u.

    Each trial draws a random admissible subset and runs greedy local
    descent (vertex adds, removes, swaps) until the ratio stops
    improving.  Every candidate is an admissible subset, so the returned
    value is always >= the true alpha_u.

    The descent keeps integer flip gains, gain[w] = the boundary change
    if w switches sides (Fiduccia-Mattheyses style), and compares ratios
    by cross-multiplication; :func:`_flip` alone changes a gain.  A trial
    starts from S empty, each gain a non-loop degree, and flips the drawn
    members in (:func:`_enter`).  A move (:func:`_best_move`) sorts the
    outside vertices by gain and reads each inside vertex's best swap
    partner off that list and its own neighbours, in O(n log n +
    sum of deg w over S) rather than the O(|S|(n-|S|)) of a scan over
    every swap.  The first best candidate in scan order wins, adds and
    removes by vertex, then swaps row-major; the least (ratio, subset)
    over the trials is returned.  Standard h=2, n=500 takes about 0.1 s
    for 8 trials.
    """
    uf = _check_u(u)
    _check_count(trials, "trials")
    seed = _check_seed(seed)
    n = graph.n
    k_max = math.floor(uf * n)
    if k_max < 1:
        return ExpansionResult(
            u=uf, alpha=math.inf, witness=None, method=SearchMethod.SAMPLED
        )
    rng = np.random.default_rng(seed)
    mult = [dict(nbrs) for nbrs in graph.adjacency]
    outside_gains = _outside_gains(graph)
    best = None  # (ratio, subset): the lexicographically least wins a tie
    for _ in range(trials):
        size = int(rng.integers(1, k_max + 1))
        members = (rng.choice(n, size=size, replace=False) + 1).tolist()
        in_s, gain, boundary = _enter(mult, outside_gains, members)
        while True:
            boundary, size, move = _best_move(mult, in_s, gain, boundary, size, k_max)
            if not move:
                break
            for w in move:
                _flip(mult, in_s, gain, w)
        trial = (Fraction(boundary, size), tuple(v for v in range(1, n + 1) if in_s[v]))
        if best is None or trial < best:
            best = trial
    alpha, witness = best
    return ExpansionResult(
        u=uf, alpha=alpha, witness=frozenset(witness), method=SearchMethod.SAMPLED
    )
