"""Edge boundaries and u-bounded edge expansion, exactly.

For a subset S the expansion ratio is e(S, S-complement)/|S| and the
u-bounded expansion alpha_u is the minimum ratio over nonempty S with
|S| <= floor(u*n).  When floor(u*n) < 1 no subset qualifies and alpha_u
is +infinity by convention.

The exhaustive search builds one numpy table over all 2^n vertex masks,
boundary[mask] = e(S, S-complement), by doubling: the masks that contain
vertex i are the masks below it plus i's degree, minus twice i's edges
into each lower neighbour.  The same kernel, ``_subset_sums``, also gives
subset sizes and the inner-edge and volume tables behind exact
modularity.  Exact expansion and the profile take the least boundary per
subset size.  All ratios are exact rationals; ties on the minimum are
broken toward the lexicographically smallest vertex set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from pamod.models import MultiGraph, _check_seed

# Largest n for the exhaustive search.  Its memory is an int32 boundary
# table plus a uint8 size table over all 2^n masks: about 5 MiB at n = 20,
# and about 80 MiB plus temporaries (about 110 MiB peak) at n = 24.
EXACT_SUBSET_LIMIT = 24


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


def as_fraction(u) -> Fraction:
    """Exact conversion; floats convert via their binary value."""
    if isinstance(u, Fraction):
        return u
    if isinstance(u, int):
        return Fraction(u)
    if isinstance(u, float):
        if not math.isfinite(u):
            raise ValueError(f"u must be finite, got {u}")
        return Fraction(u)
    if isinstance(u, str):
        return Fraction(u)
    raise ValueError(f"cannot interpret {u!r} as a rational")


def _check_u(u) -> Fraction:
    uf = as_fraction(u)
    if not 0 < uf <= Fraction(1, 2):
        raise ValueError(f"need 0 < u <= 1/2, got {uf}")
    return uf


def edge_boundary(graph: MultiGraph, subset) -> CutReport:
    """Count inner and crossing edges for ``subset``.

    Loops never cross.  The volume identity
    2*e_inner + e_boundary == vol(S) holds, shifted by one when the
    weight-1 loop of a tilde graph sits inside S (it counts once in the
    volume but is a full inner edge).
    """
    sset = frozenset(subset)
    for v in sset:
        if not 1 <= v <= graph.n:
            raise ValueError(f"vertex {v} out of range 1..{graph.n}")
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
    subset once.  ``scan_cut_events`` walks its subsets this way, one XOR
    per subset, and the benchmark's tests count subsets with it.
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


def _boundary_table(graph: MultiGraph) -> np.ndarray:
    """bnd[mask] = e(S, S-complement); it stays below vol(G), so int32 holds it."""
    adj = graph.adjacency
    own = [sum(mult for _nb, mult in adj[v]) for v in range(1, graph.n + 1)]
    return _subset_sums(graph.n, own, _pair_weights(graph, -2), np.int32)


def _size_minima(graph: MultiGraph, k_max: int):
    """Boundary and popcount tables, and the least boundary of each size 1..k_max."""
    bnd = _boundary_table(graph)
    pop = _subset_sums(graph.n, [1] * graph.n, None, np.uint8)
    return bnd, pop, {k: int(bnd[pop == k].min()) for k in range(1, k_max + 1)}


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def exact_expansion(
    graph: MultiGraph, u, limit: int = EXACT_SUBSET_LIMIT
) -> ExpansionResult:
    """Minimum expansion ratio over subsets of size 1..floor(u*n).

    Exhaustive and exact; refuses graphs with more than ``limit``
    vertices, or more than ``EXACT_SUBSET_LIMIT`` whatever ``limit`` says
    (use :func:`sampled_expansion` there).
    """
    uf = _check_u(u)
    n = graph.n
    if n > (limit := min(limit, EXACT_SUBSET_LIMIT)):
        raise ValueError(
            f"n={n} exceeds the exhaustive limit {limit}; use sampled_expansion"
        )
    k_max = math.floor(uf * n)
    if k_max < 1:
        return ExpansionResult(
            u=uf, alpha=math.inf, witness=None, method=SearchMethod.EXHAUSTIVE
        )
    bnd, pop, best = _size_minima(graph, k_max)
    alpha = min(Fraction(best[k], k) for k in range(1, k_max + 1))
    witness = min(
        _members(mask)
        for k in range(1, k_max + 1)
        if Fraction(best[k], k) == alpha
        for mask in np.flatnonzero((pop == k) & (bnd == best[k])).tolist()
    )
    return ExpansionResult(
        u=uf,
        alpha=alpha,
        witness=frozenset(witness),
        method=SearchMethod.EXHAUSTIVE,
    )


def expansion_profile(
    graph: MultiGraph, limit: int = EXACT_SUBSET_LIMIT
) -> dict[int, Fraction]:
    """Map k -> alpha_{k/n} for k = 1..floor(n/2), from one boundary table.

    The values are non-increasing in k by construction.  Refuses n above
    ``limit`` or above ``EXACT_SUBSET_LIMIT``, as ``exact_expansion`` does.
    """
    n = graph.n
    if n > (limit := min(limit, EXACT_SUBSET_LIMIT)):
        raise ValueError(f"n={n} exceeds the exhaustive limit {limit}")
    half = n // 2
    if half < 1:
        return {}
    _bnd, _pop, best = _size_minima(graph, half)
    profile: dict[int, Fraction] = {}
    running: Fraction | None = None
    for k in range(1, half + 1):
        cand = Fraction(best[k], k)
        running = cand if running is None else min(running, cand)
        profile[k] = running
    return profile


def _flip(adj, in_s: list[bool], gain: list[int], w: int) -> None:
    """Move w to the other side and update the flip gains it changes."""
    in_s[w] = not in_s[w]
    gain[w] = -gain[w]
    for nb, m in adj[w]:
        gain[nb] += 2 * m if in_s[nb] == in_s[w] else -2 * m


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
    by cross-multiplication.  A move scans n adds/removes and |S|(n-|S|)
    swaps in O(1) each, then updates the gains of the moved vertices'
    neighbours.  The first best candidate in scan order wins.
    """
    uf = _check_u(u)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    seed = _check_seed(seed)
    n = graph.n
    k_max = math.floor(uf * n)
    if k_max < 1:
        return ExpansionResult(
            u=uf, alpha=math.inf, witness=None, method=SearchMethod.SAMPLED
        )
    rng = np.random.default_rng(seed)
    adj = graph.adjacency
    mult = [dict(nbrs) for nbrs in adj]
    best_ratio: Fraction | None = None
    best_subset: tuple[int, ...] | None = None
    for _ in range(trials):
        size = int(rng.integers(1, k_max + 1))
        members = (rng.choice(n, size=size, replace=False) + 1).tolist()
        in_s = [False] * (n + 1)
        for v in members:
            in_s[v] = True
        gain = [
            sum(m if in_s[nb] == in_s[w] else -m for nb, m in adj[w])
            for w in range(n + 1)
        ]
        boundary = sum(m for w in members for nb, m in adj[w] if not in_s[nb])
        while True:
            move: tuple[int, ...] = ()  # the vertices to flip
            mb, ms = boundary, size  # best ratio so far, mb/ms
            for w in range(1, n + 1):
                s = size - 1 if in_s[w] else size + 1
                if 1 <= s <= k_max and (boundary + gain[w]) * ms < mb * s:
                    mb, ms = boundary + gain[w], s
                    move = (w,)
            # swaps keep the size: w leaves, w2 enters
            inside = [w for w in range(1, n + 1) if in_s[w]]
            outside = [w for w in range(1, n + 1) if not in_s[w]]
            for w in inside:
                base = boundary + gain[w]
                mw = mult[w]
                for w2 in outside:
                    b = base + gain[w2] + 2 * mw.get(w2, 0)
                    if b * ms < mb * size:
                        mb, ms = b, size
                        move = (w, w2)
            if not move:
                break
            boundary, size = mb, ms
            for w in move:
                _flip(adj, in_s, gain, w)
        subset = tuple(v for v in range(1, n + 1) if in_s[v])
        ratio = Fraction(boundary, size)
        if (
            best_ratio is None
            or ratio < best_ratio
            or (ratio == best_ratio and subset < best_subset)
        ):
            best_ratio = ratio
            best_subset = subset
    assert best_subset is not None and best_ratio is not None
    return ExpansionResult(
        u=uf,
        alpha=best_ratio,
        witness=frozenset(best_subset),
        method=SearchMethod.SAMPLED,
    )
