"""Two preferential attachment multigraph processes.

Both processes grow a tree on h*n "mini-vertices" one edge at a time and
are then merged into a multigraph on n vertices by mapping mini-vertex m
to vertex ceil(m/h).  Edge e_t arrives at step t and joins mini-vertex t
to a random earlier mini-vertex, chosen proportionally to current degree.

The two variants differ in how self-loops are treated at the mini level:

* ``Model.STANDARD``: e_1 is a loop at mini-vertex 1 of weight 2.  When
  e_{t+1} is placed, target s <= t is chosen with probability
  deg(s)/(2t+1) and a fresh self-loop at t+1 with probability 1/(2t+1).
* ``Model.TILDE``: e_1 is a loop at mini-vertex 1 contributing only 1 to
  its degree, and later steps never place self-loops at the mini level:
  e_{t+1} attaches to s <= t with probability deg(s)/(2t-1).

Sampling uses the endpoint-list realization of Batagelj & Brandes (Phys.
Rev. E 71, 2005): a list L holds both endpoints of every placed edge (only
one copy of mini-vertex 1 for the weight-1 loop), so a uniform draw from L
is a degree-proportional draw.  The list is never built.  In the standard
model L = [1, s_1, 2, s_2, 3, s_3, ...] with s_1 = 1, so the 1-based draw
r at step tau resolves as

* r odd: s_tau = (r + 1) // 2, a fresh arrival (r = 2*tau - 1 is the
  self-loop);
* r even: s_tau = s_{r/2}, a copy of an earlier arrival's target.

The tilde list is the standard one without its first entry and without
the self-loop slot, so its 0-based draw j is the standard draw r = j + 2.
The draws do not depend on the history, so runs fill one step-major
(length, trials) int64 array, row tau-1 holding step tau of every run,
in the order the generator draws them.  A copy at step tau reads an
earlier row of its own run, so once a step's draws are in, one gather
resolves all its copies.  A block of several steps (``generate``'s one
run) follows pointers within the block until none is left.  Memory is
the output array plus a few temporaries of max(trials, ``SAMPLER_CHUNK``)
elements.

A log keeps its targets as one read-only int64 array, ``target_array``,
and a graph its (u, v, t) edges as one read-only (m, 3) int64 array,
``edge_array``; all code here works on these.  ``targets`` and ``edges``
read as tuples of Python ints, rebuilt on every read.  ``save_graph``
and ``pamod gen`` write the same text, ``graph_to_text``, which formats
the edges from one flat list of ints; ``load_graph`` parses with the
garbage collector paused.  Per 10^5 edges (h=4, n=25000, 2-core Xeon) a
save takes about 50 ms and peaks at 15 MB, a load about 100 ms and 22 MB.

``exact_small_t_distribution`` comes from ``_enumerate_logs``, which
lists every log of a given length level by level, each with an integer
probability numerator over the common denominator (2t-1)!! (standard) or
(2t-3)!! (tilde) for logs of length t.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

MAX_SEED = 2**64

# Most logs one level of ``_enumerate_logs`` may hold: the size rule of
# ``exact_small_t_distribution``, which admits t_max 9 (standard), 10 (tilde).
_ENUMERATION_CAP = 500_000

# Elements per target-sampler block: a block is max(1, SAMPLER_CHUNK //
# trials) whole steps, so the sampler's temporaries next to its output are
# a few arrays of max(trials, SAMPLER_CHUNK) elements.
SAMPLER_CHUNK = 1 << 12


class Model(str, Enum):
    """Tags for the two attachment processes (wire names are fixed)."""

    STANDARD = "standard"
    TILDE = "tilde"


# the most characters of one value an error message shows
SHOWN_CHARS = 60


def _shown(value, form=repr) -> str:
    """``value`` as an error message shows it: ``form(value)``, but a list
    or dict by its type name, since their repr grows with their nesting,
    and a text over ``SHOWN_CHARS`` cut there and marked ``...``."""
    if isinstance(value, (list, dict)):
        return type(value).__name__
    text = form(value)
    return text if len(text) <= SHOWN_CHARS else f"{text[:SHOWN_CHARS]}..."


def _check_int(value, name: str, kinds=(int, np.integer)):
    """``value``, refused unless it is one of ``kinds``; a bool never is."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    return value


def _check_seed(seed: int) -> int:
    _check_int(seed, "seed")
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def _check_model(model: Model) -> Model:
    # by type: Model()'s message reprs the value, maybe a deeply nested list
    if not isinstance(model, str):
        raise ValueError(f"model must be a string, got {type(model).__name__}")
    if not isinstance(model, Model):
        try:
            return Model(model)
        except ValueError:
            raise ValueError(f"unknown model {_shown(model)}") from None
    return model


def _check_count(value: int, name: str) -> None:
    if value < 1:
        raise ValueError(f"need {name} >= 1, got {value}")


def _check_hn(h: int, n: int) -> None:
    _json_int(h, "h")
    _json_int(n, "n")
    if h < 1 or n < 1:
        raise ValueError(f"need h >= 1 and n >= 1, got h={h}, n={n}")


def _check_vertices(vertices, n: int) -> frozenset[int]:
    """``vertices`` as a frozenset, refused if one is not an integer or
    lies outside 1..n."""
    for v in (vs := frozenset(vertices)):
        if not 1 <= _check_int(v, "vertex") <= n:
            raise ValueError(f"vertex {v} out of range 1..{n}")
    return vs


def vertex_of(mini, h: int):
    """Vertex that mini-vertex ``mini`` merges into (1-based).

    ``mini`` may be an int or an integer numpy array; an array gives the
    array of vertices.
    """
    return (mini + h - 1) // h


class _IntColumns:
    """Dataclass field kept as one read-only int64 array, ``store``, of
    shape (L,) or (L, width); a writable input array is copied.  A read
    rebuilds tuples of Python ints every time, so package code reads
    ``store``."""

    def __init__(self, store: str, width: int | None = None):
        self.store, self.tail = store, () if width is None else (width,)

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:  # the dataclass field has no default
            raise AttributeError(self.name)
        arr = getattr(obj, self.store)
        return tuple(zip(*arr.T.tolist())) if self.tail else tuple(arr.tolist())

    def __set__(self, obj, value) -> None:
        arr = np.asarray(value) if len(value) else np.empty((0, *self.tail), int)
        if arr.ndim != 1 + len(self.tail) or arr.shape[1:] != self.tail or not (
            arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64)
        ):
            rows = f"rows of {self.tail[0]} " if self.tail else ""
            raise ValueError(f"{self.name} must be {rows}integers within int64")
        arr = arr.astype(np.int64, copy=arr is value and arr.flags.writeable)
        arr.flags.writeable = False
        object.__setattr__(obj, self.store, arr)


class _ColumnRecord:
    """Equality, hash and pickling of a frozen dataclass (declared with
    ``eq=False``, so these stay) that read each ``_IntColumns`` field as
    its ``store`` array, never through the tuple view."""

    def _values(self) -> tuple:
        """The field values in declaration order, columns as arrays."""
        attrs = vars(type(self)).items()
        cols = {k: c.store for k, c in attrs if isinstance(c, _IntColumns)}
        return tuple(getattr(self, cols.get(f.name, f.name)) for f in fields(self))

    # the dataclass semantics: same class and equal fields, in order
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._values(), other._values())
        )

    def __hash__(self) -> int:
        return hash(tuple(
            v.tobytes() if isinstance(v, np.ndarray) else v for v in self._values()
        ))

    def __reduce__(self):
        # Through the constructor, so an unpickled record is checked again
        # and its arrays read-only (numpy drops the flag below protocol 5).
        return type(self), self._values()


@dataclass(frozen=True, eq=False)
class ArrivalLog(_ColumnRecord):
    """Full record of one run of an attachment process.

    ``targets[t-1]`` is the mini-vertex that edge e_t attached to.  For
    the standard model targets[t-1] == t encodes the self-loop option;
    the tilde model only allows targets strictly below t (after e_1).
    """

    model: Model
    h: int
    n: int
    targets: tuple[int, ...] = _IntColumns("target_array")

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", _check_model(self.model))
        _check_hn(self.h, self.n)
        s = self.target_array
        if len(s) != self.h * self.n:
            raise ValueError(f"log length {len(s)} != h*n = {self.h * self.n}")
        if s[0] != 1:
            raise ValueError("edge e_1 is always the initial loop at mini-vertex 1")
        t = np.arange(1, len(s) + 1)
        hi = t if self.model is Model.STANDARD else np.maximum(t - 1, 1)
        bad = np.flatnonzero((s < 1) | (s > hi))
        if bad.size:
            t = int(bad[0]) + 1
            raise ValueError(f"target {s[t - 1]} out of range at arrival {t}")


@dataclass(frozen=True, eq=False)
class MultiGraph(_ColumnRecord):
    """Undirected multigraph with loops, vertices 1..n.

    Each edge is a row (u, v, t) of ``edge_array``, u <= v and t its
    arrival index.  Loops contribute 2 to the degree, except that when
    ``first_loop_weight1`` is set the loop with arrival index 1 contributes
    only 1 (the tilde model's initial loop).  Generation metadata (model,
    h, seed) rides along when known; handcrafted fixtures may leave it
    unset.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...] = _IntColumns("edge_array", 3)
    first_loop_weight1: bool = False
    model: Model | None = None
    h: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_count(self.n, "n")
        u, v, t = self.edge_array.T
        outside = (u < 1) | (u > self.n) | (v < 1) | (v > self.n)
        bad = np.flatnonzero(outside | (u > v))
        if bad.size:
            i = bad[0]
            if outside[i]:
                raise ValueError(f"edge ({u[i]},{v[i]}) out of range for n={self.n}")
            raise ValueError(f"edge ({u[i]},{v[i]},{t[i]}) must be stored with u <= v")

    @classmethod
    def from_pairs(
        cls, n: int, pairs, *, first_loop_weight1: bool = False
    ) -> "MultiGraph":
        """Build a fixture graph from (u, v) pairs; arrivals are 1,2,..."""
        ends = np.sort(np.asarray(pairs).reshape(len(pairs), 2), axis=1)
        edges = np.c_[ends, np.arange(1, len(ends) + 1)]
        return cls(n=n, edges=edges, first_loop_weight1=first_loop_weight1)

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Degree per vertex, index 0 unused."""
        u, v, t = self.edge_array.T
        deg = np.bincount(np.concatenate([u, v]), minlength=self.n + 1)
        if self.first_loop_weight1:
            deg -= np.bincount(u[(u == v) & (t == 1)], minlength=self.n + 1)
        return tuple(deg.tolist())

    @property
    def volume(self) -> int:
        return sum(self.degrees)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Non-loop neighbor multiplicities: adjacency[v] = ((nb, mult), ...)."""
        u, v, _t = self.edge_array[self.edge_array[:, 0] != self.edge_array[:, 1]].T
        w = self.n + 1  # key end * w + neighbour sorts by end, then neighbour
        keys, mult = np.unique(np.r_[u, v] * w + np.r_[v, u], return_counts=True)
        pairs = list(zip((keys % w).tolist(), mult.tolist()))
        cuts = np.searchsorted(keys, np.arange(w + 1) * w).tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip(cuts, cuts[1:]))

    @cached_property
    def loop_counts(self) -> tuple[int, ...]:
        u, v, _t = self.edge_array.T
        return tuple(np.bincount(u[u == v], minlength=self.n + 1).tolist())


def merge(log: ArrivalLog, *, seed: int | None = None) -> MultiGraph:
    """Collapse a mini-vertex log into the multigraph on n vertices.

    Mini-vertex m maps to vertex ceil(m/h); every one of the h*n edges
    is kept, so mini-level edges inside a block become loops.  ``seed``
    is recorded on the graph as the seed that generated the log.  No
    target comes after its arrival, so e_t is (ceil(target/h), ceil(t/h),
    t), computed in place in the graph's (h*n, 3) int64 array.
    """
    t = np.arange(1, len(log.target_array) + 1)
    cols = np.stack([log.target_array, t, t], axis=1)
    cols[:, :2] += log.h - 1  # vertex_of, in place
    cols[:, :2] //= log.h
    cols.flags.writeable = False
    return _generated_graph(log.model, log.h, log.n, cols, seed)


def _generated_graph(model: Model, h: int, n: int, edges, seed) -> MultiGraph:
    """A run's graph: only a tilde run has a weight-1 first loop."""
    return MultiGraph(
        n=n, edges=edges, first_loop_weight1=(model is Model.TILDE),
        model=model, h=h, seed=seed,
    )


def _sample_runs(
    model: Model, length: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """``trials`` independent runs of the process as a (trials, length) array.

    The runs fill one step-major (length, trials) array, row tau-1 holding
    step tau of every run, in the order the stream is drawn; the result is
    its transpose, a Fortran-ordered view.  A block is max(1,
    ``SAMPLER_CHUNK`` // trials) whole steps, whose draws land in its rows
    with no transpose: one step draws with scalar bounds, numpy's fill
    path, several with array bounds; both give the stream of one
    scalar-bounded call per step and run.  Temporaries are a few arrays of
    the block's size.
    """
    out = np.empty((length, trials), dtype=np.int64)
    # row 0 is e_1's target 1, which is also the resolved form of r = 1
    out[0] = 1
    flat = out.reshape(-1)
    lag = np.arange(trials) - trials
    steps = max(1, SAMPLER_CHUNK // trials)
    for tau0 in range(2, length + 1, steps):
        rows = out[tau0 - 1 : tau0 - 1 + steps]
        k = len(rows)
        taus = tau0 if k == 1 else np.arange(tau0, tau0 + k)[:, None]
        if model is Model.STANDARD:
            r = rng.integers(1, 2 * taus, size=rows.shape)
            np.add(r, 1, out=rows)
        else:  # tilde draw j is the standard draw r = j + 2, of j's parity
            r = rng.integers(0, 2 * taus - 3, size=rows.shape)
            np.add(r, 3, out=rows)
        rows >>= 1  # odd r: its target (r + 1)/2; even r: the arrival r/2 it copies
        # A copy reads flat index (r/2 - 1)*trials + run, in an earlier row
        # of its run; until resolved it holds ~index, which is negative.  In
        # a one-step block every index lands on a resolved row, so the first
        # gather resolves them all; in a longer block an index may land on
        # a copy not yet resolved, whose index is then followed.
        src = rows * trials
        src += lag
        block = rows.reshape(-1)
        jump = np.flatnonzero((r & 1) == 0)
        src = src.reshape(-1)[jump]
        block[jump] = ~src
        while jump.size:
            block[jump] = got = flat[src]
            keep = got < 0
            jump, src = jump[keep], ~got[keep]
    return out.T


def generate(model: Model, h: int, n: int, seed: int) -> tuple[ArrivalLog, MultiGraph]:
    """Sample one graph.

    Randomness comes from a PCG64 generator seeded with ``seed`` alone,
    so identical (model, h, n, seed) inputs reproduce the same log
    bit-for-bit.

    Returns:
        The arrival log and its merged multigraph.
    """
    model = _check_model(model)
    _check_hn(h, n)
    seed = _check_seed(seed)
    targets = _sample_runs(model, h * n, 1, np.random.default_rng(seed))[0]
    targets.flags.writeable = False
    log = ArrivalLog(model=model, h=h, n=n, targets=targets)
    return log, merge(log, seed=seed)


def sample_target_matrix(
    model: Model, length: int, trials: int, seed: int
) -> np.ndarray:
    """Sample ``trials`` independent target sequences as a (trials, length) array.

    All trials' draws for step 2 come first in the generator stream, then
    those for step 3, and so on; the stream equals one scalar-bounded
    ``rng.integers`` call per step and trial in that order.  It differs
    from per-trial ``generate`` calls; reproducibility is per (model,
    length, trials, seed).  The result is a Fortran-ordered view of the
    step-major (length, trials) array the runs fill.  Memory is the int64
    output plus a few temporaries of max(trials, ``SAMPLER_CHUNK``)
    elements.
    """
    model = _check_model(model)
    seed = _check_seed(seed)
    _json_int(length, "length")
    _json_int(trials, "trials")
    if length < 1 or trials < 1:
        raise ValueError("need length >= 1 and trials >= 1")
    return _sample_runs(model, length, trials, np.random.default_rng(seed))


def derive_seed(root_seed: int, index: int) -> int:
    """Derived 64-bit seed for stream ``index`` under ``root_seed``.

    The scheme is SeedSequence entropy (root_seed, index); the derived
    seed is the first 64-bit word.  Trials in a sweep use consecutive
    indices, so reports can record a plain integer seed per row.
    """
    root_seed = _check_seed(root_seed)
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    ss = np.random.SeedSequence([root_seed, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _enumerate_logs(model: Model, length: int):
    """Every arrival log of ``length`` steps with its probability numerator.

    Returns (targets, nums, denom): targets is an (L, length) int64 array
    in lexicographic order, nums[i] * ``denom``^-1 is the probability of
    log i, and nums sum to denom.  The logs grow one step at a time: each
    log is repeated once per candidate target s of arrival tau, 1..tau in
    the standard model (tau is the self-loop, weight 1) and 1..tau-1 in
    the tilde model, and its numerator is multiplied by deg(s).

    A level over ``_ENUMERATION_CAP`` logs is refused before any is built.
    Peak memory is at most about 20 * length bytes per log of the widest
    level (that level, the one before it and temporaries): at the cap,
    under 100 MB for length 10 and under 180 MB for length 18, the
    longest the int64 denominator check lets through.
    """
    model = _check_model(model)
    loops = model is Model.STANDARD
    denom = math.prod(2 * tau - (1 if loops else 3) for tau in range(2, length + 1))
    if denom >= 2**63:
        raise ValueError(
            f"{model.value} logs of length {length} have denominator {denom} "
            ">= 2^63, beyond int64 numerators"
        )
    # level tau holds tau! (standard) or (tau-1)! (tilde) logs
    for tau in range(1, length + 1):
        if (size := math.factorial(tau - (not loops))) > _ENUMERATION_CAP:
            raise ValueError(
                f"{model.value} logs of length {length}: step {tau} would hold "
                f"{size} logs, over the enumeration cap {_ENUMERATION_CAP}"
            )
    targets = np.zeros((1, length), dtype=np.int64)
    # the denominator check caps length at 19, so degrees fit in uint8
    degs = np.zeros((1, length), dtype=np.uint8)
    nums = np.ones(1, dtype=np.int64)
    for tau in range(1, length + 1):
        # e_1 is the loop at mini-vertex 1 in both models
        cand = np.arange(1, tau + 1 if loops or tau == 1 else tau)
        rows = np.repeat(np.arange(len(nums)), len(cand))
        s = np.tile(cand, len(nums))
        own = s == tau
        targets = targets[rows]
        degs = degs[rows]
        targets[:, tau - 1] = s
        cell = (np.arange(len(s)), s - 1)
        nums = nums[rows] * np.where(own, 1, degs[cell])
        degs[cell] += 1
        # arrival tau's own endpoint, plus the other end of a weight-2 loop
        degs[:, tau - 1] = 1 + (own & loops)
    return targets, nums, denom


def exact_small_t_distribution(
    model: Model, t_max: int
) -> dict[tuple[int, ...], Fraction]:
    """Exact law of the first ``t_max`` targets, by enumeration.

    Returns a map from target tuples to rational probabilities; the
    values sum to 1.  The law of the log prefix does not depend on h or
    n, only on its length.

    The enumerator's cap admits t_max <= 9 standard and 10 tilde.  The
    map dominates memory at about 0.5 KiB per entry: its 9! entries at
    standard t_max = 9 take 0.7 s and 210 MiB peak RSS (2-core Xeon).
    """
    model = _check_model(model)
    _check_count(t_max, "t_max")
    targets, nums, denom = _enumerate_logs(model, t_max)
    return {
        tuple(row): Fraction(num, denom)
        for row, num in zip(targets.tolist(), nums.tolist())
    }


# ---------------------------------------------------------------------------
# graph file format


def _graph_header(graph: MultiGraph) -> dict:
    """The wire fields before the edges; field order is part of the format."""
    if graph.model is None or graph.h is None or graph.seed is None:
        raise ValueError("only generated graphs (model, h, seed known) serialize")
    return {"model": graph.model.value, "h": graph.h, "n": graph.n, "seed": graph.seed}


def graph_to_json(graph: MultiGraph) -> dict:
    """Wire form of a generated graph, its edges as a list of lists."""
    return {**_graph_header(graph), "edges": graph.edge_array.tolist()}


def graph_to_text(graph: MultiGraph) -> str:
    """The graph file: ``graph_to_json`` as one JSON line.

    The edges are formatted by one %-string from a flat list of ints, the
    bytes ``json.dumps`` gives for the list of lists, which is never built.
    """
    head = json.dumps(_graph_header(graph))[:-1]  # without its closing brace
    body = ", ".join(["[%d, %d, %d]"] * graph.m) % tuple(
        graph.edge_array.reshape(-1).tolist()
    )
    return f'{head}, "edges": [{body}]}}\n'


def save_graph(graph: MultiGraph, path) -> None:
    text = graph_to_text(graph)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_json(text: str):
    """``json.loads`` with the garbage collector paused.

    The parse only builds fresh lists and dicts, which hold no cycles, so
    collector passes over them are pure cost.  Input nested deeper than
    the parser's recursion limit is a ``ValueError``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    finally:
        if enabled:
            gc.enable()


def _json_int(value, name: str) -> int:
    return _check_int(value, name, int)


def graph_from_json(payload: dict) -> MultiGraph:
    """Validate a graph payload and build its ``MultiGraph``.

    Only ints are accepted: a bool, float or string anywhere is refused,
    and so is an edge entry beyond int64.  Once every row is known to be a
    triple, the edges stream into one (m, 3) int64 array, which every
    check reads and the graph keeps.
    """
    try:
        model = _check_model(payload["model"])
        h = _json_int(payload["h"], "h")
        n = _json_int(payload["n"], "n")
        seed = payload["seed"]
        edges = payload["edges"]
        kinds = set(map(type, chain.from_iterable(edges))) - {int}
        if kinds:
            names = ", ".join(sorted(k.__name__ for k in kinds))
            raise ValueError(f"edge entries must be integers, found {names}")
        if not set(map(len, edges)) <= {3}:
            raise ValueError("edges must be [u, v, t] triples")
        flat = np.fromiter(chain.from_iterable(edges), np.int64, 3 * len(edges))
        cols = flat.reshape(len(edges), 3)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed graph payload: {exc}") from None
    if h < 1:
        raise ValueError(f"need h >= 1, got h={h}")
    seed = _check_seed(seed)
    if len(cols) != h * n:
        raise ValueError(f"expected {h * n} edges, found {len(cols)}")
    lo, hi, t = cols.T
    if not np.array_equal(np.sort(t), np.arange(1, h * n + 1)):
        raise ValueError("edge arrival indices must be exactly 1..h*n")
    cols[:, :2].sort(axis=1)
    # Edge e_t joins arrival t's vertex ceil(t/h) to a vertex no larger, so
    # each vertex is the larger endpoint of exactly h edges.  This forces
    # e_1 = (1, 1, 1) and e(S) <= h|S|, which the profile bound relies on.
    bad = np.flatnonzero(hi != vertex_of(t, h))
    if bad.size:
        u, v, t0 = cols[bad[0]].tolist()
        raise ValueError(
            f"edge ({u},{v},{t0}) cannot arise from attachment: its larger "
            f"endpoint must be ceil(t/h) = {vertex_of(t0, h)}"
        )
    cols.flags.writeable = False
    graph = _generated_graph(model, h, n, cols, seed)
    # A tilde arrival never targets itself, so a loop at the first
    # mini-vertex of its block (t = (v-1)*h + 1) has no earlier mini there.
    bad = np.flatnonzero((lo == hi) & ((t - 1) % h == 0) & (t > 1))
    if model is Model.TILDE and bad.size:
        u, v, t0 = cols[bad[0]].tolist()
        raise ValueError(
            f"edge ({u},{v},{t0}) cannot arise from tilde attachment: a loop "
            f"at arrival {t0} needs an earlier mini-vertex of vertex {v}"
        )
    return graph


def load_graph(path) -> MultiGraph:
    """Read a graph file written by ``save_graph``, with every check of
    ``graph_from_json``.

    The file text is freed once parsed.  Peak memory is json's parse (a
    list and three ints per edge) plus the graph's 24 bytes per edge and
    check temporaries: about 215 bytes per edge, 22 MB and 100 ms per
    10^5 edges (2-core Xeon).
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = _parse_json(fh.read())
    return graph_from_json(payload)
