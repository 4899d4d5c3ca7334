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
earlier row of its own run, so a block of one step (over
``SAMPLER_CHUNK`` / 2 trials, as in a sweep's 20000) resolves all its
copies by one gather from rows already resolved.  A block of several
steps (``generate``'s one run) follows pointers within the block until
none is left.  Memory is the output array plus a few temporaries of
max(trials, ``SAMPLER_CHUNK``) elements.  ``TARGET_CELL_CAP`` bounds
length * trials, so ``generate`` refuses h*n over 2.5*10^7: in a fresh
process (2-core Xeon) h*n = 4*10^6 takes 0.32-0.42 s and 196 MiB peak
RSS; the cap took 2.6 s and 1037 MiB before ``merge`` wrote its columns
directly.

A log keeps its targets as one read-only int64 array, ``target_array``,
and a graph its (u, v, t) edges, 1 <= u <= v <= n and t >= 1, as one
read-only (m, 3) int64 array, ``edge_array``; all code here works on
these.  A graph's ``model`` alone says whether its first loop weighs 1
(tilde) or 2.  ``targets`` and ``edges`` read as tuples of Python ints,
rebuilt on every read.  ``save_graph`` and ``pamod gen`` write the same
text, ``graph_to_text``, which renders the positive entries from numpy
digit tables, with no Python object per entry.
``load_graph`` reads a file byte-identical to that text as bytes, its
edges by numpy with no Python object per edge; any other file goes
through json, with the same checks and messages.  Per 10^5 edges (h=4,
n=25000, 2-core Xeon) a save takes about 13 ms and peaks at 4.3 MiB, a
load of a saved file about 25 ms and 10.1 MiB.

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
from functools import cache, cached_property
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

# Most cells length * trials of ``_sample_runs`` (h*n for ``generate``): 8 bytes
# each of int64 output, 10 with ``estimate_cut_event``'s two bool temporaries.
TARGET_CELL_CAP = 25 * 10**6


class Model(str, Enum):
    """Tags for the two attachment processes (wire names are fixed)."""

    STANDARD = "standard"
    TILDE = "tilde"


# the most characters of one value an error message shows
SHOWN_CHARS = 60


def _shown(value, form=repr) -> str:
    """``value`` as an error message shows it: ``form(value)``, but a list
    or dict by its type name, since their repr grows with their nesting
    (as does a value nested too deep to show), a number past Python's
    int-to-text digit limit as ``about 10^N``, and a text over
    ``SHOWN_CHARS`` cut there and marked ``...``.  Refusals show a number
    by ``str``, so a numpy int shows bare."""
    if isinstance(value, (list, dict)):
        return type(value).__name__
    try:
        text = form(value)
    except RecursionError:  # e.g. a tuple nested past the interpreter's depth
        return type(value).__name__
    except ValueError:  # past the digit limit
        num, den = value.as_integer_ratio()
        exp = math.log10(abs(num)) - math.log10(den)
        return f"about {'-' if num < 0 else ''}10^{round(exp)}"
    return text if len(text) <= SHOWN_CHARS else f"{text[:SHOWN_CHARS]}..."


def _check_int(value, name: str, kinds=(int, np.integer)):
    """``value``, refused unless it is one of ``kinds``; a bool never is."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    return value


def _check_seed(seed: int) -> int:
    _check_int(seed, "seed")
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {_shown(seed, str)}")
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
    if _json_int(value, name) < 1:
        raise ValueError(f"need {name} >= 1, got {_shown(value, str)}")


def _check_hn(h: int, n: int) -> None:
    _json_int(h, "h")
    _json_int(n, "n")
    if h < 1 or n < 1:
        raise ValueError(f"need h >= 1 and n >= 1, got h={_shown(h, str)}, n={_shown(n, str)}")


def _check_vertices(vertices, n: int, name: str = "vertex") -> frozenset[int]:
    """``vertices`` as a frozenset, refused if one is not an integer or
    lies outside 1..n; ``name`` says what they are (arrivals, say)."""
    for v in (vs := frozenset(vertices)):
        if not 1 <= _check_int(v, name) <= n:
            raise ValueError(f"{name} {_shown(v, str)} out of range 1..{_shown(n, str)}")
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
            raise ValueError(f"log length {len(s)} != h*n = {_shown(self.h * self.n, str)}")
        if s[0] != 1:
            raise ValueError("edge e_1 is always the initial loop at mini-vertex 1")
        t = np.arange(1, len(s) + 1)
        hi = t if self.model is Model.STANDARD else np.maximum(t - 1, 1)
        if s.min() < 1 or (s > hi).any():
            t = int(np.flatnonzero((s < 1) | (s > hi))[0]) + 1
            raise ValueError(f"target {s[t - 1]} out of range at arrival {t}")


@dataclass(frozen=True, eq=False)
class MultiGraph(_ColumnRecord):
    """Undirected multigraph with loops, vertices 1..n.

    Each edge is a row (u, v, t) of ``edge_array``, u <= v and t >= 1 its
    arrival index.  Loops contribute 2 to the degree, except that in a
    ``Model.TILDE`` graph the loop with arrival index 1 contributes only 1
    (the tilde model's initial loop).  Generation metadata (model, h,
    seed) rides along when known, checked as ``generate`` checks it;
    handcrafted fixtures may leave it unset, or set only the model.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...] = _IntColumns("edge_array", 3)
    model: Model | None = None
    h: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_count(self.n, "n")
        if self.model is not None:
            object.__setattr__(self, "model", _check_model(self.model))
        if self.h is not None:
            _check_count(self.h, "h")
        if self.seed is not None:
            object.__setattr__(self, "seed", _check_seed(self.seed))
        u, v, t = self.edge_array.T
        # 1 <= u <= v <= n holds all four bounds on u and v, so with t >= 1
        # four reductions decide; only a bad graph pays for finding its
        # first bad edge
        if (
            u.min(initial=1) < 1 or v.max(initial=0) > self.n or (u > v).any()
            or t.min(initial=1) < 1
        ):
            outside = (u < 1) | (u > self.n) | (v < 1) | (v > self.n)
            i = np.flatnonzero(outside | (u > v) | (t < 1))[0]
            if outside[i]:
                raise ValueError(f"edge ({u[i]},{v[i]}) out of range for n={_shown(self.n, str)}")
            if u[i] > v[i]:
                raise ValueError(f"edge ({u[i]},{v[i]},{t[i]}) must be stored with u <= v")
            raise ValueError(f"edge ({u[i]},{v[i]},{t[i]}) has arrival index below 1")

    @classmethod
    def from_pairs(cls, n: int, pairs, *, model: Model | None = None) -> "MultiGraph":
        """Build a fixture graph from (u, v) pairs; arrivals are 1,2,..."""
        ends = np.sort(np.asarray(pairs).reshape(len(pairs), 2), axis=1)
        edges = np.c_[ends, np.arange(1, len(ends) + 1)]
        return cls(n=n, edges=edges, model=model)

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Degree per vertex, index 0 unused."""
        u, v, t = self.edge_array.T
        deg = np.bincount(np.concatenate([u, v]), minlength=self.n + 1)
        if self.model is Model.TILDE:  # its first loop weighs 1
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
    t): each column is computed contiguously and written once into the
    graph's (h*n, 3) int64 array, vertex v repeated h times in the second.
    """
    h, n = log.h, log.n
    cols = np.empty((h * n, 3), np.int64)
    cols[:, 0] = vertex_of(log.target_array, h)
    cols[:, 1] = np.repeat(np.arange(1, n + 1), h)
    cols[:, 2] = np.arange(1, h * n + 1)
    cols.flags.writeable = False
    return MultiGraph(n=n, edges=cols, model=log.model, h=h, seed=seed)


def _sample_runs(
    model: Model, length: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """``trials`` independent runs of the process as a (trials, length) array.

    The runs fill one step-major (length, trials) array, row tau-1 holding
    step tau of every run, in the order the stream is drawn; the result is
    its transpose, a Fortran-ordered view.  A block is max(1,
    ``SAMPLER_CHUNK`` // trials) whole steps, whose draws land in its rows
    with no transpose: one step draws int32 with scalar bounds, numpy's
    fill path, several int64 with array bounds; both give the stream of
    one scalar-bounded int64 call per step and run.  A one-step block
    builds source indices for its copies only and resolves them by one
    ``take``; a longer block marks its copies and follows them.
    Temporaries are a few arrays of the block's size.  Standard 36 x
    20000 takes about 8 ms and tilde 64 x 20000 about 16 ms (2-core Xeon).
    """
    if (cells := length * trials) > TARGET_CELL_CAP:
        raise ValueError(f"{_shown(cells, str)} cells, over the target cell cap {TARGET_CELL_CAP}")
    out = np.empty((length, trials), dtype=np.int64)
    # row 0 is e_1's target 1, which is also the resolved form of r = 1
    out[0] = 1
    flat = out.reshape(-1)
    steps = max(1, SAMPLER_CHUNK // trials)
    for tau0 in range(2, length + 1, steps):
        rows = out[tau0 - 1 : tau0 - 1 + steps]
        k = len(rows)
        taus = tau0 if k == 1 else np.arange(tau0, tau0 + k)[:, None]
        # tilde draw j is the standard draw r = j + 2, of j's parity; a
        # one-step block draws int32, the same stream as int64
        lo, hi, add = (1, 2 * taus, 1) if model is Model.STANDARD else (0, 2 * taus - 3, 3)
        r = rng.integers(lo, hi, size=rows.shape, dtype=np.int32 if k == 1 else np.int64)
        np.add(r, add, out=rows)
        rows >>= 1  # odd r: its target (r + 1)/2; even r: the arrival r/2 it copies
        # A copy at run i reads flat index (r/2 - 1)*trials + i, in an
        # earlier row of its run.
        jump = np.flatnonzero((r & 1) == 0)
        block = rows.reshape(-1)
        if k == 1:  # every index lands on a resolved row: one gather
            src = block[jump]
            src -= 1
            src *= trials
            src += jump
            block[jump] = flat.take(src)
            continue
        # In a longer block an index may land on a copy not yet resolved,
        # which holds ~index, a negative number, whose index is followed.
        src = rows * trials
        src += np.arange(trials) - trials
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
    bit-for-bit.  h*n over ``TARGET_CELL_CAP`` is refused before any
    allocation.

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
    step-major (length, trials) array the runs fill, which
    ``estimate_cut_event`` reads as ``.T``, C-contiguous.  Memory is the
    int64 output plus a few temporaries of max(trials, ``SAMPLER_CHUNK``)
    elements; more than ``TARGET_CELL_CAP`` cells are refused before any
    draw.
    """
    model = _check_model(model)
    seed = _check_seed(seed)
    _json_int(length, "length")  # either type error wins over a range error
    _json_int(trials, "trials")
    _check_count(length, "length")
    _check_count(trials, "trials")
    return _sample_runs(model, length, trials, np.random.default_rng(seed))


def derive_seed(root_seed: int, index: int) -> int:
    """Derived 64-bit seed for stream ``index`` under ``root_seed``.

    The scheme is SeedSequence entropy (root_seed, index); the derived
    seed is the first 64-bit word.  Trials in a sweep use consecutive
    indices, so reports can record a plain integer seed per row.
    """
    root_seed = _check_seed(root_seed)
    if _json_int(index, "stream index") < 0:
        raise ValueError(f"stream index must be >= 0, got {_shown(index, str)}")
    ss = np.random.SeedSequence([root_seed, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _chain_denominator(loops: bool, length: int) -> int:
    """The common denominator of a log of ``length`` steps: the product of
    D_tau = 2 tau - 1 (standard, ``loops``) or 2 tau - 3 (tilde) over
    arrivals 2..length."""
    return math.prod(2 * tau - 3 + 2 * loops for tau in range(2, length + 1))


def _enumerate_logs(model: Model, length: int):
    """Every arrival log of ``length`` steps with its probability numerator.

    Returns (targets, nums, denom): targets is an (L, length) int64 array
    in lexicographic order, nums[i] * ``denom``^-1 is the probability of
    log i, and nums sum to denom.  The logs grow one step at a time: each
    log is repeated once per candidate target s of arrival tau, 1..tau in
    the standard model (tau is the self-loop, weight 1) and 1..tau-1 in
    the tilde model, and its numerator is multiplied by deg(s).

    A level over ``_ENUMERATION_CAP`` logs is refused before any is built,
    so lengths up to 9 (standard) and 10 (tilde) run, inside the int64
    denominator check's 17 and 18.  Peak memory is about 15 * length
    bytes per log of the widest level (it, the level before and
    temporaries): tracemalloc 48 MB at standard 9, 51 MB at tilde 10.
    """
    model = _check_model(model)
    loops = model is Model.STANDARD
    # the denominator only grows with the length: its first prefix past 2^63 decides
    for tau in range(length + 1):
        if (denom := _chain_denominator(loops, tau)) >= 2**63:
            least = "" if tau == length else "at least "
            raise ValueError(
                f"{model.value} logs of length {_shown(length, str)} have denominator "
                f"{least}{denom} >= 2^63, beyond int64 numerators"
            )
    # level tau holds tau! (standard) or (tau-1)! (tilde) logs
    for tau in range(1, length + 1):
        if (size := math.factorial(tau - (not loops))) > _ENUMERATION_CAP:
            raise ValueError(
                f"{model.value} logs of length {length}: step {tau} would hold "
                f"{size} logs, over the enumeration cap {_ENUMERATION_CAP}"
            )
    targets = np.zeros((1, length), dtype=np.int64)
    # the level cap admits lengths up to 9 (standard) and 10 (tilde), inside
    # the int64 check's 17 and 18, so degrees fit in uint8
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

    The enumerator's cap admits t_max <= 9 standard and 10 tilde.  Logs
    of equal numerator share one ``Fraction`` (27 of them for the 9! logs
    at standard t_max = 9), so the map holds about 170 bytes per entry,
    mostly its key tuples: those 9! entries take 0.3-0.4 s and 160 MiB
    peak RSS in a fresh process (2-core Xeon).
    """
    model = _check_model(model)
    _check_count(t_max, "t_max")
    targets, nums, denom = _enumerate_logs(model, t_max)
    fracs = {num: Fraction(num, denom) for num in np.unique(nums).tolist()}
    return dict(zip(zip(*targets.T.tolist()), map(fracs.__getitem__, nums.tolist())))


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


@cache
def _digit_tables() -> np.ndarray:
    """The uint32 slot of every 4-digit chunk value c, in two tables of
    10^4: at c its digits with leading zeros, at 10^4 + c with them as
    ``\\0``.  Built as bytes and viewed as uint32, so no slot depends on
    the byte order."""
    c = np.arange(10**4, dtype=np.uint16)[:, None]
    places = (10 ** np.arange(3, -1, -1)).astype(np.uint16)
    digits = (c // places % 10 + 48).astype(np.uint8)
    lead = digits * (c >= places)  # a leading zero becomes \0
    tables = np.concatenate([digits, lead]).reshape(-1).view(np.uint32)
    tables.flags.writeable = False
    return tables


# Rows ``graph_to_text`` renders per block, which bounds its temporaries.
_RENDER_ROWS = 1 << 14


def _edge_text(edges: np.ndarray):
    """The bytes ``json.dumps`` gives for ``edges.tolist()``, an (m, w)
    int64 array of positive entries, in pieces, with no Python object per
    entry.

    Each row is a run of uint32 slots: per entry a prefix slot (``[`` or
    ``, ``, then ``\\0`` padding) and K slots of 4 digits each, then a
    ``], `` slot.  A chunk's slot comes from ``_digit_tables``: with
    leading zeros as ``\\0`` while the chunks above it are all zero, so a
    chunk above the entry's top is all ``\\0``.  K covers the largest
    entry of the whole array, so every block of ``_RENDER_ROWS`` rows has
    the same layout, and deleting ``\\0`` leaves the text.
    """
    tables = _digit_tables()
    m, width = edges.shape
    k = -(-len(str(int(edges.max(initial=1)))) // 4)  # its 4-digit chunks
    # slots from bytes, as the tables are
    prefix = np.frombuffer(b"[\0\0\0" + b", \0\0" * (width - 1), np.uint32)
    close, last = np.frombuffer(b"], \0]\0\0\0", np.uint32)
    place = np.uint64(10**4)
    yield b"["
    for lo in range(0, m, _RENDER_ROWS):
        block = edges[lo : lo + _RENDER_ROWS]
        slots = np.empty((len(block), width * (1 + k) + 1), np.uint32)
        cells = slots[:, :-1].reshape(len(block), width, 1 + k)
        cells[:, :, 0] = prefix
        slots[:, -1] = close
        q = block.astype(np.uint64)
        for j in range(k, 0, -1):  # the last chunk first
            r = q
            q = r // place
            r -= q * place
            r += (q == 0) * place  # leading zeros below a nonzero chunk, else none
            cells[:, :, j] = np.take(tables, r)
        if lo + _RENDER_ROWS >= m:
            slots[-1, -1] = last
        yield slots.tobytes().translate(None, b"\0")
    yield b"]"


def _graph_bytes(graph: MultiGraph) -> bytes:
    """``graph_to_text`` as ASCII bytes."""
    head = json.dumps(_graph_header(graph))[:-1]  # without its closing brace
    return b"".join([head.encode(), b', "edges": ', *_edge_text(graph.edge_array), b"}\n"])


def graph_to_text(graph: MultiGraph) -> str:
    """The graph file: ``graph_to_json`` as one JSON line.

    The edges are rendered by ``_edge_text`` from numpy digit tables: the
    bytes ``json.dumps`` gives for the list of lists, which is never
    built.  Per 10^5 edges (h=4, n=25000, 2-core Xeon) it takes about
    12 ms and peaks at about 45 bytes per edge.
    """
    return _graph_bytes(graph).decode("ascii")


def save_graph(graph: MultiGraph, path) -> None:
    """Write ``graph_to_text``'s bytes to ``path``."""
    data = _graph_bytes(graph)
    with open(path, "wb") as fh:
        fh.write(data)


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
    return _checked_graph(payload, _edge_columns)


def _edge_columns(edges) -> np.ndarray:
    """A payload's edge list as an (m, 3) int64 array, refused unless
    every row is a triple of ints."""
    kinds = set(map(type, chain.from_iterable(edges))) - {int}
    if kinds:
        names = ", ".join(sorted(k.__name__ for k in kinds))
        raise ValueError(f"edge entries must be integers, found {names}")
    if not set(map(len, edges)) <= {3}:
        raise ValueError("edges must be [u, v, t] triples")
    flat = np.fromiter(chain.from_iterable(edges), np.int64, 3 * len(edges))
    return flat.reshape(len(edges), 3)


def _checked_graph(payload: dict, columns) -> MultiGraph:
    """The graph of ``payload`` after every check of a graph file; its
    edges become a writable (m, 3) int64 array by ``columns``."""
    try:
        model = _check_model(payload["model"])
        h = _json_int(payload["h"], "h")
        n = _json_int(payload["n"], "n")
        seed = payload["seed"]
        cols = columns(payload["edges"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed graph payload: {exc}") from None
    _check_hn(h, n)
    seed = _check_seed(seed)
    if len(cols) != h * n:
        raise ValueError(f"expected {_shown(h * n, str)} edges, found {len(cols)}")
    lo, hi, t = cols.T
    seen = np.zeros(h * n + 1, bool)
    if 1 <= t.min() and t.max() <= h * n:
        seen[t] = True  # h*n indices within 1..h*n: all seen iff a permutation
    if not seen[1:].all():
        raise ValueError("edge arrival indices must be exactly 1..h*n")
    del seen  # freed before the checks below
    swap = np.flatnonzero(lo > hi)  # empty for a file save_graph wrote
    lo[swap], hi[swap] = hi[swap], lo[swap]
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
    graph = MultiGraph(n=n, edges=cols, model=model, h=h, seed=seed)
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


def _saved_edges(body: memoryview) -> np.ndarray | None:
    """The (m, 3) int64 array of ``body`` if it is an edge list as
    ``graph_to_text`` writes it, else None.

    Each digit run is one entry.  With every run cut to one ``0`` the body
    must read ``[[0, 0, 0], ...]``, so it holds no other byte, and no run
    may be a number json reads otherwise (a leading zero: a run's first
    digit ``0`` with a digit after it) or one past int64.  Deleting ``[``,
    ``]`` and ``,`` then leaves the entries as space-separated numbers.
    numpy's parse saturates past int64 at INT64_MAX, so an entry of 19
    digits and up reads as at least 10^18 and is left to json.
    """
    b = np.frombuffer(body, np.uint8)
    digit = (b - 48) < 10  # any other byte wraps past 9
    first = digit.copy()
    np.greater(digit[1:], digit[:-1], out=first[1:])  # each run's first digit
    keep = ~digit
    keep |= first
    runs = b[keep].tobytes().translate(bytes.maketrans(b"123456789", b"0" * 9))
    del keep
    m = np.count_nonzero(first) // 3
    if runs != b"[" + (b"[0, 0, 0], " * m)[:-2] + b"]":
        return None
    lead = b[:-1] == 48  # a leading zero
    lead &= first[:-1]
    lead &= digit[1:]
    if lead.any():
        return None
    del b, digit, first, lead  # freed before the parse's copies
    text = body.tobytes().translate(None, b"[],")
    cols = np.fromstring(text, np.int64, count=3 * m, sep=" ").reshape(m, 3)
    return None if cols.max(initial=0) >= 10**18 else cols


def _saved_payload(data: bytes) -> dict | None:
    """The payload of ``data``, its edges already an (m, 3) int64 array, if
    ``data`` is byte-identical to ``graph_to_text``'s output; else None.

    The header is the text before the first ``, "edges": `` closed by
    ``}``.  It must be the canonical ``json.dumps`` of its four fields, in
    which a quote inside a string is escaped, so that split is the edges
    key of the whole text and json would read the same payload.
    """
    key = b', "edges": '
    cut = data.find(key)
    if cut < 0 or not data.endswith(b"}\n"):
        return None
    cols = _saved_edges(memoryview(data)[cut + len(key) : -2])
    if cols is None:
        return None
    head = data[:cut] + b"}"
    try:
        header = _parse_json(head)
    except ValueError:
        return None
    if tuple(header) != ("model", "h", "n", "seed") or json.dumps(header).encode() != head:
        return None
    return {**header, "edges": cols}


def load_graph(path) -> MultiGraph:
    """Read a graph file, with every check of ``graph_from_json``.

    A file byte-identical to what ``save_graph`` writes is read as bytes:
    its header by json, its edges by numpy straight into the graph's
    (m, 3) int64 array, with no Python object per edge.  Any other file
    (indented, CRLF, hand-edited, invalid) is decoded from the same bytes
    as text mode would and parsed by json with the garbage collector
    paused, as ``graph_from_json`` takes it; the file is read once.  Both
    routes run the same checks, so a file gives the same graph or the
    same error on either.  Per 10^5 edges (h=4, n=25000, 2-core Xeon) a
    saved file's load takes about 25 ms and peaks at about 106 bytes per
    edge (10.1 MiB), against 80-100 ms, 215 bytes and 20.5 MiB through
    json.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    payload, columns = _saved_payload(data), lambda cols: cols
    if payload is None:
        # decoded as text mode reads it: UTF-8, each \r\n or lone \r a \n
        data = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        payload, columns = _parse_json(data), _edge_columns
    del data  # freed before the checks
    return _checked_graph(payload, columns)
