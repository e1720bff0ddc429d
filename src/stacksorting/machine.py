"""Right-greedy stack machines driven by forbidden stack patterns.

A machine pushes the next input entry whenever the resulting stack, read from
top to bottom, avoids every forbidden pattern; otherwise it pops the top entry
to the output.  Once the input is exhausted the stack is drained.  Because the
current stack always avoids the forbidden patterns, a push can only be illegal
through an occurrence whose first entry is the incoming one.

Every machine runs one body generated from its patterns by
``permutations._compiled_feed``, labelled ``consecutive`` when all the patterns
are consecutive and ``generic`` otherwise; ``trace`` runs it too, one input
entry per call.  The tests check it against the independent routes: a
backtracking reference decider (in the tests), ``stack_sort`` and the
closed-form images of the monotone length-3 machines.

``scan`` walks the heads of S_n (``permutations._walk``), feeding each shared
prefix once, and resumes each head's state for every order of the entries
left.  Under a consecutive machine, once the heads are longer than the window
of the stack a push reads, the images of the last four entries come from
stored ``itemgetter`` programs instead (``_TailPrograms``): only the top few
entries can ever move, and each image picks its values from them and the tail
in a way that depends only on their order type.  Nothing stored depends on n
or the prefix, so each machine keeps one store for the whole process, and
every scan of it adds to the same one.
"""

from __future__ import annotations

import itertools
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .permutations import (
    PatternSpec,
    Perm,
    _compiled_feed,
    _walk,
    as_permutation,
    ascending_runs,
    classical,
    consecutive,
    descending_runs,
)


@dataclass(frozen=True)
class MachineSpec:
    """The forbidden patterns of one right-greedy stack machine."""

    forbidden: tuple[PatternSpec, ...]

    def __post_init__(self):
        pats = tuple(self.forbidden)
        if not pats:
            raise ValueError("a machine needs at least one forbidden pattern")
        if not all(isinstance(p, PatternSpec) for p in pats):
            raise ValueError("forbidden entries must be PatternSpec values")
        object.__setattr__(self, "forbidden", pats)

    def __str__(self) -> str:
        return "machine{" + ", ".join(str(p) for p in self.forbidden) + "}"


def consecutive_machine(*bodies: Iterable[int]) -> MachineSpec:
    """Stack must avoid each body as a consecutive pattern."""
    return MachineSpec(tuple(consecutive(b) for b in bodies))


def classical_machine(*bodies: Iterable[int]) -> MachineSpec:
    """Stack must avoid each body as a classical pattern."""
    return MachineSpec(tuple(classical(b) for b in bodies))


def machine_of(patterns: Iterable[PatternSpec]) -> MachineSpec:
    return MachineSpec(tuple(patterns))


# ---------------------------------------------------------------------------
# machine bodies
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _compiled_runner(spec: MachineSpec) -> Callable[[Sequence[int]], Perm]:
    """The machine image of one permutation, by the compiled feed body.

    Named ``run_<variant>`` after the feed it wraps.
    """
    feed = _compiled_feed(spec.forbidden)

    def runner(perm):
        stack: list[int] = []
        out: list[int] = []
        feed(stack, out, perm)
        stack.reverse()
        out += stack
        return tuple(out)

    runner.__name__ = runner.__qualname__ = feed.__name__.replace("feed_", "run_", 1)
    return runner


def run(spec: MachineSpec, perm: Sequence[int]) -> Perm:
    """Send a permutation through the machine and return the output.

    >>> run(consecutive_machine((2, 3, 1)), (2, 6, 5, 4, 1, 3))
    (6, 5, 3, 1, 4, 2)
    """
    return _compiled_runner(spec)(tuple(perm))


# ---------------------------------------------------------------------------
# the scan over S_n
# ---------------------------------------------------------------------------

# Every permutation shares its machine state up to its last _SUFFIX entries
# with _SUFFIX! - 1 others, so that state is computed once and copied; 4 was
# the fastest split at n = 9 among 2..5.
_SUFFIX = 4


def scan(
    spec: MachineSpec, n: int, prefix: Sequence[int] = (), skip: Callable | None = None
) -> Iterator[Perm]:
    """The image of every permutation of [n] starting with ``prefix``, in the
    lexicographic order of the permutations: the i-th image is that of the
    i-th permutation of ``all_permutations`` with that prefix.

    ``_walk`` feeds the heads, sharing their common prefixes, and each
    head's state is resumed for every order of the entries left.  A head is
    all but the last _SUFFIX - 1 entries, or the prefix when longer, and
    each order is fed on a copy.  When every pattern is consecutive and all
    but the last _SUFFIX entries hold more past the prefix than a push reads
    below it, those are the heads instead, and the images come from the
    stored programs of the machine's ``_TailPrograms``, one ``itemgetter``
    call each, in the one store that every scan of the machine shares.

    With ``skip``, the walk tests every state past the prefix on its forced
    word: its output followed by its stack read top-down, which every image
    under it holds as a subsequence, since the output is fixed and the stack
    empties from the top.  A state that passes is dropped with all its
    images.  ``skip`` must be upward-closed (a word holding one that passes
    passes too): each state's word holds its parent's, so a cut above the
    head drops only heads that would pass themselves.  The positions above
    no longer hold, and only order-free folds may pass ``skip``.

    >>> list(scan(consecutive_machine((2, 1)), 3, (2,)))  # of 213 and 231
    [(1, 2, 3), (2, 1, 3)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prefix = tuple(prefix)
    if len(set(prefix)) != len(prefix) or not all(1 <= v <= n for v in prefix):
        raise ValueError(f"prefix must hold distinct values of 1..{n}: {prefix!r}")
    feed = _compiled_feed(spec.forbidden)
    rest = [v for v in range(1, n + 1) if v not in prefix]
    depth = max(len(rest) - _SUFFIX, 0)
    programs = None
    if all(p.is_consecutive for p in spec.forbidden):
        store = _tail_programs(spec)
        # a head no longer than the window a push reads shows its whole stack
        # in each key, so few heads share one: feeding the tails was faster
        if depth > store.window:
            programs = store
    if programs is None and len(rest) >= _SUFFIX:
        depth += 1
    cut = None if skip is None else lambda s, o: skip(o + s[::-1])
    stack: list[int] = []
    out: list[int] = []
    feed(stack, out, prefix)
    for head_stack, head_out, tail in _walk(feed, stack, out, rest, depth, cut):
        if programs is not None:
            yield from programs.images(head_stack, head_out, tail)
            continue
        for t in itertools.permutations(tail):
            s = head_stack.copy()
            o = head_out.copy()
            feed(s, o, t)
            s.reverse()
            o += s
            yield tuple(o)


@lru_cache(maxsize=None)
def _tail_programs(spec: MachineSpec) -> _TailPrograms:
    """The one ``_TailPrograms`` of a machine whose patterns are all
    consecutive, shared by every scan of it in this process."""
    window = max(len(p.body) for p in spec.forbidden) - 1
    return _TailPrograms(_compiled_feed(spec.forbidden), window)


class _TailPrograms:
    """The images under a fed head of every order of its tail, for a machine
    whose patterns are all consecutive and read at most ``window`` stack
    entries below an incoming entry (the longest body less one).

    A push pops the top entry v only through an occurrence that reads the
    incoming entry, v and the window - 1 entries below v, and the entries below
    the top move only by popping.  So an entry can be popped only when each
    entry above it can be, and some tail value pushed right onto it pops it,
    reading only its own window; ``_reach`` counts those top entries.  No
    entry below the top reach + window - 1 moves or decides a pop, and they
    end every image, reversed.  The rest of an image, its output after the
    head's and then the top of its stack, is a selection from the tail values
    and those top entries, its program, which depends only on their order
    type.

    A head is looked up by the order type of its tail and its top entries,
    window of them first, which settle whether the top entry can be popped,
    and one more each time the entries shown leave the reach open.  A key met
    first takes its head's reach and the programs of the order type that it
    settles, which are built on their first use by feeding the tail in each
    order.  The programs are ``itemgetter``s, shared between order types,
    since most heads of a scan share a few of them.  No key, reach or program
    depends on n, the prefix or the head's output, so all three dicts live as
    long as the process: ``_tail_programs`` keeps one store per machine, and
    each ``--jobs`` worker its own, carried from one partition to the next.
    """

    def __init__(self, feed: Callable, window: int):
        self.feed = feed
        self.window = window
        # order type shown -> (top entries read, programs), or None to show one more
        self.keys: dict[tuple, tuple[int, tuple] | None] = {}
        self.programs: dict[tuple, tuple] = {}
        self.getters: dict[tuple[int, ...], Callable] = {}

    def images(self, stack: list[int], out: list[int], tail: list[int]) -> list[Perm]:
        """The image of each order of ``tail`` fed after the head state
        (``stack``, ``out``), in lexicographic order; ``tail`` is sorted."""
        top_down = stack[::-1]
        depth = len(stack)
        shown = min(self.window, depth)
        while True:
            values = (*tail, *top_down[:shown])
            key = _order_type(values, shown == depth)
            try:
                found = self.keys[key]
            except KeyError:
                found = self.keys[key] = self._settle(stack, tail, shown)
            if found is not None:
                break
            shown += 1
        top, program = found
        out = tuple(out)
        if top < depth:
            bottom = tuple(top_down[top:])
            return [out + get(values) + bottom for get in program]
        return [out + get(values) for get in program]

    def _settle(self, stack: list[int], tail: list[int], shown: int) -> tuple[int, tuple] | None:
        """How many top entries of ``stack`` the images of its tail depend on,
        and their programs; None when ``shown`` entries do not settle that."""
        depth = len(stack)
        top = min(_reach(self.feed, stack, tail, self.window) + self.window - 1, depth)
        if shown < depth and top >= shown:
            return None
        values = (*tail, *stack[::-1][:top])
        key = _order_type(values, top == depth)
        if key not in self.programs:
            index = {v: i for i, v in enumerate(values)}
            program = []
            for t in itertools.permutations(tail):
                s = stack.copy()
                o: list[int] = []
                self.feed(s, o, t)
                picks = tuple(map(index.__getitem__, o + s[depth - top:][::-1]))
                if picks not in self.getters:
                    self.getters[picks] = itemgetter(*picks)
                program.append(self.getters[picks])
            self.programs[key] = tuple(program)
        return top, self.programs[key]


def _order_type(values: tuple[int, ...], whole: bool) -> tuple:
    """The rank of each value among ``values``, after whether they hold the
    whole stack."""
    order = sorted(values)
    return (whole, *map(order.index, values))


def _reach(feed: Callable, stack: list[int], tail: Iterable[int], window: int) -> int:
    """How many entries from the top of ``stack`` a push of some ``tail`` value
    right onto each pops, reading it and the entries below it up to ``window``,
    counted until the first it does not pop."""
    depth = len(stack)
    reach = 0
    while reach < depth and any(
        _pops(feed, stack[max(depth - reach - window, 0):depth - reach], c) for c in tail
    ):
        reach += 1
    return reach


def _pops(feed: Callable, stack: list[int], c: int) -> bool:
    """Whether pushing c onto ``stack`` pops its top."""
    s = stack.copy()
    feed(s, [], (c,))
    return len(s) <= len(stack)


def _ranker(n: int) -> Callable[[Perm], int]:
    """Lexicographic ranking of the permutations p of [n] as ``head[p[:n-k]] +
    tail[p[n-k:]]`` with k = min(n, _SUFFIX): ``head`` ranks the (n-k)-prefixes
    in steps of k!, ``tail`` each ordered k-tuple among the orders of its values."""
    if n < 0:
        raise ValueError("n must be >= 0")
    k = min(n, _SUFFIX)
    split, block = n - k, factorial(k)
    head = {p: r * block for r, p in enumerate(itertools.permutations(range(1, n + 1), split))}
    subsets = itertools.combinations(range(1, n + 1), k)
    tail = {t: r for s in subsets for r, t in enumerate(itertools.permutations(s))}
    return lambda p: head[p[:split]] + tail[p[split:]]


def rank(perm: Sequence[int]) -> int:
    """Position of a permutation of [n] in the lexicographic order of S_n: its
    Lehmer code (each entry's count of smaller later entries) in factorial base."""
    perm = as_permutation(perm)
    r = 0
    for i, v in enumerate(perm):
        r = r * (len(perm) - i) + sum(w < v for w in perm[i + 1:])
    return r


def _unrank(n: int, r: int) -> Perm:
    """The permutation of rank r in the lexicographic order of S_n: the i-th
    factorial-base digit of r (its Lehmer code) picks entry i among the unused values."""
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank must lie in 0..{factorial(n) - 1}, not {r}")
    unused = list(range(1, n + 1))
    out = []
    for i in range(n - 1, -1, -1):
        digit, r = divmod(r, factorial(i))
        out.append(unused.pop(digit))
    return tuple(out)


def image_map(spec: MachineSpec, n: int) -> array:
    """The machine on ranks: entry r is the rank of the image of the rank-r
    permutation of [n].

    >>> list(image_map(consecutive_machine((2, 1)), 3))
    [0, 0, 0, 2, 0, 0]
    """
    return array("i", map(_ranker(n), scan(spec, n)))


def scan_reduce(
    spec: MachineSpec, n: int, reduce: Callable, jobs: int = 1, skip: Callable | None = None
) -> Iterator:
    """``reduce`` of each first-entry partition of S_n, ``scan(spec, n, (first,), skip)``
    for first = 1..n in that order (one part, all of S_n, when n <= 1).

    ``jobs`` changes where the partitions run, not the results: with ``jobs > 1``
    and n >= 2, in a process pool of at most one worker per partition, where
    ``reduce`` and ``skip`` must pickle (a module-level function or ``Counter``);
    they go to each worker once, as the worker starts, and each task names only
    its first entry.  Each result is yielded once it and those before it are
    done, so that the caller can fold it in before the next.  ``jobs < 1``
    raises ``ValueError`` at the call.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    return _partition_results(spec, n, reduce, jobs, skip)


def _partition_results(
    spec: MachineSpec, n: int, reduce: Callable, jobs: int, skip: Callable | None
) -> Iterator:
    prefixes = [(first,) for first in range(1, n + 1)] or [()]
    if jobs > 1 and n >= 2:
        initargs = (reduce,) if skip is None else (reduce, skip)
        with ProcessPoolExecutor(
            max_workers=min(jobs, n), initializer=_set_worker_reduce, initargs=initargs
        ) as pool:
            yield from pool.map(_reduce_partition, [(spec, n, p) for p in prefixes])
    else:
        yield from (reduce(scan(spec, n, p, skip)) for p in prefixes)


# a pool worker's reducer and head test, set as it starts
_worker_reduce: Callable | None = None
_worker_skip: Callable | None = None


def _set_worker_reduce(reduce: Callable, skip: Callable | None = None) -> None:
    global _worker_reduce, _worker_skip
    _worker_reduce, _worker_skip = reduce, skip


def _reduce_partition(task) -> object:
    spec, n, prefix = task
    return _worker_reduce(scan(spec, n, prefix, _worker_skip))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    kind: str  # "push" | "pop"
    value: int
    stack_after: Perm | None  # read top to bottom; None when not recorded


def trace(spec: MachineSpec, perm: Sequence[int], record_stacks: bool = True) -> list[TraceStep]:
    """The full push/pop sequence of one machine run, fed one entry at a time.

    The pops before each push are the new tail of the feed's output, top
    first; the drain pops the rest of the stack.

    >>> [(s.kind, s.value) for s in trace(consecutive_machine((2, 3, 1)), (1, 3, 2))]
    [('push', 1), ('push', 3), ('pop', 3), ('push', 2), ('pop', 2), ('pop', 1)]
    """
    feed = _compiled_feed(spec.forbidden)
    steps: list[TraceStep] = []
    stack: list[int] = []
    out: list[int] = []

    def pops(popped: list[int], below: list[int]) -> None:
        # popped top first; after each pop the stack reads the later pops, then below
        for i, v in enumerate(popped):
            steps.append(TraceStep("pop", v, tuple(popped[i + 1:] + below) if record_stacks else None))

    for c in perm:
        done = len(out)
        feed(stack, out, (c,))
        pops(out[done:], stack[-2::-1])
        steps.append(TraceStep("push", c, tuple(stack[::-1]) if record_stacks else None))
    pops(stack[::-1], [])
    return steps


def output_of_trace(steps: Iterable[TraceStep]) -> Perm:
    return tuple(s.value for s in steps if s.kind == "pop")


def premature_entries(spec: MachineSpec, perm: Sequence[int]) -> list[int]:
    """Entries popped before the final input entry has been pushed, in pop
    order: the feed does not drain, so its output holds exactly those."""
    out: list[int] = []
    _compiled_feed(spec.forbidden)([], out, perm)
    return out


# ---------------------------------------------------------------------------
# simulation-free images for the two monotone length-3 machines
# ---------------------------------------------------------------------------

def _image_of_runs(runs: Sequence[Perm]) -> Perm:
    """Each run contributes its interior immediately and its two ends at drain
    time, so the output is the interiors in order followed by the reversed
    concatenation of the run ends."""
    out = [v for r in runs for v in r[1:-1]]
    tail = [v for r in runs for v in (r if len(r) <= 2 else (r[0], r[-1]))]
    return tuple(out + tail[::-1])


def consecutive_321_image(perm: Sequence[int]) -> Perm:
    """Image under the 321-forbidding consecutive machine, from ascending runs."""
    return _image_of_runs(ascending_runs(perm))


def consecutive_123_image(perm: Sequence[int]) -> Perm:
    """Image under the 123-forbidding consecutive machine, from descending runs."""
    return _image_of_runs(descending_runs(perm))


# ---------------------------------------------------------------------------
# the classic one-pass stack sort (the 21-forbidding machine)
# ---------------------------------------------------------------------------

def stack_sort(perm: Sequence[int]) -> Perm:
    """One pass through a stack whose reading must stay increasing."""
    stack: list[int] = []
    out: list[int] = []
    for c in perm:
        while stack and stack[-1] < c:
            out.append(stack.pop())
        stack.append(c)
    while stack:
        out.append(stack.pop())
    return tuple(out)
