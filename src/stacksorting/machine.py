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
"""

from __future__ import annotations

import itertools
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence

from .permutations import (
    PatternSpec,
    Perm,
    _compiled_feed,
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


def scan(spec: MachineSpec, n: int, prefix: Sequence[int] = ()) -> Iterator[Perm]:
    """The image of every permutation of [n] starting with ``prefix``, in the
    lexicographic order of the permutations: the i-th image is that of the
    i-th permutation of ``all_permutations`` with that prefix.

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
    stack: list[int] = []
    out: list[int] = []
    feed(stack, out, prefix)
    for head in itertools.permutations(rest, max(len(rest) - _SUFFIX, 0)):
        head_stack = stack.copy()
        head_out = out.copy()
        feed(head_stack, head_out, head)
        for tail in itertools.permutations([v for v in rest if v not in head]):
            s = head_stack.copy()
            o = head_out.copy()
            feed(s, o, tail)
            s.reverse()
            o += s
            yield tuple(o)


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


def scan_reduce(spec: MachineSpec, n: int, reduce: Callable, jobs: int = 1) -> Iterator:
    """``reduce`` of each first-entry partition of S_n, ``scan(spec, n, (first,))``
    for first = 1..n in that order (one part, all of S_n, when n <= 1).

    ``jobs`` changes where the partitions run, not the results: with ``jobs > 1``
    and n >= 2, in a process pool of at most one worker per partition, where
    ``reduce`` must pickle (a module-level function or ``Counter``); it goes to each
    worker once, as the worker starts, and each task names only its first entry.
    Each result is yielded once it and those before it are done, so that the caller
    can fold it in before the next.  ``jobs < 1`` raises ``ValueError`` at the call.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    return _partition_results(spec, n, reduce, jobs)


def _partition_results(spec: MachineSpec, n: int, reduce: Callable, jobs: int) -> Iterator:
    prefixes = [(first,) for first in range(1, n + 1)] or [()]
    if jobs > 1 and n >= 2:
        with ProcessPoolExecutor(
            max_workers=min(jobs, n), initializer=_set_worker_reduce, initargs=(reduce,)
        ) as pool:
            yield from pool.map(_reduce_partition, [(spec, n, p) for p in prefixes])
    else:
        yield from (reduce(scan(spec, n, p)) for p in prefixes)


_worker_reduce: Callable | None = None  # a pool worker's reducer, set as it starts


def _set_worker_reduce(reduce: Callable) -> None:
    global _worker_reduce
    _worker_reduce = reduce


def _reduce_partition(task) -> object:
    spec, n, prefix = task
    return _worker_reduce(scan(spec, n, prefix))


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
