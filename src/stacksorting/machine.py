"""Right-greedy stack machines driven by forbidden stack patterns.

A machine pushes the next input entry whenever the resulting stack, read from
top to bottom, avoids every forbidden pattern; otherwise it pops the top entry
to the output.  Once the input is exhausted the stack is drained.  Because the
current stack always avoids the forbidden patterns, a push can only be illegal
through an occurrence whose first entry is the incoming one.

Every machine runs one body generated from its patterns by
``permutations._compiled_feed``, labelled ``consecutive`` when all the patterns
are consecutive and ``generic`` otherwise.  The tests check it against the
independent routes: ``trace`` (the backtracking reference decider),
``stack_sort`` and the closed-form images of the monotone length-3 machines.
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
    occurs_with_first_entry,
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
# push deciders and machine bodies
# ---------------------------------------------------------------------------

def _push_blocked_reference(spec: MachineSpec, stack: Sequence[int], c: int) -> bool:
    """Would pushing c create a forbidden occurrence?  (reference decider)

    The stack is given bottom-to-top; the hypothetical stack reading is c
    followed by the current entries from top to bottom.  Any new occurrence
    must start at c, so only occurrences with first entry c are searched.
    """
    host = (c, *reversed(stack))
    return any(occurs_with_first_entry(host, p) for p in spec.forbidden)


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
    """Position of a permutation of [n] in the lexicographic order of S_n."""
    return _ranker(len(perm))(as_permutation(perm))


def image_map(spec: MachineSpec, n: int) -> array:
    """The machine on ranks: entry r is the rank of the image of the rank-r
    permutation of [n].

    >>> list(image_map(consecutive_machine((2, 1)), 3))
    [0, 0, 0, 2, 0, 0]
    """
    return array("i", map(_ranker(n), scan(spec, n)))


def scan_reduce(spec: MachineSpec, n: int, reduce: Callable, jobs: int = 1) -> Iterator:
    """``reduce`` applied to the scan of S_n, one result per partition.

    Serially the whole scan is one partition; with ``jobs > 1`` each first
    entry is one, run in a process pool of at most one worker per partition.
    ``reduce`` takes the partition's images, in ``scan`` order, and must
    pickle, like a module-level function or ``Counter``.  Results are yielded
    in partition order, each once it and those before it are done, so that the
    caller can fold each one in before the next.
    """
    if jobs > 1 and n >= 2:
        tasks = [(reduce, spec, n, (first,)) for first in range(1, n + 1)]
        with ProcessPoolExecutor(max_workers=min(jobs, n)) as pool:
            yield from pool.map(_reduce_partition, tasks)
    else:
        yield _reduce_partition((reduce, spec, n, ()))


def _reduce_partition(task) -> object:
    reduce, spec, n, prefix = task
    return reduce(scan(spec, n, prefix))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    kind: str  # "push" | "pop"
    value: int
    stack_after: Perm | None  # read top to bottom; None when not recorded


def trace(spec: MachineSpec, perm: Sequence[int], record_stacks: bool = True) -> list[TraceStep]:
    """The full push/pop sequence of one machine run.

    Uses the reference decider; agreement with the compiled runners is part of
    the test suite.
    """
    steps: list[TraceStep] = []
    stack: list[int] = []

    def snap() -> Perm | None:
        return tuple(reversed(stack)) if record_stacks else None

    for c in perm:
        while stack and _push_blocked_reference(spec, stack, c):
            v = stack.pop()
            steps.append(TraceStep("pop", v, snap()))
        stack.append(c)
        steps.append(TraceStep("push", c, snap()))
    while stack:
        v = stack.pop()
        steps.append(TraceStep("pop", v, snap()))
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
