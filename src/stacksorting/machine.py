"""Right-greedy stack machines driven by forbidden stack patterns.

A machine pushes the next input entry whenever the resulting stack, read from
top to bottom, avoids every forbidden pattern; otherwise it pops the top entry
to the output.  Once the input is exhausted the stack is drained.  Because the
current stack always avoids the forbidden patterns, a push can only be illegal
through an occurrence whose first entry is the incoming one, which is what the
compiled deciders below test.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .permutations import (
    PatternSpec,
    Perm,
    _rel_pairs,
    ascending_runs,
    classical,
    consecutive,
    descending_runs,
    occurs_with_first_entry,
    run_ends,
    run_interior,
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
# push deciders
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
def _compiled_feed(spec: MachineSpec) -> Callable[[list[int], list[int], Iterable[int]], None]:
    """Build a fast resumable machine body: ``feed(stack, out, values)``.

    Pushes ``values`` one by one onto ``stack`` (bottom to top), appending
    every pop to ``out``; the stack is not drained, so a copy of the state can
    be resumed with further input.  The function's name, ``feed_<variant>``,
    labels the variant.
    """
    pats = spec.forbidden

    if all(p.is_consecutive for p in pats):
        if len(pats) == 1 and len(pats[0].body) == 3:
            b = pats[0].body
            b01, b02, b12 = b[0] < b[1], b[0] < b[2], b[1] < b[2]

            def feed_consec3(stack, out, values):
                d = len(stack)
                for c in values:
                    while d >= 2:
                        t1 = stack[-1]
                        t2 = stack[-2]
                        if (c < t1) == b01 and (c < t2) == b02 and (t1 < t2) == b12:
                            out.append(stack.pop())
                            d -= 1
                        else:
                            break
                    stack.append(c)
                    d += 1

            return feed_consec3

        rels = tuple((len(p.body), _rel_pairs(p.body)) for p in pats)

        def feed_consecutive(stack, out, values):
            d = len(stack)
            for c in values:
                popped = True
                while popped:
                    popped = False
                    for k, rel in rels:
                        if d < k - 1:
                            continue
                        hit = True
                        for i, j, less in rel:
                            wi = c if i == 0 else stack[-i]
                            wj = stack[-j]
                            if (wi < wj) != less:
                                hit = False
                                break
                        if hit:
                            out.append(stack.pop())
                            d -= 1
                            popped = True
                            break
                stack.append(c)
                d += 1

        return feed_consecutive

    if len(pats) == 1 and pats[0].is_classical and len(pats[0].body) == 3:
        b = pats[0].body
        p_above = b[0] < b[1]   # relation of the middle occurrence entry to c
        q_above = b[0] < b[2]   # relation of the last occurrence entry to c
        p_gt_q = b[1] > b[2]

        def feed_classical3(stack, out, values):
            for c in values:
                while stack:
                    # scan top to bottom for entries v_p, v_q (p above q) with
                    # the relative order of (c, v_p, v_q) matching the body
                    best = None
                    hit = False
                    for idx in range(len(stack) - 1, -1, -1):
                        v = stack[idx]
                        if (
                            best is not None
                            and (v > c) == q_above
                            and ((best > v) if p_gt_q else (best < v))
                        ):
                            hit = True
                            break
                        if (v > c) == p_above and (
                            best is None or ((v > best) if p_gt_q else (v < best))
                        ):
                            best = v
                    if hit:
                        out.append(stack.pop())
                    else:
                        break
                stack.append(c)

        return feed_classical3

    def feed_generic(stack, out, values):
        for c in values:
            while stack and _push_blocked_reference(spec, stack, c):
                out.append(stack.pop())
            stack.append(c)

    return feed_generic


@lru_cache(maxsize=None)
def _compiled_runner(spec: MachineSpec) -> Callable[[Sequence[int]], Perm]:
    """The machine image of one permutation, by the compiled feed body.

    Named ``run_<variant>`` after the feed it wraps.
    """
    feed = _compiled_feed(spec)

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


def scan(spec: MachineSpec, n: int, prefix: Sequence[int] = ()) -> Iterator[tuple[Perm, Perm]]:
    """``(perm, image)`` for every permutation of [n] starting with ``prefix``,
    in lexicographic order.

    >>> list(scan(consecutive_machine((2, 1)), 3, (2,)))
    [((2, 1, 3), (1, 2, 3)), ((2, 3, 1), (2, 1, 3))]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prefix = tuple(prefix)
    if len(set(prefix)) != len(prefix) or not all(1 <= v <= n for v in prefix):
        raise ValueError(f"prefix must hold distinct values of 1..{n}: {prefix!r}")
    feed = _compiled_feed(spec)
    rest = [v for v in range(1, n + 1) if v not in prefix]
    stack: list[int] = []
    out: list[int] = []
    feed(stack, out, prefix)
    for head in itertools.permutations(rest, max(len(rest) - _SUFFIX, 0)):
        head_stack = stack.copy()
        head_out = out.copy()
        feed(head_stack, head_out, head)
        start = prefix + head
        for tail in itertools.permutations([v for v in rest if v not in head]):
            s = head_stack.copy()
            o = head_out.copy()
            feed(s, o, tail)
            s.reverse()
            o += s
            yield start + tail, tuple(o)


def scan_reduce(spec: MachineSpec, n: int, reduce: Callable, jobs: int = 1) -> Iterator:
    """``reduce`` applied to the scan of S_n, one result per partition.

    Serially the whole scan is one partition; with ``jobs > 1`` each first
    entry is one, run in a process pool.  ``reduce`` takes an iterator of
    ``(perm, image)`` pairs and must be a module-level function, so that it
    pickles.  Results are yielded as they arrive, so that the caller can fold
    each one in before the next.
    """
    if jobs > 1 and n >= 2:
        tasks = [(reduce, spec, n, (first,)) for first in range(1, n + 1)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
    """Entries popped before the final input entry has been pushed, in pop order."""
    n = len(perm)
    pushes = 0
    out: list[int] = []
    for step in trace(spec, perm, record_stacks=False):
        if step.kind == "push":
            pushes += 1
        elif pushes < n:
            out.append(step.value)
    return out


# ---------------------------------------------------------------------------
# simulation-free images for the two monotone length-3 machines
# ---------------------------------------------------------------------------

def consecutive_321_image(perm: Sequence[int]) -> Perm:
    """Image under the 321-forbidding consecutive machine, from ascending runs.

    Each run contributes its interior immediately and its two ends at drain
    time, so the output is the interiors in order followed by the reversed
    concatenation of the run ends.
    """
    runs = ascending_runs(perm)
    out = [v for r in runs for v in run_interior(r)]
    tail = [v for r in runs for v in run_ends(r)]
    out.extend(reversed(tail))
    return tuple(out)


def consecutive_123_image(perm: Sequence[int]) -> Perm:
    """Image under the 123-forbidding consecutive machine, from descending runs."""
    runs = descending_runs(perm)
    out = [v for r in runs for v in run_interior(r)]
    tail = [v for r in runs for v in run_ends(r)]
    out.extend(reversed(tail))
    return tuple(out)


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
