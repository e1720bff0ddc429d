import itertools
import time
from contextlib import contextmanager
from operator import countOf
from typing import Sequence

import pytest
from hypothesis import strategies as st

from stacksorting import dynamics, preimages, sortable
from stacksorting.machine import MachineSpec, TraceStep, consecutive_machine, machine_of, scan
from stacksorting.permutations import (
    PatternSpec,
    all_permutations,
    classical,
    complement,
    consecutive,
    standardize,
    vincular,
)

_ACCEPTANCE: list[tuple[int, str, float, str]] = []


@pytest.fixture
def criterion():
    """Context manager recording one acceptance criterion's verdict."""

    @contextmanager
    def _record(num: int, label: str):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            _ACCEPTANCE.append((num, label, time.perf_counter() - t0, "FAIL"))
            raise
        _ACCEPTANCE.append((num, label, time.perf_counter() - t0, "PASS"))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, secs, status in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"criterion {num:>2} {status:<4} ({secs:6.1f}s)  {label}")


@pytest.fixture
def no_scan(monkeypatch):
    """Make every scan that a bound check should forestall fail the test."""
    def scan(*args, **kwargs):
        raise AssertionError("scanned before the bound check")

    monkeypatch.setattr(dynamics, "image_map", scan)
    monkeypatch.setattr(dynamics, "_reversal_ranks", scan)
    monkeypatch.setattr(sortable, "count_sortable", scan)
    monkeypatch.setattr(sortable, "count_sortable_pair", scan)
    monkeypatch.setattr(preimages, "image_tally", scan)
    monkeypatch.setattr(preimages, "_fiber_folds", scan)


# --- shared machines -------------------------------------------------------

def every_machine_shape():
    """Every body of length 2 to 4 in all three modes, and the {123, 321} pair.

    (At length 2 the vincular {1} mode is the consecutive one.)
    """
    specs = []
    for k in (2, 3, 4):
        for body in itertools.permutations(range(1, k + 1)):
            for pat in (consecutive(body), classical(body), vincular(body, (1,))):
                specs.append(machine_of([pat]))
    specs.append(consecutive_machine((1, 2, 3), (3, 2, 1)))
    return list(dict.fromkeys(specs))


def complement_machine(spec):
    """The machine with each forbidden body complemented, adjacency unchanged."""
    return MachineSpec(tuple(PatternSpec(complement(p.body), p.adjacency) for p in spec.forbidden))


# --- reference sortable count ---------------------------------------------

def count_sortable_reference(spec, n):
    """The sortable count by ``avoids_231`` on every image of the scan, apart
    from the Av_n(231) lookup behind ``count_sortable``."""
    return countOf(map(sortable.avoids_231, scan(spec, n)), True)


# --- reference fiber folds -------------------------------------------------

def max_fertility_reference(spec, n):
    """The largest fiber size over S_n and its sorted targets, from the tally
    of all of S_n, apart from the first-entry folds behind ``max_fertility``."""
    tally = preimages.image_tally(spec, n, max_n=n)
    best = max(tally.values())
    return best, tuple(sorted(p for p, c in tally.items() if c == best))


def fertility_spectrum_reference(spec, n_max):
    """Every fiber size up to length n_max, from the tally of each whole S_n."""
    return {c for n in range(1, n_max + 1)
            for c in preimages.image_tally(spec, n, max_n=n).values()}


# --- reference cyclic ranks ----------------------------------------------

def cyclic_ranks_reference(image):
    """The ranks on a cycle of the rank map ``image``, as a set: the image of
    the live set, from all ranks, until it stops shrinking, apart from the
    mask behind ``dynamics._cyclic_ranks``."""
    live = set(range(len(image)))
    while len(shrunk := {image[r] for r in live}) < len(live):
        live = shrunk
    return live


# --- reference push decider ---------------------------------------------

def _occurrence_search(host: Sequence[int], body: Sequence[int], adjacency: frozenset[int]) -> bool:
    """Backtracking search for one occurrence whose first entry is host[0]: the
    reference against which the tests check the generated search."""
    k = len(body)
    n = len(host)
    chosen_vals = list(host[:1])

    def extend(t: int, prev_idx: int) -> bool:
        if t == k:
            return True
        if t in adjacency:
            candidates = range(prev_idx + 1, prev_idx + 2)
        else:
            candidates = range(prev_idx + 1, n - (k - t) + 1)
        bt = body[t]
        for idx in candidates:
            v = host[idx]
            if any((chosen_vals[s] < v) != (body[s] < bt) for s in range(t)):
                continue
            chosen_vals.append(v)
            if extend(t + 1, idx):
                return True
            chosen_vals.pop()
        return False

    return k <= n and extend(1, 0)


def occurs_with_first_entry(host: Sequence[int], pattern: PatternSpec) -> bool:
    """True iff some occurrence of ``pattern`` uses host[0] as its first entry."""
    return _occurrence_search(host, pattern.body, pattern.adjacency)


def occurs_brute(host, pattern):
    """``occurs_with_first_entry`` by trying every choice of k - 1 positions after
    host[0]: positions in the adjacency set sit next to each other, and the
    chosen entries standardize to the body."""
    body = pattern.body
    for rest in itertools.combinations(range(1, len(host)), len(body) - 1):
        chosen = (0, *rest)
        if (all(chosen[i] == chosen[i - 1] + 1 for i in pattern.adjacency)
                and standardize([host[i] for i in chosen]) == body):
            return True
    return False


def _push_blocked_reference(spec: MachineSpec, stack: Sequence[int], c: int) -> bool:
    """Would pushing c create a forbidden occurrence?  (reference decider)

    The stack is given bottom-to-top; the hypothetical stack reading is c
    followed by the current entries from top to bottom.  Any new occurrence
    must start at c, so only occurrences with first entry c are searched.
    """
    host = (c, *reversed(stack))
    return any(occurs_with_first_entry(host, p) for p in spec.forbidden)


def trace_reference(spec, perm, record_stacks=True):
    """The push/pop sequence of one machine run by ``_push_blocked_reference``,
    apart from the generated feed behind ``trace``."""
    steps = []
    stack = []

    def snap():
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


# --- reference containment -----------------------------------------------

def contains_reference(host, pattern):
    """Containment by the backtracking reference search, apart from the
    generated search behind ``contains``."""
    return any(occurs_with_first_entry(host[i:], pattern) for i in range(len(host)))


def avoiders_reference(n, patterns):
    """The permutations of [n] avoiding every pattern, in lexicographic order,
    by ``contains_reference``."""
    return [p for p in all_permutations(n)
            if not any(contains_reference(p, q) for q in patterns)]


# --- shared hypothesis strategies -----------------------------------------

def permutations_up_to(max_n: int, min_n: int = 0):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(tuple)


def pattern_bodies(max_len: int = 4):
    return st.integers(2, max_len).flatmap(
        lambda k: st.permutations(list(range(1, k + 1)))
    ).map(tuple)


def _tree_to_dyck(tree) -> str:
    if tree is None:
        return ""
    left, right = tree
    return "U" + _tree_to_dyck(left) + "D" + _tree_to_dyck(right)


def dyck_words(max_semilength: int = 8):
    trees = st.recursive(st.none(), lambda c: st.tuples(c, c), max_leaves=max_semilength + 1)
    return trees.map(_tree_to_dyck)
