"""Which permutations a machine sorts, and the structure of those sets.

A permutation is sortable by a machine when the machine's output avoids 231
classically, i.e. when a subsequent pass through the classic increasing stack
yields the identity.
"""

from __future__ import annotations

import enum
import itertools
from operator import countOf
from typing import Callable, Iterable, Iterator, Sequence

from . import bounds
from .machine import MachineSpec, run, scan, scan_reduce
from .permutations import (
    Perm,
    all_permutations,
    as_permutation,
    ascending_runs,
    classical,
    consecutive,
    contains,
    descending_runs,
    standardize,
    swap_first_two,
)


def avoids_231(seq: Sequence[int]) -> bool:
    """Single-pass 231 test: is there an ascent followed by a smaller entry?"""
    best = 0  # largest value known to have a larger value after it
    stack: list[int] = []
    for v in seq:
        if v < best:
            return False
        while stack and v > stack[-1]:
            best = stack.pop()
        stack.append(v)
    return True


def is_sortable(spec: MachineSpec, perm: Sequence[int]) -> bool:
    """Does the machine output avoid 231 (equivalently: sort via a second stack)?"""
    return avoids_231(run(spec, perm))


def sortable_members(
    spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND
) -> Iterator[Perm]:
    """The sortable permutations of [n], lazily, in lexicographic order.

    The bound is checked at the call, not at the first ``next``.
    """
    bounds.check_scan_bound(n, max_n, "sortable_members")
    return itertools.compress(all_permutations(n), map(avoids_231, scan(spec, n)))


def _count_sortable_images(images: Iterable[Perm]) -> int:
    return countOf(map(avoids_231, images), True)


def count_sortable(
    spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND, jobs: int = 1
) -> int:
    """|{p in S_n : sortable}| by a full scan; partition-parallel when jobs > 1."""
    bounds.check_scan_bound(n, max_n, "count_sortable")
    return sum(scan_reduce(spec, n, _count_sortable_images, jobs))


# ---------------------------------------------------------------------------
# structural characterizations
# ---------------------------------------------------------------------------

def structural_sortable_132(perm: Sequence[int]) -> bool:
    """Sortability under the 132 consecutive machine, read off the run shape.

    Every run head must be a left-to-right minimum and the reversed run tails
    must concatenate into a decreasing sequence.
    """
    runs = ascending_runs(perm)
    seen_min: int | None = None
    for r in runs:
        if seen_min is not None and r[0] > seen_min:
            return False
        seen_min = r[0]
    prev: int | None = None
    for r in runs:
        for v in reversed(r[1:]):
            if prev is not None and v > prev:
                return False
            prev = v
    return True


_P132 = classical((1, 3, 2))


def structural_sortable_123(perm: Sequence[int]) -> bool:
    """Sortability under the 123 consecutive machine, without simulation.

    Avoid 132, and every descending run of length >= 3 must have an interval
    interior and nothing larger than its second-to-last entry to the right.
    The test suite checks this against an equivalent vincular-avoidance form.
    """
    if contains(perm, _P132):
        return False
    pos = 0
    for r in descending_runs(perm):
        end = pos + len(r)  # run occupies positions pos .. end-1
        if len(r) >= 3:
            second_last = r[-2]
            if any(v > second_last for v in perm[end - 1:]):
                return False
            interior = r[1:-1]
            if interior[0] - interior[-1] + 1 != len(interior):
                return False
        pos = end
    return True


def structural_sortable_decreasing(perm: Sequence[int], k: int) -> bool:
    """Sortability under the k(k-1)..1 consecutive machine for k >= 3."""
    if k < 3:
        raise ValueError("decreasing-pattern characterization needs k >= 3")
    return structural_sortable_av132_rev(perm, range(k, 0, -1))


def structural_sortable_av132_rev(perm: Sequence[int], sigma: Sequence[int]) -> bool:
    """Sortability as Av(132) minus a consecutive reversed pattern.

    Valid whenever swapping the first two entries of ``sigma`` yields a
    permutation containing 231; callers outside that gate get an error.
    """
    sigma = as_permutation(sigma)
    if len(sigma) < 3:
        raise ValueError("pattern must have length >= 3")
    if not contains(swap_first_two(sigma), classical((2, 3, 1))):
        raise ValueError(
            "characterization requires the first-two-swapped pattern to contain 231"
        )
    return not contains(perm, _P132) and not contains(
        perm, consecutive(tuple(reversed(sigma)))
    )


# ---------------------------------------------------------------------------
# lattice-path encoding of the 132-machine sortable set
# ---------------------------------------------------------------------------

def is_dyck_word(word: str) -> bool:
    height = 0
    for ch in word:
        if ch == "U":
            height += 1
        elif ch == "D":
            height -= 1
            if height < 0:
                return False
        else:
            return False
    return height == 0


def all_dyck_words(n: int) -> Iterator[str]:
    """Every balanced U/D word of semilength n with nonnegative prefixes."""
    if n == 0:
        yield ""
        return
    for a in range(n):
        for left in all_dyck_words(a):
            for right in all_dyck_words(n - 1 - a):
                yield "U" + left + "D" + right


def to_dyck_path(perm: Sequence[int]) -> str:
    """Encode a sortable permutation of the 132 machine as a Dyck word.

    Each ascending run headed by m of length L contributes U^{gap to m} D^L.

    >>> to_dyck_path((5, 8, 9, 4, 3, 6, 7, 1, 2))
    'UUUUUDDDUDUDDDUUDD'
    """
    if not structural_sortable_132(perm):
        raise ValueError(f"not sortable by the 132 consecutive machine: {tuple(perm)!r}")
    prev_head = len(perm) + 1
    parts = []
    for r in ascending_runs(perm):
        parts.append("U" * (prev_head - r[0]))
        parts.append("D" * len(r))
        prev_head = r[0]
    return "".join(parts)


def from_dyck_path(word: str) -> Perm:
    """Invert the encoding: run heads from U-block sums, tails filled with the
    largest values still free."""
    if not is_dyck_word(word):
        raise ValueError(f"not a Dyck word: {word!r}")
    n = len(word) // 2
    blocks = [(ch, len(list(grp))) for ch, grp in itertools.groupby(word)]
    ups = blocks[0::2]
    downs = blocks[1::2]
    heads: list[int] = []
    drop = 0
    for (_, gamma) in ups:
        drop += gamma
        heads.append(n + 1 - drop)
    free = sorted(set(range(1, n + 1)) - set(heads), reverse=True)
    out: list[int] = []
    at = 0
    for head, (_, length) in zip(heads, downs):
        tail = sorted(free[at:at + length - 1])
        at += length - 1
        out.append(head)
        out.extend(tail)
    return tuple(out)


# ---------------------------------------------------------------------------
# permutation-class tests
# ---------------------------------------------------------------------------

def is_downward_closed(
    member: Callable[[Perm], bool], max_n: int
) -> tuple[bool, tuple[Perm, Perm] | None]:
    """Is the membership predicate closed under classical pattern containment?

    Checks lengths 1..max_n, one length down only, which suffices by
    transitivity.  Returns (True, None) or (False, (member, missing_child)).
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, not {max_n}: no length to check")
    bounds.check_scan_bound(max_n, bounds.PAIRWISE_BOUND, "is_downward_closed")
    for n in range(1, max_n + 1):
        for p in all_permutations(n):
            if not member(p):
                continue
            for i in range(n):
                child = standardize(p[:i] + p[i + 1:])
                if not member(child):
                    return False, (p, child)
    return True, None


class SortableSetKind(enum.Enum):
    AV132_CLASS = "class Av(132)"
    AV213_CLASS = "class Av(213)"
    NOT_A_CLASS = "not a permutation class"


def classify_sortable_set(sigma: Sequence[int]) -> SortableSetKind:
    """Is the sortable set of the consecutive machine on ``sigma`` a class?

    Length 2 is special: 12 gives the class Av(213), 21 does not give a class.
    For length >= 3 the set is a class exactly when both the pattern and its
    first-two-swap contain 231, in which case it equals Av(132).
    """
    sigma = as_permutation(sigma)
    if len(sigma) < 2:
        raise ValueError("pattern must have length >= 2")
    if sigma == (1, 2):
        return SortableSetKind.AV213_CLASS
    if sigma == (2, 1):
        return SortableSetKind.NOT_A_CLASS
    p231 = classical((2, 3, 1))
    if contains(sigma, p231) and contains(swap_first_two(sigma), p231):
        return SortableSetKind.AV132_CLASS
    return SortableSetKind.NOT_A_CLASS
