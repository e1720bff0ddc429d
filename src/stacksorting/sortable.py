"""Which permutations a machine sorts, and the structure of those sets.

A permutation is sortable by a machine when the machine's output avoids 231
classically, i.e. when a subsequent pass through the classic increasing stack
yields the identity (Knuth, TAOCP Vol. 1, 2.2.1).  Those outputs are
Catalan-many, C_n of them (16,796 at n = 10).

``count_sortable`` runs a scan of its own, not the pair's below, and looks
up each image it reaches in Av_n(231), built once per call.  That scan need
not reach every image.  Every image under a fed prefix of a permutation
holds the prefix's output followed by its stack read top-down as a
subsequence.  When that word contains 231, no image under the prefix is
sortable, and the scan's walk cuts it, down to the heads.

Complementing every value conjugates the machines: with sigma^c the machine
whose forbidden bodies are complemented (adjacency unchanged),
SC_{sigma^c}(pi^c) = SC_sigma(pi)^c.  So pi^c is sortable by SC_{sigma^c}
exactly when SC_sigma(pi) avoids 213, the complement of 231, and one scan of
S_n counts the sortable sets of both machines (``count_sortable_pair``,
behind ``reproduce sortable``).  It looks up each image in one dict over
Av_n(231) and Av_n(213), 2 C_n - 2^(n-1) entries (33,080 at n = 10), and
skips only the heads whose forced word contains both 231 and 213.
"""

from __future__ import annotations

import enum
import functools
import itertools
from math import factorial
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
    complement,
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

    The bound is checked at the call, not at the first ``next``.  Each image
    is tested on its own with ``avoids_231`` rather than looked up in the
    Av_n(231) ``count_sortable`` builds, so that the first member costs no
    build of C_n entries (208,012 at n = 12).  No head is skipped: a member
    is found at the position of its source.
    """
    bounds.check_scan_bound(n, max_n, "sortable_members")
    return itertools.compress(all_permutations(n), map(avoids_231, scan(spec, n)))


def _avoiders_231(n: int) -> frozenset[Perm]:
    """Av_n(231), built bottom-up over the lengths 0..n.

    Each avoider of length m is alpha m beta, where alpha and beta avoid 231
    and every entry of alpha is smaller than every entry of beta.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    levels: list[list[Perm]] = [[()]]
    for m in range(1, n + 1):
        level: list[Perm] = []
        for i in range(m):
            tails = [(m,) + tuple(v + i for v in beta) for beta in levels[m - 1 - i]]
            level.extend(alpha + tail for alpha in levels[i] for tail in tails)
        levels.append(level)
    return frozenset(levels[n])


def _membership_weights(n: int) -> dict[Perm, int]:
    """Weight 1 for each member of Av_n(231) plus n! + 1 for each member of
    Av_n(213), the complements of Av_n(231): a sum of the weights of at most
    n! images is then 231-avoiders + (n! + 1) * 213-avoiders, read back exactly
    by ``divmod(total, n! + 1)``."""
    avoiders = _avoiders_231(n)
    high = factorial(n) + 1
    weights = dict.fromkeys(avoiders, 1)
    for p in map(complement, avoiders):
        weights[p] = weights.get(p, 0) + high
    return weights


def _weigh(weights: dict[Perm, int], images: Iterable[Perm]) -> int:
    return sum(map(weights.get, images, itertools.repeat(0)))


def _holds_231_and_213(top: int, word: Sequence[int]) -> bool:
    """Does the word, of values below ``top``, contain both 231 and 213?  Then
    so does every permutation holding it as a subsequence, of weight 0 in
    ``_membership_weights``; 213 is 231 in the complement ``top - v``."""
    return not avoids_231(word) and not avoids_231([top - v for v in word])


def count_sortable_pair(
    spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND, jobs: int = 1
) -> tuple[int, int]:
    """The sortable counts over S_n of the machine and of its complement (each
    forbidden body complemented, adjacency unchanged), from one scan;
    partition-parallel when jobs > 1.

    The scan cuts each prefix, down to its heads, whose forced word (see
    ``scan``) contains both 231 and 213, as no image under it avoids either.
    Each image left is looked up once in a dict over Av_n(231) and
    Av_n(213), built for the call: 2 C_n - 2^(n-1) entries for n >= 1, as
    2^(n-1) permutations avoid both; 33,080 at n = 10.
    """
    bounds.check_scan_bound(n, max_n, "count_sortable")
    weigh = functools.partial(_weigh, _membership_weights(n))
    dead = functools.partial(_holds_231_and_213, n + 1)
    total = sum(scan_reduce(spec, n, weigh, jobs, dead))
    complement_count, count = divmod(total, factorial(n) + 1)
    return count, complement_count


def _count_members(members: frozenset[Perm], images: Iterable[Perm]) -> int:
    return countOf(map(members.__contains__, images), True)


def _contains_231(word: Sequence[int]) -> bool:
    """Does the word contain 231?  Then so does every permutation holding it
    as a subsequence, and no image under it is sortable."""
    return not avoids_231(word)


def count_sortable(
    spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND, jobs: int = 1
) -> int:
    """|{p in S_n : sortable}|; partition-parallel when jobs > 1.

    The scan cuts each prefix, down to its heads, whose forced word (see
    ``scan``) contains 231, as no image under it is sortable.  Each image
    left is looked up once in Av_n(231), built for the call: C_n entries,
    16,796 at n = 10.
    """
    bounds.check_scan_bound(n, max_n, "count_sortable")
    count = functools.partial(_count_members, _avoiders_231(n))
    return sum(scan_reduce(spec, n, count, jobs, _contains_231))


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
    if avoids_231(swap_first_two(sigma)):
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
    if not avoids_231(sigma) and not avoids_231(swap_first_two(sigma)):
        return SortableSetKind.AV132_CLASS
    return SortableSetKind.NOT_A_CLASS
