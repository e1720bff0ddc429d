"""Fibers of the stack machines: who maps where, and how often.

Whole-fiber questions go through a single forward pass tallying the image of
S_n rather than inverting per target.  The scan yields images only; a
preimage is read back as the permutation at the same lexicographic position.

When every forbidden pattern has length >= 3, no image leaves its first-entry
partition: a blocked push needs the incoming entry and at least two stack
entries, so the bottom entry pi_1 is never popped before the drain and ends
SC(pi).  Max fertility and spectra therefore fold the tally of each partition
that ``scan_reduce`` yields, one at a time, and never hold the tally of S_n.
A length-2 pattern can pop the bottom entry (every image under classical 21
ends in n), so those machines fold the tally of all of S_n at once.

Every tally is order-free, so it is built from the weighted batches of
``scan_reduce``: where the tails run as stored programs, each distinct image
of a head is built and hashed once, and counted as many times as orders of
its tail give it.  ``fiber`` needs positions, so it reads ``scan``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import compress
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from . import bounds
from .machine import MachineSpec, consecutive_machine, scan, scan_reduce
from .permutations import (
    Perm,
    all_permutations,
    as_permutation,
    ascent_slot_counts,
    descent_prefix_counts,
    descent_word,
)


@dataclass(frozen=True)
class FiberReport:
    target: Perm
    preimages: tuple[Perm, ...]  # sorted lexicographically

    @property
    def count(self) -> int:
        return len(self.preimages)


def fiber(spec: MachineSpec, target: Sequence[int], max_n: int = bounds.SCAN_BOUND) -> FiberReport:
    """All permutations the machine sends to ``target``, by scanning S_n."""
    target = as_permutation(target)
    n = len(target)
    bounds.check_scan_bound(n, max_n, "fiber")
    members = compress(all_permutations(n), map(target.__eq__, scan(spec, n)))
    return FiberReport(target, tuple(members))


def image_tally(
    spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND, jobs: int = 1
) -> Counter:
    """Multiset of machine images over all of S_n (fiber sizes by target)."""
    bounds.check_scan_bound(n, max_n, "image_tally")
    tally = Counter()
    for part in scan_reduce(spec, n, _tally, jobs):
        tally.update(part)
    return tally


def _tally(batches: Iterable[tuple[int, Iterable[Perm]]]) -> Counter:
    """The image tally of ``scan_reduce`` batches, each image of a batch of
    weight m counted m times: one hash per image, where ``images * m`` would
    hash each m times."""
    tally = Counter()
    get = tally.get
    for m, images in batches:
        if m == 1:
            tally.update(images)
        else:
            for image in images:
                tally[image] = get(image, 0) + m
    return tally


def _fiber_folds(spec: MachineSpec, n: int, reduce: Callable, jobs: int) -> Iterator:
    """``reduce`` of the image tally of each part of S_n that holds whole fibers
    (see the module docstring).  The caller checks the scan bound."""
    if min(len(p.body) for p in spec.forbidden) >= 3:
        yield from scan_reduce(spec, n, partial(_reduce_tally, reduce), jobs)
    else:
        yield reduce(image_tally(spec, n, max_n=n, jobs=jobs))


def _reduce_tally(reduce: Callable, batches: Iterable[tuple[int, Iterable[Perm]]]) -> object:
    return reduce(_tally(batches))


def _peak(tally: Counter) -> tuple[int, list[Perm]]:
    best = max(tally.values())
    return best, [p for p, c in tally.items() if c == best]


def _sizes(tally: Counter) -> set[int]:
    return set(tally.values())


def max_fertility(
    spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND, jobs: int = 1
) -> tuple[int, tuple[Perm, ...]]:
    """Largest fiber size over S_n and every target attaining it."""
    bounds.check_scan_bound(n, max_n, "max_fertility")
    best, argmax = 0, []
    for top, targets in _fiber_folds(spec, n, _peak, jobs):
        if top > best:
            best, argmax = top, targets
        elif top == best:
            argmax += targets
    return best, tuple(sorted(argmax))


def fiber_sizes(spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND) -> set[int]:
    """Every fiber size achieved by some target of length n."""
    bounds.check_scan_bound(n, max_n, "fiber_sizes")
    return set().union(*_fiber_folds(spec, n, _sizes, 1))


def fertility_spectrum(
    spec: MachineSpec, n_max: int, max_n: int = bounds.SCAN_BOUND
) -> set[int]:
    """Every fiber size achieved by some target of length <= n_max."""
    bounds.check_scan_bound(n_max, max_n, "fertility_spectrum")
    return set().union(*(fiber_sizes(spec, n, max_n=max_n) for n in range(1, n_max + 1)))


def spectrum_gaps(sizes: Iterable[int]) -> list[int]:
    """Positive integers missing below the largest achieved size."""
    achieved = set(sizes)
    top = max(achieved, default=0)
    return [f for f in range(1, top + 1) if f not in achieved]


# ---------------------------------------------------------------------------
# the closed-form fiber count of the 132 consecutive machine
# ---------------------------------------------------------------------------

def reverse_layered_fiber_terms(perm: Sequence[int]) -> tuple[int, ...]:
    """Term k counts the preimages popping exactly k entries early.

    For a reverse-layered target with ascent/descent word vectors d and a,
    term k is C(d(k) + a(k), k).
    """
    word = descent_word(perm)  # validates reverse-layered
    d = descent_prefix_counts(word)
    a = ascent_slot_counts(word)
    return tuple(comb(d[k] + a[k], k) for k in range(len(perm) + 1))


def reverse_layered_fiber_size(perm: Sequence[int]) -> int:
    """Fiber size under the 132 consecutive machine, without any scanning."""
    return sum(reverse_layered_fiber_terms(perm))


# ---------------------------------------------------------------------------
# explicit preimages of the decreasing permutation under the 231 machine
# ---------------------------------------------------------------------------

def decreasing_preimage(n: int, positions: Iterable[int]) -> Perm:
    """Insert n, n-1, ... into 1 2 .. (n-k) at the given positions.

    Every choice of positions inside {2, .., n-1} yields a distinct preimage
    of n (n-1) .. 1 under the 231 consecutive machine.

    >>> decreasing_preimage(8, (2, 3, 5))
    (1, 8, 7, 2, 6, 3, 4, 5)
    """
    pos = sorted(set(positions))
    if any(not (2 <= j <= n - 1) for j in pos):
        raise ValueError(f"positions must lie in 2..{n - 1}: {pos}")
    k = len(pos)
    out: list[int] = [0] * n
    for i, j in enumerate(pos):
        out[j - 1] = n - i
    small = iter(range(1, n - k + 1))
    for idx in range(n):
        if out[idx] == 0:
            out[idx] = next(small)
    return tuple(out)


# ---------------------------------------------------------------------------
# the entry-swap monotonicity of 132-machine fiber sizes
# ---------------------------------------------------------------------------

def eligible_swap_indices(perm: Sequence[int]) -> list[int]:
    """Values i occurring before i+1 but not immediately before it."""
    where = {v: idx for idx, v in enumerate(perm)}
    return [
        i
        for i in range(1, len(perm))
        if where[i] < where[i + 1] and where[i] + 1 != where[i + 1]
    ]


def swap_increases_fiber(
    perm: Sequence[int], i: int, max_n: int = bounds.SCAN_BOUND
) -> bool:
    """Brute-force check that swapping i and i+1 cannot shrink the fiber."""
    perm = as_permutation(perm)
    if i not in eligible_swap_indices(perm):
        raise ValueError(
            f"value {i} must occur before {i + 1} and not immediately before it"
        )
    swapped = tuple(i + 1 if v == i else i if v == i + 1 else v for v in perm)
    spec = consecutive_machine((1, 3, 2))
    a = fiber(spec, perm, max_n=max_n).count
    b = fiber(spec, swapped, max_n=max_n).count
    return a <= b
