"""Iteration of the stack machines: orbits, periodic points, and the
conjecture probes.

A probe verifies a conjecture's statement exhaustively at desk scale; a
failed conjecture is a normal result carried in the report, never an error.

The probes work on ranks: ``image_map`` is the machine on the lexicographic
ranks of S_n, and they keep a set of permutations as a ``bytearray`` mask by
rank.
Complement reverses lexicographic order, rank(pi^c) = n! - 1 - rank(pi), and
SC_{sigma^c}(pi^c) = SC_sigma(pi)^c, so the masks of sigma^c are those of
sigma reversed.  ``general-periodic`` takes one route for any set of
patterns: one image map per complement pair asked for, and one reversal on
the ranks per n, from which the first map of each symmetry class {sigma,
rev sigma, sigma^c, rev sigma^c} gives the class its expected periodic points.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from dataclasses import dataclass, field
from operator import and_, eq, gt, itemgetter, lt, not_
from typing import Callable, Iterable, Sequence

from . import bounds, preimages, sequences, sortable
from .machine import (
    MachineSpec,
    _compiled_runner,
    _ranker,
    _unrank,
    classical_machine,
    consecutive_machine,
    image_map,
    rank,
)
from .permutations import (
    Perm,
    all_permutations,
    complement,
    format_permutation,
    is_vee_shaped,
    reverse,
)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitReport:
    """Trajectory up to and including the first repeated permutation."""

    orbit: tuple[Perm, ...]
    preperiod: int
    period: int


def orbit(spec: MachineSpec, perm: Sequence[int]) -> OrbitReport:
    """Iterate until a repeat, keeping the full visited list."""
    runner = _compiled_runner(spec)
    seen: dict[Perm, int] = {}  # each visited permutation at its step, in order
    x = tuple(perm)
    while x not in seen:
        seen[x] = len(seen)
        x = runner(x)
    first = seen[x]
    return OrbitReport((*seen, x), first, len(seen) - first)


def _mask(size: int, ranks: Iterable[int]) -> bytearray:
    """The mask of the given size with 1 at each of the ranks."""
    mask = bytearray(size)
    deque(map(mask.__setitem__, ranks, itertools.repeat(1)), 0)
    return mask


def _cyclic_ranks(image: array) -> bytearray:
    """The mask of the ranks on a cycle of the map: its eventual image, the
    ranks hit, then those hit from them, until the set stops shrinking and the
    map is onto it.  The set shrinks to a few percent of the ranks within a
    few steps, so each step maps the set, not a mask over every rank."""
    live = set(image)
    while len(shrunk := set(map(image.__getitem__, live))) < len(live):
        live = shrunk
    return _mask(len(image), live)


def periodic_points(spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND) -> set[Perm]:
    """All permutations of [n] lying on a cycle of the machine."""
    bounds.check_scan_bound(n, max_n, "periodic_points")
    return set(itertools.compress(all_permutations(n), _cyclic_ranks(image_map(spec, n))))


def _cycle_lengths(step: Callable, points: Iterable) -> set[int]:
    """Cycle lengths of the map ``step`` among the given periodic points; a
    permutation that is not periodic, whose walk returns to another entry, is
    a ValueError (a rank from ``_cyclic_ranks`` always is periodic)."""
    periods: set[int] = set()
    remaining = set(points)
    while remaining:
        x = start = remaining.pop()
        cycle = {start}
        while (x := step(x)) != start:
            if x in cycle:
                raise ValueError(f"not a periodic point: {format_permutation(start)}")
            cycle.add(x)
        remaining -= cycle
        periods.add(len(cycle))
    return periods


def cycle_periods(spec: MachineSpec, points: Iterable[Perm]) -> set[int]:
    """Cycle lengths occurring among the given periodic points; ValueError for
    a point that is not periodic, whose orbit returns to another entry."""
    return _cycle_lengths(_compiled_runner(spec), points)


def iterations_until(
    spec: MachineSpec, perm: Sequence[int], in_target: Callable[[Perm], bool]
) -> int:
    """Smallest t with the t-th iterate inside the target set.

    Once the orbit closes every later iterate repeats an earlier one, so an
    orbit that closes outside the target never reaches it: an error.
    """
    for t, x in enumerate(orbit(spec, perm).orbit):
        if in_target(x):
            return t
    raise RuntimeError(f"the orbit of {format_permutation(perm)} closes outside the target")


# ---------------------------------------------------------------------------
# witness constructions for the maximum iteration depth of the classical
# 132 machine
# ---------------------------------------------------------------------------

def deep_witness(m: int) -> Perm:
    """Skew stack of m blocks (3j-2, 3j, 3j-1); needs n-1 iterations to settle.

    >>> deep_witness(2)
    (4, 6, 5, 1, 3, 2)
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out: list[int] = []
    for j in range(m, 0, -1):
        out.extend((3 * j - 2, 3 * j, 3 * j - 1))
    return tuple(out)


def vee_block(k: int) -> Perm:
    """V-shaped permutation of [3k+1]: one parity class descending, the other
    ascending (odd values first for odd k, even values first for even k); the
    reverse of ``vee_limit(3k + 1)``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return reverse(vee_limit(3 * k + 1))


def residue_block(k: int, m: int, i: int) -> Perm:
    """Values in {3k+2, .., 3m} congruent to i mod 3, in decreasing order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if i not in (0, 1, 2):
        raise ValueError("residue must be 0, 1, or 2")
    return tuple(v for v in range(3 * m, 3 * k + 1, -1) if v % 3 == i)


def vee_limit(n: int) -> Perm:
    """The V-shaped permutation of [n] every slow orbit lands on.

    >>> vee_limit(6)
    (6, 4, 2, 1, 3, 5)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    odds = [v for v in range(1, n + 1) if v % 2 == 1]
    evens = [v for v in range(1, n + 1) if v % 2 == 0]
    if n % 2 == 1:
        return tuple(sorted(odds, reverse=True) + sorted(evens))
    return tuple(sorted(evens, reverse=True) + sorted(odds))


def _witness_stage(k: int, m: int) -> Perm:
    return (
        residue_block(k, m, 2)
        + residue_block(k, m, 0)
        + vee_block(k)
        + reverse(residue_block(k, m, 1))
    )


def verify_witness_trajectory(m: int) -> bool:
    """Simulate the deep witness and compare against the assembled stage forms.

    Stage k is reached after 4 + 3(k-1) iterations of the classical 132
    machine; the final stage must be (3m-1)(3m) followed by the next smaller
    V block.  Needs m >= 2 (for m = 1 the first stage form does not fit in
    S_3).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    spec = classical_machine((1, 3, 2))
    runner = _compiled_runner(spec)
    x = deep_witness(m)
    for _ in range(4):
        x = runner(x)
    if x != _witness_stage(1, m):
        return False
    for k in range(1, m - 1):
        for _ in range(3):
            x = runner(x)
        if x != _witness_stage(k + 1, m):
            return False
    return x == (3 * m - 1, 3 * m) + vee_block(m - 1)


# ---------------------------------------------------------------------------
# conjecture probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    name: str
    n: int
    holds: bool
    witnesses: tuple[dict, ...] = ()
    details: dict = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "holds": self.holds,
            "witnesses": list(self.witnesses),
            "details": self.details,
        }


def _orbit_probe(spec: MachineSpec, n: int, max_n: int, what: str) -> tuple[array, bytearray]:
    """The image map of S_n and the mask of its ranks that are not V-shaped."""
    if n < 3:
        raise ValueError("n must be >= 3")
    bounds.check_scan_bound(n, max_n, what)
    return image_map(spec, n), bytearray(map(not_, map(is_vee_shaped, all_permutations(n))))


def _orbit_report(
    name: str, n: int, slow: int | None, violation: int | None, details: dict
) -> ConjectureReport:
    """A probe's verdict from the ranks of its first slow orbit and first
    violation: it holds when there is no violation."""
    witnesses = tuple(
        {"kind": kind, "perm": format_permutation(_unrank(n, r))}
        for kind, r in (("slow", slow), ("violation", violation))
        if r is not None
    )
    return ConjectureReport(name, n, violation is None, witnesses, details)


def probe_settling_bound(n: int, max_n: int = bounds.SCAN_BOUND) -> ConjectureReport:
    """Does every orbit of the 231 consecutive machine settle within 2n-4 steps?

    ``holds`` covers that bound only.  Whether some orbit needs all 2n-4 steps
    (the bound is tight) is reported apart, in ``details.slow_witness_found``,
    with that orbit's start as the ``slow`` witness.
    """
    image, bent = _orbit_probe(consecutive_machine((2, 3, 1)), n, max_n, "probe_settling_bound")
    cap = 2 * n - 4
    # the unsettled sources, in rank order, and their t-th iterates
    sources = x = array("i", itertools.compress(range(len(image)), bent))
    slow = None
    for t in range(1, cap + 1):
        x = array("i", map(image.__getitem__, x))
        unsettled = bytes(map(bent.__getitem__, x))
        if t == cap and 0 in unsettled:
            slow = sources[unsettled.index(0)]
        sources = array("i", itertools.compress(sources, unsettled))
        x = array("i", itertools.compress(x, unsettled))
    details = {"bound": cap, "slow_witness_found": slow is not None}
    return _orbit_report("2n-4", n, slow, sources[0] if sources else None, details)


def _periodic_report(
    sigma: Perm, n: int, live: bytearray, expected: bytearray, periods: list[int]
) -> ConjectureReport:
    """The general-periodic verdict on S_n for sigma from its masks of cyclic
    and expected ranks; the witnesses are the first three ranks of each
    difference, in rank (lexicographic) order."""
    holds = live == expected
    witnesses = () if holds else tuple(
        {"kind": kind, "perm": format_permutation(_unrank(n, r))}
        for kind, differs in (("unexpected_periodic", gt), ("missing_periodic", lt))
        for r in itertools.islice(
            itertools.compress(itertools.count(), map(differs, live, expected)), 3
        )
    )
    details = {
        "pattern": format_permutation(sigma),
        "periodic_count": live.count(1),
        "observed_periods": periods,
    }
    return ConjectureReport("general-periodic", n, holds, witnesses, details)


def probe_general_periodic(
    sigma: Sequence[int], n: int, max_n: int = bounds.SCAN_BOUND
) -> ConjectureReport:
    """Are the periodic points exactly the avoiders of the pattern and its
    reverse as consecutive patterns?"""
    bounds.check_scan_bound(n, max_n, "probe_general_periodic")
    return _general_periodic([tuple(sigma)], n)[0]


def _reversal_ranks(n: int) -> array:
    """Reversal on the ranks of S_n, an involution: entry r is the rank of the
    reverse of the rank-r permutation.

    >>> list(_reversal_ranks(3))
    [5, 3, 4, 1, 2, 0]
    """
    backwards = itemgetter(slice(None, None, -1))  # reverse, without a Python call
    return array("i", map(_ranker(n), map(backwards, all_permutations(n))))


def _expected_periodic(image: array, rev: array) -> bytearray:
    """The mask of the avoiders of sigma and rev sigma as consecutive patterns,
    read off the image map of SC_sigma and the reversal on its ranks: pi
    avoids rev sigma when SC_sigma(pi) = pi^r, and sigma when SC_sigma(pi^r) = pi
    (see ``_general_periodic``)."""
    reversed_out = bytes(map(eq, image, rev))  # the avoiders of rev sigma
    return bytearray(map(and_, reversed_out, map(reversed_out.__getitem__, rev)))


def _general_periodic(sigmas: Sequence[Perm], n: int) -> list[ConjectureReport]:
    """The general-periodic report of each sigma on S_n, in order, computed per
    symmetry class {sigma, rev sigma, sigma^c, rev sigma^c}.

    The conjectured periodic points of SC_sigma are the avoiders of sigma and
    rev sigma as consecutive patterns, the same set for sigma and rev sigma,
    and the first image map built in the class gives it.  Until its first pop
    the machine's stack, read from the top, is pi_i, pi_{i-1}, ..., pi_1, so
    a push is first blocked exactly at a consecutive occurrence of rev sigma
    in pi; a pop before the drain puts an entry pushed before pi_n first in
    the output.  Hence pi avoids rev sigma exactly when SC_sigma(pi) = pi^r,
    and avoids sigma exactly when SC_sigma(pi^r) = pi (``_expected_periodic``).
    sigma^c and rev sigma^c need no image map: complement reverses the rank
    order and conjugates the machine, so their masks are those of sigma and
    rev sigma reversed, with the same cycle lengths.  A member of {sigma,
    rev sigma} is mapped only when it or its complement is asked for.
    """
    if any(len(sigma) < 3 for sigma in sigmas):
        raise ValueError("the periodic-point conjecture concerns patterns of length >= 3")
    asked = set(sigmas)
    rev = _reversal_ranks(n)
    reports: dict[Perm, ConjectureReport] = {}
    for sigma in sigmas:
        if sigma in reports:
            continue
        expected = mirrored = None
        # for some sigma, rev sigma is sigma^c and already reported
        for s in (sigma, reverse(sigma)):
            if s in reports or not asked & {s, complement(s)}:
                continue
            image = image_map(consecutive_machine(s), n)
            if expected is None:
                expected = _expected_periodic(image, rev)
                mirrored = expected[::-1]
            live = _cyclic_ranks(image)
            periods = sorted(
                _cycle_lengths(image.__getitem__, itertools.compress(itertools.count(), live))
            )
            reports[s] = _periodic_report(s, n, live, expected, periods)
            reports[complement(s)] = _periodic_report(
                complement(s), n, live[::-1], mirrored, periods
            )
    return [reports[sigma] for sigma in sigmas]


def probe_vee_limit(n: int, max_n: int = bounds.SCAN_BOUND) -> ConjectureReport:
    """Does every slow orbit of the classical 132 machine land on the V shape?"""
    image, bent = _orbit_probe(classical_machine((1, 3, 2)), n, max_n, "probe_vee_limit")
    x = image
    for _ in range(n - 3):
        x = array("i", map(image.__getitem__, x))
    slow = list(itertools.compress(range(len(x)), map(bent.__getitem__, x)))
    target = rank(vee_limit(n))
    violation = next((r for r in slow if image[x[r]] != target), None)
    details = {"limit": format_permutation(vee_limit(n)), "slow_count": len(slow)}
    return _orbit_report("vn-limit", n, slow[0] if slow else None, violation, details)


def probe_fine_transform(n_max: int, max_n: int = bounds.SCAN_BOUND) -> ConjectureReport:
    """Does the binomial transform of the Fine numbers count the sortable set
    of the 231 consecutive machine?"""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    spec = consecutive_machine((2, 3, 1))
    rows = [
        {
            "n": n,
            "predicted": sequences.fine_binomial_transform(n),
            "counted": sortable.count_sortable(spec, n, max_n=max_n),
        }
        for n in range(n_max + 1)
    ]
    witnesses = tuple(
        {"kind": "mismatch", "n": r["n"]} for r in rows if r["predicted"] != r["counted"]
    )
    return ConjectureReport("fine-transform", n_max, not witnesses, witnesses, {"rows": rows})


def probe_fertility_spectrum(
    n_max: int, max_n: int = bounds.SCAN_BOUND
) -> ConjectureReport:
    """Does the contiguous prefix of achieved fiber sizes keep overtaking the
    previous bound's maximum, for each length-3 consecutive machine?

    The raw spectrum at bound n is not gap-free below its own maximum (targets
    like the decreasing permutation race ahead), so the finite surrogate for
    "every size is achieved eventually" is that every size up to the largest
    fiber seen at bound n-1 is achieved by bound n.  Gaps are reported as
    found.  The classic increasing-stack machine's permanently missing size 3
    is recorded for contrast.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2, where a previous bound first has fibers")
    per_pattern = {}
    witnesses = []
    # fiber sizes up to the previous bound and up to n_max, by the smaller
    # pattern of each complement pair: SC_{sigma^c}(pi^c) = SC_sigma(pi)^c, so
    # both machines have the same fiber sizes
    spectra: dict[Perm, tuple[set[int], set[int]]] = {}
    for sigma in itertools.permutations((1, 2, 3)):
        pair = min(sigma, complement(sigma))
        if pair not in spectra:
            spec = consecutive_machine(pair)
            # each S_n tallied once
            previous = preimages.fertility_spectrum(spec, n_max - 1, max_n=max_n)
            spectra[pair] = previous, previous | preimages.fiber_sizes(spec, n_max, max_n=max_n)
        previous, sizes = spectra[pair]
        gaps = preimages.spectrum_gaps(sizes)
        previous_max = max(previous)
        per_pattern[format_permutation(sigma)] = {
            "max": max(sizes),
            "contiguous_to": gaps[0] - 1 if gaps else max(sizes),
            "previous_bound_max": previous_max,
            "first_gap": gaps[0] if gaps else None,
            "gaps": gaps,
        }
        if gaps and gaps[0] <= previous_max:
            witnesses.append(
                {"kind": "uncovered", "pattern": format_permutation(sigma), "missing": gaps[0]}
            )
    classic_sizes = preimages.fertility_spectrum(
        classical_machine((2, 1)), min(n_max, 7), max_n=max_n
    )
    details = {"per_pattern": per_pattern, "classic_stack_missing_3": 3 not in classic_sizes}
    return ConjectureReport("fertility-spectrum", n_max, not witnesses, tuple(witnesses), details)


# each conjecture by the smallest n that gives it a case to check
_FIRST_N = {
    "fine-transform": 0,
    "general-periodic": 1,
    "2n-4": 3,
    "fertility-spectrum": 2,
    "vn-limit": 3,
}
CONJECTURE_NAMES = tuple(_FIRST_N)


def run_conjecture(
    name: str,
    n: int,
    sigma: Sequence[int] | None = None,
    max_n: int = bounds.SCAN_BOUND,
) -> ConjectureReport:
    """Evaluate one named conjecture at every applicable size up to n.

    ``sigma`` restricts ``general-periodic`` to one pattern; other names
    refuse it.  Raises ValueError when no size up to n applies
    (``fine-transform`` starts at n = 0, ``general-periodic`` at n = 1,
    ``fertility-spectrum`` at n = 2, where a previous bound first has fibers,
    and ``2n-4`` and ``vn-limit`` at n = 3), rather than report a vacuous
    verdict.
    """
    if name not in _FIRST_N:
        raise ValueError(f"unknown conjecture name: {name!r}")
    if sigma is not None and name != "general-periodic":
        raise ValueError(f"conjecture {name} takes no pattern; only general-periodic does")
    if n < _FIRST_N[name]:
        raise ValueError(f"conjecture {name} has no case to check up to n = {n}")
    bounds.check_scan_bound(n, max_n, "run_conjecture")
    if name == "fine-transform":
        return probe_fine_transform(n, max_n=max_n)
    if name == "fertility-spectrum":
        return probe_fertility_spectrum(n, max_n=max_n)
    if name in ("2n-4", "vn-limit"):
        probe = probe_settling_bound if name == "2n-4" else probe_vee_limit
        return _aggregate(name, n, [probe(m, max_n=max_n) for m in range(3, n + 1)])
    if sigma is not None:
        sigmas = [tuple(sigma)]
    else:
        sigmas = [s for k in (3, 4) for s in itertools.permutations(range(1, k + 1))]
    # the cases run pattern by pattern, each over m = 1..n
    by_n = [_general_periodic(sigmas, m) for m in range(1, n + 1)]
    return _aggregate("general-periodic", n, [r for case in zip(*by_n) for r in case])


def _aggregate(name: str, n: int, reports: list[ConjectureReport]) -> ConjectureReport:
    holds = all(r.holds for r in reports)
    witnesses = tuple(w for r in reports for w in r.witnesses)
    details = {"cases": [dict(r.details, n=r.n, holds=r.holds) for r in reports]}
    return ConjectureReport(name, n, holds, witnesses, details)
