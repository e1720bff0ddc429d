"""Iteration of the stack machines: orbits, periodic points, and the
conjecture probes.

A probe verifies a conjecture's statement exhaustively at desk scale; a
failed conjecture is a normal result carried in the report, never an error.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from . import bounds, preimages, sequences, sortable
from .machine import (
    MachineSpec,
    _compiled_runner,
    _ranker,
    classical_machine,
    consecutive_machine,
    image_map,
    rank,
)
from .permutations import (
    Perm,
    all_permutations,
    consecutive,
    format_permutation,
    is_vee_shaped,
    pattern_avoiders,
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


def _cyclic_ranks(image: array) -> set[int]:
    """The ranks on a cycle of the map: its eventual image, the ranks hit, then
    those hit from them, until the set stops shrinking and the map is onto it."""
    live = set(image)
    while len(shrunk := set(map(image.__getitem__, live))) < len(live):
        live = shrunk
    return live


def periodic_points(spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND) -> set[Perm]:
    """All permutations of [n] lying on a cycle of the machine."""
    bounds.check_scan_bound(n, max_n, "periodic_points")
    image = image_map(spec, n)
    live = _cyclic_ranks(image)
    return set(itertools.compress(all_permutations(n), map(live.__contains__, range(len(image)))))


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
    return image_map(spec, n), bytearray(not is_vee_shaped(p) for p in all_permutations(n))


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


def _unrank(n: int, r: int) -> Perm:
    """The permutation of rank r in the lexicographic order of S_n."""
    return next(itertools.islice(all_permutations(n), r, None))


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


def probe_general_periodic(
    sigma: Sequence[int], n: int, max_n: int = bounds.SCAN_BOUND
) -> ConjectureReport:
    """Are the periodic points exactly the avoiders of the pattern and its
    reverse as consecutive patterns?"""
    sigma = tuple(sigma)
    if len(sigma) < 3:
        raise ValueError(
            "the periodic-point conjecture concerns patterns of length >= 3"
        )
    spec = consecutive_machine(sigma)
    bounds.check_scan_bound(n, max_n, "probe_general_periodic")
    image = image_map(spec, n)
    live = _cyclic_ranks(image)
    avoiders = pattern_avoiders(n, [consecutive(sigma), consecutive(reverse(sigma))])
    expected = set(map(_ranker(n), avoiders))
    # the first few of each difference, in rank (lexicographic) order
    witnesses = tuple(
        {"kind": kind, "perm": format_permutation(_unrank(n, r))}
        for kind, ranks in (
            ("unexpected_periodic", live - expected),
            ("missing_periodic", expected - live),
        )
        for r in sorted(ranks)[:3]
    )
    details = {
        "pattern": format_permutation(sigma),
        "periodic_count": len(live),
        "observed_periods": sorted(_cycle_lengths(image.__getitem__, live)),
    }
    return ConjectureReport("general-periodic", n, live == expected, witnesses, details)


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
    for sigma in itertools.permutations((1, 2, 3)):
        spec = consecutive_machine(sigma)
        # fiber sizes up to the previous bound, then at n_max: each S_n tallied once
        previous = preimages.fertility_spectrum(spec, n_max - 1, max_n=max_n)
        sizes = previous | set(preimages.image_tally(spec, n_max, max_n=max_n).values())
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
        sigmas = [
            s
            for k in (3, 4)
            for s in itertools.permutations(range(1, k + 1))
        ]
    reports = [
        probe_general_periodic(s, m, max_n=max_n)
        for s in sigmas
        for m in range(1, n + 1)
    ]
    return _aggregate("general-periodic", n, reports)


def _aggregate(name: str, n: int, reports: list[ConjectureReport]) -> ConjectureReport:
    holds = all(r.holds for r in reports)
    witnesses = tuple(w for r in reports for w in r.witnesses)
    details = {"cases": [dict(r.details, n=r.n, holds=r.holds) for r in reports]}
    return ConjectureReport(name, n, holds, witnesses, details)
