"""Iteration of the stack machines: orbits, periodic points, and the
conjecture probes.

A probe verifies a conjecture's statement exhaustively at desk scale; a
failed conjecture is a normal result carried in the report, never an error.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Iterable, Sequence

from . import bounds, preimages, sequences, sortable
from .machine import (
    MachineSpec,
    _compiled_runner,
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


def periodic_points(spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND) -> set[Perm]:
    """All permutations of [n] lying on a cycle of the machine.

    The eventual image of the image map: the ranks hit, then those hit from
    them, and so on until the set stops shrinking, when the map is onto it.
    """
    bounds.check_scan_bound(n, max_n, "periodic_points")
    image = image_map(spec, n)
    live = range(len(image))
    while len(shrunk := set(map(image.__getitem__, live))) < len(live):
        live = shrunk
    return set(itertools.compress(all_permutations(n), map(live.__contains__, range(len(image)))))


def cycle_periods(spec: MachineSpec, points: Iterable[Perm]) -> set[int]:
    """Cycle lengths occurring among the given periodic points; ValueError for
    a point that is not periodic, whose orbit returns to another entry."""
    runner = _compiled_runner(spec)
    periods: set[int] = set()
    remaining = set(points)
    while remaining:
        x = start = remaining.pop()
        cycle = {start}
        while (x := runner(x)) != start:
            if x in cycle:
                raise ValueError(f"not a periodic point: {format_permutation(start)}")
            cycle.add(x)
        remaining -= cycle
        periods.add(len(cycle))
    return periods


def iterations_until(
    spec: MachineSpec,
    perm: Sequence[int],
    in_target: Callable[[Perm], bool],
    cap: int | None = None,
) -> int:
    """Smallest t with the t-th iterate inside the target set.

    The cap defaults to n!; exceeding it means the target set is not actually
    absorbing on this orbit, which is reported as an error.
    """
    x = tuple(perm)
    limit = cap if cap is not None else factorial(len(x)) + 1
    runner = _compiled_runner(spec)
    for t in range(limit + 1):
        if in_target(x):
            return t
        x = runner(x)
    raise RuntimeError(
        f"no iterate of {format_permutation(perm)} reached the target within "
        f"{limit} steps; the target set is not closed under the map"
    )


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
    witnesses = []
    for kind, r in (("slow", slow), ("violation", violation)):
        if r is not None:
            perm = next(itertools.islice(all_permutations(n), r, None))
            witnesses.append({"kind": kind, "perm": format_permutation(perm)})
    return ConjectureReport(name, n, violation is None, tuple(witnesses), details)


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
    points = periodic_points(spec, n, max_n=max_n)
    expected = set(
        pattern_avoiders(n, [consecutive(sigma), consecutive(reverse(sigma))])
    )
    holds = points == expected
    witnesses = []
    for p in sorted(points - expected)[:3]:
        witnesses.append({"kind": "unexpected_periodic", "perm": format_permutation(p)})
    for p in sorted(expected - points)[:3]:
        witnesses.append({"kind": "missing_periodic", "perm": format_permutation(p)})
    periods = sorted(cycle_periods(spec, points)) if points else []
    return ConjectureReport(
        "general-periodic",
        n,
        holds,
        tuple(witnesses),
        {
            "pattern": format_permutation(sigma),
            "periodic_count": len(points),
            "observed_periods": periods,
        },
    )


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
    spec = consecutive_machine((2, 3, 1))
    rows = []
    holds = True
    for n in range(n_max + 1):
        predicted = sequences.fine_binomial_transform(n)
        counted = sortable.count_sortable(spec, n, max_n=max_n)
        rows.append({"n": n, "predicted": predicted, "counted": counted})
        holds = holds and predicted == counted
    witnesses = [
        {"kind": "mismatch", "n": r["n"]} for r in rows if r["predicted"] != r["counted"]
    ]
    return ConjectureReport(
        "fine-transform", n_max, holds, tuple(witnesses), {"rows": rows}
    )


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
    per_pattern = {}
    holds = True
    witnesses = []
    for sigma in itertools.permutations((1, 2, 3)):
        spec = consecutive_machine(sigma)
        # fiber sizes by target length, each S_n tallied once
        by_n = [
            set(preimages.image_tally(spec, n, max_n=max_n).values())
            for n in range(1, n_max + 1)
        ]
        sizes = set().union(*by_n)
        gaps = preimages.spectrum_gaps(sizes)
        prefix = 0
        while prefix + 1 in sizes:
            prefix += 1
        previous_max = max(set().union(*by_n[:-1]), default=0)
        covered = prefix >= previous_max
        per_pattern[format_permutation(sigma)] = {
            "max": max(sizes, default=0),
            "contiguous_to": prefix,
            "previous_bound_max": previous_max,
            "first_gap": gaps[0] if gaps else None,
            "gaps": gaps,
        }
        if not covered:
            holds = False
            witnesses.append(
                {
                    "kind": "uncovered",
                    "pattern": format_permutation(sigma),
                    "missing": next(f for f in gaps if f <= previous_max),
                }
            )
    classic_sizes = preimages.fertility_spectrum(
        classical_machine((2, 1)), min(n_max, 7), max_n=max_n
    )
    return ConjectureReport(
        "fertility-spectrum",
        n_max,
        holds,
        tuple(witnesses),
        {
            "per_pattern": per_pattern,
            "classic_stack_missing_3": 3 not in classic_sizes,
        },
    )


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

    Raises ValueError when no size up to n applies (``fine-transform`` starts
    at n = 0, ``general-periodic`` at n = 1, ``fertility-spectrum`` at n = 2,
    where a previous bound first has fibers, and ``2n-4`` and ``vn-limit`` at
    n = 3), rather than report a vacuous verdict.
    """
    if name not in _FIRST_N:
        raise ValueError(f"unknown conjecture name: {name!r}")
    if n < _FIRST_N[name]:
        raise ValueError(f"conjecture {name} has no case to check up to n = {n}")
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
