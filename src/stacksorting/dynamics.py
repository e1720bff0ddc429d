"""Iteration of the stack machines: orbits, periodic points, and the
conjecture probes.

A probe verifies a conjecture's statement exhaustively at desk scale; a
failed conjecture is a normal result carried in the report, never an error.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Iterable, Sequence

from . import bounds, preimages, sequences, sortable
from .machine import (
    MachineSpec,
    _compiled_runner,
    classical_machine,
    consecutive_machine,
    scan,
)
from .permutations import (
    Perm,
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
    seen: dict[Perm, int] = {}
    seq: list[Perm] = []
    x = tuple(perm)
    while x not in seen:
        seen[x] = len(seq)
        seq.append(x)
        x = runner(x)
    first = seen[x]
    seq.append(x)
    return OrbitReport(tuple(seq), first, len(seq) - 1 - first)


def periodic_points(spec: MachineSpec, n: int, max_n: int = bounds.SCAN_BOUND) -> set[Perm]:
    """All permutations of [n] lying on a cycle of the machine.

    Computed in one pass: build the full image map of S_n, then peel the
    permutations nobody maps to.
    """
    bounds.check_scan_bound(n, max_n, "periodic_points")
    image: dict[Perm, Perm] = dict(scan(spec, n))
    indegree = Counter(image.values())
    queue = [p for p in image if p not in indegree]
    dead: set[Perm] = set()
    while queue:
        p = queue.pop()
        dead.add(p)
        q = image[p]
        indegree[q] -= 1
        if indegree[q] == 0:
            queue.append(q)
    return {p for p in image if p not in dead}


def cycle_periods(spec: MachineSpec, points: Iterable[Perm]) -> set[int]:
    """Cycle lengths occurring among the given periodic points."""
    runner = _compiled_runner(spec)
    periods: set[int] = set()
    remaining = set(points)
    while remaining:
        start = remaining.pop()
        x = runner(start)
        steps = 1
        while x != start:
            remaining.discard(x)
            x = runner(x)
            steps += 1
        periods.add(steps)
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
    ascending (odd values first for odd k, even values first for even k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top = 3 * k + 1
    odds = [v for v in range(1, top + 1) if v % 2 == 1]
    evens = [v for v in range(1, top + 1) if v % 2 == 0]
    if k % 2 == 1:
        return tuple(sorted(odds, reverse=True) + sorted(evens))
    return tuple(sorted(evens, reverse=True) + sorted(odds))


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


def probe_settling_bound(n: int, max_n: int = bounds.SCAN_BOUND) -> ConjectureReport:
    """Does every orbit of the 231 consecutive machine settle within 2n-4 steps,
    with some orbit needing all of them?"""
    if n < 3:
        raise ValueError("n must be >= 3")
    bounds.check_scan_bound(n, max_n, "probe_settling_bound")
    spec = consecutive_machine((2, 3, 1))
    runner = _compiled_runner(spec)
    cap = 2 * n - 4
    holds = True
    slow: Perm | None = None
    violator: Perm | None = None
    for p, x in scan(spec, n):
        if is_vee_shaped(p):
            continue
        t = 1
        while t <= cap and not is_vee_shaped(x):
            x = runner(x)
            t += 1
        if t > cap:
            holds = False
            violator = violator or p
        elif t == cap and slow is None:
            slow = p
    witnesses = []
    if slow is not None:
        witnesses.append({"kind": "slow", "perm": format_permutation(slow)})
    if violator is not None:
        witnesses.append({"kind": "violation", "perm": format_permutation(violator)})
    return ConjectureReport(
        "2n-4",
        n,
        holds,
        tuple(witnesses),
        {"bound": cap, "slow_witness_found": slow is not None},
    )


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
    if n < 3:
        raise ValueError("n must be >= 3")
    bounds.check_scan_bound(n, max_n, "probe_vee_limit")
    spec = classical_machine((1, 3, 2))
    runner = _compiled_runner(spec)
    target = vee_limit(n)
    holds = True
    slow_count = 0
    first_slow: Perm | None = None
    bad: Perm | None = None
    for p, x in scan(spec, n):
        for _ in range(n - 3):
            x = runner(x)
        if is_vee_shaped(x):
            continue
        slow_count += 1
        if first_slow is None:
            first_slow = p
        if runner(x) != target:
            holds = False
            bad = bad or p
    witnesses = []
    if first_slow is not None:
        witnesses.append({"kind": "slow", "perm": format_permutation(first_slow)})
    if bad is not None:
        witnesses.append({"kind": "violation", "perm": format_permutation(bad)})
    return ConjectureReport(
        "vn-limit",
        n,
        holds,
        tuple(witnesses),
        {"limit": format_permutation(target), "slow_count": slow_count},
    )


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
        sizes = preimages.fertility_spectrum(spec, n_max, max_n=max_n)
        gaps = preimages.spectrum_gaps(sizes)
        prefix = 0
        while prefix + 1 in sizes:
            prefix += 1
        previous_max = max(
            preimages.fertility_spectrum(spec, n_max - 1, max_n=max_n), default=0
        )
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


CONJECTURE_NAMES = (
    "fine-transform",
    "general-periodic",
    "2n-4",
    "fertility-spectrum",
    "vn-limit",
)


def run_conjecture(
    name: str,
    n: int,
    sigma: Sequence[int] | None = None,
    max_n: int = bounds.SCAN_BOUND,
) -> ConjectureReport:
    """Evaluate one named conjecture at every applicable size up to n.

    Raises ValueError when no size up to n applies (``2n-4`` and ``vn-limit``
    start at n = 3, ``general-periodic`` at n = 1), rather than report a
    vacuous verdict.
    """
    if name == "fine-transform":
        return probe_fine_transform(n, max_n=max_n)
    if name == "fertility-spectrum":
        return probe_fertility_spectrum(n, max_n=max_n)
    if name == "2n-4":
        reports = [probe_settling_bound(m, max_n=max_n) for m in range(3, n + 1)]
        return _aggregate("2n-4", n, reports)
    if name == "vn-limit":
        reports = [probe_vee_limit(m, max_n=max_n) for m in range(3, n + 1)]
        return _aggregate("vn-limit", n, reports)
    if name == "general-periodic":
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
    raise ValueError(f"unknown conjecture name: {name!r}")


def _aggregate(name: str, n: int, reports: list[ConjectureReport]) -> ConjectureReport:
    if not reports:
        raise ValueError(f"conjecture {name} has no case to check up to n = {n}")
    holds = all(r.holds for r in reports)
    witnesses = tuple(w for r in reports for w in r.witnesses)
    details = {"cases": [dict(r.details, n=r.n, holds=r.holds) for r in reports]}
    return ConjectureReport(name, n, holds, witnesses, details)
