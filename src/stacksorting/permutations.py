"""Permutations in one-line notation, and pattern containment in three modes.

A permutation is a plain tuple of ints holding the values 1..n, each exactly
once; the empty tuple is the empty permutation.  Pattern containment is
expressed through a single adjacency-set representation: an occurrence of a
pattern of length k is a subsequence of the host with the same relative order,
and for every position i in the adjacency set the occurrence entries at
pattern positions i, i+1 must sit next to each other in the host.  The empty
adjacency set gives classical containment, the full set {1, .., k-1} gives
consecutive containment, and anything in between is a vincular pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# basic values
# ---------------------------------------------------------------------------

def is_permutation(word: Sequence[int]) -> bool:
    """True iff ``word`` holds each of 1..len(word) exactly once.

    >>> is_permutation((2, 6, 5, 4, 1, 3))
    True
    >>> is_permutation((1, 1, 2))
    False
    """
    n = len(word)
    seen = [False] * (n + 1)
    for v in word:
        if not (1 <= v <= n) or seen[v]:
            return False
        seen[v] = True
    return True


def as_permutation(word: Iterable[int]) -> Perm:
    """Validate ``word`` and return it as a permutation tuple."""
    p = tuple(word)
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def standardize(word: Sequence[int]) -> Perm:
    """Replace the i-th smallest entry by i.

    >>> standardize((4, 8, 2, 9))
    (2, 3, 1, 4)
    """
    if len(set(word)) != len(word):
        raise ValueError(f"entries must be distinct: {tuple(word)!r}")
    rank = {v: i for i, v in enumerate(sorted(word), start=1)}
    return tuple(rank[v] for v in word)


def reverse(perm: Sequence[int]) -> Perm:
    return tuple(reversed(perm))


def complement(perm: Sequence[int]) -> Perm:
    """Map each value v to n+1-v."""
    n = len(perm)
    return tuple(n + 1 - v for v in perm)


def swap_first_two(perm: Sequence[int]) -> Perm:
    """Exchange the entries in positions 1 and 2."""
    if len(perm) < 2:
        raise ValueError("need length >= 2 to swap the first two entries")
    p = tuple(perm)
    return (p[1], p[0]) + p[2:]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def decreasing(n: int) -> Perm:
    return tuple(range(n, 0, -1))


# ---------------------------------------------------------------------------
# text form: digit string for n <= 9, comma-separated for n >= 10
# ---------------------------------------------------------------------------

def parse_permutation(text: str) -> Perm:
    """Parse "265413" or "12,13,11,8,9,10,6,7,5,1,2,3,4"."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        try:
            values = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"malformed permutation text: {text!r}") from None
    else:
        if not text.isdigit() or "0" in text:
            raise ValueError(f"malformed permutation text: {text!r}")
        values = tuple(int(ch) for ch in text)
    return as_permutation(values)


def format_permutation(perm: Sequence[int]) -> str:
    if len(perm) >= 10:
        return ",".join(str(v) for v in perm)
    return "".join(str(v) for v in perm)


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternSpec:
    """A pattern body together with the positions that must be adjacent.

    ``adjacency`` holds 1-based positions i (1 <= i < k) meaning the
    occurrence entries at pattern positions i and i+1 must be adjacent in the
    host.
    """

    body: Perm
    adjacency: frozenset[int]

    def __post_init__(self):
        body = as_permutation(self.body)
        object.__setattr__(self, "body", body)
        k = len(body)
        if k < 2:
            raise ValueError(f"pattern body must have length >= 2, got {body!r}")
        adjacency = frozenset(self.adjacency)
        if not all(1 <= i < k for i in adjacency):
            raise ValueError(f"adjacency positions must lie in 1..{k - 1}: {sorted(adjacency)}")
        object.__setattr__(self, "adjacency", adjacency)

    @property
    def is_classical(self) -> bool:
        return not self.adjacency

    @property
    def is_consecutive(self) -> bool:
        return len(self.adjacency) == len(self.body) - 1

    def mode_name(self) -> str:
        if self.is_classical:
            return "classical"
        if self.is_consecutive:
            return "consecutive"
        return "vincular:" + ",".join(str(i) for i in sorted(self.adjacency))

    def __str__(self) -> str:
        return f"{format_permutation(self.body)}[{self.mode_name()}]"


def classical(body: Iterable[int]) -> PatternSpec:
    return PatternSpec(tuple(body), frozenset())


def consecutive(body: Iterable[int]) -> PatternSpec:
    b = tuple(body)
    return PatternSpec(b, frozenset(range(1, len(b))))


def vincular(body: Iterable[int], adjacency: Iterable[int]) -> PatternSpec:
    return PatternSpec(tuple(body), frozenset(adjacency))


@lru_cache(maxsize=None)
def _rel_pairs(body: Perm) -> tuple[tuple[int, int, bool], ...]:
    """All (i, j, body[i] < body[j]) with i < j; order-isomorphism table.

    Cached per pattern body, as containment tests ask for it on every call.
    """
    k = len(body)
    return tuple(
        (i, j, body[i] < body[j]) for i in range(k) for j in range(i + 1, k)
    )


def _window_matches(host: Sequence[int], start: int, rel) -> bool:
    for i, j, less in rel:
        if (host[start + i] < host[start + j]) != less:
            return False
    return True


def _occurrence_search(
    host: Sequence[int],
    body: Sequence[int],
    adjacency: frozenset[int],
    fix_first_at: int | None = None,
) -> bool:
    """Backtracking search for one occurrence honoring adjacency constraints."""
    k = len(body)
    n = len(host)
    if k > n:
        return False
    chosen_vals: list[int] = []

    def extend(t: int, prev_idx: int) -> bool:
        if t == k:
            return True
        if t in adjacency:
            candidates = range(prev_idx + 1, prev_idx + 2)
        elif t == 0:
            lo = fix_first_at if fix_first_at is not None else 0
            hi = lo + 1 if fix_first_at is not None else n - (k - 1)
            candidates = range(lo, hi)
        else:
            candidates = range(prev_idx + 1, n - (k - t) + 1)
        bt = body[t]
        for idx in candidates:
            if idx >= n:
                break
            v = host[idx]
            ok = True
            for s in range(t):
                if (chosen_vals[s] < v) != (body[s] < bt):
                    ok = False
                    break
            if not ok:
                continue
            chosen_vals.append(v)
            if extend(t + 1, idx):
                return True
            chosen_vals.pop()
        return False

    return extend(0, -1)


def contains(host: Sequence[int], pattern: PatternSpec) -> bool:
    """True iff ``host`` contains an occurrence of ``pattern``.

    >>> contains((3, 1, 4, 2), consecutive((2, 3, 1)))
    False
    >>> contains((3, 1, 4, 2), classical((2, 3, 1)))
    True
    """
    body = pattern.body
    k = len(body)
    n = len(host)
    if k > n:
        return False
    if pattern.is_consecutive:
        rel = _rel_pairs(body)
        return any(_window_matches(host, s, rel) for s in range(n - k + 1))
    return _occurrence_search(host, body, pattern.adjacency)


def avoids(host: Sequence[int], *patterns: PatternSpec) -> bool:
    return not any(contains(host, p) for p in patterns)


def occurs_with_first_entry(host: Sequence[int], pattern: PatternSpec) -> bool:
    """True iff some occurrence of ``pattern`` uses host[0] as its first entry."""
    return _occurrence_search(host, pattern.body, pattern.adjacency, fix_first_at=0)


# ---------------------------------------------------------------------------
# runs and statistics
# ---------------------------------------------------------------------------

def ascending_runs(perm: Sequence[int]) -> tuple[Perm, ...]:
    """Maximal consecutive increasing blocks.

    >>> ascending_runs((7, 8, 6, 2, 3, 5, 1))
    ((7, 8), (6,), (2, 3, 5), (1,))
    """
    runs: list[Perm] = []
    cur: list[int] = []
    for v in perm:
        if cur and cur[-1] > v:
            runs.append(tuple(cur))
            cur = [v]
        else:
            cur.append(v)
    if cur:
        runs.append(tuple(cur))
    return tuple(runs)


def descending_runs(perm: Sequence[int]) -> tuple[Perm, ...]:
    runs: list[Perm] = []
    cur: list[int] = []
    for v in perm:
        if cur and cur[-1] < v:
            runs.append(tuple(cur))
            cur = [v]
        else:
            cur.append(v)
    if cur:
        runs.append(tuple(cur))
    return tuple(runs)


def run_ends(run: Sequence[int]) -> Perm:
    """First and last entry of a run (the whole run when its length is <= 2)."""
    if len(run) <= 2:
        return tuple(run)
    return (run[0], run[-1])


def run_interior(run: Sequence[int]) -> Perm:
    """The run without its first and last entry."""
    if len(run) <= 2:
        return ()
    return tuple(run[1:-1])


def left_to_right_minima(perm: Sequence[int]) -> list[int]:
    """Entries strictly smaller than everything before them, in order.

    >>> left_to_right_minima((4, 5, 7, 2, 1, 6, 3))
    [4, 2, 1]
    """
    out: list[int] = []
    lo = None
    for v in perm:
        if lo is None or v < lo:
            out.append(v)
            lo = v
    return out


def is_vee_shaped(perm: Sequence[int]) -> bool:
    """Decreasing prefix followed by an increasing suffix.

    These are exactly the permutations avoiding both 132 and 231 classically.
    """
    i = 0
    n = len(perm)
    while i + 1 < n and perm[i] > perm[i + 1]:
        i += 1
    while i + 1 < n:
        if perm[i] > perm[i + 1]:
            return False
        i += 1
    return True


def peak_valley_count(perm: Sequence[int]) -> int:
    """Number of interior indices that are local maxima or local minima."""
    total = 0
    for i in range(1, len(perm) - 1):
        a, b, c = perm[i - 1], perm[i], perm[i + 1]
        if (a < b > c) or (a > b < c):
            total += 1
    return total


# ---------------------------------------------------------------------------
# reverse-layered permutations and their ascent/descent words
# ---------------------------------------------------------------------------

def is_reverse_layered(perm: Sequence[int]) -> bool:
    """True iff every ascending run's entry set is an interval of integers."""
    for run in ascending_runs(perm):
        if run[-1] - run[0] + 1 != len(run):
            return False
    return True


def descent_word(perm: Sequence[int]) -> str:
    """Encode a reverse-layered permutation as a word over {A, D}.

    The first letter is A; letter j is A when position j extends an ascent and
    D when it starts a new (lower) run.

    >>> descent_word((7, 8, 6, 3, 4, 5, 1, 2))
    'AADDAADA'
    """
    if not is_reverse_layered(perm):
        raise ValueError(f"not reverse-layered: {tuple(perm)!r}")
    if not perm:
        return ""
    letters = ["A"]
    for i in range(1, len(perm)):
        letters.append("A" if perm[i - 1] < perm[i] else "D")
    return "".join(letters)


def from_descent_word(word: str) -> Perm:
    """Rebuild the unique reverse-layered permutation with this ascent/descent word.

    >>> from_descent_word("AADDAADA")
    (7, 8, 6, 3, 4, 5, 1, 2)
    """
    if not word:
        return ()
    if word[0] != "A" or any(ch not in "AD" for ch in word):
        raise ValueError(f"word must be over {{A, D}} and start with A: {word!r}")
    lengths: list[int] = []
    for ch in word:
        if ch == "D" or not lengths:
            lengths.append(1)
        else:
            lengths[-1] += 1
    out: list[int] = []
    top = len(word)
    for length in lengths:
        out.extend(range(top - length + 1, top + 1))
        top -= length
    return tuple(out)


def descent_prefix_counts(word: str) -> tuple[int, ...]:
    """d(k) = number of D's among the first k letters, for k = 0..n."""
    counts = [0]
    for ch in word:
        counts.append(counts[-1] + (ch == "D"))
    return tuple(counts)


def ascent_slot_counts(word: str) -> tuple[int, ...]:
    """a(k) = number of A's after position k preceded by a D in that suffix."""
    n = len(word)
    out = []
    for k in range(n + 1):
        seen_d = False
        c = 0
        for ch in word[k:]:
            if ch == "D":
                seen_d = True
            elif seen_d:
                c += 1
        out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def all_permutations(n: int) -> Iterator[Perm]:
    """Every permutation of [n] exactly once, in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return iter(itertools.permutations(range(1, n + 1)))


def pattern_avoiders(n: int, patterns: Iterable[PatternSpec]) -> Iterator[Perm]:
    """Permutations of [n] avoiding every given pattern, in lexicographic order."""
    pats = tuple(patterns)
    return (p for p in all_permutations(n) if not any(contains(p, q) for q in pats))
