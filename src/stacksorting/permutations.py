"""Permutations in one-line notation, and pattern containment in three modes.

A permutation is a plain tuple of ints holding the values 1..n, each exactly
once; the empty tuple is the empty permutation.  Pattern containment is
expressed through a single adjacency-set representation: an occurrence of a
pattern of length k is a subsequence of the host with the same relative order,
and for every position i in the adjacency set the occurrence entries at
pattern positions i, i+1 must sit next to each other in the host.  The empty
adjacency set gives classical containment, the full set {1, .., k-1} gives
consecutive containment, and anything in between is a vincular pattern.

Every occurrence search runs one body generated from the patterns
(``_compiled_feed``): a stack-machine feed whose push test is inlined as nested
loops over the stack depths of the occurrence entries after the first, with a
single step for each adjacent position.  The machines run it as is;
``contains`` and ``pattern_avoiders`` run it on the mirrored patterns, whose
stack is a host prefix (``_prefix_feed``).  The tests check it against a
backtracking reference search of their own.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

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


# ---------------------------------------------------------------------------
# the generated occurrence search
# ---------------------------------------------------------------------------

# CPython compiles at most 20 nested loops into one function, two of which the
# feed's own loops take, and parses fewer than 100 levels of indentation.  An
# occurrence search continues in a further generated function before its loops
# would pass _MAX_LOOPS, or a level, with room for one more below it, would
# reach _MAX_INDENT.
_MAX_LOOPS = 18
_MAX_INDENT = 100


def _plus(name: str, off: int) -> str:
    """Source of ``name + off``; an empty ``name`` stands for 0."""
    if not name:
        return str(off)
    if off == 0:
        return name
    return f"{name} + {off}" if off > 0 else f"{name} - {-off}"


def _feed_source(patterns: tuple[PatternSpec, ...], name: str) -> str:
    """Source of the machine body ``<name>(stack, out, values)``.

    For each incoming entry c the body pops the top of ``stack`` (bottom to
    top) to ``out`` while pushing c would create an occurrence of a forbidden
    pattern, then pushes c.  The occurrence must start at c, so each pattern of
    length k is one block of nested levels over the stack depths i1 < i2 < ..
    < i(k-1) of its other entries v1, v2, .., read as ``stack[-i]``.  A level
    whose position is in the pattern's adjacency set is the single step one
    below the level above, not a loop.  Each level checks that its entry lies
    between the two nearest of c, v1, .. in the pattern's value order, which
    makes the chosen entries order-isomorphic to the pattern.

    A loop at the last level walks the stack below the level above as an
    iterator.  When the level above is a loop too, both walk one iterator, side
    by side: the upper one stops at its first fitting entry and the lower one
    continues from there, where an entry that fits the upper level with more
    room for the last entry (the larger when the last entry lies below it, the
    smaller when it lies above) replaces it.  A found occurrence pops and
    retests: a loop-free block by ``continue``, a looped one by leaving its
    loops (``break``, ``else: continue``) and retesting if it popped.  Only
    integers derived from the validated pattern enter the source.
    """
    feed = [
        f"def {name}(stack, out, values):",
        "    for c in values:",
        "        while stack:",
        "            n = len(stack)",
    ]
    functions = [feed]

    def found(lines: list[str], pad: str, loop_pads: list[str]) -> None:
        if lines is not feed:
            lines.append(f"{pad}return True")
            return
        lines.append(f"{pad}out.append(stack.pop())")
        if not loop_pads:
            lines.append(f"{pad}continue")
            return
        lines.append(f"{pad}break")
        for inner in reversed(loop_pads[1:]):
            lines += [f"{inner}else:", f"{inner}    continue", f"{inner}break"]
        outer = loop_pads[0]
        lines += [f"{outer}if len(stack) < n:", f"{outer}    continue"]

    for j, pat in enumerate(patterns):
        body, k = pat.body, len(pat.body)
        lines, pad = feed, "            "
        lines.append(f"{pad}if n >= {k - 1}:")
        pad += "    "
        base, off, loop_pads = "", 0, []  # the level above sits at depth base + off
        pair = k > 2 and not {k - 2, k - 1} & pat.adjacency
        for t in range(1, k):
            earlier = sorted((body[s], f"v{s}" if s else "c") for s in range(t))
            lo = [ref for value, ref in earlier if value < body[t]][-1:]
            hi = [ref for value, ref in earlier if value > body[t]][:1]
            chain = " < ".join(lo + [f"v{t}"] + hi)
            if pair and t == k - 1:
                # the lower loop of the pair resumes the upper one's iterator
                up = f"v{t - 1}"
                lines.append(f"{pad}for v{t} in it:")
                pad += "    "
                if up in lo + hi:
                    # keep the smallest fitting upper entry if v{t} lies above it, else the largest
                    better = up_lo + [f"v{t}", up] if lo == [up] else [up, f"v{t}"] + up_hi
                    lines += [f"{pad}if {' < '.join(better)}:", f"{pad}    {up} = v{t}"]
                    lines.append(f"{pad}elif {chain}:")
                else:
                    lines.append(f"{pad}if {chain}:")
                pad += "    "
                continue
            loop = t not in pat.adjacency
            if len(pad) // 4 + 2 + loop >= _MAX_INDENT or loop and len(loop_pads) == _MAX_LOOPS:
                helper = f"blocked_{j}_{t}"
                values = ", ".join(f"v{s}" for s in range(1, t))
                lines.append(f"{pad}if {helper}(stack, n, c, {values}, {_plus(base, off)}):")
                found(lines, pad + "    ", loop_pads)
                lines = [f"def {helper}(stack, n, c, {values}, d):"]
                functions.append(lines)
                pad, base, off, loop_pads = "    ", "d", 0, []
            rest = f"stack[:{_plus('-' + base if base else '', -off)}]" if base or off else "stack"
            if not loop:
                off += 1
                lines.append(f"{pad}v{t} = stack[{_plus('-' + base if base else '', -off)}]")
            elif pair and t == k - 2:
                # the upper loop of the pair stops at its first fitting entry
                lines += [f"{pad}it = reversed({rest})", f"{pad}for v{t} in it:",
                          f"{pad}    if {chain}:", f"{pad}        break"]
                loop_pads.append(pad)
                up_lo, up_hi = lo, hi
                continue
            elif t == k - 1:
                lines.append(f"{pad}for v{t} in reversed({rest}):")
                loop_pads.append(pad)
                pad += "    "
            else:
                lines.append(
                    f"{pad}for i{t} in range({_plus(base, off + 1)}, {_plus('n', t + 2 - k)}):"
                )
                loop_pads.append(pad)
                pad += "    "
                base, off = f"i{t}", 0
                lines.append(f"{pad}v{t} = stack[-i{t}]")
            lines.append(f"{pad}if {chain}:")
            pad += "    "
        found(lines, pad, loop_pads)
    feed += ["            break", "        stack.append(c)"]
    for lines in functions[1:]:
        lines.append("    return False")
    return "\n".join(line for lines in functions for line in lines) + "\n"


@lru_cache(maxsize=None)
def _compiled_feed(patterns: tuple[PatternSpec, ...]) -> Callable[[list[int], list[int], Iterable[int]], None]:
    """Build a fast resumable machine body: ``feed(stack, out, values)``.

    Pushes ``values`` one by one onto ``stack`` (bottom to top), appending
    every pop to ``out``; the stack is not drained, so a copy of the state can
    be resumed with further input.  The function's name, ``feed_<variant>``,
    labels the variant.
    """
    name = "feed_consecutive" if all(p.is_consecutive for p in patterns) else "feed_generic"
    namespace: dict = {}
    exec(compile(_feed_source(patterns, name), f"<generated {name}>", "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=None)
def _prefix_feed(patterns: tuple[PatternSpec, ...]) -> Callable[[list[int], list[int], Iterable[int]], None]:
    """The feed of the mirrored patterns, the reversed bodies with adjacency
    {k - t}.  Its stack is a host prefix, read bottom to top: an occurrence
    ending at a new entry is a mirrored one starting at it, so a feed step
    pops iff the new entry ends an occurrence."""
    return _compiled_feed(tuple(
        PatternSpec(reverse(p.body), frozenset(len(p.body) - t for t in p.adjacency))
        for p in patterns
    ))


def _walk(
    feed: Callable, stack: list[int], out: list[int], rest: list[int], depth: int,
    cut: Callable[[list[int], list[int]], object] | None,
) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """Each state that feeding ``depth`` values of ``rest``, in every order,
    onto (``stack``, ``out``) reaches, as ``(stack, out, values left)``; in
    lexicographic order when ``rest`` is sorted.

    Depth first: each value of ``rest`` in turn is fed onto a copy of the
    parent state, and a child for which ``cut(stack, out)`` holds is dropped
    with everything under it.  The start state is not tested.

    >>> feed = _prefix_feed((classical((2, 1)),))  # pops once 21 ends the prefix
    >>> [(s, rest) for s, _, rest in _walk(feed, [], [], [1, 2, 3], 2, lambda s, o: o)]
    [([1, 2], [3]), ([1, 3], [2]), ([2, 3], [1])]
    """
    if depth == 0:
        yield stack, out, rest
        return
    for v in rest:
        s = stack.copy()
        o = out.copy()
        feed(s, o, (v,))
        if cut is None or not cut(s, o):
            yield from _walk(feed, s, o, [w for w in rest if w != v], depth - 1, cut)


def contains(host: Sequence[int], pattern: PatternSpec) -> bool:
    """True iff ``host`` contains an occurrence of ``pattern``.

    The entries of ``host`` must be distinct, as the generated search compares
    them strictly, but need not be 1..n.  Fed into ``_prefix_feed``, the host
    pops an entry iff some prefix ends in an occurrence.

    >>> contains((3, 1, 4, 2), consecutive((2, 3, 1)))
    False
    >>> contains((3, 1, 4, 2), classical((2, 3, 1)))
    True
    """
    out: list[int] = []
    _prefix_feed((pattern,))([], out, host)
    return bool(out)


# ---------------------------------------------------------------------------
# runs and statistics
# ---------------------------------------------------------------------------

def _runs(perm: Sequence[int], breaks: Callable[[int, int], bool]) -> tuple[Perm, ...]:
    """Maximal consecutive blocks, split between u and v wherever ``breaks(u, v)``."""
    runs: list[list[int]] = []
    for v in perm:
        if runs and not breaks(runs[-1][-1], v):
            runs[-1].append(v)
        else:
            runs.append([v])
    return tuple(map(tuple, runs))


def ascending_runs(perm: Sequence[int]) -> tuple[Perm, ...]:
    """Maximal consecutive increasing blocks.

    >>> ascending_runs((7, 8, 6, 2, 3, 5, 1))
    ((7, 8), (6,), (2, 3, 5), (1,))
    """
    return _runs(perm, operator.gt)


def descending_runs(perm: Sequence[int]) -> tuple[Perm, ...]:
    """Maximal consecutive decreasing blocks."""
    return _runs(perm, operator.lt)


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
    # right to left: a D at k precedes every A after it; an A at k adds none
    out = [0]
    ascents = 0
    for ch in reversed(word):
        out.append(ascents if ch == "D" else out[-1])
        ascents += ch == "A"
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def all_permutations(n: int) -> Iterator[Perm]:
    """Every permutation of [n] exactly once, in lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return iter(itertools.permutations(range(1, n + 1)))


def pattern_avoiders(n: int, patterns: Iterable[PatternSpec]) -> Iterator[Perm]:
    """Permutations of [n] avoiding every given pattern, in lexicographic order.

    A generating tree (West, 1996): every prefix of an avoider avoids the
    patterns, so ``_walk`` extends each avoiding prefix, as the stack of
    ``_prefix_feed``, and cuts it when that feed step pops.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    leaves = _walk(_prefix_feed(tuple(patterns)), [], [], list(range(1, n + 1)), n, lambda s, o: o)
    return (tuple(stack) for stack, _, _ in leaves)
