"""Exact integer sequences used as enumeration references.

Everything here is arbitrary-precision integer arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from . import bounds


def catalan(n: int) -> int:
    """C(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)


def motzkin(n: int) -> int:
    """Motzkin numbers via (k + 2) M_k = (2k + 1) M_{k-1} + 3(k - 1) M_{k-2}.

    Iterative; the division is always exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev, cur = 1, 1  # M_{k-2}, M_{k-1}
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k + 1) * cur + 3 * (k - 1) * prev) // (k + 2)
    return cur


def generalized_motzkin(k_minus_1: int, n: int) -> int:
    """The k-generalized Motzkin number with parameter k = k_minus_1 + 1.

    Computed as (1/(n+1)) * sum_j (-1)^j C(n+1, j) C(2n - j*k, n), each
    binomial from the one before by exact ratios; the division is always exact
    and is checked rather than rounded.
    """
    if k_minus_1 < 2:
        raise ValueError("parameter must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    k = k_minus_1 + 1
    total = 0
    a, m, b = 1, 2 * n, comb(2 * n, n)  # C(n+1, j), 2n - j*k, C(2n - j*k, n)
    for j in range(n // k + 1):
        if j:
            a = a * (n + 2 - j) // j
            for _ in range(k):
                b = b * (m - n) // m
                m -= 1
        total += -a * b if j % 2 else a * b
    q, r = divmod(total, n + 1)
    if r:
        raise ArithmeticError(
            f"generalized Motzkin sum {total} not divisible by {n + 1}"
        )
    return q


def _fine_values(upto: int) -> tuple[int, ...]:
    # F = y / (1 + y) with y = x + y^2 (y_k = catalan(k-1)) satisfies
    # (2 + x) F = y + x, i.e. 2 F_k + F_{k-1} = catalan(k-1) for k >= 2.
    f = [0, 1][: upto + 1]
    cat = 1  # catalan(k-1)
    for k in range(2, upto + 1):
        cat = cat * 2 * (2 * k - 3) // k
        f.append((cat - f[-1]) // 2)
    return tuple(f)


def fine(k: int) -> int:
    """Coefficient of x^k in (1 - sqrt(1-4x)) / (3 - sqrt(1-4x)).

    Exact, by the linear recurrence the generating function satisfies; F_0 = 0
    under this generating function.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _fine_values(k)[k]


def fine_binomial_transform(n: int) -> int:
    """sum_{k=0..n} C(n, k) * F_{k+1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    fs = _fine_values(n + 1)
    return sum(comb(n, k) * fs[k + 1] for k in range(n + 1))


def motzkin_difference(n: int) -> int:
    """M_{n+1} - M_n."""
    return motzkin(n + 1) - motzkin(n)


def central_binomial(n: int) -> int:
    """C(n, floor(n/2))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(n, n // 2)


def max_fiber_bound_132(n: int) -> int:
    """C(n-1, floor((n-1)/2)); the largest fiber of the 132 consecutive machine."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return central_binomial(n - 1)


def binomial_transform(seq: Sequence[int]) -> tuple[int, ...]:
    """b_n = sum_k C(n, k) a_k, by repeated sums of neighbours.

    After n rounds, entry j of the row is sum_k C(n, k) a_{j+k}.
    """
    row = list(seq)
    out = []
    while row:
        out.append(row[0])
        row = [a + b for a, b in zip(row, row[1:])]
    return tuple(out)


@dataclass(frozen=True)
class SequenceTable:
    """A named integer sequence with an offset, for goldens and b-file export."""

    name: str
    offset: int
    values: tuple[int, ...]

    def bfile_lines(self) -> list[str]:
        return [f"{self.offset + i} {v}" for i, v in enumerate(self.values)]


def _each(fn: Callable[[int], int]) -> Callable[[int], Sequence[int]]:
    return lambda upto: [fn(n) for n in range(upto + 1)]


# each name's values for n = 0..upto
_TABLES: dict[str, Callable[[int], Sequence[int]]] = {
    "catalan": _each(catalan),
    "motzkin": _each(motzkin),
    "fine": _fine_values,
    "fine-transform": lambda upto: binomial_transform(_fine_values(upto + 1)[1:]),
    "motzkin-diff": _each(motzkin_difference),
    "central-binomial": _each(central_binomial),
}


def named_sequence(
    name: str, upto: int, max_upto: int = bounds.SEQ_BOUND
) -> SequenceTable:
    """Resolve a sequence name ("genmotzkin:<k>" takes the extra parameter)."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if name.startswith("genmotzkin:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed sequence name: {name!r}") from None
        if k < 3:
            raise ValueError(f"genmotzkin:<k> needs k >= 3, got {k}")
        table = _each(lambda n: generalized_motzkin(k - 1, n))
    elif name in _TABLES:
        table = _TABLES[name]
    else:
        raise ValueError(f"unknown sequence name: {name!r}")
    bounds.check_scan_bound(upto, max_upto, "seq --upto")
    return SequenceTable(name, 0, tuple(table(upto)))
