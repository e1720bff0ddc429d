"""Exact integer sequences used as enumeration references.

Everything here is arbitrary-precision integer arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Sequence


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

    Computed as (1/(n+1)) * sum_j (-1)^j C(n+1, j) C(2n - j*k, n); the division
    is always exact and is asserted rather than rounded.
    """
    if k_minus_1 < 2:
        raise ValueError("parameter must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    k = k_minus_1 + 1
    total = sum(
        (-1) ** j * comb(n + 1, j) * comb(2 * n - j * k, n)
        for j in range(n // k + 1)
    )
    q, r = divmod(total, n + 1)
    if r:
        raise ArithmeticError(
            f"generalized Motzkin sum {total} not divisible by {n + 1}"
        )
    return q


@lru_cache(maxsize=None)
def _fine_values(upto: int) -> tuple[int, ...]:
    # y = x + y^2 term by term (y_n = catalan(n-1) for n >= 1), then
    # F * (1 + y) = y solved for the series F.
    y = [0] * (upto + 1)
    if upto >= 1:
        y[1] = 1
    for n in range(2, upto + 1):
        y[n] = sum(y[i] * y[n - i] for i in range(1, n))
    f = [0] * (upto + 1)
    for n in range(upto + 1):
        f[n] = y[n] - sum(y[i] * f[n - i] for i in range(1, n + 1))
    return tuple(f)


def fine(k: int) -> int:
    """Coefficient of x^k in (1 - sqrt(1-4x)) / (3 - sqrt(1-4x)).

    Exact truncated series arithmetic; F_0 = 0 under this generating function.
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
    """b_n = sum_k C(n, k) a_k."""
    return tuple(
        sum(comb(n, k) * seq[k] for k in range(n + 1)) for n in range(len(seq))
    )


def first_differences(seq: Sequence[int]) -> tuple[int, ...]:
    return tuple(seq[i + 1] - seq[i] for i in range(len(seq) - 1))


@dataclass(frozen=True)
class SequenceTable:
    """A named integer sequence with an offset, for goldens and b-file export."""

    name: str
    offset: int
    values: tuple[int, ...]

    def bfile_lines(self) -> list[str]:
        return [f"{self.offset + i} {v}" for i, v in enumerate(self.values)]


_NAMED: dict[str, tuple[int, Callable[[int], int]]] = {
    "catalan": (0, catalan),
    "motzkin": (0, motzkin),
    "fine": (0, fine),
    "fine-transform": (0, fine_binomial_transform),
    "motzkin-diff": (0, motzkin_difference),
    "central-binomial": (0, central_binomial),
}


def named_sequence(name: str, upto: int) -> SequenceTable:
    """Resolve a sequence name ("genmotzkin:<k>" takes the extra parameter)."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if name.startswith("genmotzkin:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed sequence name: {name!r}") from None
        values = tuple(generalized_motzkin(k - 1, n) for n in range(upto + 1))
        return SequenceTable(name, 0, values)
    if name not in _NAMED:
        raise ValueError(f"unknown sequence name: {name!r}")
    offset, fn = _NAMED[name]
    return SequenceTable(name, offset, tuple(fn(n) for n in range(upto + 1)))
