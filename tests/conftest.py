import itertools
import time
from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from stacksorting import dynamics, preimages, sortable
from stacksorting.machine import consecutive_machine, machine_of
from stacksorting.permutations import (
    all_permutations,
    classical,
    consecutive,
    occurs_with_first_entry,
    vincular,
)

_ACCEPTANCE: list[tuple[int, str, float, str]] = []


@pytest.fixture
def criterion():
    """Context manager recording one acceptance criterion's verdict."""

    @contextmanager
    def _record(num: int, label: str):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            _ACCEPTANCE.append((num, label, time.perf_counter() - t0, "FAIL"))
            raise
        _ACCEPTANCE.append((num, label, time.perf_counter() - t0, "PASS"))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, secs, status in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"criterion {num:>2} {status:<4} ({secs:6.1f}s)  {label}")


@pytest.fixture
def no_scan(monkeypatch):
    """Make every scan that a bound check should forestall fail the test."""
    def scan(*args, **kwargs):
        raise AssertionError("scanned before the bound check")

    monkeypatch.setattr(dynamics, "image_map", scan)
    monkeypatch.setattr(sortable, "count_sortable", scan)
    monkeypatch.setattr(preimages, "image_tally", scan)


# --- shared machines -------------------------------------------------------

def every_machine_shape():
    """Every body of length 2 to 4 in all three modes, and the {123, 321} pair.

    (At length 2 the vincular {1} mode is the consecutive one.)
    """
    specs = []
    for k in (2, 3, 4):
        for body in itertools.permutations(range(1, k + 1)):
            for pat in (consecutive(body), classical(body), vincular(body, (1,))):
                specs.append(machine_of([pat]))
    specs.append(consecutive_machine((1, 2, 3), (3, 2, 1)))
    return list(dict.fromkeys(specs))


# --- reference containment -----------------------------------------------

def contains_reference(host, pattern):
    """Containment by the backtracking reference search, apart from the
    generated search behind ``contains``."""
    return any(occurs_with_first_entry(host[i:], pattern) for i in range(len(host)))


def avoiders_reference(n, patterns):
    """The permutations of [n] avoiding every pattern, in lexicographic order,
    by ``contains_reference``."""
    return [p for p in all_permutations(n)
            if not any(contains_reference(p, q) for q in patterns)]


# --- shared hypothesis strategies -----------------------------------------

def permutations_up_to(max_n: int, min_n: int = 0):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(tuple)


def pattern_bodies(max_len: int = 4):
    return st.integers(2, max_len).flatmap(
        lambda k: st.permutations(list(range(1, k + 1)))
    ).map(tuple)


def _tree_to_dyck(tree) -> str:
    if tree is None:
        return ""
    left, right = tree
    return "U" + _tree_to_dyck(left) + "D" + _tree_to_dyck(right)


def dyck_words(max_semilength: int = 8):
    trees = st.recursive(st.none(), lambda c: st.tuples(c, c), max_leaves=max_semilength + 1)
    return trees.map(_tree_to_dyck)
