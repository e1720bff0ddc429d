"""Desk-scale resource bounds for exhaustive scans over S_n."""

# Single pass over S_n (machine image tallies, fibers, counting scans).
SCAN_BOUND = 9

# The closure test (is_downward_closed), which checks every one-point deletion
# of each member of length 1..max_n.
PAIRWISE_BOUND = 8

# Last index of a named integer sequence (``seq --upto``).  At 1000 every name
# builds its table in at most 0.5 s (2-CPU Xeon, Python 3.11); near 7000 a
# Catalan number passes Python's 4300-digit str() limit.
SEQ_BOUND = 1000


class ResourceBoundError(RuntimeError):
    """An exhaustive operation was asked to exceed its desk-scale bound."""


def check_scan_bound(n: int, max_n: int, what: str) -> None:
    if n > max_n:
        raise ResourceBoundError(
            f"{what} requires n <= {max_n}, got n = {n}; "
            f"pass a larger max_n (or --unsafe-n) to override"
        )
