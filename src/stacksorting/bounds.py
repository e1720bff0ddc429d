"""Desk-scale resource bounds for exhaustive scans over S_n."""

# Single pass over S_n (machine image tallies, counting scans).
SCAN_BOUND = 9

# Scans that pay a second factorial-ish factor (per-target fibers, closure tests).
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
