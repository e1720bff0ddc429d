#!/usr/bin/env python3
"""Run every conjecture probe at its desk-scale bound; one JSON verdict per line.

A verdict with holds=false is a scientific result, not a failure; the exit
status follows the CLI contract (0 for any verdict, 3 past the desk-scale
bound).
"""

import argparse
import sys

from stacksorting.cli import main

DEFAULT_BOUNDS = {
    "fine-transform": 9,
    "2n-4": 8,
    "general-periodic": 7,
    "fertility-spectrum": 8,
    "vn-limit": 7,
}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--name", choices=sorted(DEFAULT_BOUNDS), default=None,
                        help="run a single probe instead of all five")
    parser.add_argument("--n", type=int, default=None,
                        help="override the probe's default bound")
    args = parser.parse_args()

    names = [args.name] if args.name else list(DEFAULT_BOUNDS)
    worst = 0
    for name in names:
        n = args.n if args.n is not None else DEFAULT_BOUNDS[name]
        worst = max(worst, main(["conjecture", "--name", name, "--n", str(n)]))
    sys.exit(worst)
