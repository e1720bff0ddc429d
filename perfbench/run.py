#!/usr/bin/env python3
"""Benchmark of stacksorting's exhaustive scans over S_n (stdlib only).

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
Workloads (see BENCHMARK.json for why each is there):

  tables   ``stacksort reproduce`` of both reference tables at n <= 9
  probes   the five conjecture probes at their desk-scale default bounds
  generic  count_sortable and periodic_points at n=8 on the generic and
           general-consecutive engines
  fanout   count_sortable and max_fertility at n=10 with jobs=2

The load is a closed loop with one client: ops run one after another, and
only ``fanout`` starts more processes (its 2-worker pool).  Each pass runs
every op of the workload once, in a fresh interpreter (child.py), in an
order shuffled by ``--seed``; the outputs do not depend on the seed.  Passes
repeat (at least twice) while another one fits in ``--seconds``.  Every op's
output is checked.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass (same op order; the seed's parity picks which goes
first) plus a per-layer replay, reports the per-layer metrics, and writes
every span to .perfbench/.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Timings in the JSON are nominal-speed seconds (see child.SpeedProbe): the raw
time, rescaled by how fast the child's own thread ran a fixed reference
kernel over the same window.  The raw times are printed above the JSON line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

WORKLOADS = ("tables", "probes", "generic", "fanout")
SETUP_SAMPLES = 9
MIN_PASSES = 2  # a median of one pass is too noisy; fanout's passes run ~15 s raw
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take

# Every n a workload scans.  "replay" holds the per-layer replay's inputs:
# runner_n, the S_n each runner variant and avoids_231 scan; scan_n, the
# serial and jobs=2 count and tally scans; enumerate, the S_n enumerated
# (tables scans S_9, fanout S_10).  The replay runs each probe one size below
# its bound here, to keep a traced run short.
SIZES = {
    "full": {"tables": 9, "generic": 8, "fanout": 10,
             "probes": {"fine-transform": 9, "2n-4": 8, "general-periodic": 7,
                        "fertility-spectrum": 8, "vn-limit": 7},
             "replay": {"runner_n": 8, "enumerate": [9, 10], "scan_n": 9, "avoiders_n": 7,
                        "spectrum_n": 8, "periodic_n": 8, "cli_n": 7}},
    "small": {"tables": 6, "generic": 6, "fanout": 7,
              "probes": {"fine-transform": 6, "2n-4": 6, "general-periodic": 5,
                         "fertility-spectrum": 5, "vn-limit": 5},
              "replay": {"runner_n": 6, "enumerate": [6, 7], "scan_n": 7, "avoiders_n": 5,
                         "spectrum_n": 6, "periodic_n": 6, "cli_n": 6}},
}
LENGTH3 = ["".join(map(str, s)) for s in itertools.permutations((1, 2, 3))]
GENERAL_PERIODIC = [
    "".join(map(str, s)) for k in (3, 4) for s in itertools.permutations(range(1, k + 1))
]
GENERIC_MACHINES = [("classical", "1324"), ("vincular:1", "231"), ("consecutive", "123,321")]

END_TO_END = {
    "wall_s": "s", "perm_per_s": "1/s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s",
}
PER_LAYER = {
    "permutations.all_permutations_s": "s",
    "permutations.pattern_avoiders_s": "s",
    "machine.run.consec3_s": "s",
    "machine.run.consecutive_s": "s",
    "machine.run.classical3_s": "s",
    "machine.run.generic_classical_s": "s",
    "machine.run.generic_vincular_s": "s",
    "sortable.avoids_231_s": "s",
    "sortable.count_sortable_s": "s",
    "sortable.count_sortable.jobs2_speedup": "x",
    "preimages.image_tally_s": "s",
    "preimages.image_tally.jobs2_speedup": "x",
    "preimages.image_tally.parent_cpu_s": "s",
    "preimages.distinct_images": "count",
    "preimages.fertility_spectrum_s": "s",
    "dynamics.periodic_points_s": "s",
    "dynamics.cycle_periods_s": "s",
    **{f"dynamics.probe.{name}_s": "s" for name in SIZES["full"]["probes"]},
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def _perms(lo: int, hi: int) -> int:
    """|S_lo| + ... + |S_hi|."""
    return sum(factorial(m) for m in range(lo, hi + 1))


def probe_perms(name: str, n: int) -> int:
    """Permutations a probe's arguments ask to scan (not the scans the code does)."""
    if name == "fine-transform":
        return _perms(0, n)
    if name in ("2n-4", "vn-limit"):
        return _perms(3, n)
    if name == "general-periodic":
        return len(GENERAL_PERIODIC) * _perms(1, n)
    # six spectra up to n, plus the classic stack's up to min(n, 7)
    return len(LENGTH3) * _perms(1, n) + _perms(1, min(n, 7))


def workload(name: str, scale: str, expected: dict) -> dict:
    """The machines and ops of one pass; each op carries the |S_n| it asks for."""
    if name == "tables":
        n = SIZES[scale]["tables"]
        machines = [("consecutive", s) for s in LENGTH3]
        ops = [{"id": f"reproduce {table} {n}", "kind": "reproduce", "table": table, "n": n,
                "perms": len(expected["tables"][table]) * _perms(first, n)}
               for table, first in (("sortable", 0), ("max-fertility", 1))]
    elif name == "probes":
        machines = ([("consecutive", s) for s in GENERAL_PERIODIC]
                    + [("classical", "132"), ("classical", "21")])
        ops = [{"id": f"conjecture {probe} {n}", "kind": "conjecture", "name": probe, "n": n,
                "perms": probe_perms(probe, n)}
               for probe, n in SIZES[scale]["probes"].items()]
    elif name == "generic":
        n = SIZES[scale]["generic"]
        machines = GENERIC_MACHINES
        ops = [{"id": f"{kind} {mode} {pattern} {n}", "kind": kind, "mode": mode,
                "pattern": pattern, "n": n, "perms": factorial(n)}
               for mode, pattern in machines for kind in ("count_sortable", "periodic_points")]
    elif name == "fanout":
        n = SIZES[scale]["fanout"]
        machines = [("consecutive", "231")]
        ops = [{"id": f"{kind} consecutive 231 {n} jobs=2", "kind": kind, "mode": "consecutive",
                "pattern": "231", "n": n, "jobs": 2, "closed_form": form, "perms": factorial(n)}
               for kind, form in (("count_sortable", "fine_binomial_transform"),
                                  ("max_fertility", "2^(n-2)"))]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"machines": machines, "ops": ops}


class ChildFailed(Exception):
    pass


class Runner:
    """Starts child interpreters from one checkout and keeps every run under a deadline."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def child(self, job: dict) -> dict:
        """Run one child and return its result, with the spawn and exit times added.

        The spawn time goes to the child too, which times its set-up from it:
        CLOCK_MONOTONIC is system-wide, so the two processes' readings compare.
        """
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")], cwd=self.root, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        job = dict(job, root=str(self.root), spawned=t0)
        try:
            out, _ = proc.communicate(json.dumps(job),
                                      timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{job['mode']} child timed out") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{job['mode']} child exited with code {proc.returncode}")
        return dict(json.loads(out), spawned=t0, exited=time.monotonic())


def _emit(name: str, value, unit: str) -> None:
    print(f"metric {name} = {value} {unit}")


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            root: Path, scale: str = "full", expected: dict | None = None) -> dict:
    """One benchmark run; prints its report and returns the result object."""
    expected = expected or json.loads(EXPECTED_FILE.read_text())
    spec = workload(workload_name, scale, expected)
    rng = random.Random(seed)
    runner = Runner(root, time.monotonic() + DEADLINE_S)
    base = {"machines": spec["machines"], "expected": expected}
    perms_per_pass = sum(op["perms"] for op in spec["ops"])
    attempted = failed = 0
    runners: dict[str, str] = {}

    def shuffled() -> list[dict]:
        ops = spec["ops"][:]
        rng.shuffle(ops)
        return ops

    def run_pass(ops: list[dict], traced: bool) -> dict | None:
        nonlocal attempted, failed
        attempted += len(ops)
        try:
            result = runner.child(dict(base, mode="pass", trace=traced, ops=ops))
        except ChildFailed as e:
            print(f"error: {e}", file=sys.stderr)
            failed += len(ops)
            return None
        failed += sum(not op["ok"] for op in result["ops"])
        runners.update(result["runners"])
        return result

    print(f"machine nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"cpu={_cpu_model()!r}")
    print(f"workload {workload_name} scale={scale} seed={seed} ops/pass={len(spec['ops'])} "
          f"perms/pass={perms_per_pass}")
    runner.child(dict(base, mode="setup"))  # warm the bytecode and file caches
    if not trace:
        setups = [runner.child(dict(base, mode="setup")) for _ in range(SETUP_SAMPLES)]
        passes = []
        t0 = time.monotonic()
        while True:
            result = run_pass(shuffled(), False)
            if result is None:
                break
            passes.append(result)
            # after MIN_PASSES, stop unless one more pass as long as the last still fits
            last = result["exited"] - result["spawned"]
            if len(passes) >= MIN_PASSES and result["exited"] - t0 + last > seconds:
                break
        units = END_TO_END
    else:
        # Both passes run the ops in one order, and the seed picks which
        # pass runs first, so that over several runs the overhead carries
        # neither the order of the ops nor the effect of running second.
        ops = shuffled()
        if seed % 2:
            traced, untraced = run_pass(ops, True), run_pass(ops, False)
        else:
            untraced, traced = run_pass(ops, False), run_pass(ops, True)
        replay_job = dict(base, mode="replay", trace=True, sigmas=GENERAL_PERIODIC,
                          sizes=dict(SIZES[scale]["replay"], probes={
                              name: n - 1 for name, n in SIZES[scale]["probes"].items()}))
        try:
            replay = runner.child(replay_job)
        except ChildFailed as e:
            print(f"error: {e}", file=sys.stderr)
            replay = None
        units = PER_LAYER

    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in setups + passes)
        if passes:
            walls = [p["nominal_wall_s"] for p in passes]
            metrics.update(
                wall_s=statistics.median(walls),
                perm_per_s=statistics.median(perms_per_pass / w for w in walls),
                cpu_s=statistics.median(p["cpu_s"] for p in passes),
                # the run's peak: a pass's own peak moves by 1 MiB with its op order
                peak_rss_mib=max(p["peak_rss_mib"] for p in passes),
            )
        print(f"samples passes={len(passes)} setup={len(setups) + len(passes)}")
        print("raw pass_wall_s=" + " ".join(f"{p['wall_s']:.3f}" for p in passes)
              + " setup_s=%.4f" % statistics.median(r["setup_raw_s"] for r in setups + passes))
        if passes:
            print("nominal pass_wall_s=" + " ".join(f"{w:.3f}" for w in walls))
            print("pass peak_rss_mib=" + " ".join(f"{p['peak_rss_mib']:.2f}" for p in passes))
    else:
        spans, own = [], {}
        if replay is not None:
            attempted += replay["checks"]
            failed += replay["failed"]
            metrics.update(replay["metrics"])
            for layer in ("sortable.count_sortable", "preimages.image_tally"):
                metrics[layer + ".jobs2_speedup"] = (
                    metrics[layer + "_s"] / metrics.pop(layer + ".jobs2_s"))
            for metric, variant in sorted(replay["labels"].items()):
                print(f"label {metric} runner={variant}")
        else:
            attempted += 1
            failed += 1
        if untraced is not None and traced is not None:
            print(f"nominal pass_wall_s untraced={untraced['nominal_wall_s']:.3f} "
                  f"traced={traced['nominal_wall_s']:.3f} "
                  f"(raw {untraced['wall_s']:.3f} {traced['wall_s']:.3f})")
            metrics["trace.overhead_s"] = traced["nominal_wall_s"] - untraced["nominal_wall_s"]
        for process, result in (("pass", traced), ("replay", replay)):
            if result is not None:
                spans += [dict(s, process=process) for s in result["spans"]]
                for name, t in result["self_times"].items():
                    own[name] = own.get(name, 0.0) + t
        for name, t in sorted(own.items()):
            print(f"self {name} = {t:.6f} s")
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload_name}-{scale}-seed{seed}.json"
        trace_file.write_text(json.dumps(spans))
        print(f"spans {len(spans)} written to {trace_file.relative_to(root)}")

    for key, variant in sorted(runners.items()):
        print(f"label runner {key} = {variant}")
    _emit("error_rate", failed / attempted, "ratio")
    for name, unit in units.items():
        _emit(name, metrics.get(name), unit)
    return {
        "correct": failed == 0 and all(name in metrics for name in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stacksorting" / "__init__.py").is_file():
        print(f"error: no stacksorting sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except ChildFailed as e:  # the library cannot even be set up
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
