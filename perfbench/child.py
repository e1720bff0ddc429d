#!/usr/bin/env python3
"""One fresh interpreter of the stacksorting benchmark.

``run.py`` starts this file once per set-up sample, per pass and per layer
replay.  It reads one job (JSON) on stdin, imports the library from the
checkout's ``src/``, builds the compiled runners of the workload's machines,
notes the time, does its work and prints one result JSON line.  Everything
else the library prints goes to stderr, so the result stays parseable.

Every timing it returns is also given in nominal-speed seconds (see
SpeedProbe), rescaled by how fast this very thread ran a fixed reference
kernel while the timing was taken.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import signal
import statistics
import struct
import sys
import time
import traceback
from collections import deque
from pathlib import Path
from types import SimpleNamespace


class Span:
    __slots__ = ("id", "name", "parent", "start", "end")

    def __init__(self, id_, name, parent, start):
        self.id, self.name, self.parent, self.start, self.end = id_, name, parent, start, None

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end}


class Tracer:
    """Spans kept in memory; a disabled tracer records nothing and yields None.

    Times are CLOCK_MONOTONIC readings, which the parent process can compare
    with its own.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def _record(self, name):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, time.monotonic())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.monotonic()
            self._open.pop()

    def span(self, name):
        return self._record(name) if self.enabled else contextlib.nullcontext()


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like a scan: stack-sort S_6, tallying images."""
    counts: dict[tuple, int] = {}
    for perm in itertools.permutations(range(6)):
        stack, out = [], []
        for c in perm:
            while stack and stack[-1] < c:
                out.append(stack.pop())
            stack.append(c)
        out.extend(reversed(stack))
        key = tuple(out)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class SpeedProbe:
    """Tracks how fast this thread runs Python right now, to normalise timings.

    On a shared host the same work takes up to 1.7x longer from one second to
    the next (other tenants on the same cores), while its ratio to a fixed
    kernel run on the same thread at the same moments holds within a few
    percent.  Once started, a timer signal runs the reference kernel on the
    main thread every ``INTERVAL_S`` of wall time, between the bytecodes of
    whatever is being measured, and records its start and its CPU and wall
    durations.  A timing over a window is then reported as (raw time minus
    the kernels run inside the window) x ``NOMINAL_S`` / (mean kernel CPU
    time there): seconds at the speed where the kernel takes ``NOMINAL_S``.
    The kernel is part of the benchmark, so no change to the library moves
    it; it costs about 3% of the main thread.  The kernel's CPU time, not its
    wall time, gives the speed: in the jobs=2 scans the main thread's kernels
    wait for a CPU behind the two workers, so their wall time would make the
    CPUs look slower than the workers find them.

    Pool workers forked while the probe runs (the jobs=2 scans) sample on
    their own main threads too and send their samples back through a pipe,
    so that a parallel scan is rescaled by the speed of the CPUs it ran on.
    Their kernels' CPU time is taken out of CPU timings; their wall time is
    not taken out of wall timings, where it adds about 3%.
    """

    INTERVAL_S = 0.05
    NOMINAL_S = 0.001
    MIN_SAMPLES = 7
    RECORD = struct.Struct("ddd")

    def __init__(self):
        # (start, CPU s, wall s, taken on this process's main thread)
        self.samples: list[tuple[float, float, float, bool]] = []
        self._pipe: tuple[int, int] | None = None

    def _measure(self) -> tuple[float, float, float]:
        w0, c0 = time.monotonic(), time.thread_time()
        reference_kernel()
        return w0, time.thread_time() - c0, time.monotonic() - w0

    def sample(self, *_):
        self.samples.append((*self._measure(), True))

    def _sample_in_worker(self, *_):
        try:  # never block a worker: a sample that finds the pipe full is dropped
            os.write(self._pipe[1], self.RECORD.pack(*self._measure()))
        except BlockingIOError:
            pass

    def _start_in_worker(self):
        os.close(self._pipe[0])
        os.set_blocking(self._pipe[1], False)
        self._tick(self._sample_in_worker)

    def _tick(self, handler):
        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def calibrate(self):
        """Samples taken back to back, for the set-up that has just happened."""
        for _ in range(self.MIN_SAMPLES + 2):
            self.sample()

    def start(self):
        self._pipe = os.pipe()
        os.set_blocking(self._pipe[0], False)
        os.register_at_fork(after_in_child=self._start_in_worker)
        self._tick(self.sample)

    def collect(self):
        """Take in the samples pool workers have sent so far."""
        while True:
            try:
                data = os.read(self._pipe[0], self.RECORD.size * 1024)
            except BlockingIOError:
                return
            self.samples += [(*r, False) for r in self.RECORD.iter_unpack(data)]

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.collect()

    def overhead(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall s of the main thread's kernels, CPU s of all kernels) inside [t0, t1]."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        return sum(s[2] for s in inside if s[3]), sum(s[1] for s in inside)

    def factor(self, t0: float, t1: float) -> float:
        """Factor taking a timing made over [t0, t1] to nominal-speed seconds."""
        inside = [s[1] for s in self.samples if t0 <= s[0] < t1]
        if len(inside) < self.MIN_SAMPLES:  # a short window: the samples closest to it
            mid = (t0 + t1) / 2
            inside = [s[1] for s in sorted(self.samples, key=lambda s: abs(s[0] - mid))
                      [:self.MIN_SAMPLES]]
        # A timing sums time over its window, so it scales with the mean kernel time there.
        return self.NOMINAL_S / statistics.fmean(inside)

    def wall(self, t0: float, t1: float) -> float:
        """The wall time of [t0, t1], less the kernel's, in nominal-speed seconds."""
        return (t1 - t0 - self.overhead(t0, t1)[0]) * self.factor(t0, t1)

    def cpu(self, t0: float, t1: float, cpu_s: float) -> float:
        """CPU seconds this process spent over [t0, t1], less the kernel's, nominal."""
        return (cpu_s - self.overhead(t0, t1)[1]) * self.factor(t0, t1)


def self_times(spans: list[Span], speed: SpeedProbe) -> dict[str, float]:
    """Per span name, the summed nominal-speed time not covered by its child spans.

    A span's own raw time is rescaled by the speed over the whole span.
    """
    def raw(s):
        return s.end - s.start - speed.overhead(s.start, s.end)[0]

    own = {s.id: raw(s) for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= raw(s)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id] * speed.factor(s.start, s.end)
    return out


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _import_library(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import stacksorting

    if not Path(stacksorting.__file__).resolve().is_relative_to(src):
        raise ImportError(f"stacksorting was imported from {stacksorting.__file__}, not {src}")
    from stacksorting import cli, dynamics, permutations, preimages, sequences, sortable
    from stacksorting.machine import _compiled_runner, machine_of

    return SimpleNamespace(
        cli=cli, dynamics=dynamics, permutations=permutations, preimages=preimages,
        sequences=sequences, sortable=sortable, runner=_compiled_runner, machine_of=machine_of,
    )


def build_machine(lib, mode: str, pattern: str):
    """A machine from the CLI's --mode/--pattern notation."""
    perms = lib.permutations
    bodies = [perms.parse_permutation(tok) for tok in pattern.split(",")]
    if mode == "consecutive":
        pats = [perms.consecutive(b) for b in bodies]
    elif mode == "classical":
        pats = [perms.classical(b) for b in bodies]
    else:
        adjacency = [int(tok) for tok in mode.split(":", 1)[1].split(",")]
        pats = [perms.vincular(b, adjacency) for b in bodies]
    return lib.machine_of(pats)


# ---------------------------------------------------------------------------
# ops and their correctness gates
# ---------------------------------------------------------------------------

def _all_holds(node) -> bool:
    if isinstance(node, dict):
        return all(v is True if k == "holds" else _all_holds(v) for k, v in node.items())
    if isinstance(node, list):
        return all(_all_holds(v) for v in node)
    return True


def _table_rows(text: str, width: int) -> dict[str, list[int]]:
    rows = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(" | ")
        if sep and key.strip() != "pattern":
            rows[key.strip()] = [int(v) for v in rest.split()[:width]]
    return rows


CLOSED_FORMS = {
    "fine_binomial_transform": lambda lib, n: lib.sequences.fine_binomial_transform(n),
    "2^(n-2)": lambda lib, n: 2 ** (n - 2),
}


def run_op(lib, machines, op, expected, tracer) -> str | None:
    """Run one op and check its output; return None when correct, else why not."""
    kind, n = op["kind"], op["n"]
    if kind == "reproduce":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = lib.cli.main(["reproduce", op["table"], "--n-max", str(n), "--jobs", "1"])
        with tracer.span("check"):
            first_n = 0 if op["table"] == "sortable" else 1
            width = n - first_n + 1
            want = {k: v[:width] for k, v in expected["tables"][op["table"]].items()}
            text = buf.getvalue()
            if rc != 0:
                return f"exit code {rc}"
            if _table_rows(text, width) != want or text.splitlines()[-1] != "all rows match":
                return "table rows differ from the published values"
        return None
    if kind == "conjecture":
        payload = lib.dynamics.run_conjecture(op["name"], n).payload()
        with tracer.span("check"):
            digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
            if digest != expected["payload_sha256"][op["id"]]:
                return f"payload sha256 {digest}"
            if not _all_holds(payload):
                return "a verdict has holds=false"
        return None
    spec = machines[(op["mode"], op["pattern"])]
    jobs = op.get("jobs", 1)
    if kind == "count_sortable":
        value = lib.sortable.count_sortable(spec, n, max_n=n, jobs=jobs)
    elif kind == "periodic_points":
        value = len(lib.dynamics.periodic_points(spec, n, max_n=n))
    elif kind == "max_fertility":
        value = lib.preimages.max_fertility(spec, n, max_n=n, jobs=jobs)[0]
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    with tracer.span("check"):
        form = op.get("closed_form")
        want = CLOSED_FORMS[form](lib, n) if form else expected["values"][op["id"]]
        if value != want:
            return f"got {value}, expected {want}"
    return None


def run_pass(lib, machines, job, tracer) -> dict:
    ops = []
    start = time.monotonic()
    with tracer.span("pass"):
        for op in job["ops"]:
            with tracer.span("op " + op["id"]):
                try:
                    error = run_op(lib, machines, op, job["expected"], tracer)
                except Exception:
                    error = traceback.format_exc()
            if error:
                print(f"op {op['id']} failed: {error}", file=sys.stderr)
            ops.append({"id": op["id"], "ok": error is None})
    end = time.monotonic()
    return {"wall_s": end - start, "start": start, "end": end, "ops": ops}


# ---------------------------------------------------------------------------
# per-layer replay
# ---------------------------------------------------------------------------

RUNNER_LAYERS = (
    ("machine.run.consec3_s", "consecutive", "231"),
    ("machine.run.consecutive_s", "consecutive", "123,321"),
    ("machine.run.classical3_s", "classical", "132"),
    ("machine.run.generic_classical_s", "classical", "1324"),
    ("machine.run.generic_vincular_s", "vincular:1", "231"),
)


def run_replay(lib, job, tracer, speed) -> dict:
    """Time each layer on the workloads' inputs, one span per layer call.

    The inputs' sizes and the general-periodic patterns come in the job.
    Timings (names ending in ``_s``) are in nominal-speed seconds; the parent
    turns the two ``.jobs2_s`` timings into speed-ups.
    """
    size = job["sizes"]
    perms, dyn, pre, srt = lib.permutations, lib.dynamics, lib.preimages, lib.sortable
    metrics: dict[str, float] = {}
    labels: dict[str, str] = {}
    errors: list[str] = []
    checks = 0

    def expect(what, got, want):
        nonlocal checks
        checks += 1
        if got != want:
            errors.append(f"{what}: got {got}, expected {want}")

    def timed(name, fn):
        with tracer.span(name) as span:
            result = fn()
        metrics[name + "_s"] = speed.wall(span.start, span.end)
        return result

    timed("permutations.all_permutations",
          lambda: [deque(perms.all_permutations(n), maxlen=0) for n in size["enumerate"]])

    sigmas = [perms.parse_permutation(s) for s in job["sigmas"]]
    timed("permutations.pattern_avoiders", lambda: [
        deque(perms.pattern_avoiders(size["avoiders_n"], [
            perms.consecutive(s), perms.consecutive(perms.reverse(s))]), maxlen=0)
        for s in sigmas])

    s_n = list(perms.all_permutations(size["runner_n"]))
    for metric, mode, pattern in RUNNER_LAYERS:
        runner = lib.runner(build_machine(lib, mode, pattern))
        labels[metric] = runner.__name__
        timed(metric[:-2], lambda: deque(map(runner, s_n), maxlen=0))

    c231 = build_machine(lib, "consecutive", "231")
    images = list(map(lib.runner(c231), s_n))
    with tracer.span("sortable.avoids_231") as span:  # five times, as one call is short
        for _ in range(5):
            deque(map(srt.avoids_231, images), maxlen=0)
    metrics["sortable.avoids_231_s"] = speed.wall(span.start, span.end) / 5

    n = size["scan_n"]
    serial = timed("sortable.count_sortable", lambda: srt.count_sortable(c231, n))
    parallel = timed("sortable.count_sortable.jobs2", lambda: srt.count_sortable(c231, n, jobs=2))
    expect("count_sortable", serial, lib.sequences.fine_binomial_transform(n))
    expect("count_sortable jobs=2", parallel, serial)

    tally = timed("preimages.image_tally", lambda: pre.image_tally(c231, n))
    metrics["preimages.distinct_images"] = len(tally)
    t0, cpu0 = time.monotonic(), _cpu(resource.getrusage(resource.RUSAGE_SELF))
    tally2 = timed("preimages.image_tally.jobs2", lambda: pre.image_tally(c231, n, jobs=2))
    metrics["preimages.image_tally.parent_cpu_s"] = speed.cpu(
        t0, time.monotonic(), _cpu(resource.getrusage(resource.RUSAGE_SELF)) - cpu0)
    expect("image_tally jobs=2", tally2, tally)
    expect("max fertility", max(tally.values()), 2 ** (n - 2))
    del tally, tally2

    timed("preimages.fertility_spectrum",
          lambda: pre.fertility_spectrum(build_machine(lib, "consecutive", "132"), size["spectrum_n"]))
    points = timed("dynamics.periodic_points", lambda: dyn.periodic_points(c231, size["periodic_n"]))
    timed("dynamics.cycle_periods", lambda: dyn.cycle_periods(c231, points))

    for name, bound in size["probes"].items():
        report = timed("dynamics.probe." + name, lambda: dyn.run_conjecture(name, bound))
        expect(f"probe {name} holds", report.holds, True)

    n = size["cli_n"]
    buf = io.StringIO()
    with tracer.span("cli.reproduce") as cli_span, contextlib.redirect_stdout(buf):
        rc = lib.cli.main(["reproduce", "sortable", "--n-max", str(n)])
    expect("reproduce exit code", rc, 0)
    with tracer.span("cli.library_rows") as lib_span:
        rows = {sigma: [srt.count_sortable(build_machine(lib, "consecutive", sigma), m)
                        for m in range(n + 1)]
                for sigma in job["expected"]["tables"]["sortable"]}
    metrics["cli.overhead_s"] = (speed.wall(cli_span.start, cli_span.end)
                                 - speed.wall(lib_span.start, lib_span.end))
    expect("reproduce rows", _table_rows(buf.getvalue(), n + 1), rows)

    for error in errors:
        print(f"replay check failed: {error}", file=sys.stderr)
    return {"metrics": metrics, "labels": labels, "checks": checks, "failed": len(errors)}


# ---------------------------------------------------------------------------

def main() -> int:
    job = json.loads(sys.stdin.read())
    proto = sys.stdout
    sys.stdout = sys.stderr
    lib = _import_library(Path(job["root"]))
    machines = {(mode, pattern): build_machine(lib, mode, pattern)
                for mode, pattern in job["machines"]}
    runners = {f"{mode} {pattern}": lib.runner(spec).__name__
               for (mode, pattern), spec in machines.items()}
    ready = time.monotonic()
    speed = SpeedProbe()
    speed.calibrate()
    # set-up: from the parent's spawn (CLOCK_MONOTONIC is system-wide) to ready
    setup = {"setup_raw_s": ready - job["spawned"], "setup_s": speed.wall(job["spawned"], ready)}
    if job["mode"] == "setup":
        print(json.dumps(setup), file=proto)
        return 0

    tracer = Tracer(job["trace"])
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    speed.start()
    try:
        if job["mode"] == "pass":
            result = run_pass(lib, machines, job, tracer)
        else:
            result = run_replay(lib, job, tracer, speed)
    finally:
        speed.stop()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    if job["mode"] == "pass":
        start, end = result.pop("start"), result.pop("end")
        result.update(nominal_wall_s=speed.wall(start, end),
                      cpu_s=speed.cpu(start, end, _cpu(ru1) - _cpu(ru0) + _cpu(kids)))
    result.update(
        setup,
        runners=runners,
        peak_rss_mib=max(ru1.ru_maxrss, kids.ru_maxrss) / 1024.0,
        spans=[s.as_dict() for s in tracer.spans],
        self_times=self_times(tracer.spans, speed),
    )
    print(json.dumps(result), file=proto)
    return 0


if __name__ == "__main__":
    sys.exit(main())
