"""Command-line front end.

All commands are deterministic: identical invocations produce identical
output, except for the elapsed_ms timing field in JSON verdicts.  Exit codes:
0 success (including conjecture verdicts with holds=false), 1 usage or input
error, 2 golden-table mismatch, 3 desk-scale resource bound exceeded.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import click

from . import bounds, dynamics, golden, preimages, sequences, sortable
from .bounds import ResourceBoundError
from .machine import consecutive_machine, machine_of, output_of_trace, trace as machine_trace
from .machine import run as run_machine
from .permutations import (
    PatternSpec,
    classical,
    complement,
    consecutive,
    format_permutation,
    parse_permutation,
    vincular,
)


class GoldenMismatchError(Exception):
    """A computed table disagrees with the embedded reference values."""


def _parse_mode(mode: str, body) -> PatternSpec:
    if mode == "consecutive":
        return consecutive(body)
    if mode == "classical":
        return classical(body)
    if mode.startswith("vincular:"):
        try:
            adjacency = [int(tok) for tok in mode.split(":", 1)[1].split(",")]
        except ValueError:
            raise click.UsageError(f"malformed vincular adjacency in {mode!r}") from None
        return vincular(body, adjacency)
    raise click.UsageError(
        f"mode must be consecutive, classical, or vincular:<positions>, got {mode!r}"
    )


def _parse_perm(text: str):
    try:
        return parse_permutation(text)
    except ValueError as e:
        raise click.UsageError(str(e)) from None


def _echo_json(payload: dict) -> None:
    click.echo(json.dumps(payload, sort_keys=True))


pattern_option = click.option(
    "--pattern", required=True, help="forbidden pattern(s), comma separated"
)
mode_option = click.option(
    "--mode",
    default="consecutive",
    show_default=True,
    help="consecutive | classical | vincular:<adjacent positions>",
)
unsafe_option = click.option(
    "--unsafe-n", is_flag=True, help="lift the desk-scale bound for this call"
)


def _positive_jobs(ctx, param, value: int) -> int:
    if value < 1:
        raise click.BadParameter(f"must be >= 1, not {value}", ctx=ctx, param=param)
    return value


jobs_option = click.option(
    "--jobs", default=1, show_default=True, callback=_positive_jobs,
    help="partition-parallel workers",
)


@click.group()
def cli():
    """Pattern-avoiding stack-sorting machines."""


def machine_command(name: str):
    """Register a command on the machine of --pattern/--mode, passed as ``spec``."""
    def register(body):
        @functools.wraps(body)
        def command(pattern: str, mode: str, **options):
            try:
                bodies = [parse_permutation(tok) for tok in pattern.split(",")]
                spec = machine_of(_parse_mode(mode, b) for b in bodies)
            except ValueError as e:
                raise click.UsageError(str(e)) from None
            return body(spec, **options)
        return cli.command(name)(pattern_option(mode_option(command)))
    return register


@machine_command("map")
@click.option("--input", "input_", required=True, help="permutation to map")
def cmd_map(spec, input_):
    """Send a permutation through the machine once."""
    perm = _parse_perm(input_)
    click.echo(format_permutation(run_machine(spec, perm)))


@machine_command("trace")
@click.option("--input", "input_", required=True)
@click.option("--show-stack", is_flag=True, help="record the stack after each step")
@click.option("--format", "fmt", default="json", show_default=True,
              type=click.Choice(["json", "plain"]))
def cmd_trace(spec, input_, show_stack, fmt):
    """Print the push/pop sequence of one run."""
    perm = _parse_perm(input_)
    steps = machine_trace(spec, perm, record_stacks=show_stack)
    if fmt == "plain":
        for s in steps:
            line = f"{s.kind} {s.value}"
            if show_stack:
                line += f"  stack={format_permutation(s.stack_after)}"
            click.echo(line)
        return
    payload = {
        "input": format_permutation(perm),
        "output": format_permutation(output_of_trace(steps)),
        "steps": [
            {"op": s.kind, "value": s.value}
            | ({"stack": format_permutation(s.stack_after)} if show_stack else {})
            for s in steps
        ],
    }
    _echo_json(payload)


@machine_command("orbit")
@click.option("--input", "input_", required=True)
def cmd_orbit(spec, input_):
    """Iterate the machine until the orbit repeats."""
    perm = _parse_perm(input_)
    report = dynamics.orbit(spec, perm)
    click.echo(f"preperiod {report.preperiod}")
    click.echo(f"period {report.period}")
    for p in report.orbit:
        click.echo(format_permutation(p))


@machine_command("periodic")
@click.option("--n", required=True, type=int)
@click.option("--count-only", is_flag=True)
@unsafe_option
def cmd_periodic(spec, n, count_only, unsafe_n):
    """List (or count) the periodic points of the machine on S_n."""
    max_n = n if unsafe_n else bounds.SCAN_BOUND
    points = dynamics.periodic_points(spec, n, max_n=max_n)
    if count_only:
        click.echo(str(len(points)))
        return
    for p in sorted(points):
        click.echo(format_permutation(p))


@machine_command("sd")
@click.option("--input", "input_", required=True)
def cmd_sd(spec, input_):
    """Iterations needed to reach a periodic point (the orbit preperiod)."""
    perm = _parse_perm(input_)
    click.echo(str(dynamics.orbit(spec, perm).preperiod))


@cli.command("conjecture")
@click.option("--name", required=True, type=click.Choice(dynamics.CONJECTURE_NAMES))
@click.option("--n", required=True, type=int)
@click.option("--sigma", default=None, help="restrict general-periodic to one pattern")
@unsafe_option
def cmd_conjecture(name, n, sigma, unsafe_n):
    """Check one conjecture exhaustively up to size n; emits a JSON verdict."""
    max_n = n if unsafe_n else bounds.SCAN_BOUND
    sig = _parse_perm(sigma) if sigma else None
    t0 = time.perf_counter()
    report = dynamics.run_conjecture(name, n, sigma=sig, max_n=max_n)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    manifest = {
        "subcommand": "conjecture",
        "parameters": {"name": name, "n": n, "sigma": sigma or ""},
        "format": "json",
        "deterministic": True,
    }
    payload = report.payload() | {"elapsed_ms": round(elapsed_ms, 3), "manifest": manifest}
    _echo_json(payload)


@machine_command("fiber")
@click.option("--target", required=True)
@click.option("--count-only", is_flag=True)
@unsafe_option
def cmd_fiber(spec, target, count_only, unsafe_n):
    """All preimages of a target permutation under the machine."""
    tgt = _parse_perm(target)
    max_n = len(tgt) if unsafe_n else bounds.SCAN_BOUND
    report = preimages.fiber(spec, tgt, max_n=max_n)
    click.echo(str(report.count))
    if not count_only:
        for p in report.preimages:
            click.echo(format_permutation(p))


@machine_command("max-fertility")
@click.option("--n", required=True, type=int)
@jobs_option
@unsafe_option
@click.option("--format", "fmt", default="plain", show_default=True,
              type=click.Choice(["plain", "json"]))
def cmd_max_fertility(spec, n, jobs, unsafe_n, fmt):
    """Largest fiber size over S_n and the targets attaining it."""
    max_n = n if unsafe_n else bounds.SCAN_BOUND
    value, argmax = preimages.max_fertility(spec, n, max_n=max_n, jobs=jobs)
    if fmt == "json":
        _echo_json(
            {
                "n": n,
                "max_fertility": value,
                "argmax": [format_permutation(p) for p in argmax],
            }
        )
        return
    click.echo(str(value))
    for p in argmax:
        click.echo(format_permutation(p))


@machine_command("spectrum")
@click.option("--n-max", required=True, type=int)
@unsafe_option
def cmd_spectrum(spec, n_max, unsafe_n):
    """Fiber sizes achieved by targets of length up to n-max."""
    if n_max < 1:
        raise click.UsageError("--n-max must be >= 1 (no target length to check)")
    max_n = n_max if unsafe_n else bounds.SCAN_BOUND
    sizes = preimages.fertility_spectrum(spec, n_max, max_n=max_n)
    gaps = preimages.spectrum_gaps(sizes)
    click.echo("achieved " + " ".join(str(v) for v in sorted(sizes)))
    click.echo("gaps " + (" ".join(str(v) for v in gaps) if gaps else "none"))


@machine_command("sortable")
@click.option("--n", required=True, type=int)
@click.option("--count-only", is_flag=True)
@click.option("--list", "list_", is_flag=True, help="list the members")
@click.option("--bfile", is_flag=True, help="print counts for 0..n as b-file lines")
@jobs_option
@unsafe_option
def cmd_sortable(spec, n, count_only, list_, bfile, jobs, unsafe_n):
    """Count (or list) the permutations the machine sorts."""
    for flag, given in (("--bfile", bfile), ("--count-only", count_only)):
        if list_ and given:
            raise click.UsageError(f"--list prints the members; it cannot go with {flag}")
    if bfile and count_only:
        raise click.UsageError("--bfile prints b-file lines; it cannot go with --count-only")
    max_n = n if unsafe_n else bounds.SCAN_BOUND
    if bfile:
        if n < 0:
            raise click.UsageError("--n must be >= 0")
        bounds.check_scan_bound(n, max_n, "count_sortable")
        for m in range(n + 1):
            click.echo(f"{m} {sortable.count_sortable(spec, m, max_n=max_n, jobs=jobs)}")
        return
    if list_:
        for p in sortable.sortable_members(spec, n, max_n=max_n):
            click.echo(format_permutation(p))
        return
    click.echo(str(sortable.count_sortable(spec, n, max_n=max_n, jobs=jobs)))


@cli.command("phi")
@click.option("--perm", default=None, help="encode a sortable permutation")
@click.option("--invert", default=None, help="decode a U/D word")
def cmd_phi(perm, invert):
    """Lattice-path encoding of the 132-machine sortable set."""
    if (perm is None) == (invert is None):
        raise click.UsageError("exactly one of --perm / --invert is required")
    if perm is not None:
        click.echo(sortable.to_dyck_path(_parse_perm(perm)))
    else:
        click.echo(format_permutation(sortable.from_dyck_path(invert)))


@cli.command("class-check")
@click.option("--pattern", required=True, help="single pattern body")
@click.option("--brute-n", default=0, type=int,
              help="verify the verdict by brute closure test up to this size (0: skip)")
def cmd_class_check(pattern, brute_n):
    """Is the machine's sortable set a permutation class?"""
    if brute_n < 0:
        raise click.UsageError("--brute-n must be >= 0 (0 skips the brute check)")
    sigma = _parse_perm(pattern)
    verdict = sortable.classify_sortable_set(sigma)
    if brute_n > bounds.PAIRWISE_BOUND:
        raise ResourceBoundError(f"--brute-n must be <= {bounds.PAIRWISE_BOUND}, got {brute_n}")
    click.echo(verdict.value)
    if brute_n:
        spec = consecutive_machine(sigma)
        closed, pair = sortable.is_downward_closed(
            lambda p: sortable.is_sortable(spec, p), brute_n
        )
        agree = closed == (verdict is not sortable.SortableSetKind.NOT_A_CLASS)
        click.echo(f"brute closure up to n={brute_n}: "
                   + ("closed" if closed else "not closed"))
        if pair:
            click.echo(
                f"counterexample {format_permutation(pair[0])} contains "
                f"{format_permutation(pair[1])}"
            )
        click.echo("agreement " + ("yes" if agree else "NO"))


@cli.command("seq")
@click.option("--name", required=True,
              help="catalan | motzkin | genmotzkin:<k> | fine | fine-transform | "
                   "motzkin-diff | central-binomial")
@click.option("--upto", required=True, type=int)
@click.option("--bfile", is_flag=True)
@click.option("--format", "fmt", default="plain", show_default=True,
              type=click.Choice(["plain", "json", "csv", "bfile"]))
@unsafe_option
def cmd_seq(name, upto, bfile, fmt, unsafe_n):
    """Print a reference integer sequence."""
    if bfile and fmt not in ("plain", "bfile"):
        raise click.UsageError(f"--bfile prints b-file lines; it cannot go with --format {fmt}")
    max_upto = upto if unsafe_n else bounds.SEQ_BOUND
    if unsafe_n and hasattr(sys, "set_int_max_str_digits"):
        # past Python's default digit limit the values could not be printed
        sys.set_int_max_str_digits(0)
    table = sequences.named_sequence(name, upto, max_upto=max_upto)
    if bfile or fmt == "bfile":
        for line in table.bfile_lines():
            click.echo(line)
    elif fmt == "json":
        # every table starts at n = 0; sequence.schema.json requires the field
        _echo_json({"name": table.name, "offset": 0,
                    "values": list(table.values)})
    elif fmt == "csv":
        click.echo("n,value")
        for i, v in enumerate(table.values):
            click.echo(f"{i},{v}")
    else:
        click.echo(", ".join(str(v) for v in table.values))


@cli.command("reproduce")
@click.argument("table", type=click.Choice(["sortable", "max-fertility"]))
@click.option("--n-max", default=9, show_default=True, type=int)
@jobs_option
def cmd_reproduce(table, n_max, jobs):
    """Recompute a reference table by brute force and diff it."""
    if table == "sortable":
        reference, oeis = golden.SORTABLE_COUNTS, golden.SORTABLE_OEIS
        first_n = golden.SORTABLE_N0
        def rows(body):
            # one scan per n gives the row of the pattern and of its complement
            pairs = [sortable.count_sortable_pair(consecutive_machine(body), n, jobs=jobs)
                     for n in range(first_n, n_max + 1)]
            return {format_permutation(body): [a for a, _ in pairs],
                    format_permutation(complement(body)): [b for _, b in pairs]}
    else:
        reference, oeis = golden.MAX_FERTILITY, golden.MAX_FERTILITY_OEIS
        first_n = golden.MAX_FERTILITY_N0
        def rows(body):
            spec = consecutive_machine(body)
            return {format_permutation(body): [preimages.max_fertility(spec, n, jobs=jobs)[0]
                                               for n in range(first_n, n_max + 1)]}
    last_n = first_n + len(next(iter(reference.values()))) - 1
    if not first_n <= n_max <= last_n:
        raise click.UsageError(f"--n-max must be in {first_n}..{last_n}, the table's columns")
    width = n_max - first_n + 1
    header = "pattern | " + " ".join(f"{n:>6}" for n in range(first_n, n_max + 1))
    click.echo(header + "   OEIS")
    mismatch = False
    computed_rows: dict[str, list[int]] = {}
    for key in sorted(reference):
        if key not in computed_rows:
            computed_rows.update(rows(parse_permutation(key)))
        computed = computed_rows[key]
        expected = list(reference[key][:width])
        row = f"{key:>7} | " + " ".join(f"{v:>6}" for v in computed)
        click.echo(row + f"   {oeis[key]}")
        if computed != expected:
            mismatch = True
            click.echo(
                f"MISMATCH {key}: expected " + " ".join(str(v) for v in expected)
            )
    if n_max < last_n:
        click.echo(f"(truncated at n={n_max}; reference extends to n={last_n})")
    if mismatch:
        raise GoldenMismatchError(f"computed {table} table differs from reference")
    click.echo("all rows match")


def main(argv=None) -> int:
    """Run the CLI and map exceptions onto the documented exit codes."""
    try:
        cli.main(args=argv, prog_name="stacksort", standalone_mode=False)
    except GoldenMismatchError as e:
        click.echo(f"error: {e}", err=True)
        return 2
    except ResourceBoundError as e:
        click.echo(f"error: {e}", err=True)
        return 3
    except click.UsageError as e:
        e.show()
        return 1
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.Abort:
        return 1
    except ValueError as e:
        click.echo(f"error: {e}", err=True)
        return 1
    return 0


def script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script()
