import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from stacksorting import cli, dynamics, golden, sequences


def invoke(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name: str) -> dict:
    ref = resources.files("stacksorting") / "schemas" / name
    return json.loads(ref.read_text())


class TestMap:
    def test_worked_example(self, capsys):
        code, out, _ = invoke(capsys, "map", "--pattern", "231",
                              "--mode", "consecutive", "--input", "265413")
        assert code == 0 and out.strip() == "653142"

    def test_classical_mode(self, capsys):
        code, out, _ = invoke(capsys, "map", "--pattern", "231",
                              "--mode", "classical", "--input", "265413")
        assert code == 0 and out.strip() == "651432"

    def test_multi_pattern(self, capsys):
        code, out, _ = invoke(capsys, "map", "--pattern", "132,231",
                              "--mode", "classical", "--input", "265413")
        assert code == 0 and len(out.strip()) == 6

    def test_vincular_mode(self, capsys):
        code, out, _ = invoke(capsys, "map", "--pattern", "3214",
                              "--mode", "vincular:1,2", "--input", "265413")
        assert code == 0

    def test_malformed_input_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "map", "--pattern", "231", "--input", "xyz")
        assert code == 1 and "malformed" in err

    def test_bad_mode(self, capsys):
        code, _, err = invoke(capsys, "map", "--pattern", "231",
                              "--mode", "sideways", "--input", "123")
        assert code == 1


class TestTrace:
    def test_json_schema_valid(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = load_schema("trace.schema.json")
        code, out, _ = invoke(capsys, "trace", "--pattern", "231",
                              "--input", "265413", "--show-stack")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["output"] == "653142"
        assert {"op": "push", "value": 3, "stack": "3142"} in payload["steps"]

    def test_plain_format(self, capsys):
        code, out, _ = invoke(capsys, "trace", "--pattern", "231",
                              "--input", "1", "--format", "plain")
        assert code == 0 and out.splitlines() == ["push 1", "pop 1"]


class TestDynamicsCommands:
    def test_orbit(self, capsys):
        code, out, _ = invoke(capsys, "orbit", "--pattern", "132",
                              "--mode", "consecutive", "--input", "123")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "preperiod 0" and lines[1] == "period 2"
        assert lines[2:] == ["123", "321", "123"]

    def test_sd(self, capsys):
        code, out, _ = invoke(capsys, "sd", "--pattern", "132",
                              "--mode", "classical", "--input", "132")
        assert code == 0 and out.strip() == "2"

    def test_periodic_count(self, capsys):
        code, out, _ = invoke(capsys, "periodic", "--pattern", "132",
                              "--n", "3", "--count-only")
        assert code == 0 and out.strip() == "4"

    def test_periodic_bound_exit_code(self, capsys):
        code, _, err = invoke(capsys, "periodic", "--pattern", "132", "--n", "10")
        assert code == 3 and "n <= 9" in err


class TestConjectureCommand:
    def test_schema_and_determinism(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = load_schema("conjecture_verdict.schema.json")
        code1, out1, _ = invoke(capsys, "conjecture", "--name", "vn-limit", "--n", "4")
        code2, out2, _ = invoke(capsys, "conjecture", "--name", "vn-limit", "--n", "4")
        assert code1 == code2 == 0
        p1, p2 = json.loads(out1), json.loads(out2)
        jsonschema.validate(p1, schema)
        assert p1["holds"] is True
        p1.pop("elapsed_ms"), p2.pop("elapsed_ms")
        assert p1 == p2

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "conjecture", "--name", "goldbach", "--n", "4")
        assert code == 1

    @pytest.mark.parametrize("name, n", [
        pytest.param("2n-4", "2", id="2n-4"),
        pytest.param("vn-limit", "2", id="vn-limit"),
        pytest.param("fine-transform", "-1", id="fine-transform"),
        pytest.param("fertility-spectrum", "1", id="fertility-spectrum-1"),
        pytest.param("fertility-spectrum", "0", id="fertility-spectrum-0"),
    ])
    def test_no_applicable_case_exits_1(self, capsys, name, n):
        code, out, err = invoke(capsys, "conjecture", "--name", name, "--n", n)
        assert code == 1 and out == "" and "no case" in err

    @pytest.mark.parametrize("name", ["fine-transform", "2n-4", "fertility-spectrum", "vn-limit"])
    def test_sigma_with_another_name_exits_1(self, capsys, name):
        code, out, err = invoke(capsys, "conjecture", "--name", name, "--n", "4",
                                "--sigma", "1234")
        assert code == 1 and out == "" and "only general-periodic" in err

    @pytest.mark.parametrize("name", dynamics.CONJECTURE_NAMES)
    def test_bound_exits_3_before_any_case(self, capsys, no_scan, name):
        code, out, err = invoke(capsys, "conjecture", "--name", name, "--n", "10")
        assert code == 3 and out == "" and "n <= 9" in err

    @pytest.mark.parametrize("sigma", ["21", "1"])
    def test_short_sigma_exits_1(self, capsys, sigma):
        code, out, err = invoke(capsys, "conjecture", "--name", "general-periodic",
                                "--sigma", sigma, "--n", "4")
        assert code == 1 and out == "" and "length >= 3" in err

    def test_short_sigma_past_the_bound_exits_3(self, capsys, no_scan):
        # the bound is checked before the pattern's length
        code, out, err = invoke(capsys, "conjecture", "--name", "general-periodic",
                                "--sigma", "21", "--n", "10")
        assert code == 3 and out == "" and "n <= 9" in err

    def test_single_sigma(self, capsys):
        code, out, _ = invoke(capsys, "conjecture", "--name", "general-periodic",
                              "--n", "5", "--sigma", "1234")
        assert code == 0 and json.loads(out)["holds"] is True


class TestFiberCommands:
    def test_count_only(self, capsys):
        code, out, _ = invoke(capsys, "fiber", "--pattern", "132",
                              "--target", "78634512", "--count-only")
        assert code == 0 and out.strip() == "11"

    def test_members_listed(self, capsys):
        code, out, _ = invoke(capsys, "fiber", "--pattern", "132", "--target", "123")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "1" and lines[1:] == ["321"]

    def test_max_fertility_json(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        code, out, _ = invoke(capsys, "max-fertility", "--pattern", "231",
                              "--n", "5", "--format", "json")
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("max_fertility.schema.json"))
        assert code == 0 and payload["max_fertility"] == 8
        assert "54321" in payload["argmax"]

    def test_spectrum(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--pattern", "132", "--n-max", "5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("achieved 1 2 3")
        assert lines[1] == "gaps none"

    def test_spectrum_without_target_lengths(self, capsys):
        code, out, err = invoke(capsys, "spectrum", "--pattern", "132", "--n-max", "0")
        assert code == 1 and out == "" and "--n-max must be >= 1" in err

    def test_spectrum_bound_exits_3_before_any_tally(self, capsys, no_scan):
        code, out, err = invoke(capsys, "spectrum", "--pattern", "132", "--n-max", "10")
        assert code == 3 and out == "" and "n <= 9" in err


class TestSortableCommands:
    def test_count(self, capsys):
        code, out, _ = invoke(capsys, "sortable", "--pattern", "321", "--n", "6")
        assert code == 0 and out.strip() == "51"

    def test_jobs_invariance(self, capsys):
        _, out1, _ = invoke(capsys, "sortable", "--pattern", "231", "--n", "6")
        _, out4, _ = invoke(capsys, "sortable", "--pattern", "231", "--n", "6",
                            "--jobs", "4")
        assert out1 == out4

    def test_list(self, capsys):
        code, out, _ = invoke(capsys, "sortable", "--pattern", "132", "--n", "3",
                              "--list")
        assert code == 0 and len(out.splitlines()) == 5

    @pytest.mark.parametrize("flag", ["--bfile", "--count-only"])
    def test_list_with_another_output_is_usage_error(self, capsys, no_scan, flag):
        code, out, err = invoke(capsys, "sortable", "--pattern", "132", "--n", "3",
                                "--list", flag)
        assert code == 1 and out == "" and "--list" in err and flag in err

    def test_list_bound_exit_code(self, capsys):
        code, out, err = invoke(capsys, "sortable", "--pattern", "231", "--n", "12",
                                "--list")
        assert code == 3 and out == "" and "n <= 9" in err

    def test_list_unsafe_yields_first_member(self, monkeypatch):
        # stop at the first listed member instead of listing all of S_12
        class FirstLine(Exception):
            pass

        def echo(message=None, **kwargs):
            raise FirstLine(message)

        monkeypatch.setattr(cli.click, "echo", echo)
        with pytest.raises(FirstLine) as first:
            cli.main(["sortable", "--pattern", "231", "--n", "12", "--list",
                      "--unsafe-n"])
        assert first.value.args == ("1,2,3,4,5,6,7,8,9,10,11,12",)

    def test_bfile(self, capsys):
        code, out, _ = invoke(capsys, "sortable", "--pattern", "321", "--n", "5",
                              "--bfile")
        assert code == 0
        assert out.splitlines() == ["0 1", "1 1", "2 2", "3 4", "4 9", "5 21"]

    def test_bfile_bound_exit_code(self, capsys, no_scan):
        code, out, err = invoke(capsys, "sortable", "--pattern", "231", "--n", "10",
                                "--bfile")
        assert code == 3 and out == "" and "n <= 9" in err

    def test_count_bound_exit_code(self, capsys):
        code, out, err = invoke(capsys, "sortable", "--pattern", "231", "--n", "20",
                                "--count-only")
        assert code == 3 and out == "" and "n <= 9" in err

    @pytest.mark.parametrize("flag", ["--bfile", "--count-only"])
    def test_negative_n_exits_1(self, capsys, flag):
        code, out, err = invoke(capsys, "sortable", "--pattern", "231", "--n", "-1", flag)
        assert code == 1 and out == "" and "must be >= 0" in err


class TestPhiCommand:
    def test_encode(self, capsys):
        code, out, _ = invoke(capsys, "phi", "--perm", "589436712")
        assert code == 0 and out.strip() == "UUUUUDDDUDUDDDUUDD"

    def test_decode(self, capsys):
        code, out, _ = invoke(capsys, "phi", "--invert", "UUUUUDDDUDUDDDUUDD")
        assert code == 0 and out.strip() == "589436712"

    def test_requires_exactly_one(self, capsys):
        code, _, err = invoke(capsys, "phi")
        assert code == 1

    def test_unsortable_input(self, capsys):
        code, _, err = invoke(capsys, "phi", "--perm", "132")
        assert code == 1


class TestClassCheck:
    def test_known_counterexample(self, capsys):
        code, out, _ = invoke(capsys, "class-check", "--pattern", "231",
                              "--brute-n", "5")
        assert code == 0
        assert "not a permutation class" in out
        assert "agreement yes" in out

    def test_negative_brute_n_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "class-check", "--pattern", "231", "--brute-n", "-1")
        assert code == 1 and out == "" and "--brute-n must be >= 0" in err

    def test_zero_brute_n_skips_the_check(self, capsys):
        code, out, _ = invoke(capsys, "class-check", "--pattern", "231", "--brute-n", "0")
        assert code == 0 and out == "not a permutation class\n"

    def test_class_verdict(self, capsys):
        code, out, _ = invoke(capsys, "class-check", "--pattern", "2431")
        assert code == 0 and "Av(132)" in out

    def test_brute_n_past_the_bound_exits_3(self, capsys):
        code, out, err = invoke(capsys, "class-check", "--pattern", "12", "--brute-n", "9")
        assert code == 3 and out == "" and "--brute-n must be <= 8" in err
        # the pattern is still checked first
        code, out, err = invoke(capsys, "class-check", "--pattern", "1", "--brute-n", "9")
        assert code == 1 and out == "" and "length >= 2" in err


class TestSeqCommand:
    @pytest.fixture(autouse=True)
    def digit_limit(self):
        # `seq --unsafe-n` lifts Python's int-to-str digit limit for the process
        if not hasattr(sys, "get_int_max_str_digits"):  # Python < 3.11: no limit
            yield
            return
        limit = sys.get_int_max_str_digits()
        try:
            yield
        finally:
            sys.set_int_max_str_digits(limit)

    def test_bfile(self, capsys):
        code, out, _ = invoke(capsys, "seq", "--name", "motzkin", "--upto", "9",
                              "--bfile")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "0 1" and lines[-1] == "9 835"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bfile_with_another_format_is_usage_error(self, capsys, fmt):
        code, out, err = invoke(capsys, "seq", "--name", "motzkin", "--upto", "9",
                                "--bfile", "--format", fmt)
        assert code == 1 and out == "" and "--bfile" in err and f"--format {fmt}" in err

    @pytest.mark.parametrize(
        "args", [("--bfile",), ("--format", "bfile"), ("--bfile", "--format", "bfile"),
                 ("--bfile", "--format", "plain")], ids=" ".join)
    def test_bfile_spellings_print_the_same_lines(self, capsys, args):
        code, out, _ = invoke(capsys, "seq", "--name", "motzkin", "--upto", "9", *args)
        table = sequences.named_sequence("motzkin", 9)
        assert code == 0 and out.splitlines() == list(table.bfile_lines())

    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, "seq", "--name", "catalan", "--upto", "5")
        assert code == 0 and out.strip() == "1, 1, 2, 5, 14, 42"

    def test_json(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        code, out, _ = invoke(capsys, "seq", "--name", "fine", "--upto", "5",
                              "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("sequence.schema.json"))
        assert payload["values"] == [0, 1, 0, 1, 2, 6]

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "seq", "--name", "central-binomial",
                              "--upto", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,value", "0,1", "1,1", "2,2", "3,3"]

    def test_unknown(self, capsys):
        code, _, _ = invoke(capsys, "seq", "--name", "nope", "--upto", "3")
        assert code == 1

    def test_genmotzkin_k_below_3(self, capsys):
        code, out, err = invoke(capsys, "seq", "--name", "genmotzkin:2", "--upto", "6")
        assert (code, out, err) == (1, "", "error: genmotzkin:<k> needs k >= 3, got 2\n")

    def test_upto_bound_exit_code(self, capsys):
        code, out, err = invoke(capsys, "seq", "--name", "catalan", "--upto", "20000")
        assert code == 3 and out == "" and "n <= 1000" in err

    def test_upto_bound_lifted(self, capsys):
        code, out, _ = invoke(capsys, "seq", "--name", "central-binomial",
                              "--upto", "1001", "--unsafe-n")
        assert code == 0 and len(out.split(", ")) == 1002

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="Python < 3.11 has no int-to-str digit limit")
    def test_unsafe_values_past_the_digit_limit(self, capsys):
        sys.set_int_max_str_digits(640)  # catalan(1100) has 658 digits
        safe = invoke(capsys, "seq", "--name", "catalan", "--upto", "1100")
        unsafe = invoke(capsys, "seq", "--name", "catalan", "--upto", "1100", "--unsafe-n")
        assert safe[0] == 3
        assert unsafe[0] == 0
        assert unsafe[1].rstrip().rsplit(", ", 1)[-1] == str(sequences.catalan(1100))


class TestEmptyPermutation:
    """The exhaustive commands on S_0, which holds only the empty permutation."""

    @pytest.mark.parametrize("args, expected", [
        (("sortable", "--pattern", "231", "--n", "0"), "1\n"),
        (("sortable", "--pattern", "231", "--n", "0", "--list"), "\n"),
        (("sortable", "--pattern", "231", "--n", "0", "--bfile"), "0 1\n"),
        (("periodic", "--pattern", "231", "--n", "0"), "\n"),
        (("periodic", "--pattern", "231", "--n", "0", "--count-only"), "1\n"),
        (("fiber", "--pattern", "231", "--target", ""), "1\n\n"),
    ])
    def test_stdout(self, capsys, args, expected):
        code, out, _ = invoke(capsys, *args)
        assert code == 0 and out == expected

    # consecutive 231 tallies by parts of S_n, classical 21 all at once: the
    # two branches of preimages._fiber_folds
    @pytest.mark.parametrize("mode, pattern", [("consecutive", "231"), ("classical", "21")])
    def test_max_fertility(self, capsys, mode, pattern):
        args = ("max-fertility", "--mode", mode, "--pattern", pattern, "--n", "0")
        assert invoke(capsys, *args)[:2] == (0, "1\n\n")
        assert invoke(capsys, *args, "--format", "json")[:2] == (
            0, '{"argmax": [""], "max_fertility": 1, "n": 0}\n'
        )


class TestReproduce:
    def test_truncated_table_matches(self, capsys):
        code, out, _ = invoke(capsys, "reproduce", "sortable", "--n-max", "5")
        assert code == 0
        assert "all rows match" in out
        assert "truncated at n=5" in out

    def test_jobs_matches(self, capsys):
        for table in ("sortable", "max-fertility"):
            _, out1, _ = invoke(capsys, "reproduce", table, "--n-max", "5")
            _, out2, _ = invoke(capsys, "reproduce", table, "--n-max", "5", "--jobs", "2")
            assert out1 == out2

    def test_sortable_table_bytes(self, capsys):
        # each row and its complement's come from one scan per n; the table
        # prints as it did with one scan per row
        code, out, err = invoke(capsys, "reproduce", "sortable", "--n-max", "7")
        assert (code, err) == (0, "")
        assert out == (
            "pattern |      0      1      2      3      4      5      6      7   OEIS\n"
            "    123 |      1      1      2      5     12     30     76    196"
            "   A002026 (also cited as A002006)\n"
            "    132 |      1      1      2      5     14     42    132    429   A000108\n"
            "    213 |      1      1      2      5     15     50    180    686   -\n"
            "    231 |      1      1      2      6     21     79    311   1265"
            "   - (conjecturally A033321)\n"
            "    312 |      1      1      2      5     15     50    179    675   -\n"
            "    321 |      1      1      2      4      9     21     51    127   A001006\n"
            "(truncated at n=7; reference extends to n=9)\n"
            "all rows match\n"
        )

    def test_mismatch_exits_2(self, capsys, monkeypatch):
        doctored = dict(golden.MAX_FERTILITY)
        doctored["231"] = (1, 1, 2, 4, 9, 16, 32, 64, 128)
        monkeypatch.setattr(golden, "MAX_FERTILITY", doctored)
        code, out, err = invoke(capsys, "reproduce", "max-fertility", "--n-max", "5")
        assert code == 2
        assert "MISMATCH 231" in out

    def test_beyond_reference_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "reproduce", "sortable", "--n-max", "12")
        assert code == 1

    @pytest.mark.parametrize("table, n_max", [
        ("max-fertility", "-1"), ("sortable", "-1"), ("max-fertility", "0"),
    ])
    def test_below_first_column_is_usage_error(self, capsys, table, n_max):
        # no column would be compared, so no verdict is printed
        code, out, err = invoke(capsys, "reproduce", table, "--n-max", n_max)
        assert code == 1 and out == "" and "the table's columns" in err


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0 and "map" in out

    def test_no_args_is_usage_error(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 1 and "Usage" in err


# the nine commands on one machine, each with its other arguments out of
# bounds where it has a bound (alone, those exit 3)
MACHINE_COMMANDS = {
    "map": ["--input", "123"],
    "trace": ["--input", "123"],
    "orbit": ["--input", "123"],
    "periodic": ["--n", "10"],
    "sd": ["--input", "123"],
    "fiber": ["--target", "1,2,3,4,5,6,7,8,9,10"],
    "max-fertility": ["--n", "10"],
    "spectrum": ["--n-max", "10"],
    "sortable": ["--n", "10"],
}


class TestMachineCommand:
    @pytest.mark.parametrize("command", MACHINE_COMMANDS)
    @pytest.mark.parametrize("machine, message", [
        (["--pattern", "1"], "length >= 2"),
        (["--pattern", "231", "--mode", "sideways"], "mode must be"),
    ])
    def test_bad_machine_exits_1_first(self, capsys, no_scan, command, machine, message):
        code, out, err = invoke(capsys, command, *machine, *MACHINE_COMMANDS[command])
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize("command", ["periodic", "fiber", "max-fertility", "spectrum",
                                         "sortable"])
    def test_bound_alone_exits_3(self, capsys, command):
        code, out, _ = invoke(capsys, command, "--pattern", "231", *MACHINE_COMMANDS[command])
        assert code == 3 and out == ""

    @pytest.mark.parametrize("command", MACHINE_COMMANDS)
    def test_help_lists_the_machine_first(self, capsys, command):
        code, out, _ = invoke(capsys, command, "--help")
        options = [line.split()[0] for line in out.splitlines() if line.startswith("  --")]
        assert code == 0 and options[:2] == ["--pattern", "--mode"]
        assert "--help" in options[2:]


@pytest.mark.parametrize("args", [
    ("sortable", "--pattern", "231", "--n", "5"),
    ("max-fertility", "--pattern", "231", "--n", "5"),
    ("reproduce", "sortable", "--n-max", "5"),
])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_non_positive_jobs_is_usage_error(capsys, no_scan, args, jobs):
    code, out, err = invoke(capsys, *args, "--jobs", jobs)
    assert code == 1 and out == "" and "--jobs" in err


def test_module_runs_as_a_script():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "stacksorting.cli", "map", "--pattern", "231",
         "--input", "265413"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "653142\n")
