import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pattern_bodies, permutations_up_to
from stacksorting.machine import (
    MachineSpec,
    _compiled_runner,
    _push_blocked_reference,
    classical_machine,
    consecutive_123_image,
    consecutive_321_image,
    consecutive_machine,
    machine_of,
    output_of_trace,
    premature_entries,
    run,
    scan,
    stack_sort,
    trace,
)
from stacksorting.permutations import (
    all_permutations,
    classical,
    complement,
    consecutive,
    contains,
    identity,
    is_permutation,
    peak_valley_count,
    reverse,
    vincular,
)
from stacksorting.preimages import image_tally
from stacksorting.sortable import count_sortable

SC231 = consecutive_machine((2, 3, 1))
SC132 = consecutive_machine((1, 3, 2))
SC321 = consecutive_machine((3, 2, 1))
SC123 = consecutive_machine((1, 2, 3))
S231 = classical_machine((2, 3, 1))


class TestSpecValidation:
    def test_needs_patterns(self):
        with pytest.raises(ValueError):
            MachineSpec(())

    def test_rejects_short_bodies(self):
        with pytest.raises(ValueError):
            consecutive_machine((1,))

    def test_multi_pattern(self):
        spec = classical_machine((1, 3, 2), (2, 3, 1))
        assert len(spec.forbidden) == 2


class TestWorkedExamples:
    def test_consecutive_231(self):
        assert run(SC231, (2, 6, 5, 4, 1, 3)) == (6, 5, 3, 1, 4, 2)

    def test_classical_231(self):
        assert run(S231, (2, 6, 5, 4, 1, 3)) == (6, 5, 1, 4, 3, 2)

    def test_consecutive_132(self):
        assert run(SC132, (5, 8, 9, 4, 3, 6, 7, 1, 2)) == (9, 8, 7, 6, 2, 1, 3, 4, 5)

    def test_singleton(self):
        for k in (2, 3):
            for body in itertools.permutations(range(1, k + 1)):
                assert run(consecutive_machine(body), (1,)) == (1,)

    def test_reversal_when_reverse_pattern_absent(self):
        # 123 avoids 231 consecutively, so everything enters the stack
        assert run(SC132, (1, 2, 3)) == (3, 2, 1)

    def test_empty_input(self):
        assert run(SC231, ()) == ()


class TestTrace:
    def test_contains_witness_stack(self):
        steps = trace(SC231, (2, 6, 5, 4, 1, 3))
        assert any(s.stack_after == (3, 1, 4, 2) for s in steps)

    def test_classical_never_reaches_witness_stack(self):
        steps = trace(S231, (2, 6, 5, 4, 1, 3))
        assert not any(s.stack_after == (3, 1, 4, 2) for s in steps)

    def test_single_entry(self):
        steps = trace(SC132, (1,))
        assert [(s.kind, s.value) for s in steps] == [("push", 1), ("pop", 1)]

    def test_push_pop_counts_and_output(self):
        for p in all_permutations(5):
            steps = trace(SC231, p)
            assert sum(s.kind == "push" for s in steps) == 5
            assert sum(s.kind == "pop" for s in steps) == 5
            assert output_of_trace(steps) == run(SC231, p)

    def test_stacks_avoid_forbidden(self):
        for p in all_permutations(5):
            for s in trace(SC321, p):
                assert not contains(s.stack_after, consecutive((3, 2, 1)))

    def test_stack_elision(self):
        steps = trace(SC231, (2, 1, 3), record_stacks=False)
        assert all(s.stack_after is None for s in steps)


class TestEngineAgreement:
    """The compiled runners agree with the reference decider on every machine
    shape: single/multi pattern, all three modes."""

    @given(permutations_up_to(6), pattern_bodies(4),
           st.sampled_from(["consecutive", "classical", "vincular"]))
    @settings(max_examples=150, deadline=None)
    def test_compiled_matches_trace(self, p, body, mode):
        if mode == "consecutive":
            pat = consecutive(body)
        elif mode == "classical":
            pat = classical(body)
        else:
            pat = vincular(body, (1,))
        spec = machine_of([pat])
        assert run(spec, p) == output_of_trace(trace(spec, p))

    @given(permutations_up_to(6), pattern_bodies(3), pattern_bodies(3))
    @settings(max_examples=80, deadline=None)
    def test_multi_pattern_machines(self, p, b1, b2):
        for maker in (consecutive_machine, classical_machine):
            spec = maker(b1, b2)
            assert run(spec, p) == output_of_trace(trace(spec, p))

    @given(permutations_up_to(7), pattern_bodies(4))
    @settings(max_examples=150, deadline=None)
    def test_output_is_permutation(self, p, body):
        out = run(consecutive_machine(body), p)
        assert is_permutation(out) and len(out) == len(p)

    def test_consecutive_locality(self):
        # deciding a push from the top k-1 entries agrees with rechecking the
        # whole stack, at every step of every run
        for body in itertools.permutations((1, 2, 3)):
            spec = consecutive_machine(body)
            pat = consecutive(body)
            for n in range(1, 9):
                for p in all_permutations(n):
                    stack = []
                    for c in p:
                        while stack and _push_blocked_reference(spec, stack, c):
                            # full-stack recheck of the would-be contents
                            host = (c, *reversed(stack))
                            assert contains(host, pat)
                            stack.pop()
                        if stack:
                            assert not contains((c, *reversed(stack)), pat)
                        stack.append(c)


def _every_machine_shape():
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


# one machine per compiled runner variant
RUNNER_VARIANTS = {
    "run_consec3": SC231,
    "run_consecutive": consecutive_machine((1, 2, 3), (3, 2, 1)),
    "run_classical3": classical_machine((1, 3, 2)),
    "run_generic": classical_machine((1, 3, 2, 4)),
}


class TestScan:
    """The prefix-shared scan agrees with one run per permutation, and the
    runners with the reference decider, exhaustively for n <= 6."""

    @pytest.mark.parametrize("spec", _every_machine_shape(), ids=str)
    def test_scan_matches_run_and_reference(self, spec):
        for n in range(7):
            expected = [(p, run(spec, p)) for p in all_permutations(n)]
            for p, image in expected:
                assert image == output_of_trace(trace(spec, p, record_stacks=False))
            assert list(scan(spec, n)) == expected
            for first in range(1, n + 1):
                assert list(scan(spec, n, (first,))) == [
                    pair for pair in expected if pair[0][0] == first
                ]

    def test_longer_prefix(self):
        assert list(scan(SC231, 7, (3, 1, 7))) == [
            (p, run(SC231, p)) for p in all_permutations(7) if p[:3] == (3, 1, 7)
        ]

    @pytest.mark.parametrize("prefix", [(0,), (4,), (1, 1)])
    def test_bad_prefix_rejected(self, prefix):
        with pytest.raises(ValueError):
            list(scan(SC231, 3, prefix))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            list(scan(SC231, -1))
        with pytest.raises(ValueError):
            count_sortable(SC231, -1)

    @pytest.mark.parametrize("name", sorted(RUNNER_VARIANTS))
    def test_runner_variant_names(self, name):
        assert _compiled_runner(RUNNER_VARIANTS[name]).__name__ == name

    @pytest.mark.parametrize("name", sorted(RUNNER_VARIANTS))
    def test_jobs_agree(self, name):
        spec = RUNNER_VARIANTS[name]
        assert count_sortable(spec, 7, jobs=2) == count_sortable(spec, 7, jobs=1)
        assert image_tally(spec, 7, jobs=2) == image_tally(spec, 7, jobs=1)


class TestIdentities:
    def test_classic_map_three_ways(self):
        sc21 = consecutive_machine((2, 1))
        s21 = classical_machine((2, 1))
        for n in range(9):
            for p in all_permutations(n):
                out = stack_sort(p)
                assert run(sc21, p) == out
                assert run(s21, p) == out

    def test_complement_conjugacy_small(self):
        # comp . machine . comp equals the complemented machine, both modes
        bodies = [b for k in (2, 3, 4) for b in itertools.permutations(range(1, k + 1))]
        for body in bodies:
            comp_body = complement(body)
            for maker in (consecutive_machine, classical_machine):
                spec, cspec = maker(body), maker(comp_body)
                for n in range(7):
                    for p in all_permutations(n):
                        assert run(cspec, p) == complement(run(spec, complement(p)))

    def test_complement_conjugacy_consecutive_short_n8(self):
        bodies = list(itertools.permutations((1, 2))) + list(
            itertools.permutations((1, 2, 3))
        )
        for body in bodies:
            spec = consecutive_machine(body)
            cspec = consecutive_machine(complement(body))
            for n in (7, 8):
                for p in all_permutations(n):
                    assert run(cspec, p) == complement(run(spec, complement(p)))

    def test_reversal_shortcut(self):
        for body in itertools.permutations((1, 2, 3)):
            spec = consecutive_machine(body)
            rev_pat = consecutive(reverse(body))
            for n in range(9):
                for p in all_permutations(n):
                    if not contains(p, rev_pat):
                        assert run(spec, p) == reverse(p)


class TestClosedForms:
    def test_321_worked_example(self):
        assert consecutive_321_image((4, 5, 7, 2, 1, 3, 6)) == (5, 3, 6, 1, 2, 7, 4)

    def test_321_identity_input(self):
        assert consecutive_321_image((1, 2, 3, 4)) == (2, 3, 4, 1)

    def test_321_decreasing_input(self):
        assert consecutive_321_image((4, 3, 2, 1)) == (1, 2, 3, 4)

    def test_123_short_example(self):
        assert consecutive_123_image((1, 3, 2)) == (2, 3, 1)

    def test_123_increasing_input(self):
        assert consecutive_123_image(identity(5)) == (5, 4, 3, 2, 1)

    def test_closed_forms_match_simulation_and_g_monotone(self):
        # one sweep per size: both closed forms against simulation plus the
        # peak/valley monotonicity of the 321 machine, exhaustive through n=9
        for n in range(10):
            for p in all_permutations(n):
                out = run(SC321, p)
                assert consecutive_321_image(p) == out
                assert consecutive_123_image(p) == run(SC123, p)
                assert peak_valley_count(p) <= peak_valley_count(out)

    def test_123_image_is_complement_conjugate(self):
        for n in range(9):
            for p in all_permutations(n):
                assert consecutive_123_image(p) == complement(
                    consecutive_321_image(complement(p))
                )


class TestPremature:
    def test_known_family_member(self):
        assert premature_entries(SC231, (1, 8, 7, 2, 6, 3, 4, 5)) == [8, 7, 6]
        assert run(SC231, (1, 8, 7, 2, 6, 3, 4, 5)) == (8, 7, 6, 5, 4, 3, 2, 1)

    def test_single_entry(self):
        assert premature_entries(SC132, (1,)) == []

    def test_first_and_last_never_premature(self):
        for p in all_permutations(6):
            early = premature_entries(SC231, p)
            assert p[0] not in early and p[-1] not in early

    def test_structural_identity_231(self):
        # output = premature entries ++ reverse of the rest
        for n in range(9):
            for p in all_permutations(n):
                early = premature_entries(SC231, p)
                rest = [v for v in p if v not in set(early)]
                assert run(SC231, p) == tuple(early) + reverse(rest)
