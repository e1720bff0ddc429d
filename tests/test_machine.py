import importlib
import itertools
import pkgutil
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stacksorting
from stacksorting import machine
from conftest import (
    _expanded,
    _push_blocked_reference,
    complement_machine,
    contains_reference,
    every_machine_shape,
    pattern_bodies,
    permutations_up_to,
    trace_reference,
)
from stacksorting.machine import (
    MachineSpec,
    TraceStep,
    _compiled_runner,
    _reach,
    _unrank,
    classical_machine,
    consecutive_123_image,
    consecutive_321_image,
    consecutive_machine,
    image_map,
    machine_of,
    output_of_trace,
    premature_entries,
    rank,
    run,
    scan,
    scan_batches,
    scan_reduce,
    stack_sort,
    trace,
)
from stacksorting.permutations import (
    _compiled_feed,
    all_permutations,
    classical,
    complement,
    consecutive,
    contains,
    decreasing,
    identity,
    is_permutation,
    peak_valley_count,
    reverse,
    vincular,
)
from stacksorting.preimages import fiber, image_tally
from stacksorting.sortable import count_sortable, is_sortable, sortable_members

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

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_matches_reference_step_for_step(self, spec):
        # kind, value and stack after each step, against the backtracking decider
        for n in range(6):
            for p in all_permutations(n):
                steps = trace(spec, p)
                assert steps == trace_reference(spec, p), p
                assert trace(spec, p, record_stacks=False) == [
                    TraceStep(s.kind, s.value, None) for s in steps
                ], p


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
        assert run(spec, p) == output_of_trace(trace_reference(spec, p))

    @given(permutations_up_to(6), pattern_bodies(3), pattern_bodies(3))
    @settings(max_examples=80, deadline=None)
    def test_multi_pattern_machines(self, p, b1, b2):
        for maker in (consecutive_machine, classical_machine):
            spec = maker(b1, b2)
            assert run(spec, p) == output_of_trace(trace_reference(spec, p))

    @given(permutations_up_to(7), pattern_bodies(4))
    @settings(max_examples=150, deadline=None)
    def test_output_is_permutation(self, p, body):
        out = run(consecutive_machine(body), p)
        assert is_permutation(out) and len(out) == len(p)

    def test_consecutive_locality(self):
        # deciding a push from the top k-1 entries agrees with rechecking the
        # whole stack, at every (stack, incoming entry) state of a run over
        # S_1..S_8.  The state at an entry depends only on the prefix ending
        # there, and every prefix of a permutation of [m], m <= 8, is a node
        # of the prefix tree of S_8, so a walk of that tree checks each such
        # state, once.
        def walk(spec, pat, stack, rest):
            for c in rest:
                stack_c = list(stack)
                while stack_c and _push_blocked_reference(spec, stack_c, c):
                    # full-stack recheck of the would-be contents
                    host = (c, *reversed(stack_c))
                    assert contains(host, pat)
                    stack_c.pop()
                if stack_c:
                    assert not contains((c, *reversed(stack_c)), pat)
                stack_c.append(c)
                walk(spec, pat, stack_c, [v for v in rest if v != c])

        for body in itertools.permutations((1, 2, 3)):
            walk(consecutive_machine(body), consecutive(body), [], range(1, 9))


# one machine per compiled runner variant
RUNNER_VARIANTS = {
    "run_consecutive": consecutive_machine((1, 2, 3), (3, 2, 1)),
    "run_generic": classical_machine((1, 3, 2, 4)),
}
JOBS_MACHINES = {
    **RUNNER_VARIANTS,
    "consecutive-231": SC231,
    "classical-132": classical_machine((1, 3, 2)),
}


CONSECUTIVE_SHAPES = [
    spec for spec in every_machine_shape() if all(p.is_consecutive for p in spec.forbidden)
]


class TestScan:
    """The prefix-shared scan agrees with one run per permutation, and the
    runners with the reference decider, exhaustively for n <= 6."""

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_scan_matches_run_and_reference(self, spec):
        # the i-th image is that of the i-th permutation in lexicographic order
        for n in range(7):
            perms = list(all_permutations(n))
            expected = [run(spec, p) for p in perms]
            for p, image in zip(perms, expected):
                assert image == output_of_trace(trace_reference(spec, p, record_stacks=False))
            assert list(scan(spec, n)) == expected
            for first in range(1, n + 1):
                assert list(scan(spec, n, (first,))) == [
                    image for p, image in zip(perms, expected) if p[0] == first
                ]

    @pytest.mark.parametrize("spec", CONSECUTIVE_SHAPES, ids=str)
    def test_stored_programs_match_run(self, spec, monkeypatch):
        # at n = 7 and 8 a head holds two or three entries, so the programs
        # meet stacks with an untouched bottom and, under the length-2 and
        # length-3 machines, reaches past the top entry; they run only where
        # the heads reach the window a push reads
        served = []
        images = machine._TailPrograms.images

        def recording(self, *head):
            served.append(head)
            return images(self, *head)

        monkeypatch.setattr(machine._TailPrograms, "images", recording)
        for n in (7, 8):
            perms = list(all_permutations(n))
            expected = [run(spec, p) for p in perms]
            assert list(scan(spec, n)) == expected
            assert list(scan(spec, n, (2,))) == [
                image for p, image in zip(perms, expected) if p[0] == 2
            ]
        assert served

    def test_scans_share_one_store_across_n_and_prefixes(self):
        # keys, reaches and programs hold for any n and prefix, so a store
        # warmed at n = 9 under the prefix 5 serves the scans of S_8 as well
        perms = list(all_permutations(8))
        expected = [run(SC132, p) for p in perms]

        def added_by_the_n8_scans():
            store = machine._tail_programs(SC132)
            before = len(store.keys)
            assert list(scan(SC132, 8)) == expected
            assert list(scan(SC132, 8, (2,))) == [
                image for p, image in zip(perms, expected) if p[0] == 2
            ]
            return len(store.keys) - before

        machine._tail_programs.cache_clear()
        cold = added_by_the_n8_scans()
        machine._tail_programs.cache_clear()
        list(scan(SC132, 9, (5,)))
        warm = added_by_the_n8_scans()
        assert warm < cold

    @pytest.mark.parametrize("body", [*itertools.permutations((1, 2, 3)), (1, 4, 3, 2)],
                             ids=lambda body: "".join(map(str, body)))
    def test_tails_of_four_and_five_share_one_store(self, body):
        # a length-3 machine runs programs on the first-entry partitions of
        # S_8 and S_9, under heads of two and three entries, and SC_1432 over
        # all of S_8 and S_9, under heads of three and four; every tail holds
        # five entries, so keys that show different numbers of top entries
        # differ in length, and one store serves every n and prefix
        spec = consecutive_machine(body)
        machine._tail_programs.cache_clear()
        for n in range(1, 10) if len(body) == 3 else (8, 9):
            expected = [run(spec, p) for p in all_permutations(n)]
            if len(body) == 4:
                assert list(scan(spec, n)) == expected
                continue
            block = factorial(n - 1)
            for first in range(1, n + 1):
                assert list(scan(spec, n, (first,))) == expected[(first - 1) * block:first * block]
        programs = machine._tail_programs(spec).programs
        assert programs
        for program, classes in programs.values():
            # the classes hold each distinct getter once, with how many of
            # the 5! orders take it
            assert len(program) == factorial(5)
            assert Counter(program) == Counter(
                {get: m for m, getters in classes for get in getters})
            assert sum(m * len(getters) for m, getters in classes) == factorial(5)

    @pytest.mark.parametrize("spec", [consecutive_machine((1, 2, 3), (3, 2, 1)), SC231, SC132],
                             ids=str)
    def test_a_count_and_an_image_map_share_their_programs(self, spec):
        # every scan of a machine runs tails of one length, so the programs
        # that count_sortable builds at n = 8 serve image_map there too
        def added_by_the_image_map():
            store = machine._tail_programs(spec)
            before = len(store.programs)
            image_map(spec, 8)
            return len(store.programs) - before

        machine._tail_programs.cache_clear()
        cold = added_by_the_image_map()
        machine._tail_programs.cache_clear()
        count_sortable(spec, 8)
        assert added_by_the_image_map() < cold

    def test_equal_machines_share_one_store(self):
        assert machine._tail_programs(consecutive_machine((1, 3, 2))) is machine._tail_programs(SC132)
        assert machine._tail_programs(SC132) is not machine._tail_programs(SC231)

    @pytest.mark.parametrize("spec", [SC132, SC231], ids=str)
    def test_no_tail_pops_below_the_reach(self, spec):
        # the reach counts the top entries that some tail value, pushed right
        # onto each, pops, until the first it does not; no order of the tail
        # pops an entry below it
        feed = _compiled_feed(spec.forbidden)

        def pops(stack, c):
            out = []
            feed(stack, out, (c,))
            return bool(out)

        reaches = Counter()
        for head in itertools.permutations(range(1, 9), 4):
            stack: list[int] = []
            feed(stack, [], head)
            tail = sorted(set(range(1, 9)) - set(head))
            reach = _reach(feed, stack, tail, 2)
            reaches[reach] += 1
            depth = len(stack)
            for i in range(min(reach + 1, depth)):
                # the whole stack below, not only the window a push reads
                assert any(pops(stack[:depth - i], c) for c in tail) == (i < reach), (head, i)
            for t in itertools.permutations(tail):
                s = stack.copy()
                feed(s, [], t)
                assert s[:depth - reach] == stack[:depth - reach], (head, t)
        assert {0, 1, 2} <= set(reaches)

    def test_longer_prefix(self):
        assert list(scan(SC231, 7, (3, 1, 7))) == [
            run(SC231, p) for p in all_permutations(7) if p[:3] == (3, 1, 7)
        ]

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_sources_are_lexicographic_positions(self, spec):
        # fiber and sortable_members read each source off its scan position
        for n in range(7):
            perms = list(all_permutations(n))
            assert list(sortable_members(spec, n)) == [p for p in perms if is_sortable(spec, p)]
            if n <= 5:  # each fiber rescans S_n, so every target of S_6 is too slow
                for t in perms:
                    assert fiber(spec, t).preimages == tuple(p for p in perms if run(spec, p) == t)

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

    @pytest.mark.parametrize("name", sorted(JOBS_MACHINES))
    def test_jobs_agree(self, name):
        spec = JOBS_MACHINES[name]
        assert count_sortable(spec, 7, jobs=2) == count_sortable(spec, 7, jobs=1)
        assert image_tally(spec, 7, jobs=2) == image_tally(spec, 7, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_non_positive_jobs_rejected(self, jobs):
        # at the call, before any partition is reduced
        with pytest.raises(ValueError):
            scan_reduce(SC231, 5, len, jobs)

    def test_pool_has_at_most_one_worker_per_partition(self, recording_pool):
        assert count_sortable(SC231, 5, jobs=64) == count_sortable(SC231, 5)
        assert recording_pool["max_workers"] == [5]

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_partitions_do_not_depend_on_jobs(self, spec, recording_pool):
        # one result per first entry, in order, whether serial or in the pool
        for n in range(6):
            prefixes = [(first,) for first in range(1, n + 1)] or [()]
            expected = [Counter(scan(spec, n, p)) for p in prefixes]
            assert list(scan_reduce(spec, n, _expanded, 1)) == expected
            assert list(scan_reduce(spec, n, _expanded, 2)) == expected
        assert recording_pool["tasks"] == [
            [(spec, n, (first,)) for first in range(1, n + 1)] for n in range(2, 6)
        ]

    def test_reducer_goes_to_each_worker_once(self, recording_pool):
        # the tasks name only the partition; the reducer rides in initargs
        parts = list(scan_reduce(SC231, 4, _expanded, jobs=2))
        assert recording_pool["initargs"] == [(_expanded, None)]
        assert recording_pool["tasks"] == [[(SC231, 4, (first,)) for first in range(1, 5)]]
        assert sum(parts, Counter()) == image_tally(SC231, 4)

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_images_hold_the_forced_word_of_each_head(self, spec):
        # a head's output is fixed and its stack empties from the top, so its
        # image on its own (output, then stack top-down) is a subsequence of
        # the image of every permutation that starts with it
        for n in range(7):
            for p, image in zip(all_permutations(n), scan(spec, n)):
                for k in range(n + 1):
                    rest = iter(image)
                    assert all(v in rest for v in run(spec, p[:k])), (p, k)

    @pytest.mark.parametrize("prefix", [(), (2,), (3, 1)], ids=str)
    def test_skip_drops_the_tails_of_the_heads_it_passes(self, prefix):
        # where the tails run as stored programs (SC231 once seven entries
        # follow the prefix, so that the head after it holds the two entries
        # a push reads), the head is all but the last five entries, and a
        # permutation is dropped when the image of its head contains 312, or
        # else when one of the head's tail words does: its output, then a
        # tail value, then the stack below the top entries that the programs
        # read (the reach, and the window less one below it), top-down.
        # Elsewhere the head is all but the last four entries, or the prefix
        # when longer, and it is dropped when the image of its head or, when
        # four entries follow the head, of the head and one entry more does.
        # The walk also tests each shorter state past the prefix, which drops
        # no more, since every word holding one that contains 312 contains
        # 312 too (231 would do as well, but no head after 31 holds it at
        # n < 8).  The prefix itself is where the walk starts and is not
        # tested, though a length-0 head after it once was.  The batches,
        # expanded, hold the images of the permutations kept.
        def skip(word):
            return contains(word, classical((3, 1, 2)))

        seen = set()
        for spec in (SC231, classical_machine((1, 3, 2, 4)), machine_of([vincular((2, 3, 1), (1,))])):
            consecutive = all(p.is_consecutive for p in spec.forbidden)
            feed = _compiled_feed(spec.forbidden)
            # SC231 also at the first n whose heads hold three entries past
            # the prefix, where the tail words hold up to four entries
            for n in range(max(prefix, default=0), len(prefix) + 9 if consecutive else 8):
                programs = consecutive and n - len(prefix) >= 7
                head = n - 5 if programs else max(n - 4, len(prefix))
                depths = (0, 1) if not programs and n - head == 4 else (0,)
                depths = [d for d in depths if head + d > len(prefix)]
                rest = [v for v in range(1, n + 1) if v not in prefix]
                kept = []
                for q in itertools.permutations(rest):
                    p = prefix + q
                    dropped_at = next((d for d in depths if skip(run(spec, p[:head + d]))), None)
                    if dropped_at is None and programs:
                        stack, out = [], []
                        feed(stack, out, p[:head])
                        tail = sorted(p[head:])
                        top = min(_reach(feed, stack, tail, 2) + 1, len(stack))
                        below = stack[:len(stack) - top][::-1]
                        if any(skip(out + [t] + below) for t in tail):
                            dropped_at = "tail"
                    seen.add(dropped_at)
                    if dropped_at is None:
                        kept.append(run(spec, p))
                assert _expanded(scan_batches(spec, n, prefix, skip)) == Counter(kept), n
        # after 31 the programs first run at n = 9, where every head's own
        # image already holds 312, so no tail word is left to drop one
        assert seen == ({None, 0, 1} if prefix == (3, 1) else {None, 0, 1, "tail"})

    @pytest.mark.parametrize("spec, lengths", [
        (SC231, {1, 2, 3}),
        (classical_machine((1, 3, 2, 4)), {2, 3, 4, 5}),
    ], ids=["consecutive-231", "classical-1324"])
    def test_skip_sees_every_depth_above_the_head(self, spec, lengths):
        # after the prefix 1 at n = 8, SC231 runs its stored programs under
        # heads of two more entries, and the classical machine feeds the
        # tails under heads of four; the walk tests every state past the
        # prefix down to the head.  Each program head's tail words follow:
        # its output, one tail value and the stack below the top entries its
        # programs read, as short as one entry when those are the whole stack
        seen = set()

        def skip(word):
            seen.add(len(word))
            return False

        assert _expanded(scan_batches(spec, 8, (1,), skip)) == Counter(scan(spec, 8, (1,)))
        assert seen == lengths

    def test_skip_goes_to_each_worker_beside_the_reducer(self, recording_pool):
        def skip(word):  # upward-closed, as scan_batches requires
            return contains(word, classical((3, 1, 2)))

        parts = list(scan_reduce(SC231, 7, _expanded, jobs=2, skip=skip))
        assert parts == list(scan_reduce(SC231, 7, _expanded, skip=skip))
        assert parts == [_expanded(scan_batches(SC231, 7, (first,), skip)) for first in range(1, 8)]
        assert sum(parts, Counter()) != image_tally(SC231, 7)
        # a later pool with no skip scans every head again
        assert list(scan_reduce(SC231, 7, _expanded, jobs=2)) == [
            Counter(scan(SC231, 7, (first,))) for first in range(1, 8)]
        assert recording_pool["initargs"] == [(_expanded, skip), (_expanded, None)]
        assert recording_pool["tasks"] == [[(SC231, 7, (first,)) for first in range(1, 8)]] * 2

    @pytest.mark.parametrize("spec, n, prefixes", [
        *(pytest.param(spec, 8, [(first,) for first in range(1, 9)], id=f"{spec}-n8")
          for spec in CONSECUTIVE_SHAPES),
        pytest.param(consecutive_machine((1, 4, 3, 2)), 9, [()], id="consecutive-1432-S9"),
    ])
    def test_batches_expand_to_the_scan(self, spec, n, prefixes):
        # each image of a batch stands for weight images of the scan; at n = 8
        # the length-2 and length-3 machines run programs on every first-entry
        # partition and the length-4 ones feed their tails as one batch, and
        # SC_1432 runs programs over all of S_9
        def skip(word):  # upward-closed, as scan_batches requires
            return contains(word, classical((3, 1, 2)))

        for prefix in prefixes:
            images = Counter(scan(spec, n, prefix))
            assert _expanded(scan_batches(spec, n, prefix)) == images, prefix
            # the skip drops only images it holds on, and so keeps every other
            kept = _expanded(scan_batches(spec, n, prefix, skip))
            assert not kept - images and all(map(skip, images - kept)), prefix

    def test_batches_build_each_distinct_tail_image_once(self):
        # under SC_231 at n = 9 some orders of a head's tail give one image,
        # which a batch builds once and weighs by how many orders give it
        batches = [(weight, list(images)) for weight, images in scan_batches(SC231, 9)]
        built = sum(len(images) for _, images in batches)
        weighed = sum(weight * len(images) for weight, images in batches)
        assert max(weight for weight, _ in batches) > 1
        assert built < weighed == factorial(9)


@pytest.fixture
def recording_pool(monkeypatch):
    """Run the partition pool in this process, recording how it was set up."""
    from stacksorting import machine

    seen = {"max_workers": [], "initargs": [], "tasks": []}

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            seen["max_workers"].append(max_workers)
            seen["initargs"].append(initargs)
            initializer(*initargs)  # as each worker does when it starts

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            seen["tasks"].append(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(machine, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(machine, "_worker_reduce", None)
    return seen


def _ranks(n):
    return {p: r for r, p in enumerate(all_permutations(n))}


class TestImageMap:
    """The rank-indexed image map agrees with a full rank dict and ``run``."""

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_matches_run(self, spec):
        for n in range(7):
            ranks = _ranks(n)
            expected = [ranks[run(spec, p)] for p in ranks]
            image = image_map(spec, n)
            assert image.typecode == "i" and list(image) == expected

    def test_rank(self):
        for n in range(8):
            for p, r in _ranks(n).items():
                assert rank(p) == r

    def test_complement_reverses_the_rank_order(self):
        # the general-periodic probe mirrors the masks of sigma for sigma^c
        for n in range(8):
            for p, r in _ranks(n).items():
                assert rank(complement(p)) == factorial(n) - 1 - r

    @pytest.mark.parametrize("n", [13, 14, 15])
    def test_rank_past_the_batch_tables(self, n):
        # _ranker(n) would hold n!/24 prefixes; rank reads the Lehmer code
        top = factorial(n) - 1
        for r in (0, 1, 12345, top // 3, top - 720, top):
            assert rank(_unrank(n, r)) == r
        assert rank(tuple(range(n, 0, -1))) == top

    @pytest.mark.parametrize("word", [(2, 3), (1, 1), (0,), (1, 3, 2, 5)], ids=str)
    def test_rank_rejects_a_non_permutation(self, word):
        with pytest.raises(ValueError, match="not a permutation"):
            rank(word)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            image_map(SC231, -1)


def _agrees_with_trace(spec, max_n):
    for n in range(max_n + 1):
        for p in all_permutations(n):
            assert run(spec, p) == output_of_trace(trace_reference(spec, p, record_stacks=False)), p


def _scan_agrees_with_trace(spec, runner, max_n=7):
    # TestScan stops at S_6
    assert _compiled_runner(spec).__name__ == runner
    for n in range(max_n + 1):
        assert list(scan(spec, n)) == [
            output_of_trace(trace_reference(spec, p, record_stacks=False))
            for p in all_permutations(n)
        ]


def _adjacency_sets(k):
    return [set(a) for r in range(k) for a in itertools.combinations(range(1, k), r)]


MIXED_MACHINES = [
    machine_of([classical((1, 3, 2, 4)), vincular((2, 3, 1), (1,))]),
    machine_of([consecutive((2, 4, 1, 3)), classical((3, 2, 1))]),
    machine_of([vincular((3, 1, 4, 2), (2,)), consecutive((1, 2, 3))]),
    machine_of([classical((2, 1, 3, 5, 4)), consecutive((3, 1, 2))]),
]


class TestGeneratedDecider:
    """The generated machine body, behind ``run_consecutive`` and
    ``run_generic``, agrees with the reference decider of ``trace_reference``."""

    @pytest.mark.parametrize("body", list(itertools.permutations((1, 2, 3))),
                             ids=lambda body: "".join(map(str, body)))
    def test_consecutive_length3_machines(self, body):
        _scan_agrees_with_trace(consecutive_machine(body), "run_consecutive")

    @pytest.mark.parametrize("body", list(itertools.permutations((1, 2, 3))),
                             ids=lambda body: "".join(map(str, body)))
    def test_classical_length3_machines(self, body):
        # both searched levels walk one iterator, with a running extreme
        _scan_agrees_with_trace(classical_machine(body), "run_generic")

    @pytest.mark.parametrize("body", list(itertools.permutations(range(1, 6))),
                             ids=lambda body: "".join(map(str, body)))
    def test_every_classical_length5_body(self, body):
        spec = classical_machine(body)
        assert _compiled_runner(spec).__name__ == "run_generic"
        _agrees_with_trace(spec, 6)

    @pytest.mark.parametrize("body", [(2, 4, 1, 5, 3), (5, 3, 1, 2, 4)],
                             ids=lambda body: "".join(map(str, body)))
    @pytest.mark.parametrize("adjacency", _adjacency_sets(5),
                             ids=lambda a: "adj" + "".join(map(str, sorted(a))))
    def test_every_adjacency_set(self, body, adjacency):
        _agrees_with_trace(machine_of([vincular(body, adjacency)]), 7)

    @pytest.mark.parametrize("spec", MIXED_MACHINES, ids=str)
    def test_mixed_lengths_and_modes(self, spec):
        _agrees_with_trace(spec, 7)

    @pytest.mark.parametrize("spec", MIXED_MACHINES + [
        machine_of([vincular((3, 5, 1, 6, 2, 4), (2, 5))]),
    ], ids=str)
    def test_stacks_shorter_than_a_pattern(self, spec):
        # every stack of fewer than k - 1 entries for the longest pattern, with
        # every incoming entry; the shorter patterns still decide, and one feed
        # step pops the top entry iff the reference blocks the push
        k = max(len(p.body) for p in spec.forbidden)
        feed = _compiled_feed(spec.forbidden)
        for d in range(k - 1):
            for word in itertools.permutations(range(1, d + 2)):
                stack, c = list(word[:-1]), word[-1]
                out = []
                feed(stack.copy(), out, [c])
                assert out[:1] == (stack[-1:] if _push_blocked_reference(spec, stack, c) else [])

    def test_input_shorter_than_the_pattern_is_reversed(self):
        spec = machine_of([vincular((3, 5, 1, 6, 2, 4), (2, 5))])
        for n in range(6):
            for p in all_permutations(n):
                assert run(spec, p) == reverse(p)

    @pytest.mark.parametrize("k", [19, 20, 21, 22, 23, 45, 97, 100, 150])
    def test_patterns_past_twenty_loops(self, k):
        # CPython compiles at most 20 nested loops per function and the feed
        # itself takes two, so a classical body of length 20 or more continues
        # its search in a further generated function; so does a body that
        # would nest 100 levels deep, consecutive or with long adjacent runs
        specs = [
            classical_machine(range(1, k + 1)),
            machine_of([vincular(range(k, 0, -1), (3, k - 2))]),
            consecutive_machine(range(1, k + 1)),
            machine_of([vincular(range(k, 0, -1), set(range(1, k)) - {k // 3, k - 2})]),
        ]
        n = k + 3
        inputs = [decreasing(n), identity(n), decreasing(n)[2:] + (2, 1),
                  (n - 1,) + identity(n - 2) + (n,)]
        for spec in specs:
            for p in inputs:
                assert run(spec, p) == output_of_trace(trace_reference(spec, p)), (spec, p)

    def test_compiled_feeds_never_call_the_reference(self):
        # the backtracking decider lives in the tests only, so no engine (nor
        # contains, pattern_avoiders or trace) can fall back to it
        modules = [stacksorting] + [
            importlib.import_module(f"stacksorting.{info.name}")
            for info in pkgutil.iter_modules(stacksorting.__path__)
        ]
        assert {"stacksorting.machine", "stacksorting.permutations"} <= {m.__name__ for m in modules}
        for module in modules:
            for name in ("_push_blocked_reference", "occurs_with_first_entry", "_occurrence_search"):
                assert not hasattr(module, name), (module.__name__, name)


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
        # comp . machine . comp equals the complemented machine, in every mode
        # and for a pair of patterns: the symmetry count_sortable_pair rests on
        for spec in every_machine_shape():
            cspec = complement_machine(spec)
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
        # the generated search for rev(body) is this machine's own body, so the
        # reference decides containment
        for body in itertools.permutations((1, 2, 3)):
            spec = consecutive_machine(body)
            rev_pat = consecutive(reverse(body))
            for n in range(9):
                for p in all_permutations(n):
                    if not contains_reference(p, rev_pat):
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

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_matches_pops_before_last_push_in_trace(self, spec):
        # the reference route: the pops that trace_reference records before the n-th push
        for n in range(7):
            for p in all_permutations(n):
                early, pushes = [], 0
                for step in trace_reference(spec, p, record_stacks=False):
                    if step.kind == "push":
                        pushes += 1
                    elif pushes < n:
                        early.append(step.value)
                assert premature_entries(spec, p) == early, p

    def test_structural_identity_231(self):
        # output = premature entries ++ reverse of the rest
        for n in range(9):
            for p in all_permutations(n):
                early = premature_entries(SC231, p)
                rest = [v for v in p if v not in set(early)]
                assert run(SC231, p) == tuple(early) + reverse(rest)
