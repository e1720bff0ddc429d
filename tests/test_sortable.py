import itertools
from collections import Counter
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings

from conftest import (
    _expanded,
    complement_machine,
    count_sortable_reference,
    dyck_words,
    every_machine_shape,
)
from stacksorting import machine, sortable
from stacksorting.bounds import ResourceBoundError
from stacksorting.machine import (
    classical_machine,
    consecutive_machine,
    run,
    scan,
    scan_batches,
    stack_sort,
)
from stacksorting.permutations import (
    all_permutations,
    classical,
    contains,
    identity,
    pattern_avoiders,
    vincular,
)
from stacksorting.sequences import catalan, generalized_motzkin, motzkin
from stacksorting.sortable import (
    SortableSetKind,
    all_dyck_words,
    avoids_231,
    classify_sortable_set,
    count_sortable,
    count_sortable_pair,
    from_dyck_path,
    is_downward_closed,
    is_dyck_word,
    is_sortable,
    sortable_members,
    structural_sortable_123,
    structural_sortable_132,
    structural_sortable_av132_rev,
    structural_sortable_decreasing,
    to_dyck_path,
)


@pytest.fixture
def no_build(monkeypatch):
    """Make any build of the Av_n(231) behind ``count_sortable`` fail the test."""
    def build(n):
        raise AssertionError("built Av_n(231)")

    monkeypatch.setattr(sortable, "_avoiders_231", build)


SC231 = consecutive_machine((2, 3, 1))
SC132 = consecutive_machine((1, 3, 2))
SC123 = consecutive_machine((1, 2, 3))
SC321 = consecutive_machine((3, 2, 1))
CLASSIC = classical_machine((2, 1))
CONSECUTIVE_SHAPES = [
    spec for spec in every_machine_shape() if all(p.is_consecutive for p in spec.forbidden)
]
# the shapes with bodies of length <= 3, but for the six consecutive machines
# of length 3, which the tests at n = 8 run on their own
SHORT_SHAPES = [
    s for s in every_machine_shape()
    if len(s.forbidden[0].body) <= 3
    and s not in map(consecutive_machine, itertools.permutations((1, 2, 3)))
]


class TestAvoids231:
    def test_three_way_agreement(self):
        pat = classical((2, 3, 1))
        for n in range(8):
            for p in all_permutations(n):
                fast = avoids_231(p)
                assert fast == (not contains(p, pat))
                assert fast == (stack_sort(p) == identity(n))

    def test_matches_second_stack_on_machine_images(self):
        # sortability by avoids_231 equals sorting by a second stack pass
        for body in itertools.permutations((1, 2, 3)):
            spec = consecutive_machine(body)
            for n in range(9):
                for image in scan(spec, n):
                    assert avoids_231(image) == (stack_sort(image) == identity(n))


class TestAvoiders231:
    """The Av_n(231) that ``count_sortable`` looks its images up in."""

    def test_matches_the_stack_test(self):
        for n in range(9):
            assert sortable._avoiders_231(n) == frozenset(
                filter(avoids_231, all_permutations(n)))

    def test_matches_the_generating_tree(self):
        pat = [classical((2, 3, 1))]
        for n in range(10):
            assert sortable._avoiders_231(n) == set(pattern_avoiders(n, pat))

    def test_catalan_many(self):
        for n in range(13):
            assert len(sortable._avoiders_231(n)) == catalan(n)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            sortable._avoiders_231(-1)


class TestIsSortable:
    def test_consecutive_231_members(self):
        assert run(SC231, (2, 4, 1, 3)) == (3, 1, 4, 2)
        assert not is_sortable(SC231, (2, 4, 1, 3))
        assert run(SC231, (2, 5, 3, 1, 4)) == (5, 4, 1, 3, 2)
        assert is_sortable(SC231, (2, 5, 3, 1, 4))

    def test_classic_map_members(self):
        assert is_sortable(CLASSIC, (3, 5, 2, 4, 1))
        assert not is_sortable(CLASSIC, (3, 2, 4, 1))

    def test_trivial(self):
        assert is_sortable(SC123, (1,))
        assert is_sortable(SC123, ())


class TestCounts:
    def test_golden_prefixes(self):
        rows = {
            (3, 2, 1): (1, 1, 2, 4, 9, 21, 51),
            (1, 3, 2): (1, 1, 2, 5, 14, 42, 132),
            (2, 3, 1): (1, 1, 2, 6, 21, 79, 311),
            (3, 1, 2): (1, 1, 2, 5, 15, 50, 179),
        }
        for body, expected in rows.items():
            spec = consecutive_machine(body)
            assert tuple(count_sortable(spec, n) for n in range(7)) == expected

    def test_classical_132_binomial_catalan_identity(self):
        s132 = classical_machine((1, 3, 2))
        from math import comb

        for n in range(1, 9):
            expected = sum(comb(n - 1, k) * catalan(k) for k in range(n))
            assert count_sortable(s132, n) == expected

    def test_resource_bound(self):
        with pytest.raises(ResourceBoundError):
            count_sortable(SC132, 10)

    def test_bound_checked_before_the_build(self, no_build):
        with pytest.raises(ResourceBoundError):
            count_sortable(SC231, 20)

    @pytest.mark.parametrize(
        "spec, jobs",
        [pytest.param(s, 1, id=str(s)) for s in every_machine_shape()]
        + [pytest.param(s, 2, id=f"{s}-jobs2") for s in every_machine_shape()])
    def test_matches_reference_fold(self, spec, jobs):
        for n in range(7):
            assert count_sortable(spec, n, jobs=jobs) == count_sortable_reference(spec, n)

    @pytest.mark.parametrize("body", list(itertools.permutations((1, 2, 3))), ids=str)
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_length3_matches_reference_fold_at_8(self, body, jobs):
        spec = consecutive_machine(body)
        assert count_sortable(spec, 8, jobs=jobs) == count_sortable_reference(spec, 8)

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_pair_matches_reference_folds(self, spec):
        mirror = complement_machine(spec)
        for n in range(7):
            assert count_sortable_pair(spec, n) == (
                count_sortable_reference(spec, n), count_sortable_reference(mirror, n))

    @pytest.mark.parametrize("body", list(itertools.permutations((1, 2, 3))), ids=str)
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_length3_pair_matches_reference_folds_at_8(self, body, jobs):
        spec = consecutive_machine(body)
        assert count_sortable_pair(spec, 8, jobs=jobs) == (
            count_sortable_reference(spec, 8),
            count_sortable_reference(complement_machine(spec), 8))

    @pytest.mark.parametrize(
        "spec, jobs",
        [(s, 1) for s in SHORT_SHAPES]
        + [(s, 2) for s in SHORT_SHAPES if s.forbidden[0].body == (2, 3, 1)],
        ids=str)
    def test_pruned_pair_matches_reference_folds_at_8(self, spec, jobs):
        # from n = 8 a head's forced word has four entries, enough to hold
        # both 231 and 213, so the scan behind the pair starts to skip heads
        assert count_sortable_pair(spec, 8, jobs=jobs) == (
            count_sortable_reference(spec, 8),
            count_sortable_reference(complement_machine(spec), 8))

    def test_the_prune_fires(self, monkeypatch):
        # the pair folds fewer than 9! images of SC_123; the scan has them all
        # (at n = 8 the heads after the first entry hold two more, and no
        # forced word of three entries holds both 231 and 213)
        reduced = []

        def weigh(weights, batches):
            # each image of a batch stands for weight images of the scan
            batches = [(weight, list(images)) for weight, images in batches]
            reduced.append(sum(weight * len(images) for weight, images in batches))
            return sum(weight * weights.get(image, 0)
                       for weight, images in batches for image in images)

        monkeypatch.setattr(sortable, "_weigh", weigh)
        assert count_sortable_pair(SC123, 9) == (
            count_sortable_reference(SC123, 9), count_sortable_reference(SC321, 9))
        assert len(reduced) == 9 and sum(reduced) < factorial(9)
        assert sum(1 for _ in scan(SC123, 9)) == factorial(9)

    def test_single_count_prunes_on_231_alone(self, monkeypatch):
        # count_sortable skips every head whose forced word holds 231, more
        # than the pair, which needs both 231 and 213, and builds no pair
        # dict.  Both fold through _weigh, told apart by their dicts: C_9
        # entries for the single count, 2 C_9 - 2^8 for the pair
        folded = Counter()

        def record(weights, batches):
            # the images weighed, each image of a batch weight times
            batches = [(weight, list(images)) for weight, images in batches]
            folded[len(weights)] += sum(weight * len(images) for weight, images in batches)
            return weigh(weights, batches)

        def no_weights(n):
            raise AssertionError("built the pair's weights")

        weigh = sortable._weigh
        monkeypatch.setattr(sortable, "_weigh", record)
        pair = count_sortable_pair(SC231, 9)
        monkeypatch.setattr(sortable, "_membership_weights", no_weights)
        assert count_sortable(SC231, 9) == pair[0] == count_sortable_reference(SC231, 9)
        single, both = catalan(9), 2 * catalan(9) - 2 ** 8
        assert set(folded) == {single, both}
        assert folded[single] < folded[both] < factorial(9)

    @pytest.mark.parametrize("spec, n", [
        *(pytest.param(spec, 8, id=f"{spec}-n8") for spec in CONSECUTIVE_SHAPES),
        *(pytest.param(consecutive_machine(body), 9, id=f"{consecutive_machine(body)}-n9")
          for body in [(1, 4, 3, 2), (2, 4, 1, 3), (4, 3, 2, 1)]),
    ])
    def test_tail_words_drop_no_image_the_skip_would_keep(self, spec, n):
        # at n = 8 the length-2 and length-3 machines run programs on every
        # first-entry partition, and the length-4 ones feed their tails; at
        # n = 9 those three run programs.  Whatever the walk and the tail
        # words drop, the skip holds on, and they drop nothing else
        for first in range(1, n + 1):
            images = Counter(scan(spec, n, (first,)))
            for skip in (sortable._contains_231, partial(sortable._holds_231_and_213, n + 1)):
                kept = _expanded(scan_batches(spec, n, (first,), skip))
                assert not kept - images
                assert all(map(skip, images - kept)), (first, skip)
        assert count_sortable(spec, n) == count_sortable_reference(spec, n)

    def test_tail_words_fire(self, monkeypatch):
        # SC_231 at n = 9 builds 145,491 images where only the forced words
        # of the walk's states cut, and 84,863 once the tail words of each
        # program head drop it too
        built = []

        def recording(weights, batches):
            batches = [(weight, list(images)) for weight, images in batches]
            built.append(sum(len(images) for _, images in batches))
            return weigh(weights, batches)

        weigh = sortable._weigh
        monkeypatch.setattr(sortable, "_weigh", recording)
        expected = count_sortable_reference(SC231, 9)
        assert count_sortable(SC231, 9) == expected
        with monkeypatch.context() as m:
            m.setattr(machine, "_holds_on_a_tail_word", lambda *args: False)
            assert count_sortable(SC231, 9) == expected
        assert len(built) == 18 and sum(built[:9]) < sum(built[9:])

    def test_members_resource_bound_is_eager(self):
        # raised by the call itself, before any member is asked for
        with pytest.raises(ResourceBoundError):
            sortable_members(SC231, 12)

    def test_members_bound_lifted(self, no_build):
        # the identity comes first and is sortable: every entry is pushed;
        # the lazy test reaches it without building Av_12(231)
        assert next(sortable_members(SC231, 12, max_n=12)) == identity(12)


class TestStructural132:
    def test_worked_example(self):
        assert structural_sortable_132((5, 8, 9, 4, 3, 6, 7, 1, 2))

    def test_short_rejection(self):
        assert not structural_sortable_132((1, 3, 2))

    def test_trivial(self):
        assert structural_sortable_132((1,))
        assert structural_sortable_132(())

    def test_agrees_with_definition(self):
        for n in range(8):
            for p in all_permutations(n):
                assert structural_sortable_132(p) == is_sortable(SC132, p)


class TestStructural123:
    def test_vincular_misprint_case(self):
        # 4312 is sortable even though it is exactly the pattern 4312 with
        # its first three entries adjacent; a three-pattern avoidance test
        # including that pattern would wrongly reject it
        assert run(SC123, (4, 3, 1, 2)) == (3, 2, 1, 4)
        assert is_sortable(SC123, (4, 3, 1, 2))
        assert structural_sortable_123((4, 3, 1, 2))
        assert contains((4, 3, 1, 2), vincular((4, 3, 1, 2), (1, 2)))

    def test_prefix_block_check_passes_when_spread_out(self):
        # 51324 contains 4213 classically but not with its first three
        # entries adjacent
        host = (5, 1, 3, 2, 4)
        assert contains(host, classical((4, 2, 1, 3)))
        assert not contains(host, vincular((4, 2, 1, 3), (1, 2)))

    def test_contains_132_rejected(self):
        assert not structural_sortable_123((1, 3, 2))

    def test_agrees_with_definition(self):
        for n in range(8):
            for p in all_permutations(n):
                assert structural_sortable_123(p) == is_sortable(SC123, p)

    def test_agrees_with_vincular_form(self):
        # A descending-run violation is a consecutive descending triple
        # followed by a larger-than-middle entry; split by where that entry
        # ranks, these are the two patterns below with their first three
        # entries required adjacent.  (A third pattern circulates with the
        # last entry ranked below the triple's middle, but it over-rejects:
        # 4312 itself is sortable.)
        forbidden = (
            classical((1, 3, 2)),
            vincular((3, 2, 1, 4), (1, 2)),
            vincular((4, 2, 1, 3), (1, 2)),
        )
        for n in range(9):
            for p in all_permutations(n):
                assert structural_sortable_123(p) == (
                    not any(contains(p, pat) for pat in forbidden)
                )

    def test_members_starting_with_max(self):
        for n in range(1, 8):
            cnt = sum(1 for p in sortable_members(SC123, n) if p[0] == n)
            assert cnt == motzkin(n - 1)


class TestStructuralDecreasing:
    def test_k3_is_motzkin(self):
        for n in range(8):
            cnt = sum(
                1 for p in all_permutations(n) if structural_sortable_decreasing(p, 3)
            )
            assert cnt == motzkin(n)

    def test_k4_is_generalized_motzkin(self):
        for n in range(8):
            cnt = sum(
                1 for p in all_permutations(n) if structural_sortable_decreasing(p, 4)
            )
            assert cnt == generalized_motzkin(3, n)

    def test_identity_has_increasing_window(self):
        for n in range(3, 7):
            assert not structural_sortable_decreasing(identity(n), 3)

    def test_k_bound(self):
        with pytest.raises(ValueError):
            structural_sortable_decreasing((1, 2), 2)

    def test_k3_agrees_with_321_machine(self):
        for n in range(8):
            for p in all_permutations(n):
                assert structural_sortable_decreasing(p, 3) == is_sortable(SC321, p)


class TestStructuralAv132Rev:
    def test_gate(self):
        with pytest.raises(ValueError):
            structural_sortable_av132_rev((1, 2, 3), (2, 3, 1))  # swap gives 321
        with pytest.raises(ValueError):
            structural_sortable_av132_rev((1, 2), (2, 1))

    @pytest.mark.parametrize("sigma", [(1, 1, 2), (0, 2, 1)])
    def test_non_permutation_pattern_rejected(self, sigma):
        with pytest.raises(ValueError, match="not a permutation"):
            structural_sortable_av132_rev((1, 2, 3), sigma)

    def test_321_case(self):
        for n in range(8):
            for p in all_permutations(n):
                assert structural_sortable_av132_rev(p, (3, 2, 1)) == is_sortable(
                    SC321, p
                )

    def test_qualifying_length_four_patterns(self):
        p231 = classical((2, 3, 1))
        from stacksorting.permutations import swap_first_two

        qualifying = [
            s
            for s in itertools.permutations(range(1, 5))
            if contains(swap_first_two(s), p231)
        ]
        assert qualifying  # the gate is not vacuous at length 4
        for sigma in qualifying:
            spec = consecutive_machine(sigma)
            for n in range(7):
                for p in all_permutations(n):
                    assert structural_sortable_av132_rev(p, sigma) == is_sortable(
                        spec, p
                    ), (sigma, p)


class TestDyckEncoding:
    def test_worked_example(self):
        assert to_dyck_path((5, 8, 9, 4, 3, 6, 7, 1, 2)) == "UUUUUDDDUDUDDDUUDD"

    def test_single_entry(self):
        assert to_dyck_path((1,)) == "UD"

    def test_inverse_worked_example(self):
        assert from_dyck_path("UUUUUDDDUDUDDDUUDD") == (5, 8, 9, 4, 3, 6, 7, 1, 2)

    def test_rejects_unsortable(self):
        with pytest.raises(ValueError):
            to_dyck_path((1, 3, 2))

    def test_rejects_bad_words(self):
        for bad in ("DU", "UDD", "UX"):
            with pytest.raises(ValueError):
                from_dyck_path(bad)

    def test_round_trip_exhaustive(self):
        for n in range(8):
            members = [p for p in all_permutations(n) if structural_sortable_132(p)]
            words = {to_dyck_path(p) for p in members}
            assert len(words) == len(members) == catalan(n)
            for p in members:
                assert from_dyck_path(to_dyck_path(p)) == p
            for w in all_dyck_words(n):
                assert w in words
                assert to_dyck_path(from_dyck_path(w)) == w

    @given(dyck_words(10))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_random_words(self, w):
        assert is_dyck_word(w)
        assert to_dyck_path(from_dyck_path(w)) == w


class TestImageRemark:
    def test_image_meeting_av231_avoids_132(self):
        pat132 = classical((1, 3, 2))
        for n in range(8):
            for p in all_permutations(n):
                out = run(SC132, p)
                if avoids_231(out):
                    assert not contains(out, pat132)


class TestClassCriterion:
    def test_length_two(self):
        assert classify_sortable_set((1, 2)) is SortableSetKind.AV213_CLASS
        assert classify_sortable_set((2, 1)) is SortableSetKind.NOT_A_CLASS

    def test_known_length_three(self):
        assert classify_sortable_set((2, 3, 1)) is SortableSetKind.NOT_A_CLASS

    def test_known_length_four(self):
        assert classify_sortable_set((3, 4, 2, 1)) is SortableSetKind.NOT_A_CLASS
        assert classify_sortable_set((2, 4, 3, 1)) is SortableSetKind.AV132_CLASS

    def test_length_bound(self):
        with pytest.raises(ValueError):
            classify_sortable_set((1,))

    @pytest.mark.parametrize("sigma", [(1, 1, 2), (0, 2, 1)])
    def test_non_permutation_pattern_rejected(self, sigma):
        with pytest.raises(ValueError, match="not a permutation"):
            classify_sortable_set(sigma)

    def test_closure_counterexamples(self):
        closed, pair = is_downward_closed(lambda p: is_sortable(CLASSIC, p), 5)
        assert not closed and pair is not None
        # the classic pair: 35241 is sortable, its pattern 3241 is not
        assert is_sortable(CLASSIC, (3, 5, 2, 4, 1))
        assert not is_sortable(CLASSIC, (3, 2, 4, 1))

        closed, pair = is_downward_closed(lambda p: is_sortable(SC231, p), 5)
        assert not closed and pair is not None
        assert is_sortable(SC231, (2, 5, 3, 1, 4))
        assert not is_sortable(SC231, (2, 4, 1, 3))

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_closure_needs_a_length(self, max_n):
        with pytest.raises(ValueError, match="max_n must be >= 1"):
            is_downward_closed(lambda p: True, max_n)

    def test_avoidance_class_is_closed(self):
        pat = classical((2, 3, 1))
        closed, pair = is_downward_closed(lambda p: not contains(p, pat), 6)
        assert closed and pair is None

    def test_agrees_with_brute_closure(self):
        # closure failures for 1234-shaped patterns first appear at n = 6
        for k in (2, 3, 4):
            for sigma in itertools.permutations(range(1, k + 1)):
                spec = consecutive_machine(sigma)
                verdict = classify_sortable_set(sigma)
                closed, _ = is_downward_closed(
                    lambda p: is_sortable(spec, p), 6
                )
                assert closed == (verdict is not SortableSetKind.NOT_A_CLASS), sigma

    def test_sc12_sorts_exactly_av213(self):
        sc12 = consecutive_machine((1, 2))
        pat = classical((2, 1, 3))
        for n in range(8):
            members = set(sortable_members(sc12, n))
            assert members == set(pattern_avoiders(n, [pat]))
