import itertools

import pytest
from hypothesis import given, settings

from conftest import dyck_words
from stacksorting.machine import (
    classical_machine,
    consecutive_machine,
    run,
    scan,
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

SC231 = consecutive_machine((2, 3, 1))
SC132 = consecutive_machine((1, 3, 2))
SC123 = consecutive_machine((1, 2, 3))
SC321 = consecutive_machine((3, 2, 1))
CLASSIC = classical_machine((2, 1))


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
        from stacksorting.bounds import ResourceBoundError

        with pytest.raises(ResourceBoundError):
            count_sortable(SC132, 10)

    def test_jobs_partition_agrees(self):
        assert count_sortable(SC231, 6, jobs=2) == count_sortable(SC231, 6)

    def test_members_resource_bound_is_eager(self):
        from stacksorting.bounds import ResourceBoundError

        # raised by the call itself, before any member is asked for
        with pytest.raises(ResourceBoundError):
            sortable_members(SC231, 12)

    def test_members_bound_lifted(self):
        # the identity comes first and is sortable: every entry is pushed
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
