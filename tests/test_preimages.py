import itertools
from math import comb, factorial

import pytest

from conftest import (
    every_machine_shape,
    fertility_spectrum_reference,
    max_fertility_reference,
)
from stacksorting.bounds import ResourceBoundError
from stacksorting.machine import (
    classical_machine,
    consecutive_machine,
    premature_entries,
    run,
    scan,
)
from stacksorting.permutations import (
    all_permutations,
    complement,
    decreasing,
    from_descent_word,
    identity,
    is_reverse_layered,
)
from stacksorting.preimages import (
    decreasing_preimage,
    eligible_swap_indices,
    fertility_spectrum,
    fiber,
    fiber_sizes,
    image_tally,
    max_fertility,
    reverse_layered_fiber_size,
    reverse_layered_fiber_terms,
    spectrum_gaps,
    swap_increases_fiber,
)

SC132 = consecutive_machine((1, 3, 2))
SC231 = consecutive_machine((2, 3, 1))
SC312 = consecutive_machine((3, 1, 2))
SC213 = consecutive_machine((2, 1, 3))


class TestFiber:
    def test_known_fiber_size(self):
        report = fiber(SC132, (7, 8, 6, 3, 4, 5, 1, 2))
        assert report.count == 11
        for p in report.preimages:
            assert run(SC132, p) == report.target

    def test_decreasing_target_contains_family_member(self):
        report = fiber(SC231, decreasing(8))
        assert (1, 8, 7, 2, 6, 3, 4, 5) in report.preimages
        assert report.count == 2 ** 6

    def test_trivial(self):
        assert fiber(SC132, (1,)).preimages == ((1,),)

    def test_sorted_output(self):
        report = fiber(SC231, decreasing(5))
        assert list(report.preimages) == sorted(report.preimages)

    def test_bound(self):
        with pytest.raises(ResourceBoundError):
            fiber(SC132, tuple(range(1, 11)))

    def test_partition_of_symmetric_group(self):
        for spec in (SC132, SC231, classical_machine((1, 3, 2))):
            for n in range(9):
                assert sum(image_tally(spec, n).values()) == factorial(n)


class TestReverseLayeredFormula:
    def test_example_term(self):
        p = (12, 13, 11, 8, 9, 10, 6, 7, 5, 1, 2, 3, 4)
        terms = reverse_layered_fiber_terms(p)
        assert terms[5] == comb(6, 5)

    def test_vee_family_closed_form(self):
        # r largest values descending then the rest ascending: fiber C(n-1, r)
        for n in range(1, 8):
            for r in range(n):
                p = tuple(range(n, n - r, -1)) + tuple(range(1, n - r + 1))
                assert reverse_layered_fiber_size(p) == comb(n - 1, r), (n, r)

    def test_identity_has_unique_preimage(self):
        for n in range(1, 7):
            assert reverse_layered_fiber_size(identity(n)) == 1
            assert fiber(SC132, identity(n)).preimages == (decreasing(n),)

    def test_rejects_non_reverse_layered(self):
        with pytest.raises(ValueError):
            reverse_layered_fiber_size((2, 1, 3))

    def test_matches_brute_force(self):
        for n in range(7):
            tally = image_tally(SC132, n)
            for p in all_permutations(n):
                if is_reverse_layered(p):
                    assert reverse_layered_fiber_size(p) == tally.get(p, 0)

    def test_term_k_counts_k_premature_preimages(self):
        for n in range(1, 7):
            for word_bits in itertools.product("AD", repeat=n - 1):
                target = from_descent_word("A" + "".join(word_bits))
                terms = reverse_layered_fiber_terms(target)
                by_k = [0] * (n + 1)
                for tau in fiber(SC132, target).preimages:
                    by_k[len(premature_entries(SC132, tau))] += 1
                assert tuple(by_k) == terms, target


class TestMaxFertility:
    def test_golden_prefixes(self):
        for body, row in {
            (1, 2, 3): (1, 1, 2, 3, 4, 7),
            (1, 3, 2): (1, 1, 2, 3, 6, 10),
            (2, 3, 1): (1, 1, 2, 4, 8, 16),
        }.items():
            spec = consecutive_machine(body)
            assert tuple(max_fertility(spec, n)[0] for n in range(1, 7)) == row

    def test_argmax_of_231_is_decreasing(self):
        for n in range(2, 7):
            _, argmax = max_fertility(SC231, n)
            assert decreasing(n) in argmax

    def test_complement_pairs_agree(self):
        for n in range(1, 9):
            assert max_fertility(SC213, n)[0] == max_fertility(SC231, n)[0]
        for n in range(1, 8):
            assert max_fertility(SC312, n)[0] == max_fertility(SC132, n)[0]

    def test_312_fiber_is_complemented_132_fiber(self):
        for n in range(1, 8):
            t132 = image_tally(SC132, n)
            t312 = image_tally(SC312, n)
            for p, c in t312.items():
                assert c == t132.get(complement(p), 0)

    def test_jobs_agree(self):
        assert max_fertility(SC132, 6, jobs=2) == max_fertility(SC132, 6)

    def test_bound(self):
        with pytest.raises(ResourceBoundError):
            max_fertility(SC132, 11)

    def test_bound_names_max_fertility(self, no_scan):
        with pytest.raises(ResourceBoundError, match="max_fertility requires n <= 9"):
            max_fertility(SC132, 10, jobs=2)


def _ends_with_first_entry(spec, n):
    return all(image[-1] == perm[0] for perm, image in zip(all_permutations(n), scan(spec, n)))


class TestFiberFolds:
    """Fibers fold per first-entry partition when every pattern has length >= 3."""

    @pytest.mark.parametrize(
        "spec",
        [s for s in every_machine_shape() if min(len(p.body) for p in s.forbidden) >= 3],
        ids=str,
    )
    def test_image_ends_with_first_entry(self, spec):
        for n in range(1, 8):
            assert _ends_with_first_entry(spec, n)

    def test_length2_images_leave_their_partition(self):
        # a length-2 pattern pops the bottom entry: under 21 every image ends
        # in n, under 12 in 1, so the fibers cross first-entry partitions
        specs = [s for s in every_machine_shape() if len(s.forbidden[0].body) == 2]
        assert len(specs) == 4  # 12 and 21, consecutive and classical
        for spec in specs:
            for n in range(2, 8):
                last = n if spec.forbidden[0].body == (2, 1) else 1
                assert {image[-1] for image in scan(spec, n)} == {last}
                assert not _ends_with_first_entry(spec, n)

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_matches_reference_tally(self, spec):
        for n in range(7):
            assert max_fertility(spec, n) == max_fertility_reference(spec, n)
            assert fiber_sizes(spec, n) == set(image_tally(spec, n).values())
        assert fertility_spectrum(spec, 6) == fertility_spectrum_reference(spec, 6)

    @pytest.mark.parametrize("body", list(itertools.permutations((1, 2, 3))), ids=str)
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_length3_matches_reference_tally_at_8(self, body, jobs):
        spec = consecutive_machine(body)
        assert max_fertility(spec, 8, jobs=jobs) == max_fertility_reference(spec, 8)
        assert fiber_sizes(spec, 8) == set(image_tally(spec, 8).values())


class TestDecreasingPreimage:
    def test_worked_example(self):
        assert decreasing_preimage(8, (2, 3, 5)) == (1, 8, 7, 2, 6, 3, 4, 5)

    def test_empty_insertion(self):
        assert decreasing_preimage(4, ()) == (1, 2, 3, 4)
        assert run(SC231, (1, 2, 3, 4)) == (4, 3, 2, 1)

    def test_all_subsets_distinct_and_correct(self):
        n = 5
        seen = set()
        for k in range(4):
            for positions in itertools.combinations(range(2, n), k):
                tau = decreasing_preimage(n, positions)
                assert run(SC231, tau) == decreasing(n)
                seen.add(tau)
        assert len(seen) == 2 ** (n - 2)

    def test_position_validation(self):
        with pytest.raises(ValueError):
            decreasing_preimage(5, (1,))
        with pytest.raises(ValueError):
            decreasing_preimage(5, (5,))


class TestSwapMonotonicity:
    def test_eligible_indices(self):
        # in 132 the value 1 precedes 2 with a gap; 2 does not precede 3
        assert eligible_swap_indices((1, 3, 2)) == [1]
        assert eligible_swap_indices((1, 2, 3)) == []

    def test_basic_instance(self):
        assert swap_increases_fiber((1, 3, 2), 1)
        # the raw inequality also holds for the 2<->3 swap (0 <= 1), even
        # though that pair is not eligible for the swap rule
        assert fiber(SC132, (1, 3, 2)).count <= fiber(SC132, (1, 2, 3)).count

    def test_ineligible_rejected(self):
        with pytest.raises(ValueError):
            swap_increases_fiber((1, 2, 3), 1)
        with pytest.raises(ValueError):
            swap_increases_fiber((1, 3, 2), 2)

    def test_exhaustive_small(self):
        for n in range(2, 6):
            tally = image_tally(SC132, n)
            for p in all_permutations(n):
                for i in eligible_swap_indices(p):
                    swapped = tuple(
                        i + 1 if v == i else i if v == i + 1 else v for v in p
                    )
                    assert tally.get(p, 0) <= tally.get(swapped, 0), (p, i)


class TestSpectrum:
    def test_trivial(self):
        assert fertility_spectrum(SC132, 1) == {1}

    def test_gap_report(self):
        assert spectrum_gaps({1, 2, 3, 5}) == [4]
        assert spectrum_gaps(set()) == []

    def test_bound_checked_before_any_tally(self, no_scan):
        with pytest.raises(ResourceBoundError, match="fertility_spectrum requires n <= 9"):
            fertility_spectrum(SC132, 10)

    def test_classic_map_misses_three(self):
        sizes = fertility_spectrum(classical_machine((2, 1)), 7)
        assert 3 not in sizes
        assert {1, 2, 4, 5, 6} <= sizes

    def test_consecutive_132_prefix_covers_previous_bound(self):
        s7 = fertility_spectrum(SC132, 7)
        s6 = fertility_spectrum(SC132, 6)
        assert set(range(1, max(s6) + 1)) <= s7
