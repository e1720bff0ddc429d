import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    avoiders_reference,
    contains_reference,
    every_machine_shape,
    occurs_brute,
    occurs_with_first_entry,
    pattern_bodies,
    permutations_up_to,
)
from stacksorting.machine import consecutive_321_image, consecutive_machine, trace
from stacksorting.permutations import (
    _compiled_feed,
    _walk,
    all_permutations,
    ascending_runs,
    ascent_slot_counts,
    as_permutation,
    classical,
    complement,
    consecutive,
    contains,
    descent_prefix_counts,
    descent_word,
    descending_runs,
    format_permutation,
    from_descent_word,
    identity,
    is_permutation,
    is_reverse_layered,
    is_vee_shaped,
    parse_permutation,
    pattern_avoiders,
    peak_valley_count,
    reverse,
    standardize,
    swap_first_two,
    vincular,
)
from stacksorting.sequences import catalan


class TestStandardize:
    def test_known_word(self):
        assert standardize((4, 8, 2, 9)) == (2, 3, 1, 4)

    def test_already_standard(self):
        assert standardize((1, 2, 3)) == (1, 2, 3)

    def test_decreasing_values(self):
        assert standardize((15, 12, 9)) == (3, 2, 1)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            standardize((1, 1, 2))

    @given(permutations_up_to(7))
    def test_fixed_point_on_permutations(self, p):
        assert standardize(p) == p

    @given(st.lists(st.integers(-50, 50), unique=True, max_size=8))
    def test_output_is_permutation(self, word):
        out = standardize(word)
        assert is_permutation(out)
        for i in range(len(word)):
            for j in range(len(word)):
                if i != j:
                    assert (word[i] < word[j]) == (out[i] < out[j])


class TestElementaryMaps:
    def test_reverse(self):
        assert reverse((2, 6, 5, 4, 1, 3)) == (3, 1, 4, 5, 6, 2)

    def test_complement(self):
        assert complement((1, 3, 2)) == (3, 1, 2)

    def test_swap_first_two(self):
        assert swap_first_two((2, 3, 1)) == (3, 2, 1)

    def test_swap_needs_two(self):
        with pytest.raises(ValueError):
            swap_first_two((1,))

    @given(permutations_up_to(8))
    def test_involutions(self, p):
        assert reverse(reverse(p)) == p
        assert complement(complement(p)) == p
        if len(p) >= 2:
            assert swap_first_two(swap_first_two(p)) == p

    def test_empty_unary(self):
        assert reverse(()) == ()
        assert complement(()) == ()


class TestTextForm:
    def test_digit_form(self):
        assert parse_permutation("265413") == (2, 6, 5, 4, 1, 3)
        assert format_permutation((2, 6, 5, 4, 1, 3)) == "265413"

    def test_comma_form(self):
        text = "12,13,11,8,9,10,6,7,5,1,2,3,4"
        p = parse_permutation(text)
        assert len(p) == 13
        assert format_permutation(p) == text

    def test_comma_accepted_when_small(self):
        assert parse_permutation("3,1,2") == (3, 1, 2)

    def test_malformed(self):
        for bad in ("a1", "102", "1,x", "312 "):
            if bad == "312 ":
                assert parse_permutation(bad) == (3, 1, 2)  # stripped
            else:
                with pytest.raises(ValueError):
                    parse_permutation(bad)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            parse_permutation("122")
        with pytest.raises(ValueError):
            as_permutation((2, 3))


class TestContains:
    def test_consecutive_vs_classical(self):
        host = (3, 1, 4, 2)
        assert not contains(host, consecutive((2, 3, 1)))
        assert contains(host, classical((2, 3, 1)))

    def test_vincular_prefix_block(self):
        host = (5, 1, 3, 2, 4)
        assert contains(host, classical((4, 2, 1, 3)))
        assert not contains(host, vincular((4, 2, 1, 3), (1, 2)))

    @given(permutations_up_to(6, min_n=2))
    def test_self_containment(self, p):
        assert contains(p, consecutive(p))
        assert contains(p, classical(p))

    def test_empty_host(self):
        assert not contains((), classical((2, 1)))

    def test_pattern_length_bound(self):
        with pytest.raises(ValueError):
            classical((1,))
        with pytest.raises(ValueError):
            vincular((1, 2, 3), (3,))

    @given(permutations_up_to(7), pattern_bodies(3))
    def test_mode_hierarchy(self, host, body):
        # consecutive containment implies prefix-vincular implies classical
        k = len(body)
        vinc = vincular(body, range(1, k))
        if contains(host, consecutive(body)):
            assert contains(host, vinc)
        part = vincular(body, (1,))
        if contains(host, part):
            assert contains(host, classical(body))

    def test_21_classical_iff_consecutive(self):
        for n in range(9):
            for p in all_permutations(n):
                assert contains(p, classical((2, 1))) == contains(p, consecutive((2, 1)))


# several patterns of mixed lengths and modes, beside every_machine_shape's
PATTERN_MIXES = [
    (consecutive((1, 3, 2, 4)), consecutive((4, 2, 3, 1))),
    (classical((1, 3, 2)), classical((2, 3, 1))),
    (classical((1, 3, 2)), consecutive((1, 2, 3, 4))),
    (classical((1, 3, 2, 4)), vincular((2, 3, 1), (1,))),
    (vincular((3, 1, 4, 2), (2,)), consecutive((1, 2, 3))),
    (classical((2, 1, 3, 5, 4)), consecutive((3, 1, 2)), vincular((2, 1), (1,))),
]


class TestWalk:
    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_without_a_cut_it_feeds_each_order_in_turn(self, spec):
        feed = _compiled_feed(spec.forbidden)
        for n in range(6):
            for prefix in [()] + [(first,) for first in range(1, n + 1)]:
                stack, out = [], []
                feed(stack, out, prefix)
                start = (stack.copy(), out.copy())
                rest = [v for v in range(1, n + 1) if v not in prefix]
                for depth in range(len(rest) + 1):
                    expected = []
                    for head in itertools.permutations(rest, depth):
                        s, o = stack.copy(), out.copy()
                        feed(s, o, head)
                        expected.append((s, o, [v for v in rest if v not in head]))
                    assert list(_walk(feed, stack, out, rest, depth, None)) == expected
                    assert (stack, out) == start


class TestGeneratedSearch:
    """``contains`` and ``pattern_avoiders`` run the generated search; the
    backtracking reference, filtered over S_n, checks them."""

    @pytest.mark.parametrize(
        "patterns", [spec.forbidden for spec in every_machine_shape()] + PATTERN_MIXES,
        ids=lambda patterns: "+".join(map(str, patterns)),
    )
    def test_matches_reference(self, patterns):
        for n in range(7):
            hosts = list(all_permutations(n))
            for q in patterns:
                assert [contains(h, q) for h in hosts] == [contains_reference(h, q) for h in hosts]
            assert list(pattern_avoiders(n, patterns)) == avoiders_reference(n, patterns)

    def test_reference_matches_brute_force(self):
        # the backtracking decider itself, against trying every choice of positions
        patterns = dict.fromkeys(q for spec in every_machine_shape() for q in spec.forbidden)
        assert len(patterns) == 94
        for n in range(1, 7):
            for host in all_permutations(n):
                for q in patterns:
                    assert occurs_with_first_entry(host, q) == occurs_brute(host, q), (host, q)

    def test_no_patterns_gives_every_permutation(self):
        for n in range(6):
            assert list(pattern_avoiders(n, [])) == list(all_permutations(n))

    def test_n_zero(self):
        assert list(pattern_avoiders(0, [classical((2, 1))])) == [()]

    def test_negative_n_rejected_at_the_call(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            pattern_avoiders(-1, [classical((2, 1))])

    def test_host_shorter_than_the_pattern(self):
        for q in (consecutive((1, 2, 3)), classical((2, 3, 1)), vincular((1, 3, 2, 4), (2,))):
            for n in range(len(q.body)):
                assert not any(contains(h, q) for h in all_permutations(n))

    def test_hosts_of_other_distinct_values(self):
        # stack snapshots of a trace, read top to bottom, and shifted scaled
        # hosts that hold zero and negative values
        patterns = [pat(body) for body in itertools.permutations((1, 2, 3))
                    for pat in (consecutive, classical, lambda b: vincular(b, (1,)))]
        snapshots = {step.stack_after for p in all_permutations(6)
                     for step in trace(consecutive_machine((2, 3, 1)), p)}
        for host in snapshots:
            for q in patterns:
                assert contains(host, q) == contains_reference(host, q), (host, q)
        for host in all_permutations(5):
            moved = tuple(10 * v - 25 for v in host)
            for q in patterns:
                assert contains(moved, q) == contains(host, q), (moved, q)


class TestRuns:
    def test_ascending_runs(self):
        assert ascending_runs((7, 8, 6, 2, 3, 5, 1)) == ((7, 8), (6,), (2, 3, 5), (1,))

    def test_descending_runs(self):
        assert descending_runs((7, 8, 6, 2, 3, 5, 1)) == ((7,), (8, 6, 2), (3,), (5, 1))

    def test_ends_and_interiors(self):
        runs = ascending_runs((4, 5, 7, 2, 1, 3, 6))
        assert runs == ((4, 5, 7), (2,), (1, 3, 6))
        # interiors first, then the ends of the runs in reverse
        assert consecutive_321_image((4, 5, 7, 2, 1, 3, 6)) == (5, 3, 6, 1, 2, 7, 4)

    def test_decreasing_gives_singletons(self):
        assert ascending_runs((4, 3, 2, 1)) == ((4,), (3,), (2,), (1,))

    @given(permutations_up_to(8))
    def test_runs_partition(self, p):
        for runs in (ascending_runs(p), descending_runs(p)):
            assert tuple(v for r in runs for v in r) == p


class TestStatistics:
    def test_peak_valley_count(self):
        assert peak_valley_count((7, 8, 6, 2, 3, 5, 1)) == 3
        assert peak_valley_count((1, 2, 3, 4)) == 0
        assert peak_valley_count((1, 3, 2)) == 1

    def test_vee_shape_matches_avoidance(self):
        # up to the scan bound of the orbit probes, which read V shapes with it
        pats = (classical((1, 3, 2)), classical((2, 3, 1)))
        for n in range(10):
            assert list(filter(is_vee_shaped, all_permutations(n))) == list(
                pattern_avoiders(n, pats)
            ), n


class TestDescentWords:
    def test_known_encoding(self):
        p = (7, 8, 6, 3, 4, 5, 1, 2)
        assert descent_word(p) == "AADDAADA"
        assert descent_prefix_counts("AADDAADA") == (0, 0, 0, 1, 2, 2, 2, 3, 3)
        assert ascent_slot_counts("AADDAADA") == (3, 3, 3, 3, 1, 1, 1, 0, 0)

    def test_ascent_slot_counts_by_definition(self):
        # a(k): the A's of word[k:] with a D before them in word[k:]
        for n in range(11):
            for letters in itertools.product("AD", repeat=n):
                word = "".join(letters)
                assert ascent_slot_counts(word) == tuple(
                    sum(word[i] == "A" and "D" in word[k:i] for i in range(k, n))
                    for k in range(n + 1)
                ), word

    def test_known_decoding(self):
        assert from_descent_word("AADDAADA") == (7, 8, 6, 3, 4, 5, 1, 2)

    def test_identity_word(self):
        assert descent_word(identity(6)) == "AAAAAA"
        assert descent_prefix_counts("AAAAAA") == (0,) * 7

    def test_rejects_non_reverse_layered(self):
        with pytest.raises(ValueError):
            descent_word((2, 1, 3))  # runs (2) (1 3): {1,3} is no interval

    def test_rejects_bad_words(self):
        with pytest.raises(ValueError):
            from_descent_word("DA")
        with pytest.raises(ValueError):
            from_descent_word("AXD")

    def test_round_trip_all_words_n9(self):
        # every A-initial word of length 9 is hit by exactly one
        # reverse-layered permutation
        n = 9
        for bits in itertools.product("AD", repeat=n - 1):
            word = "A" + "".join(bits)
            p = from_descent_word(word)
            assert is_reverse_layered(p)
            assert descent_word(p) == word

    def test_reverse_layered_equals_avoidance_class(self):
        pats = (classical((1, 3, 2)), classical((2, 1, 3)))
        for n in range(9):
            for p in all_permutations(n):
                expected = not any(contains(p, q) for q in pats)
                assert is_reverse_layered(p) == expected, p

    def test_empty(self):
        assert descent_word(()) == ""
        assert from_descent_word("") == ()


class TestGenerators:
    def test_s0(self):
        assert list(all_permutations(0)) == [()]

    def test_lexicographic(self):
        assert list(all_permutations(3)) == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)
        ]

    def test_avoiders_two_consecutive(self):
        out = list(pattern_avoiders(3, [consecutive((1, 3, 2)), consecutive((2, 3, 1))]))
        assert len(out) == 4
        assert (1, 3, 2) not in out and (2, 3, 1) not in out

    def test_classical_231_avoiders_are_catalan(self):
        for n in range(10):
            count = sum(1 for _ in pattern_avoiders(n, [classical((2, 3, 1))]))
            assert count == catalan(n), n
