"""One test per acceptance criterion; each prints a PASS/FAIL summary line.

Everything here is exact integer equality at the stated exhaustive bounds.
"""

import itertools
import time

from conftest import avoiders_reference
from stacksorting import golden
from stacksorting.dynamics import (
    cycle_periods,
    deep_witness,
    iterations_until,
    periodic_points,
    run_conjecture,
    verify_witness_trajectory,
)
from stacksorting.machine import (
    classical_machine,
    consecutive_machine,
    run,
)
from stacksorting.permutations import (
    all_permutations,
    classical,
    consecutive,
    contains,
    is_reverse_layered,
    is_vee_shaped,
    pattern_avoiders,
    reverse,
    swap_first_two,
)
from stacksorting.preimages import eligible_swap_indices, image_tally, max_fertility
from stacksorting.sequences import (
    catalan,
    generalized_motzkin,
    max_fiber_bound_132,
    motzkin,
)
from stacksorting.sortable import (
    SortableSetKind,
    all_dyck_words,
    avoids_231,
    classify_sortable_set,
    count_sortable,
    from_dyck_path,
    is_downward_closed,
    is_sortable,
    sortable_members,
    structural_sortable_123,
    structural_sortable_132,
    structural_sortable_av132_rev,
    structural_sortable_decreasing,
    to_dyck_path,
)

SC132 = consecutive_machine((1, 3, 2))
SC231 = consecutive_machine((2, 3, 1))
SC321 = consecutive_machine((3, 2, 1))
SC123 = consecutive_machine((1, 2, 3))
S231 = classical_machine((2, 3, 1))
S132 = classical_machine((1, 3, 2))
S312 = classical_machine((3, 1, 2))


def test_criterion_1_worked_examples(criterion):
    with criterion(1, "worked single-run examples, < 1 ms each"):
        assert run(SC231, (2, 6, 5, 4, 1, 3)) == (6, 5, 3, 1, 4, 2)
        assert run(S231, (2, 6, 5, 4, 1, 3)) == (6, 5, 1, 4, 3, 2)
        pi = (5, 8, 9, 4, 3, 6, 7, 1, 2)
        assert run(SC132, pi) == (9, 8, 7, 6, 2, 1, 3, 4, 5)
        assert to_dyck_path(pi) == "UUUUUDDDUDUDDDUUDD"
        # warm timing: each mapping is far under a millisecond
        for spec, p in ((SC231, (2, 6, 5, 4, 1, 3)), (S231, (2, 6, 5, 4, 1, 3)),
                        (SC132, pi)):
            run(spec, p)
            t0 = time.perf_counter()
            run(spec, p)
            assert time.perf_counter() - t0 < 1e-3


def test_criterion_2_sortable_table(criterion):
    with criterion(2, "all six sortable-count rows, n = 0..9, brute force"):
        for key, row in golden.SORTABLE_COUNTS.items():
            spec = consecutive_machine(tuple(int(ch) for ch in key))
            t0 = time.perf_counter()
            computed = tuple(count_sortable(spec, n) for n in range(10))
            assert computed == row, key
            assert time.perf_counter() - t0 < 60.0, key


def test_criterion_3_max_fertility_table(criterion):
    with criterion(3, "max-fertility rows, n = 1..9, plus closed forms"):
        for key, row in golden.MAX_FERTILITY.items():
            spec = consecutive_machine(tuple(int(ch) for ch in key))
            t0 = time.perf_counter()
            computed = tuple(max_fertility(spec, n)[0] for n in range(1, 10))
            assert computed == row, key
            assert time.perf_counter() - t0 < 60.0, key
        for n in range(1, 10):
            assert golden.MAX_FERTILITY["132"][n - 1] == max_fiber_bound_132(n)
            if n >= 2:
                assert golden.MAX_FERTILITY["231"][n - 1] == 2 ** (n - 2)


def test_criterion_4_reverse_layered_formula(criterion):
    from stacksorting.preimages import reverse_layered_fiber_size

    with criterion(4, "closed-form fiber count equals brute force, n <= 8"):
        for n in range(9):
            tally = image_tally(SC132, n)
            for p in all_permutations(n):
                if is_reverse_layered(p):
                    assert reverse_layered_fiber_size(p) == tally.get(p, 0), (n, p)


def test_criterion_5_periodic_points(criterion):
    with criterion(5, "periodic points of all six consecutive machines and "
                      "of the classical 132/312 machines, n <= 8"):
        t0 = time.perf_counter()
        # sigma and its reverse share the expected set
        for pair in ((1, 2, 3), (1, 3, 2), (2, 1, 3)):
            for n in range(1, 9):
                expected = set(avoiders_reference(
                    n, [consecutive(pair), consecutive(reverse(pair))]
                ))
                for sigma in (pair, reverse(pair)):
                    spec = consecutive_machine(sigma)
                    points = periodic_points(spec, n)
                    assert points == expected, (sigma, n)
                    if n >= 2:
                        assert cycle_periods(spec, points) == {2}, (sigma, n)
            assert time.perf_counter() - t0 < 120.0
        t0 = time.perf_counter()
        for n in range(1, 9):
            assert periodic_points(S132, n) == set(avoiders_reference(
                n, [classical((1, 3, 2)), classical((2, 3, 1))]
            ))
            assert periodic_points(S312, n) == set(avoiders_reference(
                n, [classical((2, 1, 3)), classical((3, 1, 2))]
            ))
            for p in all_permutations(n):
                x = p
                for _ in range(n - 1):
                    x = run(S132, x)
                assert is_vee_shaped(x), (n, p)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_6_max_iteration_depth(criterion):
    with criterion(6, "max settling depth n-1 for n = 3..8, witnesses attain it"):
        for n in range(3, 9):
            best = max(
                iterations_until(S132, p, is_vee_shaped) for p in all_permutations(n)
            )
            assert best == n - 1, n
            m, r = divmod(n, 3)
            lam = deep_witness(m)
            witness = lam if r == 0 else (n,) + lam if r == 1 else (n - 1, n) + lam
            assert iterations_until(S132, witness, is_vee_shaped) == n - 1, n
        assert verify_witness_trajectory(2)
        assert verify_witness_trajectory(3)


def test_criterion_7_enumeration_identities(criterion):
    with criterion(7, "sortable-set enumeration identities, n <= 8"):
        for n in range(9):
            assert count_sortable(SC321, n) == motzkin(n)
            assert count_sortable(SC132, n) == catalan(n)
            if n >= 1:
                assert count_sortable(SC123, n) == motzkin(n + 1) - motzkin(n)
                members_starting_high = sum(
                    1 for p in sortable_members(SC123, n) if p[0] == n
                )
                assert members_starting_high == motzkin(n - 1)
            for k, parameter in ((3, 2), (4, 3)):
                cnt = sum(1 for _ in pattern_avoiders(
                    n, [classical((1, 3, 2)), consecutive(range(1, k + 1))]
                ))
                assert cnt == generalized_motzkin(parameter, n), (k, n)
            cnt = sum(1 for _ in pattern_avoiders(
                n, [classical((1, 3, 2)), consecutive((3, 2, 1))]
            ))
            assert cnt == motzkin(n)
        # the empty permutation sorts trivially; the difference formula only
        # applies from n = 1
        assert count_sortable(SC123, 0) == 1


def test_criterion_8_characterizations(criterion):
    with criterion(8, "structural characterizations, encoding round-trip, "
                      "image remark, swap inequality"):
        p231 = classical((2, 3, 1))
        qualifying_4 = [
            s for s in itertools.permutations(range(1, 5))
            if contains(swap_first_two(s), p231)
        ]
        pat132 = classical((1, 3, 2))
        for n in range(9):
            dyck_seen = set()
            for p in all_permutations(n):
                s132 = is_sortable(SC132, p)
                assert structural_sortable_132(p) == s132, p
                assert structural_sortable_123(p) == is_sortable(SC123, p), p
                s321 = is_sortable(SC321, p)
                assert structural_sortable_decreasing(p, 3) == s321, p
                assert structural_sortable_av132_rev(p, (3, 2, 1)) == s321, p
                if n <= 7:
                    for sigma in qualifying_4:
                        assert structural_sortable_av132_rev(p, sigma) == \
                            is_sortable(consecutive_machine(sigma), p), (sigma, p)
                out = run(SC132, p)
                if avoids_231(out):
                    assert not contains(out, pat132), p
                if s132:
                    word = to_dyck_path(p)
                    assert from_dyck_path(word) == p
                    dyck_seen.add(word)
            assert len(dyck_seen) == catalan(n)
            assert dyck_seen == set(all_dyck_words(n))
        for n in range(2, 7):
            tally = image_tally(SC132, n)
            for p in all_permutations(n):
                for i in eligible_swap_indices(p):
                    swapped = tuple(
                        i + 1 if v == i else i if v == i + 1 else v for v in p
                    )
                    assert tally.get(p, 0) <= tally.get(swapped, 0), (p, i)


def test_criterion_9_class_criterion(criterion):
    with criterion(9, "class criterion vs brute closure for lengths 2-4"):
        for k in (2, 3, 4):
            for sigma in itertools.permutations(range(1, k + 1)):
                spec = consecutive_machine(sigma)
                verdict = classify_sortable_set(sigma)
                closed, _ = is_downward_closed(lambda p: is_sortable(spec, p), 6)
                assert closed == (verdict is not SortableSetKind.NOT_A_CLASS), sigma
                if verdict is SortableSetKind.AV132_CLASS:
                    for n in range(1, 7):
                        assert set(sortable_members(spec, n)) == set(
                            pattern_avoiders(n, [classical((1, 3, 2))])
                        ), (sigma, n)
        # the classic counterexample pairs are live
        classic = classical_machine((2, 1))
        assert is_sortable(classic, (3, 5, 2, 4, 1))
        assert not is_sortable(classic, (3, 2, 4, 1))
        assert is_sortable(SC231, (2, 5, 3, 1, 4))
        assert not is_sortable(SC231, (2, 4, 1, 3))
        # the 12 machine sorts exactly the 213 avoiders
        sc12 = consecutive_machine((1, 2))
        for n in range(8):
            assert set(sortable_members(sc12, n)) == set(
                pattern_avoiders(n, [classical((2, 1, 3))])
            ), n


def test_criterion_10_conjecture_harness(criterion):
    with criterion(10, "conjecture harness verdicts at desk bounds"):
        fine = run_conjecture("fine-transform", 8)
        assert fine.holds
        predicted = {r["n"]: r["predicted"] for r in fine.details["rows"]}
        for n in range(10):
            from stacksorting.sequences import fine_binomial_transform

            assert fine_binomial_transform(n) == golden.SORTABLE_COUNTS["231"][n], n
        assert all(predicted[n] == golden.SORTABLE_COUNTS["231"][n] for n in range(9))

        settle = run_conjecture("2n-4", 8)
        assert settle.holds
        slow = [w for w in settle.witnesses if w["kind"] == "slow"]
        assert len(slow) == 6  # one slow witness found for each n = 3..8

        general = run_conjecture("general-periodic", 7)
        assert general.holds
        patterns_checked = {c["pattern"] for c in general.details["cases"]}
        assert all(
            "".join(map(str, s)) in patterns_checked
            for s in itertools.permutations(range(1, 5))
        )

        vee = run_conjecture("vn-limit", 7)
        assert vee.holds
        assert all(c["holds"] for c in vee.details["cases"])

        spectrum = run_conjecture("fertility-spectrum", 8)
        assert spectrum.holds
        assert spectrum.details["classic_stack_missing_3"]
        for stats in spectrum.details["per_pattern"].values():
            assert stats["contiguous_to"] >= stats["previous_bound_max"]
        # gap-free spectra coincide with 'no gaps at all' where that is true
        for key in ("123", "321"):
            assert spectrum.details["per_pattern"][key]["gaps"] == []
