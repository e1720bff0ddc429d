import itertools

import pytest

from stacksorting.bounds import ResourceBoundError
from stacksorting.dynamics import (
    ConjectureReport,
    cycle_periods,
    deep_witness,
    iterations_until,
    orbit,
    periodic_points,
    probe_fertility_spectrum,
    probe_fine_transform,
    probe_general_periodic,
    probe_settling_bound,
    probe_vee_limit,
    residue_block,
    run_conjecture,
    vee_block,
    vee_limit,
    verify_witness_trajectory,
)
from stacksorting.machine import classical_machine, consecutive_machine, run
from stacksorting.permutations import (
    all_permutations,
    consecutive,
    classical,
    identity,
    is_vee_shaped,
    pattern_avoiders,
)

SC132 = consecutive_machine((1, 3, 2))
SC321 = consecutive_machine((3, 2, 1))
S132 = classical_machine((1, 3, 2))
S312 = classical_machine((3, 1, 2))


class TestOrbit:
    def test_period_two_cycle(self):
        report = orbit(SC132, (1, 2, 3))
        assert report.preperiod == 0
        assert report.period == 2
        assert report.orbit == ((1, 2, 3), (3, 2, 1), (1, 2, 3))

    def test_preperiod_two(self):
        report = orbit(S132, (1, 3, 2))
        assert report.preperiod == 2
        assert report.orbit[:3] == ((1, 3, 2), (2, 3, 1), (3, 1, 2))

    def test_fixed_point(self):
        report = orbit(SC132, (1,))
        assert (report.preperiod, report.period) == (0, 1)

    def test_self_consistency(self):
        for p in all_permutations(5):
            r = orbit(SC321, p)
            for i in range(len(r.orbit) - 1):
                assert run(SC321, r.orbit[i]) == r.orbit[i + 1]
            assert r.orbit[r.preperiod + r.period] == r.orbit[r.preperiod]


class TestPeriodicPoints:
    def test_consecutive_132_n3(self):
        assert periodic_points(SC132, 3) == {
            (1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)
        }

    def test_consecutive_321_n3(self):
        assert periodic_points(SC321, 3) == {
            (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)
        }

    def test_classical_132_n2(self):
        assert periodic_points(S132, 2) == {(1, 2), (2, 1)}

    def test_classic_map_fixes_only_identity(self):
        classic = classical_machine((2, 1))
        for n in range(1, 9):
            assert periodic_points(classic, n) == {identity(n)}

    def test_preperiod_zero_equivalence(self):
        for n in range(1, 6):
            pts = periodic_points(SC321, n)
            for p in all_permutations(n):
                assert (orbit(SC321, p).preperiod == 0) == (p in pts)

    def test_bound(self):
        with pytest.raises(ResourceBoundError):
            periodic_points(SC132, 10)

    def test_consecutive_pair_avoidance_is_classical_for_132_231(self):
        # avoiding 132 and 231 consecutively already forces classical
        # avoidance, hence the V shape
        pats = (consecutive((1, 3, 2)), consecutive((2, 3, 1)))
        for n in range(8):
            for p in pattern_avoiders(n, pats):
                assert is_vee_shaped(p)


class TestIterationsUntil:
    def test_known_depth(self):
        assert iterations_until(S132, (1, 3, 2), is_vee_shaped) == 2

    def test_already_inside(self):
        assert iterations_until(S132, (3, 1, 2), is_vee_shaped) == 0

    def test_bad_target_diagnosed(self):
        with pytest.raises(RuntimeError):
            iterations_until(SC132, (1, 2, 3), lambda p: False, cap=10)

    def test_preperiod_decrement(self):
        pts = periodic_points(SC132, 5)
        in_pts = lambda p: p in pts
        for p in all_permutations(5):
            t = iterations_until(SC132, p, in_pts)
            t_next = iterations_until(SC132, run(SC132, p), in_pts)
            assert t_next == max(t - 1, 0)


class TestWitnesses:
    def test_deep_witness_values(self):
        assert deep_witness(1) == (1, 3, 2)
        assert deep_witness(2) == (4, 6, 5, 1, 3, 2)

    def test_vee_block_values(self):
        assert vee_block(1) == (3, 1, 2, 4)
        assert vee_block(2) == (6, 4, 2, 1, 3, 5, 7)
        assert vee_block(3) == (9, 7, 5, 3, 1, 2, 4, 6, 8, 10)

    def test_residue_block_values(self):
        assert residue_block(2, 5, 0) == (15, 12, 9)
        assert residue_block(2, 5, 1) == (13, 10)
        assert residue_block(2, 5, 2) == (14, 11, 8)
        assert residue_block(1, 1, 0) == ()

    def test_vee_limit_values(self):
        assert vee_limit(6) == (6, 4, 2, 1, 3, 5)
        assert vee_limit(7) == (7, 5, 3, 1, 2, 4, 6)
        assert vee_limit(3) == (3, 1, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            deep_witness(0)
        with pytest.raises(ValueError):
            vee_block(0)
        with pytest.raises(ValueError):
            residue_block(1, 3, 4)
        with pytest.raises(ValueError):
            vee_limit(0)

    def test_trajectory_claims(self):
        assert verify_witness_trajectory(2)
        assert verify_witness_trajectory(3)
        assert verify_witness_trajectory(4)

    def test_trajectory_final_form_m2(self):
        x = deep_witness(2)
        for _ in range(4):
            x = run(S132, x)
        assert x == (5, 6, 3, 1, 2, 4)

    def test_trajectory_needs_two_blocks(self):
        with pytest.raises(ValueError):
            verify_witness_trajectory(1)

    def test_witness_reaches_maximum_depth(self):
        for m in (1, 2):
            w = deep_witness(m)
            assert iterations_until(S132, w, is_vee_shaped) == 3 * m - 1


class TestProbes:
    def test_settling_bound_small(self):
        r = probe_settling_bound(3)
        assert r.holds
        assert any(w["kind"] == "slow" for w in r.witnesses)

    def test_settling_bound_validation(self):
        with pytest.raises(ValueError):
            probe_settling_bound(2)

    def test_vee_limit_small(self):
        r = probe_vee_limit(3)
        assert r.holds
        assert r.details["limit"] == "312"
        assert any(w["perm"] == "132" for w in r.witnesses)

    def test_general_periodic_s3(self):
        for sigma in itertools.permutations((1, 2, 3)):
            r = probe_general_periodic(sigma, 6)
            assert r.holds
            assert r.details["observed_periods"] == [2]

    def test_general_periodic_scope_gate(self):
        with pytest.raises(ValueError):
            probe_general_periodic((2, 1), 4)

    def test_fine_transform_small(self):
        r = probe_fine_transform(6)
        assert r.holds
        assert r.details["rows"][3] == {"n": 3, "predicted": 6, "counted": 6}

    def test_fertility_spectrum_reports(self):
        r = probe_fertility_spectrum(6)
        assert r.holds
        per = r.details["per_pattern"]
        assert set(per) == {"123", "132", "213", "231", "312", "321"}
        assert r.details["classic_stack_missing_3"]

    @pytest.mark.parametrize("name", ["2n-4", "vn-limit"])
    def test_run_conjecture_without_cases_rejected(self, name):
        # both probes start at n = 3; below it there is nothing to verify
        with pytest.raises(ValueError):
            run_conjecture(name, 2)

    def test_run_conjecture_aggregates(self):
        r = run_conjecture("2n-4", 4)
        assert isinstance(r, ConjectureReport)
        assert r.holds and len(r.details["cases"]) == 2
        with pytest.raises(ValueError):
            run_conjecture("riemann", 4)

    def test_run_conjecture_general_periodic_single_sigma(self):
        r = run_conjecture("general-periodic", 5, sigma=(1, 2, 3, 4))
        assert r.holds
        assert all(c["pattern"] == "1234" for c in r.details["cases"])


class TestClassicalDynamics:
    def test_periodic_sets_match_avoidance(self):
        for n in range(1, 7):
            assert periodic_points(S132, n) == set(
                pattern_avoiders(n, [classical((1, 3, 2)), classical((2, 3, 1))])
            )
            assert periodic_points(S312, n) == set(
                pattern_avoiders(n, [classical((2, 1, 3)), classical((3, 1, 2))])
            )

    def test_everyone_settles_in_n_minus_1(self):
        for n in range(1, 7):
            for p in all_permutations(n):
                x = p
                for _ in range(n - 1):
                    x = run(S132, x)
                assert is_vee_shaped(x)

    def test_periods_are_two(self):
        for n in range(2, 7):
            assert cycle_periods(S132, periodic_points(S132, n)) == {2}
