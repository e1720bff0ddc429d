import hashlib
import itertools
import json
from math import factorial
from pathlib import Path

import pytest

from conftest import avoiders_reference, cyclic_ranks_reference, every_machine_shape
from stacksorting.bounds import ResourceBoundError
from stacksorting import dynamics, permutations
from stacksorting.dynamics import (
    CONJECTURE_NAMES,
    ConjectureReport,
    _aggregate,
    _bent_mask,
    _cyclic_ranks,
    _general_periodic,
    _unrank,
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
from stacksorting.machine import (
    _ranker,
    classical_machine,
    consecutive_machine,
    image_map,
    rank,
    run,
)
from stacksorting.permutations import (
    all_permutations,
    complement,
    consecutive,
    classical,
    format_permutation,
    identity,
    is_vee_shaped,
    pattern_avoiders,
)

SIGMAS = [s for k in (3, 4) for s in itertools.permutations(range(1, k + 1))]

SC132 = consecutive_machine((1, 3, 2))
SC321 = consecutive_machine((3, 2, 1))
S132 = classical_machine((1, 3, 2))
S312 = classical_machine((3, 1, 2))


def rank_mask(n, perms):
    """The mask by rank of the given permutations of [n]."""
    return dynamics._mask(factorial(n), map(rank, perms))


EXPECTED = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())


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

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            periodic_points(SC132, -1)

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_preperiod_zero_on_every_machine(self, spec):
        # one orbit at a time on the runner, apart from the image map
        for n in range(7):
            assert periodic_points(spec, n) == {
                p for p in all_permutations(n) if orbit(spec, p).preperiod == 0
            }

    @pytest.mark.parametrize("spec", every_machine_shape(), ids=str)
    def test_cyclic_ranks_match_the_set_fixpoint(self, spec):
        for n in range(7):
            image = image_map(spec, n)
            mask = _cyclic_ranks(image)
            assert len(mask) == factorial(n)
            assert set(itertools.compress(range(len(mask)), mask)) == cyclic_ranks_reference(image)

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
            iterations_until(SC132, (1, 2, 3), lambda p: False)

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

    @pytest.mark.parametrize("n", range(3, 8))
    def test_settling_bound_by_iteration(self, n):
        # first hits of the V shape, one orbit at a time on the runner
        sc231 = consecutive_machine((2, 3, 1))
        cap = 2 * n - 4
        depths = {p: iterations_until(sc231, p, is_vee_shaped) for p in all_permutations(n)}
        slow = [p for p, t in depths.items() if t == cap][:1]
        late = [p for p, t in depths.items() if t > cap][:1]
        r = probe_settling_bound(n)
        assert r.holds == (not late)
        assert r.witnesses == tuple(
            {"kind": kind, "perm": format_permutation(p)}
            for kind, found in (("slow", slow), ("violation", late))
            for p in found
        )

    def test_settling_bound_validation(self):
        with pytest.raises(ValueError):
            probe_settling_bound(2)

    def test_vee_limit_small(self):
        r = probe_vee_limit(3)
        assert r.holds
        assert r.details["limit"] == "312"
        assert any(w["perm"] == "132" for w in r.witnesses)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_vee_limit_by_iteration(self, n):
        slow, bad = [], []
        for p in all_permutations(n):
            x = p
            for _ in range(n - 2):
                x = run(S132, x)
            if not is_vee_shaped(x):
                slow.append(p)
                if run(S132, x) != vee_limit(n):
                    bad.append(p)
        r = probe_vee_limit(n)
        assert r.holds == (not bad)
        assert r.details["slow_count"] == len(slow)
        assert r.witnesses == tuple(
            {"kind": kind, "perm": format_permutation(p)}
            for kind, found in (("slow", slow[:1]), ("violation", bad[:1]))
            for p in found
        )

    def test_bent_mask_by_rank_matches_is_vee_shaped(self):
        for n in range(1, 10):
            assert _bent_mask(n) == bytearray(not is_vee_shaped(p) for p in all_permutations(n))

    def test_general_periodic_s3(self):
        for sigma in itertools.permutations((1, 2, 3)):
            r = probe_general_periodic(sigma, 6)
            assert r.holds
            assert r.details["observed_periods"] == [2]

    def test_general_periodic_witnesses_from_streamed_avoiders(self, monkeypatch):
        # drop the first four avoiders and merge in the first three other
        # permutations, in order: the dropped ones are unexpected periodic
        # points, the added ones missing, and the details stay those of S_6
        sigma, n = (1, 3, 2), 6
        real = list(pattern_avoiders(n, [consecutive(sigma), consecutive((2, 3, 1))]))
        extra = [p for p in all_permutations(n) if p not in real][:3]
        streamed = sorted(real[4:] + extra)
        details = probe_general_periodic(sigma, n).details
        monkeypatch.setattr(dynamics, "_expected_periodic", lambda image, rev: rank_mask(n, streamed))
        r = probe_general_periodic(sigma, n)
        assert not r.holds and r.details == details
        assert r.witnesses == tuple(
            [{"kind": "unexpected_periodic", "perm": format_permutation(p)} for p in real[:3]]
            + [{"kind": "missing_periodic", "perm": format_permutation(p)} for p in extra]
        )

    def test_general_periodic_shared_route_matches_each_probe(self):
        # one image map per complement pair and one avoider tree per class
        # give each sigma the report it gets on its own
        alone = [probe_general_periodic(s, m) for s in SIGMAS for m in range(1, 7)]
        for m in range(1, 7):
            assert _general_periodic(SIGMAS, m) == alone[m - 1::6]
        assert run_conjecture("general-periodic", 6) == _aggregate("general-periodic", 6, alone)

    def test_general_periodic_mirrors_witnesses_for_the_complement(self, monkeypatch):
        # a doctored expected set for the class of 132 at n = 6, and its
        # complement for 312 and 213 on their own: the shared route builds
        # only the first, and mirrors it for 312 and 213
        n = 6
        pair = [consecutive((1, 3, 2)), consecutive((2, 3, 1))]
        real = list(pattern_avoiders(n, pair))
        extra = [p for p in all_permutations(n) if p not in real][:3]
        streamed = sorted(real[4:] + extra)
        doctored = {
            bytes(rank_mask(n, real)): rank_mask(n, streamed),
            bytes(rank_mask(n, map(complement, real))): rank_mask(n, map(complement, streamed)),
        }
        expected_periodic = dynamics._expected_periodic

        def doctor(image, rev):
            mask = expected_periodic(image, rev)
            return doctored.get(bytes(mask), mask)

        monkeypatch.setattr(dynamics, "_expected_periodic", doctor)
        alone = [probe_general_periodic(s, m) for s in SIGMAS for m in range(1, n + 1)]
        for m in range(1, n + 1):
            shared = _general_periodic(SIGMAS, m)
            assert shared == alone[m - 1::n]
        by_case = {r.details["pattern"]: r for r in shared}
        for sigma in ("132", "231", "312", "213"):
            assert not by_case[sigma].holds
        assert by_case["312"].witnesses == tuple(
            [{"kind": "unexpected_periodic", "perm": format_permutation(p)}
             for p in sorted(map(complement, real[:4]))[:3]]
            + [{"kind": "missing_periodic", "perm": format_permutation(p)}
               for p in sorted(map(complement, extra))]
        )

    @pytest.mark.parametrize("sigma, maps, classes", [
        (None, 15, 10),
        ((1, 3, 2), 1, 1),
        ((1, 2, 3), 1, 1),
        ((1, 2, 4, 3), 1, 1),
        ((2, 4, 1, 3), 1, 1),
    ])
    def test_general_periodic_builds_per_pair_and_class(self, monkeypatch, sigma, maps, classes):
        # for each m: one image map per complement pair, one expected mask per
        # symmetry class read off its first map, one reversal on the ranks and
        # no avoider tree; with a sigma, one map, whether rev sigma is sigma^c
        # (123, 2413) or not (132, 1243)
        assert not hasattr(dynamics, "pattern_avoiders")
        calls = {"image_map": 0, "_expected_periodic": 0, "_reversal_ranks": 0}

        def counted(name):
            real = getattr(dynamics, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(dynamics, name, counted(name))

        def no_tree(*args):
            raise AssertionError("built an avoider tree")

        monkeypatch.setattr(permutations, "_avoider_tree", no_tree)
        run_conjecture("general-periodic", 4, sigma=sigma)
        assert calls == {"image_map": 4 * maps, "_expected_periodic": 4 * classes,
                         "_reversal_ranks": 4}

    @pytest.mark.parametrize("k, m_max", [(2, 7), (3, 7), (4, 7), (5, 6)])
    def test_expected_periodic_is_the_avoider_mask(self, k, m_max):
        # pi avoids rev sigma exactly when SC_sigma(pi) = pi^r, and sigma
        # exactly when SC_sigma(pi^r) = pi: the image map gives the avoiders
        # of {sigma, rev sigma} that the avoider tree lists
        for m in range(m_max + 1):
            rev = dynamics._reversal_ranks(m)
            for sigma in itertools.permutations(range(1, k + 1)):
                pair = [consecutive(sigma), consecutive(sigma[::-1])]
                image = image_map(consecutive_machine(sigma), m)
                assert dynamics._expected_periodic(image, rev) == rank_mask(
                    m, pattern_avoiders(m, pair)
                )

    @pytest.mark.parametrize("sigma", SIGMAS, ids=format_permutation)
    def test_general_periodic_details_by_periodic_points(self, sigma):
        # the probe reads ranks off the image map; periodic_points unranks
        # them and cycle_periods walks each cycle on the runner
        spec = consecutive_machine(sigma)
        for n in range(1, 7):
            points = periodic_points(spec, n)
            details = probe_general_periodic(sigma, n).details
            assert details["periodic_count"] == len(points)
            assert details["observed_periods"] == sorted(cycle_periods(spec, points))

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

    def test_fertility_spectrum_tallies_each_size_once(self, monkeypatch):
        from stacksorting import preimages

        n_max = 5
        expected = {}
        for sigma in itertools.permutations((1, 2, 3)):
            spec = consecutive_machine(sigma)
            expected["".join(map(str, sigma))] = max(
                preimages.fertility_spectrum(spec, n_max - 1)
            )
        calls = []
        folds = preimages._fiber_folds

        def counted(spec, n, *args):
            calls.append((spec, n))
            return folds(spec, n, *args)

        monkeypatch.setattr(preimages, "_fiber_folds", counted)
        tallied = []
        tally = preimages.image_tally

        def counted_tally(spec, n, **kwargs):
            tallied.append((spec, n))
            return tally(spec, n, **kwargs)

        monkeypatch.setattr(preimages, "image_tally", counted_tally)
        r = probe_fertility_spectrum(n_max)
        # one machine of each complement pair of length-3 machines at
        # n = 1..n_max, and the classic stack up to 7
        assert len(calls) == len(set(calls)) == 3 * n_max + min(n_max, 7)
        # the length-3 machines fold each first entry on its own, S_1 included
        classic = classical_machine((2, 1))
        assert tallied and all(spec == classic for spec, n in tallied)
        assert {
            key: row["previous_bound_max"] for key, row in r.details["per_pattern"].items()
        } == expected

    @pytest.mark.parametrize("n_max", range(2, 7))
    def test_fertility_spectrum_matches_each_machine_tallied(self, n_max):
        # the probe tallies one machine per complement pair; tally all six here
        from stacksorting import preimages

        per = probe_fertility_spectrum(n_max).details["per_pattern"]
        for sigma in itertools.permutations((1, 2, 3)):
            spec = consecutive_machine(sigma)
            previous = preimages.fertility_spectrum(spec, n_max - 1)
            sizes = previous | set(preimages.image_tally(spec, n_max).values())
            gaps = preimages.spectrum_gaps(sizes)
            assert per[format_permutation(sigma)] == {
                "max": max(sizes),
                "contiguous_to": gaps[0] - 1 if gaps else max(sizes),
                "previous_bound_max": max(previous),
                "first_gap": gaps[0] if gaps else None,
                "gaps": gaps,
            }

    @pytest.mark.parametrize("name, n", [
        pytest.param("2n-4", 2, id="2n-4"),
        pytest.param("vn-limit", 2, id="vn-limit"),
        pytest.param("fine-transform", -1, id="fine-transform"),
        pytest.param("fertility-spectrum", 1, id="fertility-spectrum-1"),
        pytest.param("fertility-spectrum", 0, id="fertility-spectrum-0"),
    ])
    def test_run_conjecture_without_cases_rejected(self, name, n):
        # 2n-4 and vn-limit start at n = 3, fertility-spectrum at n = 2 (a
        # previous bound with fibers) and fine-transform at n = 0; below
        # that there is nothing to verify
        with pytest.raises(ValueError):
            run_conjecture(name, n)

    @pytest.mark.parametrize("name", CONJECTURE_NAMES)
    def test_run_conjecture_checks_the_bound_before_any_case(self, no_scan, name):
        with pytest.raises(ResourceBoundError, match="run_conjecture requires n <= 9"):
            run_conjecture(name, 10)

    @pytest.mark.parametrize("probe, n_max", [
        pytest.param(probe_fine_transform, -1, id="fine-transform"),
        pytest.param(probe_fertility_spectrum, 1, id="fertility-spectrum-1"),
        pytest.param(probe_fertility_spectrum, 0, id="fertility-spectrum-0"),
    ])
    def test_probe_without_cases_rejected(self, probe, n_max):
        # called directly, not through run_conjecture
        with pytest.raises(ValueError, match="n_max must be >="):
            probe(n_max)

    @pytest.mark.parametrize("key", [
        key for key in EXPECTED["payload_sha256"] if int(key.split()[-1]) <= 6
    ])
    def test_payload_matches_benchmark_pin(self, key):
        # the small-scale payload sha256s the benchmark checks, byte for byte
        _, name, n = key.split()
        payload = run_conjecture(name, int(n)).payload()
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == EXPECTED["payload_sha256"][key]

    def test_run_conjecture_aggregates(self):
        r = run_conjecture("2n-4", 4)
        assert isinstance(r, ConjectureReport)
        assert r.holds and len(r.details["cases"]) == 2
        with pytest.raises(ValueError):
            run_conjecture("riemann", 4)

    @pytest.mark.parametrize("name", ["fine-transform", "2n-4", "fertility-spectrum", "vn-limit"])
    def test_run_conjecture_refuses_an_unread_sigma(self, name):
        with pytest.raises(ValueError, match="only general-periodic"):
            run_conjecture(name, 4, sigma=(1, 2, 3, 4))

    def test_run_conjecture_general_periodic_single_sigma(self):
        r = run_conjecture("general-periodic", 5, sigma=(1, 2, 3, 4))
        assert r.holds
        assert all(c["pattern"] == "1234" for c in r.details["cases"])


class TestUnrank:
    def test_matches_the_enumeration(self):
        for n in range(8):
            assert [_unrank(n, r) for r in range(factorial(n))] == list(all_permutations(n))

    def test_round_trips_with_rank_at_10(self):
        ranker = _ranker(10)  # the batch ranker behind ``image_map``
        for r in itertools.chain(range(0, factorial(10), 997), [factorial(10) - 1]):
            assert ranker(_unrank(10, r)) == r
        assert rank(_unrank(10, 1234567)) == 1234567

    def test_reversal_ranks_rank_each_reverse(self):
        for n in range(8):
            rev = dynamics._reversal_ranks(n)
            assert list(rev) == [rank(_unrank(n, r)[::-1]) for r in range(factorial(n))]
            assert [rev[x] for x in rev] == list(range(factorial(n)))

    @pytest.mark.parametrize("n, r", [(3, -1), (3, 6), (0, 1)])
    def test_out_of_range_rejected(self, n, r):
        with pytest.raises(ValueError):
            _unrank(n, r)


class TestClassicalDynamics:
    def test_periodic_sets_match_avoidance(self):
        for n in range(1, 7):
            assert periodic_points(S132, n) == set(
                avoiders_reference(n, [classical((1, 3, 2)), classical((2, 3, 1))])
            )
            assert periodic_points(S312, n) == set(
                avoiders_reference(n, [classical((2, 1, 3)), classical((3, 1, 2))])
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

    def test_non_periodic_point_rejected(self):
        # 1324 reaches a 2-cycle after two steps; the walk must not wait for it
        with pytest.raises(ValueError, match="not a periodic point: 1324"):
            cycle_periods(SC132, [(1, 3, 2, 4)])
