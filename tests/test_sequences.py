from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksorting import bounds
from stacksorting.sequences import (
    SequenceTable,
    binomial_transform,
    catalan,
    central_binomial,
    fine,
    fine_binomial_transform,
    generalized_motzkin,
    max_fiber_bound_132,
    motzkin,
    motzkin_difference,
    named_sequence,
)

MOTZKIN_10 = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835)


class TestCatalan:
    def test_small(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_table_tail(self):
        assert catalan(9) == 4862

    def test_against_convolution_recurrence(self):
        vals = [1]
        for n in range(20):
            vals.append(sum(vals[i] * vals[n - i] for i in range(n + 1)))
        assert vals == [catalan(n) for n in range(21)]

    def test_exactness_at_scale(self):
        assert catalan(40) == 2622127042276492108820


class TestMotzkin:
    def test_first_ten(self):
        assert tuple(motzkin(n) for n in range(10)) == MOTZKIN_10

    def test_base_step(self):
        assert motzkin(2) == 2

    def test_equals_generalized_parameter_two(self):
        for n in range(13):
            assert motzkin(n) == generalized_motzkin(2, n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            motzkin(-1)

    def test_large_n_against_catalan_sum(self):
        # M_n = sum_k C(n, 2k) C_k; n = 5000 once overflowed the recursion limit
        for n in (*range(30), 5000):
            assert motzkin(n) == sum(comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1))


class TestGeneralizedMotzkin:
    def test_offset_zero(self):
        assert generalized_motzkin(3, 0) == 1

    def test_parameter_three_prefix(self):
        # counts of permutations avoiding 132 plus an increasing 4-window,
        # frozen from the brute-force enumeration (rechecked in acceptance)
        assert [generalized_motzkin(3, n) for n in range(9)] == [
            1, 1, 2, 5, 13, 36, 104, 309, 939,
        ]

    def test_parameter_bound(self):
        with pytest.raises(ValueError):
            generalized_motzkin(1, 4)

    @given(st.integers(2, 5), st.integers(0, 25))
    @settings(max_examples=60, deadline=None)
    def test_division_always_exact(self, k_minus_1, n):
        assert isinstance(generalized_motzkin(k_minus_1, n), int)

    def test_against_binomial_sum(self):
        for k_minus_1 in range(2, 7):
            k = k_minus_1 + 1
            for n in range(80):
                total = sum(
                    (-1) ** j * comb(n + 1, j) * comb(2 * n - j * k, n)
                    for j in range(n // k + 1)
                )
                assert generalized_motzkin(k_minus_1, n) == total // (n + 1)


class TestFine:
    def test_first_values(self):
        assert [fine(k) for k in range(6)] == [0, 1, 0, 1, 2, 6]

    def test_against_symbolic_series(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        gf = (1 - sympy.sqrt(1 - 4 * x)) / (3 - sympy.sqrt(1 - 4 * x))
        coeffs = sympy.series(gf, x, 0, 13).removeO().as_poly(x).all_coeffs()[::-1]
        for k, c in enumerate(coeffs):
            assert fine(k) == int(c), k

    def test_against_series_convolution(self):
        # y = x + y^2 term by term, then F * (1 + y) = y solved for F
        upto = 300
        y = [0, 1] + [0] * (upto - 1)
        for n in range(2, upto + 1):
            y[n] = sum(y[i] * y[n - i] for i in range(1, n))
        f = [0] * (upto + 1)
        for n in range(upto + 1):
            f[n] = y[n] - sum(y[i] * f[n - i] for i in range(1, n + 1))
        assert named_sequence("fine", upto).values == tuple(f)
        assert fine(upto) == f[upto]

    def test_transform_prefix(self):
        assert [fine_binomial_transform(n) for n in range(5)] == [1, 1, 2, 6, 21]

    def test_transform_at_nine(self):
        assert fine_binomial_transform(9) == 22431

    def test_transform_at_three(self):
        assert fine_binomial_transform(3) == 6


class TestTransforms:
    def test_binomial_transform_of_ones(self):
        assert binomial_transform((1,) * 8) == tuple(2 ** n for n in range(8))

    def test_binomial_transform_against_binomials(self):
        seq = tuple(catalan(n) - 3 * n for n in range(40))
        assert binomial_transform(seq) == tuple(
            sum(comb(n, k) * seq[k] for k in range(n + 1)) for n in range(40)
        )
        assert binomial_transform(()) == ()

    def test_first_differences_of_motzkin(self):
        assert [motzkin_difference(n) for n in range(10)] == [
            0, 1, 2, 5, 12, 30, 76, 196, 512, 1353,
        ]

    def test_central_binomial(self):
        assert [central_binomial(n) for n in range(9)] == [1, 1, 2, 3, 6, 10, 20, 35, 70]
        assert max_fiber_bound_132(9) == 70
        assert max_fiber_bound_132(1) == 1


class TestNamedSequences:
    def test_bfile_lines(self):
        table = named_sequence("motzkin", 9)
        lines = table.bfile_lines()
        assert lines[0] == "0 1"
        assert lines[-1] == "9 835"

    def test_genmotzkin_name(self):
        assert named_sequence("genmotzkin:3", 9).values == tuple(
            generalized_motzkin(2, n) for n in range(10)
        )

    def test_all_names_resolve(self):
        for name in ("catalan", "motzkin", "fine", "fine-transform",
                     "motzkin-diff", "central-binomial", "genmotzkin:4"):
            table = named_sequence(name, 5)
            assert isinstance(table, SequenceTable)
            assert len(table.values) == 6

    def test_tables_match_single_values(self):
        upto = 60
        for name, fn in (("fine", fine), ("fine-transform", fine_binomial_transform),
                         ("motzkin-diff", motzkin_difference)):
            assert named_sequence(name, upto).values == tuple(
                fn(n) for n in range(upto + 1)
            ), name

    def test_every_name_at_the_bound(self):
        # each builds its whole table in well under 2 s at the bound
        upto = bounds.SEQ_BOUND
        for name in ("catalan", "motzkin", "fine", "fine-transform",
                     "motzkin-diff", "central-binomial", "genmotzkin:3"):
            assert len(named_sequence(name, upto).values) == upto + 1
        assert named_sequence("fine-transform", upto).values[-1] == (
            fine_binomial_transform(upto)
        )

    def test_upto_bound(self):
        with pytest.raises(bounds.ResourceBoundError):
            named_sequence("catalan", bounds.SEQ_BOUND + 1)
        table = named_sequence("catalan", bounds.SEQ_BOUND + 1,
                               max_upto=bounds.SEQ_BOUND + 1)
        assert table.values[-1] == catalan(bounds.SEQ_BOUND + 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_sequence("fibonacci", 5)
        with pytest.raises(ValueError):
            named_sequence("genmotzkin:x", 5)
