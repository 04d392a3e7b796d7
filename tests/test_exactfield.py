import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.exactfield import (
    ETA,
    IMAG,
    INV_SQRT2,
    MINUS_ONE,
    ONE,
    ZERO,
    CycNum,
    common_numerators,
    cyc_to_str,
    mul_acc,
    parse_cyc,
    random_cyc,
    rat,
    vanishing_functionals,
)


def eta(k):
    return CycNum.eta_power(k)


HALF = rat(1, 2)
ZETA = eta(2)
SQRT2 = eta(2) - eta(6)


small_rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)
cycnums = st.builds(CycNum, st.lists(small_rationals, min_size=8, max_size=8))
nonzero_cycnums = cycnums.filter(bool)


class TestBasicArithmetic:
    def test_eta_minimal_polynomial(self):
        assert eta(1) ** 8 == MINUS_ONE
        assert eta(1) ** 16 == ONE

    def test_i_squares_to_minus_one(self):
        assert eta(4) * eta(4) == MINUS_ONE

    def test_zeta_squares_to_i(self):
        assert ZETA * ZETA == IMAG
        assert ZETA == eta(2) and IMAG == eta(4)

    def test_inverse_of_eta(self):
        assert ETA.inverse() == -eta(7)

    def test_sqrt2(self):
        assert SQRT2 * SQRT2 == rat(2)
        assert INV_SQRT2 * SQRT2 == ONE
        assert SQRT2.inverse() == INV_SQRT2

    def test_add_mixed_denominators(self):
        a = rat(1, 2)
        b = rat(1, 3)
        assert a + b == rat(5, 6)
        assert a + a == ONE
        assert HALF + HALF == ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO


class TestConjugation:
    def test_conjugate_of_i(self):
        assert IMAG.conjugate() == -IMAG

    def test_conjugate_fixes_rationals(self):
        assert rat(3, 2).conjugate() == rat(3, 2)

    def test_eta_has_modulus_one(self):
        assert ETA.conjugate() * ETA == ONE

    def test_conjugate_of_eta(self):
        assert ETA.conjugate() == -eta(7)

    def test_real_and_imaginary_parts(self):
        assert (ETA + ETA.conjugate()).is_real()
        assert IMAG.scale(5).is_imaginary()
        assert not ETA.is_real()
        assert SQRT2.is_real()
        assert not IMAG.is_real()
        assert ZERO.is_imaginary() and ZERO.is_real()


class TestCanonicalForm:
    def test_reduction(self):
        assert CycNum((2, 0, 0, 0, 0, 0, 0, 0), 4) == HALF
        assert CycNum((0, -3, 0, 0, 0, 0, 0, 0), -3) == ETA

    def test_renormalizing_is_identity(self):
        a = CycNum((6, -4, 2, 0, 0, 0, 0, 8), 10)
        b = CycNum(a.nums, a.den)
        assert a.nums == b.nums and a.den == b.den

    def test_fraction_coefficients(self):
        a = CycNum([Fraction(1, 2), Fraction(1, 3), 0, 0, 0, 0, 0, 0])
        assert a.coefficients()[:2] == (Fraction(1, 2), Fraction(1, 3))

    def test_hash_consistency(self):
        assert hash(rat(2, 4)) == hash(HALF)
        assert len({rat(1), ONE, CycNum((1, 0, 0, 0, 0, 0, 0, 0))}) == 1


class TestFieldAxioms:
    @given(cycnums, cycnums)
    def test_conjugate_is_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(cycnums)
    def test_conjugate_is_involutive(self, a):
        assert a.conjugate().conjugate() == a

    @given(cycnums)
    def test_additive_inverse(self, a):
        assert a + (-a) == ZERO

    @given(cycnums, cycnums, cycnums)
    @settings(max_examples=50)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(cycnums, cycnums, cycnums)
    @settings(max_examples=50)
    def test_multiplication_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(nonzero_cycnums)
    @settings(max_examples=50)
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == ONE

    def test_thousand_random_inverses(self):
        rng = random.Random(16)
        count = 0
        while count < 1000:
            a = CycNum([rng.randint(-9, 9) for _ in range(8)], rng.randint(1, 9))
            if not a:
                continue
            assert a * a.inverse() == ONE
            assert a + (-a) == ZERO
            count += 1


class TestIntegerKernels:
    @given(st.lists(st.one_of(st.just(ZERO), cycnums), max_size=6))
    @settings(max_examples=30)
    def test_common_numerators_share_one_denominator(self, values):
        nums, den = common_numerators(values)
        assert len(nums) == len(values)
        for v, n in zip(values, nums):
            assert (n is None) == (not v)
            assert (CycNum(n, den) if n is not None else ZERO) == v
            assert den % v.den == 0

    @given(cycnums, cycnums, st.lists(st.integers(-9, 9), min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_mul_acc_adds_the_product(self, a, b, acc):
        out = list(acc)
        mul_acc(out, a.nums, b.nums)
        assert CycNum(out, a.den * b.den) == CycNum(acc, a.den * b.den) + a * b

    def test_vanishing_functionals_match_evaluation(self):
        # points with zero, rational and non-rational coordinates over
        # unequal denominators, each put on the kernel of a drawn functional
        rng = random.Random(17)
        functionals = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(40)]

        def value(f, values):
            return sum((v.scale(c) for c, v in zip(f, values)), ZERO)

        seen = set()
        for _ in range(300):
            values = [rng.choice((ZERO, rat(rng.randint(-5, 5), rng.randint(1, 7)),
                                  random_cyc(rng, 3, 6))) for _ in range(4)]
            g = rng.choice(functionals)
            k = next((k for k, c in enumerate(g) if c), None)
            if k is not None:
                values[k] = ZERO
                values[k] = value(g, values).scale(Fraction(-1, g[k]))
            expected = [not value(f, values) for f in functionals]
            assert vanishing_functionals(functionals, values) == expected
            assert expected[functionals.index(g)]
            seen.update(expected)
        assert seen == {True, False}


class TestGalois:
    def test_automorphism_group(self):
        # k runs over odd residues mod 16; composing k and l gives k*l
        a = CycNum((1, 2, 3, 4, 5, 6, 7, 8), 3)
        for k in range(1, 16, 2):
            for l in range(1, 16, 2):
                assert a.galois(k).galois(l) == a.galois((k * l) % 16)

    def test_conjugation_is_galois_15(self):
        a = CycNum((1, -1, 2, 0, 3, 0, 0, 5), 7)
        assert a.conjugate() == a.galois(15)

    def test_norm_is_rational(self):
        a = CycNum((1, 1, 0, 0, 0, 0, 0, 0))
        prod = a
        for k in range(3, 16, 2):
            prod = prod * a.galois(k)
        assert prod.is_rational()


class TestTextForm:
    def test_rational_form(self):
        assert cyc_to_str(rat(3, 2)) == "3/2"
        assert cyc_to_str(rat(-5)) == "-5"
        assert parse_cyc("3/2") == rat(3, 2)

    def test_cyclotomic_form(self):
        s = cyc_to_str(ETA + HALF)
        assert s == "1/2,1,0,0,0,0,0,0"
        assert parse_cyc(s) == ETA + HALF

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            a = CycNum([rng.randint(-9, 9) for _ in range(8)], rng.randint(1, 9))
            assert parse_cyc(cyc_to_str(a)) == a

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_cyc("1,2,3")
