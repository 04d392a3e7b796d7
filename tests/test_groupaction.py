"""Tests for the SL(2)^4 action, named matrices, and permutations."""

import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from artifact.exactfield import (
    IMAG,
    ONE,
    ZERO,
    CycNum,
    random_cyc,
    rat,
)
from artifact.groupaction import (
    D,
    I2,
    IDENTITY,
    GElt,
    PermAuto,
    act_g0,
    act_tensor,
    conj_g,
    g_inv,
    g_mul,
    gelt,
    gelt_from_names,
    m2_det,
    m2_mul,
    m2_neg,
    mat2,
    named,
    sharp,
)
from artifact.liealg import (
    Tensor,
    bracket,
    g1_to_tensor,
    lie_is_zero,
    lie_sub,
    tensor_to_g1,
    u_basis,
)


def zeta(k: int) -> CycNum:
    return CycNum.eta_power(2 * k)


def random_mat2(rng: random.Random):
    """Random unimodular 2x2 matrix: product of shears and a unit diagonal."""
    m = named("I")
    for _ in range(rng.randrange(1, 4)):
        x = random_cyc(rng, 3, 2)
        kind = rng.randrange(3)
        if kind == 0:
            m = m2_mul(m, mat2(ONE, x, ZERO, ONE))
        elif kind == 1:
            m = m2_mul(m, mat2(ONE, ZERO, x, ONE))
        else:
            m = m2_mul(m, D(CycNum.eta_power(rng.randrange(16))))
    return m


def random_gelt(rng: random.Random) -> GElt:
    return gelt(*[random_mat2(rng) for _ in range(4)])


def random_tensor(rng: random.Random) -> Tensor:
    return Tensor([random_cyc(rng, 3, 2) for _ in range(16)])


class TestNamedMatrices:
    def test_k_and_f_entries(self):
        assert named("K") == mat2(ZERO, IMAG, IMAG, ZERO)
        assert named("F") == mat2(rat(1, 2), IMAG.scale(rat(1, 2).to_fraction()), IMAG, ONE)

    def test_m_n_diagonals(self):
        assert named("M") == mat2(zeta(3), ZERO, ZERO, -zeta(1))
        assert named("N") == mat2(zeta(1), ZERO, ZERO, -zeta(3))

    def test_all_named_unimodular(self):
        for name in ["I", "J", "K", "L", "M", "N", "F"]:
            assert m2_det(named(name)) == ONE, name
            assert m2_det(named("-" + name)) == ONE, name

    def test_d_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            D(ZERO)

    def test_d_inverse_entry(self):
        eta = CycNum.eta_power(1)
        assert D(eta) == mat2(eta, ZERO, ZERO, CycNum.eta_power(15))

    def test_sharp_swaps_antidiagonal(self):
        a = mat2(rat(1), rat(2), rat(3), rat(4))
        assert sharp(a) == mat2(rat(4), rat(3), rat(2), rat(1))
        assert sharp(sharp(a)) == a

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named("Q")
        with pytest.raises(KeyError):
            gelt_from_names("I,I,I,Dx")

    def test_names_with_powers_products_and_signs(self):
        eta = CycNum.eta_power
        g = gelt_from_names(" D5, -D3,LF , -LF")
        lf = m2_mul(named("L"), named("F"))
        assert g == gelt(D(eta(5)), m2_neg(D(eta(3))), lf, m2_neg(lf))
        # exponents are read modulo 16
        assert gelt_from_names("D17,D0,-I,-K") == gelt(
            D(eta(1)), named("I"), m2_neg(named("I")), m2_neg(named("K"))
        )


def _act_tensor_reference(g, t):
    # the slot-wise action one CycNum product and sum at a time
    coeffs = list(t.c)
    for slot in range(4):
        a = g[slot]
        if a == I2:
            continue
        bit = 8 >> slot
        out = [ZERO] * 16
        for ti in range(16):
            c = coeffs[ti]
            if not c:
                continue
            col = 1 if ti & bit else 0
            for row in (0, 1):
                v = a[row][col]
                if v:
                    target = (ti & ~bit) | (bit if row else 0)
                    out[target] = out[target] + v * c
        coeffs = out
    return Tensor(coeffs)


# entries of mixed denominators: zero, rational, a single power of eta, or general
_entries = st.one_of(
    st.just(ZERO),
    st.fractions(-6, 6, max_denominator=6).map(rat),
    st.builds(lambda q, k: CycNum.eta_power(k).scale(q),
              st.fractions(-6, 6, max_denominator=6), st.integers(0, 15)),
    st.builds(CycNum, st.lists(st.fractions(-4, 4, max_denominator=5),
                               min_size=8, max_size=8)),
)
_factors = st.one_of(st.just(I2), st.builds(mat2, _entries, _entries, _entries, _entries))
_tensors = st.one_of(
    st.just(Tensor.zero()),
    st.builds(Tensor, st.lists(_entries, min_size=16, max_size=16)),
    # sparse: a few entries, the rest zero
    st.dictionaries(st.integers(0, 15), _entries, max_size=3).map(
        lambda d: Tensor([d.get(k, ZERO) for k in range(16)])),
)


class TestTensorAction:
    @seed(1501)
    @settings(max_examples=40, deadline=None)
    @given(st.tuples(_factors, _factors, _factors, _factors), _tensors)
    def test_matches_the_field_loop(self, g, t):
        assert act_tensor(g, t) == _act_tensor_reference(g, t)

    def test_identity_acts_trivially(self):
        rng = random.Random(7)
        for _ in range(5):
            t = random_tensor(rng)
            assert act_tensor(IDENTITY, t) == t

    def test_diagonal_scales_e0000(self):
        a = CycNum.eta_power(3) + rat(2)
        g = gelt(D(a), named("I"), named("I"), named("I"))
        assert act_tensor(g, Tensor.basis("0000")) == Tensor.basis("0000").scale(a)

    def test_jjjj_fixes_u1_with_signs(self):
        g = gelt_from_names("J,J,J,J")
        u = u_basis()
        # J sends e_0 -> -e_1 and e_1 -> e_0, so e_0000 -> e_1111 with sign (+1)^4
        assert act_tensor(g, Tensor.basis("0000")) == Tensor.basis("1111")
        assert act_tensor(g, Tensor.basis("1111")) == Tensor.basis("0000")
        assert act_tensor(g, u[0]) == u[0]

    def test_homomorphism_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_gelt(rng)
            h = random_gelt(rng)
            t = random_tensor(rng)
            assert act_tensor(g_mul(g, h), t) == act_tensor(g, act_tensor(h, t))

    def test_linear_in_tensor(self):
        rng = random.Random(13)
        g = random_gelt(rng)
        s, t = random_tensor(rng), random_tensor(rng)
        assert act_tensor(g, s + t) == act_tensor(g, s) + act_tensor(g, t)

    def test_inverse_undoes(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_gelt(rng)
            t = random_tensor(rng)
            assert act_tensor(g_inv(g), act_tensor(g, t)) == t

    def test_conjugation_compatibility(self):
        rng = random.Random(19)
        for _ in range(25):
            g = random_gelt(rng)
            t = random_tensor(rng)
            assert act_tensor(g, t).conjugate() == act_tensor(conj_g(g), t.conjugate())

    def test_conj_g_is_homomorphism(self):
        rng = random.Random(23)
        g, h = random_gelt(rng), random_gelt(rng)
        assert conj_g(g_mul(g, h)) == g_mul(conj_g(g), conj_g(h))


class TestQuadrupleAction:
    def test_bracket_equivariance_mixed_degrees(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_gelt(rng)
            x = random_tensor(rng)
            y = random_tensor(rng)
            # [x, y] lands in degree 0; both sides must agree exactly.
            lhs = act_g0(g, bracket(tensor_to_g1(x), tensor_to_g1(y)))
            rhs = bracket(
                tensor_to_g1(act_tensor(g, x)), tensor_to_g1(act_tensor(g, y))
            )
            assert lie_is_zero(lie_sub(lhs, rhs))

    def test_bracket_equivariance_g0_on_g1(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_gelt(rng)
            x = random_tensor(rng)
            y = random_tensor(rng)
            h = bracket(tensor_to_g1(x), tensor_to_g1(y))
            t = random_tensor(rng)
            lhs = g1_to_tensor(bracket(act_g0(g, h), tensor_to_g1(act_tensor(g, t))))
            rhs = act_tensor(g, g1_to_tensor(bracket(h, tensor_to_g1(t))))
            assert lhs == rhs

    def _sl2_triple(self):
        e = Tensor.basis("0011")
        for f in (Tensor.basis("1100"), -Tensor.basis("1100")):
            h = bracket(tensor_to_g1(e), tensor_to_g1(f))
            he = g1_to_tensor(bracket(h, tensor_to_g1(e)))
            hf = g1_to_tensor(bracket(h, tensor_to_g1(f)))
            if he == e.scale(rat(2)) and hf == f.scale(rat(-2)):
                return h, e, f
        raise AssertionError("no standard triple over e_0011")

    def test_sl2_triple_preserved(self):
        h, e, f = self._sl2_triple()
        rng = random.Random(37)
        for _ in range(10):
            g = random_gelt(rng)
            h2, e2, f2 = act_g0(g, h), act_tensor(g, e), act_tensor(g, f)
            assert act_tensor(g, Tensor.zero()).is_zero()
            hh = bracket(tensor_to_g1(e2), tensor_to_g1(f2))
            assert lie_is_zero(lie_sub(hh, h2))
            assert g1_to_tensor(bracket(h2, tensor_to_g1(e2))) == e2.scale(rat(2))
            assert g1_to_tensor(bracket(h2, tensor_to_g1(f2))) == f2.scale(rat(-2))

    def test_grading_mismatch_raises(self):
        bad_h = tensor_to_g1(Tensor.basis("0000"))  # degree 1, not degree 0
        with pytest.raises(ValueError):
            act_g0(IDENTITY, bad_h)


class TestPermutationAutomorphisms:
    def test_transpositions_on_u(self):
        u = u_basis()
        p23 = PermAuto((2, 3))
        assert p23(u[2]) == u[3]
        assert p23(u[3]) == u[2]
        assert p23(u[1]) == u[1]
        assert p23(u[0]) == u[0]
        p24 = PermAuto((2, 4))
        assert p24(u[1]) == u[3]
        assert p24(u[2]) == u[2]
        p34 = PermAuto((3, 4))
        assert p34(u[1]) == u[2]
        p12 = PermAuto((1, 2))
        assert p12(u[1]) == u[2]
        assert p12(u[0]) == u[0]

    def test_identity(self):
        rng = random.Random(43)
        t = random_tensor(rng)
        assert PermAuto()(t) == t
        assert PermAuto("id")(t) == t

    def test_three_cycle(self):
        u = u_basis()
        p = PermAuto((2, 3, 4))  # 2->3->4->2
        # composition of (2,3) then ... just check orbit on u2,u3,u4:
        images = [p(u[1]), p(u[2]), p(u[3])]
        assert set(images) == {u[1], u[2], u[3]}
        assert p(u[1]) != u[1]

    def test_inverse(self):
        rng = random.Random(47)
        p = PermAuto((1, 3, 2, 4))
        t = random_tensor(rng)
        assert p.inverse()(p(t)) == t

    def test_equivariance_with_group(self):
        rng = random.Random(53)
        p = PermAuto((2, 4))
        for _ in range(20):
            g = random_gelt(rng)
            t = random_tensor(rng)
            assert p(act_tensor(g, t)) == act_tensor(p.on_gelt(g), p(t))

    def test_preserves_bracket_grading(self):
        rng = random.Random(59)
        p = PermAuto((1, 2, 3, 4))  # 4-cycle in cycle notation? -> one-line id
        # one-line (1,2,3,4) is the identity permutation
        t = random_tensor(rng)
        assert p(t) == t

    def test_bad_permutation(self):
        with pytest.raises(ValueError):
            PermAuto((1, 1, 2, 3))
        with pytest.raises(ValueError):
            PermAuto((5,) * 4)
