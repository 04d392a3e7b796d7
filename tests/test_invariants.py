"""Tests for the polynomial invariants and the separation oracle."""

import random
from functools import cache

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from artifact import _linalg as la
from artifact import cartanweyl as cw
from artifact import groupaction as ga
from artifact import invariants as inv
from artifact.exactfield import CycNum, ONE, ZERO, common_numerators, random_cyc, rat
from artifact.liealg import Tensor, bracket, build_d4, g1_to_tensor, tensor_to_g1


def _det(a):
    """The determinant from :func:`_linalg.det_numerators` on the entries'
    numerators over their common denominator D, divided by D^n."""
    n = len(a)
    nums, den = common_numerators(x for row in a for x in row)
    out = la.det_numerators([nums[r * n:(r + 1) * n] for r in range(n)])
    return ZERO if out is None else CycNum.from_numerators(out, den ** n)


def _gauss_det(a):
    """Determinant by Gaussian elimination over Q(η), the reference for _det."""
    m = [list(row) for row in a]
    n = len(m)
    out = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out = out * m[c][c]
        inv_pivot = m[c][c].inverse()
        for i in range(c + 1, n):
            f = m[i][c] * inv_pivot
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


# entries of Q(η) with small rational coordinates, zero about a third of the
# time, as in the sparse flattenings of diagonalizable tensors
_entries = st.one_of(
    st.just(ZERO),
    st.builds(CycNum, st.lists(st.fractions(-6, 6, max_denominator=4),
                               min_size=8, max_size=8)),
)
_matrices = st.lists(st.lists(_entries, min_size=4, max_size=4), min_size=4, max_size=4)


def lam(*values) -> list[CycNum]:
    return [rat(v) for v in values]


def random_mat2(rng) -> ga.Mat2:
    """Random rational unimodular 2×2 matrix (product of shears)."""
    m = ga.I2
    for _ in range(rng.randint(1, 4)):
        s = rat(rng.randint(-3, 3), rng.randint(1, 3))
        if rng.random() < 0.5:
            shear = ga.mat2(1, s, 0, 1)
        else:
            shear = ga.mat2(1, 0, s, 1)
        m = ga.m2_mul(m, shear)
    return m


def random_gelt(rng) -> ga.GElt:
    return ga.gelt(*(random_mat2(rng) for _ in range(4)))


def random_tensor(rng) -> Tensor:
    return Tensor(
        [rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(16)]
    )


@cache
def _coefficient_table():
    # the coefficients c_ij (i ≤ j) of quadratic, read off by polarization:
    # c_ii = H(e_i), c_ij = H(e_i + e_j) - H(e_i) - H(e_j)
    e = [Tensor.basis(i) for i in range(16)]
    diag = [inv.quadratic(x) for x in e]
    table = {}
    for i in range(16):
        for j in range(i, 16):
            c = diag[i] if i == j else inv.quadratic(e[i] + e[j]) - diag[i] - diag[j]
            if c:
                table[(i, j)] = c
    return table


def _dense_quadratic(t):
    # the sum over all 136 monomials t_i·t_j (i ≤ j), one CycNum product at a time
    table = _coefficient_table()
    total = ZERO
    for i in range(16):
        for j in range(i, 16):
            c = table.get((i, j), ZERO)
            total = total + c * t.c[i] * t.c[j]
    return total


def _pairing_matrix(table):
    # the symmetric S with tᵀ·S·t = 2·H(t)
    s = [[ZERO] * 16 for _ in range(16)]
    for (i, j), c in table.items():
        s[i][j] = s[i][j] + c
        s[j][i] = s[j][i] + c
    return s


@cache
def _g0_action_matrices():
    # for each basis element X of the degree-zero part, the matrix of
    # t ↦ [X, t] on tensor coordinates: column j is [X, e_j]
    alg = build_d4()
    out = []
    for k in alg.g0_indices:
        x = alg.basis_elt(k)
        cols = [g1_to_tensor(bracket(x, tensor_to_g1(Tensor.basis(j)))).c for j in range(16)]
        out.append(la.transpose(cols))
    return out


def _invariance_defects(s):
    # the nonzero entries of MᵀS + SM over the degree-zero generators M;
    # none exactly when every generator annihilates the form tᵀ·S·t
    count = 0
    for m in _g0_action_matrices():
        left = [la.mat_vec(la.transpose(s), col) for col in la.transpose(m)]
        right = la.transpose([la.mat_vec(s, col) for col in la.transpose(m)])
        count += sum(1 for ra, rb in zip(left, right) for x, y in zip(ra, rb) if x + y)
    return count


class TestQuadratic:
    @seed(1503)
    @settings(max_examples=20, deadline=None)
    @given(st.lists(_entries, min_size=16, max_size=16))
    def test_matches_the_dense_sum(self, entries):
        t = Tensor(entries)
        assert inv.quadratic(t) == _dense_quadratic(t)
        assert inv.quadratic(Tensor.zero()) == ZERO

    def test_coefficient_table_is_the_complement_pairing(self):
        table = _coefficient_table()
        assert len(table) == 8
        for i in range(8):
            sign = -1 if bin(i).count("1") % 2 else 1
            assert table[(i, 15 - i)] == rat(sign)

    def test_annihilated_by_the_degree_zero_part(self):
        table = _coefficient_table()
        assert len(_g0_action_matrices()) == 12
        assert _invariance_defects(_pairing_matrix(table)) == 0
        # negative control: one pairing sign flipped breaks the invariance
        flipped = dict(table)
        flipped[(0, 15)] = -flipped[(0, 15)]
        assert _invariance_defects(_pairing_matrix(flipped)) == 16

    def test_normalization_value(self):
        u1 = cw.parametrize(1, lam(1, 0, 0, 0))
        assert inv.quadratic(u1) == ONE

    def test_rank_one_tensor_vanishes(self):
        assert inv.quadratic(Tensor.basis(0)) == ZERO

    def test_value_on_diagonal_family_is_sum_of_squares(self):
        p = cw.parametrize(1, lam(7, 3, 2, 1))
        assert inv.quadratic(p) == rat(49 + 9 + 4 + 1)

    def test_invariance_under_fifty_random_group_elements(self):
        rng = random.Random(7)
        t = random_tensor(rng)
        h = inv.quadratic(t)
        for _ in range(50):
            g = random_gelt(rng)
            assert inv.quadratic(ga.act_tensor(g, t)) == h

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-5, 5), st.integers(1, 4))
    def test_homogeneity_degree_two(self, num, den):
        rng = random.Random(99)
        t = random_tensor(rng)
        c = rat(num, den)
        assert inv.quadratic(t.scale(c)) == c * c * inv.quadratic(t)


class TestFlattenings:
    def test_rank_one_flattening_vanishes(self):
        for pairing in inv.PAIRINGS:
            assert inv.flattening_det(Tensor.basis(0), pairing) == ZERO

    def test_product_tensor_flattening_vanishes(self):
        rng = random.Random(3)
        # a pure product tensor has rank-1 flattenings in every pairing
        vecs = [(rat(rng.randint(-3, 3)), rat(rng.randint(-3, 3))) for _ in range(4)]
        cs = []
        for idx in range(16):
            v = ONE
            for s in range(4):
                bit = (idx >> (3 - s)) & 1
                v = v * vecs[s][bit]
            cs.append(v)
        t = Tensor(cs)
        for pairing in inv.PAIRINGS:
            assert inv.flattening_det(t, pairing) == ZERO

    def test_flattening_matrix_is_the_reshape(self):
        # the entry of t at bits (b1, b2, b3, b4) sits at row 2·b_a + b_b and
        # column 2·b_c + b_d of the pairing ab|cd, slot 1 the leading bit
        rng = random.Random(34)
        t = Tensor([CycNum(tuple(rng.randint(-5, 5) for _ in range(8)), rng.randint(1, 4))
                    for _ in range(16)])
        for pairing in inv.PAIRINGS:
            a, b, c, d = (int(ch) - 1 for ch in pairing.replace("|", ""))
            mat = inv.flattening_matrix(t.c, pairing)
            for idx in range(16):
                bits = [int(ch) for ch in format(idx, "04b")]
                assert mat[2 * bits[a] + bits[b]][2 * bits[c] + bits[d]] == t.c[idx]

    def test_degenerate_diagonal_family_values(self):
        p = cw.parametrize(1, lam(2, 1, 1, 1))
        values = [inv.flattening_det(p, pr) for pr in inv.PAIRINGS]
        assert values == [ZERO, ZERO, ZERO]

    def test_generic_diagonal_family_values(self):
        p = cw.parametrize(1, lam(7, 3, 2, 1))
        assert inv.flattening_det(p, "12|34") == rat(-240)
        assert inv.flattening_det(p, "13|24") == rat(-360)
        assert inv.flattening_det(p, "14|23") == rat(-120)

    def test_diagonal_family_factorization(self):
        # on the diagonal family the three flattenings factor as
        # (λ1²−λk²)(λm²−λl²); checked for a second parameter choice
        a, b, c, d = 5, 4, 2, 1
        p = cw.parametrize(1, lam(a, b, c, d))
        assert inv.flattening_det(p, "12|34") == rat((a * a - d * d) * (c * c - b * b))
        assert inv.flattening_det(p, "13|24") == rat((a * a - c * c) * (d * d - b * b))
        assert inv.flattening_det(p, "14|23") == rat((a * a - b * b) * (d * d - c * c))

    def test_invariance_under_fifty_random_group_elements(self):
        rng = random.Random(11)
        t = random_tensor(rng)
        base = [inv.flattening_det(t, pr) for pr in inv.PAIRINGS]
        for _ in range(50):
            g = random_gelt(rng)
            moved = ga.act_tensor(g, t)
            assert [inv.flattening_det(moved, pr) for pr in inv.PAIRINGS] == base

    def test_homogeneity_degree_four(self):
        rng = random.Random(13)
        t = random_tensor(rng)
        c = rat(3, 2)
        scale = c ** 4
        for pr in inv.PAIRINGS:
            assert inv.flattening_det(t.scale(c), pr) == scale * inv.flattening_det(t, pr)

    def test_unknown_pairing_rejected(self):
        with pytest.raises(ValueError, match="unknown pairing"):
            inv.flattening_det(Tensor.basis(0), "12|43")


def _laplace_det(a):
    # the division-free Laplace expansion one CycNum product and sum at a time
    if len(a) == 1:
        return a[0][0]
    out = ZERO
    for j, x in enumerate(a[0]):
        if x:
            term = x * _laplace_det([row[:j] + row[j + 1:] for row in a[1:]])
            out = out - term if j % 2 else out + term
    return out


_square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n))


class TestDeterminant:
    @seed(1502)
    @settings(max_examples=40, deadline=None)
    @given(_square_matrices)
    def test_matches_the_field_loop(self, m):
        assert _det(m) == _laplace_det(m)

    @settings(max_examples=30, deadline=None)
    @given(_matrices, st.integers(0, 3), st.integers(1, 3), _entries)
    def test_matches_gaussian_elimination(self, m, i, shift, c):
        d = _det(m)
        assert d == _gauss_det(m)
        # swapping two rows negates the determinant
        j = (i + shift) % 4
        swapped = [list(row) for row in m]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert _det(swapped) == -d == _gauss_det(swapped)
        # row i replaced by a combination of two other rows: singular
        k = min({0, 1, 2, 3} - {i, j})
        singular = [list(row) for row in m]
        singular[i] = [c * x + y for x, y in zip(m[j], m[k])]
        assert _det(singular) == ZERO == _gauss_det(singular)


class TestSeparation:
    def test_never_separates_conjugates(self):
        rng = random.Random(17)
        t = random_tensor(rng)
        for g in [ga.IDENTITY] + [random_gelt(rng) for _ in range(10)]:
            assert inv.invariants_of(ga.act_tensor(g, t)) == inv.invariants_of(t)

    def test_separates_scaled_state(self):
        u1 = cw.parametrize(1, lam(1, 0, 0, 0))
        assert inv.invariants_of(u1) != inv.invariants_of(u1.scale(rat(2)))

    def test_does_not_separate_itself(self):
        rng = random.Random(19)
        t = random_tensor(rng)
        assert inv.invariants_of(Tensor(t.c)) == inv.invariants_of(t)

    def test_separates_distinct_diagonal_families(self):
        p = cw.parametrize(1, lam(7, 3, 2, 1))
        q = cw.parametrize(1, lam(7, 3, 1, 2))
        # same H, different flattening pattern
        assert inv.quadratic(p) == inv.quadratic(q)
        assert inv.invariants_of(p) != inv.invariants_of(q)

    def test_one_pass_matches_each_invariant(self):
        # invariants_of reads t's numerators once for all four values; the
        # reference takes H and the field Laplace expansion of each
        # flattening on its own, on the zero tensor, a basis tensor, a
        # canonical element and seeded tensors from sparse to dense with
        # unlike denominators
        rng = random.Random(2701)
        tensors = [Tensor.zero(), Tensor.basis(5, rat(3, 2)), cw.parametrize(1, lam(7, 3, 2, 1))]
        for _ in range(40):
            zeros = rng.randrange(17)
            entries = [random_cyc(rng, 5, 4) for _ in range(16)]
            for pos in rng.sample(range(16), zeros):
                entries[pos] = ZERO
            tensors.append(Tensor(entries))
        for t in tensors:
            want = inv.InvariantVector(
                inv.quadratic(t),
                *(_laplace_det(inv.flattening_matrix(t.c, pr)) for pr in inv.PAIRINGS))
            assert inv.invariants_of(t) == want, t
        assert inv.invariants_of(Tensor.zero()) == inv.InvariantVector(ZERO, ZERO, ZERO, ZERO)

    def test_invariant_vector_serialization(self):
        p = cw.parametrize(1, lam(2, 1, 1, 1))
        d = inv.invariants_of(p).as_dict()
        assert d == {"H": "7", "L12": "0", "L13": "0", "L14": "0"}
