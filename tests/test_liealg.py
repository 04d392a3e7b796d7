import hashlib
import json
import random
from itertools import combinations

import pytest

from artifact import _linalg as la
from artifact import liealg as L
from artifact.exactfield import IMAG, ONE, ZERO, CycNum, rat, random_cyc
from artifact.groupaction import I2, act_tensor
from artifact.liealg import (
    Tensor,
    ad_matrix,
    bracket,
    build_d4,
    centralizer_dim,
    derived_dim_of_centralizer,
    g0_to_quad_mats,
    g1_to_tensor,
    is_semisimple,
    quad_mats_to_g0,
    tensor,
    tensor_to_g1,
    u_basis,
    verify_built,
)

alg = build_d4()
u1, u2, u3, u4 = u_basis()


def rand_quad_mats(rng):
    mats = []
    for _ in range(4):
        a, b, c = (random_cyc(rng, 3, 2) for _ in range(3))
        mats.append([[b, a], [c, -b]])
    return mats


class TestConstruction:
    def test_dimension(self):
        assert alg.dimension == 28

    def test_grading_dims(self):
        assert (len(alg.g0_indices), len(alg.g1_indices)) == (12, 16)

    def test_positive_roots_with_odd_central_coefficient(self):
        odd = [
            g
            for g in alg.gamma_roots
            if g is not None and g[1] % 2 == 1 and sum(g) > 0
        ]
        assert len(odd) == 8

    def test_full_verification(self):
        rep = verify_built(alg)
        assert rep["jacobi_failures"] == 0
        assert rep["grading_failures"] == 0
        assert rep["grading_dims"] == (12, 16)
        assert rep["sl2_ideals_ok"]

    def test_highest_root(self):
        # gamma_0 = gamma_1 + 2*gamma_2 + gamma_3 + gamma_4 is a root
        assert (1, 2, 1, 1) in alg.gamma_roots

    def test_structure_constants_are_pinned(self):
        # SHA-256 as computed from dense 8x8 integer commutators; the sparse
        # construction must reproduce every constant and the tensor table
        data = ([[list(k), sorted(v.items())] for k, v in sorted(alg.struct.items())],
                alg.tensor_table)
        text = json.dumps(data, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e67b677425ab20610fc657fa4affca7f6893adbf2263b7bdd66e95c8b72c4392"
        )

    def test_structure_constants_check_their_input(self):
        probes, struct = L._structure_constants(alg._int_mats)
        assert struct == alg.struct and len(set(probes)) == 28
        # H1 without its second entry is not in so(8)
        off = list(alg._int_mats)
        off[0] = {(0, 0): 1}
        with pytest.raises(ArithmeticError, match="not in so\\(8\\)"):
            L._structure_constants(off)
        # H1 + H2 in place of H1: still in so(8), with distinct witness
        # entries, but [X(e1-e2), X(e2-e1)] = H1 - H2 is outside the span
        short = list(alg._int_mats)
        short[0] = {**alg._int_mats[0], **alg._int_mats[1]}
        with pytest.raises(ArithmeticError, match="leaves the basis span"):
            L._structure_constants(short)
        # 2·H1 is in so(8) but has no entry equal to 1 to read coordinates at
        doubled = list(alg._int_mats)
        doubled[0] = {p: 2 * v for p, v in alg._int_mats[0].items()}
        with pytest.raises(ArithmeticError, match="missing or not distinct"):
            L._structure_constants(doubled)


class TestBracket:
    def test_antisymmetry_on_self(self):
        x = tensor_to_g1(u1 + u2)
        assert L.lie_is_zero(bracket(x, x))

    def test_cartan_quadruple_commutes(self):
        us = [tensor_to_g1(u) for u in u_basis()]
        for a in us:
            for b in us:
                assert L.lie_is_zero(bracket(a, b))

    def test_jacobi_on_basis_triples(self):
        # the bracket is bilinear (below) and antisymmetric (above, and
        # TestBracketKernel on every basis pair), so Jacobi on every triple
        # of distinct basis elements gives it on all triples
        basis = [alg.basis_elt(i) for i in range(28)]
        assert all(L.lie_is_zero(bracket(e, e)) for e in basis)
        inner = {(a, b): bracket(basis[a], basis[b])
                 for a in range(28) for b in range(28) if a != b}
        for i, j, k in combinations(range(28), 3):
            terms = (bracket(basis[i], inner[j, k]), bracket(basis[j], inner[k, i]),
                     bracket(basis[k], inner[i, j]))
            assert L.lie_is_zero([a + b + c for a, b, c in zip(*terms)]), (i, j, k)

    def test_bracket_is_bilinear(self):
        # [c·x + x', y] = c·[x, y] + [x', y], and likewise in y, for seeded
        # Q(eta) scalars c and vectors
        rng = random.Random(11)
        for _ in range(40):
            x, x2, y = ([random_cyc(rng, 2, 1) for _ in range(28)] for _ in range(3))
            c = random_cyc(rng, 2, 1)
            combo = [c * a + b for a, b in zip(x, x2)]
            assert bracket(combo, y) == [
                c * a + b for a, b in zip(bracket(x, y), bracket(x2, y))]
            assert bracket(y, combo) == [
                c * a + b for a, b in zip(bracket(y, x), bracket(y, x2))]

    def test_ad_matrix_consistency(self):
        rng = random.Random(3)
        x = [random_cyc(rng, 2, 1) for _ in range(28)]
        y = [random_cyc(rng, 2, 1) for _ in range(28)]
        assert la.mat_vec(ad_matrix(x), y) == bracket(x, y)


def _bracket_reference(x, y):
    # the bracket one CycNum product and scaled sum at a time
    out = alg.zero()
    for i, ci in enumerate(x):
        for j, cj in enumerate(y):
            if not ci or not cj or i == j:
                continue
            if i < j:
                terms, c = alg.struct[(i, j)], ci * cj
            else:
                terms, c = alg.struct[(j, i)], -(ci * cj)
            for k, v in terms.items():
                out[k] = out[k] + c.scale(v)
    return out


def _random_entry(rng):
    # zero, a rational, a rational times a power of eta, or a general value,
    # with denominators up to 6
    kind = rng.randrange(4)
    q = rat(rng.randint(-6, 6), rng.randint(1, 6))
    if kind == 0:
        return ZERO
    if kind == 1:
        return q
    if kind == 2:
        return CycNum.eta_power(rng.randrange(16)) * q
    return random_cyc(rng, 4, 6)


class TestBracketKernel:
    def test_matches_the_field_loop(self):
        rng = random.Random(1901)
        for _ in range(60):
            x = [_random_entry(rng) for _ in range(28)]
            y = [_random_entry(rng) for _ in range(28)]
            assert bracket(x, y) == _bracket_reference(x, y)

    def test_basis_pairs_read_the_structure_constants(self):
        for i in range(28):
            for j in range(i + 1, 28):
                want = alg.zero()
                for k, v in alg.struct[(i, j)].items():
                    want[k] = rat(v)
                assert bracket(alg.basis_elt(i), alg.basis_elt(j)) == want
                assert bracket(alg.basis_elt(j), alg.basis_elt(i)) == [-c for c in want]


class TestSparseBracket:
    def test_matches_the_bracket_on_basis_pairs(self):
        # every ordered pair, i == j included
        for i in range(28):
            for j in range(28):
                got = L.sparse_bracket(alg.struct, {i: 1}, {j: 1})
                want = bracket(alg.basis_elt(i), alg.basis_elt(j))
                assert all(v for v in got.values()), (i, j)
                assert [rat(got.get(k, 0)) for k in range(28)] == want, (i, j)

    def test_is_bilinear_on_integer_vectors(self):
        rng = random.Random(23)
        for _ in range(20):
            x, y = ({k: rng.randint(-3, 3) for k in rng.sample(range(28), 5)}
                    for _ in range(2))
            got = L.sparse_bracket(alg.struct, x, y)
            want = bracket([rat(x.get(k, 0)) for k in range(28)],
                           [rat(y.get(k, 0)) for k in range(28)])
            assert [rat(got.get(k, 0)) for k in range(28)] == want


class TestTensorIso:
    def test_anchor(self):
        # e_0000 corresponds to the root vector of weight -gamma_2
        x = tensor_to_g1(Tensor.basis("0000"))
        nz = [alg.basis_names[k] for k, c in enumerate(x) if c]
        assert nz == ["X[0,-1,1,0]"]
        assert x[alg.index["X[0,-1,1,0]"]] == ONE

    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(20):
            t = Tensor([random_cyc(rng, 3, 2) for _ in range(16)])
            assert g1_to_tensor(tensor_to_g1(t)) == t

    def test_rejects_degree_zero_part(self):
        x = alg.basis_elt(0)  # a Cartan generator
        with pytest.raises(ValueError, match="not homogeneous of degree 1"):
            g1_to_tensor(x)

    def test_equivariance(self):
        rng = random.Random(12)
        for _ in range(100):
            mats = rand_quad_mats(rng)
            X = quad_mats_to_g0(mats)
            t = Tensor([random_cyc(rng, 2, 1) for _ in range(16)])
            # the Leibniz rule: the sum over slots of each matrix acting alone
            leibniz = Tensor.zero()
            for s, m in enumerate(mats):
                alone = [I2] * 4
                alone[s] = m
                leibniz = leibniz + act_tensor(tuple(alone), t)
            assert g1_to_tensor(bracket(X, tensor_to_g1(t))) == leibniz

    def test_g0_round_trip(self):
        rng = random.Random(5)
        for _ in range(10):
            mats = rand_quad_mats(rng)
            back = g0_to_quad_mats(quad_mats_to_g0(mats))
            assert back == mats

    def test_u1_commutes_after_transport(self):
        x1, x2 = tensor_to_g1(u1), tensor_to_g1(u2)
        assert L.lie_is_zero(bracket(x1, x2))


def is_ad_nilpotent(t: Tensor) -> bool:
    """Whether ad(t) is nilpotent: its minimal polynomial is a power of x."""
    mp = la.minimal_polynomial(ad_matrix(tensor_to_g1(t)))
    return all(not c for c in mp[:-1])


def assert_jordan_parts(t: Tensor, s: Tensor, n: Tensor) -> None:
    """(s, n) is the Jordan decomposition of t: the unique split into a
    semisimple and a nilpotent part that commute."""
    assert s + n == t
    assert is_semisimple(s)
    assert is_ad_nilpotent(n)
    assert L.lie_is_zero(bracket(tensor_to_g1(s), tensor_to_g1(n)))


class TestJordan:
    def test_semisimple_input(self):
        assert_jordan_parts(u1, u1, Tensor.zero())
        assert not is_ad_nilpotent(u1)

    def test_nilpotent_input(self):
        e = Tensor.basis("0000")
        assert_jordan_parts(e, Tensor.zero(), e)
        assert not is_semisimple(e)

    def test_mixed_input(self):
        x = u1 + u2 + u3 + Tensor.basis("0011")
        assert_jordan_parts(x, u1 + u2 + u3, Tensor.basis("0011"))
        assert not is_semisimple(x)
        assert not is_ad_nilpotent(x)

    def test_semisimple_ad_minpoly_squarefree(self):
        # full adjoint-level certificate on one designated Cartan sample
        rng = random.Random(23)
        s = Tensor.zero()
        for u in u_basis():
            s = s + u.scale(rat(rng.randint(-3, 3)))
        assert is_semisimple(s)
        ad_s = ad_matrix(tensor_to_g1(s))
        mp = la.minimal_polynomial(ad_s)
        assert la.poly_deg(la.poly_gcd(mp, la.poly_deriv(mp))) == 0


class _SpanReference:
    """Row space built up one vector at a time in field arithmetic, with
    membership testing: the elimination the Krylov search used to run on."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def reduce(self, v):
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, v):
        w = self.reduce(v)
        p = next(i for i, x in enumerate(w) if x)
        inv = w[p].inverse()
        w = [inv * x for x in w]
        for i, row in enumerate(self.rows):
            if row[p]:
                f = row[p]
                self.rows[i] = [x - f * y for x, y in zip(row, w)]
        self.rows.append(w)
        self.pivots.append(p)


def _minimal_polynomial_reference(a):
    # Krylov search on CycNum matrix powers, then one solve
    span = _SpanReference()
    powers = [[[ONE if r == c else ZERO for c in range(len(a))] for r in range(len(a))]]
    span.add([x for row in powers[0] for x in row])
    cur = powers[0]
    while True:
        cur = [la.mat_vec(la.transpose(a), row) for row in cur]
        flat = [x for row in cur for x in row]
        if not any(span.reduce(flat)):
            break
        span.add(flat)
        powers.append(cur)
    cols = la.transpose([[x for row in p for x in row] for p in powers])
    coeffs = la.solve(cols, [x for row in cur for x in row])
    return la.poly_trim([-c for c in coeffs] + [ONE])


def _conjugated(rng, m):
    # E·m·E^-1 for a product E of elementary matrices I + t·E_ij
    n = len(m)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        t = _random_entry(rng) or ONE
        m = [list(row) for row in m]
        for c in range(n):  # rows: r_i += t·r_j
            m[i][c] = m[i][c] + t * m[j][c]
        for r in range(n):  # columns: c_j -= t·c_i
            m[r][j] = m[r][j] - t * m[r][i]
    return m


def _test_matrices(rng):
    n = 8
    general = [[random_cyc(rng, 2, 3) for _ in range(n)] for _ in range(n)]
    mixed = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
    singular = [list(row) for row in mixed]
    singular[7] = [a + b.scale(-2) for a, b in zip(singular[1], singular[4])]
    upper = [[_random_entry(rng) if c > r else ZERO for c in range(n)] for r in range(n)]
    scalar = la.zeros(n, n)
    diag = la.zeros(n, n)
    for r, value in enumerate([1, 1, 2, 2, 2, -1, -1, 0]):
        scalar[r][r] = CycNum.eta_power(3) + rat(1, 2)
        diag[r][r] = CycNum.eta_power(value * 4) if value else ZERO
    return {
        "general": general,
        "mixed-denominator": mixed,
        "singular": singular,
        "nilpotent": _conjugated(rng, upper),
        "scalar": scalar,
        "repeated eigenvalues": _conjugated(rng, diag),
        "zero": la.zeros(n, n),
        "rational": [[rat(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                     for _ in range(n)],
    }


class TestMinimalPolynomialKernel:
    def test_matches_the_field_loop(self):
        rng = random.Random(1902)
        polys = {}
        for name, m in _test_matrices(rng).items():
            polys[name] = la.minimal_polynomial(m)
            assert polys[name] == _minimal_polynomial_reference(m), name
        assert len(polys["general"]) == len(polys["singular"]) == 9
        assert not polys["singular"][0]
        assert len(polys["nilpotent"]) == 7 and not any(polys["nilpotent"][:-1])
        assert len(polys["scalar"]) == 2
        assert polys["zero"] == [ZERO, ONE]
        # eigenvalues i, -1, -i and 0: x^4 + x^3 + x^2 + x
        assert polys["repeated eigenvalues"] == [ZERO, ONE, ONE, ONE, ONE]

    def test_matches_the_field_loop_on_an_adjoint_matrix(self):
        ad = ad_matrix(tensor_to_g1(u1 + u2 + u3 + Tensor.basis("0011")))
        assert la.minimal_polynomial(ad) == _minimal_polynomial_reference(ad)


class TestCommutingSemisimple:
    def test_cartan_quadruple(self):
        us = [u1, u2, u3, u4]
        assert all(is_semisimple(u) for u in us)
        for a, b in combinations(us, 2):
            assert L.lie_is_zero(bracket(tensor_to_g1(a), tensor_to_g1(b)))

    def test_nilpotent_member(self):
        e = Tensor.basis("0000")
        assert not is_semisimple(e)

    def test_non_commuting_pair(self):
        v1 = Tensor.basis("0000") - Tensor.basis("1111")
        assert is_semisimple(u1) and is_semisimple(v1)
        assert not L.lie_is_zero(bracket(tensor_to_g1(u1), tensor_to_g1(v1)))


class TestCentralizers:
    def test_generic_point(self):
        p = (
            u1.scale(rat(7))
            + u2.scale(rat(3))
            + u3.scale(rat(2))
            + u4.scale(rat(1))
        )
        assert centralizer_dim(p) == 4

    def test_wall_points(self):
        assert centralizer_dim(u1 + u2 + u3) == 6
        assert centralizer_dim(u1) == 10

    def test_component_dim_profile(self):
        # 4 + number of roots vanishing on each reference point
        cases = [
            ((7, 3, 2, 1), 4 + 0),
            ((1, 1, 1, 0), 4 + 2),  # lambda1 = lambda2 + lambda3, lambda4 = 0
            ((3, -1, -2, 0), 4 + 6),  # two-parameter wall, type A2
            ((2, 0, 0, 1), 4 + 4),
            ((1, 0, 0, -1), 4 + 12),
            ((1, 0, 0, 0), 4 + 6),
            ((0, 0, 0, 0), 4 + 24),
        ]
        for lam, want in cases:
            p = Tensor.zero()
            for c, u in zip(lam, u_basis()):
                p = p + u.scale(rat(c))
            assert centralizer_dim(p) == want, (lam, want)

    def test_derived_dim_separates_walls(self):
        p3 = (u1 - u2) + (u1 - u3).scale(rat(2))
        assert centralizer_dim(p3) == 10
        assert centralizer_dim(u1) == 10
        assert derived_dim_of_centralizer(p3) == 8  # sl3
        assert derived_dim_of_centralizer(u1) == 9  # sl2 x sl2 x sl2

    def test_g1_centralizer_of_wall_point(self):
        # U = {y in g1 : [x, y] = 0} is the kernel of y -> [x, y] on g1
        x = tensor_to_g1(u1 + u2 + u3)
        images = [bracket(x, tensor_to_g1(Tensor.basis(t))) for t in range(16)]
        assert 16 - la.rank(images) == 5
        # the four Cartan directions and e_0011 lie in U and span it
        span = [Tensor.basis("0011"), *u_basis()]
        for y in span:
            assert L.lie_is_zero(bracket(x, tensor_to_g1(y)))
        assert la.rank([list(y.c) for y in span]) == 5


class TestTensorJson:
    def test_round_trip(self):
        t = tensor({"0000": 1, "1111": "1/2", "0101": IMAG})
        assert Tensor.from_json(t.to_json()) == t

    def test_omitted_keys_are_zero(self):
        t = Tensor.from_json('{"coeffs": {"0000": "1"}}')
        assert t == Tensor.basis("0000")

    def test_malformed(self):
        with pytest.raises(ValueError):
            Tensor.from_json('{"nope": {}}')
        with pytest.raises(ValueError):
            Tensor.from_json('{"coeffs": {"00a0": "1"}}')
