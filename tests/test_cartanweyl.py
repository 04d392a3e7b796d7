"""Tests for restricted roots, Weyl group, subsystems, and real Cartan bases."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from artifact.cartanweyl import (
    W_IDENTITY,
    basis_coords,
    cartan_is_semisimple,
    component_membership,
    containing_bases,
    from_basis_coords,
    gamma_group,
    gamma_h1,
    h_action_matrix,
    member_roots,
    parametrize,
    restricted_roots,
    seven_cartans,
    subsystem,
    vanishing_roots,
    w_act_coords,
    w_pi_group,
    weyl_group,
    weyl_index,
    weyl_table,
    wmat,
)
from artifact.exactfield import IMAG, ONE, ZERO, CycNum, random_cyc, rat
from artifact.groupaction import (
    act_tensor,
    conj_g,
    g_inv,
    g_mul,
    gelt,
    gelt_from_names,
    m2_neg,
    mat2,
    named,
)
from artifact.liealg import (
    Tensor,
    bracket,
    g1_to_tensor,
    is_semisimple,
    lie_is_zero,
    sparse_bracket,
    tensor_to_g1,
    u_basis,
)
from artifact import _linalg as la
from artifact import cartanweyl as cw
from artifact.liealg import ad_matrix, build_d4


def _eigenspace(mat, vectors, ev):
    """Basis of the ev-eigenspace of mat restricted to span(vectors)."""
    n = len(vectors[0])
    shifted = [row[:] for row in mat]
    for i in range(n):
        shifted[i][i] = shifted[i][i] + rat(-ev)
    out = []
    for coeffs in la.nullspace(la.transpose([la.mat_vec(shifted, v) for v in vectors])):
        vec = [ZERO] * n
        for j, cf in enumerate(coeffs):
            if cf:
                for i in range(n):
                    vec[i] = vec[i] + cf * vectors[j][i]
        out.append(vec)
    return out


def _derived_root_vectors():
    """The joint eigenspace decomposition of ad(u_1..u_4), derived exactly.

    Each root vector is normalized to lead with 1; the reference for the
    stored root table.
    """
    alg = build_d4()
    ads = [ad_matrix(tensor_to_g1(uk)) for uk in u_basis()]
    spaces = [((), [list(alg.basis_elt(k)) for k in range(28)])]
    for level in range(4):
        spaces = [
            (tag + (ev,), sub)
            for tag, vecs in spaces
            for ev in (-2, -1, 0, 1, 2)
            for sub in [_eigenspace(ads[level], vecs, ev)]
            if sub
        ]
    dims = {tag: len(vecs) for tag, vecs in spaces}
    assert dims.pop((0, 0, 0, 0)) == 4
    assert len(dims) == 24 and set(dims.values()) == {1}
    roots = {}
    for tag, vecs in spaces:
        if any(tag):
            inv = next(c for c in vecs[0] if c).inverse()
            roots[tag] = [inv * c for c in vecs[0]]
    return roots


def _product(a, b):
    """The matrix product a·b, entry by entry (Fractions or integers)."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def _doubled(w):
    """2·w as integers; w must lie on the half lattice."""
    out = tuple(tuple(2 * x for x in row) for row in w)
    assert all(x.denominator == 1 for row in out for x in row)
    return tuple(tuple(int(x) for x in row) for row in out)


def _scaled(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def _after(coeffs, w):
    """The functional alpha∘w: the row vector of alpha times w."""
    return tuple(sum(Fraction(c) * w[k][j] for k, c in enumerate(coeffs)) for j in range(4))


def _reflection(root):
    """s_alpha(h) = h - alpha(h)·h_alpha as a matrix in u-coordinates."""
    return tuple(
        tuple(Fraction(int(r == c)) - root.h_alpha[r] * root.coeffs[c] for c in range(4))
        for r in range(4)
    )


def _table_reflections():
    """The reflection of each restricted root, in order, read from W's table."""
    group = weyl_group()
    return [group[n] for n in weyl_table().reflections]


def _reflection_permutations_of(monkeypatch, roots):
    """The reflection permutations computed afresh from ``roots``."""
    monkeypatch.setattr(cw, "restricted_roots", lambda: roots)
    return cw._reflection_permutations.__wrapped__()


def _with_coroot(roots, a, h_alpha):
    """``roots`` with the coroot of the a-th replaced by ``h_alpha``."""
    return roots[:a] + (replace(roots[a], h_alpha=h_alpha),) + roots[a + 1:]


def _value_at(root, coords):
    # the root's value at u-coordinates, evaluated one coordinate at a time
    out = ZERO
    for c, x in zip(root.coeffs, coords):
        if c:
            out = out + x.scale(c)
    return out


class TestRestrictedRoots:
    def test_stored_roots_match_the_eigenspace_derivation(self):
        stored = {r.coeffs: list(r.vector) for r in restricted_roots()}
        assert stored == _derived_root_vectors()

    def test_integer_brackets_match_the_field_brackets(self):
        # the sparse integer bracket the root check runs, against bracket on
        # the stored vectors and u_1..u_4 as field elements
        alg = build_d4()
        us = [tensor_to_g1(uk) for uk in u_basis()]
        for r in restricted_roots():
            v = {k: c.to_fraction() for k, c in enumerate(r.vector) if c}
            assert set(v.values()) <= {1, -1}
            for uk, a in zip(us, r.coeffs):
                sparse_uk = {k: c.to_fraction() for k, c in enumerate(uk) if c}
                got = sparse_bracket(alg.struct, sparse_uk, v)
                assert [rat(got.get(k, 0)) for k in range(28)] == bracket(uk, list(r.vector))
                assert got == {k: a * x for k, x in v.items() if a}, r.coeffs

    def test_a_flipped_sign_is_rejected(self):
        table = list(cw._ROOTS)
        cw._checked_root_vectors(table)
        for idx, (tag, pattern) in enumerate(table):
            pos = pattern.rindex("+" if idx % 2 else "-")
            flipped = pattern[:pos] + ("-" if idx % 2 else "+") + pattern[pos + 1:]
            bad = table[:idx] + [(tag, flipped)] + table[idx + 1:]
            with pytest.raises(ArithmeticError, match="not a root vector"):
                cw._checked_root_vectors(bad)

    def test_non_commuting_u_data_is_rejected(self, monkeypatch):
        # u_2 = e_0001 + e_0010 does not commute with u_1, u_3 or u_4
        pairs = (cw._U_PAIRS[0], (1, 2)) + cw._U_PAIRS[2:]
        monkeypatch.setattr(cw, "_U_PAIRS", pairs)
        with pytest.raises(ArithmeticError, match="do not commute"):
            cw._checked_root_vectors(cw._ROOTS)

    def test_count(self):
        assert len(restricted_roots()) == 24

    def test_shapes(self):
        doubled = [r for r in restricted_roots() if sorted(map(abs, r.coeffs)) == [0, 0, 0, 2]]
        mixed = [r for r in restricted_roots() if sorted(map(abs, r.coeffs)) == [1, 1, 1, 1]]
        assert len(doubled) == 8
        assert len(mixed) == 16

    def test_coroot_pairing(self):
        for r in restricted_roots():
            val = sum(Fraction(c) * h for c, h in zip(r.coeffs, r.h_alpha))
            assert val == 2

    def test_coroots_match_the_algebra(self):
        # [v_alpha, v_-alpha] is a nonzero rational multiple of h_alpha
        vectors = {r.coeffs: list(r.vector) for r in restricted_roots()}
        for r in restricted_roots():
            neg = vectors[tuple(-c for c in r.coeffs)]
            br = g1_to_tensor(bracket(list(r.vector), neg))
            h = from_basis_coords(1, [rat(x) for x in r.h_alpha])
            lead = next(p for p in range(16) if h.c[p])
            c = br.c[lead] / h.c[lead]
            assert c and c.is_rational(), r.coeffs
            assert h.scale(c) == br, r.coeffs

    def test_roots_come_in_pairs(self):
        keys = {r.coeffs for r in restricted_roots()}
        for k in keys:
            assert tuple(-c for c in k) in keys
        # vanishing_roots evaluates the first half and negates it
        roots = restricted_roots()
        for a in range(24):
            assert roots[23 - a].coeffs == tuple(-c for c in roots[a].coeffs)

    def test_vanishing_roots_match_every_evaluation(self):
        # points of every family, walls included, and one with complex coordinates
        rng = random.Random(21)
        points = [(rat(2), IMAG, IMAG, ZERO)]
        for i in range(1, 12):
            for _ in range(3):
                lams = [rat(rng.randint(-3, 3)) for _ in range(subsystem(i).param_count)]
                points.append(basis_coords(1, parametrize(i, lams)))
        # mixed denominators, and irrational coordinates
        points.append((rat(1, 2), rat(1, 3), rat(5, 6), rat(-7, 4)))
        points.append((rat(1, 2), rat(1, 3), rat(5, 6), ZERO))
        # (1 + η², 1, η², 0): on (1, -1, -1, ±1) both parts cancel, on
        # (1, -1, 0, 0) only the rational part
        points.append((CycNum((1, 0, 1, 0, 0, 0, 0, 0)), rat(1),
                       CycNum((0, 0, 1, 0, 0, 0, 0, 0)), ZERO))
        for coords in points:
            assert vanishing_roots(coords) == frozenset(
                r.coeffs for r in restricted_roots() if not _value_at(r, coords))

    def test_value_at(self):
        lam = [rat(7), rat(3), rat(2), rat(1)]
        vals = {_value_at(r, lam).to_fraction() for r in restricted_roots()}
        assert ZERO.to_fraction() not in vals
        assert vanishing_roots(lam) == frozenset()


class TestWeylGroup:
    def test_order(self):
        assert len(weyl_group()) == 192

    def test_reflections_are_involutions(self):
        table = weyl_table()
        for r, n in zip(restricted_roots(), table.reflections):
            s = _reflection(r)
            assert _product(s, s) == W_IDENTITY
            assert weyl_index(s) == n
            assert table.mul[n][n] == table.identity

    def test_closed_under_composition(self):
        rng = random.Random(5)
        group = set(weyl_group())
        glist = sorted(group)
        for _ in range(50):
            a, b = rng.choice(glist), rng.choice(glist)
            assert _product(a, b) in group

    def test_permutes_roots(self):
        rng = random.Random(9)
        keys = {r.coeffs for r in restricted_roots()}
        for _ in range(10):
            w = rng.choice(weyl_group())
            assert {_after(k, w) for k in keys} == keys

    def test_index_is_the_position_in_weyl_group(self):
        group, table = weyl_group(), weyl_table()
        assert [weyl_index(w) for w in group] == list(range(192))
        assert group[table.identity] == W_IDENTITY
        assert list(group) == sorted(group)

    def test_order_is_checked(self, monkeypatch):
        # the eight doubled roots alone generate only the 16 sign changes
        import artifact.cartanweyl as cw

        doubled = tuple(
            r for r in restricted_roots() if sorted(map(abs, r.coeffs)) == [0, 0, 0, 2]
        )
        monkeypatch.setattr(cw, "restricted_roots", lambda: doubled)
        monkeypatch.setattr(cw, "_reflection_permutations",
                            cw._reflection_permutations.__wrapped__)
        with pytest.raises(ArithmeticError, match="short"):
            cw.root_permutations.__wrapped__()

    def test_product_table_matches_fraction_product(self):
        # on the doubled matrices, integer by the half lattice: (2a)·(2b) = 4·ab
        group, table = weyl_group(), weyl_table()
        doubled = [_doubled(w) for w in group]
        reflections = [_doubled(s) for s in _table_reflections()]
        for a, w in enumerate(doubled):
            for n, s in zip(table.reflections, reflections):
                assert _scaled(doubled[table.mul[a][n]], 2) == _product(w, s)
                assert _scaled(doubled[table.mul[n][a]], 2) == _product(s, w)

    # a matrix off the half lattice, or outside W, has no index, and a
    # coroot off the half lattice has no root permutation; the product of
    # W's elements is a table lookup
    @pytest.mark.parametrize("entry", [Fraction(1, 4), Fraction(1, 3)])
    def test_w_mul_rejects_entries_off_the_half_lattice(self, entry, monkeypatch):
        bad = wmat([[entry, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(ArithmeticError):
            weyl_index(bad)
        # the root (2, 0, 0, 0) with coroot (entry, 0, 0, 0)
        roots = _with_coroot(restricted_roots(), 23, (entry, 0, 0, 0))
        with pytest.raises(ArithmeticError):
            _reflection_permutations_of(monkeypatch, roots)

    def test_w_mul_rejects_a_product_off_the_half_lattice(self):
        # the first column of the product is 1/4
        half = wmat([[Fraction(1, 2), 0, 0, 0]] * 4)
        with pytest.raises(ArithmeticError):
            weyl_index(half)
        with pytest.raises(ArithmeticError):
            weyl_index(_product(half, half))

    def test_inverse_table_matches_gauss_jordan(self):
        group, table = weyl_group(), weyl_table()
        for a, w in enumerate(group):
            inverse = group[table.inv[a]]
            assert inverse == _winv(w)
            assert inverse == tuple(zip(*w))
            assert table.mul[a][table.inv[a]] == table.identity

    def test_w_inv_rejects_a_matrix_that_is_not_orthogonal(self):
        with pytest.raises(ArithmeticError):
            weyl_index(wmat([[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        with pytest.raises(ArithmeticError):
            weyl_index(wmat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        with pytest.raises(ArithmeticError):
            weyl_index(None)

    def test_root_permutations_are_a_homomorphism_into_root_bijections(self):
        group = weyl_group()
        perms = cw.root_permutations()
        coeffs = [r.coeffs for r in restricted_roots()]
        assert len(perms) == 192
        assert perms[group.index(W_IDENTITY)] == tuple(range(24))
        for w, perm in zip(group, perms):
            assert sorted(perm) == list(range(24))
            # entry a is the index of alpha_a∘w⁻¹, the root whose composite
            # with w is alpha_a
            assert [_after(coeffs[b], w) for b in perm] == coeffs
        position = {w: n for n, w in enumerate(group)}
        reflections = _table_reflections()
        for w, perm in zip(group, perms):
            for s in reflections:
                s_perm = perms[position[s]]
                composed = tuple(perm[s_perm[a]] for a in range(24))
                assert perms[position[_product(w, s)]] == composed

    def test_root_permutation_rejects_a_matrix_outside_w(self, monkeypatch):
        shear = wmat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [Fraction(1, 2), 0, 0, 1]])
        double = wmat([[2 * int(r == c) for c in range(4)] for r in range(4)])
        for w in (shear, double):
            with pytest.raises(ArithmeticError, match="not in the Weyl group"):
                weyl_index(w)
        roots = restricted_roots()
        assert roots[22].coeffs == (1, 1, 1, 1) and roots[23].coeffs == (2, 0, 0, 0)
        # the coroot (1/4, 1/4, 1/4, 1/4) pairs with (2, 0, 0, 0) to 1/2
        quarter = (Fraction(1, 4),) * 4
        with pytest.raises(ArithmeticError, match="not integral"):
            _reflection_permutations_of(monkeypatch, _with_coroot(roots, 22, quarter))
        # with the coroot of (0, 2, 0, 0), the root (0, 2, 0, 0) goes to
        # (0, 2, 0, 0) - 2·(2, 0, 0, 0)
        with pytest.raises(ArithmeticError, match="not a root"):
            _reflection_permutations_of(monkeypatch, _with_coroot(roots, 23, roots[14].h_alpha))

    def test_a_doubled_coroot_is_rejected(self, monkeypatch):
        # 2·h_alpha pairs with alpha to 4, so alpha goes to -3·alpha
        roots = restricted_roots()
        for a, r in enumerate(roots):
            doubled = tuple(2 * h for h in r.h_alpha)
            with pytest.raises(ArithmeticError, match="not a root"):
                _reflection_permutations_of(monkeypatch, _with_coroot(roots, a, doubled))

    def test_generic_stabilizer_trivial(self):
        lam = (rat(7), rat(3), rat(2), rat(1))
        assert [w for w in weyl_group() if w_act_coords(w, lam) == lam] == [W_IDENTITY]

    def test_reflection_action(self):
        # the reflection for a doubled root flips one u-coordinate
        a = next(a for a, x in enumerate(restricted_roots()) if x.coeffs == (2, 0, 0, 0))
        s = _table_reflections()[a]
        lam = [rat(5), rat(3), rat(2), rat(1)]
        assert [v.to_fraction() for v in w_act_coords(s, lam)] == [-5, 3, 2, 1]

    def test_w_act_coords_matches_the_field_formula(self):
        # the integer action against sum_j w[i][j]·coords[j] in the field, on
        # every element of W at seeded coordinates with unlike denominators,
        # one of them zero
        rng = random.Random(24)
        for w in weyl_group():
            coords = [random_cyc(rng) for _ in range(4)]
            coords[rng.randrange(4)] = ZERO
            expected = tuple(sum((c.scale(f) for f, c in zip(row, coords)), ZERO)
                             for row in w)
            assert w_act_coords(w, coords) == expected


class TestSubsystems:
    def test_member_counts(self):
        sizes = [len(member_roots(i)) for i in range(1, 12)]
        assert sizes == [0, 2, 6, 4, 4, 4, 12, 12, 12, 6, 24]

    def test_membership_examples(self):
        u = u_basis()
        assert component_membership(u[0]) == 10
        assert component_membership(u[0] + u[1] + u[2]) == 2
        assert component_membership(Tensor.zero()) == 11
        p = from_basis_coords(1, [rat(7), rat(3), rat(2), rat(1)])
        assert component_membership(p) == 1

    def test_membership_all_families(self):
        expects = {
            1: [rat(7), rat(3), rat(2), rat(1)],
            2: [rat(1), rat(1), rat(1)],
            3: [rat(1), rat(1)],
            4: [rat(3), rat(1)],
            5: [rat(3), rat(1)],
            6: [rat(3), rat(1)],
            7: [rat(1)],
            8: [rat(1)],
            9: [rat(1)],
            10: [rat(1)],
            11: [],
        }
        for i, lam in expects.items():
            p = parametrize(i, lam)
            assert component_membership(p) == i, i

    def test_membership_after_weyl_move(self):
        rng = random.Random(3)
        p = parametrize(4, [rat(3), rat(1)])
        coords = basis_coords(1, p)
        for _ in range(5):
            w = rng.choice(weyl_group())
            moved = from_basis_coords(1, w_act_coords(w, coords))
            assert component_membership(moved) == 4

    def test_membership_complex_parameters(self):
        # imaginary parameters are fine: the pattern only needs exact zero tests
        p = parametrize(10, [IMAG])
        assert component_membership(p) == 10

    def test_regularity(self):
        def regular(i, lams):
            return vanishing_roots(basis_coords(1, parametrize(i, lams))) == member_roots(i)

        assert regular(2, [rat(1), rat(1), rat(1)])
        assert not regular(2, [rat(2), rat(1), rat(1)])  # 2 = 1+1 wall
        assert not regular(2, [rat(0), rat(1), rat(1)])
        assert regular(4, [rat(3), rat(1)])
        assert not regular(4, [rat(1), rat(1)])
        assert regular(11, [])

    def test_from_u_coords_combines_the_u_basis(self):
        coords = [rat(7), IMAG, rat(-2, 3), ZERO]
        expected = Tensor.zero()
        for c, uk in zip(coords, u_basis()):
            expected = expected + uk.scale(c)
        assert from_basis_coords(1, coords).c == expected.c
        assert basis_coords(1, from_basis_coords(1, coords)) == tuple(coords)

    def test_param_count_error(self):
        with pytest.raises(ValueError):
            parametrize(10, [rat(1), rat(2)])

    def test_non_cartan_input_error(self):
        with pytest.raises(ValueError):
            component_membership(Tensor.basis("0100"))


class TestGammaGroups:
    def test_orders(self):
        assert [len(gamma_group(i)) for i in range(1, 12)] == [
            192, 8, 2, 8, 8, 8, 2, 2, 2, 2, 1
        ]

    def test_h1_sizes(self):
        assert [len(gamma_h1(i)) for i in range(1, 11)] == [
            7, 8, 2, 4, 4, 4, 2, 2, 2, 2
        ]

    def test_generators_in_weyl_group(self):
        group = set(weyl_group())
        for i in range(2, 12):
            gens = subsystem(i).gamma_gens
            for g in gens:
                assert g in group, i
                assert weyl_index(g) in gamma_group(i), i

    def test_generators_normalize_w_pi(self):
        group = weyl_group()
        for i in range(2, 12):
            wp = {group[x] for x in w_pi_group(i)}
            for g in subsystem(i).gamma_gens:
                conj = {_product(_product(g, x), _winv(g)) for x in wp}
                assert conj == wp, i

    def test_closures_match_a_fraction_closure(self):
        # each group of indices is the closure of its generators under the
        # Fraction product, in increasing matrix order
        group = weyl_group()
        reflections = {r.coeffs: s for r, s in zip(restricted_roots(), _table_reflections())}
        for i in range(1, 12):
            w_pi_gens = [reflections[c] for c in member_roots(i)]
            gamma_gens = subsystem(i).gamma_gens
            if gamma_gens is None:
                gamma_gens = list(reflections.values())
            for indices, gens in ((w_pi_group(i), w_pi_gens), (gamma_group(i), gamma_gens)):
                if len(gens) == 24:
                    # all the reflections: the whole of W, already in order
                    assert indices == tuple(range(192)), i
                    continue
                closure, frontier = {W_IDENTITY}, [W_IDENTITY]
                while frontier:
                    x = frontier.pop()
                    for g in gens:
                        y = _product(g, x)
                        if y not in closure:
                            closure.add(y)
                            frontier.append(y)
                assert [group[n] for n in indices] == sorted(closure), i

    def test_w_pi_orders(self):
        # A1 -> 2, A2 -> 6, 2A1 -> 4, A3 -> 24, 3A1 -> 8, D4 -> 192
        assert len(w_pi_group(2)) == 2
        assert len(w_pi_group(3)) == 6
        assert len(w_pi_group(4)) == 4
        assert len(w_pi_group(7)) == 24
        assert len(w_pi_group(10)) == 8
        assert len(w_pi_group(11)) == 192

    def test_h1_representatives_are_involutions(self):
        for i in range(1, 11):
            for z in gamma_h1(i):
                assert _product(z, z) == W_IDENTITY


def _winv(w):
    n = 4
    rows = [[w[i][j] for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
            for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        rows[col] = [v / pv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


class TestSevenCartans:
    def test_witness_identities(self):
        for cb in seven_cartans():
            assert g_mul(g_inv(cb.gstar), conj_g(cb.gstar)) == cb.nstar

    def test_expected_witness_cocycles(self):
        cs = seven_cartans()
        assert cs[0].nstar == gelt_from_names("I,I,I,I")
        assert cs[1].nstar == gelt_from_names("-I,I,I,I")
        M, N = named("M"), named("N")
        assert cs[2].nstar == gelt(M, M, m2_neg(N), N)
        assert cs[3].nstar == gelt_from_names("L,I,I,L")
        assert cs[4].nstar == gelt_from_names("I,L,I,L")
        assert cs[5].nstar == gelt_from_names("I,I,L,L")
        assert cs[6].nstar == gelt_from_names("M,M,M,M")

    def test_bases_real_commuting_semisimple(self):
        for cb in seven_cartans():
            for a in cb.basis:
                assert a.is_real()
                assert is_semisimple(a)
            for a in cb.basis:
                for b in cb.basis:
                    assert lie_is_zero(
                        bracket(tensor_to_g1(a), tensor_to_g1(b))
                    )
            assert cartan_is_semisimple(cb.index)

    def test_a_nilpotent_basis_vector_is_not_proved_semisimple(self, monkeypatch):
        # swapping any basis vector for the nilpotent e_0000 breaks the
        # twist-factor step of the proof: g*⁻¹·e_0000 is nilpotent, so it is
        # no nonzero multiple of a u_l
        cartans = seven_cartans()
        e = Tensor.basis("0000")
        assert not is_semisimple(e)
        try:
            for cb in cartans:
                for l in range(4):
                    basis = cb.basis[:l] + (e,) + cb.basis[l + 1:]
                    bent = cartans[:cb.index - 1] + (replace(cb, basis=basis),) + cartans[cb.index:]
                    monkeypatch.setattr(cw, "seven_cartans", lambda bent=bent: bent)
                    cw.cartan_is_semisimple.cache_clear()
                    cw.twist_factors.cache_clear()
                    assert not cartan_is_semisimple(cb.index), (cb.index, l)
        finally:
            cw.cartan_is_semisimple.cache_clear()
            cw.twist_factors.cache_clear()

    def test_twist_factors_carry_each_basis_vector_to_its_axis(self):
        for cb in seven_cartans():
            back = g_inv(cb.gstar)
            taus = cw.twist_factors(cb.index)
            for l, (tau, vec) in enumerate(zip(taus, cb.basis)):
                assert tau
                assert act_tensor(back, vec) == u_basis()[l].scale(tau), (cb.index, l)

    def test_basis_spans_transported_cartan(self):
        # each basis vector lies in the complex span of {g* u_k}
        for cb in seven_cartans():
            cols = [act_tensor(cb.gstar, uk) for uk in u_basis()]
            mat = [[cols[j].c[i] for j in range(4)] for i in range(16)]
            for b in cb.basis:
                assert la.solve(mat, list(b.c)) is not None, cb.index

    def test_tau_sign_patterns(self):
        pats = [
            (1, 1, 1, 1), (-1, -1, -1, -1), (-1, -1, -1, 1), (-1, -1, 1, 1),
            (-1, 1, -1, 1), (-1, 1, 1, -1), (-1, 1, 1, 1),
        ]
        for cb, pat in zip(seven_cartans(), pats):
            m = h_action_matrix(cb.nstar)
            assert m is not None
            exp = tuple(
                tuple(Fraction(pat[i] if i == j else 0) for j in range(4))
                for i in range(4)
            )
            assert m == exp

    def test_detect_examples(self):
        got = containing_bases(Tensor.basis("0000") + Tensor.basis("1111"))
        assert got and got[0][0] == 1
        assert [c.to_fraction() for c in got[0][1]] == [1, 0, 0, 0]
        got = containing_bases(Tensor.basis("0000") - Tensor.basis("1111"))
        assert got and got[0][0] == 2
        assert [c.to_fraction() for c in got[0][1]] == [1, 0, 0, 0]
        assert containing_bases(Tensor.basis("0100")) == []

    @pytest.mark.parametrize("m", [-1, 0, 8])
    @pytest.mark.parametrize("convert", [
        lambda m: basis_coords(m, seven_cartans()[6].basis[0]),
        lambda m: from_basis_coords(m, (ONE, ZERO, ZERO, ZERO)),
    ], ids=["basis_coords", "from_basis_coords"])
    def test_basis_number_outside_one_to_seven_is_rejected(self, convert, m):
        # m = 0 and m = -1 must not wrap around to bases 7 and 6
        with pytest.raises(KeyError):
            convert(m)

    def test_detect_prefers_first_listed(self):
        # e0011+e1100 = u4 lies in spaces 1 and 4's spans? u4 appears in bases
        # u (index 1), w (3), x (4), y (5), z uses v4, t uses u4.
        got = containing_bases(Tensor.basis("0011") + Tensor.basis("1100"))
        assert got and got[0][0] == 1


class TestHActionMatrix:
    def test_shear_does_not_normalize(self):
        shear = gelt(mat2(ONE, ONE, ZERO, ONE), named("I"), named("I"), named("I"))
        assert h_action_matrix(shear) is None

    def test_weyl_lift_consistency(self):
        # (J,J,J,J) normalizes h: check its matrix squares to identity
        g = gelt_from_names("J,J,J,J")
        m = h_action_matrix(g)
        assert m is not None
        assert _product(m, m) == W_IDENTITY
