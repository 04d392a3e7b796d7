"""Tests for twisted cohomology of finite matrix groups and the normalizer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import cartanweyl as cw
from artifact import galois as gal
from artifact import groupaction as ga
from artifact.exactfield import CycNum, IMAG


I4 = ga.IDENTITY


def names(spec):
    return ga.gelt_from_names(spec)


def one():
    """The identity of S⁴ as an index tuple."""
    return gal.encode(I4)


def cocycle_condition(c):
    return gal.slot_mul(c, gal.slot_conj(c)) == one()


def twisted(a, c):
    """a·c·σ(a)⁻¹, the twisted action of a on c."""
    return gal.slot_mul(gal.slot_mul(a, c), gal.slot_conj(gal.slot_inv(a)))


def _wmat_mul(a, b):
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(4)) for c in range(4))
                 for r in range(4))


def _transpose(a):
    return tuple(tuple(a[c][r] for c in range(4)) for r in range(4))


def involution_class_count(indices):
    """Conjugacy classes of the x with x·x = 1 in a group of Weyl matrices.

    A brute-force reference on the matrices themselves: each class is
    g·x·g⁻¹ over every element g, with g⁻¹ the transpose (checked).
    """
    group = [cw.weyl_group()[w] for w in indices]
    assert all(_wmat_mul(g, _transpose(g)) == cw.W_IDENTITY for g in group)
    seen, count = set(), 0
    for x in group:
        if _wmat_mul(x, x) == cw.W_IDENTITY and x not in seen:
            seen |= {_wmat_mul(_wmat_mul(g, x), _transpose(g)) for g in group}
            count += 1
    return count


def normalizer_pairs():
    """The 6144 normalizer elements, coset by coset, each with its action."""
    kernel, lifts = gal.normalizer_cosets()
    return [(gal.slot_mul(g, k), w) for g, w in lifts for k in kernel]


def decoded(classes):
    """A class list of index tuples as the 4-tuples of matrices they stand for."""
    return gal.CocycleClassList(
        representatives=tuple(map(gal.decode, classes.representatives)),
        case_tag=classes.case_tag,
        sizes=classes.sizes,
    )


@pytest.fixture(scope="module")
def stab_group():
    return gal.gelt_group(gal.stabilizer_finite_gens(), tag="generic-stabilizer")


@pytest.fixture(scope="module")
def normalizer():
    return gal.build_normalizer()


@pytest.fixture(scope="module")
def coset_data():
    """Generators with their actions, the kernel and the lifts of the normalizer."""
    gens = [(gal.encode(g), cw.weyl_index(cw.h_action_matrix(g)))
            for g in gal.normalizer_generators()]
    kernel, lifts = gal.normalizer_cosets()
    return gens, kernel, lifts


class TestEngine:
    def test_trivial_group_has_one_class(self):
        group = gal.gelt_group([], tag="trivial")
        classes = gal.h1(group)
        assert len(classes) == 1
        assert classes.representatives[0] == one()

    def test_order_two_group_has_two_classes(self):
        group = gal.gelt_group([names("-I,-I,-I,-I")])
        assert len(group) == 2
        classes = gal.h1(group)
        assert len(classes) == 2
        assert classes.sizes == (1, 1)

    def test_weyl_group_with_trivial_twist_has_seven_classes(self):
        # Γ(1) is the whole coordinate symmetry group W
        assert len(cw.gamma_group(1)) == len(cw.weyl_group()) == 192
        assert involution_class_count(range(192)) == 7 == len(cw.gamma_h1(1))

    @pytest.mark.parametrize("i", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    def test_engine_agrees_with_direct_involution_count(self, i):
        assert involution_class_count(cw.gamma_group(i)) == len(cw.gamma_h1(i))

    def test_class_sizes_sum_to_cocycle_count(self, stab_group):
        classes = gal.h1(stab_group)
        assert sum(classes.sizes) == len(gal.cocycles(stab_group))

    def test_generic_stabilizer_has_twelve_classes(self, stab_group):
        assert len(stab_group) == 32
        classes = gal.h1(stab_group)
        assert len(classes) == 12
        for z in classes.representatives:
            assert cocycle_condition(z)

    def test_representatives_sorted_and_distinct(self, stab_group):
        classes = gal.h1(stab_group)
        reps = list(classes.representatives)
        assert reps == sorted(reps)
        assert len(set(reps)) == len(reps)

    def test_twisted_action_is_an_action(self, stab_group):
        # acting by a then by b equals acting by b·a
        g = stab_group
        c = gal.cocycles(g)[3]
        a, b = g.elements[5], g.elements[17]
        step = twisted(a, c)
        two_steps = twisted(b, step)
        ba = gal.slot_mul(b, a)
        direct = twisted(ba, c)
        assert two_steps == direct

    def test_twisted_image_of_cocycle_is_cocycle(self, stab_group):
        g = stab_group
        for c in gal.cocycles(g)[:6]:
            for a in g.elements[::7]:
                moved = twisted(a, c)
                assert cocycle_condition(moved)

    # the slot group is rebuilt uncached under a patched conjugation, so the
    # cached tables the other tests use stay as they are

    def test_sigma_not_involution_rejected(self, monkeypatch):
        # conjugating by an element of order 3 is an automorphism of S of
        # order 3, so the slot group must refuse it as the twist
        r = next(m for m in gal.slot_group().mats
                 if m != ga.I2 and ga.m2_mul(m, ga.m2_mul(m, m)) == ga.I2)
        monkeypatch.setattr(
            ga, "m2_conj", lambda m: ga.m2_mul(ga.m2_mul(r, m), ga.m2_inv(r)))
        with pytest.raises(ArithmeticError, match="involution"):
            gal.slot_group.__wrapped__()

    def test_sigma_not_automorphism_rejected(self, monkeypatch):
        # inversion is an involution of S but reverses products
        monkeypatch.setattr(ga, "m2_conj", ga.m2_inv)
        with pytest.raises(ArithmeticError, match="automorphism"):
            gal.slot_group.__wrapped__()

    def test_sigma_leaving_group_rejected(self):
        # an element r of order 3 whose conjugate is not a power of r
        slots = gal.slot_group()
        e = slots.index[ga.I2]
        r = next(a for a in range(48) if a != e and slots.mul[a][slots.mul[a][a]] == e
                 and slots.conj[a] not in (a, slots.mul[a][a]))
        base = gal.gelt_group([gal.decode((r, e, e, e))])
        assert len(base) == 3
        leak = gal.slot_conj((r, e, e, e))
        assert leak not in base.elements
        with pytest.raises(ValueError, match="preserve"):
            gal.cocycles(base)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=6), st.integers(0, 11))
    def test_twisted_moves_stay_equivalent(self, stab_group, word, class_idx):
        g = stab_group
        classes = gal.h1(g)
        c = classes.representatives[class_idx % len(classes)]
        a = one()
        for k in word:
            a = gal.slot_mul(a, g.gens[k])
        moved = twisted(a, c)
        # verify by a fresh orbit search seeded at the moved element
        orbit = {moved}
        frontier = [moved]
        while frontier:
            x = frontier.pop()
            for gen in g.gens:
                y = twisted(gen, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        assert c in orbit


class TestSlotGroup:
    def test_slots_are_48_in_key_order(self):
        slots = gal.slot_group()
        assert len(slots.mats) == 48
        keys = [ga.m2_key(m) for m in slots.mats]
        assert keys == sorted(keys) and len(set(keys)) == 48
        assert all(slots.index[m] == a for a, m in enumerate(slots.mats))

    def test_product_table_matches_matrix_products(self):
        slots = gal.slot_group()
        for a, x in enumerate(slots.mats):
            for b, y in enumerate(slots.mats):
                assert slots.mats[slots.mul[a][b]] == ga.m2_mul(x, y)

    def test_inverse_and_conjugation_tables(self):
        slots = gal.slot_group()
        for a, x in enumerate(slots.mats):
            assert slots.mats[slots.inv[a]] == ga.m2_inv(x)
            assert slots.mats[slots.conj[a]] == ga.m2_conj(x)

    @pytest.mark.parametrize("spec", ["D1,I,I,I", "F,I,I,I"])
    def test_encode_rejects_slots_outside_the_group(self, spec):
        with pytest.raises(ValueError, match="outside"):
            gal.encode(names(spec))

    def test_decode_inverts_encode(self):
        for g in gal.normalizer_generators():
            assert gal.decode(gal.encode(g)) == g


class TestNormalizer:
    def test_normalizer_order(self, normalizer):
        assert len(normalizer) == 6144

    def test_normalizer_h1_has_seven_classes(self, normalizer):
        classes = gal.h1_of_normalizer()
        assert len(classes) == 7
        assert sum(classes.sizes) == len(gal.cocycles(normalizer))

    def test_elements_are_the_shared_closure_sorted(self, normalizer):
        gs = sorted(g for g, _ in normalizer_pairs())
        assert list(normalizer.elements) == gs
        assert len(set(gs)) == 6144

    def test_cosets_of_the_kernel(self):
        kernel, lifts = gal.normalizer_cosets()
        assert len(kernel) == 32 and len(lifts) == 192
        assert {w for _, w in lifts} == set(range(192))
        for g, w in lifts[::12]:
            assert cw.h_action_matrix(gal.decode(g)) == cw.weyl_group()[w]
        assert all(cw.h_action_matrix(gal.decode(k)) == cw.W_IDENTITY for k in kernel[::5])

    def test_coset_symmetry_reads_the_action(self, normalizer):
        # every element of N by its coset, a sample against the tensor action,
        # and seeded elements of S⁴ with a sample of N by membership
        pairs = normalizer_pairs()
        assert all(gal.coset_symmetry(x) == w for x, w in pairs)
        for x, _ in pairs[::24]:
            assert gal.coset_symmetry(x) == cw.weyl_index(cw.h_action_matrix(gal.decode(x)))
        members = set(normalizer.elements)
        rng = random.Random(22)
        draws = [tuple(rng.randrange(48) for _ in range(4)) for _ in range(300)]
        draws += normalizer.elements[::97]
        assert {gal.coset_symmetry(x) is None for x in draws} == {True, False}
        for x in draws:
            assert (gal.coset_symmetry(x) is None) is (x not in members)

    def test_each_generator_action_is_computed_once(self, monkeypatch):
        # the kernel generators are the first of the normalizer generators,
        # so their trivial action is read from the actions computed for all
        calls = []
        real = cw.h_action_matrix
        monkeypatch.setattr(cw, "h_action_matrix", lambda g: calls.append(g) or real(g))
        warm = gal.normalizer_cosets()
        for cached in (gal.normalizer_cosets, gal.normalizer_generators,
                       gal.weyl_cocycle_lifts):
            cached.cache_clear()
        assert gal.normalizer_cosets() == warm
        assert len(calls) == len(gal.normalizer_generators()) == 21
        assert gal.stabilizer_finite_gens() == gal.normalizer_generators()[:4]

    def test_a_kernel_generator_that_moves_the_subspace_is_rejected(self, monkeypatch):
        moving = names("-I,I,I,I")
        assert cw.h_action_matrix(moving) != cw.W_IDENTITY
        gens = gal.stabilizer_finite_gens() + (moving,)
        monkeypatch.setattr(gal, "stabilizer_finite_gens", lambda: gens)
        with pytest.raises(ArithmeticError, match="kernel generator moves"):
            gal.normalizer_cosets.__wrapped__()

    def test_coset_check_catches_each_mislabelled_generator(self, coset_data):
        # a check that skipped any one generator would let its case pass
        gens, kernel, lifts = coset_data
        gal.check_cosets(gens, kernel, lifts)
        minus = cw.weyl_index(cw.wmat([[-int(r == c) for c in range(4)] for r in range(4)]))
        identity = cw.weyl_table().identity
        for p, (g, w) in enumerate(gens):
            wrong = minus if w == identity else identity
            bad = gens[:p] + [(g, wrong)] + gens[p + 1:]
            with pytest.raises(ArithmeticError, match="coset"):
                gal.check_cosets(bad, kernel, lifts)

    def test_coset_check_needs_the_whole_kernel(self, coset_data):
        gens, _, lifts = coset_data
        half = gal.gelt_closure(gal.stabilizer_finite_gens()[:3], 32, "bound")
        assert len(half) == 16
        with pytest.raises(ArithmeticError, match="coset"):
            gal.check_cosets(gens, half, lifts)

    def test_coset_check_catches_a_lift_with_the_wrong_action(self, coset_data):
        gens, kernel, lifts = coset_data
        bad = list(lifts)
        (g1, w1), (g2, w2) = bad[1], bad[2]
        bad[1], bad[2] = (g1, w2), (g2, w1)
        with pytest.raises(ArithmeticError, match="coset"):
            gal.check_cosets(gens, kernel, bad)
        with pytest.raises(ArithmeticError, match="two lifts"):
            gal.check_cosets(gens, kernel, [(g1, w2)] + list(lifts[1:]))

    def test_elements_sort_by_slot_ranks_as_by_key(self, normalizer):
        keys = [ga.g_key(gal.decode(g)) for g in normalizer.elements]
        ranks = list(normalizer.elements)
        assert keys == sorted(keys) and ranks == sorted(ranks)
        assert [gal.encode(gal.decode(g)) for g in normalizer.elements] == ranks
        assert len(set(ranks)) == 6144
        assert max(max(r) for r in ranks) == 47

    def test_generator_images_generate_all_coordinate_symmetries(self, normalizer):
        images = []
        for g in normalizer.gens:
            w = cw.h_action_matrix(gal.decode(g))
            images.append(w)
        full = set(cw.weyl_group())
        closure = {cw.W_IDENTITY}
        frontier = [cw.W_IDENTITY]
        while frontier:
            x = frontier.pop()
            for w in images:
                y = tuple(tuple(sum(x[i][k] * w[k][j] for k in range(4)) for j in range(4))
                          for i in range(4))
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        assert closure == full

    def test_recorded_twists_are_cocycles_in_normalizer(self, normalizer):
        members = set(normalizer.elements)
        for basis in cw.seven_cartans():
            n = gal.encode(basis.nstar)
            assert n in members
            assert cocycle_condition(n)

    def test_all_sixteen_lifts_verify(self, normalizer):
        members = set(normalizer.elements)
        rows = gal.weyl_cocycle_lifts()
        assert len(rows) == 16
        for w, lift in rows:
            x = gal.encode(lift)
            assert x in members
            assert cocycle_condition(x)
            assert cw.h_action_matrix(lift) == cw.weyl_group()[w]

    def test_specific_lift_images(self):
        assert cw.h_action_matrix(names("-I,I,I,I")) == cw.wmat(
            [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        )
        assert cw.h_action_matrix(names("L,I,I,L")) == cw.wmat(
            [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert cw.h_action_matrix(names("I,K,I,K")) == cw.wmat(
            [[0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        )

    def test_non_normalizing_element_rejected(self):
        shear = ga.gelt(
            ga.mat2(1, 1, 0, 1), ga.I2, ga.I2, ga.I2
        )
        assert cw.h_action_matrix(shear) is None

    def test_torus_cocycles_split(self):
        # samples of unit-circle diagonal cocycles are all coboundaries
        for k in range(8):
            a = ga.D(CycNum.eta_power(2 * k)) if k else ga.I2
            c = ga.gelt(a, ga.I2, ga.I2, ga.I2)
            assert ga.g_key(ga.g_mul(c, ga.conj_g(c))) == ga.g_key(I4)
            b = ga.gelt(
                ga.D(CycNum.eta_power(k)) if k else ga.I2, ga.I2, ga.I2, ga.I2
            )
            split = ga.g_mul(b, ga.g_inv(ga.conj_g(b)))
            assert ga.g_key(split) == ga.g_key(c)


class TestVerifyClassList:
    def test_generic_stabilizer_list_passes(self, stab_group):
        classes = decoded(gal.h1(stab_group, case_tag="generic-stabilizer"))
        spec = gal.StabilizerSpec(
            tag="generic-stabilizer",
            finite_gens=gal.stabilizer_finite_gens(),
            expected_count=12,
        )
        report = gal.verify_class_list(classes, spec)
        assert report["passed"]
        assert report["classes"] == 12
        assert report["finite_part_order"] == 32
        assert not report["failures"]

    def test_wrong_count_fails(self, stab_group):
        classes = decoded(gal.h1(stab_group))
        spec = gal.StabilizerSpec(
            tag="generic-stabilizer",
            finite_gens=gal.stabilizer_finite_gens(),
            expected_count=11,
        )
        with pytest.raises(gal.ClassListError) as err:
            gal.verify_class_list(classes, spec)
        kinds = {f["check"] for f in err.value.report["failures"]}
        assert "count" in kinds
        assert not err.value.report["passed"]

    def test_non_cocycle_entry_fails(self):
        bad = gal.CocycleClassList(
            representatives=(names("J,I,I,I"),), case_tag="broken"
        )
        spec = gal.StabilizerSpec(tag="broken", finite_gens=(I4,))
        with pytest.raises(gal.ClassListError) as err:
            gal.verify_class_list(bad, spec)
        failure = err.value.report["failures"][0]
        assert failure["check"] == "cocycle"
        assert failure["case"] == "broken"

    def test_equivalent_pair_fails(self, stab_group):
        classes = gal.h1(stab_group)
        big = classes.sizes.index(max(classes.sizes))
        c = classes.representatives[big]
        partner = None
        for a in stab_group.elements:
            moved = twisted(a, c)
            if moved != c:
                partner = moved
                break
        assert partner is not None
        doubled = gal.CocycleClassList(
            representatives=(gal.decode(c), gal.decode(partner)), case_tag="duplicated"
        )
        spec = gal.StabilizerSpec(
            tag="duplicated", finite_gens=gal.stabilizer_finite_gens()
        )
        with pytest.raises(gal.ClassListError) as err:
            gal.verify_class_list(doubled, spec)
        failure = err.value.report["failures"][0]
        assert failure["check"] == "inequivalent"
        assert failure["case"] == "duplicated"
        assert tuple(sorted(failure["pair"])) == (0, 1)

    def test_torus_sample_catches_hidden_equivalence(self):
        # (−I,−I,I,I) splits through the identity component: it equals
        # t·σ(t)⁻¹ for t carrying D(i) in the first two slots.  A finite
        # part alone cannot see that, a documented torus sample can.
        z_list = gal.CocycleClassList(
            representatives=(I4, names("-I,-I,I,I")), case_tag="torus-probe"
        )
        without = gal.StabilizerSpec(tag="torus-probe", finite_gens=(I4,))
        assert gal.verify_class_list(z_list, without)["passed"]
        t = ga.gelt(ga.D(IMAG), ga.D(IMAG), ga.I2, ga.I2)
        with_sample = gal.StabilizerSpec(
            tag="torus-probe", finite_gens=(I4,), torus_samples=(t,)
        )
        with pytest.raises(gal.ClassListError) as err:
            gal.verify_class_list(z_list, with_sample)
        assert err.value.report["failures"][0]["check"] == "inequivalent"
