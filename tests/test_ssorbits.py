"""Tests for the semisimple orbit tables, verification, and classification."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from artifact import _linalg as la
from artifact import cartanweyl as cw
from artifact import galois, invariants, liealg
from artifact import ssorbits as ss
from artifact.exactfield import CycNum, IMAG, MINUS_ONE, ONE, ZERO, random_cyc, rat
from artifact.groupaction import (
    PermAuto, act_tensor, conj_g, g_inv, g_key, g_mul, gelt_from_names,
)
from artifact.liealg import Tensor


def _tensor_key(t: Tensor):
    return tuple((c.nums, c.den) for c in t.c)


# ---------------------------------------------------------------------------
# table data shape
# ---------------------------------------------------------------------------


def test_block_inventory():
    bs = ss.blocks()
    assert len(bs) == 37
    sizes = {(b.i, b.j): len(b.rows) for b in bs}
    # families and block counts
    fams = {}
    for (i, j) in sizes:
        fams.setdefault(i, []).append(j)
    assert {i: sorted(js) for i, js in fams.items()} == {
        1: [1, 2, 3, 4, 5, 6, 7],
        2: [1, 2, 3, 4, 5, 6, 7, 8],
        3: [1, 2],
        4: [1, 2, 3, 4],
        5: [1, 2, 3, 4],
        6: [1, 2, 3, 4],
        7: [1, 2],
        8: [1, 2],
        9: [1, 2],
        10: [1, 2],
    }
    # representative counts per family-1 block
    assert [sizes[(1, j)] for j in range(1, 8)] == [12, 12, 4, 4, 4, 4, 4]
    assert [sizes[(2, j)] for j in range(1, 9)] == [8, 4, 4, 4, 4, 4, 4, 8]
    assert sum(sizes.values()) == 162


def test_transported_block_bases():
    # the permuted families act on the expected bases
    assert [ss.block(5, j).basis_name for j in (1, 2, 3, 4)] == ["u", "t", "v", "y"]
    assert [ss.block(6, j).basis_name for j in (1, 2, 3, 4)] == ["u", "t", "v", "x"]
    assert [ss.block(8, j).basis_name for j in (1, 2)] == ["u", "v"]
    assert [ss.block(9, j).basis_name for j in (1, 2)] == ["u", "v"]


def test_block_witness_identities():
    # every block's stored witness reproduces its twist exactly, and the
    # twist acts on the fixed Cartan by the recorded coordinate matrix
    for blk in ss.blocks():
        rel = g_mul(g_inv(blk.g), conj_g(blk.g))
        assert g_key(rel) == g_key(blk.n), (blk.i, blk.j)
        assert cw.h_action_matrix(blk.n) == cw.weyl_group()[blk.gamma], (blk.i, blk.j)


def test_twists_lie_in_their_symmetry_groups():
    # every twist acts on its family's span as an element of Gamma(i); a
    # transported one only up to W_Pi(i): relabelling the coordinates does
    # not carry the stored Gamma(4) onto Gamma(5) or Gamma(6)
    assert all(ss._gamma_in_group(blk) for blk in ss.blocks())
    outside = [(b.i, b.j) for b in ss.blocks() if b.gamma not in cw.gamma_group(b.i)]
    assert outside == [(5, 4), (6, 4)]


def test_a_transported_twist_outside_w_pi_gamma_fails():
    mul = cw.weyl_table().mul
    for i, j in ((5, 4), (8, 1)):
        blk = ss.block(i, j)
        allowed = {mul[w][x] for w in cw.w_pi_group(i) for x in cw.gamma_group(i)}
        bad = dataclasses.replace(blk, gamma=min(set(range(192)) - allowed))
        lams = ss.default_lambda(i, j)
        assert [f["check"] for f in ss._verify_block(blk, lams)] == []
        assert [f["check"] for f in ss._verify_block(bad, lams)] == ["gamma"]


def test_a_stabilizer_element_that_is_not_a_cocycle_is_rejected():
    # J·conj(J) = -I in one slot: an odd number of signs
    variables = ss._NATIVE[1]["vars"]
    raw = dict(ss._NATIVE[1]["blocks"][0])
    ss._compile_block(1, variables, raw)
    raw["zs"] = raw["zs"][:3] + ("J,I,I,I",) + raw["zs"][4:]
    with pytest.raises(ValueError, match="stabilizer element 3 is not a cocycle"):
        ss._compile_block(1, variables, raw)


def _replaced(items, idx, item):
    return items[:idx] + (item,) + items[idx + 1:]


# Block (1, 2): twist -I,I,I,I acting as -1, witness L,I,I,I.  J,I,I,I has
# J·conj(J) = -I in one slot; K,I,I,I is a cocycle of S⁴ outside N; D1 is
# not a slot matrix.
@pytest.mark.parametrize("field, change, message", [
    ("n", lambda raw: "J,I,I,I", r"block \(1, 2\): twist is not a cocycle"),
    ("g", lambda raw: "I,I,I,I",
     r"block \(1, 2\): witness does not produce the recorded twist"),
    ("gamma", lambda raw: (1, 1, 1, 1), r"block \(1, 2\): twist acts by"),
    ("n", lambda raw: "D1,I,I,I", r"block \(1, 2\): twist lies outside the slot group"),
    ("n", lambda raw: "K,I,I,I", r"block \(1, 2\): twist lies outside the normalizer"),
    ("zs", lambda raw: _replaced(raw["zs"], 4, "D1,I,I,I"),
     r"block \(1, 2\): stabilizer element 4 lies outside the slot group"),
    ("zs", lambda raw: _replaced(raw["zs"], 5, "K,I,I,I"),
     r"block \(1, 2\): stabilizer element 5 lies outside the normalizer"),
    ("rows", lambda raw: _replaced(raw["rows"], 1, ("l1+l2", "l1+l2", "l3", "l4")),
     "row 2 has linearly dependent columns"),
])
def test_a_block_with_broken_group_data_or_rows_is_rejected(field, change, message):
    variables = ss._NATIVE[1]["vars"]
    raw = dict(ss._NATIVE[1]["blocks"][1])
    assert ss._compile_block(1, variables, raw) == ss.block(1, 2)
    raw[field] = change(raw)
    with pytest.raises(ValueError, match=message):
        ss._compile_block(1, variables, raw)


def test_a_transported_block_is_checked_like_a_stored_one():
    auto = PermAuto((2, 3))
    blk = ss.block(4, 2)
    assert ss._transport_block(5, auto, blk) == ss.block(5, 2)
    with pytest.raises(ValueError, match="transported twist action mismatch"):
        ss._transport_block(5, auto, dataclasses.replace(blk, gamma=cw.weyl_table().identity))
    with pytest.raises(ValueError, match=r"block \(5, 2\): witness does not produce"):
        ss._transport_block(5, auto, dataclasses.replace(blk, g=blk.n))


def test_unknown_block_raises():
    with pytest.raises(KeyError):
        ss.block(11, 1)
    with pytest.raises(KeyError):
        ss.reality_pattern(1, 9)


@pytest.mark.parametrize("exprs, message", [
    (("l1*l2", "l2", "l3", "l4"), "nonlinear product"),
    (("2/(l1+l2)", "l2", "l3", "l4"), "unsupported quotient"),
    (("1/(1/l1)", "l2", "l3", "l4"), "unsupported quotient"),
    (("l1+1", "l2", "l3", "l4"), "nonzero constant term"),
    (("l1**2", "l2", "l3", "l4"), "unsupported Pow"),
    (("f(l1)", "l2", "l3", "l4"), "unsupported Call"),
    (("l1 l2", "l2", "l3", "l4"), "unreadable"),
    # a row leaving out l2
    (("l1", "l1", "l3", "l4"), "every family parameter"),
    # a row leaving out l4
    (("l1", "l2", "l3", "0"), "every family parameter"),
    (("l1+l2", "l1+l2", "l3", "l4"), "linearly dependent"),
    # a name that is not a family parameter
    (("l1", "l2", "l3", "l4+l5"), "unsupported Name"),
    # a parameter in a divisor: the rows are linear in the parameters
    (("2/l1", "l2", "l3", "l4"), "unsupported quotient"),
    (("2/(i*l1)", "l2", "l3", "l4"), "unsupported quotient"),
    # a divisor outside Q
    (("l1/i", "l2", "l3", "l4"), "unsupported quotient"),
])
def test_compile_row_rejects_malformed_rows(exprs, message):
    with pytest.raises(ValueError, match=message):
        ss._compile_row(1, exprs, ("l1", "l2", "l3", "l4"))


@pytest.mark.parametrize("text, form, inversions", [
    # a rational divisor scales, with no field inverse
    ("(l1+l2)/2", {"l1": rat(1, 2), "l2": rat(1, 2)}, 0),
    ("-i*(l1-l3)/2", {"l1": -IMAG.scale(Fraction(1, 2)), "l3": IMAG.scale(Fraction(1, 2))}, 0),
])
def test_entries_invert_only_what_is_not_rational(monkeypatch, text, form, inversions):
    calls = []
    inverse = CycNum.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycNum, "inverse", counting)
    assert ss._parse_entry(text, ("l1", "l2", "l3")) == form
    assert len(calls) == inversions


# ---------------------------------------------------------------------------
# admissibility patterns
# ---------------------------------------------------------------------------


def test_reality_pattern_examples():
    three = rat(3)
    assert ss.reality_pattern(10, 1).accepts((three,))
    assert not ss.reality_pattern(10, 1).accepts((IMAG,))
    assert ss.reality_pattern(10, 2).accepts((rat(2) * IMAG,))
    assert not ss.reality_pattern(10, 2).accepts((three,))
    assert ss.reality_pattern(1, 1).accepts((rat(7), rat(3), rat(2), ONE))
    # regularity: coordinates summing to zero are rejected
    assert not ss.reality_pattern(1, 1).accepts((rat(6), rat(3), rat(2), ONE))
    # zero component rejected
    assert not ss.reality_pattern(1, 1).accepts((rat(7), rat(3), rat(2), ZERO))


def test_reality_pattern_coupled():
    # the paired-parameter blocks want conjugate-related components
    pat = ss.reality_pattern(4, 4)
    assert pat.accepts((ONE + IMAG, MINUS_ONE + IMAG))
    assert not pat.accepts((ONE + IMAG, ONE + IMAG))
    assert not pat.accepts((ONE, MINUS_ONE))


def test_default_lambda_admissible():
    for blk in ss.blocks():
        lams = ss.default_lambda(blk.i, blk.j)
        assert blk.reality.accepts(lams), (blk.i, blk.j)


def _rat_dot(row, lams):
    acc = ZERO
    for c, v in zip(row, lams):
        acc = acc + rat(c) * v
    return acc


def _real(v):
    return v.conjugate() == v


def _imaginary(v):
    return v.conjugate() == -v


def _reference_accepts(pattern, lams):
    # the tags checked through complex conjugation, then every avoid row as
    # rat(c) * v products
    assert len(lams) == len(pattern.tags)
    if "coupled" in pattern.tags:
        assert pattern.tags == ("coupled", "coupled")
        a, b = lams
        s, d = IMAG * (a + b), a - b
        tags_hold = s != ZERO and d != ZERO and _real(s) and _real(d)
    else:
        assert set(pattern.tags) <= {"real", "imaginary"}
        tags_hold = all(
            v != ZERO and (_real(v) if tag == "real" else _imaginary(v))
            for tag, v in zip(pattern.tags, lams)
        )
    return tags_hold and all(_rat_dot(row, lams) != ZERO for row in pattern.avoid)


def test_accepts_matches_rational_products():
    hits = 0
    for blk in ss.blocks():
        pattern = blk.reality
        lams = ss.default_lambda(blk.i, blk.j)
        assert pattern.accepts(lams) is _reference_accepts(pattern, lams) is True
        for row in pattern.avoid:
            # move the last parameter the row uses onto the hyperplane row · λ = 0
            p = max(q for q, c in enumerate(row) if c)
            rest = _rat_dot(row[:p] + (0,) + row[p + 1:], lams)
            hit = lams[:p] + (rest.scale(Fraction(-1, row[p])),) + lams[p + 1:]
            assert not _rat_dot(row, hit)
            assert pattern.accepts(hit) is _reference_accepts(pattern, hit) is False
            hits += 1
    assert hits > 37


def _draw_value(rng, kind):
    def q():
        return rat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    if kind == "rational":
        return q()
    if kind == "gaussian":
        return q() + q() * IMAG
    if kind == "sqrt2":
        return q() + q() * _SQRT2 + (q() + q() * _SQRT2) * IMAG
    return random_cyc(rng, 3, 3)


def _draw_lams(rng, pattern):
    """Seeded λ: values of one kind, some with a zero entry; half of them cut
    down to what the tags ask for; some moved onto an avoid hyperplane."""
    kind = rng.choice(("rational", "gaussian", "sqrt2", "general"))
    lams = [_draw_value(rng, kind) for _ in pattern.tags]
    if rng.random() < 0.15:
        lams[rng.randrange(len(lams))] = ZERO
    if rng.random() < 0.5:
        half = Fraction(1, 2)
        re = [(v + v.conjugate()).scale(half) for v in lams]
        if "coupled" in pattern.tags:
            # i·(a+b) = s and a−b = d for the real parts s, d; a zero entry
            # makes one of them zero
            s, d = re
            lams = [(d - IMAG * s).scale(half), (-d - IMAG * s).scale(half)]
        else:
            lams = [r if tag == "real" else IMAG * r for tag, r in zip(pattern.tags, re)]
    if pattern.avoid and rng.random() < 0.2:
        row = rng.choice(pattern.avoid)
        p = max(q for q, c in enumerate(row) if c)
        rest = _rat_dot(row[:p] + (0,) + row[p + 1:], lams)
        lams[p] = rest.scale(Fraction(-1, row[p]))
    return tuple(lams)


def test_accepts_matches_reference_on_seeded_draws():
    rng = random.Random(20)
    accepted = rejected = avoided = 0
    for blk in ss.blocks():
        outcomes = set()
        tags_only = dataclasses.replace(blk.reality, avoid=())
        for _ in range(200):
            lams = _draw_lams(rng, blk.reality)
            expected = _reference_accepts(blk.reality, lams)
            assert blk.reality.accepts(lams) is expected, (blk.i, blk.j, lams)
            outcomes.add(expected)
            accepted += expected
            rejected += not expected
            # rejected by a vanishing avoid row alone
            avoided += not expected and _reference_accepts(tags_only, lams)
        # every block sees both outcomes
        assert outcomes == {True, False}, (blk.i, blk.j)
    assert min(accepted, rejected) > 1000, (accepted, rejected)
    assert avoided > 300, avoided


# ---------------------------------------------------------------------------
# real points
# ---------------------------------------------------------------------------


def test_real_point_identity_block():
    # j=1 blocks have identity witness: the real point is the parameter itself
    for i in (1, 2, 3, 4, 7, 10):
        lams = ss.default_lambda(i, 1)
        p, g = ss.real_point(i, 1, lams)
        assert p == cw.parametrize(i, lams)
        assert p.is_real()


def test_real_point_v_basis_example():
    p, g = ss.real_point(10, 2, (IMAG,))
    # coordinates ı·λ·(1,0,0,0) in the second basis at λ=ı give -1 on the
    # first vector
    assert cw.containing_bases(p)[0] == (2, (MINUS_ONE, ZERO, ZERO, ZERO))
    assert p.is_real()


def test_real_point_is_real_everywhere():
    rng = random.Random(0)
    checked = 0
    for blk in ss.blocks():
        lams = ss.default_lambda(blk.i, blk.j)
        p, g = ss.real_point(blk.i, blk.j, lams)
        assert p.is_real(), (blk.i, blk.j)
        assert p.conjugate() == p
        # witness relation g^{-1}·conj(g) = twist
        assert g_key(g_mul(g_inv(g), conj_g(g))) == g_key(blk.n)
        checked += 1
    assert checked == 37


def test_real_point_random_parameters():
    # randomized admissible parameters stay real (20 draws across blocks)
    rng = random.Random(7)
    blocks = [ss.block(2, 1), ss.block(2, 2), ss.block(10, 1), ss.block(10, 2)]
    done = 0
    while done < 20:
        blk = rng.choice(blocks)
        base = ss.default_lambda(blk.i, blk.j)
        scale = rat(rng.randint(1, 9), rng.randint(1, 4))
        sign = ONE if rng.random() < 0.5 else MINUS_ONE
        lams = tuple(v * scale * sign for v in base)
        if not blk.reality.accepts(lams):
            continue
        p, _ = ss.real_point(blk.i, blk.j, lams)
        assert p.is_real()
        done += 1


def test_real_point_inadmissible_raises():
    with pytest.raises(ValueError):
        ss.real_point(10, 1, (IMAG,))
    with pytest.raises(ValueError):
        ss.real_point(1, 1, (ONE, ONE, ONE, ONE))


# ---------------------------------------------------------------------------
# representatives and rows
# ---------------------------------------------------------------------------


def test_orbit_reps_counts():
    for i, lams, count in [
        (1, (rat(7), rat(3), rat(2), ONE), 12),
        (3, (ONE, rat(2)), 4),
        (10, (rat(5),), 2),
    ]:
        rows = ss.block(i, 1).rows
        assert [row.k for row in rows] == list(range(1, count + 1))
        for row in rows:
            assert ss.row_tensor(i, 1, row.k, lams).is_real()


def test_second_family_10_rows_are_the_printed_rows_at_4_over_mu():
    # the paper prints rows (10, j, 2) in 2/l1; stored linearly in mu = 4/l1,
    # they give the printed entries at l1 = 4/mu, and classification reads
    # back mu, or -mu for q < 0: the sign of every coordinate is a real move,
    # and the label takes the least parameter
    rng = random.Random(28)
    two = rat(2)
    for j in (1, 2):
        for _ in range(6):
            q = rat(Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 4)))
            mu = q if j == 1 else q * IMAG
            lam = rat(4) * mu.inverse()
            if j == 1:
                # ("-2/l1", "2/l1", "2/l1", "2/l1")
                printed = (-two / lam, two / lam, two / lam, two / lam)
            else:
                # ("-2/(i*l1)", "2/(i*l1)", "2/(i*l1)", "2/(i*l1)")
                d = IMAG * lam
                printed = (-two / d, two / d, two / d, two / d)
            blk = ss.block(10, j)
            assert blk.row(2).coordinates((mu,)) == printed
            t = ss.row_tensor(10, j, 2, (mu,))
            assert cw.basis_coords(blk.m, t) == printed
            label = ss.classify_semisimple(t)
            assert (label.i, label.j, label.k) == (10, j, 2)
            assert label.lams == (mu if q.to_fraction() > 0 else -mu,)


def test_row_tensors_distinct():
    seen = {}
    for blk in ss.blocks():
        lams = ss.default_lambda(blk.i, blk.j)
        for row in blk.rows:
            t = ss.row_tensor(blk.i, blk.j, row.k, lams)
            key = _tensor_key(t)
            assert key not in seen, ((blk.i, blk.j, row.k), seen[key])
            seen[key] = (blk.i, blk.j, row.k)
    assert len(seen) == 162


def _draw_lambda(pick, pattern):
    # parameters of the shapes the tags ask for, from nonzero rationals pick();
    # the avoid rows are not consulted
    if "coupled" in pattern.tags:
        u, v = rat(pick()), rat(pick())
        return (u + v * IMAG, v * IMAG - u)
    return tuple(
        rat(pick()) * (IMAG if tag == "imaginary" else ONE) for tag in pattern.tags
    )


def _random_admissible(rng, pattern):
    def pick():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 4))

    while True:
        lams = _draw_lambda(pick, pattern)
        if pattern.accepts(lams):
            return lams


def test_row_tensor_is_the_dense_basis_sum():
    rng = random.Random(14)
    count = 0
    for blk in ss.blocks():
        basis = cw.seven_cartans()[blk.m - 1].basis
        for lams in (ss.default_lambda(blk.i, blk.j),
                     _random_admissible(rng, blk.reality)):
            for row in blk.rows:
                dense = [ZERO] * 16
                for c, vec in zip(row.coordinates(lams), basis):
                    for pos in range(16):
                        dense[pos] = dense[pos] + c * vec.c[pos]
                assert ss.row_tensor(blk.i, blk.j, row.k, lams) == Tensor(tuple(dense))
                count += 1
    assert count == 2 * 162


def test_within_block_invariants_agree():
    # representatives of one block at one parameter lie in one complex
    # orbit, that of the family's canonical element at the same parameter
    count = 0
    for blk in ss.blocks():
        lams = ss.default_lambda(blk.i, blk.j)
        vals = []
        for row in blk.rows:
            t = ss.row_tensor(blk.i, blk.j, row.k, lams)
            vals.append(invariants.invariants_of(t))
            count += 1
        assert len({repr(v) for v in vals}) == 1, (blk.i, blk.j)
        assert vals[0] == invariants.invariants_of(cw.parametrize(blk.i, lams)), (blk.i, blk.j)
    assert count == 162


def test_rows_are_semisimple():
    for (i, j) in ((1, 1), (2, 2), (4, 4), (10, 2)):
        blk = ss.block(i, j)
        lams = ss.default_lambda(i, j)
        for row in blk.rows:
            t = ss.row_tensor(i, j, row.k, lams)
            assert liealg.is_semisimple(t), (i, j, row.k)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_ss_tables_all():
    report = ss.verify_ss_tables()
    assert report["ok"], report["failures"][:3]
    assert report["blocks"] == 37
    assert report["rows"] == 162
    assert report["sizes"]["1.1"] == 12
    assert report["sizes"]["3.1"] == 4
    assert report["sizes"]["10.1"] == 2


def test_verify_single_case():
    report = ss.verify_ss_tables(case=7)
    assert report["ok"]
    assert report["blocks"] == 2
    assert report["rows"] == 4


def test_check_row_negative_control():
    # a corrupted representative is rejected with its row identifier
    lams = ss.default_lambda(2, 1)
    t = ss.row_tensor(2, 1, 1, lams)
    mutated = Tensor(tuple(-c for c in t.c))
    with pytest.raises(ss.TableRowError) as exc:
        ss.check_row(2, 1, 1, lams=lams, tensor=mutated)
    assert exc.value.row == (2, 1, 1)


def test_check_row_accepts_genuine():
    out = ss.check_row(1, 3, 2)
    assert out["ok"]


def test_check_row_outside_span_fails_basis():
    lams = ss.default_lambda(2, 1)
    coeffs = list(ss.row_tensor(2, 1, 1, lams).c)
    coeffs[1] = ONE  # entry 1 lies off every basis pair
    with pytest.raises(ss.TableRowError) as exc:
        ss.check_row(2, 1, 1, lams=lams, tensor=Tensor(tuple(coeffs)))
    assert exc.value.check == "basis"


def test_verify_computes_each_row_invariant_once(monkeypatch):
    # each row's tensor invariants once, and the reference invariants once
    # per (family, parameters): the rows of a block share them, also across
    # single-row checks, and a repeated pass computes none
    calls = []
    per_tensor = invariants.invariants_of

    def counting(t):
        calls.append(t)
        return per_tensor(t)

    def computed():
        # the uncached reference computations so far
        return ss._orbit_invariants.cache_info().misses

    def orbits(blks):
        # the (family, parameters) pairs of the rows' complex orbits: one
        # per block
        return {(blk.i, ss.default_lambda(blk.i, blk.j)) for blk in blks}

    monkeypatch.setattr(invariants, "invariants_of", counting)
    # family 3 has four rows per block, family 10 two
    for i in (3, 10):
        family = [blk for blk in ss.blocks() if blk.i == i]
        ss._orbit_invariants.cache_clear()
        for cold in (True, False):
            calls.clear()
            before = computed()
            report = ss.verify_ss_tables(i)
            references = computed() - before
            assert report["ok"]
            assert references == (len(orbits(family)) if cold else 0)
            assert references <= 2 * report["blocks"]
            assert len(calls) == report["rows"] + references
        ss._orbit_invariants.cache_clear()
        calls.clear()
        before = computed()
        for blk in family:
            for row in blk.rows:
                ss.check_row(i, blk.j, row.k)
        references = computed() - before
        assert references == len(orbits(family))
        assert len(calls) == report["rows"] + references
    # one reference for a single-row check, none when it is repeated
    ss._orbit_invariants.cache_clear()
    for expected in (1, 0):
        before = computed()
        ss.check_row(10, 1, 1)
        assert computed() - before == expected


def test_warm_caches_still_reject_a_perturbed_row():
    # with the reference invariants and the row witnesses cached, a
    # perturbed representative fails, and so does a row whose tensor is
    # twice the printed one: no Weyl witness carries q(lams) onto it
    for i, j in ((3, 1), (10, 1)):
        blk = ss.block(i, j)
        lams = ss.default_lambda(i, j)
        assert ss.verify_ss_tables(i)["ok"]
        for row in blk.rows:
            ss.check_row(i, j, row.k, lams)
            good = ss.row_tensor(i, j, row.k, lams)
            for pos in range(16):
                coeffs = list(good.c)
                coeffs[pos] = coeffs[pos] + ONE
                with pytest.raises(ss.TableRowError):
                    ss.check_row(i, j, row.k, lams, tensor=Tensor(tuple(coeffs)))
            doubled = dataclasses.replace(
                row, matrix=tuple(tuple(rat(2) * c for c in r) for r in row.matrix))
            assert [f["check"] for f in ss._verify_row(blk, doubled, lams)] == ["conjugate"]


def test_orbit_check_compares_with_the_reference(monkeypatch):
    reference = ss._orbit_invariants

    def shifted(i, params):
        inv = reference(i, params)
        return dataclasses.replace(inv, H=inv.H + ONE)

    monkeypatch.setattr(ss, "_orbit_invariants", shifted)
    report = ss.verify_ss_tables(3)
    assert [f["check"] for f in report["failures"]] == ["orbit"] * report["rows"]


def test_semisimplicity_rests_on_the_basis(monkeypatch):
    calls = []
    per_tensor = liealg.is_semisimple

    def counting(x):
        calls.append(x)
        return per_tensor(x)

    monkeypatch.setattr(liealg, "is_semisimple", counting)
    t = ss.row_tensor(1, 1, 1, ss.default_lambda(1, 1))
    ss.check_row(1, 1, 1)
    assert ss.classify_semisimple(t).k == 1
    assert calls == []
    # a basis that is not a commuting semisimple family fails every row,
    # and classification falls back to the per-tensor test
    monkeypatch.setattr(cw, "cartan_is_semisimple", lambda m: False)
    with pytest.raises(ss.TableRowError) as exc:
        ss.check_row(1, 1, 1)
    assert exc.value.check == "semisimple"
    assert ss.classify_semisimple(t).k == 1
    assert calls == [t]


def _reference_row_solve(row, vec):
    # plain elimination on the row matrix
    sol = la.solve([list(r) for r in row.matrix], list(vec))
    return None if sol is None else tuple(sol)


def test_row_solve_matches_elimination():
    count = 0
    for blk in ss.blocks():
        lams = ss.default_lambda(blk.i, blk.j)
        for row in blk.rows:
            count += 1
            vec = row.coordinates(lams)
            assert row.solve(vec) == _reference_row_solve(row, vec) == tuple(lams)
            bumped = [vec[:p] + (vec[p] + ONE,) + vec[p + 1:] for p in range(4)]
            results = [row.solve(b) for b in bumped]
            assert results == [_reference_row_solve(row, b) for b in bumped]
            if len(row.matrix[0]) < 4:
                assert None in results
    assert count == 162


def _field_eliminator(matrix):
    return ss._field_rows(*ss._gaussian_eliminator(matrix))


def _family_columns(i):
    # u-coordinates of the family's canonical element per parameter: the
    # transpose of its h_basis
    return tuple(tuple(rat(b[r]) for b in cw.subsystem(i).h_basis) for r in range(4))


def _reference_eliminator(matrix):
    # one field rref of [matrix | I]; the first n pivots must be the columns
    n, size = len(matrix[0]), len(matrix)
    reduced, pivots = la.rref(
        [list(r) + [ONE if c == k else ZERO for c in range(size)] for k, r in enumerate(matrix)]
    )
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("matrix has linearly dependent columns")
    return tuple(tuple(r[n:]) for r in reduced)


def test_eliminator_matches_the_field_rref():
    matrices = [row.matrix for blk in ss.blocks() for row in blk.rows]
    matrices += [_family_columns(i) for i in range(1, 11)]
    assert len(matrices) == 172
    for matrix in matrices:
        assert _field_eliminator(matrix) == _reference_eliminator(matrix), matrix


_GAUSSIAN_ENTRIES = st.builds(
    lambda a, b, d: CycNum((a, 0, 0, 0, b, 0, 0, 0), d),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4),
)


@seed(2501)
@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_GAUSSIAN_ENTRIES, min_size=n, max_size=n),
                           min_size=4, max_size=4)
    ),
    st.integers(0, 4),
)
def test_eliminator_matches_the_field_rref_on_gaussian_matrices(matrix, zeros):
    # the first `zeros` rows start with 0, so the first pivot needs a row
    # swap (or, for all four, the first column vanishes)
    matrix = tuple(tuple([ZERO] + r[1:] if k < zeros else r) for k, r in enumerate(matrix))
    try:
        want = _reference_eliminator(matrix)
    except ArithmeticError:
        with pytest.raises(ArithmeticError, match="linearly dependent"):
            _field_eliminator(matrix)
        return
    got = _field_eliminator(matrix)
    assert got == want
    n = len(matrix[0])
    product = [la.mat_vec(got, list(col)) for col in zip(*matrix)]
    assert product == [[ONE if r == c else ZERO for r in range(4)] for c in range(n)]


def test_eliminator_rejects_dependent_columns_and_other_entries():
    cols = _family_columns(1)
    doubled = tuple(r[:3] + (rat(2) * r[2],) for r in cols)
    with pytest.raises(ArithmeticError, match="linearly dependent"):
        _field_eliminator(doubled)
    with pytest.raises(ArithmeticError, match="linearly dependent"):
        _reference_eliminator(doubled)
    bent = ((cols[0][0] * _SQRT2,) + cols[0][1:],) + cols[1:]
    _reference_eliminator(bent)
    with pytest.raises(ArithmeticError, match="not a Gaussian rational"):
        _field_eliminator(bent)
    # the exact division of the elimination steps: (5 + 0i)/(1 + 2i) = 1 − 2i
    assert ss._gaussian_quotient(5, 0, (1, 2)) == (1, -2)
    assert ss._gaussian_quotient(-6, 4, (2, 0)) == (-3, 2)
    for re, im, q in ((3, 1, (2, 0)), (5, 1, (1, 2))):
        with pytest.raises(ArithmeticError, match="inexact division"):
            ss._gaussian_quotient(re, im, q)


def test_complex_conjugator_matches_a_full_scan():
    # the witnesses of a row are the w with diag(tau)·M = W[w]⁻¹·H, found
    # here by an integer scan of all of W (twice both sides, with W[w]⁻¹
    # the transpose of the orthogonal W[w]); they form one coset
    # W_Pi(i)·w, and the row witness is its least element
    mul = cw.weyl_table().mul
    images = {
        i: [[int(2 * sum(mat[a][r] * h[a] for a in range(4)))
             for r in range(4) for h in cw.subsystem(i).h_basis]
            for mat in cw.weyl_group()]
        for i in range(1, 11)
    }
    sizes = {}
    for blk in ss.blocks():
        w_pi = cw.w_pi_group(blk.i)
        for row in blk.rows:
            scaled = [tau * c for tau, r in zip(cw.twist_factors(blk.m), row.matrix) for c in r]
            assert all(v.is_rational() for v in scaled), (blk.i, blk.j, row.k)
            scaled = [2 * v.to_fraction() for v in scaled]
            coset = [w for w, image in enumerate(images[blk.i]) if image == scaled]
            assert coset, (blk.i, blk.j, row.k)
            assert coset == sorted(mul[p][coset[0]] for p in w_pi), (blk.i, blk.j, row.k)
            assert ss._row_witness(blk.i, blk.m, row.matrix) == coset[0], (blk.i, blk.j, row.k)
            sizes.setdefault(blk.i, set()).add(len(coset))
    assert sizes == {i: {n} for i, n in zip(range(1, 11), (1, 2, 6, 4, 4, 4, 24, 24, 24, 8))}


def test_row_witnesses_are_pinned():
    witnesses = [(blk.i, blk.j, row.k, ss._row_witness(blk.i, blk.m, row.matrix))
                 for blk in ss.blocks() for row in blk.rows]
    assert len(witnesses) == 162
    digest = hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()
    assert digest == "86961437d9f32daed72da22c25dc87ec3861d86512b174139e4af2e5e02507a2"


def test_complex_conjugator_finds_a_regular_point():
    # every row passes at regular parameters, and the conjugate check needs
    # them: the wall 2 = 1 + 1 of block (2, 1) fails it on every row
    for blk in ss.blocks():
        lams = ss.default_lambda(blk.i, blk.j)
        for sample in (lams, tuple(rat(3) * v for v in lams)):
            assert ss._is_regular(blk.i, sample), (blk.i, blk.j)
            for row in blk.rows:
                assert ss._verify_row(blk, row, sample) == [], (blk.i, blk.j, row.k)
    blk = ss.block(2, 1)
    wall = (rat(2), rat(1), rat(1))
    assert not blk.reality.accepts(wall)
    assert not ss._is_regular(2, wall)
    for row in blk.rows:
        assert [f["check"] for f in ss._verify_row(blk, row, wall)] == ["conjugate"]


def test_a_sample_point_that_is_not_regular_is_rejected(monkeypatch):
    # 2 = 1 + 1 puts the sample point of family 2 on a wall
    monkeypatch.setitem(ss._SAMPLE_MAGNITUDES, 2, (2, 1, 1))
    with pytest.raises(ArithmeticError, match="not regular"):
        ss._witness_table.__wrapped__(2)


def test_complex_conjugator_finds_none_off_the_family():
    # a row with any one column doubled has no Weyl witness; in the coupled
    # blocks its tensor is not real either
    cases = 0
    for blk in ss.blocks():
        lams = ss.default_lambda(blk.i, blk.j)
        for row in blk.rows:
            for col in range(len(row.matrix[0])):
                matrix = tuple(r[:col] + (rat(2) * r[col],) + r[col + 1:] for r in row.matrix)
                assert ss._row_witness(blk.i, blk.m, matrix) is None, (blk.i, blk.j, row.k, col)
                checks = [f["check"] for f in
                          ss._verify_row(blk, dataclasses.replace(row, matrix=matrix), lams)]
                coupled = "coupled" in blk.reality.tags
                assert checks == (["real", "conjugate"] if coupled else ["conjugate"])
                cases += 1
    assert cases == 436


@pytest.fixture
def fresh_witnesses():
    ss._row_witness.cache_clear()
    yield
    ss._row_witness.cache_clear()


def _family_1_rows():
    rows = [(blk.j, row.k) for blk in ss.blocks() if blk.i == 1 for row in blk.rows]
    assert len(rows) == 44
    return rows


def test_a_sign_flip_in_one_restricted_column_fails_conjugate(monkeypatch, fresh_witnesses):
    # composing each conjugator with the lift of the reflection of u_k flips
    # the sign of u_k's image; family 1's parameters are its u-coordinates,
    # so every row's witness check fails
    lifted = ss._lifted_conjugator
    for k in range(4):
        flip = cw.weyl_index(cw.wmat([[-1 if a == b == k else int(a == b) for b in range(4)]
                                      for a in range(4)]))
        monkeypatch.setattr(ss, "_lifted_conjugator",
                            lambda m, w, s=ss.weyl_lift(flip): g_mul(lifted(m, w), s))
        ss._row_witness.cache_clear()
        for j, k_row in _family_1_rows():
            with pytest.raises(ss.TableRowError) as exc:
                ss.check_row(1, j, k_row)
            assert exc.value.check == "conjugate", (k, j, k_row)
    monkeypatch.undo()
    ss._row_witness.cache_clear()
    for j, k_row in _family_1_rows():
        ss.check_row(1, j, k_row)


def test_a_conjugator_moved_by_another_element_fails_conjugate(monkeypatch, fresh_witnesses):
    lifted = ss._lifted_conjugator
    other = gelt_from_names("M,M,M,M")
    monkeypatch.setattr(ss, "_lifted_conjugator", lambda m, w: g_mul(lifted(m, w), other))
    for j, k in _family_1_rows():
        with pytest.raises(ss.TableRowError) as exc:
            ss.check_row(1, j, k)
        assert exc.value.check == "conjugate", (j, k)


def test_basis_coords_match_elimination():
    def reference(m, t):
        basis = cw.seven_cartans()[m - 1].basis
        sol = la.solve([[vec.c[pos] for vec in basis] for pos in range(16)], list(t.c))
        return None if sol is None else tuple(sol)

    tensors = [
        ss.row_tensor(blk.i, blk.j, row.k, ss.default_lambda(blk.i, blk.j))
        for blk in ss.blocks()
        for row in blk.rows
    ]
    # outside every span: a pair entry matching neither sign, and an entry
    # off the pairs on top of a point of the all-plus span
    unpaired = [ZERO] * 16
    unpaired[0], unpaired[15], unpaired[6], unpaired[9] = ONE, rat(2), ONE, MINUS_ONE
    off_pair = list(cw.u_basis()[0].c)
    off_pair[1] = ONE
    outside = [Tensor(unpaired), Tensor(off_pair)]
    for m in range(1, 8):
        for t in tensors + outside:
            assert cw.basis_coords(m, t) == reference(m, t)
        assert all(cw.basis_coords(m, t) is None for t in outside)


# ---------------------------------------------------------------------------
# real coordinate symmetries
# ---------------------------------------------------------------------------


def test_real_weyl_group_sizes():
    sizes = [len(ss.real_weyl_group(m)) for m in range(1, 8)]
    assert sizes == [16, 16, 4, 8, 8, 8, 4]


def test_real_weyl_group_contains_identity_and_closes():
    from fractions import Fraction

    ident = tuple(
        tuple(Fraction(1 if a == b else 0) for b in range(4)) for a in range(4)
    )
    for m in range(1, 8):
        grp = set(ss.real_weyl_group(m))
        assert ident in grp
        sample = sorted(grp)[:6]
        for w in sample:
            for v in sample:
                prod = tuple(
                    tuple(
                        sum(w[a][c] * v[c][b] for c in range(4)) for b in range(4)
                    )
                    for a in range(4)
                )
                assert prod in grp


def test_real_weyl_group_half_turns():
    # the all-plus basis admits eight rotation-type symmetries whose matrix
    # entries are halves
    halves = [
        w
        for w in ss.real_weyl_group(1)
        if any(abs(w[a][b]) == rat(1, 2).to_fraction() for a in range(4) for b in range(4))
    ]
    assert len(halves) == 8


def _normalizer_pairs():
    """The 6144 normalizer elements, coset by coset, each with its action."""
    kernel, lifts = galois.normalizer_cosets()
    return [(galois.slot_mul(g, k), w) for g, w in lifts for k in kernel]


def test_real_weyl_group_matches_fraction_keyed_reference():
    pairs = _normalizer_pairs()
    assert len({w for _, w in pairs}) == 192
    mul, inv, conj = galois.slot_mul, galois.slot_inv, galois.slot_conj
    action = dict(pairs)
    elements = galois.build_normalizer().elements
    for m in range(1, 8):
        nstar = galois.encode(cw.seven_cartans()[m - 1].nstar)
        nstar_inv = inv(nstar)
        reference = set()
        # every lift of every symmetry, scanned for one fixed by the twist
        for g in elements:
            w = action[g]
            if w not in reference:
                twisted = mul(mul(nstar, conj(g)), nstar_inv)
                if twisted == g:
                    reference.add(w)
        assert ss.real_weyl_group(m) == tuple(cw.weyl_group()[w] for w in sorted(reference)), m


def test_coordinate_moves_match_the_entrywise_formula():
    # entry (a, b) of the move of w is tau_a⁻¹·w_ab·tau_b
    for m in range(1, 8):
        taus = cw.twist_factors(m)
        want = tuple(
            tuple(tuple(taus[a].inverse() * rat(w[a][b]) * taus[b] for b in range(4))
                  for a in range(4))
            for w in ss.real_weyl_group(m)
        )
        assert ss._coordinate_moves(m) == want, m


def test_coordinate_moves_reject_a_non_real_action(monkeypatch):
    # an imaginary twist factor on one axis makes the moves that mix that
    # axis with another imaginary
    taus = cw.twist_factors(1)
    bent = (IMAG * taus[0],) + taus[1:]
    monkeypatch.setattr(cw, "twist_factors", lambda m: bent)
    ss._coordinate_moves.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="non-real"):
            ss._coordinate_moves(1)
    finally:
        ss._coordinate_moves.cache_clear()


def test_family_one_rows_meet_each_real_weyl_orbit_once():
    # Family 1 is regular: two points of one real Cartan subspace are in one
    # real orbit exactly when a real Weyl move relates them.  So the real
    # points among the 192 Weyl images of a block's first row fall into
    # orbits of the real Weyl group, and the block lists one row per orbit.
    orbit_counts, group_orders = [], []
    for j in range(1, 8):
        blk = ss.block(1, j)
        gstar = cw.seven_cartans()[blk.m - 1].gstar
        ginv = g_inv(gstar)
        lams = ss.default_lambda(1, j)

        def mu(k):
            return cw.basis_coords(1, act_tensor(ginv, ss.row_tensor(1, j, k, lams)))

        images = {cw.w_act_coords(w, mu(1)) for w in cw.weyl_group()}
        assert len(images) == 192, j
        real = {nu for nu in images
                if act_tensor(gstar, cw.from_basis_coords(1, nu)).is_real()}
        group = ss.real_weyl_group(blk.m)
        orbit_of, orbits = {}, 0
        for start in real:
            if start in orbit_of:
                continue
            for w in group:
                image = cw.w_act_coords(w, start)
                assert image in real
                orbit_of[image] = orbits
            orbits += 1
        hits = sorted(orbit_of.get(mu(row.k), -1) for row in blk.rows)
        assert hits == list(range(orbits)), j
        orbit_counts.append(orbits)
        group_orders.append(len(group))
    assert orbit_counts == [12, 12, 4, 4, 4, 4, 4]
    assert group_orders == [16, 16, 4, 8, 8, 8, 4]


def test_weyl_lift_is_least_lift():
    least = {}
    for x, w in _normalizer_pairs():
        g = galois.decode(x)
        if w not in least or g_key(g) < g_key(least[w]):
            least[w] = g
    assert len(least) == 192
    for w, g in least.items():
        lift = ss.weyl_lift(w)
        assert cw.h_action_matrix(lift) == cw.weyl_group()[w]
        assert lift == g
        assert ss._weyl_lift_inverse(w) == g_inv(lift)


def _plain(x):
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, CycNum):
        return [list(x.nums), x.den]
    if isinstance(x, int):
        return x
    return [_plain(v) for v in x]


def _digest(x) -> str:
    text = json.dumps(_plain(x), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: SHA-256 of each value in order, as computed with per-entry Fraction matrix
#: products and Gauss-Jordan inverses; the integer arithmetic must reproduce
#: every value and every ordering.
_PINNED_DIGESTS = {
    "weyl_group": "4bdab51c445654f740f3fdd993576720dd2dd042038cb2e72d434fc7062275b2",
    "real_weyl_group": "9e858d35438fca5a984285a288982298bf195fc3d565e73e2c7a5505d9b49f95",
    "gamma_h1": "475d72e452d80eec72dd16a2fae7e52ba5820dd2ed514ad8b7ab9027cd7a2584",
    "h1_of_normalizer": "11651c6c2d4617d4432cd1f698f589958eaff7c2900b4703fc71561b218e5c8a",
    "normalizer": "82e749a9c53aa93bfe877171142c792bfb31c80677259ba5ecb708875102c1e9",
}


def test_group_values_are_pinned():
    h1 = galois.h1_of_normalizer()
    values = {
        "weyl_group": cw.weyl_group(),
        "real_weyl_group": [ss.real_weyl_group(m) for m in range(1, 8)],
        "gamma_h1": [cw.gamma_h1(i) for i in range(1, 11)],
        "h1_of_normalizer": [galois.decode(z) for z in h1.representatives],
        "normalizer": [galois.decode(g) for g in galois.build_normalizer().elements],
    }
    assert {name: _digest(v) for name, v in values.items()} == _PINNED_DIGESTS
    assert h1.sizes == (24, 24, 96, 96, 96, 192, 192)


def test_compiled_table_is_pinned():
    # every block's basis and every row's class index and exact
    # coefficient matrix, as compiled from the stored entries
    table = [(b.i, b.j, b.m, r.k, r.matrix) for b in ss.blocks() for r in b.rows]
    assert _digest(table) == (
        "d6363bedbc5c9f01dc988fec9ff0d8d6de155707e5abfd7cb8950e626c6260b2"
    )


def test_normalizer_pairs_lift_each_symmetry_32_times():
    pairs = _normalizer_pairs()
    lifts = {}
    for _, w in pairs:
        lifts[w] = lifts.get(w, 0) + 1
    assert len(lifts) == 192
    assert set(lifts.values()) == {32}
    assert set(lifts) == set(range(len(cw.weyl_group())))
    for idx in random.Random(6144).sample(range(len(pairs)), 200):
        g, w = pairs[idx]
        assert cw.h_action_matrix(galois.decode(g)) == cw.weyl_group()[w]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_examples():
    u = cw.u_basis()
    t = Tensor(
        tuple(a + b + c for a, b, c in zip(u[0].c, u[1].c, u[2].c))
    )
    lab = ss.classify_semisimple(t)
    assert (lab.i, lab.j, lab.k, lab.m) == (2, 1, 1, 1)
    assert lab.lams == (ONE, ONE, ONE)

    p, _ = ss.real_point(10, 2, (IMAG,))
    lab = ss.classify_semisimple(p)
    assert (lab.i, lab.j, lab.k, lab.m) == (10, 2, 1, 2)
    assert lab.lams == (IMAG,)


def test_classify_round_trip_all_rows():
    for blk in ss.blocks():
        lams = ss.default_lambda(blk.i, blk.j)
        for row in blk.rows:
            t = ss.row_tensor(blk.i, blk.j, row.k, lams)
            lab = ss.classify_semisimple(t)
            assert (lab.i, lab.j, lab.k) == (blk.i, blk.j, row.k)
            assert lab.lams == tuple(lams)


def test_classify_is_idempotent_on_labels():
    # classifying a label's own instantiation returns the label unchanged,
    # also when the original input used non-canonical parameter signs
    rng = random.Random(3)
    cases = [(1, 1), (2, 1), (2, 4), (4, 1), (10, 1)]
    for (i, j) in cases:
        blk = ss.block(i, j)
        base = ss.default_lambda(i, j)
        for row in blk.rows[:2]:
            signs = [ONE if rng.random() < 0.5 else MINUS_ONE for _ in base]
            lams = tuple(v * s for v, s in zip(base, signs))
            if not blk.reality.accepts(lams):
                continue
            t = ss.row_tensor(i, j, row.k, lams)
            lab = ss.classify_semisimple(t)
            assert (lab.i, lab.j) == (i, j)
            rep = ss.row_tensor(lab.i, lab.j, lab.k, lab.lams)
            lab2 = ss.classify_semisimple(rep)
            assert lab2 == lab


def test_classify_canonicalizes_parameters():
    # a sign-flipped admissible parameter classifies to an all-positive one
    blk = ss.block(2, 1)
    lams = (MINUS_ONE, rat(3), rat(5))
    assert blk.reality.accepts(lams)
    t = ss.row_tensor(2, 1, 1, lams)
    lab = ss.classify_semisimple(t)
    assert (lab.i, lab.j) == (2, 1)
    assert lab.lams == (ONE, rat(3), rat(5))


def test_classify_errors():
    e0 = [ZERO] * 16
    e0[0] = ONE
    with pytest.raises(ValueError, match="nilpotent"):
        ss.classify_semisimple(Tensor(tuple(e0)))
    with pytest.raises(ValueError, match="zero"):
        ss.classify_semisimple(Tensor(tuple([ZERO] * 16)))
    imag = [ZERO] * 16
    imag[0] = IMAG
    imag[15] = IMAG
    with pytest.raises(ValueError, match="not a real state"):
        ss.classify_semisimple(Tensor(tuple(imag)))
    with pytest.raises(TypeError):
        ss.classify_semisimple("not a tensor")


def test_classify_degenerate_parameters_fall_to_smaller_family():
    # an all-nonzero element whose parameters hit the excluded hyperplane
    # (first coordinate equal to the sum of the others) is singular; the
    # classifier resolves it into the smaller family via a real rotation
    u = cw.u_basis()
    t = Tensor(
        tuple(
            rat(6) * a + rat(3) * b + rat(2) * c + d
            for a, b, c, d in zip(u[0].c, u[1].c, u[2].c, u[3].c)
        )
    )
    assert liealg.is_semisimple(t)
    lab = ss.classify_semisimple(t)
    assert lab.i == 2
    assert ss.row_tensor(lab.i, lab.j, lab.k, lab.lams) != t  # moved frame


def test_classify_general_position():
    # a real semisimple tensor outside every stored basis span is flagged
    from artifact.groupaction import gelt, mat2, named

    q = cw.parametrize(1, (ONE, rat(2), rat(3), rat(5)))
    shear = gelt(mat2(ONE, ONE, ZERO, ONE), named("I"), named("I"), named("I"))
    t = act_tensor(shear, q)
    assert t.is_real()
    assert liealg.is_semisimple(t)
    assert cw.containing_bases(t) == []
    with pytest.raises(ss.GeneralPositionError) as exc:
        ss.classify_semisimple(t)
    payload = exc.value.payload
    assert "families" in payload and "invariants" in payload
    assert 1 in payload["families"]


def _reference_classify(t):
    # the row-by-row loop classify_semisimple ran before its plan: every real
    # move against every row, each pair solved and tested in field arithmetic
    if not t.is_real():
        raise ValueError("not a real state")
    if t.is_zero():
        raise ValueError("zero state: no orbit label")
    bases = cw.containing_bases(t)
    if not any(cw.cartan_is_semisimple(m) for m, _ in bases) and not liealg.is_semisimple(t):
        raise ValueError("has nilpotent part")
    candidates = []
    for m, coords in bases:
        for move in ss._coordinate_moves(m):
            vec = tuple(la.mat_vec(move, coords))
            moved = 0 if vec == coords else 1
            for blk in ss._blocks_by_basis(m):
                for row in blk.rows:
                    lams = row.solve(vec)
                    if lams is None or not blk.reality.accepts(lams):
                        continue
                    candidates.append(
                        (ss._lambda_key(lams), moved, blk.j, row.k, m, blk.i, lams)
                    )
    if not candidates:
        cdim = liealg.centralizer_dim(t)
        ddim = liealg.derived_dim_of_centralizer(t)
        raise ss.GeneralPositionError({
            "centralizer_dim": cdim,
            "derived_centralizer_dim": ddim,
            "families": sorted(
                i for i, dims in ss._FAMILY_DIMS.items() if dims == (cdim, ddim)
            ),
            "invariants": invariants.invariants_of(t),
        })
    _, _, j, k, m, i, lams = min(candidates, key=lambda c: c[:6])
    return ss.SSOrbitLabel(i=i, j=j, k=k, m=m, lams=tuple(lams))


def _outcome(classify, t):
    try:
        return classify(t)
    except ss.GeneralPositionError as exc:
        return ("general position", exc.payload)
    except ValueError as exc:
        return ("ValueError", str(exc))


_NONZERO_RATIONALS = st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 4)
)


@pytest.mark.parametrize("ij", [(b.i, b.j) for b in ss.blocks()], ids=str)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_classify_matches_the_row_by_row_loop(ij, data):
    # admissible parameters, and parameters on an avoid hyperplane or with a
    # zero entry, which the classifier resolves through other rows or rejects
    blk = ss.block(*ij)
    row = data.draw(st.sampled_from(blk.rows))
    lams = list(_draw_lambda(lambda: data.draw(_NONZERO_RATIONALS), blk.reality))
    kinds = ["admissible"]
    kinds += [("avoid", a) for a in blk.reality.avoid]
    kinds += [("zero", p) for p in range(len(lams))]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "admissible":
        assume(blk.reality.accepts(lams))
        t = ss.row_tensor(blk.i, blk.j, row.k, lams)
    else:
        if kind[0] == "zero":
            lams[kind[1]] = ZERO
        else:
            a = kind[1]
            p = max(q for q, c in enumerate(a) if c)
            rest = _rat_dot(a[:p] + (0,) + a[p + 1:], lams)
            lams[p] = rest.scale(Fraction(-1, a[p]))
        t = cw.from_basis_coords(blk.m, row.coordinates(lams))
    assert _outcome(ss.classify_semisimple, t) == _outcome(_reference_classify, t)


def test_plan_decides_every_pair_like_solve_and_accepts():
    # each (move, row) the plan admits, and only those, has a solution that
    # accepts takes, with the same parameters and the same moved flag
    admitted = 0
    for blk in ss.blocks():
        lams = ss.default_lambda(blk.i, blk.j)
        for row in blk.rows:
            t = ss.row_tensor(blk.i, blk.j, row.k, lams)
            for m, coords in cw.containing_bases(t):
                want = set()
                for s, move in enumerate(ss._coordinate_moves(m)):
                    vec = tuple(la.mat_vec(move, coords))
                    for b in ss._blocks_by_basis(m):
                        for r in b.rows:
                            sol = r.solve(vec)
                            if sol is not None and b.reality.accepts(sol):
                                want.add((s, int(vec != coords), b.i, b.j, r.k, sol))
                got = [(s, moved, b.i, b.j, r.k, sol)
                       for s, moved, b, r, sol in ss._matches(m, coords)]
                assert len(got) == len(set(got))
                assert set(got) == want, (blk.i, blk.j, row.k, m)
                admitted += len(got)
    assert admitted > 162


@pytest.fixture
def fresh_plans():
    ss._plan.cache_clear()
    yield
    ss._plan.cache_clear()


_SQRT2 = CycNum((0, 0, 1, 0, 0, 0, -1, 0))


def test_plan_rejects_a_move_that_is_not_rational(monkeypatch, fresh_plans):
    moves = ss._coordinate_moves(1)
    bent = (tuple(tuple(v * _SQRT2 for v in r) for r in moves[0]),) + moves[1:]
    assert all(v.is_real() for r in bent[0] for v in r)
    monkeypatch.setattr(ss, "_coordinate_moves", lambda m: bent)
    with pytest.raises(ArithmeticError, match="not rational"):
        ss.classify_semisimple(ss.row_tensor(1, 1, 1, ss.default_lambda(1, 1)))


def test_plan_rejects_an_eliminator_that_is_not_gaussian(monkeypatch, fresh_plans):
    # a row scaled by sqrt(2) has an eliminator with entries in Q(sqrt 2)
    blk = ss.block(7, 1)
    row = blk.rows[0]
    scaled = dataclasses.replace(
        row, matrix=tuple(tuple(c * _SQRT2 for c in r) for r in row.matrix)
    )
    bent = dataclasses.replace(blk, rows=(scaled,) + blk.rows[1:])
    others = tuple(b for b in ss._blocks_by_basis(1) if b is not blk)
    monkeypatch.setattr(ss, "_blocks_by_basis", lambda m: others + (bent,))
    with pytest.raises(ArithmeticError, match="not a Gaussian rational"):
        ss.classify_semisimple(ss.row_tensor(1, 1, 1, ss.default_lambda(1, 1)))


def test_classify_rejects_coordinates_that_are_not_real(monkeypatch):
    t = ss.row_tensor(1, 1, 1, ss.default_lambda(1, 1))
    (m, coords), = cw.containing_bases(t)
    monkeypatch.setattr(
        cw, "containing_bases", lambda x: [(m, (IMAG * coords[0],) + coords[1:])]
    )
    with pytest.raises(ArithmeticError, match="not real"):
        ss.classify_semisimple(t)


# ---------------------------------------------------------------------------
# stabilizer cohomology of the family parameters
# ---------------------------------------------------------------------------


def test_centralizer_class_counts():
    expected = {1: 12, 2: 8, 3: 4, 4: 6, 7: 2, 10: 5}
    for i, count in expected.items():
        classes = ss.centralizer_classes(i)
        spec = ss.centralizer_spec(i)
        report = galois.verify_class_list(classes, spec)
        assert report["passed"], (i, report)
        assert len(classes.representatives) == count


def test_centralizer_generators_fix_parameter():
    for i in (1, 2, 3, 4, 7, 10):
        spec = ss.centralizer_spec(i)
        lams = ss.default_lambda(i, 1)
        q = cw.parametrize(i, lams)
        for g in tuple(spec.finite_gens) + tuple(spec.torus_samples):
            assert act_tensor(g, q) == q, (i, g)


def test_gamma_class_counts_match_block_counts():
    expected = {1: 7, 2: 8, 3: 2, 4: 4, 7: 2, 10: 2}
    for i, count in expected.items():
        assert len(cw.gamma_h1(i)) == count
        assert len([b for b in ss.blocks() if b.i == i]) == count
