"""First Galois cohomology of finite subgroups of S⁴ under complex conjugation.

The objects classified elsewhere in this package carry an action of complex
conjugation σ.  For a group ``G`` with σ(G) = G, the relevant invariant is
the set

    H¹(G, σ) = {c ∈ G : c·σ(c) = 1} / (c ~ a·c·σ(a)⁻¹ for a ∈ G),

the first nonabelian cohomology set of Z/2Z acting on G through σ.  Every
such G here is a subgroup of S⁴, for the group S below.  This module
provides:

* the slot group S: the 48 2×2 matrices that fill every slot of every finite
  group of 4-tuples here.  An element of S⁴ is written as a 4-tuple of
  indices into S, sorted by ``groupaction.m2_key``, so that products,
  inverses and conjugates are table lookups and the tuple is its own key,
  ordered as ``groupaction.g_key`` orders the matrices (:func:`encode`,
  :func:`decode`).  Conjugation is checked once, on the whole product
  table, to be an involutive automorphism of S, so it is one of S⁴,
* a container :class:`FiniteConjGroup` for a subgroup of S⁴: its elements
  and generators as index tuples,
* exact enumeration of 1-cocycles and their twisted-conjugacy classes with
  deterministic (lexicographically least) representatives; the classes, like
  every group closure here, come from the breadth-first orbit engine of
  :mod:`artifact._orbits`,
* the normalizer ``N`` of the diagonalizable subspace inside the product of
  four copies of SL(2, C), built from its group structure: the order-32
  kernel ``K`` (the elements acting trivially on the subspace) and one lift
  for each of the 192 coordinate symmetries, with a proof that these 192
  cosets of ``K`` make up the whole group, the symmetry of an element read
  from the least element of its coset, and its cohomology (seven classes),
* the sixteen recorded group elements that induce the order-2 symmetries of
  the diagonalizable subspace, paired with the symmetries they induce: each
  an element of the Weyl group W, named by its index into
  ``cartanweyl.weyl_group()`` and multiplied by ``cartanweyl.weyl_table()``,
* a verifier for externally supplied class lists of stabilizers that may
  have a positive-dimensional identity component: every listed element must
  be a cocycle, no two may be equivalent under the documented finite part or
  the documented identity-component samples, and the count must match.

Everything is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import cartanweyl as cw
from . import groupaction as ga
from ._orbits import orbit, orbit_classes, regular_tables
from .exactfield import INV_SQRT2, IMAG
from .groupaction import GElt


# ---------------------------------------------------------------------------
# the slot group: every finite group here as 4-tuples of indices
# ---------------------------------------------------------------------------


#: An element of S⁴: the indices into :attr:`SlotGroup.mats` of its four slots.
IndexTuple = tuple[int, ...]


@dataclass(frozen=True)
class SlotGroup:
    """The 48 2×2 matrices that fill every slot of the finite groups here.

    They are the group S generated by the slot factors of
    :func:`normalizer_generators`; S is closed under complex conjugation.
    ``mats`` lists them in increasing ``groupaction.m2_key`` order and
    ``index`` maps each matrix to its position, so an element of S⁴ is a
    4-tuple of indices whose lexicographic order is ``groupaction.g_key``
    order.  ``mul[a][b]`` is the index of ``mats[a]·mats[b]``, and
    ``inv[a]`` and ``conj[a]`` are those of its inverse and its complex
    conjugate; ``conj`` is an involutive automorphism of S.
    """

    mats: tuple[ga.Mat2, ...]
    index: dict
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    conj: tuple[int, ...]


@lru_cache(maxsize=1)
def slot_group() -> SlotGroup:
    """Build S and its tables from the slot factors of the normalizer generators.

    S is the orbit of the identity under the factors that enlarge it: a
    factor already in the group the earlier ones generate is skipped (4 of
    the 11 are kept).  Each product of a kept factor and an element is
    formed once, by ``groupaction.m2_mul``, and kept, 48 per factor: the
    orbits read the products they have met, and the left-regular row of
    each kept factor is read off its products.  Every other row of the
    product table is a composition of those
    (:func:`_orbits.regular_tables`).
    Conjugation is checked to be an involutive automorphism on every entry
    of the product table, so it is one of S⁴ slot by slot and of every
    subgroup of S⁴ that it maps into itself; ``ArithmeticError`` otherwise.
    """
    gens: list[ga.Mat2] = []
    products: list[dict] = []  # products[g][m] is gens[g]·m

    def act(m: ga.Mat2, g: int) -> ga.Mat2:
        known = products[g]
        if m not in known:
            known[m] = ga.m2_mul(gens[g], m)
        return known[m]

    found = {ga.I2: ga.I2}
    for f in {m: None for g in normalizer_generators() for m in g}:
        if f not in found:
            gens.append(f)
            products.append({})
            found = orbit(ga.I2, range(len(gens)), act, limit=48,
                          what="the slot group exceeded 48 elements")
    mats = tuple(sorted(found, key=ga.m2_key))
    if len(mats) != 48:
        raise ArithmeticError("expected 48 slot matrices, found %d" % len(mats))
    index = {m: a for a, m in enumerate(mats)}
    rows = [tuple(index[known[m]] for m in mats) for known in products]
    mul, inv = regular_tables(rows, index[ga.I2])
    conj = []
    for m in mats:
        c = index.get(ga.m2_conj(m))
        if c is None:
            raise ArithmeticError("the slot group is not closed under conjugation")
        conj.append(c)
    for a in range(48):
        if conj[conj[a]] != a:
            raise ArithmeticError("conjugation on the slot group is not an involution")
        if any(conj[mul[a][b]] != mul[conj[a]][conj[b]] for b in range(48)):
            raise ArithmeticError("conjugation on the slot group is not an automorphism")
    return SlotGroup(mats=mats, index=index, mul=mul, inv=inv, conj=tuple(conj))


def encode(g: GElt) -> IndexTuple:
    """The index tuple of ``g``; ``ValueError`` if a slot lies outside S."""
    index = slot_group().index
    try:
        return tuple(index[m] for m in g)
    except KeyError:
        raise ValueError("a slot of the element lies outside the 48-element "
                         "slot group") from None


def decode(x: IndexTuple) -> GElt:
    """The group element with slot indices ``x``."""
    mats = slot_group().mats
    return tuple(mats[a] for a in x)


def slot_mul(x: IndexTuple, y: IndexTuple) -> IndexTuple:
    mul = slot_group().mul
    return (mul[x[0]][y[0]], mul[x[1]][y[1]], mul[x[2]][y[2]], mul[x[3]][y[3]])


def slot_inv(x: IndexTuple) -> IndexTuple:
    inv = slot_group().inv
    return (inv[x[0]], inv[x[1]], inv[x[2]], inv[x[3]])


def slot_conj(x: IndexTuple) -> IndexTuple:
    """Entrywise complex conjugation, the twist σ of the groups in S⁴."""
    conj = slot_group().conj
    return (conj[x[0]], conj[x[1]], conj[x[2]], conj[x[3]])


def gelt_closure(gens: Sequence[GElt], limit: int, what: str) -> tuple[IndexTuple, ...]:
    """The group generated by ``gens``, as sorted index tuples, with a hard cap."""
    found = orbit(encode(ga.IDENTITY), [encode(g) for g in gens], slot_mul,
                  limit=limit, what=what)
    return tuple(sorted(found))


@dataclass(frozen=True)
class FiniteConjGroup:
    """A finite subgroup of S⁴, twisted by complex conjugation.

    ``elements`` is the full element list, as index tuples (:func:`encode`)
    in increasing order; ``gens`` generates the group and drives the orbit
    searches.  Products, inverses and the twist σ are :func:`slot_mul`,
    :func:`slot_inv` and :func:`slot_conj`.
    """

    elements: tuple[IndexTuple, ...]
    gens: tuple[IndexTuple, ...]
    tag: str = ""

    def __len__(self) -> int:
        return len(self.elements)


def gelt_group(gens: Sequence[GElt], *, tag: str = "") -> FiniteConjGroup:
    """The group generated by ``gens``, as index tuples."""
    return FiniteConjGroup(
        elements=gelt_closure(gens, 100_000, "group closure exceeded 100000 elements"),
        gens=tuple(encode(g) for g in gens) or (encode(ga.IDENTITY),),
        tag=tag,
    )


# ---------------------------------------------------------------------------
# cocycles and cohomology classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CocycleClassList:
    """Cohomology classes: one representative per twisted-conjugacy class.

    ``representatives`` are the lexicographically least elements of their
    classes, listed in increasing order; ``sizes`` are the matching class
    cardinalities.  ``case_tag`` records which classification case or group
    the list belongs to.
    """

    representatives: tuple
    case_tag: str = ""
    sizes: tuple = ()

    def __len__(self) -> int:
        return len(self.representatives)


def cocycles(group: FiniteConjGroup) -> list[IndexTuple]:
    """All c in G with c·σ(c) = identity, in increasing order.

    ``ValueError`` if σ maps an element of G outside G.
    """
    identity = encode(ga.IDENTITY)
    members = set(group.elements)
    out = []
    for c in group.elements:
        s = slot_conj(c)
        if s not in members:
            raise ValueError("conjugation does not preserve the group")
        if slot_mul(c, s) == identity:
            out.append(c)
    return sorted(out)


def h1(group: FiniteConjGroup, case_tag: str = "") -> CocycleClassList:
    """Twisted-conjugacy classes of cocycles, deterministically represented.

    Two cocycles c, c′ are identified when c′ = a·c·σ(a)⁻¹ for some a in the
    group; that rule defines a group action, so the class of c is its orbit
    under the generators (:func:`_orbits.orbit_classes`, with σ(a)⁻¹ formed
    once per generator).  Representatives are the least element of each
    orbit; because the cocycles are scanned in increasing order, the first
    unseen cocycle is automatically its orbit's minimum.
    """
    twists = [(a, slot_conj(slot_inv(a))) for a in group.gens]
    classes = orbit_classes(cocycles(group), twists,
                            lambda x, t: slot_mul(slot_mul(t[0], x), t[1]))
    return CocycleClassList(
        representatives=tuple(c for c, _ in classes),
        case_tag=case_tag or group.tag,
        sizes=tuple(n for _, n in classes),
    )


# ---------------------------------------------------------------------------
# the normalizer of the diagonalizable subspace
# ---------------------------------------------------------------------------

#: Generators of the stabilizer of a generic diagonalizable element: the
#: finite group (order 32) that fixes every element of the subspace up to
#: simultaneous sign changes of the four coordinates.
_STABILIZER_GEN_NAMES = ("J,J,J,J", "-I,-I,I,I", "-I,I,-I,I", "K,K,K,K")

#: The sixteen recorded lifts: each entry pairs the 4×4 sign/permutation
#: matrix acting on coordinates with a group element inducing it.  The first
#: thirteen are diagonal sign patterns; the last three swap the coordinates
#: pairwise with signs.
_LIFT_TABLE: tuple[tuple[tuple[tuple[int, int, int, int], ...], str], ...] = (
    (((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)), "-I,I,I,I"),
    (((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)), "M,M,-N,N"),
    (((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "L,I,I,L"),
    (((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)), "I,L,I,L"),
    (((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)), "I,I,L,L"),
    (((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)), "I,I,L,-L"),
    (((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)), "I,L,I,-L"),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)), "L,I,I,-L"),
    (((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "M,M,M,M"),
    (((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "N,M,M,N"),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)), "M,N,M,N"),
    (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)), "M,M,N,N"),
    (((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)), "-N,N,N,N"),
    (((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)), "L,L,-K,K"),
    (((0, 0, -1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 0)), "I,K,I,K"),
    (((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)), "K,I,I,K"),
)


def stabilizer_finite_gens() -> tuple[GElt, ...]:
    """Generators of the order-32 stabilizer of a generic element."""
    return tuple(ga.gelt_from_names(s) for s in _STABILIZER_GEN_NAMES)


@lru_cache(maxsize=1)
def weyl_cocycle_lifts() -> tuple[tuple[int, GElt], ...]:
    """The sixteen recorded (symmetry, lift) pairs, symmetries as indices."""
    return tuple((cw.weyl_index(cw.wmat(rows)), ga.gelt_from_names(names))
                 for rows, names in _LIFT_TABLE)


def _hadamard_lift() -> GElt:
    """A lift of an order-2 symmetry mixing all four coordinates.

    The recorded sixteen lifts only induce sign changes and pairwise swaps;
    the full symmetry group of the coordinate functionals also contains
    half-integral reflections.  The unimodular matrix (1/√2)·[[1, i], [i, 1]]
    placed in every slot induces one of them, completing a generating set.
    """
    s = INV_SQRT2
    si = INV_SQRT2 * IMAG
    a = ga.mat2(s, si, si, s)
    return ga.gelt(a, a, a, a)


@lru_cache(maxsize=1)
def normalizer_generators() -> tuple[GElt, ...]:
    """A generating set for the order-6144 normalizer.

    Combines the order-32 stabilizer of a generic element, the sixteen
    recorded coordinate-symmetry lifts, and the half-integral reflection
    lift.  :func:`normalizer_cosets` checks that every generator normalizes
    the diagonalizable subspace.
    """
    gens = list(stabilizer_finite_gens())
    gens.extend(lift for _, lift in weyl_cocycle_lifts())
    gens.append(_hadamard_lift())
    return tuple(gens)


def check_cosets(
    gens: Sequence[tuple[IndexTuple, int]],
    kernel: Sequence[IndexTuple],
    lifts: Sequence[tuple[IndexTuple, int]],
) -> None:
    """Prove that the cosets g_w·K make up the group generated by ``gens``.

    ``gens`` pairs each generator s with its coordinate action, ``kernel``
    is a group K of elements acting trivially, and ``lifts`` pairs one
    product g_w of generators with each coordinate symmetry w; elements are
    index tuples (:func:`encode`), symmetries Weyl group indices, multiplied
    by ``cartanweyl.weyl_table()``.  The lift of the identity must lie in
    K, and for every generator s and every w the element g_{s·w}⁻¹·s·g_w
    must lie in K, so that s·g_w·K = g_{s·w}·K.  The union of the cosets
    then holds the identity and is closed under the generators, so it is
    the whole group; and by induction over the generators each g_w acts as
    w, so the cosets are disjoint.  Raises ``ArithmeticError`` otherwise.
    """
    table = cw.weyl_table()
    in_kernel = set(kernel)
    by_w = {w: g for g, w in lifts}
    if len(by_w) != len(lifts):
        raise ArithmeticError("two lifts carry one coordinate symmetry")
    if by_w.get(table.identity) not in in_kernel:
        raise ArithmeticError("the lift of the identity is not in the kernel")
    for s, s_w in gens:
        for w, g in by_w.items():
            target = by_w.get(table.mul[s_w][w])
            if target is None:
                raise ArithmeticError("a generator leads out of the lifted symmetries")
            if slot_mul(slot_mul(slot_inv(target), s), g) not in in_kernel:
                raise ArithmeticError("a generator moves a lift out of its coset")


@lru_cache(maxsize=1)
def normalizer_cosets() -> tuple[tuple[IndexTuple, ...],
                                 tuple[tuple[IndexTuple, int], ...]]:
    """The normalizer as 192 cosets of its kernel: ``(K, ((g_w, w), ...))``.

    Each of :func:`normalizer_generators` is checked to normalize the
    subspace, and its coordinate action is computed once, here, as a Weyl
    group index.  K, the
    elements acting trivially on the subspace, is the closure of the
    order-32 stabilizer of a generic element, whose generators are the
    first of :func:`normalizer_generators`; each is checked, by the action
    just computed, to act trivially, and the order of K to be 32.  The
    lifts come from a breadth-first search over the coordinate symmetries,
    driven by those generators: the first product of generators reaching w
    is its lift g_w, which acts by ``cartanweyl.weyl_group()[w]``.
    :func:`check_cosets` then
    proves that the cosets g_w·K make up the normalizer, of order
    192·32 = 6144.  Elements are index tuples (:func:`encode`).
    """
    table = cw.weyl_table()
    gens = [(encode(g), cw.weyl_index(cw.h_action_matrix(g)))
            for g in normalizer_generators()]
    kernel_gens = stabilizer_finite_gens()
    actions = dict(gens)
    if any(actions.get(encode(k)) != table.identity for k in kernel_gens):
        raise ArithmeticError("a kernel generator moves the subspace")
    kernel = gelt_closure(kernel_gens, 32, "normalizer kernel exceeded order 32")
    if len(kernel) != 32:
        raise ArithmeticError("normalizer kernel came out short")
    # each symmetry reached carries the generator and the symmetry it came
    # from, so that its lift is one product, formed in order of discovery
    reached = orbit((table.identity, None, None), gens,
                    lambda x, s: (table.mul[s[1]][x[0]], s[0], x[0]),
                    key=lambda x: x[0])
    found = {}
    for w, s, prev in reached.values():
        found[w] = encode(ga.IDENTITY) if s is None else slot_mul(s, found[prev])
    if len(found) != 192:
        raise ArithmeticError("expected 192 coordinate symmetries, found %d" % len(found))
    lifts = tuple((g, w) for w, g in found.items())
    check_cosets(gens, kernel, lifts)
    return kernel, lifts


@lru_cache(maxsize=1)
def least_lifts() -> tuple[IndexTuple, ...]:
    """The least element of each coset g_w·K of :func:`normalizer_cosets`,
    at the Weyl group index w of the symmetry it induces."""
    kernel, lifts = normalizer_cosets()
    least = {w: min(slot_mul(g, k) for k in kernel) for g, w in lifts}
    return tuple(least[w] for w in range(len(least)))


@lru_cache(maxsize=1)
def _least_lift_places() -> dict[IndexTuple, int]:
    """The place of each element of :func:`least_lifts` in it."""
    return {x: w for w, x in enumerate(least_lifts())}


def coset_symmetry(x: IndexTuple) -> int | None:
    """The Weyl group index of the symmetry that ``x`` induces: the place of
    the least element of x·K in :func:`least_lifts`; None when ``x`` does not
    lie in N."""
    kernel, _ = normalizer_cosets()
    return _least_lift_places().get(min(slot_mul(x, k) for k in kernel))


@lru_cache(maxsize=1)
def build_normalizer() -> FiniteConjGroup:
    """The full normalizer of the diagonalizable subspace, order 6144.

    It is generated by the order-32 stabilizer of a generic element together
    with lifts of generators of the coordinate symmetry group (order 192).
    The elements are the cosets of :func:`normalizer_cosets` written out, as
    index tuples in increasing order, which is ``groupaction.g_key`` order.
    """
    kernel, lifts = normalizer_cosets()
    return FiniteConjGroup(
        elements=tuple(sorted(slot_mul(g, k) for g, _ in lifts for k in kernel)),
        gens=tuple(encode(g) for g in normalizer_generators()),
        tag="normalizer",
    )


@lru_cache(maxsize=1)
def h1_of_normalizer() -> CocycleClassList:
    """Cohomology of the normalizer: exactly seven classes."""
    classes = h1(build_normalizer(), case_tag="normalizer")
    if len(classes) != 7:
        raise ArithmeticError(
            "expected 7 cohomology classes for the normalizer, found %d"
            % len(classes)
        )
    return classes


# ---------------------------------------------------------------------------
# verification of documented class lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizerSpec:
    """Description of a stabilizer with possibly infinite identity component.

    ``finite_gens`` generate the documented finite part (component
    representatives and finite subgroups); ``torus_samples`` are explicit
    elements of the identity component used to probe equivalences that the
    finite part alone cannot see.  ``expected_count`` is the documented
    number of cohomology classes.
    """

    tag: str
    finite_gens: tuple[GElt, ...]
    torus_samples: tuple[GElt, ...] = ()
    expected_count: int | None = None


#: Bound on the order of the finite part of a :class:`StabilizerSpec`.
_FINITE_PART_LIMIT = 4096


class ClassListError(ValueError):
    """A documented class list failed verification; ``report`` has details."""

    def __init__(self, report: dict):
        self.report = report
        failures = report.get("failures", [])
        first = failures[0] if failures else {}
        super().__init__(
            "class list %r failed verification: %s"
            % (report.get("case"), first)
        )


def verify_class_list(
    classes: CocycleClassList,
    spec: StabilizerSpec,
) -> dict:
    """Check a documented list of cohomology classes against its stabilizer.

    Three checks are run: (a) every listed element is a 1-cocycle;
    (b) no two listed elements are related by twisted conjugation with any
    element of the finite part, nor with finite-part elements multiplied by
    the documented identity-component samples; (c) the list length matches
    the documented count.  Returns the report dict when every check passes,
    and raises :class:`ClassListError` carrying it otherwise.
    """
    failures: list[dict] = []
    reps = list(classes.representatives)
    idk = ga.g_key(ga.IDENTITY)
    for i, z in enumerate(reps):
        if ga.g_key(ga.g_mul(z, ga.conj_g(z))) != idk:
            failures.append({"check": "cocycle", "case": spec.tag, "index": i})
    finite_part = [decode(f) for f in gelt_closure(
        spec.finite_gens, _FINITE_PART_LIMIT,
        "finite part closure exceeded the configured bound",
    )]
    probes = list(finite_part)
    for t in spec.torus_samples:
        for f in finite_part:
            probes.append(ga.g_mul(t, f))
    pairs_checked = 0
    rep_keys = [ga.g_key(z) for z in reps]
    for i in range(len(reps)):
        for j in range(len(reps)):
            if i == j:
                continue
            pairs_checked += 1
            for a in probes:
                moved = ga.g_mul(ga.g_mul(a, reps[i]), ga.conj_g(ga.g_inv(a)))
                if ga.g_key(moved) == rep_keys[j]:
                    failures.append(
                        {
                            "check": "inequivalent",
                            "case": spec.tag,
                            "pair": (i, j),
                        }
                    )
                    break
            else:
                continue
            break
    if spec.expected_count is not None and len(reps) != spec.expected_count:
        failures.append(
            {
                "check": "count",
                "case": spec.tag,
                "expected": spec.expected_count,
                "found": len(reps),
            }
        )
    report = {
        "case": spec.tag,
        "passed": not failures,
        "classes": len(reps),
        "finite_part_order": len(finite_part),
        "probes": len(probes),
        "pairs_checked": pairs_checked,
        "failures": failures,
    }
    if failures:
        raise ClassListError(report)
    return report


__all__ = [
    "FiniteConjGroup",
    "CocycleClassList",
    "StabilizerSpec",
    "ClassListError",
    "SlotGroup",
    "slot_group",
    "encode",
    "decode",
    "slot_mul",
    "slot_inv",
    "slot_conj",
    "gelt_group",
    "gelt_closure",
    "cocycles",
    "h1",
    "stabilizer_finite_gens",
    "weyl_cocycle_lifts",
    "normalizer_generators",
    "normalizer_cosets",
    "least_lifts",
    "coset_symmetry",
    "check_cosets",
    "build_normalizer",
    "h1_of_normalizer",
    "verify_class_list",
]
