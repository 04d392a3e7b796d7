"""First Galois cohomology of finite matrix groups under an order-2 twist.

The objects classified elsewhere in this package carry an action of complex
conjugation.  For a group ``G`` stable under a conjugation map σ (an
automorphism with σ² = id), the relevant invariant is the set

    H¹(G, σ) = {c ∈ G : c·σ(c) = 1} / (c ~ a·c·σ(a)⁻¹ for a ∈ G),

the first nonabelian cohomology set of Z/2Z acting on G through σ.  This
module provides:

* a small container :class:`FiniteConjGroup` bundling a finite group with its
  conjugation map and the callables needed to compute with it,
* exact enumeration of 1-cocycles and their twisted-conjugacy classes with
  deterministic (lexicographically least) representatives; the classes, like
  every group closure here, come from the breadth-first orbit engine of
  :mod:`artifact._orbits`,
* the normalizer ``N`` of the diagonalizable subspace inside the product of
  four copies of SL(2, C), built from its group structure: the order-32
  kernel ``K`` (the elements acting trivially on the subspace) and one lift
  for each of the 192 coordinate symmetries, with a proof that these 192
  cosets of ``K`` make up the whole group, and its cohomology (seven
  classes),
* the sixteen recorded group elements that induce the order-2 symmetries of
  the diagonalizable subspace, paired with the 4×4 rational matrices they
  induce,
* a verifier for externally supplied class lists of stabilizers that may
  have a positive-dimensional identity component: every listed element must
  be a cocycle, no two may be equivalent under the documented finite part or
  the documented identity-component samples, and the count must match.

Everything is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from . import cartanweyl as cw
from . import groupaction as ga
from ._orbits import orbit, orbit_classes
from .exactfield import INV_SQRT2, IMAG
from .groupaction import GElt


# ---------------------------------------------------------------------------
# groups with conjugation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteConjGroup:
    """A finite group together with an order-2 twist map.

    ``elements`` is the full (finite) element list; ``gens`` is a generating
    subset used to drive orbit searches (it may equal ``elements``).  The
    callables make the container usable both for 4-tuples of 2×2 matrices
    and for 4×4 rational matrices (or any other element type): ``mul``,
    ``inv`` and ``sigma`` implement the group operations and the twist, and
    ``key`` maps an element to a hashable, totally ordered canonical form.
    """

    elements: tuple
    mul: Callable
    inv: Callable
    sigma: Callable
    key: Callable
    identity: object
    gens: tuple
    tag: str = ""

    def __len__(self) -> int:
        return len(self.elements)


def _trivial_sigma(x):
    return x


class _InternedOps:
    """Cached group operations for 4-tuples of 2×2 matrices.

    The groups handled here reuse the same few hundred 2×2 factors over and
    over, so each distinct matrix value is interned (held forever in a pool,
    one canonical object per value) and slot products, inverses, conjugates
    and canonical keys are cached by object identity.  Identity-keyed caches
    are safe because every cached object is kept alive by the pool, so ids
    are never recycled among them.  :meth:`product` takes elements already
    interned (closures intern their generators once); ``mul``, ``inv``,
    ``sigma`` and ``key`` intern their arguments first.
    """

    __slots__ = ("_pool", "_key_of", "_prod", "_inv", "_conj")

    def __init__(self) -> None:
        self._pool: dict[tuple, ga.Mat2] = {}
        self._key_of: dict[int, tuple] = {}
        self._prod: dict[tuple[int, int], ga.Mat2] = {}
        self._inv: dict[int, ga.Mat2] = {}
        self._conj: dict[int, ga.Mat2] = {}

    def _intern_m(self, m: ga.Mat2) -> ga.Mat2:
        if id(m) in self._key_of:
            return m
        k = ga.m2_key(m)
        held = self._pool.get(k)
        if held is None:
            self._pool[k] = m
            self._key_of[id(m)] = k
            return m
        return held

    def intern(self, g: GElt) -> GElt:
        return tuple(self._intern_m(m) for m in g)

    def product(self, x: GElt, y: GElt) -> GElt:
        """The product of two elements that are already interned."""
        out = []
        for a, b in zip(x, y):
            ck = (id(a), id(b))
            r = self._prod.get(ck)
            if r is None:
                r = self._intern_m(ga.m2_mul(a, b))
                self._prod[ck] = r
            out.append(r)
        return tuple(out)

    def mul(self, x: GElt, y: GElt) -> GElt:
        return self.product(self.intern(x), self.intern(y))

    def inv(self, x: GElt) -> GElt:
        x = self.intern(x)
        out = []
        for a in x:
            r = self._inv.get(id(a))
            if r is None:
                r = self._intern_m(ga.m2_inv(a))
                self._inv[id(a)] = r
            out.append(r)
        return tuple(out)

    def sigma(self, x: GElt) -> GElt:
        x = self.intern(x)
        out = []
        for a in x:
            r = self._conj.get(id(a))
            if r is None:
                r = self._intern_m(ga.m2_conj(a))
                self._conj[id(a)] = r
            out.append(r)
        return tuple(out)

    def key(self, x: GElt) -> tuple:
        x = self.intern(x)
        return tuple(self._key_of[id(a)] for a in x)


def _ids(g: GElt) -> tuple[int, ...]:
    return tuple(map(id, g))


def gelt_closure(
    gens: Sequence[GElt],
    limit: int,
    what: str,
    ops: _InternedOps | None = None,
) -> tuple[GElt, ...]:
    """Close a set of group elements under multiplication, with a hard cap."""
    if ops is None:
        ops = _InternedOps()
    found = orbit(ops.intern(ga.IDENTITY), [ops.intern(g) for g in gens],
                  ops.product, _ids, limit, what)
    return tuple(sorted(found.values(), key=ops.key))


def gelt_group(
    gens: Sequence[GElt],
    *,
    tag: str = "",
    sigma: Callable | None = None,
) -> FiniteConjGroup:
    """Build the group generated by ``gens`` (4-tuples of 2×2 matrices).

    The twist defaults to entrywise complex conjugation; pass ``sigma`` to
    override it (the override is used as given, without caching).
    """
    ops = _InternedOps()
    elements = gelt_closure(
        gens, 100_000, "group closure exceeded 100000 elements", ops
    )
    interned_gens = tuple(ops.intern(g) for g in gens)
    return FiniteConjGroup(
        elements=elements,
        mul=ops.mul,
        inv=ops.inv,
        sigma=ops.sigma if sigma is None else sigma,
        key=ops.key,
        identity=ops.intern(ga.IDENTITY),
        gens=interned_gens if interned_gens else (ops.intern(ga.IDENTITY),),
        tag=tag,
    )


def weyl_group_view(
    elements: Sequence[cw.WeylMat],
    *,
    gens: Sequence[cw.WeylMat] | None = None,
    tag: str = "",
) -> FiniteConjGroup:
    """Wrap a set of 4×4 rational matrices as a group with trivial twist.

    The induced symmetries of the diagonalizable subspace are real matrices,
    so conjugation acts trivially on them; cohomology then enumerates
    conjugacy classes of involutions (plus the identity class).
    """
    elts = tuple(sorted(elements))
    return FiniteConjGroup(
        elements=elts,
        mul=cw.w_mul,
        inv=cw.w_inv,
        sigma=_trivial_sigma,
        key=_trivial_sigma,
        identity=cw.W_IDENTITY,
        gens=tuple(gens) if gens is not None else elts,
        tag=tag,
    )


def validate_group(group: FiniteConjGroup) -> None:
    """Check that σ is an involutive automorphism preserving the group.

    σ² = id and σ(G) ⊆ G are checked on every element.  The homomorphism
    property is checked on all pairs for small groups and on a deterministic
    sample of pairs for large ones.
    """
    keys = {group.key(x) for x in group.elements}
    for x in group.elements:
        sx = group.sigma(x)
        if group.key(sx) not in keys:
            raise ValueError("conjugation map does not preserve the group")
        if group.key(group.sigma(sx)) != group.key(x):
            raise ValueError("conjugation map is not an involution")
    n = len(group.elements)
    if n <= 48:
        pairs = [(x, y) for x in group.elements for y in group.elements]
    else:
        # Deterministic sample: stride through the sorted element list.
        flat = group.elements
        pairs = [
            (flat[(i * 7919) % n], flat[(i * 104729 + i * i) % n])
            for i in range(400)
        ]
    for x, y in pairs:
        lhs = group.sigma(group.mul(x, y))
        rhs = group.mul(group.sigma(x), group.sigma(y))
        if group.key(lhs) != group.key(rhs):
            raise ValueError("conjugation map is not an automorphism")


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


def cocycles(group: FiniteConjGroup) -> list:
    """All c in G with c·σ(c) = identity, sorted canonically."""
    validate_group(group)
    idk = group.key(group.identity)
    out = [
        c
        for c in group.elements
        if group.key(group.mul(c, group.sigma(c))) == idk
    ]
    out.sort(key=group.key)
    return out


def h1(group: FiniteConjGroup, case_tag: str = "") -> CocycleClassList:
    """Twisted-conjugacy classes of cocycles, deterministically represented.

    Two cocycles c, c′ are identified when c′ = a·c·σ(a)⁻¹ for some a in the
    group; that rule defines a group action, so the class of c is its orbit
    under the generators (:func:`_orbits.orbit_classes`, with σ(a)⁻¹ formed
    once per generator).  Representatives are the least element of each
    orbit; because the cocycles are scanned in increasing order, the first
    unseen cocycle is automatically its orbit's minimum.
    """
    twists = [(a, group.sigma(group.inv(a))) for a in group.gens]
    classes = orbit_classes(cocycles(group), twists,
                            lambda x, t: group.mul(group.mul(t[0], x), t[1]), group.key)
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
def weyl_cocycle_lifts() -> tuple[tuple[cw.WeylMat, GElt], ...]:
    """The sixteen recorded (matrix, lift) pairs, matrices as exact 4×4."""
    return tuple(
        (cw.wmat(rows), ga.gelt_from_names(names)) for rows, names in _LIFT_TABLE
    )


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


def normalizer_generators() -> tuple[GElt, ...]:
    """A generating set for the order-6144 normalizer.

    Combines the order-32 stabilizer of a generic element, the sixteen
    recorded coordinate-symmetry lifts, and the half-integral reflection
    lift.  Every generator is checked to normalize the diagonalizable
    subspace.
    """
    gens = list(stabilizer_finite_gens())
    gens.extend(lift for _, lift in weyl_cocycle_lifts())
    gens.append(_hadamard_lift())
    for g in gens:
        if cw.h_action_matrix(g) is None:
            raise ArithmeticError("normalizer construction inconsistent")
    return tuple(gens)


#: The one interning pool of the normalizer.  Its cosets, the group that
#: :func:`build_normalizer` returns and the real coordinate symmetries in
#: ``ssorbits`` share slot objects, so ids identify their elements.
NORMALIZER_OPS = _InternedOps()


def check_cosets(
    gens: Sequence[tuple[GElt, cw.WeylMat]],
    kernel: Sequence[GElt],
    lifts: Sequence[tuple[GElt, cw.WeylMat]],
) -> None:
    """Prove that the cosets g_w·K make up the group generated by ``gens``.

    ``gens`` pairs each generator s with its coordinate action, ``kernel``
    is a group K of elements acting trivially, and ``lifts`` pairs one
    product g_w of generators with each coordinate symmetry w; all elements
    are interned in :data:`NORMALIZER_OPS`.  The lift of the identity must
    lie in K, and for every generator s and every w the element
    g_{s·w}⁻¹·s·g_w must lie in K, so that s·g_w·K = g_{s·w}·K.  The union of
    the cosets then holds the identity and is closed under the generators,
    so it is the whole group; and by induction over the generators each g_w
    acts as w, so the cosets are disjoint.  Raises ``ArithmeticError``
    otherwise.
    """
    ops = NORMALIZER_OPS
    in_kernel = {_ids(k) for k in kernel}
    by_w = {cw._doubled(w): g for g, w in lifts}
    if len(by_w) != len(lifts):
        raise ArithmeticError("two lifts carry one coordinate symmetry")
    identity = by_w.get(cw._doubled(cw.W_IDENTITY))
    if identity is None or _ids(identity) not in in_kernel:
        raise ArithmeticError("the lift of the identity is not in the kernel")
    for s, s_w in gens:
        s2 = cw._doubled(s_w)
        for w2, g in by_w.items():
            target = by_w.get(cw._doubled_product(s2, w2))
            if target is None:
                raise ArithmeticError("a generator leads out of the lifted symmetries")
            k = ops.product(ops.product(ops.inv(target), s), g)
            if _ids(k) not in in_kernel:
                raise ArithmeticError("a generator moves a lift out of its coset")


@lru_cache(maxsize=1)
def normalizer_cosets() -> tuple[tuple[GElt, ...], tuple[tuple[GElt, cw.WeylMat], ...]]:
    """The normalizer as 192 cosets of its kernel: ``(K, ((g_w, w), ...))``.

    K, the elements acting trivially on the subspace, is the closure of the
    order-32 stabilizer of a generic element; each generator is checked to
    act trivially, and the order to be 32.  The lifts come from a
    breadth-first search over the coordinate symmetries as doubled-integer
    matrices, driven by :func:`normalizer_generators`: the first product of
    generators reaching w is its lift g_w, so ``w ==
    cartanweyl.h_action_matrix(g_w)``.  :func:`check_cosets` then proves that
    the cosets g_w·K make up the normalizer, of order 192·32 = 6144.
    Elements are interned in :data:`NORMALIZER_OPS`.
    """
    ops = NORMALIZER_OPS
    kernel_gens = stabilizer_finite_gens()
    if any(cw.h_action_matrix(k) != cw.W_IDENTITY for k in kernel_gens):
        raise ArithmeticError("a kernel generator moves the subspace")
    kernel = gelt_closure(kernel_gens, 32, "normalizer kernel exceeded order 32", ops)
    if len(kernel) != 32:
        raise ArithmeticError("normalizer kernel came out short")
    gens = [(ops.intern(g), cw.h_action_matrix(g)) for g in normalizer_generators()]
    # each symmetry reached carries the generator and the symmetry it came
    # from, so that its lift is one product, formed in order of discovery
    reached = orbit((cw._doubled(cw.W_IDENTITY), None, None),
                    [(g, cw._doubled(w)) for g, w in gens],
                    lambda x, s: (cw._doubled_product(s[1], x[0]), s[0], x[0]),
                    key=lambda x: x[0])
    found = {}
    for w2, s, prev in reached.values():
        found[w2] = ops.intern(ga.IDENTITY) if s is None else ops.product(s, found[prev])
    if len(found) != 192:
        raise ArithmeticError("expected 192 coordinate symmetries, found %d" % len(found))
    lifts = tuple((g, cw._undoubled(w2)) for w2, g in found.items())
    check_cosets(gens, kernel, lifts)
    return kernel, lifts


@lru_cache(maxsize=1)
def normalizer_pairs() -> tuple[tuple[GElt, cw.WeylMat], ...]:
    """All 6144 normalizer elements g, each with its coordinate action w.

    The cosets of :func:`normalizer_cosets` written out, coset by coset:
    g runs over g_w·k for k in K, so that
    ``w == cartanweyl.h_action_matrix(g)``.  Equal coordinate actions are
    the same object, so callers may key them by ``id``.
    """
    ops = NORMALIZER_OPS
    kernel, lifts = normalizer_cosets()
    return tuple((ops.product(g, k), w) for g, w in lifts for k in kernel)


@lru_cache(maxsize=1)
def normalizer_order_key() -> Callable[[GElt], tuple[int, ...]]:
    """Sort key for normalizer elements: the tuple of their slot ranks.

    The normalizer's elements use 48 distinct 2×2 slot values.  They are
    ranked once by ``groupaction.m2_key``, so the key of an element (interned
    in :data:`NORMALIZER_OPS`) is four small integers, and it orders the
    elements exactly as ``groupaction.g_key`` does.
    """
    slots = {id(m): m for g, _ in normalizer_pairs() for m in g}
    ranked = sorted(slots.values(), key=ga.m2_key)
    rank = {id(m): r for r, m in enumerate(ranked)}
    return lambda g: tuple(rank[id(m)] for m in g)


@lru_cache(maxsize=1)
def build_normalizer() -> FiniteConjGroup:
    """The full normalizer of the diagonalizable subspace, order 6144.

    It is generated by the order-32 stabilizer of a generic element together
    with lifts of generators of the coordinate symmetry group (order 192).
    The elements are the cosets of :func:`normalizer_cosets` written out
    (:func:`normalizer_pairs`), in increasing order of key.  The key is
    :func:`normalizer_order_key` of the interned element: four small
    integers, hashed much faster than the ``Fraction`` tuples of
    ``groupaction.g_key``, in the same order.
    """
    ops = NORMALIZER_OPS
    order = normalizer_order_key()
    return FiniteConjGroup(
        elements=tuple(sorted((g for g, _ in normalizer_pairs()), key=order)),
        mul=ops.mul,
        inv=ops.inv,
        sigma=ops.sigma,
        key=lambda g: order(ops.intern(g)),
        identity=ops.intern(ga.IDENTITY),
        gens=tuple(ops.intern(g) for g in normalizer_generators()),
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
    finite_part = gelt_closure(
        spec.finite_gens, _FINITE_PART_LIMIT,
        "finite part closure exceeded the configured bound",
    )
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
    "gelt_group",
    "gelt_closure",
    "weyl_group_view",
    "validate_group",
    "cocycles",
    "h1",
    "stabilizer_finite_gens",
    "weyl_cocycle_lifts",
    "normalizer_generators",
    "normalizer_cosets",
    "check_cosets",
    "normalizer_pairs",
    "normalizer_order_key",
    "build_normalizer",
    "h1_of_normalizer",
    "verify_class_list",
]
