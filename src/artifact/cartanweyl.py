"""Cartan subspace, restricted roots, Weyl group, subsystems, real Cartan bases.

Elements of the Cartan subspace h = <u_1, ..., u_4> are written in
u-coordinates, their coordinates in the first of the seven real Cartan
bases (:func:`basis_coords` and :func:`from_basis_coords` with m = 1).  The
24 restricted roots are stored data, each a functional with a root vector
written by its signs, and every one is checked against the algebra by
integer brackets, [u_k, v] = alpha(u_k)·v, before use; each is paired with
its coroot, the closed form h_alpha = 2·alpha/(alpha·alpha).  A reflection
takes a root beta to beta - beta(h_alpha)·alpha, read off in integers; a
wrong coroot raises where its reflection does not permute the roots or the
reflections do not close to order 192, and the tests pin the resulting
group.  The Weyl group (order 192) is the closure of the 24 reflections'
permutations of the restricted roots, and each element's exact rational
4x4 matrix in u-coordinates is read off its permutation.  The eleven
complete subsystems and their complement groups Gamma, and the seven real
Cartan bases with their witness pairs (g*, n*), are embedded as data and
re-verified by the test suite.  Each real basis is shown to be a commuting
semisimple family from the checked roots and its twist factors
(:func:`cartan_is_semisimple`), without a minimal polynomial.

An element of W is named by its index in :func:`weyl_group`.  Products
and inverses are lookups in :func:`weyl_table`, and Gamma, W_Pi and the
classes of :func:`gamma_h1` are searches over indices by the orbit engine
of :mod:`artifact._orbits`.
Matrices remain only at the boundary: :func:`w_act_coords`,
:func:`h_action_matrix`, stored data and returned values; :func:`weyl_index`
maps a matrix to its index and rejects one outside W.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter
from typing import Sequence

from ._orbits import orbit, orbit_classes, regular_tables
from .exactfield import ONE, ZERO, CycNum, common_numerators, vanishing_functionals
from .groupaction import (
    D,
    GElt,
    act_tensor,
    conj_g,
    g_inv,
    g_mul,
    gelt,
    m2_neg,
    named,
)
from .liealg import (
    LieElt,
    Tensor,
    build_d4,
    sparse_bracket,
    u_basis,
)

#: The two tensor positions (a, b) where u_k has its unit entries; the k-th
#: vector of every real Cartan basis is e_a ± e_b.
_U_PAIRS = tuple(tuple(p for p, c in enumerate(uk.c) if c) for uk in u_basis())

WeylMat = tuple[tuple[Fraction, ...], ...]


# -- restricted roots ------------------------------------------------------------

@dataclass(frozen=True)
class RestrictedRoot:
    """A restricted root: its values on u_1..u_4, a root vector, and h_alpha."""

    coeffs: tuple[int, int, int, int]  # alpha(u_k)
    vector: tuple  # LieElt as tuple for hashability
    h_alpha: tuple[Fraction, Fraction, Fraction, Fraction]  # u-coordinates


#: The 24 restricted roots, each as its functional alpha (the values
#: alpha(u_1..u_4)) and a root vector, written by the signs of its
#: coordinates on the 28 basis elements of the D4 algebra ("." for 0).
#: :func:`restricted_roots` checks every entry before use.
_ROOTS: tuple[tuple[tuple[int, int, int, int], str], ...] = (
    ((-2, 0, 0, 0), ".+-.............+-.........."),
    ((-1, -1, -1, -1), "....+++++--+........-+-+++++"),
    ((-1, -1, -1, 1), "....+--+++++........++++-+-+"),
    ((-1, -1, 1, -1), "....+-+-++--........++---++-"),
    ((-1, -1, 1, 1), "....++--+-+-........-++-++--"),
    ((-1, 1, -1, -1), "....+-+-++--........--+++--+"),
    ((-1, 1, -1, 1), "....++--+-+-........+--+--++"),
    ((-1, 1, 1, -1), "....+++++--+........+-+-----"),
    ((-1, 1, 1, 1), "....+--+++++........----+-+-"),
    ((0, -2, 0, 0), "+..-........-+.............."),
    ((0, 0, -2, 0), "+..+..........-+............"),
    ((0, 0, 0, -2), ".++...............-+........"),
    ((0, 0, 0, 2), ".++...............+-........"),
    ((0, 0, 2, 0), "+..+..........+-............"),
    ((0, 2, 0, 0), "+..-........+-.............."),
    ((1, -1, -1, -1), "....+--+----........+++++-+-"),
    ((1, -1, -1, 1), "....++++-++-........-+-+----"),
    ((1, -1, 1, -1), "....++---+-+........-++---++"),
    ((1, -1, 1, 1), "....+-+---++........++--+--+"),
    ((1, 1, -1, -1), "....++---+-+........+--+++--"),
    ((1, 1, -1, 1), "....+-+---++........--++-++-"),
    ((1, 1, 1, -1), "....+--+----........-----+-+"),
    ((1, 1, 1, 1), "....++++-++-........+-+-++++"),
    ((2, 0, 0, 0), ".+-.............-+.........."),
)


def _checked_root_vectors(table) -> dict[tuple[int, ...], LieElt]:
    """The root vectors of ``table``, each checked by integer brackets.

    A root vector is written by its signs and u_k = e_a + e_b by its pair
    (a, b) of tensor positions, each e_t plus or minus one basis element,
    so both have integer coordinates.  The six brackets [u_k, u_l], k < l,
    must vanish, and for every entry [u_k, v] = alpha(u_k)·v must hold for
    k = 1..4 (96 brackets for the 24 roots), with v nonzero; all of them
    by :func:`liealg.sparse_bracket` on the structure constants of
    :func:`liealg.build_d4`.  Root vectors of distinct functionals are
    linearly independent, and the centralizer of the Cartan subspace
    contains the four independent u_k; so 24 distinct nonzero functionals
    in the 28-dimensional algebra make each root space one-dimensional and
    the centralizer four-dimensional: the table is the whole decomposition,
    and u_1..u_4 with the 24 root vectors are a basis on which every u_k
    acts diagonally.  Raises ``ArithmeticError`` otherwise.
    """
    alg = build_d4()
    signs = {".": 0, "+": 1, "-": -1}
    values = {".": ZERO, "+": ONE, "-": -ONE}
    us = [dict(alg.tensor_table[p] for p in pair) for pair in _U_PAIRS]
    if any(sparse_bracket(alg.struct, x, y) for k, x in enumerate(us) for y in us[k + 1:]):
        raise ArithmeticError("u_1..u_4 do not commute")
    roots: dict[tuple[int, ...], LieElt] = {}
    for tag, pattern in table:
        v = {k: signs[ch] for k, ch in enumerate(pattern) if signs[ch]}
        if len(pattern) != 28 or not v or not any(tag) or tag in roots:
            raise ArithmeticError("malformed root entry %r" % (tag,))
        for uk, a in zip(us, tag):
            if sparse_bracket(alg.struct, uk, v) != {k: a * x for k, x in v.items() if a}:
                raise ArithmeticError("%r is not a root vector of %r" % (pattern, tag))
        roots[tag] = [values[ch] for ch in pattern]
    if len(roots) != 24:
        raise ArithmeticError(f"expected 24 restricted roots, found {len(roots)}")
    return roots


@lru_cache(maxsize=1)
def restricted_roots() -> tuple[RestrictedRoot, ...]:
    """The 24 restricted roots, in increasing order of functional.

    The root vectors are the stored table, checked by integer brackets
    (:func:`_checked_root_vectors`).  Each coroot is the closed form
    h_alpha = 2·alpha/(alpha·alpha) in u-coordinates, so alpha(h_alpha) = 2.
    A wrong coroot gives a wrong reflection, and is rejected by
    :func:`_reflection_permutations` (every reflection must permute the 24
    roots), by :func:`root_permutations` (the closure must have order 192)
    and by the pinned digest of :func:`weyl_group` in the tests.
    """
    roots = _checked_root_vectors(_ROOTS)
    out = []
    for tag in sorted(roots):
        norm = sum(c * c for c in tag)
        h = tuple(Fraction(2 * c, norm) for c in tag)
        out.append(RestrictedRoot(coeffs=tag, vector=tuple(roots[tag]), h_alpha=h))
    return tuple(out)


# -- Weyl group -------------------------------------------------------------------

def wmat(rows) -> WeylMat:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


W_IDENTITY: WeylMat = wmat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

#: The roots 2·e_k: for the k-th, alpha∘w is twice row k of w.
_AXIS_ROOTS = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))


def _doubled(w: WeylMat) -> tuple[tuple[int, ...], ...]:
    """Twice the entries of ``w``, as integer rows; ``ArithmeticError`` for
    an entry off the half lattice, so for a matrix outside W."""
    out = []
    for row in w:
        doubled = []
        for f in row:
            c, rest = divmod(2 * f.numerator, f.denominator)
            if rest:
                raise ArithmeticError("%r is not in the Weyl group" % (w,))
            doubled.append(c)
        out.append(tuple(doubled))
    return tuple(out)


def w_act_coords(w: WeylMat, coords: Sequence[CycNum]) -> tuple[CycNum, ...]:
    """Image of an h-element (u-coordinates) under w.

    The package itself no longer calls it; it is kept for the tests and
    for the benchmark tracer, which wraps it by name.

    Runs on integers, as :func:`groupaction.act_tensor` does: the doubled
    rows of w (:func:`_doubled`) act on the coordinates' numerators over
    their common denominator (:func:`exactfield.common_numerators`), and
    each image coordinate is reduced once, over twice that denominator.
    """
    nums, den = common_numerators(coords)
    out = []
    for row in _doubled(w):
        acc = [0] * 8
        for c, p in zip(row, nums):
            if c and p is not None:
                acc = [a + c * x for a, x in zip(acc, p)]
        out.append(CycNum.from_numerators(acc, 2 * den))
    return tuple(out)


def _doubled_rows(perms) -> list[tuple[tuple[int, ...], ...]]:
    """Twice the rows of each element w of W with root permutation in ``perms``.

    For the root beta = 2·e_k, beta∘w is twice row k of w, and it is the
    root alpha_a whose entry a of w's permutation is the index of beta.
    """
    coeffs = [r.coeffs for r in restricted_roots()]
    axes = [coeffs.index(e) for e in _AXIS_ROOTS]
    return [tuple(coeffs[perm.index(b)] for b in axes) for perm in perms]


@lru_cache(maxsize=1)
def _reflection_permutations() -> tuple[tuple[int, ...], ...]:
    """The root permutation of each restricted root's reflection, in order.

    The reflection s_alpha(h) = h - alpha(h)·h_alpha takes a root beta to
    beta∘s_alpha = beta - beta(h_alpha)·alpha, read in integers from the
    stored coroot written over its common denominator.  Entry a of the
    permutation is the index of the root beta with beta∘s_alpha = alpha_a,
    that is of alpha_a∘s_alpha⁻¹.  Raises ``ArithmeticError`` if a pairing
    beta(h_alpha) is not an integer, an image is not a root, or two roots
    share an image.
    """
    coeffs = [r.coeffs for r in restricted_roots()]
    index = {c: a for a, c in enumerate(coeffs)}
    out = []
    for r in restricted_roots():
        den = lcm(*(h.denominator for h in r.h_alpha))
        coroot = [h.numerator * (den // h.denominator) for h in r.h_alpha]
        perm = [None] * len(coeffs)
        for b, beta in enumerate(coeffs):
            pairing, rest = divmod(sum(x * h for x, h in zip(beta, coroot)), den)
            if rest:
                raise ArithmeticError("root image is not integral")
            a = index.get(tuple(x - pairing * y for x, y in zip(beta, r.coeffs)))
            if a is None:
                raise ArithmeticError("%r∘s_%r is not a root" % (beta, r.coeffs))
            if perm[a] is not None:
                raise ArithmeticError("two roots have the same image")
            perm[a] = b
        out.append(tuple(perm))
    return tuple(out)


@lru_cache(maxsize=1)
def root_permutations() -> tuple[tuple[int, ...], ...]:
    """For each element of :func:`weyl_group`, in order, its root permutation.

    Entry (w, a) is the index of alpha_a∘w⁻¹.
    A root alpha vanishes at w·mu exactly when alpha∘w vanishes at mu, so
    the roots vanishing at w·mu are the images, under the permutation of
    w, of the roots vanishing at mu.  The permutations of the reflections
    (:func:`_reflection_permutations`) generate W, since
    perm(a·b) = perm(a)∘perm(b).
    """
    gens = list(dict.fromkeys(_reflection_permutations()))
    perms = orbit(tuple(range(len(gens[0]))), gens, lambda p, s: itemgetter(*p)(s),
                  limit=192, what="Weyl group closure exceeded its order 192")
    if len(perms) != 192:
        raise ArithmeticError("Weyl group closure came out short")
    # distinct elements have distinct rows, so the permutations never compare
    return tuple(perm for _, perm in sorted(zip(_doubled_rows(perms), perms)))


#: The entries of W's matrices, c/2 for the doubled entries c, shared.
_HALVES = {c: Fraction(c, 2) for c in range(-2, 3)}


@lru_cache(maxsize=1)
def weyl_group() -> tuple[WeylMat, ...]:
    """The 192 elements of W as matrices in u-coordinates, in increasing order.

    An element's position here is its index, by which the package names it.
    """
    return tuple(tuple(tuple(_HALVES[c] for c in row) for row in rows)
                 for rows in _doubled_rows(root_permutations()))


@dataclass(frozen=True)
class WeylTable:
    """W on the indices of :func:`weyl_group`: ``mul[a][b]`` is the index of
    a·b, ``inv[a]`` that of a⁻¹; ``reflections[a]`` is the index of the
    reflection of the a-th restricted root; ``index`` maps the doubled
    integer rows of an element (:func:`_doubled_rows`) to its index.
    """

    index: dict
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    identity: int
    reflections: tuple[int, ...]


@lru_cache(maxsize=1)
def weyl_table() -> WeylTable:
    """W's tables.  The left-regular row of a reflection s is read off the
    root permutations, perm(s·x) = perm(s)∘perm(x).  Only the reflections
    that enlarge the group the earlier ones generate get a row (4 of the 12
    distinct ones), and every other row is a composition of those
    (:func:`_orbits.regular_tables`)."""
    perms = root_permutations()
    position = {p: n for n, p in enumerate(perms)}
    reflections = tuple(position[p] for p in _reflection_permutations())
    index = {rows: n for n, rows in enumerate(_doubled_rows(perms))}
    identity = index[_doubled(W_IDENTITY)]
    rows: list[tuple[int, ...]] = []
    found = {identity: identity}
    for s in reflections:
        if s not in found:
            rows.append(tuple(position[itemgetter(*p)(perms[s])] for p in perms))
            found = orbit(identity, rows, lambda x, row: row[x])
    mul, inv = regular_tables(rows, identity)
    return WeylTable(index=index, mul=mul, inv=inv, identity=identity,
                     reflections=reflections)


def weyl_index(w: WeylMat) -> int:
    """The index of ``w`` in :func:`weyl_group`, looked up by its doubled
    integer rows; ``ArithmeticError`` for a matrix outside W, one off the
    half lattice, or None (:func:`h_action_matrix` of a non-normalizer)."""
    if w is None:
        raise ArithmeticError("None is not in the Weyl group")
    try:
        return weyl_table().index[_doubled(w)]
    except KeyError:
        raise ArithmeticError("%r is not in the Weyl group" % (w,)) from None


def _generated(gens: Sequence[int]) -> tuple[int, ...]:
    """The subgroup of W generated by the indices ``gens``, in increasing order."""
    mul = weyl_table().mul
    return tuple(sorted(orbit(weyl_table().identity, gens, lambda x, g: mul[g][x])))


# -- subsystems of Table rows 1..11 --------------------------------------------------

@dataclass(frozen=True)
class SubsystemData:
    index: int
    type_name: str
    h_basis: tuple[tuple[int, int, int, int], ...]  # u-coordinate basis of h_Pi
    gamma_gens: tuple[WeylMat, ...] | None  # None means Gamma = W

    @property
    def param_count(self) -> int:
        return len(self.h_basis)


def _diag(a, b, c, d) -> WeylMat:
    return wmat([[a, 0, 0, 0], [0, b, 0, 0], [0, 0, c, 0], [0, 0, 0, d]])


_SUBSYSTEMS: dict[int, SubsystemData] = {
    1: SubsystemData(1, "empty", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), None),
    2: SubsystemData(2, "A1", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
                     tuple(_diag(*signs) for signs in
                           [(1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1),
                            (-1, 1, 1, -1), (-1, 1, -1, 1), (-1, -1, 1, 1)])),
    3: SubsystemData(3, "A2", ((1, -1, 0, 0), (1, 0, -1, 0)), (_diag(-1, -1, -1, -1),)),
    4: SubsystemData(4, "2A1", ((1, 0, 0, 0), (0, 0, 0, 1)),
                     (_diag(1, 1, 1, -1),
                      wmat([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]))),
    5: SubsystemData(5, "2A1", ((1, 0, 0, 0), (0, 0, 1, 0)),
                     (_diag(1, 1, -1, 1),
                      wmat([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]]))),
    6: SubsystemData(6, "2A1", ((1, 0, 0, 0), (0, 1, 0, 0)),
                     (_diag(-1, 1, 1, 1),
                      wmat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]))),
    7: SubsystemData(7, "A3", ((1, 0, 0, -1),), (_diag(-1, -1, -1, -1),)),
    8: SubsystemData(8, "A3", ((1, 0, -1, 0),), (_diag(-1, -1, -1, -1),)),
    9: SubsystemData(9, "A3", ((1, -1, 0, 0),), (_diag(-1, -1, -1, -1),)),
    10: SubsystemData(10, "3A1", ((1, 0, 0, 0),), (_diag(-1, -1, -1, -1),)),
    11: SubsystemData(11, "D4", (), ()),
}


def subsystem(i: int) -> SubsystemData:
    if i not in _SUBSYSTEMS:
        raise KeyError(f"no subsystem {i}")
    return _SUBSYSTEMS[i]


def parametrize(i: int, lams: Sequence[CycNum]) -> Tensor:
    """The element of h_{Pi_i} with parameters lams, as a tensor."""
    data = subsystem(i)
    if len(lams) != data.param_count:
        raise ValueError(
            f"subsystem {i} takes {data.param_count} parameters, got {len(lams)}"
        )
    coords = [ZERO] * 4
    for lam, bvec in zip(lams, data.h_basis):
        for k in range(4):
            if bvec[k]:
                coords[k] = coords[k] + lam.scale(bvec[k])
    return from_basis_coords(1, coords)


@lru_cache(maxsize=None)
def member_roots(i: int) -> frozenset[tuple[int, ...]]:
    """Functionals (as integer 4-tuples) of the roots vanishing on all of h_Pi."""
    data = subsystem(i)
    out = []
    for r in restricted_roots():
        if all(
            sum(r.coeffs[k] * b[k] for k in range(4)) == 0 for b in data.h_basis
        ):
            out.append(r.coeffs)
    return frozenset(out)


def vanishing_roots(coords: Sequence[CycNum]) -> frozenset[tuple[int, ...]]:
    """Functionals of the restricted roots that vanish at ``coords``
    (u-coordinates), by the integer test
    :func:`exactfield.vanishing_functionals`.

    A root and its negative vanish together, and the roots are sorted, so
    the negative of the a-th is the (23 - a)-th: only the first 12 are
    evaluated.
    """
    half = [r.coeffs for r in restricted_roots()[:12]]
    half = [f for f, zero in zip(half, vanishing_functionals(half, coords)) if zero]
    return frozenset(half + [tuple(-c for c in k) for k in half])


def _canonical_pattern(roots: frozenset[tuple[int, ...]]) -> tuple[int, ...]:
    """The least image of a set of roots under W, as sorted root indices
    (the roots are sorted, so the least indices are the least functionals)."""
    found = [a for a, r in enumerate(restricted_roots()) if r.coeffs in roots]
    return min(tuple(sorted(p[a] for a in found)) for p in root_permutations())


@lru_cache(maxsize=1)
def _pattern_table() -> dict[tuple, int]:
    table = {}
    for i in range(1, 12):
        canon = _canonical_pattern(member_roots(i))
        if canon in table:
            raise ArithmeticError("subsystem patterns are not distinguishable")
        table[canon] = i
    return table


def component_membership(p: Tensor) -> int:
    """The unique i in 1..11 with p conjugate into the normal position of row i."""
    coords = basis_coords(1, p)
    if coords is None:
        raise ValueError("element is not in the Cartan subspace")
    pattern = _canonical_pattern(vanishing_roots(coords))
    table = _pattern_table()
    if pattern not in table:
        raise ArithmeticError("vanishing pattern matches no complete subsystem")
    return table[pattern]


# -- the complement groups Gamma and their H^1 ----------------------------------------

@lru_cache(maxsize=None)
def gamma_group(i: int) -> tuple[int, ...]:
    """Gamma(i) as indices into :func:`weyl_group`, in increasing order."""
    gens = subsystem(i).gamma_gens
    if gens is None:
        return tuple(range(len(weyl_group())))
    return _generated([weyl_index(g) for g in gens])


@lru_cache(maxsize=None)
def w_pi_group(i: int) -> tuple[int, ...]:
    """The reflection subgroup W_Pi generated by the member roots, as indices."""
    members = member_roots(i)
    reflections = weyl_table().reflections
    return _generated([s for s, r in zip(reflections, restricted_roots())
                       if r.coeffs in members])


def gamma_h1(i: int) -> tuple[WeylMat, ...]:
    """H^1(Gamma, trivial conjugation): involution classes, least representatives.

    With trivial conjugation, twisted conjugacy is ordinary conjugacy; the
    classes are conjugacy orbits of involutions, found on indices.
    """
    table = weyl_table()
    mul, inv = table.mul, table.inv
    gens = subsystem(i).gamma_gens
    gens = table.reflections if gens is None else [weyl_index(g) for g in gens]
    involutions = [x for x in gamma_group(i) if mul[x][x] == table.identity]
    classes = orbit_classes(involutions, gens, lambda x, g: mul[mul[g][x]][inv[g]])
    return tuple(weyl_group()[c] for c, _ in classes)


# -- action of group elements on h ------------------------------------------------------

def h_action_matrix(g: GElt) -> WeylMat | None:
    """The matrix (u-coordinates) of g's action on the Cartan subspace.

    Returns None when g does not normalize the subspace.  Entries must be
    rational for the result to be a Weyl matrix; non-rational entries also
    yield None.
    """
    cols = []
    for uk in u_basis():
        coords = basis_coords(1, act_tensor(g, uk))
        if coords is None:
            return None
        col = []
        for c in coords:
            if not c.is_rational():
                return None
            col.append(c.to_fraction())
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


# -- the seven real Cartan bases ----------------------------------------------------------

@dataclass(frozen=True)
class CartanBasis:
    index: int
    basis: tuple[Tensor, Tensor, Tensor, Tensor]
    gstar: GElt
    nstar: GElt


def _pair_vector(k: int, sign: int) -> Tensor:
    a, b = _U_PAIRS[k]
    t = [ZERO] * 16
    t[a] = ONE
    t[b] = ONE if sign > 0 else -ONE
    return Tensor(t)


#: The signs of the pair vectors e_a ± e_b of the m-th real Cartan basis,
#: keyed by m, so that an m outside 1..7 raises ``KeyError``.
_CARTAN_SIGNS = {
    1: (1, 1, 1, 1),      # u
    2: (-1, -1, -1, -1),  # v
    3: (-1, -1, -1, 1),   # w
    4: (-1, -1, 1, 1),    # x
    5: (-1, 1, -1, 1),    # y
    6: (-1, 1, 1, -1),    # z
    7: (-1, 1, 1, 1),     # t
}


def _gstar_list() -> list[GElt]:
    eta = CycNum.eta_power
    I = named("I")
    M = named("M")
    L = named("L")
    return [
        gelt(I, I, I, I),
        gelt(L, I, I, I),
        gelt(D(eta(5)), D(eta(5)), m2_neg(D(eta(3))), m2_neg(D(eta(7)))),
        gelt(M, I, I, M),
        gelt(I, M, I, M),
        gelt(I, I, M, M),
        gelt(D(eta(5)), D(eta(5)), D(eta(5)), D(eta(5))),
    ]


@lru_cache(maxsize=1)
def seven_cartans() -> tuple[CartanBasis, ...]:
    out = []
    for (m, signs), gs in zip(_CARTAN_SIGNS.items(), _gstar_list()):
        basis = tuple(_pair_vector(k, s) for k, s in enumerate(signs))
        ns = g_mul(g_inv(gs), conj_g(gs))
        out.append(CartanBasis(index=m, basis=basis, gstar=gs, nstar=ns))
    return tuple(out)


@lru_cache(maxsize=None)
def cartan_is_semisimple(m: int) -> bool:
    """Whether the m-th real Cartan basis is shown to be a commuting
    semisimple family; False when the proof below does not go through.

    The proof rests on checks the cold start makes anyway, not on minimal
    polynomials.  u_1..u_4 commute, and with the 24 root vectors they form
    a basis on which every u_k acts diagonally (:func:`_checked_root_vectors`,
    run by :func:`restricted_roots`); so every element of their span is
    semisimple and any two of them commute.  The inverse of the witness
    g* maps the l-th vector of basis m onto tau_l·u_l with tau_l nonzero
    (:func:`twist_factors`), and the group acts by automorphisms of the
    algebra, which keep semisimplicity and brackets; so the basis vectors
    are semisimple and commute pairwise, and commuting semisimple elements
    are simultaneously diagonalizable.  When it holds, every tensor in the
    span of the basis is semisimple, so membership stands in for a
    per-tensor check.
    """
    restricted_roots()
    try:
        twist_factors(m)
    except ArithmeticError:
        return False
    return True


@lru_cache(maxsize=None)
def twist_factors(m: int) -> tuple[CycNum, ...]:
    """Scalars tau with act(gstar⁻¹, basis_l) = tau_l·u_l for the m-th real
    Cartan basis.  Raises ``ArithmeticError`` when a basis vector does not
    map onto a nonzero multiple of its u_l."""
    cb = seven_cartans()[m - 1]
    back = g_inv(cb.gstar)
    taus = []
    for l, vec in enumerate(cb.basis):
        mu = basis_coords(1, act_tensor(back, vec))
        if mu is None:
            raise ArithmeticError("real basis does not map into the subspace")
        if any(val for pos, val in enumerate(mu) if pos != l):
            raise ArithmeticError("real basis vector maps across axes")
        if not mu[l]:
            raise ArithmeticError("degenerate twist factor")
        taus.append(mu[l])
    return tuple(taus)


_OFF_PAIR_POSITIONS = tuple(
    pos for pos in range(16) if all(pos not in pair for pair in _U_PAIRS)
)


def basis_coords(m: int, t: Tensor) -> tuple[CycNum, ...] | None:
    """Coordinates of ``t`` in the m-th real Cartan basis, or None.

    The l-th basis vector is ``e_a ± e_b`` for the l-th pair ``(a, b)`` of
    ``_U_PAIRS``, with the l-th sign of ``_CARTAN_SIGNS[m]``, so its
    coordinate is read off entry ``a``.  ``KeyError`` for m outside 1..7.
    """
    coords = []
    for (a, b), sign in zip(_U_PAIRS, _CARTAN_SIGNS[m]):
        c = t.c[a]
        if t.c[b] != (c if sign > 0 else -c):
            return None
        coords.append(c)
    if any(t.c[pos] for pos in _OFF_PAIR_POSITIONS):
        return None
    return tuple(coords)


def from_basis_coords(m: int, coords: Sequence[CycNum]) -> Tensor:
    """The element with coordinates ``coords`` in the m-th real Cartan basis.

    The inverse of :func:`basis_coords`: each coordinate goes to entry ``a``
    of its pair ``(a, b)`` and, with the sign of the basis vector, to ``b``.
    """
    entries = [ZERO] * 16
    for c, (a, b), sign in zip(coords, _U_PAIRS, _CARTAN_SIGNS[m]):
        entries[a] = c
        entries[b] = c if sign > 0 else -c
    return Tensor(entries)


def containing_bases(t: Tensor) -> list[tuple[int, tuple[CycNum, ...]]]:
    """Every (m, coordinates) with t in the span of the m-th real Cartan basis."""
    out = []
    for m in range(1, 8):
        coords = basis_coords(m, t)
        if coords is not None:
            out.append((m, coords))
    return out
