"""Cartan subspace, restricted roots, Weyl group, subsystems, real Cartan bases.

The 24 restricted roots are stored data, each a functional with a root
vector, and every one is checked against the algebra by brackets,
[u_k, v] = alpha(u_k)·v, before use; each is paired with its coroot h_alpha,
computed from one bracket and normalized by alpha(h_alpha) = 2.  The Weyl
group (order 192) is generated by the 24 reflections as exact rational 4x4
matrices in u-coordinates.  The eleven complete subsystems and their
complement groups Gamma, and the seven real Cartan bases with their witness
pairs (g*, n*), are embedded as data and re-verified by the test suite.

Every entry of a Weyl matrix lies in {0, ±1/2, ±1}, so W sits in the lattice
of half-integral matrices.  A Weyl matrix is a 4x4 tuple of Fractions, but
products are formed over the integers with the common denominator 2
(:func:`w_mul`), and an inverse is the transpose, after an exact check that
the matrix is orthogonal (:func:`w_inv`).  Group closures and the involution
classes of :func:`gamma_h1` run on those doubled entries, through the
breadth-first orbit engine of :mod:`artifact._orbits` that the Galois
cohomology of :mod:`artifact.galois` also uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ._orbits import orbit, orbit_classes
from .exactfield import ONE, ZERO, CycNum, common_numerators, rat
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
    bracket,
    g1_to_tensor,
    is_commuting_semisimple,
    tensor_to_g1,
    u_basis,
)

# u_k = e(pair0) + e(pair1); v_k = e(pair0) - e(pair1)
_U_PAIRS = ((0, 15), (6, 9), (5, 10), (3, 12))

WeylMat = tuple[tuple[Fraction, ...], ...]


def u_coords(t: Tensor) -> tuple[CycNum, CycNum, CycNum, CycNum] | None:
    """Coordinates of t over u_1..u_4, or None when t is outside their span."""
    coords = []
    allowed = set()
    for a, b in _U_PAIRS:
        if t.c[a] != t.c[b]:
            return None
        coords.append(t.c[a])
        allowed.update((a, b))
    for idx in range(16):
        if idx not in allowed and t.c[idx]:
            return None
    return tuple(coords)  # type: ignore[return-value]


def from_u_coords(coords: Sequence[CycNum]) -> Tensor:
    """The element with coordinates ``coords`` over u_1..u_4, as a tensor.

    Each coordinate is written into both positions of its pair in
    ``_U_PAIRS``, which is where u_k has its two unit entries.
    """
    entries = [ZERO] * 16
    for c, (a, b) in zip(coords, _U_PAIRS):
        entries[a] = entries[b] = c
    return Tensor(entries)


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
    """The root vectors of ``table``, each checked by brackets.

    For every entry, [u_k, v] = alpha(u_k)·v must hold for k = 1..4 (96
    brackets for the 24 roots), with v nonzero.  Root vectors of distinct
    functionals are linearly independent, and the centralizer of the Cartan
    subspace contains u_1..u_4; so 24 distinct nonzero functionals in the
    28-dimensional algebra make each root space one-dimensional and the
    centralizer four-dimensional: the table is the whole decomposition.
    Raises ``ArithmeticError`` otherwise.
    """
    signs = {".": ZERO, "+": ONE, "-": -ONE}
    us = [tensor_to_g1(uk) for uk in u_basis()]
    roots: dict[tuple[int, ...], LieElt] = {}
    for tag, pattern in table:
        v = [signs[ch] for ch in pattern]
        if len(v) != 28 or not any(v) or not any(tag) or tag in roots:
            raise ArithmeticError("malformed root entry %r" % (tag,))
        for uk, a in zip(us, tag):
            if bracket(uk, v) != [x.scale(a) for x in v]:
                raise ArithmeticError("%r is not a root vector of %r" % (pattern, tag))
        roots[tag] = v
    if len(roots) != 24:
        raise ArithmeticError(f"expected 24 restricted roots, found {len(roots)}")
    return roots


@lru_cache(maxsize=1)
def restricted_roots() -> tuple[RestrictedRoot, ...]:
    """The 24 restricted roots, in increasing order of functional.

    The root vectors are the stored table, checked by brackets
    (:func:`_checked_root_vectors`).  Each h_alpha is read off
    [v_alpha, v_-alpha], which lies in the Cartan subspace, scaled so that
    alpha(h_alpha) = 2.
    """
    roots = _checked_root_vectors(_ROOTS)
    out = []
    for tag in sorted(roots):
        v = roots[tag]
        neg = roots.get(tuple(-c for c in tag))
        if neg is None:
            raise ArithmeticError("root %r has no negative" % (tag,))
        br = bracket(v, neg)
        t = g1_to_tensor(br)
        coords = u_coords(t)
        if coords is None:
            raise ArithmeticError("coroot fell outside the Cartan subspace")
        pairing = ZERO
        for c, x in zip(tag, coords):
            if c:
                pairing = pairing + x.scale(c)
        if not pairing:
            raise ArithmeticError("degenerate root pairing")
        scale = rat(2) / pairing
        h = tuple((scale * x).to_fraction() for x in coords)
        out.append(RestrictedRoot(coeffs=tag, vector=tuple(v), h_alpha=h))
    return tuple(out)


# -- Weyl group -------------------------------------------------------------------

def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def wmat(rows) -> WeylMat:
    return tuple(tuple(_fr(v) for v in row) for row in rows)


W_IDENTITY: WeylMat = wmat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


#: Matrix entries by doubled value; products take their entries from here.
_HALVES = {n: Fraction(n, 2) for n in range(-4, 5)}


def _doubled(w: WeylMat) -> tuple[int, ...]:
    """The 16 entries of w times 2, row by row, as integers."""
    out = []
    for row in w:
        for v in row:
            den = v.denominator
            if den > 2:
                raise ArithmeticError("matrix entry %s is not a multiple of 1/2" % v)
            out.append(v.numerator * (2 // den))
    return tuple(out)


def _doubled_product(a2: tuple[int, ...], b2: tuple[int, ...]) -> tuple[int, ...]:
    """Doubled entries of a·b from the doubled entries of a and b."""
    out = []
    for i in range(0, 16, 4):
        x0, x1, x2, x3 = a2[i:i + 4]
        for j in range(4):
            s = x0 * b2[j] + x1 * b2[4 + j] + x2 * b2[8 + j] + x3 * b2[12 + j]
            if s % 2:
                raise ArithmeticError("product entry is not a multiple of 1/2")
            out.append(s // 2)
    return tuple(out)


def _undoubled(c2: tuple[int, ...]) -> WeylMat:
    entries = [_HALVES[n] if n in _HALVES else Fraction(n, 2) for n in c2]
    return tuple(tuple(entries[i:i + 4]) for i in range(0, 16, 4))


def w_mul(a: WeylMat, b: WeylMat) -> WeylMat:
    """The product a·b of two half-integral matrices, over the integers.

    Entries are read as integers over the common denominator 2, and
    ``ArithmeticError`` is raised for any other denominator.  Each doubled
    product entry is an integer sum divided by 2; it must come out whole,
    or the product has left the lattice and ``ArithmeticError`` is raised.
    """
    return _undoubled(_doubled_product(_doubled(a), _doubled(b)))


def w_inv(w: WeylMat) -> WeylMat:
    """The inverse of an orthogonal matrix: its transpose.

    Every element of W, and every signed permutation matrix, is orthogonal.
    The transpose is returned after checking w·wᵀ = I exactly with
    :func:`w_mul`; any other matrix raises ``ArithmeticError``.
    """
    t = tuple(zip(*w))
    if w_mul(w, t) != W_IDENTITY:
        raise ArithmeticError("matrix is not orthogonal")
    return t


def w_act_coords(w: WeylMat, coords: Sequence[CycNum]) -> tuple[CycNum, ...]:
    """Image of an h-element (u-coordinates) under w."""
    out = []
    for i in range(4):
        acc = ZERO
        for j in range(4):
            if w[i][j]:
                acc = acc + coords[j].scale(w[i][j])
        out.append(acc)
    return tuple(out)


def functional_after(coeffs: Sequence, w: WeylMat) -> tuple[int, ...]:
    """The functional alpha∘w (row vector times matrix), must stay integral."""
    out = []
    for j in range(4):
        v = sum(_fr(coeffs[k]) * w[k][j] for k in range(4))
        if v.denominator != 1:
            raise ArithmeticError("root image is not integral")
        out.append(int(v))
    return tuple(out)


def reflection(root: RestrictedRoot) -> WeylMat:
    """s_alpha(h) = h - alpha(h) h_alpha as a matrix in u-coordinates."""
    return tuple(
        tuple(
            (Fraction(1) if r == c else Fraction(0)) - root.h_alpha[r] * root.coeffs[c]
            for c in range(4)
        )
        for r in range(4)
    )


@lru_cache(maxsize=1)
def weyl_group() -> tuple[WeylMat, ...]:
    gens = [reflection(r) for r in restricted_roots()]
    group = _closure(gens, 192)
    if len(group) != 192:
        raise ArithmeticError("Weyl group closure came out short")
    return group


def _root_permutation(w2: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of the restricted roots induced by a matrix.

    ``w2`` holds the doubled entries of w (:func:`_doubled`).  Entry a of
    the result is the index, in :func:`restricted_roots`, of the root
    alpha_a∘w⁻¹.  It is found from the other side: for every root beta,
    beta∘w is the row vector beta times w, computed over the integers as
    half of beta times the doubled matrix, and it must be a root alpha_a,
    whose entry is then the index of beta.  Raises ``ArithmeticError`` if
    an image is not integral, is not a root, or two roots share an image.
    """
    coeffs = [r.coeffs for r in restricted_roots()]
    index = {c: a for a, c in enumerate(coeffs)}
    perm = [None] * len(coeffs)
    for b, beta in enumerate(coeffs):
        image = []
        for j in range(4):
            s = sum(beta[k] * w2[4 * k + j] for k in range(4))
            if s % 2:
                raise ArithmeticError("root image is not integral")
            image.append(s // 2)
        a = index.get(tuple(image))
        if a is None:
            raise ArithmeticError("%r∘w is not a root" % (beta,))
        if perm[a] is not None:
            raise ArithmeticError("two roots have the same image")
        perm[a] = b
    return tuple(perm)


@lru_cache(maxsize=1)
def root_permutations() -> tuple[tuple[int, ...], ...]:
    """For each element of :func:`weyl_group`, in order, its root permutation.

    Entry (w, a) is the index of alpha_a∘w⁻¹ (:func:`_root_permutation`).
    A root alpha vanishes at w·mu exactly when alpha∘w vanishes at mu, so
    the roots vanishing at w·mu are the images, under the permutation of
    w, of the roots vanishing at mu.  Built once from doubled integer
    entries.
    """
    return tuple(_root_permutation(_doubled(w)) for w in weyl_group())


def _closure(gens: list[WeylMat], limit: int) -> tuple[WeylMat, ...]:
    """The group generated by ``gens``, in increasing order.

    The closure runs on doubled entries (integer tuples), whose
    lexicographic order is the order of the matrices themselves.
    """
    found = orbit(_doubled(W_IDENTITY), [_doubled(g) for g in gens],
                  lambda m, g: _doubled_product(g, m),
                  limit=limit, what="group closure exceeded expected order")
    return tuple(_undoubled(p) for p in sorted(found))


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
    return from_u_coords(coords)


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
    """Functionals of the restricted roots that vanish at ``coords``.

    The coordinates are brought to one denominator
    (:func:`exactfield.common_numerators`); a root vanishes exactly when
    its integer dot product with their numerators does, in each of the
    eight positions.  A root and its negative vanish together, and the
    roots are sorted, so the negative of the a-th is the (23 - a)-th: only
    the first 12 are evaluated.
    """
    nums, _ = common_numerators(coords)
    # one column per position that is nonzero in some coordinate
    columns = [col for col in zip(*(n or (0,) * 8 for n in nums)) if any(col)]
    half = [
        r.coeffs for r in restricted_roots()[:12]
        if not any(sum(c * x for c, x in zip(r.coeffs, col)) for col in columns)
    ]
    return frozenset(half + [tuple(-c for c in k) for k in half])


def _canonical_pattern(roots: frozenset[tuple[int, ...]]) -> tuple:
    best = None
    for w in weyl_group():
        img = tuple(sorted(functional_after(a, w) for a in roots))
        if best is None or img < best:
            best = img
    return best


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
    coords = u_coords(p)
    if coords is None:
        raise ValueError("element is not in the Cartan subspace")
    pattern = _canonical_pattern(vanishing_roots(coords))
    table = _pattern_table()
    if pattern not in table:
        raise ArithmeticError("vanishing pattern matches no complete subsystem")
    return table[pattern]


# -- the complement groups Gamma and their H^1 ----------------------------------------

@lru_cache(maxsize=None)
def gamma_group(i: int) -> tuple[WeylMat, ...]:
    data = subsystem(i)
    if data.gamma_gens is None:
        return weyl_group()
    if not data.gamma_gens:
        return (W_IDENTITY,)
    return _closure(list(data.gamma_gens), 400)


@lru_cache(maxsize=None)
def w_pi_group(i: int) -> tuple[WeylMat, ...]:
    """The reflection subgroup W_Pi generated by the member roots."""
    members = member_roots(i)
    gens = [reflection(r) for r in restricted_roots() if r.coeffs in members]
    if not gens:
        return (W_IDENTITY,)
    return _closure(gens, 200)


def gamma_h1(i: int) -> tuple[WeylMat, ...]:
    """H^1(Gamma, trivial conjugation): involution classes, least representatives.

    With trivial conjugation, twisted conjugacy is ordinary conjugacy; the
    classes are conjugacy orbits of involutions, on doubled entries.
    """
    data = subsystem(i)
    if data.gamma_gens is None:
        gens = [reflection(r) for r in restricted_roots()]
    else:
        gens = list(data.gamma_gens)
    conjugators = [(_doubled(g), _doubled(w_inv(g))) for g in gens]
    one = _doubled(W_IDENTITY)
    involutions = sorted(
        g for g in map(_doubled, gamma_group(i)) if _doubled_product(g, g) == one
    )
    classes = orbit_classes(involutions, conjugators,
                            lambda x, c: _doubled_product(_doubled_product(c[0], x), c[1]))
    return tuple(_undoubled(c) for c, _ in classes)


# -- action of group elements on h ------------------------------------------------------

def h_action_matrix(g: GElt) -> WeylMat | None:
    """The matrix (u-coordinates) of g's action on the Cartan subspace.

    Returns None when g does not normalize the subspace.  Entries must be
    rational for the result to be a Weyl matrix; non-rational entries also
    yield None.
    """
    cols = []
    for uk in u_basis():
        img = act_tensor(g, uk)
        coords = u_coords(img)
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


_CARTAN_SIGNS = (
    (1, 1, 1, 1),      # u
    (-1, -1, -1, -1),  # v
    (-1, -1, -1, 1),   # w
    (-1, -1, 1, 1),    # x
    (-1, 1, -1, 1),    # y
    (-1, 1, 1, -1),    # z
    (-1, 1, 1, 1),     # t
)


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
    for m, (signs, gs) in enumerate(zip(_CARTAN_SIGNS, _gstar_list()), start=1):
        basis = tuple(_pair_vector(k, s) for k, s in enumerate(signs))
        ns = g_mul(g_inv(gs), conj_g(gs))
        out.append(CartanBasis(index=m, basis=basis, gstar=gs, nstar=ns))
    return tuple(out)


@lru_cache(maxsize=None)
def cartan_is_semisimple(m: int) -> bool:
    """Whether the m-th real Cartan basis is a commuting semisimple family.

    When it is, every tensor in its span is semisimple (the span is a Cartan
    subspace of g1), so membership stands in for a per-tensor check.
    """
    return is_commuting_semisimple(seven_cartans()[m - 1].basis)


_OFF_PAIR_POSITIONS = tuple(
    pos for pos in range(16) if all(pos not in pair for pair in _U_PAIRS)
)


def basis_coords(m: int, t: Tensor) -> tuple[CycNum, ...] | None:
    """Coordinates of ``t`` in the m-th real Cartan basis, or None.

    The l-th basis vector is ``e_a ± e_b`` for the l-th pair ``(a, b)`` of
    ``_U_PAIRS``, so its coordinate is read off entry ``a``.
    """
    cb = seven_cartans()[m - 1]
    coords = []
    for (a, b), vec in zip(_U_PAIRS, cb.basis):
        c = t.c[a]
        if t.c[b] != (c if vec.c[b] == ONE else -c):
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
    cb = seven_cartans()[m - 1]
    entries = [ZERO] * 16
    for c, (a, b), vec in zip(coords, _U_PAIRS, cb.basis):
        entries[a] = c
        entries[b] = c if vec.c[b] == ONE else -c
    return Tensor(entries)


def containing_bases(t: Tensor) -> list[tuple[int, tuple[CycNum, ...]]]:
    """Every (m, coordinates) with t in the span of the m-th real Cartan basis."""
    out = []
    for m in range(1, 8):
        coords = basis_coords(m, t)
        if coords is not None:
            out.append((m, coords))
    return out
