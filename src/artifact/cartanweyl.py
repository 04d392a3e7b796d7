"""Cartan subspace, restricted roots, Weyl group, subsystems, real Cartan bases.

The 24 restricted roots are stored data, each a functional with a root
vector, and every one is checked against the algebra by brackets,
[u_k, v] = alpha(u_k)·v, before use; each is paired with its coroot h_alpha,
computed from one bracket and normalized by alpha(h_alpha) = 2.  The Weyl
group (order 192) is generated by the 24 reflections as exact rational 4x4
matrices in u-coordinates.  The eleven complete subsystems and their
complement groups Gamma, and the seven real Cartan bases with their witness
pairs (g*, n*), are embedded as data and re-verified by the test suite.

An element of W is named by its index in :func:`weyl_group`, whose matrices
are read off the root permutations.  Products and inverses are lookups in
:func:`weyl_table`, and Gamma, W_Pi and the classes of :func:`gamma_h1` are
searches over indices by the orbit engine of :mod:`artifact._orbits`.
Matrices remain only at the boundary: :func:`w_act_coords`,
:func:`h_action_matrix`, stored data and returned values; :func:`weyl_index`
maps a matrix to its index and rejects one outside W.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from ._orbits import orbit, orbit_classes, regular_tables
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

def wmat(rows) -> WeylMat:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


W_IDENTITY: WeylMat = wmat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

#: The roots 2·e_k: for the k-th, alpha∘w is twice row k of w.
_AXIS_ROOTS = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))


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


def reflection(root: RestrictedRoot) -> WeylMat:
    """s_alpha(h) = h - alpha(h) h_alpha as a matrix in u-coordinates."""
    return tuple(
        tuple(
            (Fraction(1) if r == c else Fraction(0)) - root.h_alpha[r] * root.coeffs[c]
            for c in range(4)
        )
        for r in range(4)
    )


def _root_permutation(w: WeylMat) -> tuple[int, ...]:
    """The permutation of the restricted roots induced by a matrix.

    Entry a of the result is the index, in :func:`restricted_roots`, of the
    root alpha_a∘w⁻¹.  It is found from the other side: for every root beta,
    beta∘w, half of beta times the integer matrix 2·w, must be a root
    alpha_a, whose entry is then the index of beta.  Raises
    ``ArithmeticError`` if an image is not integral, is not a root, or two
    roots share an image.
    """
    w2 = [[2 * v for v in row] for row in w]
    if any(v.denominator != 1 for row in w2 for v in row):
        raise ArithmeticError("root image is not integral")
    w2 = [[int(v) for v in row] for row in w2]
    coeffs = [r.coeffs for r in restricted_roots()]
    index = {c: a for a, c in enumerate(coeffs)}
    perm = [None] * len(coeffs)
    for b, beta in enumerate(coeffs):
        image = [sum(beta[k] * w2[k][j] for k in range(4)) for j in range(4)]
        if any(v % 2 for v in image):
            raise ArithmeticError("root image is not integral")
        a = index.get(tuple(v // 2 for v in image))
        if a is None:
            raise ArithmeticError("%r∘w is not a root" % (beta,))
        if perm[a] is not None:
            raise ArithmeticError("two roots have the same image")
        perm[a] = b
    return tuple(perm)


def _doubled_rows(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Twice the rows of the element w of W with root permutation ``perm``.

    For the root beta = 2·e_k, beta∘w is twice row k of w, and it is the
    root alpha_a whose entry a of ``perm`` is the index of beta.
    """
    coeffs = [r.coeffs for r in restricted_roots()]
    return tuple(coeffs[perm.index(coeffs.index(e))] for e in _AXIS_ROOTS)


@lru_cache(maxsize=1)
def _reflection_permutations() -> tuple[tuple[int, ...], ...]:
    """The root permutation of each restricted root's reflection, in order."""
    return tuple(_root_permutation(reflection(r)) for r in restricted_roots())


@lru_cache(maxsize=1)
def root_permutations() -> tuple[tuple[int, ...], ...]:
    """For each element of :func:`weyl_group`, in order, its root permutation.

    Entry (w, a) is the index of alpha_a∘w⁻¹ (:func:`_root_permutation`).
    A root alpha vanishes at w·mu exactly when alpha∘w vanishes at mu, so
    the roots vanishing at w·mu are the images, under the permutation of
    w, of the roots vanishing at mu.  The permutations of the reflections
    generate W, since perm(a·b) = perm(a)∘perm(b).
    """
    gens = list(dict.fromkeys(_reflection_permutations()))
    perms = orbit(tuple(range(len(gens[0]))), gens, lambda p, s: itemgetter(*p)(s),
                  limit=192, what="Weyl group closure exceeded its order 192")
    if len(perms) != 192:
        raise ArithmeticError("Weyl group closure came out short")
    return tuple(sorted(perms, key=_doubled_rows))


@lru_cache(maxsize=1)
def weyl_group() -> tuple[WeylMat, ...]:
    """The 192 elements of W as matrices in u-coordinates, in increasing order.

    An element's position here is its index, by which the package names it.
    """
    return tuple(tuple(tuple(Fraction(c, 2) for c in row) for row in _doubled_rows(p))
                 for p in root_permutations())


@dataclass(frozen=True)
class WeylTable:
    """W on the indices of :func:`weyl_group`: ``mul[a][b]`` is the index of
    a·b, ``inv[a]`` that of a⁻¹; ``reflections[a]`` is the index of the
    reflection of the a-th restricted root; ``index`` maps matrix to index.
    """

    index: dict
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    identity: int
    reflections: tuple[int, ...]


@lru_cache(maxsize=1)
def weyl_table() -> WeylTable:
    """W's tables: the left-regular row of each reflection s is read off the
    root permutations, perm(s·x) = perm(s)∘perm(x), and every other row is
    a composition of those (:func:`_orbits.regular_tables`)."""
    perms = root_permutations()
    position = {p: n for n, p in enumerate(perms)}
    reflections = tuple(position[p] for p in _reflection_permutations())
    rows = [tuple(position[itemgetter(*p)(perms[s])] for p in perms)
            for s in dict.fromkeys(reflections)]
    index = {w: n for n, w in enumerate(weyl_group())}
    identity = index[W_IDENTITY]
    mul, inv = regular_tables(rows, identity)
    return WeylTable(index=index, mul=mul, inv=inv, identity=identity,
                     reflections=reflections)


def weyl_index(w: WeylMat) -> int:
    """The index of ``w`` in :func:`weyl_group`; ``ArithmeticError`` for a
    matrix outside W or None (:func:`h_action_matrix` of a non-normalizer)."""
    try:
        return weyl_table().index[w]
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
