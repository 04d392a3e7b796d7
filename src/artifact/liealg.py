"""The split Lie algebra of type D4, its Z/2-grading, and the tensor picture.

The algebra is realized as so(8) for the antidiagonal symmetric form, with the
standard integral basis: Cartan generators H_1..H_4 and a root vector for each
of the 24 roots +-eps_i +- eps_j (i < j).  Simple roots are

    gamma_1 = eps1 - eps2,  gamma_2 = eps2 - eps3,
    gamma_3 = eps3 - eps4,  gamma_4 = eps3 + eps4,

with gamma_2 the central node.  The grading g = g0 + g1 is by parity of the
gamma_2-coefficient: g0 (dim 12) is a sum of four commuting sl2's plus the
Cartan, and g1 (dim 16) is identified with the space of 2x2x2x2 arrays by an
equivariant isomorphism anchored at "root vector of weight -gamma_2 maps to
e_0000".

Elements are coordinate vectors (28 CycNum) over the fixed basis; 2x2x2x2
arrays are `Tensor` values (16 CycNum).  The structure constants come from
sparse integer basis matrices (two entries each), and `bracket` combines
them with the integer numerators of its arguments over one common
denominator; `sparse_bracket` brackets elements with integer coordinates,
such as the stored root vectors, without field arithmetic.  Semisimplicity
is decided exactly at the 8x8 matrix level, by a squarefree minimal
polynomial, which `_linalg.minimal_polynomial` finds by fraction-free
Krylov elimination on integer numerators; for so(8) the matrix notion
agrees with the adjoint one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import _linalg as la
from .exactfield import ONE, ZERO, CycNum, common_numerators, cyc_to_str, mul_acc, parse_cyc, rat

LieElt = list[CycNum]

# -- sparse integer 8x8 matrices, {(row, col): value}, used during construction --

SparseMat = dict[tuple[int, int], int]


def _comm(a: SparseMat, b: SparseMat) -> SparseMat:
    """The commutator ab - ba, zero entries dropped."""
    out: SparseMat = {}
    for sign, x, y in ((1, a, b), (-1, b, a)):
        for (i, k), u in x.items():
            for (k2, j), v in y.items():
                if k == k2:
                    out[i, j] = out.get((i, j), 0) + sign * u * v
    return {p: v for p, v in out.items() if v}


def _structure_constants(mats: Sequence[SparseMat]) -> tuple[list[tuple[int, int]], dict]:
    """The witness entries and the structure constants of a basis of so(8).

    Each matrix must lie in so(8) for the antidiagonal form S, that is
    M^T S + S M = 0, or M[r][c] = -M[7-c][7-r] at every entry.  The
    coordinates of a matrix are read off at one witness entry per basis
    element (its first entry equal to 1), and every commutator
    [b_i, b_j] = sum_k c_k b_k must be rebuilt exactly from the coordinates
    read there.  Raises ``ArithmeticError`` when a check fails.
    """
    for m in mats:
        if any(m.get((7 - c, 7 - r), 0) != -v for (r, c), v in m.items()):
            raise ArithmeticError("basis matrix not in so(8)")
    probes = [min((p for p, v in m.items() if v == 1), default=None) for m in mats]
    if None in probes or len(set(probes)) != len(mats):
        raise ArithmeticError("witness entries of the basis are missing or not distinct")
    struct: dict[tuple[int, int], dict[int, int]] = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            c = _comm(mats[i], mats[j])
            coords = {k: c[p] for k, p in enumerate(probes) if p in c}
            recon: SparseMat = {}
            for k, v in coords.items():
                for p, x in mats[k].items():
                    recon[p] = recon.get(p, 0) + v * x
            if {p: x for p, x in recon.items() if x} != c:
                raise ArithmeticError("bracket leaves the basis span")
            struct[(i, j)] = coords
    return probes, struct


class LieAlgebraD4:
    """The constructed algebra: basis, structure constants, grading, tensor map.

    Immutable after construction; obtain the shared instance via build_d4().
    """

    def __init__(self):
        names: list[str] = []
        mats: list[SparseMat] = []
        eps_roots: list[tuple[int, ...] | None] = []

        # Every basis matrix is E_a - E_b for two positions a and b.
        def add(name: str, eps: tuple[int, ...] | None, a, b) -> None:
            names.append(name)
            mats.append({a: 1, b: -1})
            eps_roots.append(eps)

        for i in range(4):
            add(f"H{i + 1}", None, (i, i), (7 - i, 7 - i))
        for i in range(4):
            for j in range(i + 1, 4):
                for si, sj, a, b in (
                    (1, -1, (i, j), (7 - j, 7 - i)),
                    (-1, 1, (j, i), (7 - i, 7 - j)),
                    (1, 1, (i, 7 - j), (j, 7 - i)),
                    (-1, -1, (7 - j, i), (7 - i, j)),
                ):
                    eps = [0, 0, 0, 0]
                    eps[i], eps[j] = si, sj
                    add("X[%d,%d,%d,%d]" % tuple(eps), tuple(eps), a, b)

        self.dimension = len(mats)
        if self.dimension != 28:
            raise ArithmeticError("expected 28 basis matrices, found %d" % self.dimension)
        self.basis_names = names
        self._int_mats = mats
        self.index = {n: k for k, n in enumerate(names)}

        # Structure constants: [b_i, b_j] = sum_k  c_k b_k, integer c.
        probes, self.struct = _structure_constants(mats)

        # Roots in simple-root coordinates (gamma_2 is the central node):
        # r = c1·gamma_1 + ... + c4·gamma_4 has eps-coordinates
        # (c1, c2 - c1, c3 + c4 - c2, c4 - c3).
        gamma_roots: list[tuple[int, ...] | None] = []
        for eps in eps_roots:
            if eps is None:
                gamma_roots.append(None)
                continue
            r1, r2, r3, r4 = eps
            if (r1 + r2 + r3 + r4) % 2:
                raise ArithmeticError("non-integral root coordinates")
            gamma_roots.append(
                (r1, r1 + r2, (r1 + r2 + r3 - r4) // 2, (r1 + r2 + r3 + r4) // 2)
            )
        self.gamma_roots = gamma_roots

        # Grading by parity of the gamma_2-coefficient.
        self.g0_indices = [
            k
            for k in range(28)
            if gamma_roots[k] is None or gamma_roots[k][1] % 2 == 0
        ]
        self.g1_indices = [
            k for k in range(28) if gamma_roots[k] is not None and gamma_roots[k][1] % 2 == 1
        ]
        if (len(self.g0_indices), len(self.g1_indices)) != (12, 16):
            raise ArithmeticError("grading does not split the algebra as 12 + 16")

        # The four sl2 ideals of g0 (one per tensor slot).  Each triple is
        # (e, h, f) with h given as integer coordinates over H_1..H_4.
        def xi(eps):
            return self.index["X[%d,%d,%d,%d]" % eps]

        self.slot_e = [
            xi((-1, -1, 0, 0)),
            xi((1, -1, 0, 0)),
            xi((0, 0, 1, -1)),
            xi((0, 0, 1, 1)),
        ]
        self.slot_f = [
            xi((1, 1, 0, 0)),
            xi((-1, 1, 0, 0)),
            xi((0, 0, -1, 1)),
            xi((0, 0, -1, -1)),
        ]
        self.slot_h = [
            (-1, -1, 0, 0),
            (1, -1, 0, 0),
            (0, 0, 1, -1),
            (0, 0, 1, 1),
        ]

        # Tensor identification: e_t corresponds to Y_t, the image of the
        # anchor (the root vector of weight -gamma_2 = eps3 - eps2) under
        # ad(f_k) for every slot k with t_k = 1.  Each Y_t is +-1 times a
        # single root vector; record (basis index, sign) per bit pattern.
        anchor = xi((0, -1, 1, 0))
        table: list[tuple[int, int]] = []
        for t in range(16):
            m = mats[anchor]
            for k in range(4):
                if t & (8 >> k):
                    m = _comm(mats[self.slot_f[k]], m)
            hits = [(idx, m[p]) for idx, p in enumerate(probes) if p in m]
            if len(hits) != 1 or abs(hits[0][1]) != 1:
                raise ArithmeticError("tensor basis not monomial")
            idx, sign = hits[0]
            if m != {p: sign * x for p, x in mats[idx].items()}:
                raise ArithmeticError("tensor basis element is not a signed basis matrix")
            table.append((idx, sign))
        if sorted(idx for idx, _ in table) != sorted(self.g1_indices):
            raise ArithmeticError("tensor basis does not cover the degree-one part")
        self.tensor_table = table

    # -- element plumbing ----------------------------------------------------

    def zero(self) -> LieElt:
        return [ZERO] * 28

    def basis_elt(self, k: int) -> LieElt:
        v = self.zero()
        v[k] = ONE
        return v

    def to_matrix(self, x: LieElt) -> la.Mat:
        m = la.zeros(8, 8)
        for k, c in enumerate(x):
            if c:
                for (a, b), v in self._int_mats[k].items():
                    m[a][b] = m[a][b] + c.scale(v)
        return m


@lru_cache(maxsize=None)
def build_d4() -> LieAlgebraD4:
    """Construct (once) the graded algebra with all derived data."""
    return LieAlgebraD4()


# -- basic operations -----------------------------------------------------------

def bracket(x: LieElt, y: LieElt) -> LieElt:
    """[x, y] from the integer structure constants.

    Both arguments are brought to their own common denominator
    (:func:`exactfield.common_numerators`); each product of numerators is
    formed once per basis pair with a nonzero bracket and added into integer
    accumulators, and the result is read back over the product of the two
    denominators, one reduction per coordinate.
    """
    struct = build_d4().struct
    xs, dx = common_numerators(x)
    ys, dy = common_numerators(y)
    acc = [[0] * 8 for _ in range(28)]
    for i, a in enumerate(xs):
        if a is None:
            continue
        for j, b in enumerate(ys):
            if b is None or i == j:
                continue
            terms = struct[(i, j)] if i < j else struct[(j, i)]
            if not terms:
                continue
            prod = [0] * 8
            mul_acc(prod, a, b)
            sign = 1 if i < j else -1
            for k, v in terms.items():
                v *= sign
                out = acc[k]
                for e in range(8):
                    out[e] += v * prod[e]
    den = dx * dy
    return [CycNum.from_numerators(n, den) if any(n) else ZERO for n in acc]


SparseElt = dict[int, int]


def sparse_bracket(struct: dict, x: SparseElt, y: SparseElt) -> SparseElt:
    """[x, y] for elements with integer coordinates {basis index: value},
    from the structure constants ``struct`` of :class:`LieAlgebraD4`; zero
    entries are dropped."""
    out: SparseElt = {}
    for i, a in x.items():
        for j, b in y.items():
            if i < j:
                terms, c = struct[(i, j)], a * b
            elif i > j:
                terms, c = struct[(j, i)], -a * b
            else:
                continue
            for k, v in terms.items():
                out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def ad_matrix(x: LieElt) -> la.Mat:
    """28x28 matrix of ad(x) over the fixed basis (columns = images)."""
    alg = build_d4()
    cols = [bracket(x, alg.basis_elt(k)) for k in range(28)]
    return la.transpose(cols)


def lie_sub(x: LieElt, y: LieElt) -> LieElt:
    return [a - b for a, b in zip(x, y)]


def lie_scale(c: CycNum, x: LieElt) -> LieElt:
    return [c * a for a in x]


def lie_is_zero(x: LieElt) -> bool:
    return all(not a for a in x)


def verify_built(alg: LieAlgebraD4 | None = None) -> dict:
    """Check the construction invariants; returns a small report dict.

    Verifies the Jacobi identity on all basis triples (in integer arithmetic),
    the grading dimensions and bracket compatibility, and that the four sl2
    triples behave as sl2's and commute pairwise.
    """
    alg = alg or build_d4()
    units = [{i: 1} for i in range(28)]
    inner = [[sparse_bracket(alg.struct, x, y) for y in units] for x in units]

    jacobi_bad = 0
    for i in range(28):
        for j in range(28):
            for k in range(28):
                acc: dict[int, int] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in sparse_bracket(alg.struct, units[a], inner[b][c]).items():
                        acc[m] = acc.get(m, 0) + v
                if any(acc.values()):
                    jacobi_bad += 1

    # grading compatibility on all basis pairs
    g0 = set(alg.g0_indices)
    grading_bad = 0
    for i in range(28):
        for j in range(28):
            target0 = (i in g0) == (j in g0)  # even*even or odd*odd lands in g0
            for k in inner[i][j]:
                if (k in g0) != target0:
                    grading_bad += 1

    # sl2 ideals
    sl2_ok = True
    h_elts = []
    for s in range(4):
        h = alg.zero()
        for a in range(4):
            h[a] = rat(alg.slot_h[s][a])
        h_elts.append(h)
    for s in range(4):
        e = alg.basis_elt(alg.slot_e[s])
        f = alg.basis_elt(alg.slot_f[s])
        h = h_elts[s]
        sl2_ok &= bracket(e, f) == h
        sl2_ok &= bracket(h, e) == lie_scale(rat(2), e)
        sl2_ok &= bracket(h, f) == lie_scale(rat(-2), f)
        for s2 in range(4):
            if s2 == s:
                continue
            for a in (alg.basis_elt(alg.slot_e[s]), h_elts[s], alg.basis_elt(alg.slot_f[s])):
                for b in (
                    alg.basis_elt(alg.slot_e[s2]),
                    h_elts[s2],
                    alg.basis_elt(alg.slot_f[s2]),
                ):
                    sl2_ok &= lie_is_zero(bracket(a, b))

    return {
        "dimension": alg.dimension,
        "jacobi_failures": jacobi_bad,
        "grading_dims": (len(alg.g0_indices), len(alg.g1_indices)),
        "grading_failures": grading_bad,
        "sl2_ideals_ok": bool(sl2_ok),
    }


# -- tensors ---------------------------------------------------------------------

def _bits_to_index(bits: str | tuple[int, ...]) -> int:
    if isinstance(bits, str):
        if len(bits) != 4 or any(b not in "01" for b in bits):
            raise ValueError(f"bad tensor index {bits!r}")
        return int(bits, 2)
    t = 0
    for b in bits:
        t = (t << 1) | b
    return t


def _index_to_bits(t: int) -> str:
    return format(t, "04b")


class Tensor:
    """A 2x2x2x2 array with entries in Q(eta), indexed by bit strings."""

    __slots__ = ("c",)

    c: tuple[CycNum, ...]

    def __init__(self, coeffs: Iterable[CycNum]):
        cs = tuple(coeffs)
        if len(cs) != 16:
            raise ValueError("Tensor needs 16 coefficients")
        self.c = cs

    @staticmethod
    def zero() -> "Tensor":
        return Tensor([ZERO] * 16)

    @staticmethod
    def basis(bits: str | tuple[int, ...] | int, coeff: CycNum = ONE) -> "Tensor":
        t = bits if isinstance(bits, int) else _bits_to_index(bits)
        cs = [ZERO] * 16
        cs[t] = coeff
        return Tensor(cs)

    def __getitem__(self, bits) -> CycNum:
        return self.c[bits if isinstance(bits, int) else _bits_to_index(bits)]

    def __add__(self, other: "Tensor") -> "Tensor":
        return Tensor([a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other: "Tensor") -> "Tensor":
        return Tensor([a - b for a, b in zip(self.c, other.c)])

    def __neg__(self) -> "Tensor":
        return Tensor([-a for a in self.c])

    def scale(self, k: CycNum) -> "Tensor":
        return Tensor([k * a for a in self.c])

    def conjugate(self) -> "Tensor":
        return Tensor([a.conjugate() for a in self.c])

    def is_real(self) -> bool:
        return all(a.is_real() for a in self.c)

    def is_zero(self) -> bool:
        return all(not a for a in self.c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor) and self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __repr__(self) -> str:
        parts = [
            f"{cyc_to_str(self.c[t])}*e{_index_to_bits(t)}"
            for t in range(16)
            if self.c[t]
        ]
        return "Tensor(" + (" + ".join(parts) if parts else "0") + ")"

    # JSON: {"coeffs": {"0000": "<value>", ...}}, omitted keys are zero.
    def to_json(self) -> str:
        coeffs = {_index_to_bits(t): cyc_to_str(c) for t, c in enumerate(self.c) if c}
        return json.dumps({"coeffs": coeffs}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Tensor":
        d = json.loads(text)
        if not isinstance(d, dict) or "coeffs" not in d or not isinstance(d["coeffs"], dict):
            raise ValueError('tensor JSON needs a "coeffs" object')
        cs = [ZERO] * 16
        for bits, value in d["coeffs"].items():
            if not isinstance(value, str):
                raise ValueError("tensor coefficients must be strings")
            cs[_bits_to_index(bits)] = parse_cyc(value)
        return Tensor(cs)


def tensor(spec: dict[str, Fraction | int | str | CycNum]) -> Tensor:
    """Convenience builder: tensor({"0000": 1, "1111": "1/2"})."""
    cs = [ZERO] * 16
    for bits, v in spec.items():
        if isinstance(v, CycNum):
            c = v
        elif isinstance(v, str):
            c = parse_cyc(v)
        else:
            c = rat(v)
        cs[_bits_to_index(bits)] = c
    return Tensor(cs)


# The distinguished commuting quadruple spanning the reference Cartan subspace.
def u_basis() -> tuple[Tensor, Tensor, Tensor, Tensor]:
    return (
        tensor({"0000": 1, "1111": 1}),
        tensor({"0110": 1, "1001": 1}),
        tensor({"0101": 1, "1010": 1}),
        tensor({"0011": 1, "1100": 1}),
    )


# -- the graded identification ----------------------------------------------------

def tensor_to_g1(t: Tensor) -> LieElt:
    alg = build_d4()
    x = alg.zero()
    for ti in range(16):
        c = t.c[ti]
        if c:
            idx, sign = alg.tensor_table[ti]
            x[idx] = c if sign == 1 else -c
    return x


def g1_to_tensor(x: LieElt) -> Tensor:
    alg = build_d4()
    for k in alg.g0_indices:
        if x[k]:
            raise ValueError("not homogeneous of degree 1")
    cs = [ZERO] * 16
    for ti in range(16):
        idx, sign = alg.tensor_table[ti]
        cs[ti] = x[idx] if sign == 1 else -x[idx]
    return Tensor(cs)


def g0_to_quad_mats(x: LieElt) -> list[la.Mat]:
    """Write a degree-zero element as four 2x2 traceless matrices (one per slot)."""
    alg = build_d4()
    for k in alg.g1_indices:
        if x[k]:
            raise ValueError("not homogeneous of degree 0")
    # Cartan part: express over the four slot h's.
    hmat = la.transpose([[rat(v) for v in alg.slot_h[s]] for s in range(4)])
    bcoef = la.solve(hmat, [x[a] for a in range(4)])
    if bcoef is None:
        raise ArithmeticError("Cartan part outside the span of the slot h's")
    out = []
    for s in range(4):
        a = x[alg.slot_e[s]]
        b = bcoef[s]
        c = x[alg.slot_f[s]]
        out.append([[b, a], [c, -b]])
    return out


def quad_mats_to_g0(mats: Sequence[la.Mat]) -> LieElt:
    alg = build_d4()
    x = alg.zero()
    for s, m in enumerate(mats):
        if m[0][0] != -(m[1][1]):
            raise ValueError("slot matrix is not traceless")
        x[alg.slot_e[s]] = x[alg.slot_e[s]] + m[0][1]
        x[alg.slot_f[s]] = x[alg.slot_f[s]] + m[1][0]
        for a in range(4):
            x[a] = x[a] + m[0][0].scale(alg.slot_h[s][a])
    return x


# -- semisimplicity ----------------------------------------------------------------

def _as_coords(x: "LieElt | Tensor") -> LieElt:
    return tensor_to_g1(x) if isinstance(x, Tensor) else x


def is_semisimple(x: "LieElt | Tensor") -> bool:
    coords = _as_coords(x)
    m = build_d4().to_matrix(coords)
    p = la.minimal_polynomial(m)
    return la.poly_deg(la.poly_gcd(p, la.poly_deriv(p))) == 0


# -- centralizers -------------------------------------------------------------------

def centralizer_dim(x: "LieElt | Tensor") -> int:
    coords = _as_coords(x)
    return 28 - la.rank(ad_matrix(coords))


def centralizer_basis(x: "LieElt | Tensor") -> list[LieElt]:
    coords = _as_coords(x)
    return la.nullspace(ad_matrix(coords))


def derived_dim_of_centralizer(x: "LieElt | Tensor") -> int:
    """Dimension of [z, z] for z the centralizer of x; separates the
    centralizer types that plain dimension cannot."""
    basis = centralizer_basis(x)
    brackets = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            b = bracket(basis[i], basis[j])
            if not lie_is_zero(b):
                brackets.append(b)
    return la.rank(brackets)
