"""Polynomial invariants used as exact orbit-separation oracles.

Three families of classical invariants of 2×2×2×2 tensors under the product
of four unimodular groups are provided:

* the degree-2 invariant ``H`` — its sixteen coefficients are *derived* by
  solving the linear system "the Lie-algebra action annihilates the
  polynomial" rather than transcribed from anywhere, eliminating any
  sign-convention risk;
* the three degree-4 flattening determinants, one per way of splitting the
  four slots into two pairs;
* the 2×2×2 hyperdeterminant (quadratic discriminant of the pencil of 2×2
  slices), applicable to three-slot slices of states.

Equal orbits have equal invariants, so differing invariants are a sound
(never complete) witness of non-conjugacy.  For real tensors the sign
pattern of the real invariant values is preserved by the real group action
as well; :func:`real_signature` exposes it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from . import _linalg as la
from .exactfield import CycNum, ZERO, ONE, cyc_to_str, rat
from .liealg import Tensor, bracket, build_d4, g1_to_tensor, tensor_to_g1


# ---------------------------------------------------------------------------
# the quadratic invariant
# ---------------------------------------------------------------------------


def _monomials() -> list[tuple[int, int]]:
    return [(i, j) for i in range(16) for j in range(i, 16)]


@lru_cache(maxsize=1)
def derive_quadratic() -> dict[tuple[int, int], CycNum]:
    """Coefficient table of the degree-2 invariant, solved from scratch.

    Unknowns are coefficients c_{ij} (i ≤ j) of the 136 degree-2 monomials
    t_i·t_j in the sixteen tensor coordinates.  For every basis element X of
    the degree-0 part of the algebra, the derivation action must vanish:

        Σ_i (X·t)_i ∂P/∂t_i = 0.

    Stacking these conditions gives an exact homogeneous linear system whose
    kernel must be one-dimensional; the solution is normalized so that the
    coefficient of t₀·t₁₅ equals 1.
    """
    alg = build_d4()
    monos = _monomials()
    index_of = {m: k for k, m in enumerate(monos)}
    # The solution space is carried along as a list of sparse columns
    # (dicts monomial-index → coefficient) and cut down one generator at a
    # time; the early diagonal generators shrink it fast, keeping every
    # nullspace computation small.
    space: list[dict[int, CycNum]] = [{k: ONE} for k in range(len(monos))]
    for xk in alg.g0_indices:
        x = alg.basis_elt(xk)
        # action matrix on tensor coordinates: column j is X·e_j
        action = []
        for j in range(16):
            col = g1_to_tensor(bracket(x, tensor_to_g1(Tensor.basis(j))))
            action.append(col.c)
        # condition rows: coefficient of each target monomial in X·P
        conditions: dict[tuple[int, int], dict[int, CycNum]] = {}
        for (i, j) in monos:
            contrib: dict[tuple[int, int], CycNum] = {}
            for m in range(16):
                a = action[i][m]
                if a != ZERO:
                    key = (m, j) if m <= j else (j, m)
                    contrib[key] = contrib.get(key, ZERO) + a
                b = action[j][m]
                if b != ZERO:
                    key = (i, m) if i <= m else (m, i)
                    contrib[key] = contrib.get(key, ZERO) + b
            src = index_of[(i, j)]
            for key, val in contrib.items():
                if val != ZERO:
                    conditions.setdefault(key, {})[src] = val
        if not conditions:
            continue
        # restrict the conditions to the current solution space
        small: list[list[CycNum]] = []
        for terms in conditions.values():
            row = []
            for col in space:
                acc = ZERO
                short, long = (terms, col) if len(terms) <= len(col) else (col, terms)
                for m, v in short.items():
                    w = long.get(m)
                    if w is not None:
                        acc = acc + v * w
                row.append(acc)
            if any(v != ZERO for v in row):
                small.append(row)
        if not small:
            continue
        kern = la.nullspace(small)
        new_space: list[dict[int, CycNum]] = []
        for vec in kern:
            combo: dict[int, CycNum] = {}
            for c, col in zip(vec, space):
                if c == ZERO:
                    continue
                for m, v in col.items():
                    acc = combo.get(m, ZERO) + c * v
                    if acc == ZERO:
                        combo.pop(m, None)
                    else:
                        combo[m] = acc
            new_space.append(combo)
        space = new_space
        if not space:
            raise ArithmeticError("invariance system degenerate")
    if len(space) != 1:
        raise ArithmeticError("invariance system degenerate")
    sol = space[0]
    pivot = sol.get(index_of[(0, 15)], ZERO)
    if pivot == ZERO:
        raise ArithmeticError("invariance system degenerate")
    table: dict[tuple[int, int], CycNum] = {}
    for mono, k in index_of.items():
        v = sol.get(k, ZERO) / pivot
        if v != ZERO:
            table[mono] = v
    return table


def quadratic(t: Tensor) -> CycNum:
    """Value of the derived degree-2 invariant at ``t``."""
    total = ZERO
    for (i, j), c in derive_quadratic().items():
        total = total + c * t.c[i] * t.c[j]
    return total


# ---------------------------------------------------------------------------
# flattening determinants
# ---------------------------------------------------------------------------

PAIRINGS = ("12|34", "13|24", "14|23")

_PAIRING_SLOTS = {
    "12|34": ((1, 2), (3, 4)),
    "13|24": ((1, 3), (2, 4)),
    "14|23": ((1, 4), (2, 3)),
}


def _slot_bit(index: int, slot: int) -> int:
    return (index >> (4 - slot)) & 1


def flattening_matrix(t: Tensor, pairing: str) -> la.Mat:
    """The 4×4 matrix reshaping ``t`` with rows/columns from a slot pairing."""
    try:
        (a, b), (c, d) = _PAIRING_SLOTS[pairing]
    except KeyError:
        raise ValueError(
            "unknown pairing %r; expected one of %s" % (pairing, (PAIRINGS,))
        ) from None
    mat = [[ZERO] * 4 for _ in range(4)]
    for idx in range(16):
        r = 2 * _slot_bit(idx, a) + _slot_bit(idx, b)
        cc = 2 * _slot_bit(idx, c) + _slot_bit(idx, d)
        mat[r][cc] = t.c[idx]
    return mat


def flattening_det(t: Tensor, pairing: str) -> CycNum:
    """Determinant of the flattening — a degree-4 invariant of ``t``.

    Under the group action the matrix transforms by (A⊗B) on rows and
    (C⊗D)ᵀ on columns, so the determinant picks up (det A·det B·det C·det D)²
    which is 1 for unimodular factors.
    """
    return la.det(flattening_matrix(t, pairing))


# ---------------------------------------------------------------------------
# the 2×2×2 hyperdeterminant
# ---------------------------------------------------------------------------


def _as_cyc(v) -> CycNum:
    return v if isinstance(v, CycNum) else rat(v)


def hyperdet222(a) -> CycNum:
    """Cayley hyperdeterminant of a 2×2×2 array ``a[i][j][k]``.

    Writing det(x₀·A₀ + x₁·A₁) = αx₀² + βx₀x₁ + γx₁² for the two 2×2 slices
    A_k = a[k], the value is the discriminant β² − 4αγ.
    """
    m = [[[_as_cyc(a[i][j][k]) for k in range(2)] for j in range(2)] for i in range(2)]

    def det2(x):
        return x[0][0] * x[1][1] - x[0][1] * x[1][0]

    a0, a1 = m[0], m[1]
    alpha = det2(a0)
    gamma = det2(a1)
    both = [[a0[r][c] + a1[r][c] for c in range(2)] for r in range(2)]
    beta = det2(both) - alpha - gamma
    return beta * beta - rat(4) * alpha * gamma


def slice_hyperdet(t: Tensor, slot: int, bit: int) -> CycNum:
    """Hyperdeterminant of the 2×2×2 slice fixing ``slot`` to ``bit``."""
    if slot not in (1, 2, 3, 4) or bit not in (0, 1):
        raise ValueError("slot must be 1..4 and bit 0 or 1")
    others = [s for s in (1, 2, 3, 4) if s != slot]
    arr = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    for idx in range(16):
        if _slot_bit(idx, slot) != bit:
            continue
        i, j, k = (_slot_bit(idx, s) for s in others)
        arr[i][j][k] = t.c[idx]
    return hyperdet222(arr)


# ---------------------------------------------------------------------------
# bundled invariants and separation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantVector:
    """Values of the invariants H (degree 2) and L12, L13, L14 (degree 4)."""

    H: CycNum
    L12: CycNum
    L13: CycNum
    L14: CycNum

    def entries(self) -> tuple[CycNum, CycNum, CycNum, CycNum]:
        return (self.H, self.L12, self.L13, self.L14)

    def as_dict(self) -> dict[str, str]:
        return {
            "H": cyc_to_str(self.H),
            "L12": cyc_to_str(self.L12),
            "L13": cyc_to_str(self.L13),
            "L14": cyc_to_str(self.L14),
        }


def invariants_of(t: Tensor) -> InvariantVector:
    return InvariantVector(
        H=quadratic(t),
        L12=flattening_det(t, "12|34"),
        L13=flattening_det(t, "13|24"),
        L14=flattening_det(t, "14|23"),
    )


_ETA_COMPLEX = cmath.exp(1j * math.pi / 8)


def approx_complex(v: CycNum) -> complex:
    """Floating approximation of a field element (for sign decisions only)."""
    num = sum(n * _ETA_COMPLEX**k for k, n in enumerate(v.nums))
    return num / v.den


def sign_of_real(v: CycNum) -> int:
    """Exact-zero-aware sign of a real field element.

    Zero is decided exactly; otherwise the sign comes from a floating
    approximation, guarded so that values too close to zero for the
    approximation to be trustworthy raise instead of misreporting.
    """
    if not v.is_real():
        raise ValueError("sign requested for a non-real value")
    if v == ZERO:
        return 0
    approx = approx_complex(v).real
    if abs(approx) < 1e-9:
        raise ArithmeticError("sign determination too close to zero")
    return 1 if approx > 0 else -1


def real_signature(vec: InvariantVector) -> tuple[str, ...]:
    """Sign pattern of the invariant values: one of '+', '-', '0', 'C' each.

    Real invariant values keep their sign under the real group action (they
    are constant on orbits), so this tuple is itself a real-orbit invariant;
    'C' marks entries that are not real.
    """
    out = []
    for v in vec.entries():
        if not v.is_real():
            out.append("C")
        elif v == ZERO:
            out.append("0")
        else:
            out.append("+" if sign_of_real(v) > 0 else "-")
    return tuple(out)


def separates(t1: Tensor, t2: Tensor) -> bool:
    """True when some invariant differs — a sound non-conjugacy witness.

    Equal orbits always have equal invariants, so a ``True`` answer proves
    the two tensors lie on different orbits; ``False`` proves nothing.  For
    real tensors the (derived) sign patterns are compared as well; they add
    no separating power beyond exact equality but assert the documented
    real-orbit invariance.
    """
    v1 = invariants_of(t1)
    v2 = invariants_of(t2)
    if v1.entries() != v2.entries():
        return True
    if t1.is_real() and t2.is_real() and real_signature(v1) != real_signature(v2):
        raise ArithmeticError("sign patterns disagree on equal values")
    return False


def pair_counting_check() -> dict[str, int]:
    """The documented dimension count for two-center charge configurations.

    Two copies of the 2×2×2 representation (dimension 8 each) acted on by
    the product of three unimodular groups (dimension 9) leave a ring of
    invariants of dimension 2·8 − 9 = 7 — the same count as the number of
    cohomology classes of the normalizer.
    """
    two_copies = 2 * 8
    group_dim = 3 * 3
    ring_dim = two_copies - group_dim
    if ring_dim != 7:
        raise ArithmeticError("counting identity violated")
    return {
        "two_copies": two_copies,
        "group_dim": group_dim,
        "invariant_ring_dim": ring_dim,
    }


__all__ = [
    "PAIRINGS",
    "InvariantVector",
    "derive_quadratic",
    "quadratic",
    "flattening_matrix",
    "flattening_det",
    "hyperdet222",
    "slice_hyperdet",
    "invariants_of",
    "approx_complex",
    "sign_of_real",
    "real_signature",
    "separates",
    "pair_counting_check",
]
