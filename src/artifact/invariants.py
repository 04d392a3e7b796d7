"""Polynomial invariants of 2×2×2×2 tensors under four unimodular groups.

Two families of classical invariants are provided:

* the degree-2 invariant ``H`` — its sixteen coefficients are *derived* by
  solving the linear system "the Lie-algebra action annihilates the
  polynomial" rather than transcribed from anywhere, eliminating any
  sign-convention risk;
* the three degree-4 flattening determinants, one per way of splitting the
  four slots into two pairs.

:func:`invariants_of` bundles the four values.  Equal orbits have equal
invariants, so differing values are a sound (never complete) witness of
non-conjugacy.  :func:`approx_complex` is the one floating-point routine of
the package; only the tie-break order of ``ssorbits.classify_semisimple``
uses it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from . import _linalg as la
from .exactfield import CycNum, ZERO, ONE, common_numerators, cyc_to_str, mul_acc
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


@lru_cache(maxsize=1)
def _quadratic_numerators() -> tuple[tuple[tuple[int, int, tuple[int, ...]], ...], int]:
    """The table of :func:`derive_quadratic` over one denominator:
    ``(terms, den)`` with each term ``(i, j, numerators of c_ij)``."""
    table = derive_quadratic()
    nums, den = common_numerators(table.values())
    return tuple((i, j, c) for (i, j), c in zip(table, nums)), den


def quadratic(t: Tensor) -> CycNum:
    """Value of the derived degree-2 invariant at ``t``.

    The sum of c_ij·t_i·t_j runs on integer numerators: the table's over
    its common denominator Dq, the tensor's over its own Dt, so the total
    is reduced once, over Dq·Dt².
    """
    terms, den = _quadratic_numerators()
    coeffs, tden = common_numerators(t.c)
    total = [0] * 8
    for i, j, c in terms:
        a, b = coeffs[i], coeffs[j]
        if a is not None and b is not None:
            ca = [0] * 8
            mul_acc(ca, c, a)
            mul_acc(total, ca, b)
    return CycNum.from_numerators(total, den * tden * tden)


# ---------------------------------------------------------------------------
# flattening determinants
# ---------------------------------------------------------------------------

PAIRINGS = ("12|34", "13|24", "14|23")

#: For each pairing ab|cd, the (row, column) of every tensor index in its
#: flattening: slot s is bit 4 - s of the index, the row reads the bits of
#: slots a and b, the column those of c and d.
_FLATTENING_POSITIONS = {
    pairing: tuple(
        (2 * (idx >> (4 - a) & 1) + (idx >> (4 - b) & 1),
         2 * (idx >> (4 - c) & 1) + (idx >> (4 - d) & 1))
        for idx in range(16)
    )
    for pairing, (a, b, c, d) in zip(PAIRINGS, ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3)))
}


def flattening_matrix(t: Tensor, pairing: str) -> la.Mat:
    """The 4×4 matrix reshaping ``t`` with rows/columns from a slot pairing."""
    try:
        positions = _FLATTENING_POSITIONS[pairing]
    except KeyError:
        raise ValueError(
            "unknown pairing %r; expected one of %s" % (pairing, (PAIRINGS,))
        ) from None
    mat = [[ZERO] * 4 for _ in range(4)]
    for (r, c), x in zip(positions, t.c):
        mat[r][c] = x
    return mat


def flattening_det(t: Tensor, pairing: str) -> CycNum:
    """Determinant of the flattening — a degree-4 invariant of ``t``.

    Under the group action the matrix transforms by (A⊗B) on rows and
    (C⊗D)ᵀ on columns, so the determinant picks up (det A·det B·det C·det D)²
    which is 1 for unimodular factors.
    """
    return la.det(flattening_matrix(t, pairing))


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
    """Floating approximation of a field element (for an ordering only)."""
    num = sum(n * _ETA_COMPLEX**k for k, n in enumerate(v.nums))
    return num / v.den


__all__ = [
    "PAIRINGS",
    "InvariantVector",
    "derive_quadratic",
    "quadratic",
    "flattening_matrix",
    "flattening_det",
    "invariants_of",
    "approx_complex",
]
