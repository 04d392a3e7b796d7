"""Polynomial invariants of 2×2×2×2 tensors under four unimodular groups.

Two families of classical invariants are provided:

* the degree-2 invariant ``H``, half the ε⊗ε⊗ε⊗ε pairing of a tensor with
  itself (ε the determinant form of one slot): eight terms
  ±t_a·t_{15-a}.  The tests check that each of the twelve generators of
  the degree-zero part of the algebra annihilates it, MᵀS + SM = 0 for its
  action matrix M and the pairing's symmetric matrix S;
* the three degree-4 flattening determinants, one per way of splitting the
  four slots into two pairs.

:func:`invariants_of` bundles the four values.  Equal orbits have equal
invariants, so differing values are a sound (never complete) witness of
non-conjugacy.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _linalg as la
from .exactfield import CycNum, ZERO, common_numerators, cyc_to_str, mul_acc
from .liealg import Tensor


# ---------------------------------------------------------------------------
# the quadratic invariant
# ---------------------------------------------------------------------------

#: The sign (-1)^popcount(a) of the term t_a·t_{15-a} of H, for a < 8: the
#: product over the four slots of ε(e_0, e_1) = 1 and ε(e_1, e_0) = -1.
_H_SIGNS = tuple(-1 if bin(a).count("1") % 2 else 1 for a in range(8))


def quadratic(t: Tensor, numerators: tuple | None = None) -> CycNum:
    """The degree-2 invariant H(t) = Σ_{a<8} (-1)^popcount(a)·t_a·t_{15-a}.

    H is half the ε⊗ε⊗ε⊗ε pairing of t with itself, ε the determinant form
    of one slot, so it is invariant under SL(2)^4.  The sum runs on the
    integer numerators of t over its common denominator D, reduced once,
    over D².  ``numerators`` is ``common_numerators(t.c)`` when the caller
    has it already (:func:`invariants_of`).
    """
    coeffs, den = numerators or common_numerators(t.c)
    total = [0] * 8
    for a, sign in enumerate(_H_SIGNS):
        x, y = coeffs[a], coeffs[15 - a]
        if x is not None and y is not None:
            mul_acc(total, x if sign > 0 else tuple(-v for v in x), y)
    return CycNum.from_numerators(total, den * den)


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


def flattening_matrix(entries, pairing: str) -> list[list]:
    """The 16 ``entries`` of a tensor as the 4×4 matrix of a slot pairing:
    its coefficients ``t.c`` give the flattening of t, their numerators
    over a common denominator (:func:`exactfield.common_numerators`) that
    matrix's numerators."""
    try:
        positions = _FLATTENING_POSITIONS[pairing]
    except KeyError:
        raise ValueError(
            "unknown pairing %r; expected one of %s" % (pairing, (PAIRINGS,))
        ) from None
    mat = [[None] * 4 for _ in range(4)]
    for (r, c), x in zip(positions, entries):
        mat[r][c] = x
    return mat


def flattening_det(t: Tensor, pairing: str, numerators: tuple | None = None) -> CycNum:
    """Determinant of the flattening — a degree-4 invariant of ``t``.

    Under the group action the matrix transforms by (A⊗B) on rows and
    (C⊗D)ᵀ on columns, so the determinant picks up (det A·det B·det C·det D)²
    which is 1 for unimodular factors.  The flattening holds the entries of
    t, so the common denominator D of t is that of the matrix: the
    determinant is expanded on the numerators of t, reshaped
    (:func:`_linalg.det_numerators`), and reduced once, over D⁴.
    ``numerators`` is ``common_numerators(t.c)`` when the caller has it
    already (:func:`invariants_of`).
    """
    nums, den = numerators or common_numerators(t.c)
    out = la.det_numerators(flattening_matrix(nums, pairing))
    return ZERO if out is None else CycNum.from_numerators(out, den ** 4)


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
    """H, L12, L13 and L14 of ``t``, from one pass over its numerators
    (:func:`exactfield.common_numerators`) shared by the four values."""
    numerators = common_numerators(t.c)
    return InvariantVector(
        H=quadratic(t, numerators),
        L12=flattening_det(t, "12|34", numerators),
        L13=flattening_det(t, "13|24", numerators),
        L14=flattening_det(t, "14|23", numerators),
    )


__all__ = [
    "PAIRINGS",
    "InvariantVector",
    "quadratic",
    "flattening_matrix",
    "flattening_det",
    "invariants_of",
]
