"""Real orbit tables for diagonalizable (semisimple) states.

A real semisimple tensor lies, after conjugation, in one of seven real
forms of the diagonalizable subspace; its orbit under the real group is
pinned down by three indices: the family ``i`` of its complex orbit, the
real-form class ``j`` of the Cartan subspace containing it, and a finite
cohomology class ``k`` distinguishing real orbits inside one complex
orbit.  This module stores each table row as its Weyl witness w (Vinberg's
θ-group theory): the row's tensor is act(gstar·lift(w)⁻¹, q(λ)) for the
family's canonical element q, with coordinates diag(tau_m)⁻¹·W[w]⁻¹·H_i·λ
in the real basis m, generated as an exact coefficient matrix.  The paper
prints the rows (10, 1, 2) and (10, 2, 2) in 2/l1; at l1 they lie over
q(4/l1), so they come out in mu = 4/l1, which maps the nonzero real
(imaginary) l1 onto themselves.  So every row is linear in its parameters,
and every row of a block at l1 lies over q(l1).  Each block's reality tags
are read off its Galois twist's Weyl action on the family's parameters,
its regularity rows off the roots outside the family's, the real moves off
the real Weyl group and the twist factors.  It provides:

* ``reality_pattern(i, j)`` — the admissible-parameter test for a block;
* ``real_point(i, j, lams)`` — a real point of the block with its witness;
* ``row_tensor(i, j, k, lams)`` — the table representative of row ``k``;
* ``verify_ss_tables()`` — re-derive and check every table entry;
* ``classify_semisimple(t)`` — map a real diagonalizable tensor in
  canonical position to the ``(i, j, k)`` row and parameter that label its
  real orbit: the least accepted candidate, found least first by keying
  every admitted (move, row) pair on its first parameter and solving only
  the least group;
* ``classification_candidates(m, coords)`` — every candidate on one basis,
  solved in full, for explaining a label.

All arithmetic is exact, over the degree-8 cyclotomic field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import groupby, product
from math import gcd
from operator import itemgetter, neg
from typing import Collection, Sequence

from . import _linalg as la
from . import cartanweyl as cw
from . import galois
from . import invariants
from . import liealg
from .exactfield import (
    CycNum,
    IMAG,
    MINUS_ONE,
    ONE,
    ZERO,
    common_numerators,
    mul_acc,
    rat,
    vanishing_functionals,
)
from .groupaction import (
    GElt,
    I2,
    PermAuto,
    act_tensor,
    conj_g,
    g_mul,
    gelt,
    gelt_from_names,
    m2_neg,
    mat2,
    sharp,
    D,
)
from .liealg import Tensor

__all__ = [
    "SSOrbitLabel",
    "SSTableRow",
    "RealityPattern",
    "CaseBlock",
    "TableRowError",
    "GeneralPositionError",
    "blocks",
    "block",
    "table_rows",
    "reality_pattern",
    "default_lambda",
    "real_point",
    "row_tensor",
    "verify_ss_tables",
    "check_row",
    "classify_semisimple",
    "classification_candidates",
    "real_weyl_group",
    "weyl_lift",
    "centralizer_spec",
    "centralizer_classes",
]


# ---------------------------------------------------------------------------
# errors and result types
# ---------------------------------------------------------------------------


class TableRowError(ValueError):
    """A table row failed one of its verification checks.

    ``row`` identifies the offender as ``(i, j, k)``; ``check`` names the
    failed check and ``detail`` describes it.
    """

    def __init__(self, row: tuple, check: str, detail: str = ""):
        self.row = row
        self.check = check
        self.detail = detail
        super().__init__(
            "table row %r failed check %r%s"
            % (row, check, ": " + detail if detail else "")
        )


class GeneralPositionError(ValueError):
    """The input is not in canonical position for any table row.

    Only family-level information can be reported; it is carried in
    ``payload`` (centralizer dimensions, candidate families, invariants).
    """

    def __init__(self, payload: dict):
        self.payload = payload
        super().__init__("general-position input: family-level classification only")


@dataclass(frozen=True)
class SSOrbitLabel:
    """Classification of a real semisimple orbit.

    ``i``: family of the complex orbit; ``j``: real form of the containing
    diagonalizable subspace; ``k``: real class inside the complex orbit;
    ``m``: index (1..7) of the real canonical subspace the input lies in;
    ``lams``: the canonical parameter value.
    """

    i: int
    j: int
    k: int
    m: int
    lams: tuple

    @property
    def basis_name(self) -> str:
        return _CARTAN_NAMES[self.m - 1]


_CARTAN_NAMES = ("u", "v", "w", "x", "y", "z", "t")


# ---------------------------------------------------------------------------
# table rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SSTableRow:
    """One classification-table row: class index, Weyl witness and
    coefficient matrix.

    ``w``, the least element of its coset W_Pi(i)·w in
    :func:`cartanweyl.weyl_group`, generates ``matrix``
    (:func:`_row_matrix`), the exact 4×n coefficient matrix in the family's
    n parameters: coordinates = matrix · λ.  Its entries are Gaussian
    rationals, so ``coordinates`` and ``solve`` apply integer rows
    (d·matrix, and the eliminator N·E) to the numerators of their input
    (:func:`_apply_gaussian`), with one reduction per result;
    classification applies the eliminator's rows to a moved vector's terms
    directly (:func:`_first_parameters`).
    """

    k: int
    w: int
    matrix: tuple

    def coordinates(self, lams: Sequence[CycNum]) -> tuple:
        """Evaluate the row at a parameter tuple (positional l-order)."""
        n = len(self.matrix[0])
        if len(lams) < n:
            raise ValueError("row needs %d parameters, got %d" % (n, len(lams)))
        rows, den = self._gaussian_rows
        return _apply_gaussian(rows, den, lams[:n], len(rows))

    @cached_property
    def _gaussian_rows(self) -> tuple[list, int]:
        return _gaussian_integers(self.matrix)

    @cached_property
    def _gaussian_elim(self) -> tuple[list, int]:
        return _gaussian_eliminator(self.matrix)

    def solve(self, vec: Sequence[CycNum]) -> tuple | None:
        """Parameters that reproduce ``vec``, or None when inconsistent: the
        rows of the eliminator E past the n parameters are the consistency
        rows, and E·vec must vanish there.  Classification checks those
        rows and evaluates the first parameter row for every admitted pair
        on the same kernel (:func:`_gaussian_row`), and calls ``solve`` only
        for the pairs of the least group of first parameters."""
        rows, norm = self._gaussian_elim
        return _apply_gaussian(rows, norm, vec, len(self.matrix[0]))


def _gaussian_integers(matrix) -> tuple[list, int]:
    """The rows of d·matrix as Gaussian integers ``(a, b)`` = a + b·i, and
    d > 0, the common denominator of the entries
    (:func:`exactfield.common_numerators`).  Raises ``ArithmeticError`` for
    an entry that is not a Gaussian rational."""
    nums, den = common_numerators(v for r in matrix for v in r)
    if any(x and any(x[e] for e in (1, 2, 3, 5, 6, 7)) for x in nums):
        raise ArithmeticError("matrix entry is not a Gaussian rational")
    gauss = [(x[0], x[4]) if x else (0, 0) for x in nums]
    n = len(matrix[0])
    return [gauss[k:k + n] for k in range(0, len(gauss), n)], den


def _gaussian_eliminator(matrix) -> tuple[list, int]:
    """The invertible ``E`` with ``E · matrix = [I_n; 0]``, for n independent
    columns, as rows of Gaussian integers ``(a, b)`` = a + b·i and a
    positive integer N with E = rows/N, which :func:`_apply_gaussian`
    applies to a vector of field elements.

    Read off the reduced row echelon form of ``[matrix | I]``: with
    independent columns, the first n pivots sit on the columns of
    ``matrix``.  That form is unique, and it is reached without a field
    inversion, by fraction-free (Bareiss) Gauss–Jordan elimination of
    ``[d·matrix | d·I]`` on Gaussian integers (:func:`_gaussian_integers`).
    The step with pivot p sets every other row to (p·row − a·pivot row)/p',
    with a the row's entry in the pivot column and p' the previous pivot
    (1 at the start).  Every entry stays a minor of the start matrix, so
    the division is exact, and the earlier pivot rows take p as their
    pivot.  At the end every row has the last pivot P as its pivot, so
    E = x/P = x·conj(P)/|P|² for the right-hand block x: the rows are
    x·conj(P) and N = |P|².  Raises ``ArithmeticError`` for an
    entry that is not a Gaussian rational, a division with a remainder, or
    dependent columns.
    """
    gauss, den = _gaussian_integers(matrix)
    n, size = len(matrix[0]), len(gauss)
    a = [row + [(den if c == r else 0, 0) for c in range(size)]
         for r, row in enumerate(gauss)]
    pivots: list[int] = []
    prev = (1, 0)
    for c in range(n + size):
        r = len(pivots)
        pivot = next((i for i in range(r, size) if a[i][c] != (0, 0)), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        (pr, pi), top = a[r][c], a[r]
        for i in range(size):
            if i != r:
                fr, fi = a[i][c]
                a[i] = [_gaussian_quotient(pr * xr - pi * xi - fr * yr + fi * yi,
                                           pr * xi + pi * xr - fr * yi - fi * yr, prev)
                        for (xr, xi), (yr, yi) in zip(a[i], top)]
        pivots.append(c)
        prev = (pr, pi)
        if len(pivots) == size:
            break
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("matrix has linearly dependent columns")
    # x/P = x·conj(P)/|P|²
    pr, pi = prev
    return ([[(xr * pr + xi * pi, xi * pr - xr * pi) for xr, xi in row[n:]] for row in a],
            pr * pr + pi * pi)


def _gaussian_quotient(re: int, im: int, q: tuple[int, int]) -> tuple[int, int]:
    """(re + im·i)/q for a Gaussian integer q that divides it exactly;
    ``ArithmeticError`` otherwise."""
    qr, qi = q
    if not qi:
        (xr, rr), (xi, ri) = divmod(re, qr), divmod(im, qr)
    else:
        norm = qr * qr + qi * qi
        (xr, rr), (xi, ri) = divmod(re * qr + im * qi, norm), divmod(im * qr - re * qi, norm)
    if rr or ri:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return xr, xi


def _gaussian_terms(nums: Sequence) -> list:
    """The terms of a vector given as integer 8-tuples x over one
    denominator (None or all zeros for a zero entry): each x with
    i·x = (−x4, −x5, −x6, −x7, x0, x1, x2, x3), the negacyclic shift of x
    by 4, or None for zero.  Formed once per vector, they serve every row
    that :func:`_gaussian_row` applies to it."""
    return [(x, (-x[4], -x[5], -x[6], -x[7], x[0], x[1], x[2], x[3])) if x and any(x) else None
            for x in nums]


def _gaussian_row(row: Sequence, terms: Sequence) -> list[int]:
    """The numerators over d of row·vec, for a row of Gaussian integers
    ``(a, b)`` = a + b·i and the terms of vec (:func:`_gaussian_terms`):
    (a + b·i)·x is a·x + b·(i·x)."""
    acc = [0] * 8
    for (a, b), term in zip(row, terms):
        if term is None:
            continue
        x, ix = term
        if a:
            acc = [p + a * q for p, q in zip(acc, x)]
        if b:
            acc = [p + b * q for p, q in zip(acc, ix)]
    return acc


def _apply_gaussian(rows: Sequence, norm: int, vec: Sequence[CycNum], n: int) -> tuple | None:
    """The first n entries of (rows/norm)·vec for rows of Gaussian integers
    ``(a, b)`` = a + b·i and norm > 0, or None when a later entry is nonzero:
    each row on the terms of the numerators of ``vec`` over their common
    denominator d (:func:`exactfield.common_numerators`), and each entry one
    ``CycNum.from_numerators`` over d·norm.
    """
    nums, den = common_numerators(vec)
    terms = _gaussian_terms(nums)
    if any(any(_gaussian_row(row, terms)) for row in rows[n:]):
        return None
    return tuple(CycNum.from_numerators(_gaussian_row(row, terms), den * norm)
                 for row in rows[:n])


@lru_cache(maxsize=1)
def _doubled_weyl() -> tuple:
    """Twice W[w] as integer rows for each index w, from ``weyl_table()``."""
    doubled = {w: rows for rows, w in cw.weyl_table().index.items()}
    return tuple(doubled[w] for w in range(len(doubled)))


@lru_cache(maxsize=None)
def _inverse_twists(m: int) -> tuple[list, int]:
    """The numerators of tau_a⁻¹ over their common denominator, for the
    twist factors tau of basis m (:func:`cartanweyl.twist_factors`)."""
    return common_numerators(t.inverse() for t in cw.twist_factors(m))


def _row_matrix(i: int, m: int, w: int) -> tuple:
    """The coefficients diag(tau)⁻¹·W[w]⁻¹·H of act(b_w, q(λ)) in basis m
    (:func:`_lifted_conjugator`), for H family i's ``h_basis`` as columns:
    gstar⁻¹ takes the a-th vector of basis m to tau_a·u_a.  Entry (a, l) is
    the integer c = 2·(W[w]⁻¹·H)_al (:func:`_doubled_weyl` of w⁻¹) times
    the numerators of tau_a⁻¹ (:func:`_inverse_twists`), over twice their
    denominator."""
    nums, den = _inverse_twists(m)
    h_basis = cw.subsystem(i).h_basis
    return tuple(
        tuple(CycNum.from_numerators([c * x for x in tau], 2 * den)
              for c in (sum(r * h for r, h in zip(row, vec)) for vec in h_basis))
        for row, tau in zip(_doubled_weyl()[cw.weyl_table().inv[w]], nums)
    )


def _table_rows(i: int, j: int, m: int, witnesses: Sequence[int]) -> tuple[SSTableRow, ...]:
    """The rows k = 1, 2, … of block (i, j) on basis m from their Weyl
    witnesses.  Raises ``ValueError`` naming the row for a witness that is
    not the least of its coset W_Pi(i)·w, or for two rows in one coset."""
    mul = cw.weyl_table().mul
    for k, w in enumerate(witnesses, 1):
        if min(mul[p][w] for p in cw.w_pi_group(i)) != w:
            raise ValueError("block (%d, %d): row %d: witness %d is not the least of its coset"
                             % (i, j, k, w))
        if w in witnesses[:k - 1]:
            raise ValueError("block (%d, %d): row %d has the same W_Pi coset as row %d"
                             % (i, j, k, witnesses.index(w) + 1))
    return tuple(SSTableRow(k=k, w=w, matrix=_row_matrix(i, m, w))
                 for k, w in enumerate(witnesses, 1))


# ---------------------------------------------------------------------------
# reality patterns (admissible parameters per block)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealityPattern:
    """Admissibility test for the parameters of one ``(i, j)`` block.

    ``tags`` gives each parameter's constraint: ``"real"`` or
    ``"imaginary"`` (nonzero real/imaginary number), or ``"coupled"`` for
    the paired constraint i·(l1+l2) and l1−l2 both real and nonzero.
    ``avoid`` lists the integer rows α∘H_i of the roots α outside
    ``member_roots(i)`` that can vanish under the tags; when none vanishes,
    exactly the member roots vanish at the point, which is regular in its
    family.  Both follow from the block's twist (:func:`_reality_pattern`).
    """

    i: int
    j: int
    tags: tuple[str, ...]
    avoid: tuple[tuple[int, ...], ...]

    def accepts(self, lams: Sequence[CycNum]) -> bool:
        lams = tuple(lams)
        if len(lams) != len(self.tags):
            raise ValueError(
                "family %d takes %d parameters, got %d"
                % (self.i, len(self.tags), len(lams))
            )
        if "coupled" in self.tags:
            a, b = lams
            s = IMAG * (a + b)
            d = a - b
            if not (s and s.is_real() and d and d.is_real()):
                return False
        else:
            for tag, val in zip(self.tags, lams):
                if not val:
                    return False
                if tag == "real" and not val.is_real():
                    return False
                if tag == "imaginary" and not val.is_imaginary():
                    return False
        # the avoid rows are integer functionals: one zero test of them all
        # on the parameters' numerators
        return not (self.avoid and any(vanishing_functionals(self.avoid, lams)))


# ---------------------------------------------------------------------------
# table data
# ---------------------------------------------------------------------------
#
# Families 1, 2, 3, 4, 7, 10 are stored directly; families 5, 6, 8, 9 are
# generated from 4 and 7 by the tensor-slot transpositions (2 3) and (2 4),
# which permute the coordinate pairs without sign changes.
#
# Block fields: j, basis index m (1..7 for u, v, w, x, y, z, t), the
# twist ``n`` and its witness ``g`` (as comma-separated named 2×2 factors,
# with ``Dk`` denoting diag(eta^k, eta^-k)), the finite list ``zs`` of
# stabilizer cocycles and the rows k = 1, 2, …, each as its Weyl witness w,
# the least element of its coset W_Pi(i)·w, from which ``blocks()``
# generates the row's matrix (see ``_row_matrix``); ``artifact table``
# prints the rows' entries.  The twist fixes the block's Weyl index
# ``gamma`` and its reality tags, and with the root system its avoid rows
# (see ``_reality_pattern``).

_Z_COMMON = ("I,I,I,I", "-I,-I,I,I", "-I,I,-I,I", "I,-I,-I,I")

_NATIVE: dict[int, tuple[dict, ...]] = {
    1: (
        dict(
            j=1,
            m=1,
            n="I,I,I,I",
            g="I,I,I,I",
            zs=(
                "I,I,I,I", "I,I,-I,-I", "I,-I,I,-I", "I,-I,-I,I",
                "K,K,K,K", "K,K,-K,-K", "K,-K,K,-K", "K,-K,-K,K",
                "L,L,L,L", "L,L,-L,-L", "L,-L,L,-L", "L,-L,-L,L",
            ),
            rows=(191, 6, 5, 3, 64, 22, 29, 43, 7, 190, 189, 187),
        ),
        dict(
            j=2,
            m=2,
            n="-I,I,I,I",
            g="L,I,I,I",
            zs=(
                "I,I,I,I", "-I,-I,I,I", "I,-I,I,-I", "-I,I,I,-I",
                "K,K,K,-K", "-K,-K,-K,K", "K,-K,K,K", "-K,K,K,K",
                "-L,-L,-L,-L", "L,L,-L,-L", "-L,L,-L,L", "L,-L,-L,L",
            ),
            rows=(191, 6, 5, 3, 43, 29, 22, 64, 7, 190, 189, 187),
        ),
        dict(
            j=3,
            m=3,
            n="M,M,-N,N",
            g="D5,D5,-D3,-D7",
            zs=("-I,-I,-I,-I", "-I,-I,I,I", "-I,I,-I,I", "-I,I,I,-I"),
            rows=(191, 6, 5, 3),
        ),
        dict(
            j=4,
            m=4,
            n="L,I,I,L",
            g="M,I,I,M",
            zs=("I,I,I,I", "I,I,-I,-I", "L,L,L,L", "L,L,-L,-L"),
            rows=(191, 6, 7, 190),
        ),
        dict(
            j=5,
            m=5,
            n="I,L,I,L",
            g="I,M,I,M",
            zs=("I,I,I,I", "I,I,-I,-I", "L,L,L,L", "L,L,-L,-L"),
            rows=(191, 6, 7, 190),
        ),
        dict(
            j=6,
            m=6,
            n="I,I,L,L",
            g="I,I,M,M",
            zs=("I,I,I,I", "I,-I,I,-I", "L,L,L,L", "L,-L,L,-L"),
            rows=(191, 5, 7, 189),
        ),
        dict(
            j=7,
            m=7,
            n="M,M,M,M",
            g="D5,D5,D5,D5",
            zs=("I,I,I,I", "I,I,-I,-I", "I,-I,I,-I", "I,-I,-I,I"),
            rows=(191, 6, 5, 3),
        ),
    ),
    2: (
        dict(
            j=1,
            m=1,
            n="I,I,I,I",
            g="I,I,I,I",
            zs=_Z_COMMON + ("-K,-K,K,K", "K,K,K,K", "K,-K,-K,K", "-K,K,-K,K"),
            rows=(190, 6, 4, 2, 22, 64, 42, 28),
        ),
        dict(
            j=2,
            m=6,
            n="I,I,L,-L",
            g="I,I,M,D2",
            zs=_Z_COMMON,
            rows=(106, 108, 80, 104),
        ),
        dict(
            j=3,
            m=5,
            n="I,L,I,-L",
            g="I,M,I,D2",
            zs=_Z_COMMON,
            rows=(96, 88, 100, 98),
        ),
        dict(
            j=4,
            m=4,
            n="L,I,I,L",
            g="M,I,I,M",
            zs=_Z_COMMON,
            rows=(190, 6, 4, 2),
        ),
        dict(
            j=5,
            m=4,
            n="L,I,I,-L",
            g="M,I,I,N",
            zs=_Z_COMMON,
            rows=(96, 88, 100, 98),
        ),
        dict(
            j=6,
            m=5,
            n="I,L,I,L",
            g="I,M,I,M",
            zs=_Z_COMMON,
            rows=(190, 6, 4, 2),
        ),
        dict(
            j=7,
            m=6,
            n="I,I,L,L",
            g="I,I,M,M",
            zs=_Z_COMMON,
            rows=(190, 6, 4, 2),
        ),
        dict(
            j=8,
            m=2,
            n="-I,I,I,I",
            g="L,I,I,I",
            zs=_Z_COMMON + ("K,-K,K,K", "-K,K,K,K", "-K,-K,-K,K", "K,K,-K,K"),
            rows=(0, 184, 186, 188, 168, 126, 148, 162),
        ),
    ),
    3: (
        dict(
            j=1,
            m=1,
            n="I,I,I,I",
            g="I,I,I,I",
            zs=_Z_COMMON,
            rows=(120, 6, 4, 2),
        ),
        dict(
            j=2,
            m=2,
            n="-I,I,I,I",
            g="L,I,I,I",
            zs=_Z_COMMON,
            rows=(120, 6, 4, 2),
        ),
    ),
    4: (
        dict(
            j=1,
            m=1,
            n="I,I,I,I",
            g="I,I,I,I",
            zs=("I,I,I,I", "-I,I,-I,I", "-K,K,-K,K",
                "-K,K,K,-K", "K,K,K,K", "K,K,-K,-K"),
            rows=(185, 1, 25, 41, 64, 16),
        ),
        dict(
            j=2,
            m=7,
            n="M,M,M,M",
            g="D5,D5,D5,D5",
            zs=("I,I,I,I", "-I,I,-I,I"),
            rows=(185, 1),
        ),
        dict(
            j=3,
            m=2,
            n="I,I,L,L",
            g="I,I,M,M",
            zs=("I,I,I,I", "-I,-I,I,I", "-K,K,-K,-K",
                "K,K,K,-K", "-K,K,K,K", "K,K,-K,K"),
            rows=(1, 185, 16, 41, 64, 25),
        ),
        dict(
            j=4,
            m=6,
            n="L,L,-K,K",
            g="M,M,F,LF",
            zs=("I,I,I,I", "-I,I,-I,I", "-K,-K,-L,-L", "K,-K,L,-L"),
            rows=(153, 56, 40, 169),
        ),
    ),
    7: (
        dict(
            j=1,
            m=1,
            n="I,I,I,I",
            g="I,I,I,I",
            zs=("I,I,I,I", "-I,I,-I,I"),
            rows=(88, 1),
        ),
        dict(
            j=2,
            m=2,
            n="-I,I,I,I",
            g="L,I,I,I",
            zs=("I,I,I,I", "-I,I,-I,I"),
            rows=(88, 1),
        ),
    ),
    10: (
        dict(
            j=1,
            m=1,
            n="I,I,I,I",
            g="I,I,I,I",
            zs=("I,I,I,I", "K,K,K,K", "-K,K,K,-K", "-K,K,-K,K", "K,K,-K,-K"),
            rows=(184, 64),
        ),
        dict(
            j=2,
            m=2,
            n="-I,I,I,I",
            g="L,I,I,I",
            zs=("I,I,I,I", "-K,K,K,K", "K,K,K,-K", "K,K,-K,K", "-K,K,-K,-K"),
            rows=(184, 120),
        ),
    ),
}

#: Families generated from stored ones by a tensor-slot transposition, with
#: the row witnesses of each generated block, j = 1, 2, ….
_TRANSPORTS: dict[int, tuple[int, tuple[int, int], tuple[tuple[int, ...], ...]]] = {
    5: (4, (2, 3), ((186, 2, 18, 42, 64, 24), (186, 2), (2, 186, 24, 42, 64, 18),
                    (154, 48, 40, 162))),
    6: (4, (2, 4), ((188, 4, 28, 20, 64, 40), (188, 4), (4, 188, 40, 20, 64, 28),
                    (164, 64, 48, 180))),
    8: (7, (2, 3), ((80, 2), (80, 2))),
    9: (7, (2, 4), ((72, 4), (72, 4))),
}


# ---------------------------------------------------------------------------
# case blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseBlock:
    """All data of one ``(i, j)`` entry of the classification tables; its
    ``rows`` are generated from their Weyl witnesses (:func:`_table_rows`)."""

    i: int
    j: int
    m: int
    gamma: int  # the twist's coordinate action, as a Weyl group index
    n: GElt
    g: GElt
    zs: tuple[GElt, ...]
    rows: tuple[SSTableRow, ...]
    reality: RealityPattern

    @property
    def basis_name(self) -> str:
        return _CARTAN_NAMES[self.m - 1]

    def row(self, k: int) -> SSTableRow:
        for r in self.rows:
            if r.k == k:
                return r
        raise KeyError("block (%d, %d) has no row k=%d" % (self.i, self.j, k))


@lru_cache(maxsize=1)
def _even_signs() -> frozenset:
    """Slotwise ±identity with an even number of minus signs, as index
    tuples: the elements of S⁴ that act trivially on tensors."""
    index = galois.slot_group().index
    plus, minus = index[I2], index[m2_neg(I2)]
    return frozenset(x for x in product((plus, minus), repeat=4) if x.count(minus) % 2 == 0)


def _checked_twist(i: int, j: int, n: GElt, g: GElt, zs: tuple) -> int:
    """Check a block's group data; return the Weyl group index of its twist.

    The twist ``n`` and each stabilizer element x must lie in S⁴, be a
    cocycle up to the kernel of the tensor action (x·σ(x) in
    :func:`_even_signs`) and lie in N (:func:`galois.coset_symmetry`).
    The witness must give σ(g) = g·n, checked on the matrices: four
    witnesses have slots (D5, F) outside S.
    """
    index = galois.slot_group().index
    symmetries = []
    for what, x in [("twist", n)] + [("stabilizer element %d" % k, z) for k, z in enumerate(zs)]:
        t = tuple(index.get(m) for m in x)
        if None in t:
            problem = "lies outside the slot group"
        elif galois.slot_mul(t, galois.slot_conj(t)) not in _even_signs():
            problem = "is not a cocycle"
        elif (w := galois.coset_symmetry(t)) is None:
            problem = "lies outside the normalizer"
        else:
            symmetries.append(w)
            continue
        raise ValueError("block (%d, %d): %s %s" % (i, j, what, problem))
    if conj_g(g) != g_mul(g, n):
        raise ValueError("block (%d, %d): witness does not produce the recorded twist" % (i, j))
    return symmetries[0]


@lru_cache(maxsize=None)
def _root_rows(i: int) -> tuple[tuple[int, ...], ...]:
    """The nonzero rows α∘H_i of the roots α, for H_i family i's ``h_basis``
    as columns (zero exactly for α in ``member_roots(i)``), each primitive
    with a positive first nonzero entry, in decreasing order."""
    h = cw.subsystem(i).h_basis
    rows = set()
    for root in cw.restricted_roots():
        row = [sum(a * x for a, x in zip(root.coeffs, vec)) for vec in h]
        if next(filter(None, row), 0) > 0:
            rows.add(tuple(c // gcd(*row) for c in row))
    return tuple(sorted(rows, reverse=True))


def _reality_pattern(i: int, j: int, w: int) -> RealityPattern:
    """Block (i, j)'s reality pattern, read off its twist's Weyl index w.

    Its points g·q(λ) are real when W[w]·H·conj(λ) = H·λ, for H family i's
    ``h_basis`` as columns.  W[w]·H = H·R is read on the coordinates that
    are ±1 in one column of H and 0 in the others, and λ = R·conj(λ):
    R = diag(±1) makes λ_l real (+1) or imaginary (−1), R = [[0, −1],
    [−1, 0]] makes i·(l1+l2) and l1−l2 real (``"coupled"``), and any other
    R, or a W[w] that moves span(H), raises ``ValueError`` naming the block.
    The avoid rows are the root rows (:func:`_root_rows`) that can vanish
    under the tags: a row vanishes when its real-tagged and imaginary-tagged
    parts do, and a part with one nonzero entry cannot.  A coupled pair has
    none, as a·l1 + b·l2 = ((a−b)·d − i·(a+b)·s)/2 for the real and nonzero
    s = i·(l1+l2) and d = l1−l2.
    """
    h = cw.subsystem(i).h_basis
    n = len(h)
    readout = [next(a for a in range(4) if abs(h[l][a]) == 1 == sum(abs(v[a]) for v in h))
               for l in range(n)]
    # 2·W[w]·h_l, and 2·R from its read-out coordinates
    image = [[sum(c * x for c, x in zip(row, h[l])) for row in _doubled_weyl()[w]]
             for l in range(n)]
    twice = [[image[l][readout[p]] * h[p][readout[p]] for l in range(n)] for p in range(n)]
    if any(image[l][a] != sum(twice[p][l] * h[p][a] for p in range(n))
           for l in range(n) for a in range(4)):
        raise ValueError("block (%d, %d): the twist does not preserve the family's span"
                         % (i, j))
    if twice == [[0, -2], [-2, 0]]:
        return RealityPattern(i=i, j=j, tags=("coupled", "coupled"), avoid=())
    tags = tuple({2: "real", -2: "imaginary"}.get(twice[p][p]) for p in range(n))
    if None in tags or any(twice[p][l] for p in range(n) for l in range(n) if p != l):
        raise ValueError("block (%d, %d): the twist acts on the parameters by 2·R = %r, "
                         "neither signs on the diagonal nor the coupled swap" % (i, j, twice))
    avoid = tuple(row for row in _root_rows(i)
                  if all(sum(1 for c, t in zip(row, tags) if c and t == tag) != 1
                         for tag in ("real", "imaginary")))
    return RealityPattern(i=i, j=j, tags=tags, avoid=avoid)


def _compile_block(i: int, raw: dict) -> CaseBlock:
    """Compile a stored block: its twist's Weyl index
    (:func:`_checked_twist`) is its ``gamma`` and fixes its reality pattern
    (:func:`_reality_pattern`), and its rows are generated from their
    witnesses (:func:`_table_rows`)."""
    n = gelt_from_names(raw["n"])
    g = gelt_from_names(raw["g"])
    zs = tuple(gelt_from_names(z) for z in raw["zs"])
    w = _checked_twist(i, raw["j"], n, g, zs)
    return CaseBlock(i=i, j=raw["j"], m=raw["m"], gamma=w, n=n, g=g, zs=zs,
                     rows=_table_rows(i, raw["j"], raw["m"], raw["rows"]),
                     reality=_reality_pattern(i, raw["j"], w))


def _transport_block(i_dst: int, auto: PermAuto, blk: CaseBlock,
                     witnesses: Sequence[int]) -> CaseBlock:
    """``blk`` carried to family i_dst by the slot transposition ``auto``:
    its group data checked again, its rows generated from ``witnesses`` and
    its reality pattern derived for i_dst (:func:`_reality_pattern`)."""
    # The slot transposition sends the source basis onto the target basis
    # m_dst that holds the sum of the images, source vector l onto target
    # vector p with coefficient +1; perm4[p] = l (anything else is an error).
    images = [auto(b) for b in cw.seven_cartans()[blk.m - 1].basis]
    found = cw.containing_bases(sum(images[1:], images[0]))
    if len(found) != 1:
        raise ValueError("slot transposition does not preserve the basis family")
    m_dst = found[0][0]
    perm4 = [0, 0, 0, 0]
    for l, img in enumerate(images):
        coords = cw.basis_coords(m_dst, img)
        nonzero = [p for p, c in enumerate(coords or ()) if c]
        if len(nonzero) != 1 or coords[nonzero[0]] != ONE:
            raise ValueError("slot transposition does not preserve the basis family")
        perm4[nonzero[0]] = l
    n = auto.on_gelt(blk.n)
    g = auto.on_gelt(blk.g)
    zs = tuple(auto.on_gelt(z) for z in blk.zs)
    w = _checked_twist(i_dst, blk.j, n, g, zs)
    # Consistency: the transported action is the original one on relabelled
    # coordinates, P·gamma·P⁻¹ for the permutation P of perm4, which is not in W.
    old = cw.weyl_group()[blk.gamma]
    if cw.weyl_group()[w] != tuple(tuple(old[perm4[r]][perm4[c]] for c in range(4))
                                   for r in range(4)):
        raise ValueError("transported twist action mismatch")
    return replace(blk, i=i_dst, m=m_dst, gamma=w, n=n, g=g, zs=zs,
                   rows=_table_rows(i_dst, blk.j, m_dst, witnesses),
                   reality=_reality_pattern(i_dst, blk.j, w))


@lru_cache(maxsize=1)
def blocks() -> tuple[CaseBlock, ...]:
    """Every ``(i, j)`` block of the tables, stored and generated alike, each
    with its group data checked in the slot group (:func:`_checked_twist`)
    and its rows generated from their witnesses (:func:`_table_rows`)."""
    out: list[CaseBlock] = []
    for i, stored in _NATIVE.items():
        for raw in stored:
            out.append(_compile_block(i, raw))
    for i_dst, (i_src, cycle, witnesses) in _TRANSPORTS.items():
        auto = PermAuto(cycle)
        sources = [b for b in out if b.i == i_src]
        for blk, ws in zip(sources, witnesses, strict=True):
            out.append(_transport_block(i_dst, auto, blk, ws))
    out.sort(key=lambda b: (b.i, b.j))
    return tuple(out)


def block(i: int, j: int) -> CaseBlock:
    for blk in blocks():
        if blk.i == i and blk.j == j:
            return blk
    raise KeyError("no table block (%d, %d)" % (i, j))


def table_rows() -> tuple[tuple[int, int, int], ...]:
    """All (i, j, k) triples present in the tables."""
    out = []
    for blk in blocks():
        for row in blk.rows:
            out.append((blk.i, blk.j, row.k))
    return tuple(out)


def reality_pattern(i: int, j: int) -> RealityPattern:
    """The admissibility test for parameters of block ``(i, j)``."""
    return block(i, j).reality


# ---------------------------------------------------------------------------
# canonical parameter samples
# ---------------------------------------------------------------------------

#: Parameter magnitudes whose instances are canonical under the residual
#: coordinate symmetries (each family's regular, least-key choice).
_SAMPLE_MAGNITUDES: dict[int, tuple[int, ...]] = {
    1: (1, 3, 5, 13),
    2: (1, 3, 5),
    3: (1, 2),
    4: (1, 3),
    5: (1, 3),
    6: (1, 3),
    7: (1,),
    8: (1,),
    9: (1,),
    10: (1,),
}


def default_lambda(i: int, j: int) -> tuple:
    """A canonical admissible parameter tuple for block ``(i, j)``."""
    pattern = reality_pattern(i, j)
    if "coupled" in pattern.tags:
        lams = (ONE + IMAG, MINUS_ONE + IMAG)
    else:
        mags = _SAMPLE_MAGNITUDES[i]
        lams = tuple(
            rat(mag) * IMAG if tag == "imaginary" else rat(mag)
            for mag, tag in zip(mags, pattern.tags)
        )
    if not pattern.accepts(lams):
        raise AssertionError("default parameters inadmissible for (%d, %d)" % (i, j))
    return lams


# ---------------------------------------------------------------------------
# the normalizer with its coordinate actions; real coordinate symmetries
# ---------------------------------------------------------------------------


def weyl_lift(w: int) -> GElt:
    """A group element inducing the coordinate symmetry of Weyl group index
    ``w``: the least of its lifts (:func:`galois.least_lifts`) by ``g_key``."""
    return galois.decode(galois.least_lifts()[w])


def _weyl_lift_inverse(w: int) -> GElt:
    """The inverse of :func:`weyl_lift`, read from the slot group's tables."""
    return galois.decode(galois.slot_inv(galois.encode(weyl_lift(w))))


def real_weyl_group(m: int) -> tuple[cw.WeylMat, ...]:
    """Coordinate symmetries with lifts defined over the m-th real form, as
    the matrices of :func:`_real_weyl_indices`."""
    return tuple(cw.weyl_group()[w] for w in _real_weyl_indices(m))


@lru_cache(maxsize=None)
def _real_weyl_indices(m: int) -> tuple[int, ...]:
    """The Weyl indices of the coordinate symmetries with lifts defined over
    the m-th real form, in increasing order.

    A symmetry w is real when some lift ``g`` is fixed by the real structure
    σ(x) = nstar · conj(x) · nstar⁻¹ of form ``m``.  That makes
    gstar·g·gstar⁻¹ a real group element normalizing the real subspace, so
    the induced coordinate move preserves real-orbit classes.  The lifts of
    w are the coset g_w·K of the kernel (:func:`galois.normalizer_cosets`),
    and σ(g_w·k) = g_w·k exactly when g_w⁻¹·σ(g_w) = k·σ(k)⁻¹, so one test
    per w against the 32 twists k·σ(k)⁻¹ decides it.  All of it is
    index-tuple arithmetic in the slot group.
    """
    mul, inv = galois.slot_mul, galois.slot_inv
    kernel, lifts = galois.normalizer_cosets()
    nstar = galois.encode(cw.seven_cartans()[m - 1].nstar)
    nstar_inv = inv(nstar)

    def sigma(x: galois.IndexTuple) -> galois.IndexTuple:
        return mul(mul(nstar, galois.slot_conj(x)), nstar_inv)

    twists = {mul(k, inv(sigma(k))) for k in kernel}
    return tuple(sorted(w for g, w in lifts if mul(inv(g), sigma(g)) in twists))


# ---------------------------------------------------------------------------
# instantiating rows and real points
# ---------------------------------------------------------------------------


def row_tensor(i: int, j: int, k: int, lams: Sequence[CycNum]) -> Tensor:
    """The table representative for class ``k`` of block ``(i, j)`` at ``lams``."""
    blk = block(i, j)
    lams = tuple(lams)
    if not blk.reality.accepts(lams):
        raise ValueError(
            "parameters %r are not admissible for block (%d, %d)" % (lams, i, j)
        )
    return cw.from_basis_coords(blk.m, blk.row(k).coordinates(lams))


def real_point(i: int, j: int, lams: Sequence[CycNum]) -> tuple[Tensor, GElt]:
    """A real point of block ``(i, j)`` with the witness that produces it.

    Returns ``(p, g)`` with ``p = act(g, q(lams))`` real, where ``q`` is the
    family's canonical diagonalizable element; for ``j = 1`` the witness is
    the identity and ``p = q(lams)`` itself.
    """
    blk = block(i, j)
    lams = tuple(lams)
    if not blk.reality.accepts(lams):
        raise ValueError(
            "parameters %r are not admissible for block (%d, %d)" % (lams, i, j)
        )
    q = cw.parametrize(i, lams)
    p = act_tensor(blk.g, q)
    if not p.is_real():
        raise ArithmeticError(
            "witness for block (%d, %d) produced a non-real point" % (i, j)
        )
    return p, blk.g


# ---------------------------------------------------------------------------
# the Weyl witness of each row
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lifted_conjugator(m: int, w_index: int) -> GElt:
    """gstar·lift(w)⁻¹ for the real form m and the w at ``w_index`` of
    :func:`cartanweyl.weyl_group`."""
    gstar = cw.seven_cartans()[m - 1].gstar
    return g_mul(gstar, _weyl_lift_inverse(w_index))


@lru_cache(maxsize=None)
def _witness_holds(i: int, m: int, w: int, matrix: tuple) -> bool:
    """Whether t(λ) = act(b_w, q(λ)) for every λ, for t(λ) = ``matrix``·λ in
    basis m, family i's canonical element q and b_w = gstar·lift(w)⁻¹
    (:func:`_lifted_conjugator`): the action is linear, so it is checked on
    each parameter unit vector e_l."""
    b = _lifted_conjugator(m, w)
    n = len(matrix[0])
    for l in range(n):
        unit = [ONE if p == l else ZERO for p in range(n)]
        column = [row[l] for row in matrix]
        if act_tensor(b, cw.parametrize(i, unit)) != cw.from_basis_coords(m, column):
            return False
    return True


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _gamma_in_group(blk: CaseBlock) -> bool:
    """Whether the twist acts by an element of Gamma(i), or of W_Pi(i)·Gamma(i)
    for a transported block: W_Pi(i) fixes the family's span pointwise, and
    relabelling the coordinates carries W_Pi, not the stored Gamma, of the
    source family onto that of family i."""
    gamma = cw.gamma_group(blk.i)
    if blk.i not in _TRANSPORTS:
        return blk.gamma in gamma
    mul = cw.weyl_table().mul
    return any(mul[w][x] == blk.gamma for w in cw.w_pi_group(blk.i) for x in gamma)


#: How many reference invariants :func:`_orbit_invariants` keeps: more
#: than the (family, parameters) pairs of a pass over every block at its
#: default parameters and at one more sample.
_REFERENCE_CACHE_SIZE = 512


@lru_cache(maxsize=_REFERENCE_CACHE_SIZE)
def _orbit_invariants(i: int, params: tuple) -> invariants.InvariantVector:
    """Invariants of the family's canonical element at ``params``, computed
    once per (family, parameters) and shared by every row and call that
    compares with them."""
    return invariants.invariants_of(cw.parametrize(i, params))


@lru_cache(maxsize=_REFERENCE_CACHE_SIZE)
def _is_regular(i: int, params: tuple) -> bool:
    """Whether q(params) lies in the regular part of family i: the roots
    vanishing there are exactly the member roots."""
    coords = cw.basis_coords(1, cw.parametrize(i, params))
    return cw.vanishing_roots(coords) == cw.member_roots(i)


def _verify_row(blk: CaseBlock, row: SSTableRow, lams: tuple,
                t: Tensor | None = None) -> list[dict]:
    """Failures of one row.

    The caller has checked ``lams`` admissible.  The row's tensor is
    written from ``row.coordinates(lams)``, computed once, into the pair
    entries of the block's real basis (:func:`cartanweyl.from_basis_coords`);
    a passed-in ``t`` goes through every check against those coordinates.
    The ``"conjugate"`` check needs q(lams) regular (:func:`_is_regular`)
    and the row's Weyl witness to carry q onto the row
    (:func:`_witness_holds`), both cached; then t = act(b_w, q(lams)).
    The reference invariants, those of the family's canonical element at
    ``lams``, come from :func:`_orbit_invariants`.
    """
    failures = []
    rid = (blk.i, blk.j, row.k)

    def fail(check: str, detail: str = ""):
        failures.append({"row": rid, "check": check, "detail": detail})

    expected = row.coordinates(lams)
    if t is None:
        t = cw.from_basis_coords(blk.m, expected)
    if not t.is_real():
        fail("real", "representative has non-real coefficients")
    coords = cw.basis_coords(blk.m, t)
    if coords is None:
        fail("basis", "not in the stated real canonical subspace")
        return failures
    if tuple(coords) != tuple(expected):
        fail("coordinates", "coordinates do not match the row formulas")
        return failures
    # t lies in the span of its basis, so it is semisimple when the basis is
    # a commuting semisimple family
    if not cw.cartan_is_semisimple(blk.m):
        fail("semisimple", "stated basis is not a commuting semisimple family")
    if not _is_regular(blk.i, lams):
        fail("conjugate", "the canonical element at these parameters is not regular")
        return failures
    if not _witness_holds(blk.i, blk.m, row.w, row.matrix):
        fail("conjugate", "the row's Weyl witness does not carry the canonical element onto it")
        return failures
    reference = _orbit_invariants(blk.i, lams)
    if invariants.invariants_of(t) != reference:
        fail("orbit", "invariants differ from the expected complex orbit")
    return failures


def _verify_block(blk: CaseBlock, lams: tuple) -> list[dict]:
    failures = []
    bid = (blk.i, blk.j)

    def fail(check: str, detail: str = ""):
        failures.append({"block": bid, "check": check, "detail": detail})

    if not blk.reality.accepts(lams):
        fail("sample", "default parameters rejected")
        return failures
    if not _gamma_in_group(blk):
        fail("gamma", "twist action outside the symmetry group")
    try:
        p, g = real_point(blk.i, blk.j, lams)
    except (ValueError, ArithmeticError) as exc:
        fail("real-point", str(exc))
        p = None
    if p is not None:
        for idx, z in enumerate(blk.zs):
            if act_tensor(z, p) != p:
                fail("stabilizer-fix", "element %d does not fix the real point" % idx)
    for row in blk.rows:
        failures.extend(_verify_row(blk, row, lams))
    return failures


def verify_ss_tables(case: int | None = None) -> dict:
    """Re-derive and check every table entry at canonical sample parameters.

    Checks, per block: the twist's action (:func:`_gamma_in_group`) and the
    stabilizer elements fixing the real point (the rest of the block is
    checked once, by :func:`blocks`); per row (:func:`_verify_row`):
    realness, membership and exact coordinates in the stated real canonical
    subspace, semisimplicity, a conjugator onto the family's canonical
    element, and invariants equal to those of the expected complex orbit.
    The conjugator is b_w for the row's stored Weyl witness w, proved on
    the group action for every parameter once per row
    (:func:`_witness_holds`), together with the regularity of the canonical
    element at the parameters.  A row tensor in the span of its basis is
    semisimple because that basis is a commuting semisimple family, checked
    once per basis (:func:`cartanweyl.cartan_is_semisimple`).  The reference
    invariants are computed once per family and parameters
    (:func:`_orbit_invariants`), so the rows of a block are compared with
    one shared value.  Returns a report dict; ``report["ok"]`` is True when
    nothing failed, and ``report["seconds"]`` holds the wall time of each
    block (in a fresh process the first block also pays for building the
    cached tables).
    """
    selected = [b for b in blocks() if case is None or b.i == case]
    if not selected:
        raise KeyError("no table blocks for family %r" % case)
    failures: list[dict] = []
    rows = 0
    sizes: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for blk in selected:
        name = "%d.%d" % (blk.i, blk.j)
        start = time.perf_counter()
        lams = default_lambda(blk.i, blk.j)
        failures.extend(_verify_block(blk, lams))
        seconds[name] = time.perf_counter() - start
        rows += len(blk.rows)
        sizes[name] = len(blk.rows)
    return {
        "ok": not failures,
        "blocks": len(selected),
        "rows": rows,
        "sizes": sizes,
        "seconds": seconds,
        "failures": failures,
    }


def check_row(i: int, j: int, k: int, lams: Sequence[CycNum] | None = None,
              tensor: Tensor | None = None) -> dict:
    """Verify a single row; raises :class:`TableRowError` on failure.

    ``tensor`` substitutes the instantiated representative — useful as a
    negative control (a mutated representative must fail).
    """
    blk = block(i, j)
    row = blk.row(k)
    lams = tuple(lams) if lams is not None else default_lambda(i, j)
    if not blk.reality.accepts(lams):
        raise TableRowError((i, j, k), "sample", "inadmissible parameters")
    failures = _verify_row(blk, row, lams, t=tensor)
    if failures:
        first = failures[0]
        raise TableRowError((i, j, k), first["check"], first["detail"])
    return {"ok": True, "row": (i, j, k), "lams": lams}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _centralizer_dims(roots: Collection[tuple[int, ...]]) -> tuple[int, int]:
    """dim z_g(q) and dim [z_g(q), z_g(q)] for a point q of a real Cartan
    span at which exactly the restricted ``roots`` S vanish (as ``coeffs``):
    the Cartan subspace plus one root space per root of S, and those root
    spaces plus their coroots' span, of dimension rank(S)."""
    return 4 + len(roots), len(roots) + la.rank([[rat(c) for c in a] for a in roots])


@lru_cache(maxsize=None)
def _family_dims(i: int) -> tuple[int, int]:
    """:func:`_centralizer_dims` of a regular point of family i, at which
    exactly the member roots vanish."""
    return _centralizer_dims(cw.member_roots(i))


def _parameter_key(v: CycNum) -> tuple:
    """An exact order on one parameter: the numerators of whichever of ±v has
    a positive first nonzero numerator (the greater tuple), the denominator
    and whether that is −v."""
    if next(filter(None, v.nums), 0) < 0:
        return tuple(map(neg, v.nums)), v.den, True
    return v.nums, v.den, False


def _label_key(label: SSOrbitLabel) -> tuple:
    """An exact order on candidate labels: the parameters coordinatewise
    (:func:`_parameter_key`), then (j, k, m)."""
    return tuple(map(_parameter_key, label.lams)), label.j, label.k, label.m


@lru_cache(maxsize=None)
def _blocks_by_basis(m: int) -> tuple[CaseBlock, ...]:
    return tuple(b for b in blocks() if b.m == m)


@lru_cache(maxsize=None)
def _pattern_table(m: int) -> tuple[dict, tuple]:
    """The rows of basis ``m`` by vanishing-root pattern, and its real moves.

    Row k of family i has the points W[w_k]⁻¹·H_i·λ in u-coordinates, which
    vanish on exactly the roots α with α∘W[w_k]⁻¹ a member root of family i
    at regular λ; as root indices that is {b : perm(w_k)[b] ∈ members}
    (:func:`cartanweyl.root_permutations`).  The first entry maps each such
    set to the ``(block, row)`` pairs that have it.  The second holds each
    real move r of the basis (:func:`real_weyl_group`) as ``(r, perm(r),
    rows, scale)``: its Weyl index, its root permutation, and its coordinate
    action tau_a⁻¹·W[r]_ab·tau_b, for the twist factors tau
    (:func:`cartanweyl.twist_factors`), as Gaussian integers (a, 0) over
    ``scale`` for :func:`_gaussian_row`: 2·W[r]_ab times the numerators
    of tau_a⁻¹·tau_b, formed once, reduced by their gcd.  Raises
    ``ArithmeticError`` for a move that is not rational.
    """
    roots = cw.restricted_roots()
    perms = cw.root_permutations()
    rows: dict[frozenset, list] = {}
    for blk in _blocks_by_basis(m):
        members = {a for a, root in enumerate(roots) if root.coeffs in cw.member_roots(blk.i)}
        for row in blk.rows:
            pattern = frozenset(b for b, a in enumerate(perms[row.w]) if a in members)
            rows.setdefault(pattern, []).append((blk, row))
    inv_nums, inv_den = _inverse_twists(m)
    tau_nums, tau_den = common_numerators(cw.twist_factors(m))
    ratios = [[[0] * 8 for _ in tau_nums] for _ in inv_nums]
    for row, x in zip(ratios, inv_nums):
        for acc, y in zip(row, tau_nums):
            mul_acc(acc, x, y)
    scale, moves = 2 * inv_den * tau_den, []
    # called first, real_weyl_group forms the indices under its own name
    for w, r in zip(real_weyl_group(m), _real_weyl_indices(m)):
        if any(c and any(x[1:]) for row, xs in zip(w, ratios) for c, x in zip(row, xs)):
            raise ArithmeticError("real coordinate move is not rational")
        nums = [[int(2 * c) * x[0] for c, x in zip(row, xs)] for row, xs in zip(w, ratios)]
        g = gcd(scale, *(c for row in nums for c in row))
        moves.append((r, perms[r], tuple(tuple((c // g, 0) for c in row) for row in nums),
                      scale // g))
    return {p: tuple(v) for p, v in rows.items()}, tuple(moves)


def _first_parameters(m: int, coords: tuple) -> tuple[frozenset, list[tuple]]:
    """The vanishing-root pattern of real coordinates on basis ``m``, and
    each pending pair ``(part, m, block, row, r, nums, den)``: the real move
    r takes the coordinates to the vector of integer 8-tuples ``nums`` over
    ``den``, which the row solves with a first parameter of key ``part``
    (:func:`_parameter_key`).

    The input's u-coordinates are d = diag(tau_m)·c (gstar⁻¹ takes the a-th
    basis vector to tau_a·u_a), and the roots vanishing at W[r]·d are the
    images under perm(r) of those vanishing at d (one
    :func:`exactfield.vanishing_functionals` pass).  A move admits the rows
    with that pattern (:func:`_pattern_table`).  The moved vector and its
    terms (:func:`_gaussian_terms`) are formed once per move, on the terms
    of the coordinates; on them every consistency row of each admitted
    row's eliminator must vanish, and only the first parameter row is
    evaluated.  Raises ``ArithmeticError`` for coordinates that are not
    real, or for an admitted row that does not solve.
    """
    if not all(c.is_real() for c in coords):
        raise ArithmeticError("basis coordinates are not real")
    rows, moves = _pattern_table(m)
    roots = [r.coeffs for r in cw.restricted_roots()]
    d = [t * c for t, c in zip(cw.twist_factors(m), coords)]
    pattern = frozenset(a for a, zero in enumerate(vanishing_functionals(roots, d)) if zero)
    nums, den = common_numerators(coords)
    given = _gaussian_terms(nums)
    out = []
    for r, perm, move, scale in moves:
        admitted = rows.get(frozenset(perm[a] for a in pattern))
        if admitted is None:
            continue
        moved = [_gaussian_row(e, given) for e in move]
        terms = _gaussian_terms(moved)
        for blk, row in admitted:
            elim, norm = row._gaussian_elim
            if any(any(_gaussian_row(e, terms)) for e in elim[len(row.matrix[0]):]):
                raise ArithmeticError("row (%d, %d, %d) has the pattern but does not solve"
                                      % (blk.i, blk.j, row.k))
            first = CycNum.from_numerators(_gaussian_row(elim[0], terms), den * scale * norm)
            out.append((_parameter_key(first), m, blk, row, r, moved, den * scale))
    return pattern, out


def _candidate(pair: tuple) -> tuple:
    """The candidate ``(key, label, r, reality)`` of a pending pair of
    :func:`_first_parameters`, with all its parameters
    (:meth:`SSTableRow.solve`)."""
    _, m, blk, row, r, nums, den = pair
    lams = row.solve([CycNum.from_numerators(x, den) for x in nums])
    label = SSOrbitLabel(i=blk.i, j=blk.j, k=row.k, m=m, lams=lams)
    return _label_key(label), label, r, blk.reality


def classification_candidates(m: int, coords: tuple) -> tuple[frozenset, list[tuple]]:
    """The vanishing-root pattern of real coordinates on basis ``m``, and
    each candidate ``(key, label, r, reality)``: the real move r takes the
    coordinates to the label's row at the label's parameters, which are a
    label when the block's ``reality`` pattern accepts them.

    Every pending pair of :func:`_first_parameters` is solved in full, in
    the order of the moves and the admitted rows; :func:`classify_semisimple`
    solves only the least of them.  Raises ``ArithmeticError`` for
    coordinates that are not real, or for an admitted row that does not
    solve.
    """
    pattern, pending = _first_parameters(m, coords)
    return pattern, [_candidate(pair) for pair in pending]


def classify_semisimple(t: Tensor) -> SSOrbitLabel:
    """Identify the table row of a real semisimple tensor in canonical position.

    Canonical position means the span of a real Cartan basis m that carries
    a block of the input's family; a point of the family in the span of
    another basis may get no label (some points of families 2, 5 and 6 on
    basis 3 do not).  On each basis containing the input, a real coordinate
    move r (an element of W_real(m)) admits row k when it carries the roots
    vanishing at the input onto the roots vanishing on row k's points, the
    pattern of its Weyl witness (:func:`_first_parameters`).  The moved
    point then lies in the row's span, so the row solves it.  The label is
    the least candidate (:func:`classification_candidates`) under an exact
    key (the parameters coordinatewise, each by the numerators and
    denominator of ±v and then its sign, then (j, k, m); :func:`_label_key`)
    whose parameters the block's reality pattern accepts.  Admission does
    not decide that test, which also asks for the block's reality tags.
    Where rows of a block reach one real orbit, such as on l1 = l2 in block
    (1, 4), the least key picks one.  An input and its image under a real
    move have the same candidates, so the label is a function of the
    W_real(m)-orbit, and the two rows of a related pair get one label.

    The first parameter decides the key first, so the candidates are found
    least first: each admitted pair is checked and evaluated at its first
    parameter only, the pairs are ordered by that parameter's key, and they
    are solved in full one group of equal first parameters at a time.  The
    least accepted key of the first group that has one is the label, since
    every key of a later group is greater.

    Input in the span of a real Cartan basis is semisimple because that
    basis is a commuting semisimple family, checked once per basis; only
    input outside every basis gets its own semisimplicity test.  Raises
    ``ValueError`` for non-real input, zero, or input with a nilpotent part,
    and :class:`GeneralPositionError` when no table row matches (the input is
    not in canonical position, or its parameters are degenerate).  Its
    centralizer dimensions come from the roots vanishing at the input
    (:func:`_centralizer_dims`) when it lies in a real Cartan span, and from
    the algebra otherwise.
    """
    if not isinstance(t, Tensor):
        raise TypeError("expected a tensor state")
    if not t.is_real():
        raise ValueError("not a real state")
    if t.is_zero():
        raise ValueError("zero state: no orbit label")
    bases = cw.containing_bases(t)
    in_semisimple_span = any(cw.cartan_is_semisimple(m) for m, _ in bases)
    if not in_semisimple_span and not liealg.is_semisimple(t):
        raise ValueError("has nilpotent part")
    patterns, pending = [], []
    for m, coords in bases:
        pattern, pairs = _first_parameters(m, coords)
        patterns.append(pattern)
        pending += pairs
    pending.sort(key=itemgetter(0))
    for _, group in groupby(pending, key=itemgetter(0)):
        accepted = [c for c in map(_candidate, group) if c[3].accepts(c[1].lams)]
        if accepted:
            return min(accepted, key=itemgetter(0))[1]
    if patterns:
        roots = cw.restricted_roots()
        cdim, ddim = _centralizer_dims([roots[a].coeffs for a in patterns[0]])
    else:
        cdim = liealg.centralizer_dim(t)
        ddim = liealg.derived_dim_of_centralizer(t)
    families = [i for i in range(1, 11) if _family_dims(i) == (cdim, ddim)]
    raise GeneralPositionError(
        {
            "centralizer_dim": cdim,
            "derived_centralizer_dim": ddim,
            "families": families,
            "invariants": invariants.invariants_of(t),
        }
    )


# ---------------------------------------------------------------------------
# stabilizer cohomology of the canonical elements
# ---------------------------------------------------------------------------


def _stabilizer_data(i: int) -> tuple[tuple[GElt, ...], tuple[GElt, ...], int]:
    """Finite generators, identity-component samples and class count."""
    U = mat2(ONE, ONE, ZERO, ONE)
    V = mat2(ONE, ZERO, ONE, ONE)
    eta = CycNum.eta_power(1)
    if i == 1:
        return galois.stabilizer_finite_gens(), (), 12
    if i == 2:
        gens = tuple(
            gelt_from_names(s)
            for s in ("-I,-I,I,I", "-I,I,-I,I", "J,J,J,J", "-L,-L,L,L")
        )
        samples = tuple(
            gelt(D(a.inverse()), D(a.inverse()), D(a), D(a))
            for a in (eta, eta * eta, eta * eta * eta)
        )
        return gens, samples, 8
    if i == 3:
        gens = tuple(gelt_from_names(s) for s in ("-I,-I,I,I", "-I,I,-I,I"))
        samples = tuple(
            gelt(sharp(A), sharp(A), A, A) for A in (U, V, D(eta))
        )
        return gens, samples, 4
    if i == 4:
        gens = tuple(
            gelt_from_names(s)
            for s in ("-I,I,-I,I", "J,J,J,J", "-L,L,I,I", "I,I,-L,L")
        )
        pairs = ((eta, ONE), (ONE, eta), (eta, eta), (eta * eta, eta))
        samples = tuple(
            gelt(D(a.inverse()), D(a), D(b.inverse()), D(b)) for a, b in pairs
        )
        return gens, samples, 6
    if i == 7:
        gens = (gelt_from_names("-I,I,-I,I"),)
        combos = ((U, I2), (I2, U), (U, V), (D(eta), D(eta * eta)))
        samples = tuple(gelt(sharp(A), A, sharp(B), B) for A, B in combos)
        return gens, samples, 2
    if i == 10:
        gens = tuple(
            gelt_from_names(s)
            for s in ("J,J,J,J", "-L,L,I,I", "-L,I,L,I", "-L,I,I,L")
        )
        triples = ((eta, ONE, ONE), (ONE, eta, ONE), (ONE, ONE, eta),
                   (eta, eta, eta * eta))
        samples = tuple(
            gelt(D((a * b * c).inverse()), D(a), D(b), D(c))
            for a, b, c in triples
        )
        return gens, samples, 5
    raise KeyError("no stabilizer data for family %d" % i)


def centralizer_spec(i: int) -> galois.StabilizerSpec:
    """Stabilizer description of the family's canonical element."""
    gens, samples, count = _stabilizer_data(i)
    return galois.StabilizerSpec(
        tag="stabilizer:%d" % i,
        finite_gens=gens,
        torus_samples=samples,
        expected_count=count,
    )


def centralizer_classes(i: int) -> galois.CocycleClassList:
    """The documented stabilizer cohomology classes: the z-list of block (i, 1)."""
    blk = block(i, 1)
    return galois.CocycleClassList(
        representatives=blk.zs, case_tag="stabilizer:%d" % i
    )
