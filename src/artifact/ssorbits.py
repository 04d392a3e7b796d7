"""Real orbit tables for diagonalizable (semisimple) states.

A real semisimple tensor lies, after conjugation, in one of seven real
forms of the diagonalizable subspace; its orbit under the real group is
pinned down by three indices: the family ``i`` of its complex orbit, the
real-form class ``j`` of the Cartan subspace containing it, and a finite
cohomology class ``k`` distinguishing real orbits inside one complex
orbit.  This module stores the classification tables with each row's
four coordinate entries as the paper prints them, except the rows
(10, 1, 2) and (10, 2, 2).  The paper prints those in 2/l1, so at l1 they
lie over q(4/l1); they are written in mu = 4/l1, which maps the nonzero
real (imaginary) l1 onto themselves.  So every row is linear in its
parameters, and every row of a block at l1 lies over q(l1).  It reads every
entry with Python's own parser into an exact coefficient matrix, and
provides:

* ``reality_pattern(i, j)`` — the admissible-parameter test for a block;
* ``real_point(i, j, lams)`` — a real point of the block with its witness;
* ``row_tensor(i, j, k, lams)`` — the table representative of row ``k``;
* ``verify_ss_tables()`` — re-derive and check every table entry;
* ``classify_semisimple(t)`` — map a real diagonalizable tensor in
  canonical position back to its ``(i, j, k)`` row and parameter.

All arithmetic is exact, over the degree-8 cyclotomic field.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import gcd
from typing import Sequence

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
#
# Row entries are printed strings like "(-l1+l2-l3+l4)/2" or "i*l3".
# Python's parser reads each one; the walk below accepts integers, the name
# i, the family's parameters, unary minus, + and -, * by a constant and / by
# a rational constant, and evaluates the entry to a linear form
# {name: coefficient} in the parameters.  The key "" holds the constant
# term, which must vanish.


def _add_forms(a: dict, b: dict) -> dict:
    out = dict(a)
    for name, coeff in b.items():
        out[name] = out.get(name, ZERO) + coeff
    return {name: c for name, c in out.items() if c}


def _constant(form: dict) -> CycNum | None:
    """The value of a form without parameters, else None."""
    return form.get("", ZERO) if set(form) <= {""} else None


def _form(node: ast.AST, variables: tuple[str, ...], text: str) -> dict:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return {"": rat(node.value)} if node.value else {}
    if isinstance(node, ast.Name) and node.id == "i":
        return {"": IMAG}
    if isinstance(node, ast.Name) and node.id in variables:
        return {node.id: ONE}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return {name: -c for name, c in _form(node.operand, variables, text).items()}
    if not (isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))):
        raise ValueError("unsupported %s in table entry %r"
                         % (type(getattr(node, "op", node)).__name__, text))
    a = _form(node.left, variables, text)
    b = _form(node.right, variables, text)
    if isinstance(node.op, ast.Add):
        return _add_forms(a, b)
    if isinstance(node.op, ast.Sub):
        return _add_forms(a, {name: -c for name, c in b.items()})
    if isinstance(node.op, ast.Mult):
        c, form = _constant(a), b
        if c is None:
            c, form = _constant(b), a
        if c is None:
            raise ValueError("nonlinear product in table entry %r" % text)
        return {name: v * c for name, v in form.items()} if c else {}
    c = _constant(b)
    if c is None or not c.is_rational():
        raise ValueError("unsupported quotient in table entry %r" % text)
    if not c:
        raise ValueError("division by zero in table entry %r" % text)
    q = 1 / c.to_fraction()
    return {name: v.scale(q) for name, v in a.items()}


def _parse_entry(text: str, variables: tuple[str, ...]) -> dict:
    """The linear form of one printed entry, without its zero constant."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError("unreadable table entry %r" % text) from exc
    form = _form(tree.body, variables, text)
    if form.pop("", ZERO):
        raise ValueError("nonzero constant term in table entry %r" % text)
    return form


@dataclass(frozen=True)
class SSTableRow:
    """One classification-table row: class index and coefficient matrix.

    ``matrix`` is the exact 4×n coefficient matrix in the family's n
    parameters, in their order: coordinates = matrix · λ.
    """

    k: int
    matrix: tuple

    def coordinates(self, lams: Sequence[CycNum]) -> tuple:
        """Evaluate the row at a parameter tuple (positional l-order)."""
        n = len(self.matrix[0])
        if len(lams) < n:
            raise ValueError("row needs %d parameters, got %d" % (n, len(lams)))
        return tuple(la.mat_vec(self.matrix, lams[:n]))

    @cached_property
    def _gaussian_elim(self) -> tuple[list, int]:
        return _gaussian_eliminator(self.matrix)

    @cached_property
    def _elim(self) -> tuple:
        return _field_rows(*self._gaussian_elim)

    def solve(self, vec: Sequence[CycNum]) -> tuple | None:
        """Parameters that reproduce ``vec``, or None when inconsistent."""
        sol = _eliminate(self._elim, len(self.matrix[0]), vec)
        return None if sol is None else tuple(sol)


def _gaussian_integers(matrix) -> tuple[list, int]:
    """The rows of d·matrix as Gaussian integers ``(a, b)`` = a + b·i, and
    d > 0, the common denominator of the entries
    (:func:`exactfield.common_numerators`).  Raises ``ArithmeticError`` for
    an entry that is not a Gaussian rational."""
    rows, den = _numerator_rows(matrix)
    if any(x[e] for r in rows for x in r for e in (1, 2, 3, 5, 6, 7)):
        raise ArithmeticError("matrix entry is not a Gaussian rational")
    return [[(x[0], x[4]) for x in r] for r in rows], den


def _field_rows(rows: list, norm: int) -> tuple:
    """The rows of Gaussian integers ``(a, b)`` = a + b·i over ``norm`` as
    rows of field elements, each reduced once."""
    return tuple(tuple(CycNum.from_numerators((a, 0, 0, 0, b, 0, 0, 0), norm) for a, b in row)
                 for row in rows)


def _gaussian_eliminator(matrix) -> tuple[list, int]:
    """The invertible ``E`` with ``E · matrix = [I_n; 0]``, for n independent
    columns, as rows of Gaussian integers ``(a, b)`` = a + b·i and a
    positive integer N with E = rows/N (:func:`_field_rows` makes them
    field elements).

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


def _eliminate(elim: tuple, n: int, vec: Sequence[CycNum]) -> list | None:
    """The x with ``matrix · x = vec``, from the eliminator of ``matrix``
    (n columns); None when the consistency rows ``E[n:]`` reject ``vec``."""
    out = la.mat_vec(elim, vec)
    return None if any(out[n:]) else out[:n]


def _compile_row(k: int, exprs: tuple, variables: tuple[str, ...]) -> SSTableRow:
    """Compile the four printed entries of row ``k`` to its coefficient matrix."""
    forms = [_parse_entry(e, variables) for e in exprs]
    if {name for form in forms for name in form} != set(variables):
        raise ValueError("row %d must use every family parameter: %r" % (k, exprs))
    matrix = tuple(tuple(form.get(v, ZERO) for v in variables) for form in forms)
    # the columns are independent exactly when some maximal minor is nonzero
    if not any(map(la.det, combinations(matrix, len(variables)))):
        raise ValueError("row %d has linearly dependent columns" % k)
    return SSTableRow(k=k, matrix=matrix)


# ---------------------------------------------------------------------------
# reality patterns (admissible parameters per block)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealityPattern:
    """Admissibility test for the parameters of one ``(i, j)`` block.

    ``tags`` gives each parameter's constraint: ``"real"`` or
    ``"imaginary"`` (nonzero real/imaginary number), or ``"coupled"`` for
    the paired constraint i·(l1+l2) and l1−l2 both real and nonzero.
    ``avoid`` lists integer coefficient rows whose dot product with the
    parameters must not vanish (regularity of the instance).
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


def _plus_minus_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows (1, ±1, …, ±1): the first parameter avoids all ± sums of the rest."""
    rows = []
    count = n - 1
    for bits in range(2**count):
        row = [1] + [1 if (bits >> p) & 1 else -1 for p in range(count)]
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# table data
# ---------------------------------------------------------------------------
#
# Families 1, 2, 3, 4, 7, 10 are stored directly; families 5, 6, 8, 9 are
# generated from 4 and 7 by the tensor-slot transpositions (2 3) and (2 4),
# which permute the coordinate pairs without sign changes.
#
# Block fields: j, basis index m (1..7 for u, v, w, x, y, z, t), the
# coordinate-action matrix ``gamma`` induced by the twist n, the twist
# ``n`` and its witness ``g`` (as comma-separated named 2×2 factors, with
# ``Dk`` denoting diag(eta^k, eta^-k)), the finite list ``zs`` of
# stabilizer cocycles, per-parameter reality ``tags``, ``avoid`` rows and
# the row formulas.  Each row is four coordinate entries in the family's
# ``vars``, kept as the paper prints them but for the second rows of
# family 10: printed in 2/l1, they are stored in mu = 4/l1 (see the module
# docstring), with the printed form beside them.  ``blocks()`` compiles
# every row once to an ``SSTableRow`` (see ``_compile_row``).

_Z_COMMON = ("I,I,I,I", "-I,-I,I,I", "-I,I,-I,I", "I,-I,-I,I")

_NATIVE: dict[int, dict] = {
    1: {
        "vars": ("l1", "l2", "l3", "l4"),
        "blocks": (
            dict(
                j=1,
                m=1,
                gamma=(1, 1, 1, 1),
                n="I,I,I,I",
                g="I,I,I,I",
                zs=(
                    "I,I,I,I", "I,I,-I,-I", "I,-I,I,-I", "I,-I,-I,I",
                    "K,K,K,K", "K,K,-K,-K", "K,-K,K,-K", "K,-K,-K,K",
                    "L,L,L,L", "L,L,-L,-L", "L,-L,L,-L", "L,-L,-L,L",
                ),
                tags=("real",) * 4,
                avoid=_plus_minus_rows(4),
                rows=(
                    ("l1", "l2", "l3", "l4"),
                    ("-l1", "l2", "l3", "-l4"),
                    ("-l1", "l2", "-l3", "l4"),
                    ("-l1", "-l2", "l3", "l4"),
                    ("(-l1-l2-l3-l4)/2", "(l1+l2-l3-l4)/2",
                     "(l1-l2+l3-l4)/2", "(l1-l2-l3+l4)/2"),
                    ("(-l1+l2+l3-l4)/2", "(-l1+l2-l3+l4)/2",
                     "(-l1-l2+l3+l4)/2", "(l1+l2+l3+l4)/2"),
                    ("(-l1+l2-l3+l4)/2", "(-l1+l2+l3-l4)/2",
                     "(l1+l2+l3+l4)/2", "(-l1-l2+l3+l4)/2"),
                    ("(-l1-l2+l3+l4)/2", "(l1+l2+l3+l4)/2",
                     "(-l1+l2+l3-l4)/2", "(-l1+l2-l3+l4)/2"),
                    ("-l1", "l2", "l3", "l4"),
                    ("l1", "l2", "l3", "-l4"),
                    ("l1", "l2", "-l3", "l4"),
                    ("l1", "-l2", "l3", "l4"),
                ),
            ),
            dict(
                j=2,
                m=2,
                gamma=(-1, -1, -1, -1),
                n="-I,I,I,I",
                g="L,I,I,I",
                zs=(
                    "I,I,I,I", "-I,-I,I,I", "I,-I,I,-I", "-I,I,I,-I",
                    "K,K,K,-K", "-K,-K,-K,K", "K,-K,K,K", "-K,K,K,K",
                    "-L,-L,-L,-L", "L,L,-L,-L", "-L,L,-L,L", "L,-L,-L,L",
                ),
                tags=("imaginary",) * 4,
                avoid=_plus_minus_rows(4),
                rows=(
                    ("i*l1", "i*l2", "i*l3", "i*l4"),
                    ("-i*l1", "i*l2", "i*l3", "-i*l4"),
                    ("-i*l1", "i*l2", "-i*l3", "i*l4"),
                    ("-i*l1", "-i*l2", "i*l3", "i*l4"),
                    ("i*(-l1-l2+l3+l4)/2", "i*(l1+l2+l3+l4)/2",
                     "i*(-l1+l2+l3-l4)/2", "i*(-l1+l2-l3+l4)/2"),
                    ("i*(-l1+l2-l3+l4)/2", "i*(-l1+l2+l3-l4)/2",
                     "i*(l1+l2+l3+l4)/2", "i*(-l1-l2+l3+l4)/2"),
                    ("i*(-l1+l2+l3-l4)/2", "i*(-l1+l2-l3+l4)/2",
                     "i*(-l1-l2+l3+l4)/2", "i*(l1+l2+l3+l4)/2"),
                    ("i*(-l1-l2-l3-l4)/2", "i*(l1+l2-l3-l4)/2",
                     "i*(l1-l2+l3-l4)/2", "i*(l1-l2-l3+l4)/2"),
                    ("-i*l1", "i*l2", "i*l3", "i*l4"),
                    ("i*l1", "i*l2", "i*l3", "-i*l4"),
                    ("i*l1", "i*l2", "-i*l3", "i*l4"),
                    ("i*l1", "-i*l2", "i*l3", "i*l4"),
                ),
            ),
            dict(
                j=3,
                m=3,
                gamma=(-1, -1, -1, 1),
                n="M,M,-N,N",
                g="D5,D5,-D3,-D7",
                zs=("-I,-I,-I,-I", "-I,-I,I,I", "-I,I,-I,I", "-I,I,I,-I"),
                tags=("imaginary", "imaginary", "imaginary", "real"),
                avoid=((1, 1, 1, 0), (1, 1, -1, 0),
                       (1, -1, 1, 0), (1, -1, -1, 0)),
                rows=(
                    ("i*l1", "i*l2", "-i*l3", "l4"),
                    ("-i*l1", "i*l2", "-i*l3", "-l4"),
                    ("-i*l1", "i*l2", "i*l3", "l4"),
                    ("-i*l1", "-i*l2", "-i*l3", "l4"),
                ),
            ),
            dict(
                j=4,
                m=4,
                gamma=(-1, -1, 1, 1),
                n="L,I,I,L",
                g="M,I,I,M",
                zs=("I,I,I,I", "I,I,-I,-I", "L,L,L,L", "L,L,-L,-L"),
                tags=("imaginary", "imaginary", "real", "real"),
                avoid=((1, 1, 0, 0), (1, -1, 0, 0)),
                rows=(
                    ("-i*l1", "-i*l2", "l3", "l4"),
                    ("i*l1", "-i*l2", "l3", "-l4"),
                    ("i*l1", "-i*l2", "l3", "l4"),
                    ("-i*l1", "-i*l2", "l3", "-l4"),
                ),
            ),
            dict(
                j=5,
                m=5,
                gamma=(-1, 1, -1, 1),
                n="I,L,I,L",
                g="I,M,I,M",
                zs=("I,I,I,I", "I,I,-I,-I", "L,L,L,L", "L,L,-L,-L"),
                tags=("imaginary", "real", "imaginary", "real"),
                avoid=((1, 0, 1, 0), (1, 0, -1, 0)),
                rows=(
                    ("-i*l1", "l2", "i*l3", "l4"),
                    ("i*l1", "l2", "i*l3", "-l4"),
                    ("i*l1", "l2", "i*l3", "l4"),
                    ("-i*l1", "l2", "i*l3", "-l4"),
                ),
            ),
            dict(
                j=6,
                m=6,
                gamma=(-1, 1, 1, -1),
                n="I,I,L,L",
                g="I,I,M,M",
                zs=("I,I,I,I", "I,-I,I,-I", "L,L,L,L", "L,-L,L,-L"),
                tags=("imaginary", "real", "real", "imaginary"),
                avoid=((1, 0, 0, 1), (1, 0, 0, -1)),
                rows=(
                    ("-i*l1", "l2", "l3", "i*l4"),
                    ("i*l1", "l2", "-l3", "i*l4"),
                    ("i*l1", "l2", "l3", "i*l4"),
                    ("-i*l1", "l2", "-l3", "i*l4"),
                ),
            ),
            dict(
                j=7,
                m=7,
                gamma=(-1, 1, 1, 1),
                n="M,M,M,M",
                g="D5,D5,D5,D5",
                zs=("I,I,I,I", "I,I,-I,-I", "I,-I,I,-I", "I,-I,-I,I"),
                tags=("imaginary", "real", "real", "real"),
                avoid=(),
                rows=(
                    ("i*l1", "l2", "l3", "l4"),
                    ("-i*l1", "l2", "l3", "-l4"),
                    ("-i*l1", "l2", "-l3", "l4"),
                    ("-i*l1", "-l2", "l3", "l4"),
                ),
            ),
        ),
    },
    2: {
        "vars": ("l1", "l2", "l3"),
        "blocks": (
            dict(
                j=1,
                m=1,
                gamma=(1, 1, 1, 1),
                n="I,I,I,I",
                g="I,I,I,I",
                zs=_Z_COMMON + ("-K,-K,K,K", "K,K,K,K", "K,-K,-K,K", "-K,K,-K,K"),
                tags=("real",) * 3,
                avoid=_plus_minus_rows(3),
                rows=(
                    ("l1", "l2", "l3", "0"),
                    ("-l1", "l2", "l3", "0"),
                    ("-l1", "l2", "-l3", "0"),
                    ("-l1", "-l2", "l3", "0"),
                    ("(-l1+l2+l3)/2", "(-l1+l2-l3)/2",
                     "(-l1-l2+l3)/2", "(l1+l2+l3)/2"),
                    ("(-l1-l2-l3)/2", "(l1+l2-l3)/2",
                     "(l1-l2+l3)/2", "(l1-l2-l3)/2"),
                    ("(-l1-l2+l3)/2", "(l1+l2+l3)/2",
                     "(-l1+l2+l3)/2", "(-l1+l2-l3)/2"),
                    ("(-l1+l2-l3)/2", "(-l1+l2+l3)/2",
                     "(l1+l2+l3)/2", "(-l1-l2+l3)/2"),
                ),
            ),
            dict(
                j=2,
                m=6,
                gamma=(1, -1, -1, 1),
                n="I,I,L,-L",
                g="I,I,M,D2",
                zs=_Z_COMMON,
                tags=("real", "imaginary", "imaginary"),
                avoid=(),
                rows=(
                    ("-i*l3", "0", "l1", "-i*l2"),
                    ("i*l3", "0", "l1", "i*l2"),
                    ("i*l3", "0", "-l1", "-i*l2"),
                    ("i*l3", "0", "l1", "-i*l2"),
                ),
            ),
            dict(
                j=3,
                m=5,
                gamma=(1, -1, 1, -1),
                n="I,L,I,-L",
                g="I,M,I,D2",
                zs=_Z_COMMON,
                tags=("real", "imaginary", "real"),
                avoid=((1, 0, 1), (1, 0, -1)),
                rows=(
                    ("0", "-l3", "-i*l2", "l1"),
                    ("0", "-l3", "-i*l2", "-l1"),
                    ("0", "-l3", "i*l2", "l1"),
                    ("0", "l3", "-i*l2", "l1"),
                ),
            ),
            dict(
                j=4,
                m=4,
                gamma=(-1, -1, 1, 1),
                n="L,I,I,L",
                g="M,I,I,M",
                zs=_Z_COMMON,
                tags=("imaginary", "imaginary", "real"),
                avoid=((1, 1, 0), (1, -1, 0)),
                rows=(
                    ("-i*l1", "-i*l2", "l3", "0"),
                    ("i*l1", "-i*l2", "l3", "0"),
                    ("i*l1", "-i*l2", "-l3", "0"),
                    ("i*l1", "i*l2", "l3", "0"),
                ),
            ),
            dict(
                j=5,
                m=4,
                gamma=(1, 1, -1, -1),
                n="L,I,I,-L",
                g="M,I,I,N",
                zs=_Z_COMMON,
                tags=("real", "real", "imaginary"),
                avoid=((1, 1, 0), (1, -1, 0)),
                rows=(
                    ("0", "i*l3", "-l2", "l1"),
                    ("0", "i*l3", "-l2", "-l1"),
                    ("0", "i*l3", "l2", "l1"),
                    ("0", "-i*l3", "-l2", "l1"),
                ),
            ),
            dict(
                j=6,
                m=5,
                gamma=(-1, 1, -1, 1),
                n="I,L,I,L",
                g="I,M,I,M",
                zs=_Z_COMMON,
                tags=("imaginary", "real", "imaginary"),
                avoid=((1, 0, 1), (1, 0, -1)),
                rows=(
                    ("-i*l1", "l2", "i*l3", "0"),
                    ("i*l1", "l2", "i*l3", "0"),
                    ("i*l1", "l2", "-i*l3", "0"),
                    ("i*l1", "-l2", "i*l3", "0"),
                ),
            ),
            dict(
                j=7,
                m=6,
                gamma=(-1, 1, 1, -1),
                n="I,I,L,L",
                g="I,I,M,M",
                zs=_Z_COMMON,
                tags=("imaginary", "real", "real"),
                avoid=((1, 0, 1), (1, 0, -1)),
                rows=(
                    ("-i*l1", "l2", "l3", "0"),
                    ("i*l1", "l2", "l3", "0"),
                    ("i*l1", "l2", "-l3", "0"),
                    ("i*l1", "-l2", "l3", "0"),
                ),
            ),
            dict(
                j=8,
                m=2,
                gamma=(-1, -1, -1, -1),
                n="-I,I,I,I",
                g="L,I,I,I",
                zs=_Z_COMMON + ("K,-K,K,K", "-K,K,K,K", "-K,-K,-K,K", "K,K,-K,K"),
                tags=("imaginary",) * 3,
                avoid=_plus_minus_rows(3),
                rows=(
                    ("-i*l1", "-i*l2", "-i*l3", "0"),
                    ("i*l1", "-i*l2", "-i*l3", "0"),
                    ("i*l1", "-i*l2", "i*l3", "0"),
                    ("i*l1", "i*l2", "-i*l3", "0"),
                    ("i*(l1-l2-l3)/2", "i*(l1-l2+l3)/2",
                     "i*(l1+l2-l3)/2", "i*(-l1-l2-l3)/2"),
                    ("i*(l1+l2+l3)/2", "i*(-l1-l2+l3)/2",
                     "i*(-l1+l2-l3)/2", "i*(-l1+l2+l3)/2"),
                    ("i*(l1+l2-l3)/2", "i*(-l1-l2-l3)/2",
                     "i*(l1-l2-l3)/2", "i*(l1-l2+l3)/2"),
                    ("i*(l1-l2+l3)/2", "i*(l1-l2-l3)/2",
                     "i*(-l1-l2-l3)/2", "i*(l1+l2-l3)/2"),
                ),
            ),
        ),
    },
    3: {
        "vars": ("l1", "l2"),
        "blocks": (
            dict(
                j=1,
                m=1,
                gamma=(1, 1, 1, 1),
                n="I,I,I,I",
                g="I,I,I,I",
                zs=_Z_COMMON,
                tags=("real", "real"),
                avoid=((1, 1),),
                rows=(
                    ("l1+l2", "-l1", "-l2", "0"),
                    ("-l1-l2", "-l1", "-l2", "0"),
                    ("-l1-l2", "-l1", "l2", "0"),
                    ("-l1-l2", "l1", "-l2", "0"),
                ),
            ),
            dict(
                j=2,
                m=2,
                gamma=(-1, -1, -1, -1),
                n="-I,I,I,I",
                g="L,I,I,I",
                zs=_Z_COMMON,
                tags=("imaginary", "imaginary"),
                avoid=((1, 1),),
                rows=(
                    ("i*(l1+l2)", "-i*l1", "-i*l2", "0"),
                    ("-i*(l1+l2)", "-i*l1", "-i*l2", "0"),
                    ("-i*(l1+l2)", "-i*l1", "i*l2", "0"),
                    ("-i*(l1+l2)", "i*l1", "-i*l2", "0"),
                ),
            ),
        ),
    },
    4: {
        "vars": ("l1", "l4"),
        "blocks": (
            dict(
                j=1,
                m=1,
                gamma=(1, 1, 1, 1),
                n="I,I,I,I",
                g="I,I,I,I",
                zs=("I,I,I,I", "-I,I,-I,I", "-K,K,-K,K",
                    "-K,K,K,-K", "K,K,K,K", "K,K,-K,-K"),
                tags=("real", "real"),
                avoid=((1, 1), (1, -1)),
                rows=(
                    ("l1", "0", "0", "l4"),
                    ("-l1", "0", "0", "l4"),
                    ("(-l1+l4)/2", "(-l1-l4)/2", "(l1+l4)/2", "(-l1+l4)/2"),
                    ("(-l1+l4)/2", "(l1+l4)/2", "(-l1-l4)/2", "(-l1+l4)/2"),
                    ("(-l1-l4)/2", "(l1-l4)/2", "(l1-l4)/2", "(l1+l4)/2"),
                    ("(-l1-l4)/2", "(-l1+l4)/2", "(-l1+l4)/2", "(l1+l4)/2"),
                ),
            ),
            dict(
                j=2,
                m=7,
                gamma=(-1, 1, 1, 1),
                n="M,M,M,M",
                g="D5,D5,D5,D5",
                zs=("I,I,I,I", "-I,I,-I,I"),
                tags=("imaginary", "real"),
                avoid=(),
                rows=(
                    ("i*l1", "0", "0", "l4"),
                    ("-i*l1", "0", "0", "l4"),
                ),
            ),
            dict(
                j=3,
                m=2,
                gamma=(-1, 1, 1, -1),
                n="I,I,L,L",
                g="I,I,M,M",
                zs=("I,I,I,I", "-I,-I,I,I", "-K,K,-K,-K",
                    "K,K,K,-K", "-K,K,K,K", "K,K,-K,K"),
                tags=("imaginary", "imaginary"),
                avoid=((1, 1), (1, -1)),
                rows=(
                    ("-i*l1", "0", "0", "i*l4"),
                    ("i*l1", "0", "0", "i*l4"),
                    ("i*(-l1-l4)/2", "i*(-l1+l4)/2",
                     "i*(-l1+l4)/2", "i*(l1+l4)/2"),
                    ("i*(-l1+l4)/2", "i*(l1+l4)/2",
                     "i*(-l1-l4)/2", "i*(-l1+l4)/2"),
                    ("i*(-l1-l4)/2", "i*(l1-l4)/2",
                     "i*(l1-l4)/2", "i*(l1+l4)/2"),
                    ("i*(-l1+l4)/2", "i*(-l1-l4)/2",
                     "i*(l1+l4)/2", "i*(-l1+l4)/2"),
                ),
            ),
            dict(
                j=4,
                m=6,
                gamma=((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)),
                n="L,L,-K,K",
                g="M,M,F,LF",
                zs=("I,I,I,I", "-I,I,-I,I", "-K,-K,-L,-L", "K,-K,L,-L"),
                tags=("coupled", "coupled"),
                avoid=((1, 1), (1, -1)),
                rows=(
                    ("-i*(l1+l4)/2", "(l1-l4)/2", "(-l1+l4)/2", "-i*(l1+l4)/2"),
                    ("i*(l1+l4)/2", "(l1-l4)/2", "(l1-l4)/2", "-i*(l1+l4)/2"),
                    ("i*(l1+l4)/2", "(l1-l4)/2", "(-l1+l4)/2", "-i*(l1+l4)/2"),
                    ("-i*(l1+l4)/2", "(l1-l4)/2", "(l1-l4)/2", "-i*(l1+l4)/2"),
                ),
            ),
        ),
    },
    7: {
        "vars": ("l1",),
        "blocks": (
            dict(
                j=1,
                m=1,
                gamma=(1, 1, 1, 1),
                n="I,I,I,I",
                g="I,I,I,I",
                zs=("I,I,I,I", "-I,I,-I,I"),
                tags=("real",),
                avoid=(),
                rows=(
                    ("l1", "0", "0", "-l1"),
                    ("-l1", "0", "0", "-l1"),
                ),
            ),
            dict(
                j=2,
                m=2,
                gamma=(-1, -1, -1, -1),
                n="-I,I,I,I",
                g="L,I,I,I",
                zs=("I,I,I,I", "-I,I,-I,I"),
                tags=("imaginary",),
                avoid=(),
                rows=(
                    ("i*l1", "0", "0", "-i*l1"),
                    ("-i*l1", "0", "0", "-i*l1"),
                ),
            ),
        ),
    },
    10: {
        "vars": ("l1",),
        "blocks": (
            dict(
                j=1,
                m=1,
                gamma=(1, 1, 1, 1),
                n="I,I,I,I",
                g="I,I,I,I",
                zs=("I,I,I,I", "K,K,K,K", "-K,K,K,-K", "-K,K,-K,K", "K,K,-K,-K"),
                tags=("real",),
                avoid=(),
                rows=(
                    ("l1", "0", "0", "0"),
                    # printed ("-2/l1", "2/l1", "2/l1", "2/l1"), here in mu = 4/l1
                    ("-l1/2", "l1/2", "l1/2", "l1/2"),
                ),
            ),
            dict(
                j=2,
                m=2,
                gamma=(-1, -1, -1, -1),
                n="-I,I,I,I",
                g="L,I,I,I",
                zs=("I,I,I,I", "-K,K,K,K", "K,K,K,-K", "K,K,-K,K", "-K,K,-K,-K"),
                tags=("imaginary",),
                avoid=(),
                rows=(
                    ("i*l1", "0", "0", "0"),
                    # printed ("-2/(i*l1)", "2/(i*l1)", "2/(i*l1)", "2/(i*l1)"),
                    # here in mu = 4/l1
                    ("i*l1/2", "-i*l1/2", "-i*l1/2", "-i*l1/2"),
                ),
            ),
        ),
    },
}

#: Families generated from stored ones by a tensor-slot transposition.
_TRANSPORTS: dict[int, tuple[int, tuple[int, int]]] = {
    5: (4, (2, 3)),
    6: (4, (2, 4)),
    8: (7, (2, 3)),
    9: (7, (2, 4)),
}


def _build_wmat(gamma) -> cw.WeylMat:
    if isinstance(gamma[0], tuple):
        return cw.wmat(gamma)
    return cw.wmat([[gamma[r] if r == c else 0 for c in range(4)] for r in range(4)])


# ---------------------------------------------------------------------------
# case blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseBlock:
    """All data of one ``(i, j)`` entry of the classification tables."""

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


def _compile_block(i: int, variables: tuple[str, ...], raw: dict) -> CaseBlock:
    """Compile a stored block; its ``gamma`` must be its twist's symmetry."""
    rows = tuple(
        _compile_row(k + 1, exprs, variables) for k, exprs in enumerate(raw["rows"])
    )
    n = gelt_from_names(raw["n"])
    g = gelt_from_names(raw["g"])
    zs = tuple(gelt_from_names(z) for z in raw["zs"])
    w = _checked_twist(i, raw["j"], n, g, zs)
    gamma = _build_wmat(raw["gamma"])
    if cw.weyl_group()[w] != gamma:
        raise ValueError("block (%d, %d): twist acts by %r, table says %r"
                         % (i, raw["j"], cw.weyl_group()[w], gamma))
    reality = RealityPattern(
        i=i, j=raw["j"], tags=tuple(raw["tags"]), avoid=tuple(raw["avoid"])
    )
    return CaseBlock(
        i=i,
        j=raw["j"],
        m=raw["m"],
        gamma=w,
        n=n,
        g=g,
        zs=zs,
        rows=rows,
        reality=reality,
    )


def _transport_block(i_dst: int, auto: PermAuto, blk: CaseBlock) -> CaseBlock:
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
    rows = tuple(
        replace(row, matrix=tuple(row.matrix[perm4[r]] for r in range(4)))
        for row in blk.rows
    )
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
    return replace(blk, i=i_dst, m=m_dst, gamma=w, n=n, g=g, zs=zs, rows=rows,
                   reality=replace(blk.reality, i=i_dst))


@lru_cache(maxsize=1)
def blocks() -> tuple[CaseBlock, ...]:
    """Every ``(i, j)`` block of the tables, stored and generated alike, each
    with its group data checked in the slot group (:func:`_checked_twist`)."""
    out: list[CaseBlock] = []
    for i, spec in _NATIVE.items():
        for raw in spec["blocks"]:
            out.append(_compile_block(i, spec["vars"], raw))
    for i_dst, (i_src, cycle) in _TRANSPORTS.items():
        auto = PermAuto(cycle)
        for blk in [b for b in out if b.i == i_src]:
            out.append(_transport_block(i_dst, auto, blk))
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


@lru_cache(maxsize=None)
def real_weyl_group(m: int) -> tuple[cw.WeylMat, ...]:
    """Coordinate symmetries with lifts defined over the m-th real form.

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
    real = sorted(w for g, w in lifts if mul(inv(g), sigma(g)) in twists)
    return tuple(cw.weyl_group()[w] for w in real)


@lru_cache(maxsize=None)
def _coordinate_moves(m: int) -> tuple:
    """Real 4×4 matrices: the action of the real coordinate symmetries
    on coordinates with respect to the m-th real basis.

    The entry (a, b) of the move of w is tau_a⁻¹·w_ab·tau_b, with the twist
    factors tau of the basis (:func:`cartanweyl.twist_factors`): the ratios
    tau_a⁻¹·tau_b are formed once per basis, and each entry scales one by
    the rational w_ab.
    """
    taus = cw.twist_factors(m)
    ratios = [[inv * u for u in taus] for inv in (t.inverse() for t in taus)]
    moves = []
    for w in real_weyl_group(m):
        mat = tuple(tuple(ratio.scale(q) for ratio, q in zip(ratios[a], w[a]))
                    for a in range(4))
        if not all(v.is_real() for row in mat for v in row):
            raise ArithmeticError("real symmetry has a non-real coordinate action")
        moves.append(mat)
    return tuple(moves)


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
def _witness_table(i: int) -> dict[tuple[int, ...], int]:
    """The least w with each image 2·W[w]⁻¹·q0, keyed by that doubled integer
    vector, for q0 = H·``_SAMPLE_MAGNITUDES[i]`` in u-coordinates (H the
    family's ``h_basis`` as columns).  Raises ``ArithmeticError`` when q0 is
    not regular.  A regular q0 has the stabilizer W_Pi(i) in W, so two w
    share a key exactly when they lie in one coset W_Pi(i)·w.
    """
    q0 = [sum(h[r] * x for h, x in zip(cw.subsystem(i).h_basis, _SAMPLE_MAGNITUDES[i]))
          for r in range(4)]
    if cw.vanishing_roots([rat(x) for x in q0]) != cw.member_roots(i):
        raise ArithmeticError("sample point of family %d is not regular" % i)
    weyl = cw.weyl_table()
    doubled = {w: rows for rows, w in weyl.index.items()}
    a, b, c, d = q0
    table: dict[tuple[int, ...], int] = {}
    for w in range(len(doubled)):
        table.setdefault(tuple(r[0] * a + r[1] * b + r[2] * c + r[3] * d
                               for r in doubled[weyl.inv[w]]), w)
    return table


@lru_cache(maxsize=None)
def _row_witness(i: int, m: int, matrix: tuple) -> int | None:
    """The least w with t(λ) = act(b_w, q(λ)) for every λ, or None: t(λ) has
    coordinates ``matrix``·λ in basis m, q is family i's canonical element
    and b_w = gstar·lift(w)⁻¹ (:func:`_lifted_conjugator`).

    gstar⁻¹ takes the l-th vector of basis m to tau_l·u_l
    (:func:`cartanweyl.twist_factors`), so such a w has
    diag(tau)·matrix = W[w]⁻¹·H.  At the sample magnitudes that is one
    look-up in :func:`_witness_table`, and a miss proves that no w exists.
    The w found is checked on the group action, act(b_w, q(e_l)) = t(e_l)
    for each parameter unit vector e_l; the action is linear, so that
    proves the row for every λ.
    """
    mags = _SAMPLE_MAGNITUDES[i]
    doubled = [tau * sum((c.scale(2 * x) for c, x in zip(row, mags)), ZERO)
               for tau, row in zip(cw.twist_factors(m), matrix)]
    if not all(v.is_rational() and v.to_fraction().denominator == 1 for v in doubled):
        return None
    w = _witness_table(i).get(tuple(int(v.to_fraction()) for v in doubled))
    if w is None:
        return None
    b = _lifted_conjugator(m, w)
    n = len(matrix[0])
    for l in range(n):
        unit = [ONE if p == l else ZERO for p in range(n)]
        column = [row[l] for row in matrix]
        if act_tensor(b, cw.parametrize(i, unit)) != cw.from_basis_coords(m, column):
            return None
    return w


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
    and a Weyl witness of the row (:func:`_row_witness`), both cached; then
    t = act(b_w, q(lams)).  The reference invariants, those of the family's
    canonical element at ``lams``, come from :func:`_orbit_invariants`.
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
    if _row_witness(blk.i, blk.m, row.matrix) is None:
        fail("conjugate", "no Weyl witness carries the canonical element onto the row")
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
    The conjugator is the row's Weyl witness b_w (:func:`_row_witness`),
    found by one look-up and proved on the group action for every parameter
    once per row, together with the regularity of the canonical element at
    the parameters.  A row tensor in the span of its basis is semisimple
    because that basis is a commuting semisimple family, checked once per
    basis (:func:`cartanweyl.cartan_is_semisimple`).  The reference
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

#: (centralizer dimension, derived-subalgebra dimension) per family.
_FAMILY_DIMS: dict[int, tuple[int, int]] = {
    1: (4, 0),
    2: (6, 3),
    3: (10, 8),
    4: (8, 6),
    5: (8, 6),
    6: (8, 6),
    7: (16, 15),
    8: (16, 15),
    9: (16, 15),
    10: (10, 9),
}


def _coord_sort_key(v: CycNum):
    z = invariants.approx_complex(v)
    return (
        round(abs(z.real), 12),
        z.real < -1e-12,
        round(abs(z.imag), 12),
        z.imag < -1e-12,
    )


def _lambda_key(lams: tuple):
    approx = tuple(_coord_sort_key(v) for v in lams)
    exact = tuple((v.nums, v.den) for v in lams)
    return (approx, exact)


@lru_cache(maxsize=None)
def _blocks_by_basis(m: int) -> tuple[CaseBlock, ...]:
    return tuple(b for b in blocks() if b.m == m)


# Every test classification makes on a (move, row) pair is the zero test of
# a linear functional on the input's real basis coordinates c: the moves are
# rational and the eliminator entries Gaussian rationals a + b·i, so a row of
# E·M sends c to a·M·c + (b·M·c)·i with both terms real, and it vanishes
# exactly when the rational functionals a·M and b·M both vanish at c.


def _numerator_rows(matrix) -> tuple[list, int]:
    """The entries of ``matrix`` as integer 8-tuples over their common
    denominator d (:func:`exactfield.common_numerators`), row by row, and d."""
    nums, den = common_numerators(v for r in matrix for v in r)
    nums = [x or (0,) * 8 for x in nums]
    n = len(matrix[0])
    return [nums[k:k + n] for k in range(0, len(nums), n)], den


def _primitive(vec) -> tuple[int, ...]:
    """The multiple of an integer row with coprime entries and a positive
    leading entry: rows with one zero set get one key."""
    g = gcd(*vec) or 1
    if next((v for v in vec if v), 0) < 0:
        g = -g
    return tuple(v // g for v in vec)


def _combine(coeffs, rows) -> tuple:
    return tuple(sum(c * r[p] for c, r in zip(coeffs, rows)) for p in range(4))


def _row_conditions(blk: CaseBlock, row: SSTableRow) -> tuple[list, list, list]:
    """The tests of ``row.solve`` and ``blk.reality.accepts`` as integer rows
    on the moved coordinates: (rows that must vanish, rows that must not,
    groups of rows not all of which may vanish).
    """
    n = len(row.matrix[0])
    # N·E = re + im·i with N > 0, which changes no zero test
    gauss, _ = row._gaussian_elim
    re = [tuple(a for a, _ in r) for r in gauss]
    im = [tuple(b for _, b in r) for r in gauss]
    vanish = re[n:] + im[n:]
    re, im = re[:n], im[:n]
    tags = blk.reality.tags
    if len(tags) != n:
        raise ValueError(
            "family %d takes %d parameters, got %d" % (blk.i, len(tags), n)
        )
    nonzero, some = [], []
    if "coupled" in tags:
        # i·(l1 + l2) and l1 − l2 real and nonzero
        vanish += [_combine((1, 1), re), _combine((1, -1), im)]
        nonzero += [_combine((1, 1), im), _combine((1, -1), re)]
    else:
        for tag, r, i in zip(tags, re, im):
            if tag == "real":
                vanish.append(i)
                nonzero.append(r)
            elif tag == "imaginary":
                vanish.append(r)
                nonzero.append(i)
            else:
                some.append([r, i])
    some += [[_combine(a, re), _combine(a, im)] for a in blk.reality.avoid]
    return vanish, nonzero, some


@dataclass(frozen=True)
class _Plan:
    """Every (move, row) decision of classification on one real basis.

    The tests of all rows, as primitive integer rows on the moved coordinates,
    become under the real moves the distinct rows ``functionals`` on the
    input's coordinates: test k after move s is ``functionals[via[s][k]]``,
    and ``moved[s]`` indexes the rows of M_s − I.  An entry ``(block, row,
    vanish, nonzero, some)`` of ``rows`` holds masks over the tests (bit k
    for test k): move s takes the coordinates to the row at admissible
    parameters exactly when every test in ``vanish`` vanishes after the move,
    none in ``nonzero`` does and some test of each mask in ``some`` does not.
    """

    functionals: tuple[tuple[int, ...], ...]
    via: tuple[tuple[int, ...], ...]
    moved: tuple[tuple[int, ...], ...]
    rows: tuple[tuple, ...]


@lru_cache(maxsize=None)
def _plan(m: int) -> _Plan:
    """The classification plan of basis ``m``, in integer arithmetic.

    The distinct tests of all rows on the basis are composed with each real
    move, scaled to an integer matrix.  Raises ``ArithmeticError`` for a move
    that is not rational or an eliminator entry that is not Gaussian.
    """
    tests: dict[tuple[int, ...], int] = {}
    functionals: dict[tuple[int, ...], int] = {}

    def mask(vecs) -> int:
        # a set of distinct bits, so their sum is their union
        return sum({1 << tests.setdefault(_primitive(v), len(tests)) for v in vecs})

    def index(vec) -> int:
        return functionals.setdefault(_primitive(vec), len(functionals))

    rows = []
    for blk in _blocks_by_basis(m):
        for row in blk.rows:
            vanish, nonzero, some = _row_conditions(blk, row)
            rows.append(
                (blk, row, mask(vanish), mask(nonzero), tuple(mask(g) for g in some))
            )
    via, moved = [], []
    for move in _coordinate_moves(m):
        nums, scale = _numerator_rows(move)
        if any(any(x[1:]) for r in nums for x in r):
            raise ArithmeticError("real coordinate move is not rational")
        mat = [[x[0] for x in r] for r in nums]
        via.append(tuple(
            index([sum(f[a] * mat[a][b] for a in range(4)) for b in range(4)])
            for f in tests
        ))
        moved.append(tuple({
            index([mat[a][b] - scale * (a == b) for b in range(4)]) for a in range(4)
        }))
    return _Plan(tuple(functionals), tuple(via), tuple(moved), tuple(rows))


def _matches(m: int, coords: tuple) -> list[tuple]:
    """Each ``(s, moved, block, row, lams)`` on basis ``m``: move s takes the
    coordinates to ``row`` at admissible parameters ``lams``; ``moved`` is 1
    when the move changes the coordinates.  Raises ``ArithmeticError`` for
    coordinates that are not real."""
    if not all(c.is_real() for c in coords):
        raise ArithmeticError("basis coordinates are not real")
    plan = _plan(m)
    zero = vanishing_functionals(plan.functionals, coords)
    moves = _coordinate_moves(m)
    out = []
    for s, tests in enumerate(plan.via):
        z = sum(1 << k for k, f in enumerate(tests) if zero[f])
        moved = 0 if all(zero[f] for f in plan.moved[s]) else 1
        vec = None
        for blk, row, vanish, nonzero, some in plan.rows:
            if vanish & ~z or nonzero & z or any(not g & ~z for g in some):
                continue
            if vec is None:
                vec = la.mat_vec(moves[s], coords)
            lams = row.solve(vec)
            if lams is None:
                raise ArithmeticError("plan admitted an inconsistent row")
            out.append((s, moved, blk, row, lams))
    return out


def classify_semisimple(t: Tensor) -> SSOrbitLabel:
    """Identify the table row of a real semisimple tensor in canonical position.

    Labels are assigned by row-shape matching.  On each real Cartan basis
    containing the input, every real coordinate move is tried against every
    row of every block on that basis; a pair matches when the row takes the
    moved coordinates at admissible parameters.  Each of those decisions is
    the zero test of a linear functional on the input's coordinates, so the
    basis's plan evaluates its distinct integer functionals once, in integer
    arithmetic, and reads every decision off the resulting zero pattern;
    parameters are solved only for the matching pairs.

    The result carries the least admissible parameter value over all matches
    (ordered by magnitude, then sign, coordinatewise); among matches at that
    parameter, rows matching the input's own coordinate vector win over
    matches reached through a real coordinate symmetry, then the least
    (j, k, basis) is taken.  As a consequence every stored table row
    instantiation is mapped back to its printed label, including rows of the
    same block whose instantiations are related by a real symmetry (such
    pairs exist; see ``row k`` lists of the twisted blocks of families 2, 4,
    5 and 6).  Input in the span of a real Cartan basis is semisimple because
    that basis is a commuting semisimple family, checked once per basis; only
    input outside every basis gets its own semisimplicity test.  Raises
    ``ValueError`` for non-real input, zero, or input with a nilpotent part,
    and :class:`GeneralPositionError` when no table row matches (the input is
    not in canonical position, or its parameters are degenerate).
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
    candidates = [
        (_lambda_key(lams), moved, blk.j, row.k, m, blk.i, lams)
        for m, coords in bases
        for _, moved, blk, row, lams in _matches(m, coords)
    ]
    if not candidates:
        cdim = liealg.centralizer_dim(t)
        ddim = liealg.derived_dim_of_centralizer(t)
        families = sorted(
            i for i, dims in _FAMILY_DIMS.items() if dims == (cdim, ddim)
        )
        raise GeneralPositionError(
            {
                "centralizer_dim": cdim,
                "derived_centralizer_dim": ddim,
                "families": families,
                "invariants": invariants.invariants_of(t),
            }
        )
    best = min(candidates, key=lambda c: c[:6])
    _, _, j, k, m, i, lams = best
    return SSOrbitLabel(i=i, j=j, k=k, m=m, lams=tuple(lams))


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
