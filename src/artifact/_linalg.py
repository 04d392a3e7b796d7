"""Exact linear algebra and polynomial arithmetic over the cyclotomic field.

Matrices are lists of lists of CycNum, vectors are lists of CycNum, and
polynomials are lists of CycNum coefficients indexed by degree.  Everything
here is plain Gaussian elimination / Euclid over an exact field; no pivoting
heuristics beyond "first nonzero" are needed.
"""

from __future__ import annotations

from itertools import zip_longest

from .exactfield import ONE, ZERO, CycNum, common_numerators, mul_acc

Vec = list[CycNum]
Mat = list[list[CycNum]]
Poly = list[CycNum]


# -- matrices -----------------------------------------------------------------

def zeros(n: int, m: int) -> Mat:
    return [[ZERO] * m for _ in range(n)]


def mat_vec(a: Mat, v: Vec) -> Vec:
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def transpose(a: Mat) -> Mat:
    return [list(row) for row in zip(*a)]


# -- elimination --------------------------------------------------------------

def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the right kernel of a."""
    if not a:
        return []
    cols = len(a[0])
    r, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def solve(a: Mat, b: Vec) -> Vec | None:
    """One solution x of a x = b, or None if inconsistent."""
    aug = [row + [bi] for row, bi in zip(a, b)]
    cols = len(a[0])
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def det_numerators(rows: list) -> list[int] | tuple[int, ...] | None:
    """The determinant of a matrix of integer 8-tuples (None for zero) by
    Laplace expansion along the first row, without division: the numerator
    of the determinant over the n-th power of the entries' common
    denominator.  Zero entries of the row are skipped, so the sparse
    flattenings of diagonalizable tensors expand into few minors.  Meant for
    the small matrices of the invariants (4×4): the cost grows as n!."""
    if len(rows) == 1:
        return rows[0][0]
    acc = [0] * 8
    for j, x in enumerate(rows[0]):
        if x is None:
            continue
        minor = det_numerators([row[:j] + row[j + 1:] for row in rows[1:]])
        if minor is not None:
            mul_acc(acc, tuple(-v for v in x) if j % 2 else x, minor)
    return acc if any(acc) else None


# -- polynomials ---------------------------------------------------------------

def poly_trim(p: Poly) -> Poly:
    while p and not p[-1]:
        p.pop()
    return p


def poly_deg(p: Poly) -> int:
    return len(p) - 1


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("division by zero")
    rem = list(p)
    quo = [ZERO] * max(0, len(p) - len(q) + 1)
    inv = q[-1].inverse()
    while len(rem) >= len(q) and poly_trim(rem):
        if len(rem) < len(q):
            break
        f = rem[-1] * inv
        shift = len(rem) - len(q)
        quo[shift] = f
        for i, c in enumerate(q):
            rem[shift + i] = rem[shift + i] - f * c
        rem.pop()
    return poly_trim(quo), poly_trim(rem)


def poly_monic(p: Poly) -> Poly:
    if not p:
        return []
    inv = p[-1].inverse()
    return [inv * c for c in p]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    a, b = list(p), list(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_deriv(p: Poly) -> Poly:
    return poly_trim([p[i].scale(i) for i in range(1, len(p))])


def minimal_polynomial(a: Mat) -> Poly:
    """Monic minimal polynomial of a square matrix, by Krylov elimination.

    The entries are brought to one denominator D once
    (:func:`exactfield.common_numerators`), and the search runs on the
    integer numerators B = D·a.  The k-th Krylov row is the flattened power
    B^k, kept beside its polynomial x^k, and is reduced against each earlier
    row w in turn by fraction-free (Bareiss) elimination: at w's pivot p,
    v ← (w[p]·v − v[p]·w)/p', with p' the pivot of the row before w.  The
    division is exact, and every entry stays a minor of the Krylov rows, so
    entry sizes grow polynomially in k; dividing by an integer gcd alone
    would let them compound at every step off the rationals.  The first row
    that reduces to zero gives q(B) = 0 with q of least degree; the result
    is q(D·x) made monic, which takes one field inverse.
    """
    n = len(a)
    nums, den = common_numerators(x for row in a for x in row)
    cols = [[(k, nums[k * n + c]) for k in range(n) if nums[k * n + c]] for c in range(n)]
    unit = (1, 0, 0, 0, 0, 0, 0, 0)
    power = [unit if r == c else None for r in range(n) for c in range(n)]
    rows: list[tuple[int, list, list, CycNum]] = []  # pivot, row, polynomial, 1/pivot
    while True:
        v, q, last = power, [None] * len(rows) + [unit], ONE
        for p, w, qw, inv in rows:
            v, q = _cross(w[p], v, v[p], w, last), _cross(w[p], q, v[p], qw, last)
            last = inv
        pivot = next((k for k, e in enumerate(v) if e), None)
        if pivot is None:
            break
        rows.append((pivot, v, q, CycNum.from_numerators(v[pivot], 1).inverse()))
        power = [_dot(power[r * n:(r + 1) * n], col) for r in range(n) for col in cols]
    inv = CycNum.from_numerators(q[-1], 1).inverse()
    d = len(q) - 1
    return [
        CycNum.from_numerators(e, den ** (d - i)) * inv if e else ZERO for i, e in enumerate(q)
    ]


def _cross(c: tuple[int, ...], v: list, b: tuple[int, ...] | None, w: list, inv: CycNum) -> list:
    """(c·v − b·w)·inv entrywise on integer 8-tuples (None for zero), the
    shorter list padded with zeros; ``ArithmeticError`` unless 1/inv
    divides every entry exactly."""
    nb = b and tuple(-x for x in b)
    out = []
    for x, y in zip_longest(v, w):
        if not (x or y and nb):
            out.append(None)
            continue
        acc = [0] * 8
        if x:
            mul_acc(acc, c, x)
        if y and nb:
            mul_acc(acc, nb, y)
        if any(acc) and inv != ONE:
            acc, scaled = [0] * 8, acc
            mul_acc(acc, scaled, inv.nums)
            if any(e % inv.den for e in acc):
                raise ArithmeticError("inexact division in the Krylov elimination")
            acc = [e // inv.den for e in acc]
        out.append(tuple(acc) if any(acc) else None)
    return out


def _dot(row: list, col: list) -> tuple[int, ...] | None:
    """sum_k row[k]·y over the (k, y) of ``col``, on integer 8-tuples."""
    acc = [0] * 8
    for k, y in col:
        if row[k]:
            mul_acc(acc, row[k], y)
    return tuple(acc) if any(acc) else None
