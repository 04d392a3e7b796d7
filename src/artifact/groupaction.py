"""The group SL(2)^4 over Q(eta) and its action.

Group elements are 4-tuples of unimodular 2x2 matrices (tuple-of-tuples of
CycNum, so they hash and compare structurally).  The first factor acts on the
first tensor slot and so on.  The module holds the products, inverses and
complex conjugates of elements, their action on tensors and on the degree-zero
part of the algebra, the small dictionary of named matrices used throughout
the orbit tables, and the qubit-permutation automorphisms.
"""

from __future__ import annotations

from typing import Sequence

from .exactfield import IMAG, ONE, ZERO, CycNum, common_numerators, mul_acc, rat
from .liealg import LieElt, Tensor, g0_to_quad_mats, quad_mats_to_g0

Mat2 = tuple[tuple[CycNum, CycNum], tuple[CycNum, CycNum]]
GElt = tuple[Mat2, Mat2, Mat2, Mat2]


# -- 2x2 matrices ---------------------------------------------------------------

def mat2(a, b, c, d) -> Mat2:
    a, b, c, d = (
        v if isinstance(v, CycNum) else rat(v) for v in (a, b, c, d)
    )
    return ((a, b), (c, d))


def m2_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def m2_det(x: Mat2) -> CycNum:
    return x[0][0] * x[1][1] - x[0][1] * x[1][0]


def m2_inv(x: Mat2) -> Mat2:
    d = m2_det(x)
    if not d:
        raise ZeroDivisionError("singular matrix")
    di = d.inverse()
    return (
        (di * x[1][1], -(di * x[0][1])),
        (-(di * x[1][0]), di * x[0][0]),
    )


def m2_neg(x: Mat2) -> Mat2:
    return ((-x[0][0], -x[0][1]), (-x[1][0], -x[1][1]))


def m2_conj(x: Mat2) -> Mat2:
    return (
        (x[0][0].conjugate(), x[0][1].conjugate()),
        (x[1][0].conjugate(), x[1][1].conjugate()),
    )


def m2_key(x: Mat2) -> tuple:
    return tuple(v.key() for row in x for v in row)


# -- named matrices ----------------------------------------------------------------

def D(u: CycNum) -> Mat2:
    if not u:
        raise ZeroDivisionError("D(0) is not invertible")
    return mat2(u, ZERO, ZERO, u.inverse())


def sharp(a: Mat2) -> Mat2:
    """The flip (a b; c d) -> (d c; b a)."""
    return mat2(a[1][1], a[1][0], a[0][1], a[0][0])


def _zeta(k: int) -> CycNum:
    return CycNum.eta_power(2 * k)


_NAMED: dict[str, Mat2] = {
    "I": mat2(ONE, ZERO, ZERO, ONE),
    "J": mat2(ZERO, ONE, -ONE, ZERO),
    "K": mat2(ZERO, IMAG, IMAG, ZERO),
    "L": mat2(IMAG, ZERO, ZERO, -IMAG),
    "M": mat2(_zeta(3), ZERO, ZERO, -_zeta(1)),
    "N": mat2(_zeta(1), ZERO, ZERO, -_zeta(3)),
    "F": mat2(rat(1, 2), IMAG.scale(rat(1, 2).to_fraction()), IMAG, ONE),
}


def named(name: str) -> Mat2:
    """A named 2×2 matrix, optionally with a leading - sign.

    The names are the fixed matrices I, J, K, L, M, N, F, the product ``LF``
    (L·F), and ``Dk`` for D(η^k) = diag(η^k, η^-k), η a primitive 16th root
    of unity, written from the two powers of η without inverting one.
    """
    if name.startswith("-"):
        return m2_neg(named(name[1:]))
    if name == "LF":
        return m2_mul(_NAMED["L"], _NAMED["F"])
    if name.startswith("D") and name[1:].isdigit():
        k = int(name[1:])
        return mat2(CycNum.eta_power(k), ZERO, ZERO, CycNum.eta_power(-k))
    try:
        return _NAMED[name]
    except KeyError:
        raise KeyError(f"no matrix named {name!r}") from None


I2 = _NAMED["I"]
IDENTITY: GElt = (I2, I2, I2, I2)


def gelt(*factors: Mat2) -> GElt:
    if len(factors) != 4:
        raise ValueError("a group element has 4 factors")
    return tuple(factors)  # type: ignore[return-value]


def gelt_from_names(spec: str) -> GElt:
    """Build an element from comma-separated :func:`named` factors.

    For example "-I,I,K,-L", "D5,D5,-D3,-D7" or "LF,I,I,-LF".
    """
    return gelt(*[named(p.strip()) for p in spec.split(",")])


def g_mul(x: GElt, y: GElt) -> GElt:
    return tuple(m2_mul(a, b) for a, b in zip(x, y))  # type: ignore[return-value]


def g_inv(x: GElt) -> GElt:
    return tuple(m2_inv(a) for a in x)  # type: ignore[return-value]


def conj_g(x: GElt) -> GElt:
    return tuple(m2_conj(a) for a in x)  # type: ignore[return-value]


def g_key(x: GElt) -> tuple:
    return tuple(m2_key(a) for a in x)


# -- actions -------------------------------------------------------------------------

def act_tensor(g: GElt, t: Tensor) -> Tensor:
    """Slot-wise action: factor k acts on tensor index position k.

    Runs on integer numerators (:func:`exactfield.common_numerators`): the
    tensor's over one denominator, each moving slot's matrix over its own,
    so the result's denominator is their product and each of its sixteen
    coefficients is reduced once at the end.
    """
    coeffs, den = common_numerators(t.c)
    for slot in range(4):
        a = g[slot]
        if a == I2:
            continue
        entries, d = common_numerators((a[0][0], a[0][1], a[1][0], a[1][1]))
        den *= d
        bit = 8 >> slot
        out: list = [None] * 16
        for ti in range(16):
            c = coeffs[ti]
            if c is None:
                continue
            col = 1 if ti & bit else 0
            for row in (0, 1):
                v = entries[2 * row + col]
                if v is not None:
                    target = (ti & ~bit) | (bit if row else 0)
                    acc = out[target]
                    if acc is None:
                        acc = out[target] = [0] * 8
                    mul_acc(acc, v, c)
        coeffs = [acc if acc is not None and any(acc) else None for acc in out]
    return Tensor([ZERO if c is None else CycNum.from_numerators(c, den) for c in coeffs])


def act_g0(g: GElt, h: LieElt) -> LieElt:
    """Adjoint action on a degree-zero element: slot-wise conjugation."""
    mats = g0_to_quad_mats(h)
    out = []
    for a, m in zip(g, mats):
        ama = m2_mul(m2_mul(a, (tuple(m[0]), tuple(m[1]))), m2_inv(a))
        out.append([list(ama[0]), list(ama[1])])
    return quad_mats_to_g0(out)


# -- qubit permutations ----------------------------------------------------------------

class PermAuto:
    """The algebra automorphism permuting tensor slots by sigma (1-indexed)."""

    def __init__(self, sigma: Sequence[int] | str | None = None):
        if sigma is None or sigma == "id" or len(tuple(sigma)) == 0:
            perm = (1, 2, 3, 4)
        else:
            s = tuple(int(v) for v in sigma)
            if len(s) == 4 and sorted(s) == [1, 2, 3, 4]:
                perm = s  # one-line form: k -> s[k-1]
            elif 2 <= len(s) <= 4 and len(set(s)) == len(s) and all(1 <= v <= 4 for v in s):
                # cycle notation
                image = {v: v for v in (1, 2, 3, 4)}
                for pos, v in enumerate(s):
                    image[v] = s[(pos + 1) % len(s)]
                perm = tuple(image[k] for k in (1, 2, 3, 4))
            else:
                raise ValueError(f"not a permutation of 1..4: {sigma!r}")
        self.perm = perm

    def __call__(self, t: Tensor) -> Tensor:
        out = [ZERO] * 16
        for ti in range(16):
            c = t.c[ti]
            if not c:
                continue
            target = 0
            for k in range(4):
                bit = (ti >> (3 - k)) & 1
                if bit:
                    target |= 8 >> (self.perm[k] - 1)
            out[target] = out[target] + c
        return Tensor(out)

    def on_gelt(self, g: GElt) -> GElt:
        out: list[Mat2] = [I2] * 4
        for k in range(4):
            out[self.perm[k] - 1] = g[k]
        return gelt(*out)

    def inverse(self) -> "PermAuto":
        inv = [0, 0, 0, 0]
        for k in range(4):
            inv[self.perm[k] - 1] = k + 1
        return PermAuto(tuple(inv))

    def __repr__(self) -> str:
        return f"PermAuto({self.perm})"
