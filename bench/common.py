"""Checks the benchmark makes apart from the program under test.

Everything here uses the standard library only; the package is not imported.
A field element of Q(eta), eta = exp(i*pi/8), is handled in its raw form
``(nums, den)``: eight integer coefficients of 1, eta, ..., eta^7 over a
positive common denominator, as the package stores it.  A tensor is a list
of 16 such numbers (or ``None`` for zero), index ``8a + 4b + 2c + d`` for
the entry ``abcd``.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

ETA = cmath.exp(1j * math.pi / 8)

# ---------------------------------------------------------------------------
# raw numbers
# ---------------------------------------------------------------------------


def raw_to_complex(raw) -> complex:
    if raw is None:
        return 0j
    nums, den = raw
    return sum(n * ETA**k for k, n in enumerate(nums) if n) / den


def raw_neg(raw):
    if raw is None:
        return None
    nums, den = raw
    return (tuple(-n for n in nums), den)


def raw_from_json(entry):
    """``0`` for zero, else ``[n0, ..., n7, den]``."""
    if entry == 0:
        return None
    return (tuple(entry[:8]), entry[8])


def raw_to_json(raw):
    if raw is None:
        return 0
    nums, den = raw
    return list(nums) + [den]


# ---------------------------------------------------------------------------
# floating-point invariants (degrees 2, 4 and 6)
# ---------------------------------------------------------------------------

#: Slot pairings (rows | columns) of the three 4x4 flattenings.
PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))

_EPS = ((0, 1), (-1, 0))
# E = eps (x) eps on the pair index 2a + b
_E = [[_EPS[r >> 1][c >> 1] * _EPS[r & 1][c & 1] for c in range(4)] for r in range(4)]


def _bit(index: int, slot: int) -> int:
    return (index >> (3 - slot)) & 1


def _matmul(a, b):
    return [[sum(a[r][k] * b[k][c] for k in range(4)) for c in range(4)] for r in range(4)]


def float_invariants(values) -> tuple[complex, ...]:
    """tr B, tr B^2, tr B^3 with B = M E M^T E, for each flattening M.

    Under (A, B, C, D) in SL(2)^4 a flattening moves as
    M -> (A (x) B) M (C (x) D)^T and E = eps (x) eps satisfies X^T E X = E,
    so B is conjugated and its traces are invariants of degree 2, 4, 6.
    ``values`` are the 16 complex entries.
    """
    out = []
    for s1, s2, s3, s4 in PAIRINGS:
        m = [[0j] * 4 for _ in range(4)]
        for x in range(16):
            r = 2 * _bit(x, s1) + _bit(x, s2)
            c = 2 * _bit(x, s3) + _bit(x, s4)
            m[r][c] = values[x]
        mt = [[m[c][r] for c in range(4)] for r in range(4)]
        b = _matmul(_matmul(_matmul(m, _E), mt), _E)
        b2 = _matmul(b, b)
        b3 = _matmul(b2, b)
        out.extend(sum(p[d][d] for d in range(4)) for p in (b, b2, b3))
    return tuple(out)


def tensor_invariants(raw_tensor) -> tuple[complex, ...]:
    return float_invariants([raw_to_complex(c) for c in raw_tensor])


def invariants_close(a, b, rel: float = 1e-9) -> bool:
    for x, y in zip(a, b):
        scale = max(1.0, abs(x), abs(y))
        if abs(x - y) > rel * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# relations by real elements of {+-I, +-J}^4
# ---------------------------------------------------------------------------
#
# With J = [[0, 1], [-1, 0]] in slot s, (J.t)[x] = (-1)^(x_s) t[x ^ bit_s].  An
# element with J in the slots of ``mask`` (I elsewhere) and overall sign
# ``sign`` therefore maps t to
#     t'[x] = sign * (-1)^popcount(x & mask) * t[x ^ mask],
# a signed index permutation.  The 32 maps cover all 256 such elements.

_MOVES = tuple((mask, sign) for mask in range(16) for sign in (1, -1))


def apply_move(raw_tensor, mask: int, sign: int):
    out = []
    for x in range(16):
        c = raw_tensor[x ^ mask]
        if (sign * (-1) ** bin(x & mask).count("1")) < 0:
            c = raw_neg(c)
        out.append(c)
    return tuple(out)


def _sort_key(raw_tensor):
    return tuple(((), 0) if c is None else c for c in raw_tensor)


def canonical_form(raw_tensor):
    """The least image of the tensor under the 32 signed index permutations."""
    return min(
        (apply_move(raw_tensor, mask, sign) for mask, sign in _MOVES), key=_sort_key
    )


def find_relation(t1, t2):
    """``(mask, sign)`` with apply_move(t1, mask, sign) == t2, or None."""
    t2 = tuple(t2)
    for mask, sign in _MOVES:
        if apply_move(t1, mask, sign) == t2:
            return mask, sign
    return None


def move_names(mask: int, sign: int) -> str:
    """The move as a comma-separated factor list, e.g. "-J,I,J,I"."""
    names = ["J" if mask & (8 >> s) else "I" for s in range(4)]
    if sign < 0:
        names[0] = "-" + names[0]
    return ",".join(names)


def relation_groups(raw_tensors):
    """Indices grouped by canonical form; only groups of two or more."""
    by_form: dict = {}
    for idx, t in enumerate(raw_tensors):
        by_form.setdefault(canonical_form(t), []).append(idx)
    return [g for g in by_form.values() if len(g) > 1]


# ---------------------------------------------------------------------------
# admissible parameter draws
# ---------------------------------------------------------------------------
#
# A parameter is a complex rational (re, im) of Fractions.  Tags: "real" and
# "imaginary" ask for a nonzero real or imaginary value; a "coupled" pair
# (l1, l2) asks that i*(l1 + l2) and l1 - l2 be real and nonzero, which the
# shape (u + v i, -u + v i) with u, v nonzero rationals meets.  ``avoid``
# rows are integer vectors whose dot product with the parameters must not
# vanish.

_DENS = (1, 1, 1, 2, 3, 4)


def draw_rational(rng: random.Random) -> Fraction:
    """A nonzero rational of either sign, an integer or of small denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.choice(_DENS))


def admissible(params, tags, avoid) -> bool:
    if "coupled" in tags:
        (a_re, a_im), (b_re, b_im) = params
        # i*(l1 + l2) real <=> re(l1 + l2) == 0; l1 - l2 real <=> im equal
        if a_re + b_re != 0 or a_im + b_im == 0:
            return False
        if a_im != b_im or a_re - b_re == 0:
            return False
    else:
        for (re, im), tag in zip(params, tags):
            if tag == "real" and (im != 0 or re == 0):
                return False
            if tag == "imaginary" and (re != 0 or im == 0):
                return False
    for row in avoid:
        re = sum(c * p[0] for c, p in zip(row, params))
        im = sum(c * p[1] for c, p in zip(row, params))
        if re == 0 and im == 0:
            return False
    return True


def draw_params(rng: random.Random, tags, avoid):
    """A seeded admissible parameter tuple for a block."""
    while True:
        if "coupled" in tags:
            u, v = draw_rational(rng), draw_rational(rng)
            params = ((u, v), (-u, v))
        else:
            params = tuple(
                (Fraction(0), draw_rational(rng)) if tag == "imaginary"
                else (draw_rational(rng), Fraction(0))
                for tag in tags
            )
        if admissible(params, tags, avoid):
            return params
