"""Exact arithmetic in the cyclotomic field Q(eta), eta a primitive 16th root of unity.

An element is c0 + c1*eta + ... + c7*eta^7 with rational c_i, reduced modulo
the minimal polynomial x^8 + 1.  Useful landmarks inside the field:

    zeta = eta^2   (primitive 8th root of unity)
    i    = eta^4   (imaginary unit)
    sqrt2 = eta^2 - eta^6

Values are stored as 8 arbitrary-precision integer numerators over a single
positive common denominator, always reduced; the representation is canonical,
so ``==`` and ``hash`` are structural.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]

_ZERO8 = (0, 0, 0, 0, 0, 0, 0, 0)

# Galois automorphisms sigma_k : eta -> eta^k, k odd.  For each k a table of
# (target index, sign) for the image of eta^i, using eta^8 = -1.
_GALOIS_TABLES: dict[int, tuple[tuple[int, int], ...]] = {}
for _k in range(1, 16, 2):
    _tab = []
    for _i in range(8):
        _e = (_i * _k) % 16
        _tab.append((_e, 1) if _e < 8 else ((_e - 8, -1)))
    _GALOIS_TABLES[_k] = tuple(_tab)


class CycNum:
    """An element of Q(eta) in canonical reduced form."""

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Rat], den: int = 1):
        cs = list(coeffs)
        if len(cs) != 8:
            raise ValueError("CycNum needs exactly 8 coefficients")
        if den == 0:
            raise ZeroDivisionError("division by zero")
        if all(type(c) is int for c in cs):
            nums = cs
        else:
            fracs = [Fraction(c) for c in cs]
            common = 1
            for f in fracs:
                common = common * f.denominator // gcd(common, f.denominator)
            nums = [int(f * common) for f in fracs]
            den = den * common
        self.nums, self.den = _reduce(nums, den)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _raw(nums: tuple[int, ...], den: int) -> "CycNum":
        """Wrap an already-reduced representation without checks."""
        out = object.__new__(CycNum)
        out.nums, out.den = nums, den
        return out

    @staticmethod
    def from_numerators(nums: list[int], den: int) -> "CycNum":
        """The value nums / den of integer numerators over a nonzero
        denominator, reduced; the way back from the integer kernels below."""
        return CycNum._raw(*_reduce(nums, den))

    @staticmethod
    def from_rational(q: Rat) -> "CycNum":
        f = Fraction(q)
        return CycNum._raw((f.numerator, 0, 0, 0, 0, 0, 0, 0), f.denominator)

    @staticmethod
    def eta_power(k: int) -> "CycNum":
        """eta^k for any integer k."""
        k %= 16
        sign = 1
        if k >= 8:
            k -= 8
            sign = -1
        nums = [0] * 8
        nums[k] = sign
        return CycNum._raw(tuple(nums), 1)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.nums == _ZERO8

    def is_rational(self) -> bool:
        return all(n == 0 for n in self.nums[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self!r}")
        return Fraction(self.nums[0], self.den)

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "CycNum") -> "CycNum":
        if not isinstance(other, CycNum):
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return CycNum.from_numerators([x + y for x, y in zip(self.nums, other.nums)], da)
        return CycNum.from_numerators(
            [x * db + y * da for x, y in zip(self.nums, other.nums)], da * db
        )

    def __sub__(self, other: "CycNum") -> "CycNum":
        if not isinstance(other, CycNum):
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return CycNum.from_numerators([x - y for x, y in zip(self.nums, other.nums)], da)
        return CycNum.from_numerators(
            [x * db - y * da for x, y in zip(self.nums, other.nums)], da * db
        )

    def __neg__(self) -> "CycNum":
        return CycNum._raw(tuple(-n for n in self.nums), self.den)

    def __mul__(self, other: "CycNum") -> "CycNum":
        if not isinstance(other, CycNum):
            return NotImplemented
        c = [0] * 8
        mul_acc(c, self.nums, other.nums)
        return CycNum.from_numerators(c, self.den * other.den)

    def __truediv__(self, other: "CycNum") -> "CycNum":
        if not isinstance(other, CycNum):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int) -> "CycNum":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, q: Rat) -> "CycNum":
        """Multiply by a rational; cheaper than full multiplication."""
        f = Fraction(q)
        return CycNum.from_numerators(
            [n * f.numerator for n in self.nums], self.den * f.denominator
        )

    # -- field structure -----------------------------------------------------

    def galois(self, k: int) -> "CycNum":
        """Image under the automorphism eta -> eta^k (k odd)."""
        if k % 2 == 0:
            raise ValueError("Galois automorphisms of Q(eta) need odd k")
        tab = _GALOIS_TABLES[k % 16]
        nums = [0] * 8
        for i, n in enumerate(self.nums):
            if n:
                j, s = tab[i]
                nums[j] += s * n
        return CycNum._raw(tuple(nums), self.den)

    def inverse(self) -> "CycNum":
        """Multiplicative inverse, via the product of all Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        prod = ONE
        for k in range(3, 16, 2):
            prod = prod * self.galois(k)
        norm = self * prod  # the field norm: a nonzero rational
        if not norm.is_rational():
            raise ArithmeticError("field norm is not rational")
        return prod.scale(Fraction(norm.den, norm.nums[0]))

    def conjugate(self) -> "CycNum":
        """Complex conjugation: eta -> eta^(-1) = -eta^7."""
        c = self.nums
        return CycNum._raw(
            (c[0], -c[7], -c[6], -c[5], -c[4], -c[3], -c[2], -c[1]), self.den
        )

    def is_real(self) -> bool:
        c = self.nums
        return c[4] == 0 and c[1] == -c[7] and c[2] == -c[6] and c[3] == -c[5]

    def is_imaginary(self) -> bool:
        """True when the complex conjugate equals the negative (so 0 counts)."""
        c = self.nums
        return c[0] == 0 and c[1] == c[7] and c[2] == c[6] and c[3] == c[5]

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __bool__(self) -> bool:
        return self.nums != _ZERO8

    def key(self) -> tuple:
        """A sortable key giving a deterministic total order on field elements."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __repr__(self) -> str:
        return f"CycNum({cyc_to_str(self)!r})"

    def __str__(self) -> str:
        return cyc_to_str(self)


def _reduce(nums: list[int] | tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        nums = [-n for n in nums]
        den = -den
    g = den
    for n in nums:
        if n:
            g = gcd(g, n)
            if g == 1:
                return tuple(nums), den
    if g > 1:
        return tuple(n // g for n in nums), den // g
    return tuple(nums), den


# -- integer kernels -------------------------------------------------------------
#
# Hot loops that combine many field elements work on integer numerators over
# one common denominator and convert back with ``CycNum.from_numerators`` once
# per result, instead of reducing after every product and sum.

def common_numerators(
    values: Iterable[CycNum],
) -> tuple[list[tuple[int, ...] | None], int]:
    """The numerators of ``values`` over their least common denominator.

    Returns ``(nums, den)`` with ``values[k] == nums[k] / den``: each entry
    an integer 8-tuple, or None where the value is zero.
    """
    values = list(values)
    den = 1
    for v in values:
        if v.den != den:
            den = den * v.den // gcd(den, v.den)
    out: list[tuple[int, ...] | None] = []
    for v in values:
        if v.nums == _ZERO8:
            out.append(None)
        elif v.den == den:
            out.append(v.nums)
        else:
            f = den // v.den
            out.append(tuple(n * f for n in v.nums))
    return out, den


def vanishing_functionals(
    functionals: Sequence[Sequence[int]], values: Sequence[CycNum]
) -> list[bool]:
    """Whether each integer functional f vanishes at ``values``, that is
    whether sum_k f[k]·values[k] == 0, in the order of ``functionals``.

    Over their common denominator (:func:`common_numerators`) the values are
    sum_e eta^e·p_e with integer vectors p_e, so f vanishes exactly when the
    integer dot product f·p_e does for every position e.
    """
    nums, _ = common_numerators(values)
    zero = [True] * len(functionals)
    for p in zip(*(n or _ZERO8 for n in nums)):
        if any(p):
            zero = [z and not sum(map(mul, f, p)) for z, f in zip(zero, functionals)]
    return zero


def mul_acc(acc: list[int], a: tuple[int, ...], b: tuple[int, ...]) -> None:
    """Add the product a·b modulo x^8 + 1 into the integer list ``acc``."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    k = i + j
                    if k < 8:
                        acc[k] += x * y
                    else:
                        acc[k - 8] -= x * y


# -- distinguished constants --------------------------------------------------

ZERO = CycNum._raw(_ZERO8, 1)
ONE = CycNum.from_rational(1)
MINUS_ONE = CycNum.from_rational(-1)
ETA = CycNum.eta_power(1)
IMAG = CycNum.eta_power(4)
INV_SQRT2 = CycNum((0, 0, 1, 0, 0, 0, -1, 0), 2)


def rat(p: Rat, q: int = 1) -> CycNum:
    """Shorthand for the rational number p/q as a field element."""
    return CycNum.from_rational(Fraction(p, q))


# -- text form -----------------------------------------------------------------
#
# Rational values render as "p/q" (plain "p" when q = 1); general values as
# "c0,c1,...,c7", eight comma-separated rationals.  Parsing accepts both.

def cyc_to_str(a: CycNum) -> str:
    if a.is_rational():
        return str(Fraction(a.nums[0], a.den))
    return ",".join(str(Fraction(n, a.den)) for n in a.nums)


def parse_cyc(text: str) -> CycNum:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return CycNum.from_rational(Fraction(parts[0]))
    if len(parts) != 8:
        raise ValueError(f"expected 1 or 8 comma-separated rationals: {text!r}")
    return CycNum([Fraction(p) for p in parts])


def random_cyc(rng, max_num: int = 9, max_den: int = 9) -> CycNum:
    """A random field element with small integer data (for tests and demos)."""
    nums = [rng.randint(-max_num, max_num) for _ in range(8)]
    den = rng.randint(1, max_den)
    return CycNum(nums, den)
