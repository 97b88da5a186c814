"""Exact truncated power series in t whose coefficients are integer polynomials
in a marker variable u.

A ``UPoly`` is an element of Z[u] with arbitrary-precision coefficients; a
``Series`` of order N represents an element of Z[u][[t]] modulo t^(N+1).  All
arithmetic is exact: there is no floating point anywhere, and division is only
defined when the constant term of the divisor is the constant polynomial +1 or
-1 (every denominator used by the generating-function builders has this form,
so a failure here always indicates a transcription bug rather than a numerical
problem).
"""

from __future__ import annotations

import re
from itertools import compress
from operator import add, neg, sub
from typing import Iterable

from .kings import check_order


class NotDivisibleError(ValueError):
    """Raised by an exact division that leaves a remainder: the t^power
    coefficient ``coefficient`` is not a multiple of ``divisor``."""

    def __init__(self, power: int, coefficient: "UPoly", divisor: str):
        self.power, self.coefficient, self.divisor = power, coefficient, divisor
        super().__init__(f"t^{power} coefficient {coefficient} is not divisible by {divisor}")


class NonUnitConstantTermError(ValueError):
    """Raised when dividing by a series whose t^0 coefficient is not +-1.

    Carries the offending constant coefficient so reports can show it.
    """

    def __init__(self, coefficient: "UPoly"):
        self.coefficient = coefficient
        super().__init__(
            f"series division needs a constant term of +1 or -1, got {coefficient}"
        )


class UPoly:
    """Dense polynomial in u over Python ints, kept in canonical form
    (no trailing zero coefficients; the zero polynomial stores nothing)."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @staticmethod
    def one() -> "UPoly":
        return _UP_ONE

    @staticmethod
    def monomial(power: int, coefficient: int = 1) -> "UPoly":
        """coefficient * u**power"""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return UPoly((0,) * power + (coefficient,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, k: int) -> int:
        return self._c[k] if 0 <= k < len(self._c) else 0

    def evaluate(self, value: int) -> int:
        acc = 0
        for c in reversed(self._c):
            acc = acc * value + c
        return acc

    def shift(self, power: int) -> "UPoly":
        """Multiply by u**power.  A negative power performs exact division by
        u**(-power) and requires the low coefficients to vanish."""
        if self.is_zero or power == 0:
            return self
        if power > 0:
            return UPoly((0,) * power + self._c)
        k = -power
        if any(self._c[:k]):
            raise ValueError(f"{self} is not divisible by u^{k}")
        return UPoly(self._c[k:])

    def __add__(self, other):
        other = _as_upoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._c, other._c
        return UPoly((*map(add, a, b), *a[len(b):], *b[len(a):]))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_upoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._c, other._c
        return UPoly((*map(sub, a, b), *a[len(b):], *map(neg, b[len(a):])))

    def __rsub__(self, other):
        other = _as_upoly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return UPoly(map(neg, self._c))

    def __mul__(self, other):
        other = _as_upoly(other)
        if other is NotImplemented:
            return NotImplemented
        row: list[int] = []
        _add_product(row, _nonzero(self), _nonzero(other))
        return UPoly(row)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self._c == (() if other == 0 else (other,))
        if isinstance(other, UPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self):
        # a constant equals its int, so it hashes as that int (zero as 0)
        return hash(self._c if len(self._c) > 1 else sum(self._c))

    def __repr__(self):
        return f"UPoly({self._c!r})"

    def __str__(self):
        return format_upoly(self)


def _as_upoly(value) -> "UPoly":
    """value as a UPoly, or NotImplemented unless it is an int or a UPoly."""
    if isinstance(value, UPoly):
        return value
    if isinstance(value, int):
        return UPoly((value,))
    return NotImplemented


def _nonzero(p: UPoly) -> list[tuple[int, int]]:
    """The nonzero (power, coefficient) pairs of p, ascending in power; the
    scan runs at C speed, so a long slot with one term costs little."""
    return list(compress(enumerate(p._c), p._c))


def _term_count(coeffs: tuple[UPoly, ...]) -> int:
    """The number of nonzero coefficients in all the given UPolys."""
    return sum(len(p._c) - p._c.count(0) for p in coeffs)


def _add_product(row: list[int], xs, ys, sign: int = 1) -> None:
    """Add sign * x * y into the coefficient row, for x and y given by their
    nonzero (power, coefficient) pairs; the row first grows to the top power.

    This is the one product kernel of the ring.  A sparse loop costs
    len(xs) * len(ys), so monomial and constant operands need no shortcut.
    The operand with fewer terms is the outer loop, so each inner loop runs
    over the longer one and sign is applied once per outer term."""
    if not xs or not ys:
        return
    if len(xs) > len(ys):
        xs, ys = ys, xs
    top = xs[-1][0] + ys[-1][0] + 1
    if len(row) < top:
        row.extend([0] * (top - len(row)))
    for i, x in xs:
        x *= sign
        for j, y in ys:
            row[i + j] += x * y


_UP_ZERO = UPoly()
_UP_ONE = UPoly((1,))


def format_upoly(p: UPoly) -> str:
    """Render ascending in u, omitting zero terms: ``500+136u+10u^2``.

    The zero polynomial renders as ``0``; unit coefficients drop the ``1``
    (``u^3``, ``-u``)."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "u" if k == 1 else f"u^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


# a term: a sign, then a magnitude, a u^k or both; spaces may stand between them
_TERM = re.compile(r" *([+-]?) *(\d*) *(?:(u) *(?:\^ *(\d*))?)? *")


def parse_upoly(text: str) -> UPoly:
    """Inverse of :func:`format_upoly`; also accepts spaces between tokens, a
    leading '+' and repeated powers, which add up.  Terms need a sign between."""
    if not text.strip(" "):
        raise ValueError("empty polynomial string")
    coeffs: dict[int, int] = {}
    at = 0
    while at < len(text):
        term = _TERM.match(text, at)
        sign, mag, u, power = term.groups()
        if at and not sign:
            raise ValueError(f"expected '+' or '-' at position {term.start(1)} in {text!r}")
        if not (mag or u):
            raise ValueError(f"expected term at position {term.start(2)} in {text!r}")
        if power == "":  # a "^" with no digits after it
            raise ValueError(f"missing exponent at position {term.start(4)} in {text!r}")
        k = int(power) if power else 1 if u else 0
        coeffs[k] = coeffs.get(k, 0) + (-1 if sign == "-" else 1) * int(mag or 1)
        at = term.end()
    return UPoly(coeffs.get(d, 0) for d in range(max(coeffs) + 1))


class Series:
    """Power series in t truncated at a fixed inclusive order, with UPoly
    coefficients.  Instances are immutable; arithmetic requires equal orders."""

    __slots__ = ("_order", "_c")

    def __init__(self, order: int, coeffs: Iterable = ()):
        check_order(order)
        c = [_as_upoly(x) for x in coeffs]
        if any(x is NotImplemented for x in c):
            raise TypeError("series coefficients must be ints or UPolys")
        if len(c) > order + 1:
            raise ValueError("more coefficients than the order allows")
        c.extend([_UP_ZERO] * (order + 1 - len(c)))
        self._order = order
        self._c = tuple(c)

    @classmethod
    def _wrap(cls, order: int, coeffs: Iterable[UPoly]) -> "Series":
        """order + 1 canonical UPolys the ring built itself, taken unchecked."""
        s = object.__new__(cls)
        s._order, s._c = order, tuple(coeffs)
        return s

    # -- constructors -------------------------------------------------------

    @staticmethod
    def one(order: int) -> "Series":
        return Series(order, (1,))

    @staticmethod
    def t(order: int) -> "Series":
        return Series.term(order, tpow=1)

    @staticmethod
    def term(order: int, coefficient: int = 1, tpow: int = 0, upow: int = 0) -> "Series":
        """coefficient * u**upow * t**tpow (zero if tpow exceeds the order)."""
        if tpow < 0:
            raise ValueError("tpow must be nonnegative")
        if tpow > order:
            return Series(order)
        c = [_UP_ZERO] * (tpow + 1)
        c[tpow] = UPoly.monomial(upow, coefficient)
        return Series(order, c)

    # -- basic access -------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[UPoly, ...]:
        return self._c

    def coeff(self, n: int) -> UPoly:
        if not 0 <= n <= self._order:
            raise IndexError(f"coefficient t^{n} outside truncation order {self._order}")
        return self._c[n]

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self._c)

    # -- ring operations ----------------------------------------------------

    def _check_order(self, other: "Series") -> None:
        if self._order != other._order:
            raise ValueError(
                f"truncation orders differ: {self._order} != {other._order}"
            )

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_order(other)
        return Series._wrap(self._order, map(add, self._c, other._c))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_order(other)
        return Series._wrap(self._order, map(sub, self._c, other._c))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Series._wrap(self._order, map(neg, self._c))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_order(other)
        n = self._order
        # only the operand with fewer terms is held as pairs; the other is read
        # slot by slot, so the pairs of a long series never exist all at once
        short, long = sorted((self._c, other._c), key=_term_count)
        xs = [(i, _nonzero(a)) for i, a in enumerate(short) if a._c]
        # one integer row per t-slot; a UPoly is made per slot, not per term
        rows: list[list[int]] = [[] for _ in range(n + 1)]
        for j, b in enumerate(long):
            if b._c:
                y = _nonzero(b)
                for i, x in xs:
                    if i + j > n:
                        break
                    _add_product(rows[i + j], x, y)
        return Series._wrap(n, map(UPoly, rows))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The unique q with divisor*q == self up to the truncation order.

        Requires the t^0 coefficient of the divisor to be the constant +1 or
        -1 (forward substitution stays in Z[u]).

        >>> print(Series.one(4) / (Series.one(4) + Series.t(4)))
        1 + -1*t + t^2 + -1*t^3 + t^4
        """
        divisor = self._coerce(other)
        if divisor is NotImplemented:
            return NotImplemented
        self._check_order(divisor)
        b0 = divisor._c[0]
        if b0.degree > 0 or b0.coeff(0) not in (1, -1):
            raise NonUnitConstantTermError(b0)
        inv = b0.coeff(0)
        bs = [(m, _nonzero(b)) for m, b in enumerate(divisor._c) if m and b._c]
        out: list[UPoly] = []
        qs: list[list[tuple[int, int]]] = []
        for k, a in enumerate(self._c):
            # q_k = (a_k - sum of b_m * q_(k-m) over m >= 1) / b_0
            row = list(a._c)
            for m, b in bs:
                if m > k:
                    break
                _add_product(row, b, qs[k - m], -1)
            q = UPoly(inv * c for c in row)
            out.append(q)
            qs.append(_nonzero(q))
        return Series._wrap(self._order, out)

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, UPoly)):
            return Series(self._order, (_as_upoly(other),))
        return NotImplemented

    # -- substitutions and shifts -------------------------------------------

    def subst_ut(self, power: int) -> "Series":
        """Substitute t -> u**power * t (the t^n coefficient gains u**(power*n))."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        if power == 0:
            return self
        return Series._wrap(
            self._order, (c.shift(power * n) for n, c in enumerate(self._c))
        )

    def eval_u(self, value: int) -> "Series":
        """Evaluate every coefficient at u = value (result has constant coefficients)."""
        return Series(self._order, (c.evaluate(value) for c in self._c))

    def mul_t(self, power: int) -> "Series":
        """Multiply by t**power at the same order (top coefficients fall off)."""
        if power < 0:
            raise ValueError("power must be nonnegative; use div_t for division")
        if power == 0:
            return self
        power = min(power, self._order + 1)
        return Series._wrap(self._order, (_UP_ZERO,) * power + self._c[: self._order + 1 - power])

    def div_t(self, power: int) -> "Series":
        """Exact division by t**power; the result order drops by power."""
        if power < 0:
            raise ValueError("power must be nonnegative; use mul_t for multiplication")
        if power == 0:
            return self
        if power > self._order:
            raise ValueError("cannot divide past the truncation order")
        for n, c in enumerate(self._c[:power]):
            if not c.is_zero:
                raise NotDivisibleError(n, c, f"t^{power}")
        return Series._wrap(self._order - power, self._c[power:])

    def div_u(self) -> "Series":
        """Exact division of every coefficient by u."""
        for n, c in enumerate(self._c):
            if c.coeff(0):
                raise NotDivisibleError(n, c, "u")
        return Series._wrap(self._order, (c.shift(-1) for c in self._c))

    def halved(self) -> "Series":
        """Exact division of every coefficient by 2."""
        for n, c in enumerate(self._c):
            if any(k & 1 for k in c._c):
                raise NotDivisibleError(n, c, "2")
        return Series._wrap(self._order, (UPoly(k >> 1 for k in c._c) for c in self._c))

    def truncated(self, order: int) -> "Series":
        """Forget coefficients above the given (smaller or equal) order."""
        check_order(order)
        if order > self._order:
            raise ValueError("cannot extend a truncated series")
        return Series._wrap(order, self._c[: order + 1])

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._order == other._order and self._c == other._c

    def __hash__(self):
        return hash((self._order, self._c))

    def __repr__(self):
        return f"Series(order={self._order}, {str(self)!r})"

    def __str__(self):
        parts = []
        for n, c in enumerate(self._c):
            if c.is_zero:
                continue
            body = format_upoly(c)
            if "+" in body[1:] or "-" in body[1:]:
                body = f"({body})"
            if n == 0:
                parts.append(body)
            else:
                tpart = "t" if n == 1 else f"t^{n}"
                parts.append(tpart if body == "1" else f"{body}*{tpart}")
        return " + ".join(parts) if parts else "0"
