"""Exact base fields: the rationals and prime fields F_p.

Field elements are plain Python values: over Q an int when integral and
a fractions.Fraction otherwise (int arithmetic is several times faster,
and most rationals met here are integers), over F_p an int in [0, p). A
Field instance supplies the arithmetic. Keeping elements primitive makes
equality, hashing and serialization free; an int and the Fraction of the
same value compare, hash and print alike.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Callable, Union

from .errors import BudgetExceeded, ConstraintViolated, ParseError

Scalar = Union[Fraction, int]

#: moduli are confined to machine-word-friendly range
MAX_MODULUS = 1 << 61

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _rational(x: Scalar) -> Scalar:
    """A rational as an int when it is integral."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Value:
    """Base of the package's immutable value classes. A subclass lists its
    fields in __slots__ and writes them in its own __init__ through the
    slot descriptors (`_set_x, ... = slot_setters(Cls)`), as assigning or
    deleting an attribute raises AttributeError, in every subclass.
    Equality (within one class), the hash and the repr `Name(f=v, ...)`
    read the compared fields, every slot unless the class names fewer by
    `compared=`, through one operator.attrgetter; a field that cannot be
    hashed, such as the CLI's echo dict, makes the hash raise TypeError.
    Pickle and copy rebuild an instance from the compared fields. Such a
    class runs no generated code at import, and builds an instance in
    about half the time a frozen dataclass takes (Python 3.11)."""

    __slots__ = ()

    def __init_subclass__(cls, compared: tuple[str, ...] | None = None) -> None:
        cls._compared = cls.__match_args__ = cls.__slots__ if compared is None else compared
        cls._key = attrgetter(*cls._compared)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy cannot write the slots, so they call __init__ on
        # the compared fields, which every class takes in their order
        return self.__class__, tuple(getattr(self, name) for name in self._compared)


def slot_setters(cls: type) -> list:
    """The descriptor __set__ of each of cls's __slots__, in their order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class Field(Value, compared=("p",)):
    """The rationals (p is None) or the prime field F_p.

    `reduce` maps a raw sum or product of field elements and ints to its
    field element, as `make` does for such input, without a Python frame
    of its own over F_p: it is p.__rmod__ there, so it accepts ints only
    (a Fraction gives NotImplemented), and _rational over Q, which takes
    ints and Fractions. The hot loops sum raw and reduce once per stored
    value; `make` is the checked entry point for any other input, such as
    a Fraction over F_p. Equality, the hash, the repr and pickling read p
    alone."""

    __slots__ = ("p", "reduce")

    p: int | None
    reduce: Callable[[Scalar], Scalar]

    def __init__(self, p: int | None = None) -> None:
        if p is not None:
            if not (2 <= p < MAX_MODULUS):
                raise ConstraintViolated(f"prime modulus must satisfy 2 <= p < 2^61, got {p}")
            if not is_prime(p):
                raise ConstraintViolated(f"{p} is not prime")
        _set_p(self, p)
        _set_reduce(self, _rational if p is None else p.__rmod__)

    # -- basic queries ------------------------------------------------

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F:{self.p}"

    # -- element construction -----------------------------------------

    def make(self, x: int | Fraction) -> Scalar:
        """Normalize a Python int or Fraction into this field."""
        if self.p is None:
            return _rational(x)
        if x.__class__ is int:  # before the slower ABC check of isinstance
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ConstraintViolated(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x % self.p

    @property
    def zero(self) -> Scalar:
        return 0

    @property
    def one(self) -> Scalar:
        return 1

    # -- arithmetic ----------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return _rational(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return _rational(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return _rational(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def pow(self, a: Scalar, n: int) -> Scalar:
        """a^n for an integer n >= 0, by square-and-multiply."""
        return _rational(a**n) if self.p is None else pow(a, n, self.p)

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return _rational(Fraction(1, a) if a.__class__ is int else 1 / a)
        return pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        if self.p is None and a.__class__ is int and b.__class__ is int and not a % b:
            return a // b  # an integral quotient over Q needs no Fraction
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # -- parsing / printing -------------------------------------------

    def to_str(self, a: Scalar) -> str:
        try:
            return str(a)
        except ValueError:  # Python refuses str() of an int this long
            raise BudgetExceeded(
                "a rational has more digits than Python converts to text"
            ) from None

    def parse(self, text: str) -> Scalar:
        """Parse an integer, or a '/'-separated fraction over Q."""
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.make(Fraction(int(num), int(den)))
            return self.make(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar literal {text!r}: {exc}") from None


_set_p, _set_reduce = slot_setters(Field)

#: shared instance of the rationals
RATIONALS = Field(None)


def prime_field(p: int) -> Field:
    return Field(p)


def field_from_str(text: str) -> Field:
    """Inverse of str(field): 'Q' or 'F:p'."""
    text = text.strip()
    if text == "Q":
        return RATIONALS
    if text.startswith("F:"):
        try:
            return Field(int(text[2:]))
        except ValueError:
            raise ParseError(f"bad field spec {text!r}") from None
    raise ParseError(f"bad field spec {text!r} (expected 'Q' or 'F:p')")
