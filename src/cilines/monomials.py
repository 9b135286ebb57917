"""Packed monomial keys, the stored form of every term of a ParamScalar
and so of a MultiPoly.

A key is one int holding the total degree and then each exponent, one
field of `width` bytes each, big-endian. Adding two keys multiplies the
monomials, and descending keys are descending graded-lexicographic order
(total degree first, ties broken on the exponent vector). The top bit of
every field is a guard: no key sets it, so a difference of keys that sets
one had a negative exponent. The width is the least of 1, 2, 4, ... bytes
whose field holds the total degree below the guard. The text of a
monomial is looked up by its key (_monomial_texts).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence


def _width(degree: int) -> int:
    """The least of 1, 2, 4, ... bytes whose field holds `degree` below
    its guard bit."""
    w = 1
    while degree >> (8 * w - 1):
        w *= 2
    return w


@lru_cache(maxsize=256)
def _guards(k: int, w: int) -> int:
    """The guard bits of the k + 1 fields of a key at width w."""
    return sum(1 << 8 * w * i + 8 * w - 1 for i in range(k + 1))


def _pack(exps: Sequence[int], w: int) -> int:
    """The key of an exponent vector at width w."""
    fields = (sum(exps), *exps)
    if w == 1:
        return int.from_bytes(bytes(fields), "big")
    return int.from_bytes(b"".join(x.to_bytes(w, "big") for x in fields), "big")


def _exps(key: int, k: int, w: int) -> Sequence[int]:
    """The k exponents packed in a key at width w: the bytes after the
    degree at width 1, and a tuple at a wider width."""
    raw = key.to_bytes(w * (k + 1), "big")
    if w == 1:
        return raw[1:]
    return tuple(int.from_bytes(raw[i : i + w], "big") for i in range(w, len(raw), w))


def _field_sum(key: int, w: int) -> int:
    """The sum of the fields of a key at width w: a number is its digit
    sum mod the base less one, and the guards keep such sums below it."""
    return key % ((1 << 8 * w) - 1)


def _monomial(names: Sequence[str], exps: Sequence[int]) -> str:
    return "*".join(f"{n}^{x}" if x > 1 else n for n, x in zip(names, exps) if x > 0)


class _Monomials(dict):
    """The text of each monomial in `names` under its key at width w,
    formed when first asked for; the degree field is not read."""

    def __init__(self, names: tuple[str, ...], w: int) -> None:
        super().__init__()
        self.names, self.w = names, w

    def __missing__(self, key: int) -> str:
        text = self[key] = _monomial(self.names, _exps(key, len(self.names), self.w))
        return text


@lru_cache(maxsize=256)
def _monomial_texts(names: tuple[str, ...], w: int) -> _Monomials:
    """The monomial texts shared by all that prints in these names."""
    return _Monomials(names, w)
