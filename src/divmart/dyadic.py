"""Exact dyadic rationals num / 2**exp with arbitrary-precision integers.

This is the only number type used for set measures, martingale values and
certificate bounds.  Plain ``fractions.Fraction`` would work arithmetically,
but the canonical (numerator, exponent) pair is part of the on-disk format
and the restriction to powers of two is a correctness guard: any operation
that would leave the dyadic lattice (e.g. dividing by 3) simply does not
exist here.  Nor is there a conversion to float: the core is float-free.

Canonical form: ``num`` is odd or zero, and ``exp == 0`` when ``num == 0``.
``exp`` is always a natural number, so every value is an integer multiple of
2**(-exp).
"""

from __future__ import annotations

from typing import Union

_IntLike = Union[int, "Dyadic"]

# Decimal conversions go through blocks of at most this many digits, which
# keeps every int <-> str step under the interpreter's digit limit
# (sys.get_int_max_str_digits, at least 640) without raising it globally.
_BLOCK_DIGITS = 512
_BLOCK = 10**_BLOCK_DIGITS


def _int_to_decimal(x: int) -> str:
    """str(x) for integers of any size, by divide and conquer on powers of ten."""
    if x < 0:
        return "-" + _int_to_decimal(-x)
    if x < _BLOCK:
        return str(x)
    pows = [_BLOCK]  # pows[i] = 10^(_BLOCK_DIGITS * 2^i)
    while pows[-1] <= x:
        pows.append(pows[-1] * pows[-1])

    def digits(y: int, i: int) -> str:  # y < pows[i]
        if i == 0:
            return str(y)
        hi, lo = divmod(y, pows[i - 1])
        low = digits(lo, i - 1)
        if hi == 0:
            return low
        return digits(hi, i - 1) + low.rjust(_BLOCK_DIGITS << (i - 1), "0")

    return digits(x, len(pows) - 1)


def _decimal_to_int(text: str) -> int:
    """int(text) for decimal strings of any length.  Strings longer than one
    block must be an optional '-' followed by ASCII digits."""
    if len(text) <= _BLOCK_DIGITS:
        return int(text)
    sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"invalid decimal integer of {len(text)} characters")
    pows: dict[int, int] = {}

    def value(d: str) -> int:
        if len(d) <= _BLOCK_DIGITS:
            return int(d)
        w = len(d) // 2
        if w not in pows:
            pows[w] = 10**w
        return value(d[:-w]) * pows[w] + value(d[-w:])

    return sign * value(body)


class Dyadic:
    __slots__ = ("num", "exp")

    num: int
    exp: int

    def __init__(self, num: int, exp: int = 0) -> None:
        if exp < 0:
            # Normalize values given as num * 2**(-exp) with exp < 0.
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp and not num & 1:
            shift = min((num & -num).bit_length() - 1, exp)
            num >>= shift
            exp -= shift
        self.num = num
        self.exp = exp

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Dyadic":
        return Dyadic(0)

    @staticmethod
    def one() -> "Dyadic":
        return Dyadic(1)

    @staticmethod
    def pow2(k: int) -> "Dyadic":
        """2**k for any integer k (negative k gives 1/2**(-k))."""
        if k >= 0:
            return Dyadic(1 << k)
        return Dyadic(1, -k)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: _IntLike) -> "Dyadic":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        raise TypeError(f"cannot mix Dyadic with {type(other).__name__}")

    def __add__(self, other: _IntLike) -> "Dyadic":
        o = self._coerce(other)
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other: _IntLike) -> "Dyadic":
        o = self._coerce(other)
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) - (o.num << (e - o.exp)), e)

    def __rsub__(self, other: _IntLike) -> "Dyadic":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: _IntLike) -> "Dyadic":
        o = self._coerce(other)
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def mul_pow2(self, k: int) -> "Dyadic":
        """Exact multiplication by 2**k (k may be negative)."""
        return Dyadic(self.num, self.exp - k)

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other: _IntLike) -> int:
        """The sign of self - other.  Numerators over one exponent decide,
        and so do their signs when those differ.  Values of one sign are
        ordered by the position of their top bit, bit_length - exp, when
        that differs; only values whose top bits agree are shifted to one
        exponent, by at most the difference of their bit lengths.  Shifting
        first would build a number of max(exp) bits, 12 TB for 2^-(10^14)."""
        o = self._coerce(other)
        a, b = self.num, o.num
        d = self.exp - o.exp
        if d and (a > 0 < b or a < 0 > b):
            t = a.bit_length() - b.bit_length() - d
            if t:
                return 1 if (t > 0) == (a > 0) else -1
            if d > 0:
                b <<= d
            else:
                a <<= -d
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: _IntLike) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: _IntLike) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: _IntLike) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: _IntLike) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        # An integer hashes as the int it equals (Dyadic(3) == 3).
        return hash(self.num) if self.exp == 0 else hash((self.num, self.exp))

    # -- rendering -----------------------------------------------------

    def decimal(self) -> str:
        """Exact decimal expansion (dyadics always terminate in base 10)."""
        if self.exp == 0:
            return _int_to_decimal(self.num)
        import decimal  # here, not at the top: only rendering pays its memory

        sign = "-" if self.num < 0 else ""
        # num/2^e = num*5^e / 10^e, multiplied in base ten: as a Python int
        # the product would take quadratic time to print.  The context is
        # exact: its precision exceeds the product's digits, Inexact traps.
        text = _int_to_decimal(abs(self.num))
        ctx = decimal.Context(
            prec=len(text) + self.exp, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
        )
        scaled = ctx.multiply(ctx.create_decimal(text), ctx.power(5, self.exp))
        digits = str(scaled).rjust(self.exp + 1, "0")
        ipart, fpart = digits[: -self.exp], digits[-self.exp :]
        return f"{sign}{ipart}.{fpart}"

    def __repr__(self) -> str:
        if self.exp == 0:
            return f"Dyadic({_int_to_decimal(self.num)})"
        return f"Dyadic({_int_to_decimal(self.num)}, {_int_to_decimal(self.exp)})"

    def __str__(self) -> str:
        if self.exp == 0:
            return _int_to_decimal(self.num)
        return f"{_int_to_decimal(self.num)}/2^{_int_to_decimal(self.exp)}"

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"num": _int_to_decimal(self.num), "exp": self.exp}

    @staticmethod
    def from_json(obj: dict) -> "Dyadic":
        if not isinstance(obj, dict) or "num" not in obj or "exp" not in obj:
            raise ValueError(f"a dyadic needs 'num' and 'exp': {obj!r}")
        raw = obj["num"]
        # bool is an int subclass, and int() would truncate a float.
        if isinstance(raw, str):
            num = _decimal_to_int(raw)
        elif isinstance(raw, int) and not isinstance(raw, bool):
            num = raw
        else:
            raise ValueError(
                f"bad dyadic numerator: {raw!r} (need a decimal string or an integer)"
            )
        exp = obj["exp"]
        if not isinstance(exp, int) or isinstance(exp, bool) or exp < 0:
            raise ValueError(f"bad dyadic exponent: {exp!r}")
        d = Dyadic(num, exp)
        if d.num != num or d.exp != exp:
            raise ValueError(f"dyadic not in canonical form: {obj!r}")
        return d
