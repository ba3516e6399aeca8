"""The exact bytes of ``'%.16e' % x`` for a whole float64 array at once.

``%.16e`` prints the correctly rounded 17-digit decimal D * 10**(e10 - 16),
with D in [10**16, 10**17). Here e10 = floor(log10|x|), and |x| is scaled by
10**(16 - e10) held as a double-double (hi + lo, exact to about 2**-106,
built once from Python integers). Dekker's error-free product gives
|x| * hi = p + err exactly, so the scaled value is p + q with p an
integer-valued double, q = err + |x| * lo, and an absolute error below 1e-14.
Rounding p + q to an integer is then exact except near a rounding tie; where
the scale is itself a double (lo = 0) it is exact everywhere, ties included.

These elements are left to Python's ``%`` (see :func:`vector_fields`):

* the fraction of q within ``TIE_MARGIN`` of 1/2 where lo != 0, since the
  exact value may be a half-even tie;
* a D outside [10**16, 10**17): a misjudged decade from log10, or a value
  that rounds up to the next decade;
* magnitudes outside [1e-280, 1e280], where the table's low parts would
  leave the normal range, and non-finite values.

Zeros, of either sign, stay on the vector path.

A field is ``WIDTH`` bytes, written as six uint32 words from lookup tables:
sign and "d.d", three groups of four digits, three digits and "e", and the
exponent. Bytes a field does not use are zero; no text contains a zero byte,
so callers drop them when they compact rows of fields.

Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 18 (1971); Adams, "Ryu revisited: printf floating
point conversion", OOPSLA 2019.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: Bytes in a field: "-1.2345678901234567e-100" is the longest text.
WIDTH = 24
#: uint32 words in a field.
WORDS = WIDTH // 4
#: Scaled values whose fraction is this close to 1/2 go to the fallback when
#: the scale is inexact; the error of the scaled value is below 1e-14.
TIE_MARGIN = 1e-6
_E_LIMIT = 280
#: Veltkamp's splitting constant 2**27 + 1: splits a double into two 26-bit halves.
_SPLIT = 134217729.0


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _double_double(num: int, den: int) -> tuple[float, float]:
    """num / den as hi + lo; int / int rounds correctly."""
    hi = num / den
    h_num, h_den = hi.as_integer_ratio()
    return hi, (num * h_den - h_num * den) / (den * h_den)


def _ascii(texts, dtype) -> np.ndarray:
    """Equal-length strings as words of ``dtype`` holding their ASCII bytes."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype=dtype)


def _joined(first, second) -> np.ndarray:
    """Each two-byte word of ``first`` followed by each of ``second``, as uint32."""
    words = np.empty((first.size, second.size, 2), dtype=np.uint16)
    words[..., 0] = first[:, None]
    words[..., 1] = second
    return words.view(np.uint32).ravel()


#: Table rows are e10 = -_E_LIMIT - 1 .. _E_LIMIT + 1, offset by _ROW0.
_ROW0 = _E_LIMIT + 1


class _Tables(NamedTuple):
    scale_hi: np.ndarray
    scale_hi_hi: np.ndarray
    scale_hi_lo: np.ndarray
    scale_lo: np.ndarray
    #: Where the scale is a double (10**0 .. 10**22) p + q is exact, and so is
    #: the half-even rounding of a tie.
    scale_exact: np.ndarray
    #: Index 100 * sign + (first two digits): "\0d.d" or "-d.d".
    sign_lead: np.ndarray
    quads: np.ndarray
    triples: np.ndarray
    exponents: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """Built on first use, so that importing krabi does not pay for them."""
    exponents = range(-_ROW0, _ROW0 + 1)
    scale_hi, scale_lo = np.array([
        _double_double(10 ** (16 - e), 1) if e <= 16 else _double_double(1, 10 ** (e - 16))
        for e in exponents
    ]).T
    pairs = _ascii([f"{i:02d}" for i in range(100)], np.uint16)
    return _Tables(
        scale_hi, *_split(scale_hi), scale_lo, scale_lo == 0,
        sign_lead=_joined(
            _ascii([sign + str(d) for sign in ("\0", "-") for d in range(10)], np.uint16),
            _ascii([f".{d}" for d in range(10)], np.uint16),
        ),
        quads=_joined(pairs, pairs),
        triples=_joined(pairs, _ascii([f"{i}e" for i in range(10)], np.uint16)),
        exponents=_ascii([f"{e:+03d}".ljust(4, "\0") for e in exponents], np.uint32),
    )


def vector_fields(values, out=None):
    """Fields of ``values`` and the mask of entries the vector path left out.

    Returns ``(fields, fallback)``: ``fields`` has shape ``values.shape +
    (WORDS,)``, uint32, and holds the ``'%.16e'`` bytes of every entry where
    ``fallback`` is false. Writes into ``out`` when given.
    """
    t = _tables()
    x = np.asarray(values, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape + (WORDS,), dtype=np.uint32)
    a = np.abs(x)
    zero = a == 0
    in_range = (a >= 1e-280) & (a <= 1e280)
    a = np.where(in_range, a, 1.0)  # zeros become 1.0: exponent row e+00
    row = np.floor(np.log10(a)).astype(np.intp) + _ROW0
    p = a * np.take(t.scale_hi, row)
    a_hi, a_lo = _split(a)
    b_hi, b_lo = np.take(t.scale_hi_hi, row), np.take(t.scale_hi_lo, row)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    q = err + a * np.take(t.scale_lo, row)
    q_floor = np.floor(q)
    frac = q - q_floor
    d = p.astype(np.int64) + q_floor.astype(np.int64)
    near_tie = (np.abs(frac - 0.5) <= TIE_MARGIN) & ~np.take(t.scale_exact, row)
    fallback = (~in_range | near_tie | (d < 10**16)) & ~zero
    up = frac > 0.5
    tie = frac == 0.5  # exact ties: only where the scale is a double
    if tie.any():
        up |= tie & (d % 2 == 1)
    d += up
    fallback |= d >= 10**17
    d[zero | fallback] = 0  # keeps table indices in range

    # D = lead (2 digits) | 12 digits as three groups of 4 | low (3 digits).
    lead = d // 10**15
    rest = d - lead * 10**15
    mid = rest // 1000
    low = rest - mid * 1000
    high = mid // 10**8
    mid = (mid - high * 10**8).astype(np.uint32)
    mid_high = mid // 10**4
    out[..., 0] = np.take(t.sign_lead, lead + 100 * np.signbit(x))
    out[..., 1] = np.take(t.quads, high)
    out[..., 2] = np.take(t.quads, mid_high)
    out[..., 3] = np.take(t.quads, mid - mid_high * 10**4)
    out[..., 4] = np.take(t.triples, low)
    out[..., 5] = np.take(t.exponents, row)
    return out, fallback


def format_fields(values, out=None):
    """``'%.16e' % v`` of every entry as a zero-padded field (see :func:`vector_fields`)."""
    x = np.asarray(values, dtype=np.float64)
    out, fallback = vector_fields(x, out)
    if fallback.any():
        text = "".join(("%.16e" % v).ljust(WIDTH, "\0") for v in x[fallback].tolist())
        out.view(np.uint8)[fallback] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, WIDTH)
    return out
