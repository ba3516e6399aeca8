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

Zeros, of either sign, stay on the vector path. Each rare case (zeros,
out-of-range magnitudes, near-ties, exact ties, a D outside the decade) is
looked for with one reduction over the call's values; the masks and passes
that handle it run only when the call holds one.

A field is ``WIDTH`` bytes, written as six uint32 words from lookup tables:
sign and "d.d", three groups of four digits, three digits and "e", and the
exponent. Each word is looked up for all values into one contiguous row of a
word block, and one assignment then copies the block into the fields. Bytes
a field does not use are zero; no text contains a zero byte, so callers drop
them when they compact rows of fields. The kernel's arrays are a
:class:`Workspace`, which a caller formatting chunk after chunk allocates
once and passes to every call.

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


def _split(a, hi=None, lo=None):
    """Veltkamp's split a = hi + lo: c = _SPLIT*a, hi = c - (c - a), lo = a - hi.

    Writes into ``hi`` and ``lo`` when given.
    """
    hi = np.multiply(_SPLIT, a, out=hi)
    lo = np.subtract(hi, a, out=lo)
    hi -= lo
    return hi, np.subtract(a, hi, out=lo)


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


class Workspace:
    """Work arrays for formatting up to ``size`` values per call, allocated once.

    Passing one to :func:`format_fields` call after call keeps the kernel from
    allocating: a stream of calls that each allocated and freed these arrays
    made the C allocator return their pages to the system and fault them back
    in on the next call.
    """

    def __init__(self, size: int):
        self.size = size
        self.floats = np.empty((7, size), dtype=np.float64)
        self.ints = np.empty((2, size), dtype=np.int64)
        self.flags = np.empty((2, size), dtype=bool)
        #: Word j of every field, a row per word: each lookup fills one contiguous row.
        self.words = np.empty((WORDS, size), dtype=np.uint32)


def vector_fields(values, out=None, work: Workspace | None = None):
    """Fields of ``values`` and the mask of entries the vector path left out.

    Returns ``(fields, fallback)``: ``fields`` has shape ``values.shape +
    (WORDS,)``, uint32, and holds the ``'%.16e'`` bytes of every entry where
    ``fallback`` is false. Writes into ``out`` when given, and works in
    ``work`` when it is large enough; ``fallback`` is then a view of ``work``.
    """
    t = _tables()
    x = np.asarray(values, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape + (WORDS,), dtype=np.uint32)
    x_flat = x.reshape(-1)
    n = x_flat.size
    if work is None or work.size < n:
        work = Workspace(n)
    a, p, hi, lo, b_hi, b_lo, err = work.floats[:, :n]
    row, d = work.ints[:, :n]
    fallback, up = work.flags[:, :n]
    words = work.words[:, :n]

    np.abs(x_flat, out=a)
    fallback[...] = False
    # The rare cases are each looked for with one reduction; their masks are built only
    # when a call holds one. nan fails both bounds.
    special = None
    if not (a.min(initial=1.0) >= 1e-280 and a.max(initial=1.0) <= 1e280):
        special = ~((a >= 1e-280) & (a <= 1e280))  # zeros among them
        np.logical_and(special, a != 0, out=fallback)
        a[special] = 1.0  # zeros become 1.0: exponent row e+00
    np.log10(a, out=p)
    np.floor(p, out=p)
    row[...] = p
    row += _ROW0
    # Lookups into out= arrays use mode="clip", which writes in place ("raise" writes a
    # copy first); every index here is in range.
    t.scale_hi.take(row, out=p, mode="clip")
    p *= a
    _split(a, hi, lo)
    t.scale_hi_hi.take(row, out=b_hi, mode="clip")
    t.scale_hi_lo.take(row, out=b_lo, mode="clip")
    # err = ((hi*b_hi - p) + hi*b_lo + lo*b_hi) + lo*b_lo, summed left to right.
    np.multiply(hi, b_hi, out=err)
    err -= p
    err += np.multiply(hi, b_lo, out=hi)
    err += np.multiply(lo, b_hi, out=b_hi)
    err += np.multiply(lo, b_lo, out=lo)
    q = t.scale_lo.take(row, out=b_lo, mode="clip")
    q *= a
    q += err
    q_floor = np.floor(q, out=hi)
    frac = np.subtract(q, q_floor, out=q)
    # a is spent, and p once copied to d: their rows hold the integers from here on.
    i1, i2 = a.view(np.int64), p.view(np.int64)
    d[...] = p
    i1[...] = q_floor
    d += i1
    np.greater(frac, 0.5, out=up)
    tie_distance = np.abs(np.subtract(frac, 0.5, out=err), out=err)
    if tie_distance.min(initial=1.0) <= TIE_MARGIN:
        fallback |= (tie_distance <= TIE_MARGIN) & ~np.take(t.scale_exact, row)
        # Exact ties round half to even; they occur only where the scale is a double.
        up |= (frac == 0.5) & (d % 2 == 1)
    if d.min(initial=10**16) < 10**16:  # a misjudged decade; tested before the round-up
        fallback |= d < 10**16
    d += up
    if d.max(initial=0) >= 10**17:
        fallback |= d >= 10**17
    if special is not None or fallback.any():
        d[fallback if special is None else fallback | special] = 0  # zeros print as such

    # D = lead (2 digits) | 12 digits as three groups of 4 | low (3 digits). Each group
    # is looked up as soon as it is split off.
    np.floor_divide(d, 10**15, out=i1)
    d -= np.multiply(i1, 10**15, out=i2)
    i1 += np.multiply(np.signbit(x_flat), 100, out=i2)
    t.sign_lead.take(i1, out=words[0], mode="clip")
    np.floor_divide(d, 1000, out=i1)
    d -= np.multiply(i1, 1000, out=i2)
    t.triples.take(d, out=words[4], mode="clip")
    np.floor_divide(i1, 10**8, out=d)
    t.quads.take(d, out=words[1], mode="clip")
    i1 -= np.multiply(d, 10**8, out=i2)
    np.floor_divide(i1, 10**4, out=d)
    t.quads.take(d, out=words[2], mode="clip")
    i1 -= np.multiply(d, 10**4, out=i2)
    t.quads.take(i1, out=words[3], mode="clip")
    t.exponents.take(row, out=words[5], mode="clip")
    out[...] = words.reshape((WORDS,) + x.shape).transpose(*range(1, x.ndim + 1), 0)
    return out, fallback.reshape(x.shape)


def format_fields(values, out=None, work: Workspace | None = None):
    """``'%.16e' % v`` of every entry as a zero-padded field (see :func:`vector_fields`)."""
    x = np.asarray(values, dtype=np.float64)
    out, fallback = vector_fields(x, out, work)
    if fallback.any():
        text = "".join(("%.16e" % v).ljust(WIDTH, "\0") for v in x[fallback].tolist())
        out.view(np.uint8)[fallback] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, WIDTH)
    return out
