"""repr() of whole float64 arrays in numpy: the shortest round-trip digits.

cells(values) gives the bytes of repr(float(v)) for every finite value v
and "undefined" for the others.  The digits come from Schubfach (R.
Giulietti, "The Schubfach way to render doubles", 2020): three products of
the value's rounding interval with a 126-bit power of ten, rounded to odd,
give the shortest decimal inside the interval, and the closer one (ties to
even) where two of that length fit.  The 64 x 64 -> 128-bit products run in
uint64 through 32-bit halves.  No int64 array meets a uint64 one here:
numpy promotes that mix to float64.

The layout is repr's: with value = 0.<digits> * 10**decpt, the exponent
form exactly when decpt <= -4 or decpt > 16, ".0" after an integral value,
and a signed exponent of at least two digits.  One table maps (sign, digit
count, decpt class) to the source bytes of a cell.  The tables are built on
first use.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

WIDTH = 24  # len("-1.2345678901234567e-308")
_CHUNK = 4096  # values per pass, which holds ~280 B of temporaries a value
_GATHER = 512  # values per layout gather: its index array stays under 128 KB
_M32 = 0xFFFFFFFF
_M63 = 2**63 - 1
# the source bytes of a value: 17 digits at 3..19, 3 exponent digits at
# 21..23, then these
_CONST = b"-0.e+undfi\0\0"
_AT = {c: 24 + i for i, c in enumerate(_CONST.decode())}
_SRC = 24 + len(_CONST)
_NCLS = 26  # decpt classes: -3..16, four exponent forms, non-finite, zero
_OFF = 330  # decpt + _OFF indexes the class table
_NONFINITE, _ZERO = 700, 720  # past any decpt + _OFF


def _flog2pow10(e):
    return (e * 913124641741) >> 38  # floor(log2(10**e)) for |e| < 1700


def _layout(sign: int, n: int, cls: int) -> list:
    """The source bytes of a cell with n significant digits, in class cls."""
    at = _AT
    digits = list(range(3, 20))
    if cls < 20:  # fixed, decpt = cls - 3
        p = cls - 3
        if p <= 0:
            text = [at["0"], at["."]] + [at["0"]] * -p + digits[:n]
        else:  # a zero digit after the point of an integral value
            text = digits[:p] + [at["."]] + digits[p:max(n, p + 1)]
    elif cls < 24:  # exponent: negative for 20, 21, three digits for 21, 23
        text = digits[:1] + ([at["."]] + digits[1:n] if n > 1 else [])
        text += [at["e"], at["+" if cls >= 22 else "-"]] + [21, 22, 23][1 - cls % 2:]
    elif cls == 24:
        return [at[c] for c in "undefined"]
    else:
        text = [at["0"], at["."], at["0"]]
    return [at["-"]] * sign + text


@functools.cache
def _tables() -> SimpleNamespace:
    # g = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1 for k = -324..292,
    # as g1 * 2**63 + g0 and their 32-bit halves
    g = []
    for k in range(-324, 293):
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        shift = 125 - _flog2pow10(-k)
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        g.append(num // den + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & _M63 for x in g], dtype=np.uint64)

    # (k + 324, h, k + _OFF) per biased exponent; the second 2048 rows are
    # for the irregular values, powers of two whose lower neighbour is closer
    q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)
    k = (q * 661971961083 - np.repeat([0, 274743187321], 2048)) >> 41
    kh = np.stack([k + 324, q + _flog2pow10(-k) + 2, k + _OFF], axis=1)
    kh[2047::2048, 2] = _NONFINITE

    i = np.arange(10000)
    words = np.ascontiguousarray((i // np.array([[1000], [100], [10], [1]]) % 10 + 48).T, dtype=np.uint8)
    words = words.view(np.uint32).ravel()  # "0000" .. "9999"
    # the digits up to the last nonzero one of 17, through 4-digit group j
    # of the last 16, times _NCLS; 0 for a zero group
    zeros = sum(i % 10**z == 0 for z in range(1, 5))
    sig = (np.arange(4)[:, None] * 4 + 5 - zeros) * _NCLS * (i > 0)

    decpt = np.arange(740) - _OFF
    cls = np.where((decpt >= -3) & (decpt <= 16), decpt + 3,
                   20 + 2 * (decpt > 16) + (np.abs(decpt - 1) >= 100))
    cls[_NONFINITE:] = 24
    cls[_ZERO] = 25

    keys = [(sign, n, c) for sign in (0, 1) for n in range(18) for c in range(_NCLS)]
    texts = [_layout(sign, max(n, 1), c) for sign, n, c in keys]
    idx = np.full((len(keys), WIDTH), _SRC - 1, dtype=np.uint8)
    for row, text in zip(idx, texts):
        row[:len(text)] = text
    return SimpleNamespace(
        g=(g1 >> 32, g1 & _M32, g1, g0 >> 32, g0 & _M32),
        kh=kh.astype(np.uint16),
        words=words,
        expword=words[np.abs(decpt - 1) % 10000],
        sig=sig.astype(np.uint16),
        cls=cls.astype(np.uint16),
        idx=idx,
        length=np.array([len(text) for text in texts], dtype=np.uint8),
        pow10=np.array([10**e for e in range(19)], dtype=np.uint64),
    )


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of a * b from the 32-bit halves of a and b, b < 2**60."""
    x = a1 * b0
    mid = ((a0 * b0) >> 32) + (x & _M32) + a0 * b1
    return a1 * b1 + (x >> 32) + (mid >> 32)


def _rop(g1h, g1l, g1, g0h, g0l, cp):
    """g * cp / 2**127 rounded to odd, g = g1 * 2**63 + g0 (Schubfach's rop)."""
    cph, cpl = cp >> 32, cp & _M32
    z = ((g1 * cp) >> 1) + _mulhi(g0h, g0l, cph, cpl)
    return (_mulhi(g1h, g1l, cph, cpl) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(tab, bits):
    """(d, k + _OFF) with d * 10**k the shortest decimal that reads back as
    the value; d may end in zeros.  d is garbage for zeros and non-finite
    values, and the second _NONFINITE for the latter."""
    bq = (bits >> 52) & 0x7FF
    t = bits & (2**52 - 1)
    irregular = (t == 0) & (bq > 1)
    k, h, e = tab.kh.take(bq + irregular * np.uint64(2048), axis=0).T

    # the value is c * 2**q and its rounding interval [cbl, cbr] / 4 * 2**q
    cb = (t + (bq > 0) * np.uint64(2**52)) << 2
    g = [part.take(k) for part in tab.g]
    vb = _rop(*g, cb << h)
    vbl = _rop(*g, (cb - 2 + irregular) << h)
    vbr = _rop(*g, (cb + 2) << h)
    odd = t & 1

    # the one candidate one digit shorter, tried where s has two digits or more
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + odd <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + odd <= vbr
    short = (s >= 10) & (upin != wpin)
    # else s or s + 1: the one inside the interval, or the closer (ties to even)
    uin = vbl + odd <= s << 2
    win = ((s + 1) << 2) + odd <= vbr
    r = vb & 3
    d = s + (win & (~uin | (r > 2) | ((r == 2) & ((s & 1) == 1))))
    d += short * (sp10 + wpin * np.uint64(10) - d)
    return d, e


def _format(bits, out, lengths):
    tab = _tables()
    d, e = _shortest(tab, bits)
    # the digit count nd of d, then d as 17 digits: 1, then 4 groups of 4
    m = (((d | 1).astype(np.float64).view(np.uint64) >> 52) - 1022) * 1233 >> 12
    nd = m + (d >= tab.pow10.take(m))
    d *= tab.pow10.take(17 - nd)
    hi = (d // 10**8).astype(np.uint32)
    lo = (d - hi * np.uint64(10**8)).astype(np.uint32)
    top = hi // 10**8
    mid = hi - top * 10**8

    n = len(bits)
    src = np.empty((n, _SRC // 4), dtype=np.uint32)
    src[:, 0] = tab.words.take(top)
    n_key = np.full(n, _NCLS, dtype=np.uint16)  # significant digits * _NCLS
    for j, group in enumerate((mid // 10**4, mid % 10**4, lo // 10**4, lo % 10**4)):
        src[:, 1 + j] = tab.words.take(group)
        np.maximum(n_key, tab.sig[j].take(group), out=n_key)
    decpt = nd + e  # decpt + _OFF
    src[:, 5] = tab.expword.take(decpt)
    src[:, 6:] = np.frombuffer(_CONST, dtype=np.uint32)

    decpt += ((bits << 1) == 0) * (_ZERO - decpt)
    key = tab.cls.take(decpt) + n_key + (bits >> 63) * (18 * _NCLS)
    tab.length.take(key, out=lengths, mode="wrap")
    # the flat byte indices, 8 bytes each, _GATHER values at a time
    src = src.view(np.uint8).ravel()
    for i in range(0, n, _GATHER):
        flat = tab.idx.take(key[i:i + _GATHER], axis=0) + (np.arange(i, min(n, i + _GATHER)) * _SRC)[:, None]
        src.take(flat, out=out[i:i + _GATHER], mode="wrap")


def cells(values) -> tuple[np.ndarray, np.ndarray]:
    """The text of each value as a (n, WIDTH) uint8 matrix padded with NUL
    bytes, and the text lengths: repr(float(v)), or "undefined" if v is not
    finite."""
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.uint64)
    out = np.empty((len(bits), WIDTH), dtype=np.uint8)
    lengths = np.empty(len(bits), dtype=np.uint8)
    for k in range(0, len(bits), _CHUNK):
        _format(bits[k:k + _CHUNK], out[k:k + _CHUNK], lengths[k:k + _CHUNK])
    return out, lengths
