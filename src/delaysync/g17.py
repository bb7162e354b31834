"""``%.17g`` text for a whole block of float64 values at once.

``csv_rows(block)`` returns the bytes that ``np.savetxt(f, block,
fmt="%.17g", delimiter=",")`` writes, built from array operations rather
than one ``%`` per value.

Digits.  For finite |x| in [1e-280, 1e280] the 17 significant digits are
the integer D = round-half-even(|x| * 10**(16 - E)), E the decimal exponent
of |x|.  The product is formed as p + err + |x| * lo, where hi + lo is a
correctly rounded double-double of 10**(16 - E) (built from Python
integers) and p + err = |x| * hi exactly (Dekker's TwoProduct).  That sum
is within 1e-14 of the exact product, so the rounding of D is decided
correctly except within that distance of a tie.  Values within TIE of a
tie, values outside that range, nan and inf take ``b"%.17g" % x``; zeros
have classes of their own (below).

Text.  Each value gets a row of 13 little-endian uint32 words (ROW_BYTES):

    word 0      pad  '-'  '0'  '.'      sign; the "0." of 0.000ddd
    word 1      '0'  '0'  '0'  d0       its zeros; the first digit
    words 2-5   d1 ... d16              the digits again after the first
    word 6      pad  pad  pad  '.'
    words 7-10  d1 ... d16              the digits once more, after a dot
    word 11     'e'  sign x1   x2       the exponent (x3 for |E| >= 100)
    word 12     x3   pad  pad  sep      ',' or, at the end of a row, '\\n'

A value's text is a fixed subset of its row's bytes given its class: the
sign, the notation with its exponent (fixed for -4 <= E < 17, or
exponential with two or three exponent digits) and the count of digits
left once trailing zeros are dropped.  One mask per class, gathered per
value, selects the bytes, and one boolean index joins all the texts.  A
caller formatting many blocks passes the same ``Buffers`` to each.
"""

from __future__ import annotations

from functools import cache
from types import SimpleNamespace

import numpy as np

# Within this distance of .5, the fractional part of |x| * 10**(16 - E)
# is formatted by Python; the computed product is within 1e-14 of exact.
TIE = 1e-9
# The magnitudes formatted from the double-double table (beyond them,
# Dekker's split of |x| or of the table entries could overflow).
LOW, HIGH = 1e-280, 1e280
ROW_BYTES = 52
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for binary64
# Tables are indexed by the decimal exponent + _EXP_MAX.  The exact path
# meets |E| <= 282; 10**(16 + 283) still splits without overflow.
_EXP_MAX = 283
# Notation codes: E + 4 for fixed notation (-4 <= E <= 16), then
# exponential notation with two or three exponent digits.
_EXP2, _EXP3 = 21, 22
_CLASSES = 2 * 23 * 17  # sign, notation code, digits kept
_ZERO = _CLASSES + 25  # 0 and -0; classes in between are Python's texts by length


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of ``v`` into two halves of 26 significant bits."""
    t = _SPLIT * v
    high = t - v
    np.subtract(t, high, out=high)
    np.subtract(v, high, out=t)
    return high, t


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(4, b"\0"), "little")


@cache
def _tables() -> SimpleNamespace:
    """The formatter's constant tables (about 150 KiB), built on first use."""
    # 10**k for k = 16 - E, E in [-_EXP_MAX, _EXP_MAX]: hi is the nearest
    # double and lo the nearest double to 10**k - hi.
    ks = range(16 - _EXP_MAX, 16 + _EXP_MAX + 1)
    hi = [float(10**k) if k >= 0 else 1 / 10**-k for k in ks]
    lo = []
    for k, h in zip(ks, hi):
        num, den = h.as_integer_ratio()
        if k >= 0:
            lo.append(float(10**k - num))
        else:
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi = np.array(hi)
    hi_high, hi_low = _split(hi)

    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    words = digits.astype(np.uint8).view("<u4").reshape(-1)
    # last[j, g]: how many of d1..d16 run up to the last nonzero digit of
    # g as word j + 1 (d4j+1..d4j+4), or 0 when g is 0000.
    trailing = (g % 10 == 0).astype(np.uint8)
    for p in (100, 1000):
        trailing += g % p == 0
    last = np.stack([np.where(g > 0, 4 * j + 4 - trailing, 0) for j in range(4)])

    exps = range(-_EXP_MAX, _EXP_MAX + 1)
    exp_text = [b"e%+03d" % e for e in exps]
    exp_words = np.array([_word(t[:4]) for t in exp_text], "<u4")
    exp_tail = np.array([_word(t[4:]) for t in exp_text], "<u4")

    # Class (sign, notation, digits kept) -> bytes of the row.
    masks = np.zeros((_ZERO + 2, ROW_BYTES), bool)
    masks[:, ROW_BYTES - 1] = True  # the separator
    for sign in (0, 1):
        for code in range(23):
            for kept in range(1, 18):
                m = masks[(sign * 23 + code) * 17 + kept - 1]
                m[1] = sign
                if 4 <= code < _EXP2:  # d0..dE, then .dE+1...
                    e = code - 4
                    m[7 : 8 + e] = True
                    if kept > e + 1:
                        m[27] = True
                        m[28 + e : 27 + kept] = True
                elif code < _EXP2:  # 0.000d0d1...
                    m[2:4] = True
                    m[7 - (3 - code) : 7 + kept] = True
                else:  # d0.d1...e+XX(X)
                    m[7] = True
                    if kept > 1:
                        m[27] = True
                        m[28 : 27 + kept] = True
                    m[44 : 48 + (code == _EXP3)] = True
    # Formatted by Python: the text fills bytes 1.. of the row.
    for length in range(1, 25):
        masks[_CLASSES + length, 1 : 1 + length] = True
    masks[_ZERO, 2] = True  # the "0" of word 0
    masks[_ZERO + 1, 1:3] = True  # its "-0"

    # (sign, E) -> class of a value that keeps d0 alone.
    e = np.arange(-_EXP_MAX, _EXP_MAX + 1)
    code = np.where((e >= -4) & (e <= 16), e + 4, np.where(np.abs(e) >= 100, _EXP3, _EXP2))
    base = np.concatenate([code, 23 + code]) * 17

    return SimpleNamespace(
        hi=hi, hi_high=hi_high, hi_low=hi_low, lo=np.array(lo), words=words,
        last=last.astype(np.uint8), exp_words=exp_words, exp_tail=exp_tail, masks=masks,
        base=base,
    )


def _scaled(t, a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - e)`` as an int64 integer part and a fractional part
    in [0, 1)."""
    k = _EXP_MAX - e  # index of 10**(16 - e)
    p = t.hi.take(k, mode="clip")
    p *= a
    lo = t.lo.take(k, mode="clip")
    lo *= a
    b_high = t.hi_high.take(k, mode="clip")
    b_low = t.hi_low.take(k, mode="clip")
    del k
    # err = ((ah*bh - p) + ah*bl + al*bh) + al*bl, each product in the
    # memory of a factor that is not needed again.
    a_high, a_low = _split(a)
    err = a_high * b_high
    err -= p
    a_high *= b_low
    err += a_high
    b_high *= a_low
    err += b_high
    b_low *= a_low
    err += b_low  # now p + err == a * hi exactly
    del a_high, a_low, b_high, b_low
    err += lo
    whole = np.floor(err)
    err -= whole
    i = p.astype(np.int64)
    i += whole.astype(np.int64)
    return i, err


class Buffers:
    """Room for csv_rows to format blocks of up to ``values`` values.

    A write that hands the same Buffers to every block reuses their pages
    rather than faulting in fresh ones for each block.
    """

    def __init__(self, values: int):
        self._words = np.empty(13 * values, "<u4")  # then the byte mask
        self._text = np.empty(ROW_BYTES * values, np.uint8)

    def views(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The word columns, text rows and byte mask of ``n`` values; the
        mask shares the words' memory."""
        words = self._words[: 13 * n]
        return (
            words.reshape(13, n),
            self._text[: ROW_BYTES * n].reshape(n, ROW_BYTES),
            words.view(bool).reshape(n, ROW_BYTES),
        )


def csv_rows(block: np.ndarray, buffers: Buffers | None = None) -> np.ndarray:
    """The rows of the 2-D float64 ``block`` as ``%.17g`` CSV text: values
    joined by "," and each row ended by "\\n", as a new uint8 array.

    ``buffers`` (by default new ones) must hold ``block.size`` values.
    """
    # Temporaries are dropped (del) as soon as they are used up: what is
    # alive at once sets the memory a trace write holds per block.
    t = _tables()
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    n = x.size
    words, text, mask = (buffers or Buffers(n)).views(n)

    a = np.abs(x)
    zero = a == 0
    slow = ~((a >= LOW) & (a <= HIGH) | zero)  # nan compares false
    a[slow | zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(t, a, e)
    # log10 can miss the exponent by one next to a power of ten.
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if off.size:
        e[off] += np.where(d[off] < 10**16, -1, 1)
        d[off], frac[off] = _scaled(t, a[off], e[off])
    del a
    slow |= np.abs(frac - 0.5) < TIE
    d += frac > 0.5
    del frac
    # A double lies at least 1.1 units of the 16th decimal place away from
    # the next power of ten, so D rounds up to 10**17 only on a miss.
    slow |= (d < 10**16) | (d >= 10**17)
    d[slow] = 10**16

    # d0, then four words of four digits (floor division by a constant is
    # the fast integer division).
    groups = np.empty((5, n), np.int64)
    high = d // 10**8
    d -= high * 10**8
    np.floor_divide(high, 10**8, out=groups[0])
    high -= groups[0] * 10**8
    for j, half in ((1, high), (3, d)):
        np.floor_divide(half, 10**4, out=groups[j])
        np.subtract(half, groups[j] * 10**4, out=groups[j + 1])
    del d, high

    exp_index = e
    exp_index += _EXP_MAX
    del e
    words[0] = _word(b"\0-0.")
    t.words.take(groups, out=words[1:6], mode="clip")
    words[6] = _word(b"\0\0\0.")
    words[7:11] = words[2:6]
    t.exp_words.take(exp_index, out=words[11], mode="clip")
    t.exp_tail.take(exp_index, out=words[12], mode="clip")
    seps = np.full(cols, ord(","), "<u4")
    seps[-1] = ord("\n")
    words[12].reshape(rows, cols)[:] |= seps << 24
    np.copyto(text.view("<u4"), words.T)
    del words  # its memory is the mask's

    neg = np.signbit(x)
    cls = t.base.take(neg * (2 * _EXP_MAX + 1) + exp_index, mode="clip")
    groups[1:] += np.arange(0, 40000, 10000)[:, None]  # word j's row of t.last
    cls += t.last.take(groups[1:], mode="clip").max(axis=0)
    cls[zero] = _ZERO + neg[zero]
    del groups, exp_index, zero, neg

    where = np.flatnonzero(slow)
    for j, v in zip(where.tolist(), x[where].tolist()):
        s = b"%.17g" % v
        text[j, 1 : 1 + len(s)] = np.frombuffer(s, np.uint8)
        cls[j] = _CLASSES + len(s)
    t.masks.take(cls, axis=0, out=mask, mode="clip")
    return text.reshape(-1)[mask.reshape(-1)]
