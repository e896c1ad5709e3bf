"""Exact vectorised %.17g: the bytes that `"%.17g" % v` gives, for arrays.

Per value v the fast path computes
- X = floor(log10 |v|), the decimal exponent;
- |v| * 10**(16 - X) as a double-double: Dekker's exact two-product of |v|
  and the head of 10**(16 - X), plus |v| times its tail.  Head and tail
  come from exact Python ints; their sum is within 2**-105 of the power.
  The product is then within about 2**-100 of its exact value;
- the 17-digit integer D below it and its fraction, rounded to nearest.

It lays the digits out as %g does: fixed notation when -4 <= X < 17,
else d.ddd e+XX; trailing zeros stripped; signed.  Each value fills a
slot of four 64-bit words, with NUL bytes wherever %g writes nothing,
and `bytes.translate` deletes the NULs.

A value the fast path cannot certify goes to `%` itself: zeros, NaN,
infinities, |v| outside [1e-280, 1e280], a fraction within 2**-30 of 1/2
(every exact tie among them), and an X that missed its decade.  So no
edge-case rule of %g is written twice.  See Dekker, *A floating-point
technique for extending the available precision* (Numer. Math. 18, 1971),
and Loitsch, *Printing floating-point numbers quickly and accurately
with integers* (PLDI 2010), for a fast path that falls back.

The tables are built on first use, not at import.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# the fast path's range of |v|; the range of 16 - X it needs from _tables
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -265, 298
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles
_TIE_MARGIN = 2.0**-30
_X_OFF = 300  # tables indexed by the decimal exponent are at X + _X_OFF
_NUL = b"\0"


def _word(text: str) -> int:
    """`text` (at most 8 bytes) as one little-endian 64-bit word."""
    return int.from_bytes(text.encode().ljust(8, _NUL), "little")


@functools.cache
def _tables():
    """(pow10, quad, prefix, suffix, int_end, masks) for encode_rows."""
    pow10 = []
    for k in range(_K_MIN, _K_MAX + 1):
        # 10**k ~ q * 2**-shift with q an int of at least 110 bits when k < 0
        if k >= 0:
            q, shift = 10**k, 0
        else:
            shift = (10**-k).bit_length() + 110
            q = (1 << shift) // 10**-k
        head = float(q)
        tail = float(q - int(head))
        head, tail = math.ldexp(head, -shift), math.ldexp(tail, -shift)
        c = _SPLIT * head
        head_hi = c - (c - head)
        pow10.append((head, head_hi, head - head_hi, tail))
    pow10 = np.array(pow10).T.copy()

    # four ASCII digits of 0..9999 in the low half of a word
    fours = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quad = (fours + 48).astype(np.uint8).view(np.uint32).ravel().astype(np.uint64)

    xs = range(-_X_OFF, _X_OFF + 1)
    fixed = [-4 <= x < 17 for x in xs]
    # word 0: the sign, and "0." with its zeros when -4 <= X < 0
    prefix = np.array(
        [
            _word(sign + ("0." + "0" * (-x - 1) if f and x < 0 else ""))
            for sign in ("", "-")
            for x, f in zip(xs, fixed)
        ],
        np.uint64,
    )
    # word 3 after its first byte: the exponent in exponential notation
    suffix = np.array(
        [0 if f else _word(f"\0e{x:+03d}") for x, f in zip(xs, fixed)], np.uint64
    )
    # index of the last integer digit: -1 when all 17 are fractional
    int_end = np.array([(max(x, -1) if f else 0) for x, f in zip(xs, fixed)])

    # digit j sits at byte 7 + j of the slot, so digits 1-16 and the point
    # fall in words 1-3.  For a point after digit p (-1: none) and a last
    # kept digit `keep`, word i is (w & low) | (w << 8 & high) | dot, with
    # the masks of row (p + 1) * 17 + keep; w is 0 in word 3.
    p = np.arange(-1, 16)[:, None, None]
    j = np.arange(1, 17)
    kept = j <= np.arange(17)[:, None]
    low = kept & ((p < 0) | (j <= p))
    masks = np.zeros((17, 17, 3, 24), np.uint8)
    masks[:, :, 0, 0:16] = low * np.uint8(0xFF)
    masks[:, :, 1, 1:17] = (kept & ~low) * np.uint8(0xFF)
    masks[1:, :, 2, 0:16] = np.eye(16, dtype=np.uint8)[:, None, :] * np.uint8(ord("."))
    masks = masks.reshape(17 * 17, 9 * 8).view(np.uint64).T.copy()
    return pow10, quad, prefix, suffix, int_end, masks


def _exact(value: float) -> bytes:
    """The fallback: Python's own %.17g."""
    return b"%.17g" % value


def _decimal(v: np.ndarray, pow10: np.ndarray):
    """(D, X, fast): v rounds to D * 10**(X - 16) with 10**16 <= D < 10**17
    wherever `fast` holds; elsewhere D and X are placeholders."""
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    # |v| * 10**(16 - X) = fp + q, fp an integer-valued double
    head, head_hi, head_lo, tail = pow10.take(16 - X - _K_MIN, axis=1)
    p = a * head
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    # Dekker: p + e = a * head exactly, e summed left to right in place
    e = a_hi * head_hi
    e -= p
    for x, y in ((a_hi, head_lo), (a_lo, head_hi), (a_lo, head_lo)):
        e += x * y
    fp = np.floor(p)
    e += a * tail
    q = np.subtract(p, fp, out=p)
    q += e
    fq = np.floor(q)
    frac = np.subtract(q, fq, out=q)
    D = fp.astype(np.int64) + fq.astype(np.int64)
    # below 10**16 X is one too high, unless the value rounds up to 10**16
    # at either exponent, as an exact power of ten does
    fast &= (D >= 10**16) | (frac > 1.0 - _TIE_MARGIN)
    D += frac > 0.5
    fast &= (D >= 10**16) & (D < 10**17) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    D[~fast] = 10**16
    X[~fast] = 0
    return D, X, fast


def _digits(D: np.ndarray, quad: np.ndarray):
    """The first of the 17 ASCII digits of D in the top byte of a word, the
    other 16 in two words, and the index of the last nonzero digit."""
    # D = d0 c0 c1 c2 c3: one digit, then four groups of four
    d0 = D // 10**16
    r = D - d0 * 10**16
    h8 = r // 10**8
    l8 = r - h8 * 10**8
    c0 = h8 // 10**4
    c1 = h8 - c0 * 10**4
    c2 = l8 // 10**4
    c3 = l8 - c2 * 10**4
    half = np.uint64(32)
    lead = (d0 + ord("0")).astype(np.uint64) << np.uint64(56)
    words = (quad[c0] | (quad[c1] << half), quad[c2] | (quad[c3] << half))
    # digit j >= 1 is byte (j - 1) % 8 of word (j - 1) // 8.  Less its '0',
    # each byte is at most 9, so frexp's exponent is the exact bit length
    e1, e2 = (np.frexp((w ^ np.uint64(0x3030303030303030)).astype(float))[1] for w in words)
    return lead, words, np.where(e2 > 0, 8 + (e2 + 7) // 8, (e1 + 7) // 8)


def _slots(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(out, fast): each value's four-word slot, its last byte NUL, and where
    the fast path holds; the work arrays die before encode_rows joins."""
    pow10, quad, prefix, suffix, int_end, masks = _tables()
    D, X, fast = _decimal(v, pow10)
    lead, (w1, w2), last = _digits(D, quad)
    X += _X_OFF
    ends = int_end[X]
    # mask row (p + 1) * 17 + keep: p = ends if a digit follows, else -1
    code = np.where(last > ends, (ends + 1) * 17 + last, ends)
    out = np.empty((v.size, 4), np.uint64)
    out[:, 0] = prefix[X + (2 * _X_OFF + 1) * (v < 0)] | lead
    # the digits after the point move one byte up; the last can reach word 3
    eight, top = np.uint64(8), np.uint64(56)
    for i, w, up in ((0, w1, w1 << eight), (1, w2, (w2 << eight) | (w1 >> top))):
        out[:, 1 + i] = (w & masks[i][code]) | (up & masks[3 + i][code])
        out[:, 1 + i] |= masks[6 + i][code]
    out[:, 3] = (w2 >> top & masks[5][code]) | suffix[X]
    return out, fast


def encode_rows(block: np.ndarray) -> bytes:
    """Rows of a 2-D float array as ASCII: each value exactly `%.17g`,
    values joined by ',' and every row ended by '\\n'."""
    rows, cols = block.shape
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    out, fast = _slots(v)
    # the separator sits in the last byte of the slot
    sep = np.full(cols, _word("\0" * 7 + ","), np.uint64)
    sep[-1] = _word("\0" * 7 + "\n")
    out.reshape(rows, cols, 4)[:, :, 3] |= sep

    slots = out.view(np.uint8)
    for i in np.flatnonzero(~fast).tolist():
        text = _exact(float(v[i]))
        slots[i, :31] = 0
        slots[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, _NUL)
