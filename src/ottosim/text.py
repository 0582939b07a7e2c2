"""The CSV text of numbers, a block of cells at a time.

block_text(block, blank) writes a rectangular float64 block as
sweeps.format_value writes the values its rows stand for: '%.17g' % x
for each cell, nothing for a NaN in a blank column. '%.17g' writes an
integral float below 10**17 (the 0/1 flags among them) as '%d' writes
its int. It works on numpy arrays of the whole block. Zeros and floats
with a decimal exponent from -11 to 3 are written from their 17 exact
digits: the 53-bit mantissa times a power of five is a 128-bit product
in two uint64 limbs, shifted with the half-even rounding that a
correctly rounded printf (CPython's dtoa among them) uses. Every other
cell (NaN outside a blank column, inf, a float outside that range) is
written by printf itself, b'%.17g' % x. Each cell's text is laid out in
a slot of fixed bytes, and one bytearray.translate drops the bytes no
text keeps. sweeps.write_csv gives it a sweep's cells straight from
their float64 table, and writes any other rows with format_value alone.

A slot is 32 bytes, eight uint32 words. It starts with the separator
that goes before its cell, then has room for the sign, the lead "0.000"
of a 0.000ddd, digit columns 3 to 19 of a float's 17 significant digits,
a point after column 3 to 6 (X <= 3 puts none after column 7) and
"e-XX":

    sep - 0 . | 0 0 0 d3 | . d4 . d5 | . d6 . d7 | d8-11 | d12-15
    | d16-19 | e - X X

A cell's code selects the bytes its text keeps; the others are 0. The
first cell of a row is preceded by the line break of the row before, the
block's first cell by nothing, and a line break ends the block.
"""

import math

import numpy as np

_I64, _U64, _U32 = np.int64, np.uint64, np.uint32
# The floats written here: x = m * 2**(b - 1075), b its biased exponent,
# with a decimal exponent X in [_X_MIN, _X_MAX]. Their digits
# D = round(|x| * 10**(16 - X)) = round(m * 5**(16 - X) / 2**s), with
# s = X + 1059 - b, come from m * 5**(16 - X) < 2**128, where
# 5**(16 - X) < 2**64 and 26 <= s <= 62. X > 3 would need a point after
# column 7. A zero is written as 0 * 10**0; every other float takes
# printf's text.
_X_MIN, _X_MAX = -11, 3
# Cell codes: ((X - _X_MIN) * 17 + last - 3) * 2 + negative for a float
# whose text ends with digit column last, then _NAN (a NaN: nothing in
# a blank column, printf's text in any other) and _OUT (printf's text).
_NAN = (_X_MAX + 1 - _X_MIN) * 17 * 2
_OUT = _NAN + 1


def _class_tables():
    """The tables of the class k = 2 * e + bump of a float x, where e =
    x.view(uint64) >> 52 holds its sign and biased exponent b, and bump
    is |x| >= _BOUNDS[e].

    floor(log10(2) * (b - 1023)) is X or X - 1 for every float of
    exponent b; _BOUNDS[e], the least float >= 10**(that + 1), tells the
    two apart (for X in the range written here), so each class has one
    X. For b = 0, the bound is the least subnormal, which leaves 0.0
    alone in its class; for b = 2047 it is inf, below which only NaN
    lies. Per class: X, whether it is written here, 5**(16 - X), s, and
    the code its cells would have with no trailing zero digit, from which
    block_text subtracts twice their trailing zeros. A class not written
    here has the power 0, so its digits are 0, with 16 trailing zeros;
    its code is _NAN or _OUT plus 2 * 16, and 0.0 has the code of 0 *
    10**0.
    """
    b = np.arange(2048)
    decade = (b - 1023) * 78913 >> 18
    bounds = []
    for k in range(_X_MIN, _X_MAX + 2):
        # the float nearest 10**k, or the next one up if that is below it
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        x = num / den
        a, c = x.as_integer_ratio()
        bounds.append(x if a * den >= num * c else math.nextafter(x, 2 * x))
    bounds = np.array(bounds).take(decade + 1 - _X_MIN, mode="clip")
    bounds[[0, -1]] = 5e-324, np.inf
    # per (b, bump); a negative x has the class of |x| plus 4096
    X = decade[:, None] + np.arange(2)
    ok = (X >= _X_MIN) & (X <= _X_MAX)
    powers = np.array([5 ** j for j in range(16 - _X_MAX, 17 - _X_MIN)],
                      dtype=_U64).take(_X_MAX - X, mode="clip")
    powers[~ok] = 0
    s = np.where(ok, X + 1059 - b[:, None], 32).astype(_U64)
    code = np.where(ok, ((X - _X_MIN) * 17 + 16) * 2, _OUT + 32)
    code[0, 0] = ((0 - _X_MIN) * 17 + 16) * 2
    code[-1, 0] = _NAN + 32
    code = code.ravel()
    code = np.r_[code, code + (code < _NAN)]
    return (np.tile(bounds, 2), np.tile(X.ravel(), 2).astype(np.int16),
            np.tile(ok.ravel(), 2), np.tile(powers.ravel(), 2),
            np.tile(s.ravel(), 2), code)


_BOUNDS, _X, _OK, _POWERS, _SHIFTS, _CODES = _class_tables()


def _digit_words(pattern):
    """The word of the 4 or 8 bytes of pattern for each number below
    10**count("d"), its digits in place of the "d"s."""
    count = pattern.count("d")
    words = np.tile(np.frombuffer(pattern.encode(), dtype=np.uint8),
                    (10,) * count + (1,))
    columns = [i for i, c in enumerate(pattern) if c == "d"]
    for k, column in enumerate(columns):
        # the k-th digit runs along axis k
        words[..., column] = np.arange(48, 58, dtype=np.uint8).reshape(
            (10,) + (1,) * (count - 1 - k))
    return words.view(f"u{len(pattern)}").ravel()


_LEADS = _digit_words("000d")
_POINTED = _digit_words(".d.d.d.d")
_QUADS = _digit_words("dddd")
_EXPONENT_WORDS = _digit_words("e-dd")


def _trailing_tables():
    """Per group c1 to c4 of the four digits each that follow d3, a table
    of twice the trailing zeros D would have if the group were its last
    nonzero one: the group's own and every digit after it. Twice D's
    trailing zeros is the least of the four entries, as a group of 0 has
    255, except c1, whose 0 leaves d3 alone (16 trailing zeros)."""
    # zeros[i]: how many of the four digits of i < 10**4 trail as zeros.
    # A digit appended to a number adds one to its count if it is 0, else
    # the count starts again at 0.
    zeros = zero = np.arange(10) == 0
    for _ in range(3):
        zeros = zero * (1 + zeros[..., None])
    zeros = zeros.ravel()
    tables = []
    for after in (12, 8, 4, 0):
        table = (2 * (after + zeros)).astype(np.uint8)
        table[0] = 2 * 16 if after == 12 else 255
        tables.append(table)
    return tables


_TRAILING = _trailing_tables()
# the bytes of a slot that hold digit columns 3-19 and a point after
# columns 3-6
_COLUMNS = np.r_[7:16:2, 16:28]
_POINTS = np.r_[8:15:2]


def _slot_tables():
    """Per cell code, the eight words of its slot with the bytes its text
    does not keep set to 0: fixed bytes as they are, 0xFF for a digit.
    Rows _NAN and _OUT hold the separator alone."""
    X, last, negative = (a.ravel() for a in np.meshgrid(
        np.arange(_X_MIN, _X_MAX + 1), np.arange(3, 20), [0, 1],
        indexing="ij"))
    # a float's text ends with its last nonzero digit or its units digit
    last = np.maximum(last, 3 + np.maximum(X, 0))
    # fixed notation for -4 <= X < 0 leads with "0." and -X-1 zeros
    lead = np.where((X >= -4) & (X < 0), 1 - X, 0)
    # else a point after the units digit, if digits follow it
    point = np.where(lead == 0, 3 + np.maximum(X, 0), -1)
    point[point >= last] = -1
    keep = np.zeros((_OUT + 1, 32), dtype=bool)
    keep[:, 0] = True
    floats = keep[:_NAN]
    floats[:, 1] = negative
    floats[:, 2:7] = np.arange(5) < lead[:, None]
    column = np.arange(3, 20)
    floats[:, _COLUMNS] = column <= last[:, None]
    floats[:, _POINTS] = column[:4] == point[:, None]
    floats[:, 28:] = (X < -4)[:, None]
    slot = np.frombuffer(b",-0.000\xff.\xff.\xff.\xff.\xff".ljust(28, b"\xff")
                         + b"e-00", dtype=_U32)
    slot = np.tile(slot, (len(keep), 1))
    slot[:_NAN, 7] = _EXPONENT_WORDS.take(-X, mode="clip")
    return np.where(keep, slot.view(np.uint8), 0).view(_U32)


_SLOTS = _slot_tables()


def _scaled(x):
    """(D, k) for floats x: D = round(|x| * 10**(16 - X)), half to even,
    as uint64, and k the class of each x (see _class_tables); D is 0 for
    a class not written here."""
    a = np.abs(x)
    k = (x.view(_U64) >> _U64(52)).view(_I64)
    bound = _BOUNDS.take(k)
    k += k
    k += a >= bound
    m = a.view(_U64)
    ml = m & _U64(2 ** 32 - 1)
    m = m >> _U64(32)
    m &= _U64(2 ** 20 - 1)
    m |= _U64(2 ** 20)
    del a, bound
    # m * p = hi * 2**64 + lo, from the 32-bit halves of m and p
    p = _POWERS.take(k)
    high = _U64(32)
    pl = p & _U64(2 ** 32 - 1)
    p >>= high
    lo = ml * pl
    mid = m * pl
    ml *= p
    mid += ml
    m *= p
    hi = m
    del ml, pl, p, m
    carry = mid << high
    lo += carry
    hi += lo < carry
    mid >>= high
    hi += mid
    del carry, mid
    s = _SHIFTS.take(k)
    D = lo >> s
    s = _U64(64) - s
    hi <<= s
    D |= hi
    # r, the s bits shifted out, against half a unit, ties to even: with
    # s <= 62, r * 2**(63 - s) + (D & 1) + 2**62 - 1 reaches 2**63
    # exactly when r > 2**(s - 1), or r == 2**(s - 1) and D is odd
    lo <<= s
    lo >>= _U64(1)
    lo += D & _U64(1)
    lo += _U64(2 ** 62 - 1)
    lo >>= _U64(63)
    D += lo
    return D, k


def _digits(x):
    """(D, X, ok) for floats x: D = round(|x| * 10**(16 - X)), half to even,
    10**16 <= D < 10**17, where X = floor(log10|x|); ok marks the x
    written here (D and X are garbage elsewhere).

    X is also the exponent %.17g prints: no float in the range written
    here rounds up to the next power of ten, as none lies within half a
    unit of the 17th digit below it (checked in the tests).
    """
    D, k = _scaled(x)
    return D.view(_I64), _X.take(k), _OK.take(k)


def block_text(block, blank):
    """The CSV text of the float64 cells of block, of shape (rows,
    columns), whose columns in the mask blank write a NaN as nothing: the
    ASCII bytes of the rows, each cell followed by "," or, at the end of
    its row, a line break.

    Floats in _digits's range, zeros and blanks are written from their
    digits; every other cell (NaN outside a blank column, inf, other
    floats) takes printf's own text, at most 24 bytes, in its slot after
    the separator, a step a block without such a cell skips.
    """
    n, width = block.shape
    x = block.reshape(-1)
    U, k = _scaled(x)
    # U's digits: d3, then c1 to c4 of four each
    d3 = U // _U64(10 ** 16)
    U -= d3 * _U64(10 ** 16)
    c2 = U // _U64(10 ** 8)
    U -= c2 * _U64(10 ** 8)
    c1 = c2 // _U64(10 ** 4)
    c2 -= c1 * _U64(10 ** 4)
    c3 = U // _U64(10 ** 4)
    U -= c3 * _U64(10 ** 4)
    d3, c1, c2, c3, c4 = (c.view(_I64) for c in (d3, c1, c2, c3, U))
    trailing = _TRAILING[0].take(c1)
    for table, c in zip(_TRAILING[1:], (c2, c3, c4)):
        np.minimum(trailing, table.take(c), out=trailing)
    code = _CODES.take(k)
    code -= trailing
    del U, k, trailing
    cells = len(x)
    buffer = bytearray(32 * cells + 1)
    buffer[-1] = ord("\n")
    slots = np.frombuffer(buffer, dtype=_U32, count=8 * cells).reshape(-1, 8)
    np.take(_SLOTS, code, axis=0, out=slots, mode="clip")
    slots[:, 1] &= _LEADS.take(d3)
    slots.view(_U64)[:, 1] &= _POINTED.take(c1)
    slots[:, 4] &= _QUADS.take(c2)
    slots[:, 5] &= _QUADS.take(c3)
    slots[:, 6] &= _QUADS.take(c4)
    del d3, c1, c2, c3, c4
    slot_bytes = slots.view(np.uint8)
    # _NAN and _OUT are the largest codes
    if code.max() >= _NAN:
        # printf's text of each cell not written above, after its
        # separator; a NaN in a blank column stays blank
        left = (code >= _NAN).reshape(n, width)
        left[:, blank] = code.reshape(n, width)[:, blank] == _OUT
        rest = np.flatnonzero(left)
        texts = np.array([b"%.17g" % v for v in x[rest].tolist()], "S31")
        slot_bytes[rest, 1:] = texts.view(np.uint8).reshape(-1, 31)
    rows = slot_bytes.reshape(n, -1)
    rows[:, 0] = ord("\n")
    rows[0, 0] = 0
    return buffer.translate(None, b"\0")
