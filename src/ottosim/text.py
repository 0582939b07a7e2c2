"""The CSV text of numbers, a block of cells at a time.

cell_text(cells, ends) writes each cell as sweeps.format_value does:
'%.17g' % x for a float x, '%d' % v for an int or bool v, nothing for
None. It works on numpy arrays of the whole block. A float's 17 digits
are exact: its 53-bit mantissa times a power of five is a 128-bit product
in two uint64 limbs, shifted with the half-even rounding that a correctly
rounded printf (CPython's dtoa among them) uses. Each cell's text is laid
out in a slot of fixed bytes, and one bytearray.translate drops the bytes
no text keeps. The cells it does not write (other types, floats outside its
range, ints of 17 digits or more) go back to the caller, to be written by
format_value.

A slot is 36 bytes, nine uint32 words, with room for the sign, the lead
"0.000" of a 0.000ddd, digit columns 3 to 19 of an integer U < 10**17 (a
float's significant digits or an int's magnitude), a point after column
3 to 7, "e-XX" and the separator:

    - 0 . 0 | 0 0 d3 . | d4 . d5 . | d6 . d7 . | d8-11 | d12-15 | d16-19
    | e - X X | , and three pad bytes

A cell's code selects the bytes its text keeps; the others are 0.
"""

import math

import numpy as np

_I64, _U64, _U32 = np.int64, np.uint64, np.uint32
# The floats written here: x = m * 2**(b - 1075), b its biased exponent,
# with a decimal exponent X in [_X_MIN, _X_MAX]. Their digits
# D = round(|x| * 10**(16 - X)) = round(m * 5**(16 - X) / 2**s), with
# s = X + 1059 - b, come from m * 5**(16 - X) < 2**128, where
# 5**(16 - X) < 2**64 and 1 <= s <= 63. X > 3 would need a point after
# column 7. Every other float but 0.0 goes back to the caller.
_X_MIN, _X_MAX = -11, 3
_FIVES = np.array([5 ** j for j in range(16 - _X_MAX, 17 - _X_MIN)],
                  dtype=_U64)


def _exponent_tables():
    """Per biased exponent b: floor(log10(2) * (b - 1023)), which is X or
    X - 1 for every float of exponent b, and the least float >= 10**(that
    + 1), which tells the two apart (for X in the range written here)."""
    X = np.arange(-1023, 1025, dtype=_I64) * 78913 // 2 ** 18
    bounds = []
    for k in range(_X_MIN, _X_MAX + 2):
        # the float nearest 10**k, or the next one up if that is below it
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        x = num / den
        a, b = x.as_integer_ratio()
        bounds.append(x if a * den >= num * b else math.nextafter(x, 2 * x))
    return X, np.array(bounds).take(X + 1 - _X_MIN, mode="clip")


_DECADES, _BOUNDS = _exponent_tables()
# _TENS[k]: 10**(k + 1), to count the digits of an int
_TENS = np.array([10 ** k for k in range(1, 17)], dtype=_I64)


def _digit_words(pattern):
    """The uint32 word of the four bytes of pattern for each number below
    10**count("d"), its digits in place of the "d"s."""
    count = pattern.count("d")
    words = np.tile(np.frombuffer(pattern.encode(), dtype=np.uint8),
                    (10,) * count + (1,))
    columns = [i for i, c in enumerate(pattern) if c == "d"]
    for k, column in enumerate(columns):
        # the k-th digit runs along axis k
        words[..., column] = np.arange(48, 58, dtype=np.uint8).reshape(
            (10,) + (1,) * (count - 1 - k))
    return words.view(_U32).ravel()


_LEADS = _digit_words("00d.")
_PAIRS = _digit_words("d.d.")
_QUADS = _digit_words("dddd")
_EXPONENT_WORDS = _digit_words("e-dd")
# _ZEROS[i]: how many of the four digits of i < 10**4 trail as zeros. A
# digit appended to a number adds one to its count if it is 0, else the
# count starts again at 0.
_ZEROS = _zero = np.arange(10) == 0
for _ in range(3):
    _ZEROS = _zero * (1 + _ZEROS[..., None])
_ZEROS = _ZEROS.ravel()
# the bytes of a slot that hold digit columns 3-19, a point after columns
# 3-7, and the separator
_COLUMNS = np.r_[6, 8:16:2, 16:28]
_POINTS = np.r_[7, 9:16:2]
_SEP = 32


def _slot_tables():
    """Per cell code, the nine words of its slot with the bytes its text
    does not keep set to 0: fixed bytes as they are, 0xFF for a digit.

    Codes below _WHOLE are floats, ((X - _X_MIN) * 17 + last - 3) * 2 +
    negative, where last is the digit column the text ends with; then
    integers, _WHOLE + (first - 3) * 2 + negative, where first is the
    column of their first digit; then _BLANK, the separator alone.
    """
    X, last, negative = (a.ravel() for a in np.meshgrid(
        np.arange(_X_MIN, _X_MAX + 1), np.arange(3, 20), [0, 1],
        indexing="ij"))
    # fixed notation for -4 <= X < 0 leads with "0." and -X-1 zeros
    lead = np.where((X >= -4) & (X < 0), 1 - X, 0)
    # else a point after the units digit, if digits follow it
    point = np.where(lead == 0, 3 + np.maximum(X, 0), -1)
    point[point >= last] = -1
    rest = 2 * 17 + 1  # the integer codes and _BLANK
    first = np.r_[np.full(len(X), 3), np.arange(3, 20).repeat(2), 20]
    last = np.r_[last, np.full(rest, 19)]
    negative = np.r_[negative, np.tile([0, 1], 17), 0]
    lead = np.r_[lead, np.zeros(rest, int)]
    point = np.r_[point, np.full(rest, -1)]
    X = np.r_[X, np.zeros(rest, int)]
    keep = np.zeros((len(X), 36), dtype=bool)
    keep[:, 0] = negative
    keep[:, 1:6] = np.arange(5) < lead[:, None]
    column = np.arange(3, 20)
    keep[:, _COLUMNS] = (column >= first[:, None]) & (column <= last[:, None])
    keep[:, _POINTS] = column[:5] == point[:, None]
    keep[:, 28:32] = (X < -4)[:, None]
    keep[:, _SEP] = True
    slot = np.frombuffer(b"-0.000\xff.\xff.\xff.\xff.".ljust(28, b"\xff")
                         + b"e-00,\0\0\0", dtype=_U32)
    slot = np.tile(slot, (len(X), 1))
    slot[:, 7] = _EXPONENT_WORDS.take(-X, mode="clip")
    return np.where(keep, slot.view(np.uint8), 0).view(_U32)


_SLOTS = _slot_tables()
_KEPT = np.count_nonzero(_SLOTS.view(np.uint8), axis=1)
_WHOLE = 2 * 17 * (_X_MAX + 1 - _X_MIN)
_BLANK = len(_SLOTS) - 1


def _digits(x):
    """(D, X, ok) for floats x: D = round(|x| * 10**(16 - X)), half to even,
    10**16 <= D < 10**17, where X = floor(log10|x|); ok marks the x
    written here (D and X are garbage elsewhere).

    X is also the exponent %.17g prints: no float in the range written
    here rounds up to the next power of ten, as none lies within half a
    unit of the 17th digit below it (checked in the tests).
    """
    a = np.abs(x)
    b = (a.view(_U64) >> _U64(52)).view(_I64)
    X = _DECADES.take(b)
    X += a >= _BOUNDS.take(b)
    ok = (X - _X_MIN).view(_U64) <= _X_MAX - _X_MIN
    m = a.view(_U64) & _U64(2 ** 52 - 1)
    m |= _U64(2 ** 52)
    p = _FIVES.take(_X_MAX - X, mode="clip")
    s = np.clip(X + (1059 - b), 1, 63).astype(_U64)
    del a, b
    # m * p = hi * 2**64 + lo, from the 32-bit halves of m and p
    low, high = _U64(2 ** 32 - 1), _U64(32)
    ml, pl = m & low, p & low
    m >>= high
    p >>= high
    lo = ml * pl
    mid = m * pl
    ml *= p
    mid += ml
    m *= p
    hi = m
    del ml, pl, m, p
    carry = mid << high
    lo += carry
    hi += lo < carry
    mid >>= high
    hi += mid
    del carry, mid
    D = lo >> s
    hi <<= _U64(64) - s
    D |= hi
    # the bits shifted out against half a unit, ties to even
    half = _U64(1) << (s - _U64(1))
    lo &= half + (half - _U64(1))
    lo += D & _U64(1)
    D += lo > half
    return D.view(_I64), X, ok


def cell_text(cells, ends):
    """(text, rest) for a flat list of cells whose rows end at the cell
    indices in ends: text is the ASCII bytes of the rows, each cell
    followed by "," or, at the end of its row, a line break; rest lists
    (i, offset) for each cell i not written, in order, whose text goes at
    byte offset of text, before its separator.

    Written here: floats in _digits's range, 0.0, ints below 10**17 in
    magnitude, bools and None.
    """
    n = len(cells)
    obj = np.fromiter(cells, object, n)
    types = np.fromiter(map(type, cells), object, n)
    floats = types == float
    x = np.zeros(n)
    x[floats] = obj[floats].astype(np.float64)
    U, X, ok = _digits(x)
    U[~ok] = 0
    negative = np.signbit(x)
    others = np.flatnonzero(~floats)
    kinds = types[others]
    ints = others[(kinds == int) | (kinds == bool)]
    try:
        values = obj[ints].astype(_I64)
    except OverflowError:
        ints = ints[[-2 ** 63 <= v < 2 ** 63 for v in obj[ints]]]
        values = obj[ints].astype(_I64)
    small = (values > -10 ** 17) & (values < 10 ** 17)
    ints, values = ints[small], values[small]
    negative[ints] = values < 0
    U[ints] = np.abs(values)
    whole = np.concatenate([ints, np.flatnonzero(floats & (x == 0.0))])
    blank = others[kinds == type(None)]
    del obj, types, floats, x, others, kinds, values, small
    # an int's first digit column less 3, from its digit count
    first = 16 - np.searchsorted(_TENS, U[whole], side="right")
    # U's digits: d3, then c1 to c4 of four each
    d3 = U // 10 ** 16
    U -= d3 * 10 ** 16
    groups = []
    for scale in (10 ** 12, 10 ** 8, 10 ** 4):
        c = U // scale
        U -= c * scale
        groups.append(c)
    groups.append(U)
    trailing = 0
    for c in groups:
        trailing = _ZEROS.take(c) + (c == 0) * trailing
    # a float's text ends with its last nonzero digit (d3 > 0) or its
    # units digit
    last = np.maximum(19 - trailing, 3 + np.maximum(X, 0))
    code = ((X - _X_MIN) * 17 + last - 3) * 2 + negative
    code[~ok] = _BLANK
    code[whole] = _WHOLE + 2 * first + negative[whole]
    del U, X, ok, negative, trailing, last
    buffer = bytearray(36 * n)
    slots = np.frombuffer(buffer, dtype=_U32).reshape(n, 9)
    np.take(_SLOTS, code, axis=0, out=slots, mode="clip")
    c1, c2, c3, c4 = groups
    slots[:, 1] &= _LEADS.take(d3)
    pair = c1 // 100
    slots[:, 2] &= _PAIRS.take(pair)
    slots[:, 3] &= _PAIRS.take(c1 - pair * 100)
    slots[:, 4] &= _QUADS.take(c2)
    slots[:, 5] &= _QUADS.take(c3)
    slots[:, 6] &= _QUADS.take(c4)
    del slots, groups, c1, c2, c3, c4, d3, pair
    np.frombuffer(buffer, dtype=np.uint8)[
        np.asarray(ends) * 36 + _SEP] = ord("\n")
    text = buffer.translate(None, b"\0")
    left = code == _BLANK
    left[blank] = False
    if not left.any():
        return text, []
    rest = np.flatnonzero(left)
    offsets = np.cumsum(_KEPT.take(code)) - 1
    return text, list(zip(rest.tolist(), offsets[rest].tolist()))
