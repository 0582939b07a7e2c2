"""The block text kernel against exact arithmetic and format_value: its
digit tables class by class, a property over random blocks, the slot
layout and both sides of its printf fallback."""

import math
from fractions import Fraction

import numpy as np
import pytest

import ottosim as o
from ottosim import text

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given


def _expected(block, blank):
    """format_value's text of each cell of block, a NaN in a blank column
    written as nothing."""
    return "".join(",".join("" if b and math.isnan(v) else o.format_value(v)
                            for v, b in zip(row, blank)) + "\n"
                   for row in block.tolist()).encode()


def _least_at_or_above(q):
    """The least float >= the Fraction q > 0."""
    x = float(q)
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


def _decade(x):
    """floor(log10(x)) of the float x > 0, exactly."""
    q, X = Fraction(x), math.floor(math.log10(x))
    while Fraction(10) ** X > q:
        X -= 1
    while Fraction(10) ** (X + 1) <= q:
        X += 1
    return X


def _kernel_classes():
    """(X, floats) for every part of a binade of positive floats in which
    floor(log10 x) is one X of the kernel's range: the least and greatest
    float of the part, their neighbours inside it, its middle and a few
    random floats between."""
    rng = np.random.default_rng(2025)
    low = _least_at_or_above(Fraction(10) ** text._X_MIN)
    high = _least_at_or_above(Fraction(10) ** (text._X_MAX + 1))
    b = math.frexp(low)[1] - 1
    while 2.0 ** b < high:
        edges = [2.0 ** b, 2.0 ** (b + 1)]
        X = _decade(edges[0])
        power = _least_at_or_above(Fraction(10) ** (X + 1))
        if power < edges[1]:
            edges.insert(1, power)
        for first, stop in zip(edges, edges[1:]):
            last = math.nextafter(stop, 0.0)
            X = _decade(first)
            if text._X_MIN <= X <= text._X_MAX:
                floats = {first, last, math.nextafter(first, math.inf),
                          math.nextafter(last, 0.0), (first + last) / 2}
                floats.update(rng.uniform(first, last, 5).tolist())
                yield X, sorted(floats)
        b += 1


def test_digits_of_every_class_are_the_exact_rounded_digits():
    classes = list(_kernel_classes())
    # every decimal exponent of the range, most in two binades
    assert sorted({X for X, _ in classes}) == list(
        range(text._X_MIN, text._X_MAX + 1))
    assert len(classes) > 60
    for X, floats in classes:
        # the shift of the 128-bit product stays inside its low limb
        b = math.frexp(floats[0])[1] + 1022
        assert 26 <= X + 1059 - b <= 62
        for x in floats:
            assert _decade(x) == X
            # half to even, as round() rounds a Fraction
            want = round(Fraction(x) * Fraction(10) ** (16 - X))
            assert 10 ** 16 <= want < 10 ** 17
            for signed in (x, -x):
                D, got_X, ok = text._digits(np.array([signed]))
                assert ok.tolist() == [True], signed
                assert (int(D[0]), int(got_X[0])) == (want, X), signed


def test_digits_mark_floats_outside_the_range():
    outside = [0.0, -0.0, 5e-324, 2.2250738585072014e-308,
               math.nextafter(1e-11, 0.0), 1e4, 1e300, math.inf, -math.inf,
               math.nan]
    _, _, ok = text._digits(np.array(outside))
    assert not ok.any()


def test_every_slot_byte_is_kept_by_some_code():
    slots = text._SLOTS.view(np.uint8)
    assert slots.shape[1] == 32
    assert (slots != 0).any(axis=0).all()


def test_one_block_with_and_without_a_cell_for_printf():
    rng = np.random.default_rng(11)
    block = rng.choice([-1.0, 1.0], (40, 9)) * rng.uniform(1.0, 9.9, (40, 9))
    block *= 10.0 ** rng.integers(-11, 4, (40, 9))
    block[:, 4] = rng.integers(0, 2, 40)
    block[::3, 7] = math.nan
    blank = np.arange(9) == 7
    # every cell in the kernel's range, zeros and blanks: no printf text
    _, _, ok = text._digits(block)
    assert (ok | (block == 0.0) | np.isnan(block) & blank).all()
    assert text.block_text(block, blank) == _expected(block, blank)
    for cell in (1e300, -math.inf, math.nan, 5e-324, 1e4):
        outside = block.copy()
        outside[17, 2] = cell
        assert text.block_text(outside, blank) == _expected(outside, blank)


def _steps(x, count):
    """The floats count steps from x, up or down."""
    for _ in range(abs(count)):
        x = math.nextafter(x, math.inf if count > 0 else -math.inf)
    return x


def _ties():
    # N / 2**(17 - X), N odd, has 18 significant digits ending in 5
    def tie(X, fraction):
        f = 17 - X
        low = math.ceil(10.0 ** X * 2 ** f)
        high = int(10.0 ** (X + 1) * 2 ** f)
        return (int(low + fraction * (high - low)) | 1) / 2 ** f
    return st.builds(tie, st.integers(-8, 3), st.floats(0.0, 1.0))


_cells = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     2.5e-310, 2.2250738585072014e-308]),
    st.builds(_steps, st.sampled_from([1e-11, 1e4]), st.integers(-3, 3)),
    st.builds(lambda k, count: _steps(float(f"1e{k}"), count),
              st.integers(-13, 5), st.integers(-3, 3)),
    _ties(),
    st.floats(1e-11, 1e4),
    st.floats(allow_nan=True, allow_infinity=True),
).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def _blocks(draw):
    rows, columns = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    cells = draw(st.lists(_cells, min_size=rows * columns,
                          max_size=rows * columns))
    blank = draw(st.lists(st.booleans(), min_size=columns,
                          max_size=columns))
    return np.array(cells).reshape(rows, columns), np.array(blank)


@hypothesis.settings(max_examples=300, deadline=None)
@given(_blocks())
def test_block_text_is_format_value_of_each_cell(drawn):
    block, blank = drawn
    written = text.block_text(block, blank)
    assert type(written) is bytes
    assert written == _expected(block, blank)
