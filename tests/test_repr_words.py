"""burke.repr_words writes float64 values byte for byte as repr writes them:
Schubfach's shortest digits in repr's positional layout, repr itself for
the rest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmaps.burke import repr_words


def _assert_written_as_repr(values):
    values = np.asarray(values, dtype=np.float64)
    text = repr_words(values).tobytes().translate(None, b"\0")
    assert text[:1] == b","
    assert text[1:].split(b",") == [repr(v).encode() for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(patterns):
    _assert_written_as_repr(np.array(patterns, np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=64))
def test_floats(values):
    _assert_written_as_repr(values)


def test_every_power_of_two():
    # the bottom of a binade has Schubfach's asymmetric rounding interval
    powers = 2.0 ** np.arange(-1074, 1024)
    assert len(powers) == 2098
    _assert_written_as_repr(np.concatenate([powers, -powers]))


def test_the_integers_to_a_hundred_thousand():
    _assert_written_as_repr(np.arange(-10**5, 10**5 + 1, dtype=np.float64))


@pytest.mark.parametrize("edge", [1e-4, 1e16])
def test_the_neighbours_of_the_positional_layouts_edges(edge):
    # repr writes an exponent below 1e-4 and from 1e16
    near = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    _assert_written_as_repr(near + [-v for v in near])


def test_ties_go_to_the_even_digit():
    # between 2**50 and 2**51 the floats are quarters, and each .25 or .75
    # lies halfway between two shortest decimals that both read back to it
    quarters = (2**52 + 2 * np.arange(1000) + 1) / 4
    _assert_written_as_repr(np.concatenate([quarters, -quarters]))


def test_the_extremes():
    big = np.finfo(np.float64).max
    _assert_written_as_repr([5e-324, -5e-324, big, -big, -0.0, 0.0, np.nan,
                             np.inf, -np.inf, 2.2250738585072014e-308])


def test_a_block_of_one_value_of_each_kind():
    # each row takes as many words as the longest of its block needs
    values = [1.0, -0.5, 123456789.125, 1e-4 * 1.2345678901234567, np.nan,
              1e300, 7e-310, 9999999999999998.0]
    for i in range(len(values)):
        _assert_written_as_repr(values[i:] + values[:i])
