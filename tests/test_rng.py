"""In-place reads of a Philox stream against serial draws from it."""

import numpy as np
import pytest

from ipmaps.rng import RandomStream

# words into the stream before the read: every position in Philox's
# buffer of four words, and past a whole block of them
OFFSETS = [0, 1, 2, 3, 4]
WORDS = [0, 1, 3, 4, 5, 1000, 1003]


def _stream(offset):
    stream = RandomStream(41)
    stream.gen.random(offset)
    return stream


@pytest.mark.parametrize("words", WORDS)
@pytest.mark.parametrize("offset", OFFSETS)
def test_ahead_reads_what_serial_draws_give(offset, words):
    stream, serial = _stream(offset), _stream(offset)
    got = stream.ahead(words).random(9)
    serial.gen.random(words)
    assert np.array_equal(got, serial.gen.random(9))
    # the stream read from stays where it stood
    assert np.array_equal(stream.gen.random(5), _stream(offset).gen.random(5))


@pytest.mark.parametrize("words", WORDS)
@pytest.mark.parametrize("offset", OFFSETS)
def test_skip_moves_the_stream_as_drawing_would(offset, words):
    stream, serial = _stream(offset), _stream(offset)
    stream.skip(words)
    serial.gen.random(words)
    assert np.array_equal(stream.gen.random(9), serial.gen.random(9))
    # a pending half word of 32-bit draws is kept
    assert np.array_equal(stream.gen.integers(0, 7, 5),
                          serial.gen.integers(0, 7, 5))
    stream.skip(words)
    serial.gen.random(words)
    assert np.array_equal(stream.gen.integers(0, 7, 5),
                          serial.gen.integers(0, 7, 5))
