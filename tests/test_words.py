"""The 8-byte word helpers both array scans read through, against plain
Python integers; the scans' own tests take them only through whole blocks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdgate import words

EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True)


def as_words(blobs):
    """The little-endian uint64 words of 8-byte strings."""
    return np.array([int.from_bytes(blob, "little") for blob in blobs], np.uint64)


@EXAMPLES
@given(st.lists(st.lists(st.integers(0, 9), min_size=8, max_size=8), min_size=1))
def test_digits_to_int_reads_eight_digits(digits):
    d = as_words([bytes(d) for d in digits])
    read = words._digits_to_int(d)
    assert read.tolist() == [int("".join(map(str, d))) for d in digits]


@EXAMPLES
@given(st.lists(st.lists(st.integers(0, 1), min_size=8, max_size=8), min_size=1))
def test_byte_count_counts_one_bytes(flags):
    counted = words._byte_count(as_words([bytes(f) for f in flags]))
    assert counted.tolist() == [sum(f) for f in flags]


@pytest.mark.parametrize("n", range(9))
def test_last_bytes_masks_the_last_n_bytes(n):
    assert int(words._LAST_BYTES[n]) == int.from_bytes(bytes(8 - n) + b"\xff" * n, "little")


@EXAMPLES
@given(st.binary(min_size=8, max_size=64))
def test_words_at_every_offset(blob):
    read = words._words(np.frombuffer(blob, np.uint8))
    offsets = range(len(blob) - 7)
    assert read.tolist() == [int.from_bytes(blob[i : i + 8], "little") for i in offsets]


# blocks of line ends, digits, commas and other bytes
_BLOCKS = st.lists(st.sampled_from(b"\n\r0,9a\xff\0"), max_size=40).map(bytes)


@EXAMPLES
@given(
    head=_BLOCKS, block=_BLOCKS, tail=_BLOCKS, before=st.integers(0, 40), after=st.integers(1, 9)
)
@example(head=b"", block=b"", tail=b"", before=0, after=1)
@example(head=b"x", block=b"", tail=b"7", before=8, after=1)
@example(head=b"", block=b"7", tail=b"", before=0, after=1)
@example(head=b"", block=b"\n", tail=b"", before=24, after=8)
@example(head=b"1\n", block=b"2\n\n", tail=b"3", before=32, after=3)
def test_padded_copies_the_block_between_zero_bytes(head, block, tail, before, after):
    data = head + block + tail
    buf, stop = words._padded(data, len(head), len(head) + len(block), before, after)
    added = b"\n" if block and not block.endswith(b"\n") else b""
    assert buf.dtype == np.uint8
    assert len(buf) == before + len(block) + after
    assert buf.tobytes() == bytes(before) + block + added + bytes(after - len(added))
    assert stop == before + len(block) + len(added)
