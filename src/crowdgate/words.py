"""Little-endian 8-byte words of text blocks, read as whole arrays.

Both array scans, of detections blocks (``scan.scan_block``) and of
count-CSV blocks (``counting._scan_body``), copy a block into a
zero-padded buffer (``_padded``) and read its bytes back 8 at a time as
uint64 words (``_words``), whose digit bytes they sum at once (SWAR).
What each format's fields are stays with its scan; this module holds the
word arithmetic alone, and imports only numpy.
"""

from __future__ import annotations

import numpy as np

_ONES = np.uint64(0x0101010101010101)
_DIGIT_VALUES = np.uint64(0x0F0F0F0F0F0F0F0F)  # the value of each digit byte of a word
# _LAST_BYTES[n]: the last n bytes of a word, where an n-byte number ends
_LAST_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * n)) if n else 0 for n in range(9)], np.uint64)


def _padded(data, start: int, end: int, before: int, after: int):
    """(buf, stop): the bytes ``data[start:end]`` in a uint8 array after
    ``before`` zero bytes and before ``after`` more, and the offset in it
    past the block's last line end.

    A block that does not end in a line end, as a file's last line may
    not, gets one in the first byte after it; an empty block gets none.
    """
    size = end - start
    buf = np.zeros(before + size + after, np.uint8)
    buf[before : before + size] = np.frombuffer(data, np.uint8, size, start)
    stop = before + size
    if size and buf[stop - 1] != ord("\n"):
        buf[stop] = ord("\n")
        stop += 1
    return buf, stop


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian uint64 of the 8 bytes at each offset of ``buf``."""
    return np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))


def _digits_to_int(d):
    """The integers of words of eight digit values each, the first in the
    low byte; ``d`` is overwritten with them."""
    t = np.empty_like(d)
    for shift, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        np.right_shift(d, np.uint64(shift), out=t)  # the next 1, 2 or 4 digits
        d *= np.uint64(10 ** (shift // 8))
        d += t
        d &= np.uint64(mask)
    return d


def _byte_count(flags):
    """How many bytes of each word are 1, for words of 0 and 1 bytes;
    ``flags`` is overwritten with the counts."""
    flags *= _ONES
    flags >>= np.uint64(56)
    return flags
