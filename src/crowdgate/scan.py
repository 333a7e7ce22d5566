"""The whole-array scan of canonical detections lines.

The block walk (``ingest._walk``) hands each block of a detections body
(``ingest._read_detections``) to ``scan_block``, which reads the
canonical lines, those ``crowdgate ingest`` writes, as numpy arrays, and
returns None for anything else, which the per-line parser then reads or
rejects. Only ``_read_detections`` and ``counting._digit_fields`` import
it, when called.
"""

from __future__ import annotations

import numpy as np

from .ingest import _BLOCK_BYTES, _INT64_DIGITS, _INT64_MAX

# A block longer than this is left to the per-line parse; a block's scan
# peaks at about 15 times its bytes. A block ends at the first line end past
# _BLOCK_BYTES, so only a line of over three blocks makes one this long.
_SCAN_BYTES_MAX = 4 * _BLOCK_BYTES
_LINE_START = b'{"frame_index":'
# The text between two numbers of canonical lines, or after the last one:
# (skeleton, field of the number before it, field of the number after it).
# Fields: 0 frame_index, 1 timestamp_ms, 2-6 x, y, w, h, score, 7 class_id,
# and 8, the end of the block. Each skeleton differs from the others in its
# length or its third byte.
_SKELETONS = (
    (b',"timestamp_ms":', 0, 1),
    (b',"boxes":[{"x":', 1, 2),
    (b',"boxes":[]}\n{"frame_index":', 1, 0),
    (b',"boxes":[]}\n', 1, 8),
    (b',"y":', 2, 3),
    (b',"w":', 3, 4),
    (b',"h":', 4, 5),
    (b',"score":', 5, 6),
    (b',"class_id":', 6, 7),
    (b'},{"x":', 7, 2),
    (b'}]}\n{"frame_index":', 7, 0),
    (b"}]}\n", 7, 8),
)
_INT_FIELDS = np.array([True, True, False, False, False, False, False, True])
# Bytes of a number's window before its end (the number) and after it (the
# skeleton); a multiple of 8 and longer than every skeleton.
_SPAN = 32
_ONES = np.uint64(0x0101010101010101)
_POW10 = 10.0 ** np.arange(23)  # exact doubles


def _skeleton_tables():
    """Lookup tables of ``_SKELETONS``, indexed by skeleton kind.

    ``kind[length * 256 + third byte]`` is the kind of a gap, and
    ``len(_SKELETONS)`` where there is none. A kind's skeleton is the
    ``_SPAN`` bytes after a number masked to its length, as 8-byte words.
    """
    kind = np.full(_SPAN * 256, len(_SKELETONS), np.intp)
    text = np.zeros((len(_SKELETONS), _SPAN // 8), np.uint64)
    mask = np.zeros_like(text)
    for k, (skeleton, _, _) in enumerate(_SKELETONS):
        kind[len(skeleton) * 256 + skeleton[2]] = k
        text[k] = np.frombuffer(skeleton.ljust(_SPAN, b"\0"), "<u8")
        mask[k] = np.frombuffer(b"\xff" * len(skeleton) + bytes(_SPAN - len(skeleton)), "<u8")
    before = np.array([b for _, b, _ in _SKELETONS], np.int8)
    after = np.array([a for _, _, a in _SKELETONS], np.int8)
    return kind, text, mask, before, after


_KIND, _SKELETON_TEXT, _SKELETON_MASK, _BEFORE, _AFTER = _skeleton_tables()
# _LAST_BYTES[n]: the last n bytes of a word, where an n-byte number ends
_LAST_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * n)) if n else 0 for n in range(9)], np.uint64)


def scan_block(data, start, end):
    """(Columns, line count) of the lines ``data[start:end]`` if all are
    canonical, else None.

    Numbers are the maximal runs of ``-.0-9``. The bytes between two of
    them, and after the last, must be ``_SKELETONS`` in grammar order, so
    each number's field is known. A number must be JSON (no leading zero,
    a digit each side of the dot, ``-`` only first). A float field has at
    most 15 significant and 22 fraction digits: its digits make an integer
    m < 10**15 and its value, m / 10**k for k fraction digits, is then the
    correctly rounded double, as ``json.loads`` gives (Clinger's fast
    path: Clinger 1990, "How to read floating point numbers accurately",
    PLDI). An integer field has no sign or dot, at most 19 digits and fits
    int64. Boxes must pass the per-line range checks. Anything else makes
    the block fall back to the per-line parse, which also checks the
    frame order here. Each step is a function of its own, so that its
    temporaries are freed before the next.
    """
    size = end - start
    if size > _SCAN_BYTES_MAX or data[start : start + len(_LINE_START)] != _LINE_START:
        return None
    buf = np.zeros(size + 1 + 2 * _SPAN, np.uint8)  # zero padding each side
    buf[_SPAN : _SPAN + size] = np.frombuffer(data, np.uint8, size, start)
    stop = _SPAN + size
    if buf[stop - 1] != ord("\n"):
        buf[stop] = ord("\n")  # the file's last line may lack its line end
        stop += 1
    spans = _number_spans(buf)
    if spans is None:
        return None
    starts, ends = spans
    # Each number's window: the _SPAN bytes up to its end, then the _SPAN
    # after it, as little-endian 8-byte words (the first byte is the lowest).
    windows = np.ndarray((len(buf) - 2 * _SPAN + 1,), f"V{2 * _SPAN}", buf, strides=(1,))
    window = windows[ends - _SPAN].view("<u8").reshape(len(ends), 2 * _SPAN // 8)
    field_of = _skeleton_fields(window, starts, ends, stop)
    lengths = ends - starts
    words = -(-int(lengths.max()) // 8)
    if field_of is None or words > _SPAN // 8:
        return None
    # the words holding the numbers, the last first
    tails = [window[:, _SPAN // 8 - 1 - i].copy() for i in range(words)]
    del window
    signed = _number_syntax(buf)
    if signed is None:
        return None
    mantissa, exact, fraction, dots = _number_values(tails, lengths)
    negative = buf[starts] == ord("-") if signed else False
    bad = np.where(
        _INT_FIELDS.take(field_of),
        negative | (dots != 0) | (lengths > _INT64_DIGITS) | (exact > np.uint64(_INT64_MAX)),
        (dots > 1) | (mantissa >= 1e15) | (fraction > 22),
    )
    if bad.any():
        return None
    value = mantissa / _POW10.take(fraction.astype(np.intp))
    if signed:  # after the division, so that -0.0 stays negative; -0 is 0
        np.negative(value, out=value, where=negative & ((dots != 0) | (mantissa != 0)))

    lines = np.flatnonzero(field_of == 0)
    boxes = np.flatnonzero(field_of == 2)
    x, y, w, h, score = (value.take(boxes + j) for j in range(5))
    if not ((w > 0) & (h > 0) & (score >= 0) & (score <= 1)).all():
        return None
    exact = exact.view(np.int64)
    counts = (np.diff(lines, append=len(field_of)) - 2) // 6
    frame_index, timestamp_ms, class_id = (exact.take(at) for at in (lines, lines + 1, boxes + 5))
    return (frame_index, timestamp_ms, counts, x, y, w, h, score, class_id), len(lines)


def _number_spans(buf):
    """(starts, ends) of the numbers in the block, or None if one holds a "/"."""
    if (buf == ord("/")).any():
        return None  # "/" lies between "." and "0"
    number = (buf - np.uint8(ord("-"))) < 13
    edges = np.flatnonzero(number[1:] != number[:-1]) + 1
    if not len(edges) or edges[0] != _SPAN + len(_LINE_START):
        return None
    return edges[0::2].copy(), edges[1::2].copy()


def _skeleton_fields(window, starts, ends, stop):
    """Each number's field, or None unless the bytes around the numbers are
    ``_SKELETONS`` in grammar order; ``stop`` ends the block's bytes."""
    n = len(starts)
    gap = np.empty(n, np.intp)
    np.subtract(starts[1:], ends[:-1], out=gap[:-1])
    gap[-1] = stop - ends[-1]
    np.minimum(gap, _SPAN - 1, out=gap)
    kind = _KIND.take(gap * 256 + window.view(np.uint8)[:, _SPAN + 2])
    if (kind == len(_SKELETONS)).any():
        return None
    skeleton = window[:, _SPAN // 8 :].copy()
    skeleton &= _SKELETON_MASK.take(kind, axis=0)
    if not np.array_equal(skeleton, _SKELETON_TEXT.take(kind, axis=0)):
        return None
    field_of = np.empty(n + 1, np.int8)
    field_of[0] = 0  # _LINE_START
    field_of[1:] = _AFTER.take(kind)
    if field_of[-1] != 8 or not np.array_equal(_BEFORE.take(kind), field_of[:-1]):
        return None
    return field_of[:-1]


def _number_syntax(buf):
    """None unless every number is JSON; else whether any has a sign."""
    number = (buf - np.uint8(ord("-"))) < 13
    digit = (buf - np.uint8(ord("0"))) < 10
    if ((buf[1:-1] == ord(".")) & ~(digit[:-2] & digit[2:])).any():
        return None  # a dot needs a digit on each side
    first = ~number[:-2]  # first[i]: byte i + 1 starts its number
    minus = buf == ord("-")
    signed = bool(minus.any())
    if signed:
        if (minus[1:-1] & ~(first & digit[2:])).any():
            return None  # a sign comes first, before a digit
        first |= minus[:-2]
    if ((buf[1:-1] == ord("0")) & first & digit[2:]).any():
        return None  # a leading zero
    return signed


def _number_values(tails, lengths):
    """(mantissa, exact, fraction digits, dots) of each number.

    ``tails[i]`` holds bytes ``8 * i`` to ``8 * i + 7`` from each number's
    end. The digit bytes of each word, with the dot squeezed out, read as
    one integer (SWAR); a word before the dot weighs a tenth as much. The
    float64 mantissa is exact below 10**15; ``exact`` is the uint64
    integer of numbers of at most 19 digits and no dot.
    """
    for i, word in enumerate(tails):
        word &= _LAST_BYTES.take(np.clip(lengths - 8 * i, 0, 8))
        digits = (word >> np.uint64(4)) & _ONES  # 1 in each digit byte
        dot = (word >> np.uint64(1)) & ~word & ~digits & _ONES  # "." = 0x2e, "-" = 0x2d
        below = dot - np.minimum(dot, np.uint64(1))  # the bytes before the dot
        value = word & (digits * np.uint64(15))
        value = (value & ~below) | ((value & below) << np.uint64(8))
        value = _digits_to_int(value)
        # digits after this word's dot; a dot in word i also has every digit
        # of words 0 to i - 1 (``seen``) after it
        after = _byte_count(digits & ~((dot << np.uint64(1)) - np.uint64(1)))
        if i == 0:
            mantissa, exact, fraction = value.astype(np.float64), value, after
            dots, seen = _byte_count(dot), _byte_count(digits)
            continue
        mantissa += value * np.where(dots != 0, 10.0 ** (8 * i - 1), 10.0 ** (8 * i))
        if i < 3:  # integer fields have at most 19 digits
            exact += value * np.uint64(10 ** (8 * i))
        fraction = np.where((dots == 0) & (dot != 0), seen + after, fraction)
        dots += _byte_count(dot)
        seen += _byte_count(digits)
    return mantissa, exact, fraction, dots


def _digits_to_int(d):
    """The integers of words of eight digit values each, the first in the low byte."""
    d = d * np.uint64(10) + (d >> np.uint64(8))
    d &= np.uint64(0x00FF00FF00FF00FF)
    d = d * np.uint64(100) + (d >> np.uint64(16))
    d &= np.uint64(0x0000FFFF0000FFFF)
    d = d * np.uint64(10000) + (d >> np.uint64(32))
    d &= np.uint64(0xFFFFFFFF)
    return d


def _byte_count(flags):
    """How many bytes of each word are 1, for words of 0 and 1 bytes."""
    return (flags * _ONES) >> np.uint64(56)
