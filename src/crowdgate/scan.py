"""The whole-array scan of canonical detections lines.

The block walk (``ingest._walk``) hands each block of a detections body
(``ingest._read_detections``) to ``scan_block``, which reads the
canonical lines, those ``crowdgate ingest`` writes, as numpy arrays, and
returns None for anything else, which the per-line parser then reads or
rejects. Only ``_read_detections`` imports it, when called; its 8-byte
word arithmetic, which the count-CSV scan shares, is in ``words``.
"""

from __future__ import annotations

import functools

import numpy as np

from .ingest import _BLOCK_BYTES, _INT64_DIGITS, _INT64_MAX
from .words import _LAST_BYTES, _ONES, _byte_count, _digits_to_int, _padded, _words

# A block longer than this is left to the per-line parse; a block's scan
# peaks at about 7 times its bytes. A block ends at the first line end past
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
_BOX = b'{"x":,"y":,"w":,"h":,"score":,"class_id":}'  # a box's bytes outside its numbers
_INT_FIELDS = np.array([True, True, False, False, False, False, False, True])
# The longest number the scan reads, in bytes, and the zero bytes before a
# block, which the words read back from its first number may reach: a
# multiple of 8, and longer than any number the scan can take (25 bytes:
# "-0." and 22 fraction digits).
_SPAN = 32
_POW10 = 10.0 ** np.arange(23)  # exact doubles


def _skeleton_tables():
    """Lookup tables of ``_SKELETONS``, indexed by skeleton kind.

    ``kind[length * 256 + third byte]`` is the kind of a gap, and
    ``len(_SKELETONS)`` where there is none; a gap longer than every
    skeleton has the length ``_GAP_MAX``.
    """
    kind = np.full((_GAP_MAX + 1) * 256, len(_SKELETONS), np.int8)
    for k, (skeleton, _, _) in enumerate(_SKELETONS):
        kind[len(skeleton) * 256 + skeleton[2]] = k
    before = np.array([b for _, b, _ in _SKELETONS], np.int8)
    after = np.array([a for _, _, a in _SKELETONS], np.int8)
    return kind, before, after


_GAP_MAX = max(len(skeleton) for skeleton, _, _ in _SKELETONS) + 1
_KIND, _BEFORE, _AFTER = _skeleton_tables()


def scan_block(data, start, end):
    """(Columns, line count) of the lines ``data[start:end]`` if all are
    canonical, else None.

    Numbers are the maximal runs of ``-.0-9``. Each gap after a number must
    be as long as one of ``_SKELETONS`` and share its third byte, and the
    gaps must follow the grammar, which gives each number's field and each
    line's box count. The block's bytes outside its numbers must then be,
    as one string, the canonical lines' skeletons (``_line_skeleton``)
    joined, so each gap is its skeleton byte for byte. A number must be
    JSON (no leading zero, a digit each side of the dot, ``-`` only first).
    A float field has at most 15 significant and 22 fraction digits: its
    digits make an integer m < 10**15 and its value, m / 10**k for k
    fraction digits, is then the correctly rounded double, as
    ``json.loads`` gives (Clinger's fast path: Clinger 1990, "How to read
    floating point numbers accurately", PLDI). An integer field has no sign
    or dot, at most 19 digits and fits int64. Boxes must pass the per-line
    range checks. Anything else makes the block fall back to the per-line
    parse, which also checks the frame order here. Each step is a function
    of its own, so that its temporaries are freed before the next, and the
    number mask is made once for the steps that need it. The block is
    copied and its numbers read as 8-byte words by ``words``, as the
    count-CSV scan reads its fields.
    """
    if end - start > _SCAN_BYTES_MAX or data[start : start + len(_LINE_START)] != _LINE_START:
        return None
    # zero padding: _SPAN bytes before, and after, a line end and the third
    # byte of the gap after the last number
    buf, stop = _padded(data, start, end, _SPAN, 3)
    if (buf == ord("/")).any():
        return None  # "/" lies between "." and "0"
    number = (buf - np.uint8(ord("-"))) < 13
    signed = _number_syntax(buf, number)
    spans = None if signed is None else _number_spans(number)
    if spans is None:
        return None
    starts, ends = spans
    field_of = _skeleton_fields(buf, starts, ends, stop)
    if field_of is None:
        return None
    lines = np.flatnonzero(field_of == 0)
    counts = (np.diff(lines, append=len(field_of)) - 2) // 6
    if not _skeleton_text_matches(buf[_SPAN:stop], number[_SPAN:stop], counts):
        return None
    del number
    lengths = ends - starts
    if lengths.max() > _SPAN:
        return None
    lengths = lengths.astype(np.int8)
    negative = buf[starts] == ord("-") if signed else False
    del starts
    mantissa, exact, fraction, dots = _number_values(buf, ends, lengths)
    del buf, ends
    bad = np.where(
        _INT_FIELDS.take(field_of),
        negative | (dots != 0) | (lengths > _INT64_DIGITS) | (exact > np.uint64(_INT64_MAX)),
        (dots > 1) | (mantissa >= 1e15) | (fraction > 22),
    )
    if bad.any():
        return None
    value = mantissa
    value /= _POW10.take(fraction)
    if signed:  # after the division, so that -0.0 stays negative; -0 is 0
        np.negative(value, out=value, where=negative & ((dots != 0) | (value != 0)))

    boxes = np.flatnonzero(field_of == 2)
    x, y, w, h, score = (value.take(boxes + j) for j in range(5))
    if not ((w > 0) & (h > 0) & (score >= 0) & (score <= 1)).all():
        return None
    exact = exact.view(np.int64)
    frame_index, timestamp_ms, class_id = (exact.take(at) for at in (lines, lines + 1, boxes + 5))
    return (frame_index, timestamp_ms, counts, x, y, w, h, score, class_id), len(lines)


def _number_spans(number):
    """(starts, ends) of the runs of ``number``, if the first starts after
    ``_LINE_START``, else None."""
    edges = np.flatnonzero(number[1:] != number[:-1]) + 1
    if not len(edges) or edges[0] != _SPAN + len(_LINE_START):
        return None
    return edges[0::2].copy(), edges[1::2].copy()


def _skeleton_fields(buf, starts, ends, stop):
    """Each number's field, or None unless the gap after each number, up to
    the next or to ``stop``, has the length and third byte of a skeleton of
    ``_SKELETONS``, and the skeletons follow the grammar."""
    n = len(starts)
    gap = np.empty(n, np.intp)
    np.subtract(starts[1:], ends[:-1], out=gap[:-1])
    gap[-1] = stop - ends[-1]
    np.minimum(gap, _GAP_MAX, out=gap)
    gap *= 256
    gap += buf[ends + 2]
    kind = _KIND.take(gap)
    del gap
    if (kind == len(_SKELETONS)).any():
        return None
    field_of = np.empty(n + 1, np.int8)
    field_of[0] = 0  # _LINE_START
    field_of[1:] = _AFTER.take(kind)
    if field_of[-1] != 8 or not np.array_equal(_BEFORE.take(kind), field_of[:-1]):
        return None
    return field_of[:-1]


def _skeleton_text_matches(text, number, counts):
    """Whether the bytes of ``text`` outside its numbers are the skeletons of
    canonical lines of ``counts`` boxes each, joined."""
    skeleton = text[~number].tobytes()
    return skeleton == b"".join([_line_skeleton(boxes) for boxes in counts.tolist()])


@functools.lru_cache(maxsize=64)
def _line_skeleton(boxes):
    """The bytes of a canonical line of ``boxes`` boxes outside its numbers."""
    return _LINE_START + b',"timestamp_ms":,"boxes":[' + b",".join([_BOX] * boxes) + b"]}\n"


def _number_syntax(buf, number):
    """None unless every number is JSON; else whether any has a sign.

    Element ``i`` of each byte test is about byte ``i + 1`` of ``buf``,
    which has a byte on each side; the tests share two arrays.
    """
    digit = buf >= ord("0")
    digit &= number  # the number bytes from "0" up
    both = digit[:-2] & digit[2:]  # a digit on each side
    test = np.equal(buf[1:-1], ord("."))
    if np.greater(test, both, out=test).any():
        return None  # a dot needs a digit on each side
    first = np.logical_not(number[:-2], out=both)  # the first byte of its number
    minus = np.equal(buf[1:-1], ord("-"), out=test)
    signed = bool(minus.any())
    if signed:
        if np.greater(minus, first).any() or np.greater(minus, digit[2:]).any():
            return None  # a sign comes first, before a digit
        first[1:] |= minus[:-1]  # a digit after a sign starts its number
    zero = np.equal(buf[1:-1], ord("0"), out=test)
    zero &= first
    zero &= digit[2:]
    if zero.any():
        return None  # a leading zero
    return signed


def _number_values(buf, ends, lengths):
    """(mantissa, exact, fraction digits, dots) of each number.

    Word ``i`` of a number is the 8 bytes that end ``8 * i`` bytes before
    the number does, read from ``buf`` with one gather (``ends`` is moved
    back a word at a time, in place) and masked to the number's bytes. The
    digit bytes of each word, with the dot squeezed out, read as one
    integer (SWAR); a word before the dot weighs a tenth as much. The
    float64 mantissa is exact below 10**15; ``exact`` is the uint64
    integer of numbers of at most 19 digits and no dot. The counts are
    uint8, and every step but the first of a word runs in place.
    """
    words = _words(buf)
    for i in range(-(-int(lengths.max()) // 8)):
        ends -= 8
        word = words[ends]
        word &= _LAST_BYTES.take(np.clip(lengths - 8 * i, 0, 8))
        digits = word >> np.uint64(4)
        digits &= _ONES  # 1 in each digit byte
        # 1 in the dot's byte: bit 1 is set in "." (0x2e), not in "-" (0x2d),
        # and the digits' bytes are cleared
        dot = word >> np.uint64(1)
        dot &= _ONES
        dot |= digits
        dot ^= digits
        scratch = digits * np.uint64(15)
        word &= scratch  # each digit's value, and 0 elsewhere
        np.subtract(dot, dot != 0, out=scratch)  # the bytes before the dot
        scratch &= word
        word ^= scratch
        scratch <<= np.uint64(8)
        word |= scratch  # the dot squeezed out
        del scratch
        value = _digits_to_int(word)
        if i == 0:
            mantissa, exact = value.astype(np.float64), value
        else:
            scale = np.where(dots != 0, 10.0 ** (8 * i - 1), 10.0 ** (8 * i))
            scale *= value
            mantissa += scale
            del scale
            if i < 3:  # integer fields have at most 19 digits
                value *= np.uint64(10 ** (8 * i))
                exact += value
        del value, word
        # digits after this word's dot; a dot in word i also has every digit
        # of words 0 to i - 1 (``seen``) after it
        after = dot << np.uint64(1)
        after -= np.uint64(1)
        np.invert(after, out=after)
        after &= digits
        after = _byte_count(after)
        if i == 0:
            fraction = after.astype(np.uint8)
            dots, seen = _byte_count(dot).astype(np.uint8), _byte_count(digits).astype(np.uint8)
            continue
        after += seen
        np.copyto(fraction, after, casting="unsafe", where=(dots == 0) & (dot != 0))
        dots += _byte_count(dot)
        seen += _byte_count(digits)
    return mantissa, exact, fraction, dots
