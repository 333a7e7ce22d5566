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
# peaks at up to 5 times its bytes. A block ends at the first line end past
# _BLOCK_BYTES, so only a line of over a block makes one this long.
_SCAN_BYTES_MAX = 2 * _BLOCK_BYTES
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
    signed = _number_syntax(buf)
    if signed is None:
        return None
    number = np.subtract(buf, np.uint8(ord("-")))
    number = np.less(number, 13, out=number.view(np.bool_))  # "-./0-9"
    starts, ends = _number_spans(number)
    if starts is None:
        return None
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
    words = _number_words(buf, ends, lengths)
    del buf, ends
    mantissa, exact, fraction, dots = _number_values(words)
    del words
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
    """(starts, ends) of the runs of ``number``, int32, if the first starts
    after ``_LINE_START``, else (None, None)."""
    edge = np.greater(number[1:], number[:-1])
    starts = np.flatnonzero(edge).astype(np.int32)
    starts += 1
    if not len(starts) or starts[0] != _SPAN + len(_LINE_START):
        return None, None
    ends = np.flatnonzero(np.less(number[1:], number[:-1], out=edge))
    del edge
    ends = ends.astype(np.int32)
    ends += 1
    return starts, ends


def _skeleton_fields(buf, starts, ends, stop):
    """Each number's field, or None unless the gap after each number, up to
    the next or to ``stop``, has the length and third byte of a skeleton of
    ``_SKELETONS``, and the skeletons follow the grammar."""
    n = len(starts)
    gap = np.empty(n, np.int32)
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
    canonical lines of ``counts`` boxes each, joined; ``number`` is
    inverted in place."""
    skeleton = text[np.logical_not(number, out=number)].tobytes()
    lines = [_line_skeleton(boxes) for boxes in counts.tolist()]
    # joined an eighth at a time: a join holds 80 bytes a line besides its result
    at, step = 0, len(lines) // 8 + 1
    for i in range(0, len(lines), step):
        part = b"".join(lines[i : i + step])
        if not skeleton.startswith(part, at):
            return False
        at += len(part)
    return at == len(skeleton)


@functools.lru_cache(maxsize=64)
def _line_skeleton(boxes):
    """The bytes of a canonical line of ``boxes`` boxes outside its numbers."""
    return _LINE_START + b',"timestamp_ms":,"boxes":[' + b",".join([_BOX] * boxes) + b"]}\n"


def _number_syntax(buf):
    """None unless every number, a run of ``-./0-9``, is JSON; else whether
    any has a sign.

    Element ``i`` of each byte test is about byte ``i + 1`` of ``buf``,
    which has a byte on each side. The tests share one array beside the
    digit mask: a rule holds when as many bytes pass a test with its
    conditions added as without.
    """
    test = np.equal(buf[1:-1], ord("/"))
    if test.any():
        return None  # "/" lies between "." and "0"
    digit = np.subtract(buf, np.uint8(ord("0")))
    digit = np.less(digit, 10, out=digit.view(np.bool_))
    dot = np.equal(buf[1:-1], ord("."), out=test)
    dots = np.count_nonzero(dot)
    dot &= digit[:-2]
    dot &= digit[2:]
    if np.count_nonzero(dot) != dots:
        return None  # a dot needs a digit on each side
    minus = np.equal(buf[1:-1], ord("-"), out=test)
    signs = np.count_nonzero(minus)
    if signs:
        # not after a digit; after a dot, the dot check has failed, and
        # after a sign, that sign is not before a digit
        np.greater(minus, digit[:-2], out=minus)
        minus &= digit[2:]
        if np.count_nonzero(minus) != signs:
            return None  # a sign comes first in its number, before a digit
    zero = np.equal(buf[1:-1], ord("0"), out=test)
    zero &= digit[2:]
    np.greater(zero, digit[:-2], out=zero)  # a "0" before a digit, not after one
    if (buf[np.flatnonzero(zero)] != ord(".")).any():
        return None  # a leading zero: first, or after a sign, not after the dot
    return signs > 0


def _number_words(buf, ends, lengths):
    """Each number's words from ``buf``, one array per word: word ``i`` of a
    number is the 8 bytes that end ``8 * i`` bytes before the number does,
    masked to the number's bytes. ``ends`` is moved back a word at a time,
    in place. The words hold all the scan reads of the numbers, so the
    block is dropped once they are gathered."""
    words = _words(buf)
    gathered = []
    for i in range(-(-int(lengths.max()) // 8)):
        ends -= 8
        word = words[ends]
        word &= _LAST_BYTES.take(np.clip(lengths - 8 * i, 0, 8))
        gathered.append(word)
    return gathered


def _number_values(words):
    """(mantissa, exact, fraction digits, dots) of each number, from its
    words (``_number_words``), which are overwritten.

    The digit bytes of each word, with the dot squeezed out, read as one
    integer (SWAR); a word before the dot weighs a tenth as much. The
    float64 mantissa is exact below 10**15; ``exact`` is the uint64
    integer of numbers of at most 19 digits and no dot. The counts are
    uint8, and every step but the first of a word runs in place.
    """
    for i, word in enumerate(words):
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
