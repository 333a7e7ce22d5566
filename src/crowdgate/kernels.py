"""The smoothing kernel: the jitter-correction pass over a count array.

It computes exactly what the frame-by-frame pass in ``smooth_counts``'s
docstring describes, but takes the exact step (``_exact_step``) only at the
frames where that pass could change the held value, and skips the rest. The
literal frame-by-frame pass is kept in ``tests/test_kernels.py`` as the
reference this kernel must match bit for bit.

The skip rule. Let h be the half-length, c the corrected series and L the
held value. Take an interior frame f (h <= f < n - h) whose last h
corrected frames all equal L. Its window is h copies of L followed by the
h + 1 raw values raw[f..f+h]. If k of those raw slots hold L, a value
v != L fills at most h + 1 - k slots and L fills h + k, so:

* prefer-last: v beats L only with more than h + k slots, which takes
  k = 0 and v in all h + 1 raw slots;
* prefer-smallest: v beats L or ties it only with at least h + k slots,
  which takes v in at least h raw slots.

So c[f] = L unless some value other than L fills ``need`` slots of
raw[f..f+h], where ``need`` is h + 1 for prefer-last and h for
prefer-smallest. The frames at which one value fills ``need`` slots are
the candidate stretches of ``_stretches``.
"""

from collections import Counter

import numpy as np


def smooth_counts(values, half_length, prefer_last):
    """Single in-place left-to-right jitter-correction pass.

    Walks the series keeping the last accepted value; whenever the current
    value differs, it is replaced by the most frequent value in the
    ``half_length``-radius window around it (the window reads values already
    corrected earlier in the pass). Ties go to the last accepted value when
    ``prefer_last`` and it is among the tied values, otherwise to the
    smallest tied value. The input is not modified.

    A frame equal to the held value is never touched. In the safe zone,
    the frames x with h <= x < n - h that come at least h frames after the
    output last changed, the skip rule of the module docstring holds: the
    pass jumps to the next candidate stretch whose value differs from the
    held one and holds the value over the frames it skips. The exact step
    is taken at every other frame that differs from the held value: in the
    first and last h frames, in the h frames after a change, and at the
    candidate frames. Under prefer-last a candidate in the safe zone always
    wins, and the h frames after it repeat its value, so the pass stays in
    the safe zone until the last h frames: there the output takes a new
    level exactly at the first frame that begins h + 1 equal raw values
    other than the held one.

    Returns (corrected int64 array, boolean mask of replaced positions).
    """
    raw = np.asarray(values, dtype=np.int64)
    n = len(raw)
    if n == 0:
        raise ValueError("empty series")
    if half_length < 1:
        raise ValueError(f"half_length must be >= 1, got {half_length}")
    h = half_length
    need = h + 1 if prefer_last else h
    tail = n - h  # frames from here on have a window clipped at the end
    starts, ends, held_by = _stretches(raw, h, need)
    # a last stretch at the tail, held by no value, ends every jump there
    starts.append(tail)
    ends.append(n + 1)
    held_by.append(None)
    step = _exact_step
    # buf[i] is frame base + i: corrected before x, raw from x on. It holds
    # only what the pass reads: raw values are converted up to the end of
    # the window being read, a stretch of 2h + 1 frames at a time, and a
    # jump drops all but the h frames a later window reads.
    base = 0
    buf = raw[: 2 * h + 1].tolist()
    last = buf[0]
    change_at, change_to = [0], [last]
    safe_from = h  # the safe zone starts h frames after the last change
    k = 0  # stretches before k end by x or hold the held value
    x = 1
    while x < n:
        if safe_from <= x < tail:
            while ends[k] <= x or held_by[k] == last:
                k += 1
            y = starts[k]
            if y > x:
                # later windows read at most the h frames before y;
                # those skipped hold the held value
                a = y - h
                buf = buf[a - base : x - base] + [last] * (y - max(a, x))
                base, x = a, y
        if x + h >= base + len(buf):
            buf += raw[base + len(buf) : x + 2 * h + 1].tolist()
        value = buf[x - base]
        if value == last:
            x += 1
            continue
        mode = step(buf, x - base, h, last, prefer_last)
        if mode != value:
            buf[x - base] = mode
        if mode != last:
            last = mode
            change_at.append(x)
            change_to.append(mode)
            safe_from = x + h
        x += 1
    change_at.append(n)
    out = np.repeat(np.array(change_to, dtype=np.int64), np.diff(change_at))
    return out, out != raw


def _exact_step(buf, x, half_length, last, prefer_last):
    """The value frame ``x`` takes: the mode of its window, with the tie-breaks.

    ``buf`` holds the corrected values before ``x`` and the raw ones from
    ``x`` on. A value that fills a strict majority of the window is its
    unique mode under either tie-break, so the histogram is built only when
    neither the held value nor the frame's own raw value does.
    """
    lo = x - half_length if x > half_length else 0
    window = buf[lo : x + half_length + 1]
    if 2 * window.count(last) > len(window):
        return last
    if 2 * window.count(buf[x]) > len(window):
        return buf[x]
    hist = Counter(window)
    best_freq = max(hist.values())
    tied = [v for v, c in hist.items() if c == best_freq]
    if prefer_last and last in tied:
        return last
    return min(tied)


def _stretches(raw, h, need):
    """The candidate stretches of ``raw``, found over its runs of equal values.

    A candidate is an interior frame f < n - h at which one value fills
    ``need`` slots of raw[f..f+h] (see the module docstring). Returns three
    lists (starts, ends, values): stretch i covers frames [starts[i],
    ends[i]) and values[i] fills ``need`` slots at each of them. Stretches
    are sorted and do not overlap.

    Each run [s, e) of value v gives at most one stretch, made of adjacent
    pieces:

    * all h + 1 slots: frames [s, e - h), when the run has at least h + 1
      frames;
    * prefer-smallest, h >= 2, h of h + 1 slots, the odd slot being
      first: frame s - 1, when the run has at least h frames;
      last: frame e - h, when the run has at least h frames and is not
      the last;
      in the middle: a one-frame run at e followed by a run of v up to e2
      gives frames [max(s, e - h + 1), min(e, e2 - h)).

    For h >= 2 no two values fill h of h + 1 slots, so stretches of
    different runs do not overlap. Under prefer-smallest with h = 1, a
    value fills ``need`` = 1 slot wherever it appears, so the stretches are
    the runs themselves: the only frames skipped are those equal to the
    held value, which the pass never touches anyway.
    """
    n = len(raw)
    bounds = np.flatnonzero(raw[1:] != raw[:-1]) + 1
    s = np.concatenate(([0], bounds))
    v = raw[s]
    if need == 1:
        starts = s.tolist()
        return starts, starts[1:] + [n - 1], v.tolist()
    e = np.concatenate((bounds, [n]))
    if need == h + 1:
        lo, hi = s, e - h
    else:
        full = e - s >= h
        lo = s - full
        lo[0] = 0
        hi = e - h + (full & (e < n))
        if len(s) > 2:
            middle = (e[1:-1] - s[1:-1] == 1) & (v[2:] == v[:-2])
            reach = np.minimum(e[:-2], e[2:] - h)
            hi[:-2] = np.where(middle, np.maximum(hi[:-2], reach), hi[:-2])
    keep = hi > lo
    return lo[keep].tolist(), hi[keep].tolist(), v[keep].tolist()
