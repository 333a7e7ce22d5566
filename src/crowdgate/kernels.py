"""The smoothing kernel: the jitter-correction pass over a count array.

It computes exactly what the frame-by-frame pass in ``smooth_counts``'s
docstring describes, but visits only the frames that pass can change. The
literal frame-by-frame pass is kept in ``tests/test_kernels.py`` as the
reference this kernel must match bit for bit.
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

    A frame equal to the last accepted value is never touched, so the pass
    jumps between the positions where the raw value changes: inside a run of
    equal raw values it visits frames only until one is kept. When the last
    accepted value fills a strict majority of the window it is the unique
    mode under either tie-break, so the histogram is built only otherwise.

    Returns (corrected int64 array, boolean mask of replaced positions).
    """
    raw = np.asarray(values, dtype=np.int64)
    n = len(raw)
    if n == 0:
        raise ValueError("empty series")
    if half_length < 1:
        raise ValueError(f"half_length must be >= 1, got {half_length}")
    buf = raw.tolist()
    run_starts = (np.flatnonzero(raw[1:] != raw[:-1]) + 1).tolist()
    run_ends = run_starts[1:] + [n]
    fixed = []
    last = buf[0]
    for start, end in zip(run_starts, run_ends):
        value = buf[start]
        if value == last:
            continue
        for x in range(start, end):
            lo = x - half_length if x > half_length else 0
            window = buf[lo : x + half_length + 1]
            if 2 * window.count(last) > len(window):
                mode = last
            else:
                hist = Counter(window)
                best_freq = max(hist.values())
                tied = [v for v, c in hist.items() if c == best_freq]
                if prefer_last and last in tied:
                    mode = last
                else:
                    mode = min(tied)
            if mode == value:
                last = value
                break
            buf[x] = mode
            fixed.append(x)
            last = mode
    out = raw.copy()
    replaced = np.zeros(n, dtype=bool)
    out[fixed] = [buf[x] for x in fixed]
    replaced[fixed] = True
    return out, replaced
