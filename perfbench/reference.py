"""Reference probe: fixed work that tracks how fast the shared host runs right now.

On a shared host the same pass can take twice as long from one minute to
the next (on a 2-vCPU Xeon guest, one series_replay pass ranged from 1.8 s
to 3.6 s within ten minutes, user time included), so raw seconds vary
between runs far more than any change worth detecting. The probe does a
fixed amount of the kinds of work the pipeline does -- JSON decoding, CSV
parsing with small-window counting, float64 frame arithmetic -- using
nothing from crowdgate, so a change to the program cannot move it. The
benchmark times it right before each pass and reports times scaled to a
host on which the probe takes ``REF_S`` seconds: ``t * REF_S / probe_s``.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter

import numpy as np

# About the probe's time on an idle 2.0 GHz Xeon vCPU; scaled times are
# seconds on a host that runs the probe in exactly this long.
REF_S = 0.15


class Probe:
    """Callable returning the seconds one run of the fixed reference work took."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.csv_text = "\n".join(
            f"{i},{v},Detector" for i, v in enumerate(rng.integers(0, 30, 24_000).tolist())
        )
        self.json_lines = [
            json.dumps({"frame_index": i, "boxes": [
                {"x": float(x), "y": 2.5, "w": 30.0, "h": 80.0, "score": 0.9, "class_id": 0}
                for x in rng.integers(0, 1900, 10)
            ]}) for i in range(2_000)
        ]
        self.image = rng.integers(0, 256, (360, 640), dtype=np.uint8)

    def __call__(self) -> float:
        start = time.perf_counter()
        values = [int(row[1]) for row in csv.reader(io.StringIO(self.csv_text))]
        for x in range(0, len(values) - 21, 3):
            Counter(values[x : x + 21]).most_common(1)
        for line in self.json_lines:
            json.loads(line)
        background = self.image.astype(np.float64)
        for _ in range(25):
            still = np.abs(self.image.astype(np.float64) - background) < 15
            background = background.copy()
            background[still] = 0.95 * background[still] + 0.05 * 128
        return time.perf_counter() - start
