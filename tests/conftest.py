import contextlib
import json
import threading
from unittest import mock

import numpy as np
import pytest

from crowdgate import ingest
from crowdgate import scan  # noqa: F401 - see below
from crowdgate.counting import CountSeries

# ``scan._SCAN_BYTES_MAX`` is twice the block size ``scan`` finds when it is
# first imported. Imported here, before any test patches the block size,
# it is the default's, whichever test first reads detections.

# Ways to walk a detections stream or a count CSV (``ingest._walk``):
# blocks of one line, a few lines and the default, each on one thread and
# on two, the small ones in windows of one block, a few blocks and the
# default. A default block holds a test's stream alone, so its window size
# makes no difference.
WAYS = [
    (block, cpus, window)
    for block, windows in ((1, (1, 3, ingest._WINDOW_BLOCKS)),
                           (300, (1, 3, ingest._WINDOW_BLOCKS)),
                           (ingest._BLOCK_BYTES, (ingest._WINDOW_BLOCKS,)))
    for window in windows
    for cpus in (1, 2)
]


@contextlib.contextmanager
def parsed_in(block_bytes, cpus, window_blocks=ingest._WINDOW_BLOCKS):
    with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(ingest, "_usable_cpus", lambda: cpus), \
            mock.patch.object(ingest, "_WINDOW_BLOCKS", window_blocks):
        yield


def detections_bytes(counts, fps=9, source_id="cam1", score=0.9, class_id=0):
    """Build a detections file whose per-frame person counts are ``counts``."""
    lines = [json.dumps({"fps": fps, "source_id": source_id})]
    for i, n in enumerate(counts):
        boxes = [
            {"x": 10.0 * k, "y": 5.0, "w": 8.0, "h": 20.0, "score": score, "class_id": class_id}
            for k in range(n)
        ]
        lines.append(
            json.dumps({"frame_index": i, "timestamp_ms": i * 100, "boxes": boxes})
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def serialize_detections(detections, meta) -> bytes:
    """The canonical detections file of parsed ``detections`` and ``meta``:
    what ``crowdgate ingest`` writes of the stream they were parsed from."""
    header = {"fps": ingest.format_fps(meta.fps), "source_id": meta.source_id}
    b = detections.boxes
    return (json.dumps(header, separators=(",", ":")) + "\n").encode() + ingest._render_records(
        detections.frame_index, detections.timestamp_ms, detections.box_counts,
        b.x, b.y, b.w, b.h, b.score, b.class_id,
    )


def gray_stream(frames):
    """An (n, height, width) uint8 gray stream from 2-D pixel arrays."""
    return np.stack([np.asarray(frame, dtype=np.uint8) for frame in frames])


def series(counts, fps=30):
    return CountSeries.from_counts(counts, fps)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves running a thread it did not start with: every
    pool of the package, and ``run``'s hash thread, stop before their call
    returns, also when it raises."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)
