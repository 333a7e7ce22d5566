from fractions import Fraction

import numpy as np
import pytest

from crowdgate.counting import (
    PROV_DENSITY,
    PROV_DETECTOR,
    CountSeries,
    RoutingPolicy,
    count_series,
    frames_needing_density,
    read_count_series,
    route_counts,
    write_count_series,
)
from crowdgate.errors import RoutingError
from crowdgate.ingest import Boxes, Detections, StreamMeta

from conftest import series


def stream(frames):
    """Detections whose i-th frame holds the (score, class_id) boxes ``frames[i]``."""
    rows = [box for boxes in frames for box in boxes]
    m = len(rows)
    n = len(frames)
    return Detections(
        frame_index=np.arange(n, dtype=np.int64),
        timestamp_ms=np.zeros(n, dtype=np.int64),
        offsets=np.cumsum([0] + [len(boxes) for boxes in frames]),
        boxes=Boxes(
            x=np.zeros(m),
            y=np.zeros(m),
            w=np.ones(m),
            h=np.ones(m),
            score=np.array([s for s, _ in rows], dtype=np.float64),
            class_id=np.array([c for _, c in rows], dtype=np.int64),
        ),
    )


def counts(frames, policy):
    meta = StreamMeta(fps=Fraction(30), frame_count=len(frames), source_id="t")
    out = count_series(stream(frames), meta, policy)
    assert out.counts.dtype == np.int64
    assert out.fps == 30
    return out.counts.tolist()


class TestCountFrame:
    """Per-frame counts, through count_series."""

    def test_empty(self):
        assert counts([[]], RoutingPolicy()) == [0]
        assert counts([], RoutingPolicy()) == []

    def test_score_filter(self):
        f = [(0.9, 0)] * 3 + [(0.3, 0)] + [(0.5, 0)]
        assert counts([f], RoutingPolicy(min_score=0.5)) == [4]

    def test_class_filter(self):
        f = [(0.9, 0), (0.9, 1), (0.9, 0)]
        assert counts([f], RoutingPolicy(person_class_id=0)) == [2]

    def test_brute_force_oracle(self, rng):
        # many frames are empty, including the first and last: a per-frame
        # reduction that mishandles empty frames shifts or merges counts
        policy = RoutingPolicy(min_score=0.6, person_class_id=2)
        for _ in range(50):
            frames = [
                [
                    (float(rng.uniform(0, 1)), int(rng.integers(0, 4)))
                    for _ in range(int(rng.choice([0, 0, rng.integers(1, 30)])))
                ]
                for _ in range(int(rng.integers(1, 40)))
            ]
            expected = [sum(1 for s, c in f if c == 2 and s >= 0.6) for f in frames]
            assert counts(frames, policy) == expected

    def test_monotone_in_min_score(self, rng):
        f = [(float(rng.uniform(0, 1)), 0) for _ in range(40)]
        by_floor = [counts([f], RoutingPolicy(min_score=t))[0] for t in np.linspace(0, 1, 21)]
        assert by_floor == sorted(by_floor, reverse=True)


class TestRouteCounts:
    def test_identity_below_ceiling(self):
        s = series([3, 5, 4])
        out = route_counts(s, RoutingPolicy(count_ceiling=25))
        assert np.array_equal(out.counts, [3, 5, 4])
        assert all(p == PROV_DETECTOR for p in out.provenance)

    def test_at_ceiling_not_routed(self):
        # 25 boxes equals the ceiling; routing triggers strictly above
        s = series([25])
        assert frames_needing_density(s, RoutingPolicy(count_ceiling=25)) == []
        out = route_counts(s, RoutingPolicy(count_ceiling=25))
        assert out.counts[0] == 25 and out.provenance[0] == PROV_DETECTOR

    def test_routes_over_ceiling(self):
        s = series([20, 30, 22])
        out = route_counts(s, RoutingPolicy(count_ceiling=25), [19, 28, 23])
        assert np.array_equal(out.counts, [20, 28, 22])
        assert list(out.provenance) == [PROV_DETECTOR, PROV_DENSITY, PROV_DETECTOR]

    def test_mapping_input(self):
        s = series([20, 30, 22])
        out = route_counts(s, RoutingPolicy(count_ceiling=25), {1: 28})
        assert np.array_equal(out.counts, [20, 28, 22])

    def test_missing_density_names_frames(self):
        with pytest.raises(RoutingError, match="frames: 0") as exc:
            route_counts(series([30]), RoutingPolicy(count_ceiling=25))
        assert exc.value.frame_indices == [0]

    def test_partial_mapping_missing(self):
        with pytest.raises(RoutingError) as exc:
            route_counts(series([30, 40]), RoutingPolicy(count_ceiling=25), {0: 28})
        assert exc.value.frame_indices == [1]

    def test_length_preserved(self, rng):
        for _ in range(20):
            counts = rng.integers(0, 50, int(rng.integers(1, 100)))
            s = series(counts)
            density = rng.integers(0, 50, len(counts))
            out = route_counts(s, RoutingPolicy(count_ceiling=25), density)
            assert len(out) == len(s)


class TestCountSeriesCsv:
    def test_round_trip(self):
        s = CountSeries(
            np.array([3, 28, 4], dtype=np.int64),
            30,
            np.array(["Detector", "Density", "Smoothed"], dtype="<U8"),
        )
        data = write_count_series(s)
        back = read_count_series(data)
        assert np.array_equal(back.counts, s.counts)
        assert back.fps == s.fps
        assert np.array_equal(back.provenance, s.provenance)

    def test_header_and_rows(self):
        text = write_count_series(series([1, 2], fps=30)).decode()
        lines = text.splitlines()
        assert lines[0] == "# fps=30"
        assert lines[1] == "frame_index,count,provenance"
        assert lines[2] == "0,1,Detector"

    def test_fps_override(self):
        data = write_count_series(series([1], fps=30))
        assert read_count_series(data, fps=24).fps == 24

    def test_missing_fps_rejected(self):
        data = b"frame_index,count,provenance\n0,1,Detector\n"
        with pytest.raises(Exception, match="fps"):
            read_count_series(data)
        assert read_count_series(data, fps=30).fps == 30

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            series([1, -1])
