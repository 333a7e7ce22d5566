"""crowdgate: detector-agnostic people-count stabilization and abnormal-segment extraction."""

from .counting import (
    CountSeries,
    RoutingPolicy,
    count_frame,
    count_series,
    read_count_series,
    route_counts,
    write_count_series,
)
from .density import (
    BackgroundModel,
    DensityRegressor,
    ForegroundFeatures,
    compute_features,
    extract_foreground,
    fit_regressor,
    predict_count,
    update_background,
)
from .evaluation import JitterSpec, ap_d, compare_methods, generate_synthetic, matched_ap_d
from .ingest import (
    BoundingBox,
    FrameDetections,
    GrayFrame,
    StreamMeta,
    load_gray_frames,
    parse_detections,
    save_gray_frames,
    serialize_detections,
)
from .segmenting import Segment, SegmentPolicy, emit_cutlist, extract_segments
from .smoothing import SmoothingParams, TieBreak, smooth_series, window_length

__version__ = "0.1.0"

# The one smoothing kernel there is; recorded with benchmark results.
KERNEL_BACKEND = "pure"
