"""Frame-performance prediction from cluster representatives.

Predicted frame time = sum over clusters of (population x representative
time).  :func:`repro.core.pipeline.score_frame` prices the
representatives and scores one frame into a :class:`FramePrediction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.cluster_frame import FrameClustering
from repro.core.metrics import frame_prediction_error
from repro.errors import ValidationError


@dataclass(frozen=True)
class FramePrediction:
    """Predicted vs actual performance of one frame, and its E2 score.

    Two predictions are carried:

    - ``predicted_time_ns`` — representatives priced at their *in-context*
      cost from the detailed run (the paper's per-frame prediction-error
      metric: pure clustering fidelity).
    - ``isolated_time_ns`` — representatives re-simulated alone, as a
      deployment would run them; includes the cold-context bias of
      isolated re-simulation.  May be ``None`` when not computed.

    ``outlier_rate`` is the share of clusters whose representative misses
    the cluster's true total by more than 20% (E2).
    """

    frame_index: int
    actual_time_ns: float
    predicted_time_ns: float
    num_draws: int
    num_clusters: int
    outlier_rate: float
    isolated_time_ns: Optional[float] = None

    @property
    def error(self) -> float:
        """Relative in-context prediction error, as a fraction (0.01 == 1%)."""
        return frame_prediction_error(self.actual_time_ns, self.predicted_time_ns)

    @property
    def isolated_error(self) -> float:
        """Relative error of the isolated re-simulation prediction."""
        if self.isolated_time_ns is None:
            raise ValidationError(
                "isolated prediction was not computed for this frame"
            )
        return frame_prediction_error(self.actual_time_ns, self.isolated_time_ns)

    @property
    def efficiency(self) -> float:
        return 1.0 - self.num_clusters / self.num_draws


def predict_time_ns(
    rep_times_ns: Sequence[float], weights: Sequence[int]
) -> float:
    """Weighted-representative frame-time estimate."""
    rep_times = np.asarray(rep_times_ns, dtype=float)
    weight_arr = np.asarray(weights, dtype=float)
    if rep_times.shape != weight_arr.shape:
        raise ValidationError(
            f"rep_times and weights must match: {rep_times.shape} vs "
            f"{weight_arr.shape}"
        )
    if rep_times.size == 0:
        raise ValidationError("prediction needs at least one representative")
    return float(rep_times @ weight_arr)


def rep_times_from_draw_times(
    clustering: FrameClustering, draw_times_ns: Sequence[float]
) -> np.ndarray:
    """Representative times read out of a full per-draw simulation.

    These are the representatives' *in-context* costs, which the paper's
    prediction error (E1) prices them at.
    """
    times = np.asarray(draw_times_ns, dtype=float)
    if times.shape[0] != clustering.num_draws:
        raise ValidationError(
            f"draw_times covers {times.shape[0]} draws but clustering has "
            f"{clustering.num_draws}"
        )
    return times[np.asarray(clustering.representatives, dtype=np.int64)]
