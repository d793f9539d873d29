"""Per-link drift detection on live observation streams.

Clegg et al. ("Criticisms of modelling packet traffic using
long-range dependence", PAPERS.md) argue that much of what looks like
LRD in measured traffic is *nonstationarity* — exactly the regime
where a decision table keyed on an offline model fingerprint silently
mis-admits.  This module watches the per-request observation stream
of one link and emits a typed :class:`DriftEvent` when the traffic no
longer matches the declared descriptor, through three complementary
detectors:

* **Page–Hinkley** — the classical sequential change-point test on
  the cumulative mean deviation, cheap and sensitive to sustained
  small shifts;
* **windowed mean shift** (ADWIN-style) — the trailing
  :class:`~repro.adaptive.estimators.StreamingMoments` window mean
  against the frozen baseline, in baseline-σ units of the window
  mean's standard error;
* **fingerprint distance** — the estimated (mean, std) parameter
  vector against the declared model's, in relative units; catches
  variance ramps the mean tests cannot see.

All three are pure functions of the sample stream, so detection
indices are deterministic for a seeded workload — the property the
serial-vs-``--jobs N`` byte-identity of the adaptive replay rests on.
``docs/ADAPTIVE.md`` carries the threshold-tuning runbook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.adaptive.estimators import StreamingMoments
from repro.exceptions import ParameterError
from repro.models.base import TrafficModel
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "DriftDetector",
    "DriftEvent",
    "PageHinkley",
]

#: Detector names carried on :attr:`DriftEvent.detector`.
DETECTOR_PAGE_HINKLEY = "page-hinkley"
DETECTOR_WINDOW_MEAN = "window-mean"
DETECTOR_FINGERPRINT = "fingerprint"


@dataclass(frozen=True)
class DriftEvent:
    """One detected regime change on one link's observation stream."""

    link_id: str
    #: Which detector fired first (page-hinkley / window-mean /
    #: fingerprint).
    detector: str
    #: Stream position (request index) at detection.
    sample_index: int
    #: The detector statistic that crossed its threshold.
    statistic: float
    threshold: float
    #: Declared-model mean the stream was checked against.
    baseline_mean: float
    #: Trailing-window mean at detection.
    observed_mean: float
    #: Trailing-window std at detection.
    observed_std: float


class PageHinkley:
    """Two-sided Page–Hinkley sequential change-point test.

    Tracks the cumulative deviation of the stream from its running
    mean, minus a drift allowance ``delta``; an upward (downward)
    change is flagged when the cumulative sum exceeds its running
    minimum (maximum) by ``threshold``.  ``delta`` and ``threshold``
    are in the units of the observations.
    """

    def __init__(self, *, delta: float, threshold: float):
        self.delta = float(delta)
        self.threshold = check_positive(threshold, "threshold")
        if self.delta < 0:
            raise ParameterError(f"delta must be >= 0, got {delta}")
        self.count = 0
        self._mean = 0.0
        self._up = 0.0
        self._up_min = 0.0
        self._down = 0.0
        self._down_max = 0.0

    @property
    def statistic(self) -> float:
        """The larger of the two one-sided test statistics."""
        return max(self._up - self._up_min, self._down_max - self._down)

    def update(self, value: float) -> bool:
        """Feed one sample; True when a change is detected."""
        value = float(value)
        self.count += 1
        self._mean += (value - self._mean) / self.count
        deviation = value - self._mean
        self._up += deviation - self.delta
        self._down += deviation + self.delta
        if self._up < self._up_min:
            self._up_min = self._up
        if self._down > self._down_max:
            self._down_max = self._down
        return self.statistic > self.threshold

    def reset(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._up = self._up_min = 0.0
        self._down = self._down_max = 0.0


class DriftDetector:
    """Composite per-link detector over one observation stream.

    Parameters
    ----------
    link_id:
        Link the stream belongs to (stamped on events).
    model:
        The *declared* traffic descriptor; its marginal mean/std are
        the baseline every detector measures against.
    window:
        Trailing window for the streaming moments (and the warm-up
        length: no detector fires before ``window`` samples).
    threshold_sigmas:
        Windowed mean-shift threshold in units of the baseline window
        mean's standard error (``sigma / sqrt(window)``).
    fingerprint_tolerance:
        Maximum relative deviation of the estimated (mean, std) from
        the declared model's before the fingerprint test fires.
    ph_delta_sigmas / ph_threshold_sigmas:
        Page–Hinkley allowance and threshold in baseline-σ units.
    """

    def __init__(
        self,
        link_id: str,
        model: TrafficModel,
        *,
        window: int = 256,
        threshold_sigmas: float = 8.0,
        fingerprint_tolerance: float = 0.25,
        ph_delta_sigmas: float = 0.2,
        ph_threshold_sigmas: float = 50.0,
    ):
        self.link_id = str(link_id)
        self.window = check_integer(window, "window", minimum=8)
        self.threshold_sigmas = check_positive(
            threshold_sigmas, "threshold_sigmas"
        )
        self.fingerprint_tolerance = check_positive(
            fingerprint_tolerance, "fingerprint_tolerance"
        )
        self.ph_delta_sigmas = float(ph_delta_sigmas)
        self.ph_threshold_sigmas = check_positive(
            ph_threshold_sigmas, "ph_threshold_sigmas"
        )
        self.moments = StreamingMoments(self.window)
        self.samples_seen = 0
        self.detections = 0
        self._rebaseline(model)

    def _rebaseline(self, model: TrafficModel) -> None:
        self.model = model
        self.baseline_mean = float(model.mean)
        self.baseline_std = float(model.std)
        if self.baseline_std <= 0:
            raise ParameterError(
                "drift detection needs a declared model with positive "
                f"variance, got std = {self.baseline_std}"
            )
        sigma = self.baseline_std
        self.page_hinkley = PageHinkley(
            delta=self.ph_delta_sigmas * sigma,
            threshold=self.ph_threshold_sigmas * sigma,
        )
        self._since_baseline = 0

    def rebaseline(self, model: TrafficModel) -> None:
        """Adopt ``model`` as the new declared descriptor (post-swap).

        Resets the Page–Hinkley accumulators and the warm-up clock;
        the streaming moments keep running (the window itself is the
        freshest view of the traffic).
        """
        self._rebaseline(model)

    def update(self, value: float) -> Optional[DriftEvent]:
        """Feed one observation; a :class:`DriftEvent` on detection.

        The three detectors are checked in a fixed order (mean shift,
        fingerprint, Page–Hinkley) so the emitted event is a
        deterministic function of the stream.
        """
        value = float(value)
        index = self.samples_seen
        self.samples_seen += 1
        self._since_baseline += 1
        self.moments.push(value)
        ph_fired = self.page_hinkley.update(value)
        if self._since_baseline < self.window or not self.moments.is_full:
            return None

        observed_mean = self.moments.mean
        observed_std = self.moments.std
        standard_error = self.baseline_std / math.sqrt(self.window)
        mean_shift = abs(observed_mean - self.baseline_mean) / standard_error
        event: Optional[DriftEvent] = None
        if mean_shift > self.threshold_sigmas:
            event = DriftEvent(
                link_id=self.link_id,
                detector=DETECTOR_WINDOW_MEAN,
                sample_index=index,
                statistic=mean_shift,
                threshold=self.threshold_sigmas,
                baseline_mean=self.baseline_mean,
                observed_mean=observed_mean,
                observed_std=observed_std,
            )
        else:
            relative = max(
                abs(observed_mean - self.baseline_mean)
                / abs(self.baseline_mean)
                if self.baseline_mean
                else 0.0,
                abs(observed_std - self.baseline_std) / self.baseline_std,
            )
            if relative > self.fingerprint_tolerance:
                event = DriftEvent(
                    link_id=self.link_id,
                    detector=DETECTOR_FINGERPRINT,
                    sample_index=index,
                    statistic=relative,
                    threshold=self.fingerprint_tolerance,
                    baseline_mean=self.baseline_mean,
                    observed_mean=observed_mean,
                    observed_std=observed_std,
                )
            elif ph_fired:
                event = DriftEvent(
                    link_id=self.link_id,
                    detector=DETECTOR_PAGE_HINKLEY,
                    sample_index=index,
                    statistic=self.page_hinkley.statistic,
                    threshold=self.page_hinkley.threshold,
                    baseline_mean=self.baseline_mean,
                    observed_mean=observed_mean,
                    observed_std=observed_std,
                )
        if event is not None:
            self.detections += 1
            if _spans._ENABLED:
                _metrics.add("adaptive.drift_detections")
        return event
