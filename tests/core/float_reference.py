"""An independent reference classifier for the detector's ingest routes.

Every route of :class:`~repro.core.AnomalyDetector` (``observe``, the
record loop behind ``observe_frame`` and small batches, and the vector
kernel) reads one classifier: the compiled rule tables of
``compile_model``, with ``exact_duration_cut``'s integer cuts, through
the rule cache's miss path.  A defect there would show on every route at
once, so route-against-route equality cannot see it.

:class:`ReferenceDetector` classifies with the float classifier
instead, :meth:`OutlierModel.classify_parts`, on the fields the wire
carries (a frame's record bytes, or a synopsis encoded and read
back), and counts through the detector's one accounting step.  Holding
a route to it checks the compiled tables against the model they were compiled from,
across retrains, model swaps and a full signature-id space.
"""

from repro.core import AnomalyDetector, TaskSynopsis
from repro.core.columnar import FLOW_OUTLIER, KNOWN, PERF_ELIGIBLE
from repro.core.synopsis import FRAME_HEADER, SYNOPSIS_ENTRY, SYNOPSIS_HEADER


class ReferenceDetector(AnomalyDetector):
    """An :class:`AnomalyDetector` whose verdicts come from
    ``self.model.classify_parts``."""

    def observe(self, synopsis: TaskSynopsis):
        """Count one synopsis as the wire carries it: encoded, then read back."""
        return self._count(synopsis.encode(), 0)

    def observe_frames(self, frames):
        """Count every record of each frame in order, from its own bytes."""
        events = []
        for frame in frames:
            at = FRAME_HEADER.size
            for _ in range(FRAME_HEADER.unpack_from(frame)[1]):
                n = SYNOPSIS_HEADER.unpack_from(frame, at)[-1]
                events += self._count(frame, at)
                at += SYNOPSIS_HEADER.size + SYNOPSIS_ENTRY.size * n
        return events

    def _count(self, data, at):
        host_id, stage_id, uid, ts_ms, duration_us, n = SYNOPSIS_HEADER.unpack_from(data, at)
        end = at + SYNOPSIS_HEADER.size + SYNOPSIS_ENTRY.size * n
        signature = TaskSynopsis.decode(data[at:end]).signature
        model = self.model
        stage_key = (host_id, stage_id) if model.config.per_host else (0, stage_id)
        label = model.classify_parts(stage_key, signature, duration_us / 1_000_000)
        flags = 0
        if not label.new_signature:
            flags = KNOWN
            if label.flow_outlier:
                flags |= FLOW_OUTLIER
            if label.perf_eligible:
                flags |= PERF_ELIGIBLE
        return self._observe(
            stage_key,
            signature,
            flags,
            label.perf_outlier,
            duration_us,
            ts_ms,
            host_id << 32 | uid if self._tracing else None,
        )
