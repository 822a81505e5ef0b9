"""The learned outlier model (paper Sec. 3.3.2).

Training is deliberately cheap — counting and percentiles:

1. Per stage, count tasks per signature.  Signatures whose share of the
   stage's tasks is below ``1 - flow_percentile`` are **flow outliers**.
2. Per (stage, signature), the ``duration_percentile`` quantile of
   training durations is the **performance outlier threshold**.
3. A k-fold cross-validation pass discards signatures whose duration
   distribution does not admit a stable percentile threshold: build the
   threshold on k-1 folds, measure the held-out outlier rate, and discard
   the signature when the average rate is far above the nominal
   ``1 - duration_percentile``.

One pass over the tasks' own fields groups the trace.  Each signature's
durations are sorted **once** for the threshold and the outlier share;
each fold sorts its held-out slice, walks it beside that array from the
top for its training percentile, and bisects it for its outlier rate.

At runtime the detector classifies against the profiles lowered to
flat per-stage rule tables (:func:`repro.core.columnar.compile_model`):
an array read and one integer comparison per task, matching the paper's
"extremely light-weight" claim.  :meth:`OutlierModel.classify_parts` is
the float reference those tables are tested against; no runtime reader
calls it.  It returns per-profile cached labels, so it allocates nothing
at steady state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.telemetry import MetricsRegistry

from .config import SAADConfig
from .features import FeatureVector, Signature, StageKey
from .interning import InternedSignature, intern_signature
from .stats import kfold_splits, percentile_sorted
from .synopsis import TaskSynopsis


@dataclass
class SignatureProfile:
    """What training learned about one (stage, signature) group."""

    signature: Signature
    count: int
    share: float
    is_flow_outlier: bool
    duration_threshold: Optional[float] = None
    perf_outlier_share: float = 0.0
    perf_eligible: bool = False
    cv_outlier_rate: Optional[float] = None
    # Cached classification results (all tasks of one profile with the
    # same outlier verdict get the same immutable label).
    _label_normal: Optional["TaskLabel"] = field(
        default=None, repr=False, compare=False
    )
    _label_perf_outlier: Optional["TaskLabel"] = field(
        default=None, repr=False, compare=False
    )


@dataclass
class StageModel:
    """Learned statistics for one stage key."""

    stage_key: StageKey
    total_tasks: int
    signatures: Dict[Signature, SignatureProfile] = field(default_factory=dict)
    flow_outlier_share: float = 0.0


@dataclass(frozen=True)
class TaskLabel:
    """Classification of one task against the model."""

    flow_outlier: bool
    new_signature: bool
    perf_outlier: bool
    perf_eligible: bool


#: Shared label for tasks whose signature (or stage) was never trained.
_LABEL_NEW_SIGNATURE = TaskLabel(
    flow_outlier=False, new_signature=True, perf_outlier=False, perf_eligible=False
)


def _fold_percentile(
    ordered: List[float], held_out: List[float], m: int, q: float
) -> float:
    """``q``-quantile of ``ordered`` minus its sub-multiset ``held_out``
    (both sorted; ``m`` >= 2 values remain), walking both from the top:
    a high quantile touches only the two tails."""
    position = q * (m - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    upper_value = None
    i, j = len(ordered) - 1, len(held_out) - 1
    index = m - 1
    while True:
        value = ordered[i]
        i -= 1
        if j >= 0 and value == held_out[j]:
            j -= 1
            continue
        if index == upper:
            upper_value = value
        if index == lower:
            break
        index -= 1
    if lower == upper:
        return float(value)
    weight = position - lower
    return float(value * (1.0 - weight) + upper_value * weight)


class OutlierModel:
    """The trained classifier: stage -> signature stats + thresholds.

    Parameters
    ----------
    config:
        Analyzer configuration; defaults to a fresh :class:`SAADConfig`.
    registry:
        Telemetry registry for the ``train_*`` counters; defaults to a
        private :class:`~repro.telemetry.MetricsRegistry`.  Training is
        a rare batch operation, so these are ordinary locked counters.
    """

    def __init__(self, config: Optional[SAADConfig] = None, registry=None):
        self.config = config or SAADConfig()
        self.stages: Dict[StageKey, StageModel] = {}
        self.trained = False
        #: Monotone training epoch: bumped by every (re)training pass so
        #: derived artifacts — compiled stage tables
        #: (:func:`repro.core.columnar.compile_model`), exported rules —
        #: can detect staleness and invalidate (DESIGN.md §13).
        self.generation = 0
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_train_tasks = self.registry.counter(
            "train_tasks", "feature vectors consumed by training"
        )
        self._m_train_stages = self.registry.counter(
            "train_stages", "stage models built by training"
        )
        self._m_signatures_ranked = self.registry.counter(
            "train_signatures_ranked", "signature profiles fitted by training"
        )
        self._m_signatures_discarded = self.registry.counter(
            "train_signatures_discarded",
            "signatures whose duration threshold failed the k-fold "
            "stability check",
        )

    # -- training ---------------------------------------------------------------
    def train(self, tasks: Iterable[TaskSynopsis | FeatureVector]) -> "OutlierModel":
        """Build the model from a fault-free training trace: any iterable,
        read once, of :class:`TaskSynopsis` or :class:`FeatureVector` items.

        Only the per-signature duration lists are held, in collection
        order; stages and signatures keep their first-occurrence order.
        A retrain replaces the whole stage table, so a stage the new
        trace lacks is untrained again.  Raises ``ValueError`` on an
        empty trace, leaving the model as it was."""
        config = self.config
        per_host = config.per_host
        # stage id -> host id -> signature -> durations: two int-keyed
        # levels build no key per task and alias no ids past a byte.
        grouped: Dict[int, Dict[int, Dict[Signature, List[float]]]] = {}
        stages: List[Tuple[StageKey, Dict[Signature, List[float]]]] = []
        for task in tasks:
            stage_id = task.stage_id
            host_id = task.host_id if per_host else 0
            by_host = grouped.get(stage_id)
            if by_host is None:
                by_host = grouped[stage_id] = {}
            by_signature = by_host.get(host_id)
            if by_signature is None:
                by_signature = by_host[host_id] = {}
                stages.append(((host_id, stage_id), by_signature))
            signature = task.signature
            durations = by_signature.get(signature)
            if durations is None:
                durations = by_signature[signature] = []
            durations.append(task.duration)
        if not stages:
            raise ValueError("cannot train on an empty trace")

        outlier_share_cutoff = 1.0 - config.flow_percentile
        trained: Dict[StageKey, StageModel] = {}
        for stage_key, by_signature in stages:
            total = sum(map(len, by_signature.values()))
            self._m_train_tasks.inc(total)
            stage_model = StageModel(stage_key=stage_key, total_tasks=total)
            flow_outlier_tasks = 0
            for signature, durations in by_signature.items():
                if not isinstance(signature, InternedSignature):
                    signature = intern_signature(signature)
                share = len(durations) / total
                is_flow_outlier = share < outlier_share_cutoff
                if is_flow_outlier:
                    flow_outlier_tasks += len(durations)
                profile = SignatureProfile(
                    signature=signature,
                    count=len(durations),
                    share=share,
                    is_flow_outlier=is_flow_outlier,
                )
                self._fit_duration(profile, durations)
                stage_model.signatures[signature] = profile
            self._m_signatures_ranked.inc(len(by_signature))
            stage_model.flow_outlier_share = flow_outlier_tasks / total
            trained[stage_key] = stage_model
        self.stages = trained
        self._m_train_stages.inc(len(stages))
        self.trained = True
        self.generation += 1
        return self

    #: Feature vectors train through the same loop.
    train_features = train

    def _fit_duration(self, profile: SignatureProfile, durations: List[float]) -> None:
        """Steps 2-3: percentile threshold plus k-fold stability check.

        ``durations`` is in collection order; it is sorted once, and each
        fold's held-out slice once."""
        config = self.config
        n = len(durations)
        if n < config.min_signature_samples:
            return
        ordered = sorted(durations)
        q = config.duration_percentile
        threshold = percentile_sorted(ordered, q)
        profile.duration_threshold = threshold
        nominal_rate = 1.0 - q
        profile.perf_outlier_share = (n - bisect_right(ordered, threshold)) / n

        # k-fold cross-validation (paper Sec. 3.3.2): is the held-out
        # outlier rate consistent with what a stable distribution would
        # give?  For iid continuous data the expected exceedance of a
        # q-quantile threshold built from m samples is NOT (1-q) but
        # (m(1-q) + 1) / (m + 1)  — the order-statistic correction that
        # matters at small m.  Discard only rates far above *that*.
        # Folds are contiguous runs of the *collection order* (so drift
        # over the trace is what gets caught); each fold's training
        # percentile walks the shared sorted array beside the sorted fold.
        rates = []
        expected_rates = []
        for start, end in kfold_splits(n, config.kfold):
            m = n - (end - start)
            if m < 2:
                continue
            held_out = sorted(durations[start:end])
            fold_threshold = _fold_percentile(ordered, held_out, m, q)
            above = len(held_out) - bisect_right(held_out, fold_threshold)
            rates.append(above / len(held_out))
            expected_rates.append((m * nominal_rate + 1.0) / (m + 1.0))
        if not rates:
            return
        profile.cv_outlier_rate = sum(rates) / len(rates)
        expected = sum(expected_rates) / len(expected_rates)
        profile.perf_eligible = (
            profile.cv_outlier_rate <= config.kfold_discard_factor * expected
        )
        if not profile.perf_eligible:
            self._m_signatures_discarded.inc()

    # -- classification ---------------------------------------------------------
    def stage_key_for(self, feature: FeatureVector) -> StageKey:
        """The grouping key ``feature`` falls under (respects per_host)."""
        return feature.stage_key if self.config.per_host else (0, feature.stage_id)

    def stage_model(self, stage_key: StageKey) -> Optional[StageModel]:
        """The learned :class:`StageModel` for ``stage_key``, or None."""
        return self.stages.get(stage_key)

    def classify(self, feature: FeatureVector) -> TaskLabel:
        """Label one task; unknown stages yield all-normal labels."""
        return self.classify_parts(
            self.stage_key_for(feature), feature.signature, feature.duration
        )

    def classify_parts(
        self, stage_key: StageKey, signature: Signature, duration: float
    ) -> TaskLabel:
        """Classification from the raw feature components, on float
        durations: the reference the compiled rule tables are held to.

        Avoids constructing a :class:`FeatureVector` and returns cached
        label objects — zero allocations at steady state.
        """
        if not self.trained:
            raise RuntimeError("model must be trained before classification")
        stage = self.stages.get(stage_key)
        if stage is None:
            # A whole stage never seen in training: treat its tasks as new
            # flows (conservative; surfaces brand-new code paths).
            return _LABEL_NEW_SIGNATURE
        profile = stage.signatures.get(signature)
        if profile is None:
            return _LABEL_NEW_SIGNATURE
        threshold = profile.duration_threshold
        if profile.perf_eligible and threshold is not None and duration > threshold:
            label = profile._label_perf_outlier
            if label is None:
                label = TaskLabel(
                    flow_outlier=profile.is_flow_outlier,
                    new_signature=False,
                    perf_outlier=True,
                    perf_eligible=True,
                )
                profile._label_perf_outlier = label
            return label
        label = profile._label_normal
        if label is None:
            label = TaskLabel(
                flow_outlier=profile.is_flow_outlier,
                new_signature=False,
                perf_outlier=False,
                perf_eligible=profile.perf_eligible,
            )
            profile._label_normal = label
        return label

    # -- introspection ------------------------------------------------------------
    def signature_distribution(self, stage_key: StageKey) -> List[Tuple[Signature, float]]:
        """(signature, share) pairs sorted by share descending (Fig. 6 data)."""
        stage = self.stages.get(stage_key)
        if stage is None:
            return []
        return sorted(
            ((sig, prof.share) for sig, prof in stage.signatures.items()),
            key=lambda pair: pair[1],
            reverse=True,
        )

    def summary(self) -> Dict[StageKey, Tuple[int, int]]:
        """Per stage: (total tasks, distinct signatures)."""
        return {
            key: (model.total_tasks, len(model.signatures))
            for key, model in self.stages.items()
        }
