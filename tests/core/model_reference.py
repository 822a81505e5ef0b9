"""A frozen reference trainer for :class:`~repro.core.OutlierModel`.

:class:`ReferenceModel` trains the way the model did before grouping
read the task fields directly and the k-fold pass walked a sorted fold:
every synopsis is vectorized into a :class:`FeatureVector`, tasks are
grouped with ``setdefault``, and each fold's training percentile walks
the sorted durations skipping a held-out multiset kept in a dict.  The
bodies below are kept verbatim; the live trainer is held to the models
they build (``tests/core/test_model.py::TestReferenceTrainer``).
"""

import math
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional

from repro.core import FeatureVector, OutlierModel, SignatureProfile, StageModel
from repro.core.features import Signature, StageKey
from repro.core.interning import InternedSignature, intern_signature
from repro.core.stats import kfold_splits, percentile_sorted


def _percentile_excluding(
    ordered: List[float], exclude: Dict[float, int], m: int, q: float
) -> float:
    """``q``-quantile of ``ordered`` minus the ``exclude`` multiset.

    ``ordered`` is the full sorted duration array; ``exclude`` maps value
    -> occurrences held out (consumed destructively); ``m`` is the size of
    the remaining training multiset (must be >= 2).  Walks the sorted
    array from the top, so for high quantiles it touches only the tail.
    """
    position = q * (m - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    lower_value: Optional[float] = None
    upper_value: Optional[float] = None
    index = m - 1
    for value in reversed(ordered):
        remaining = exclude.get(value)
        if remaining:
            exclude[value] = remaining - 1
            continue
        if index == upper:
            upper_value = value
        if index == lower:
            lower_value = value
            break
        index -= 1
    assert lower_value is not None and upper_value is not None
    if lower == upper:
        return float(lower_value)
    weight = position - lower
    return float(lower_value * (1.0 - weight) + upper_value * weight)


class ReferenceModel(OutlierModel):
    """An :class:`OutlierModel` trained by the reference bodies."""

    def train(self, synopses):
        return self.train_features(map(FeatureVector.from_synopsis, synopses))

    def train_features(self, features: Iterable[FeatureVector]) -> "OutlierModel":
        config = self.config
        grouped: Dict[StageKey, Dict[Signature, List[float]]] = {}
        per_host = config.per_host
        tasks = 0
        for feature in features:
            tasks += 1
            key = feature.stage_key if per_host else (0, feature.stage_id)
            signature = feature.signature
            if not isinstance(signature, InternedSignature):
                signature = intern_signature(signature)
            grouped.setdefault(key, {}).setdefault(signature, []).append(
                feature.duration
            )
        self._m_train_tasks.inc(tasks)

        outlier_share_cutoff = 1.0 - config.flow_percentile
        for stage_key, by_signature in grouped.items():
            total = sum(len(durations) for durations in by_signature.values())
            stage_model = StageModel(stage_key=stage_key, total_tasks=total)
            flow_outlier_tasks = 0
            for signature, durations in by_signature.items():
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
                self._m_signatures_ranked.inc()
                stage_model.signatures[signature] = profile
            stage_model.flow_outlier_share = flow_outlier_tasks / total if total else 0.0
            self.stages[stage_key] = stage_model
            self._m_train_stages.inc()
        self.trained = True
        self.generation += 1
        return self

    def _fit_duration(self, profile: SignatureProfile, durations: List[float]) -> None:
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

        rates = []
        expected_rates = []
        for start, end in kfold_splits(n, config.kfold):
            held_out = durations[start:end]
            m = n - len(held_out)
            if not held_out or m < 2:
                continue
            exclude: Dict[float, int] = {}
            for value in held_out:
                exclude[value] = exclude.get(value, 0) + 1
            fold_threshold = _percentile_excluding(ordered, exclude, m, q)
            rates.append(
                sum(1 for d in held_out if d > fold_threshold) / len(held_out)
            )
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
