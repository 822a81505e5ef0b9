"""Tests for outlier-model training and classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SAAD, FeatureVector, OutlierModel, SAADConfig, TaskSynopsis
from repro.core.interning import InternedSignature, intern_signature
from repro.core.persistence import model_to_json

from .model_reference import ReferenceModel


def synopsis(stage=1, host=0, uid=0, start=0.0, duration=0.01, lps=(1, 2, 3)):
    return TaskSynopsis(
        host_id=host,
        stage_id=stage,
        uid=uid,
        start_time=start,
        duration=duration,
        log_points={lp: 1 for lp in lps},
    )


def make_training_trace(
    n_common=990, n_rare=10, common_duration=0.01, rng_seed=7
):
    """A stage with one dominant signature and one rare signature."""
    rng = random.Random(rng_seed)
    trace = []
    for i in range(n_common):
        trace.append(
            synopsis(
                uid=i,
                duration=common_duration * rng.lognormvariate(0, 0.3),
                lps=(1, 2, 4, 5),
            )
        )
    for i in range(n_rare):
        trace.append(
            synopsis(uid=n_common + i, duration=common_duration, lps=(1, 2, 3, 4, 5))
        )
    return trace


class TestTraining:
    def test_dominant_signature_is_normal(self):
        model = OutlierModel().train(make_training_trace())
        stage = model.stages[(0, 1)]
        common = stage.signatures[frozenset({1, 2, 4, 5})]
        assert not common.is_flow_outlier
        assert common.share > 0.95

    def test_rare_signature_is_flow_outlier(self):
        model = OutlierModel().train(make_training_trace())
        stage = model.stages[(0, 1)]
        rare = stage.signatures[frozenset({1, 2, 3, 4, 5})]
        assert rare.is_flow_outlier
        assert stage.flow_outlier_share == pytest.approx(0.01)

    def test_flow_percentile_config_respected(self):
        # With a 90th-percentile threshold, a 1%-share signature is still an
        # outlier; with a 50%... flow_percentile must stay in [0.5, 1).
        config = SAADConfig(flow_percentile=0.9)
        model = OutlierModel(config).train(make_training_trace(n_common=900, n_rare=100))
        stage = model.stages[(0, 1)]
        rare = stage.signatures[frozenset({1, 2, 3, 4, 5})]
        # 10% share is not below the 10% cutoff.
        assert not rare.is_flow_outlier

    def test_duration_threshold_learned_for_big_signatures(self):
        model = OutlierModel().train(make_training_trace())
        stage = model.stages[(0, 1)]
        common = stage.signatures[frozenset({1, 2, 4, 5})]
        assert common.duration_threshold is not None
        assert common.duration_threshold > 0.01  # above the median
        assert common.perf_eligible

    def test_small_signatures_not_perf_eligible(self):
        model = OutlierModel().train(make_training_trace(n_rare=5))
        stage = model.stages[(0, 1)]
        rare = stage.signatures[frozenset({1, 2, 3, 4, 5})]
        assert rare.duration_threshold is None
        assert not rare.perf_eligible

    def test_kfold_discards_unstable_distribution(self):
        # For iid samples the held-out exceedance rate of a p99 threshold is
        # ~1% regardless of shape, so the k-fold check specifically catches
        # *non-stationary* durations: thresholds learned on part of the trace
        # do not transfer.  Simulate a drifting stage: the last fifth of the
        # trace is 10x slower.
        rng = random.Random(3)
        trace = []
        for i in range(1000):
            median = 0.01 if i < 800 else 0.1
            trace.append(
                synopsis(uid=i, duration=median * rng.lognormvariate(0, 0.2))
            )
        model = OutlierModel(SAADConfig(kfold_discard_factor=1.5)).train(trace)
        profile = model.stages[(0, 1)].signatures[frozenset({1, 2, 3})]
        assert profile.cv_outlier_rate is not None
        # The slow fold blows past thresholds learned from the fast folds.
        assert profile.cv_outlier_rate > 0.015
        assert not profile.perf_eligible

    def test_per_host_models_are_separate(self):
        trace = [synopsis(host=0, uid=i) for i in range(50)]
        trace += [synopsis(host=1, uid=i, lps=(7, 8)) for i in range(50)]
        model = OutlierModel().train(trace)
        assert (0, 1) in model.stages
        assert (1, 1) in model.stages
        assert frozenset({7, 8}) not in model.stages[(0, 1)].signatures

    def test_pooled_model_when_per_host_false(self):
        trace = [synopsis(host=h, uid=i) for h in (0, 1) for i in range(10)]
        model = OutlierModel(SAADConfig(per_host=False)).train(trace)
        assert list(model.stages) == [(0, 1)]
        assert model.stages[(0, 1)].total_tasks == 20

    @pytest.mark.parametrize("shape", [list, iter])
    def test_empty_trace_raises(self, shape):
        model = OutlierModel()
        with pytest.raises(ValueError, match="empty"):
            model.train(shape([]))
        assert not model.trained
        assert model.generation == 0
        assert model.registry.get("train_tasks").value == 0

    def test_retrain_replaces_the_stage_table(self):
        model = OutlierModel().train([synopsis(stage=1, uid=i) for i in range(20)])
        before = model.stages
        model.train([synopsis(stage=2, uid=i) for i in range(20)])
        assert sorted(model.stages) == [(0, 2)]
        assert model.generation == 2
        with pytest.raises(ValueError, match="empty"):
            model.train([])
        assert sorted(model.stages) == [(0, 2)] and model.generation == 2
        assert sorted(before) == [(0, 1)]  # the old table was not edited

    def test_deployment_with_an_empty_collector_raises(self):
        # A drained collector, or one whose retention a stream detector
        # ended, holds nothing to train on: no model is built from it.
        saad = SAAD(SAADConfig())
        with pytest.raises(ValueError, match="empty"):
            saad.train()
        assert saad.model is None


class TestSingleSortFit:
    def naive_fit(self, durations, config):
        """The seed's copy-per-fold reference implementation."""
        from repro.core import kfold_splits, percentile

        threshold = percentile(durations, config.duration_percentile)
        share = sum(1 for d in durations if d > threshold) / len(durations)
        rates = []
        for start, end in kfold_splits(len(durations), config.kfold):
            held_out = durations[start:end]
            training = durations[:start] + durations[end:]
            if not held_out or len(training) < 2:
                continue
            fold_threshold = percentile(training, config.duration_percentile)
            rates.append(
                sum(1 for d in held_out if d > fold_threshold) / len(held_out)
            )
        cv_rate = sum(rates) / len(rates) if rates else None
        return threshold, share, cv_rate

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [20, 21, 97, 500])
    def test_matches_copy_per_fold_reference(self, seed, n):
        # The single-sort fit must agree exactly with the seed's
        # slice-copy-and-resort implementation, duplicates included.
        rng = random.Random(seed)
        durations = [
            round(0.01 * rng.lognormvariate(0, 0.4), 4 if seed % 2 else 17)
            for _ in range(n)
        ]
        config = SAADConfig()
        model = OutlierModel(config)
        from repro.core import SignatureProfile

        profile = SignatureProfile(
            signature=frozenset({1}), count=n, share=1.0, is_flow_outlier=False
        )
        model._fit_duration(profile, durations)
        threshold, share, cv_rate = self.naive_fit(durations, config)
        assert profile.duration_threshold == pytest.approx(threshold, rel=0, abs=0)
        assert profile.perf_outlier_share == share
        assert profile.cv_outlier_rate == pytest.approx(cv_rate, rel=0, abs=0)


#: Durations drawn mostly from a few values, so folds and thresholds tie.
_TIED = st.sampled_from([0.0, -0.0, 0.001, 0.002, 0.0025, 0.01, 0.01, 0.1, 1.0])
_DURATIONS = st.one_of(_TIED, _TIED, st.floats(0.0, 2.0, allow_nan=False))
_SIGNATURES = [(1, 2, 3), (1, 2), (4,), (), (1, 2, 3, 70000)]


@st.composite
def _training_runs(draw):
    """A config, a trace, and how the trace reaches the trainer."""
    config = SAADConfig(
        flow_percentile=draw(st.floats(0.5, 0.99)),
        duration_percentile=draw(
            st.sampled_from([0.5, 0.9, 0.99, 0.999]) | st.floats(0.5, 0.999)
        ),
        kfold=draw(st.integers(2, 9)),
        kfold_discard_factor=draw(st.floats(1.0, 4.0)),
        min_signature_samples=draw(st.integers(1, 25)),
        per_host=draw(st.booleans()),
    )
    features = draw(st.booleans())
    # Feature vectors do not range-check their ids: (0, 256) and
    # (1, 0) are two stage keys however the trainer groups them.
    ids = st.sampled_from([0, 1, 2, 256, 257] if features else [0, 1, 2, 255])
    keys = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=4))
    signatures = draw(st.lists(st.sampled_from(_SIGNATURES), min_size=1, max_size=3))
    tasks = []
    for uid in range(draw(st.integers(1, 90))):
        host_id, stage_id = draw(st.sampled_from(keys))
        lps = draw(st.sampled_from(signatures))
        duration = draw(_DURATIONS)
        if features:
            plain = draw(st.booleans())
            signature = frozenset(lps) if plain else intern_signature(lps)
            tasks.append(FeatureVector(uid, host_id, stage_id, signature, duration, 0.0))
        else:
            log_points = {lp: 1 for lp in lps}
            tasks.append(TaskSynopsis(host_id, stage_id, uid, 0.0, duration, log_points))
    return config, tasks, draw(st.sampled_from([list, iter, lambda t: (x for x in t)]))


class TestReferenceTrainer:
    """The trainer builds the models of the frozen reference bodies in
    ``model_reference.py``, down to the order of stages and signatures."""

    @settings(max_examples=settings.default.max_examples, deadline=None)
    @given(_training_runs())
    def test_same_model_as_the_reference(self, run):
        config, tasks, shape = run
        model = OutlierModel(config).train(shape(tasks))
        reference = ReferenceModel(config)
        if isinstance(tasks[0], FeatureVector):
            reference.train_features(shape(tasks))
        else:
            reference.train(shape(tasks))
        assert model_to_json(model) == model_to_json(reference)
        # model_to_json sorts stages: their order is checked on its own.
        assert list(model.stages) == list(reference.stages)
        for key, stage in model.stages.items():
            assert list(stage.signatures) == list(reference.stages[key].signatures)
            assert all(type(sig) is InternedSignature for sig in stage.signatures)
        assert (
            model.registry.get("train_tasks").value
            == reference.registry.get("train_tasks").value
            == len(tasks)
        )


class TestClassification:
    @pytest.fixture
    def model(self):
        return OutlierModel().train(make_training_trace())

    def feature(self, duration=0.01, lps=(1, 2, 4, 5)):
        return FeatureVector(
            uid=0,
            host_id=0,
            stage_id=1,
            signature=frozenset(lps),
            duration=duration,
            start_time=0.0,
        )

    def test_normal_task(self, model):
        label = model.classify(self.feature())
        assert not label.flow_outlier
        assert not label.new_signature
        assert not label.perf_outlier
        assert label.perf_eligible

    def test_rare_signature_is_flow_outlier(self, model):
        label = model.classify(self.feature(lps=(1, 2, 3, 4, 5)))
        assert label.flow_outlier
        assert not label.new_signature

    def test_new_signature_detected(self, model):
        label = model.classify(self.feature(lps=(1, 2)))
        assert label.new_signature
        assert not label.flow_outlier

    def test_slow_task_is_perf_outlier(self, model):
        label = model.classify(self.feature(duration=10.0))
        assert label.perf_outlier
        assert not label.flow_outlier

    def test_unknown_stage_is_new_flow(self, model):
        feature = FeatureVector(
            uid=0, host_id=0, stage_id=99, signature=frozenset({1}),
            duration=0.0, start_time=0.0,
        )
        label = model.classify(feature)
        assert label.new_signature

    def test_untrained_model_raises(self):
        with pytest.raises(RuntimeError):
            OutlierModel().classify(
                FeatureVector(0, 0, 0, frozenset(), 0.0, 0.0)
            )


class TestIntrospection:
    def test_signature_distribution_sorted(self):
        model = OutlierModel().train(make_training_trace())
        dist = model.signature_distribution((0, 1))
        assert len(dist) == 2
        assert dist[0][1] >= dist[1][1]
        assert sum(share for _, share in dist) == pytest.approx(1.0)

    def test_summary(self):
        model = OutlierModel().train(make_training_trace())
        assert model.summary()[(0, 1)] == (1000, 2)
