import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_blob_gallery, small_config
from deepelm import (
    ConfigError,
    Gallery,
    ImageSet,
    ProtocolSpec,
    SynthParams,
    classify_set,
    inject_noise,
    measure_run,
    normalize_gallery,
    report_key_values,
    report_text,
    run_kfold,
    split_folds,
    subsample_sets,
    synth_generate,
    train_all,
)
from deepelm import harness
from deepelm.datasets import canonical_sets


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestSplitFolds:
    def test_structure_and_disjointness(self):
        gallery = make_blob_gallery(classes=3, sets_per_class=4, samples_per_set=4,
                                    dim=6, seed=1)
        spec = ProtocolSpec(folds=4, gallery_sets_per_class=2, seed=1)
        folds = split_folds(gallery, spec)
        assert len(folds) == 4
        for gal, probes in folds:
            gal_ids = {s.set_id for s in gal}
            probe_ids = {s.set_id for s in probes}
            assert not gal_ids & probe_ids
            assert len(gal_ids) == 6 and len(probe_ids) == 6
            for label in gallery.classes:
                assert sum(s.label == label for s in gal) == 2

    def test_deterministic(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=3, samples_per_set=4,
                                    dim=6, seed=2)
        spec = ProtocolSpec(folds=3, gallery_sets_per_class=1, seed=9)
        a = split_folds(gallery, spec)
        b = split_folds(gallery, spec)
        for (ga, pa), (gb, pb) in zip(a, b):
            assert [s.set_id for s in ga] == [s.set_id for s in gb]
            assert [s.set_id for s in pa] == [s.set_id for s in pb]

    def test_folds_differ(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=6, samples_per_set=3,
                                    dim=6, seed=3)
        folds = split_folds(gallery, ProtocolSpec(folds=6, gallery_sets_per_class=3, seed=0))
        signatures = {tuple(sorted(s.set_id for s in gal)) for gal, _ in folds}
        assert len(signatures) > 1

    def test_default_half_split(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=5, samples_per_set=3,
                                    dim=6, seed=4)
        folds = split_folds(gallery, ProtocolSpec(folds=1, seed=0))
        gal, probes = folds[0]
        for label in gallery.classes:
            assert sum(s.label == label for s in gal) == 2
            assert sum(s.label == label for s in probes) == 3

    def test_single_set_class_is_protocol_error(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=1, samples_per_set=4,
                                    dim=6, seed=5)
        with pytest.raises(ConfigError, match="class 'class00' has 1 sets"):
            split_folds(gallery, ProtocolSpec(folds=2, gallery_sets_per_class=1, seed=0))


def inject_noise_loop(gallery, probes, mode, seed):
    """The per-label donor loop inject_noise once ran, as its oracle."""
    everything = list(gallery.sets) + list(probes)
    labels = sorted({s.label for s in everything})
    pools = {
        label: np.hstack([s.features for s in canonical_sets(everything) if s.label == label])
        for label in labels
    }
    rng = np.random.default_rng(seed)

    def corrupt(s):
        extras = []
        for other in labels:
            if other != s.label:
                pool = pools[other]
                extras.append(pool[:, rng.integers(pool.shape[1])])
        return ImageSet(np.hstack([s.features] + [e[:, None] for e in extras]), s.label, s.set_id)

    new_gallery = gallery
    if mode in ("ng", "ngp"):
        new_gallery = Gallery([corrupt(s) for s in gallery.sets])
    new_probes = probes
    if mode in ("np", "ngp"):
        new_probes = [corrupt(s) for s in probes]
    return new_gallery, new_probes


class TestInjectNoise:
    def _inputs(self, c=5, seed=6):
        gallery = make_blob_gallery(classes=c, sets_per_class=2, samples_per_set=6,
                                    dim=6, seed=seed)
        probes = [
            ImageSet(s.features.copy(), s.label, s.set_id + "_probe")
            for s in gallery.sets[: c]
        ]
        return gallery, probes

    def test_clean_mode_returns_inputs_untouched(self):
        gallery, probes = self._inputs()
        g2, p2 = inject_noise(gallery, probes, "nc", seed=0)
        assert g2 is gallery and p2 is probes

    @pytest.mark.parametrize("c", [2, 5, 10])
    def test_gallery_mode_grows_each_gallery_set(self, c):
        gallery, probes = self._inputs(c=c)
        g2, p2 = inject_noise(gallery, probes, "ng", seed=1)
        for before, after in zip(gallery.sets, g2.sets):
            assert after.n_samples == before.n_samples + (c - 1)
            assert np.array_equal(after.features[:, : before.n_samples], before.features)
        for before, after in zip(probes, p2):
            assert after is before

    @pytest.mark.parametrize("c", [2, 5, 10])
    def test_probe_mode_grows_each_probe_set(self, c):
        gallery, probes = self._inputs(c=c)
        g2, p2 = inject_noise(gallery, probes, "np", seed=2)
        assert g2 is gallery
        for before, after in zip(probes, p2):
            assert after.n_samples == before.n_samples + (c - 1)

    @pytest.mark.parametrize("c", [2, 5, 10])
    def test_both_mode_grows_everything(self, c):
        gallery, probes = self._inputs(c=c)
        g2, p2 = inject_noise(gallery, probes, "ngp", seed=3)
        for before, after in zip(gallery.sets, g2.sets):
            assert after.n_samples == before.n_samples + (c - 1)
        for before, after in zip(probes, p2):
            assert after.n_samples == before.n_samples + (c - 1)

    def test_appended_samples_come_from_other_classes(self):
        gallery, probes = self._inputs(c=3)
        pools = {}
        for s in list(gallery.sets) + list(probes):
            pools.setdefault(s.label, []).append(s.features)
        pools = {lab: np.hstack(mats) for lab, mats in pools.items()}
        g2, _ = inject_noise(gallery, probes, "ng", seed=4)
        for before, after in zip(gallery.sets, g2.sets):
            added = after.features[:, before.n_samples :]
            others = [lab for lab in sorted(pools) if lab != before.label]
            assert added.shape[1] == len(others)
            for k, lab in enumerate(others):
                col = added[:, k]
                matches = np.abs(pools[lab] - col[:, None]).max(axis=0) == 0.0
                assert matches.any(), f"appended column not found in class {lab}"

    def test_deterministic(self):
        gallery, probes = self._inputs()
        a = inject_noise(gallery, probes, "ngp", seed=7)
        b = inject_noise(gallery, probes, "ngp", seed=7)
        for sa, sb in zip(a[0].sets, b[0].sets):
            assert np.array_equal(sa.features, sb.features)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("mode", ["ng", "np", "ngp"])
    def test_matches_per_label_loop(self, mode, seed):
        # uneven pools, one of a single sample, in no canonical order
        rng = np.random.default_rng(seed)
        gallery, probes = self._inputs(c=4, seed=seed)
        cut = [ImageSet(s.features[:, : rng.integers(1, 7)], s.label, s.set_id)
               for s in reversed(gallery.sets)]
        cut.append(ImageSet(rng.random((6, 1)), "lone", "a_lone"))
        gallery, probes = Gallery(cut), probes[::-1]
        got = inject_noise(gallery, probes, mode, seed=[seed, 2])
        want = inject_noise_loop(gallery, probes, mode, seed=[seed, 2])
        for got_sets, want_sets in zip((got[0].sets, got[1]), (want[0].sets, want[1])):
            assert [s.set_id for s in got_sets] == [s.set_id for s in want_sets]
            for a, b in zip(got_sets, want_sets, strict=True):
                assert a.features.shape == b.features.shape
                assert a.features.tobytes() == b.features.tobytes()
                assert a.label == b.label

    def test_rejects_unknown_mode(self):
        gallery, probes = self._inputs()
        with pytest.raises(ConfigError, match="noise_mode"):
            inject_noise(gallery, probes, "loud", seed=0)


class TestSubsampleSets:
    def _inputs(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=2, samples_per_set=8,
                                    dim=5, seed=8)
        probes = [ImageSet(s.features.copy(), s.label, s.set_id + "_p")
                  for s in gallery.sets]
        return gallery, probes

    def test_no_cap_is_identity(self):
        gallery, probes = self._inputs()
        g2, p2 = subsample_sets(gallery, probes, None, seed=0)
        assert g2 is gallery and p2 is probes

    def test_large_cap_keeps_everything_in_order(self):
        gallery, probes = self._inputs()
        g2, p2 = subsample_sets(gallery, probes, 100, seed=0)
        for before, after in zip(gallery.sets, g2.sets):
            assert after is before
        for before, after in zip(probes, p2):
            assert after is before

    def test_cap_one(self):
        gallery, probes = self._inputs()
        g2, p2 = subsample_sets(gallery, probes, 1, seed=1)
        for s in list(g2.sets) + list(p2):
            assert s.n_samples == 1

    def test_subset_preserves_column_order(self):
        gallery, probes = self._inputs()
        g2, _ = subsample_sets(gallery, probes, 3, seed=2)
        for before, after in zip(gallery.sets, g2.sets):
            assert after.n_samples == 3
            # every kept column appears in the original, in order
            pos = -1
            for j in range(3):
                col = after.features[:, j]
                hits = np.where((before.features == col[:, None]).all(axis=0))[0]
                assert hits.size >= 1
                assert hits[-1] > pos
                pos = hits[-1]

    def test_deterministic(self):
        gallery, probes = self._inputs()
        a = subsample_sets(gallery, probes, 3, seed=5)
        b = subsample_sets(gallery, probes, 3, seed=5)
        for sa, sb in zip(a[0].sets, b[0].sets):
            assert np.array_equal(sa.features, sb.features)

    @given(st.integers(1, 30), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_cap_rule_property(self, cap, n_samples):
        rng = np.random.default_rng(cap * 100 + n_samples)
        s = ImageSet(rng.random(size=(3, n_samples)), "a", "a0")
        t = ImageSet(rng.random(size=(3, n_samples)), "b", "b0")
        g2, p2 = subsample_sets(Gallery([s, t]), [], cap, seed=0)
        for after in g2.sets:
            assert after.n_samples == min(cap, n_samples)


class TestRunKfold:
    def test_report_structure_and_determinism(self):
        gallery = make_blob_gallery(classes=3, sets_per_class=4, samples_per_set=6,
                                    dim=10, sigma=0.03, seed=9)
        spec = ProtocolSpec(folds=2, gallery_sets_per_class=2, seed=9)
        cfg = small_config(seed=9, widths=(5, 5))
        a = run_kfold(gallery, spec, cfg)
        b = run_kfold(gallery, spec, cfg)
        assert len(a.fold_accuracies) == 2
        assert a.fold_accuracies == b.fold_accuracies
        assert 0.0 <= a.mean_accuracy <= 100.0
        assert a.std_accuracy >= 0.0
        assert a.train_seconds > 0.0 and a.test_seconds_per_set > 0.0

    def test_separable_blobs_score_high(self):
        gallery = synth_generate(
            SynthParams(classes=5, sets_per_class=4, samples_per_set=20,
                        feature_dim=50, manifold="blob", noise_sigma=0.05, seed=0)
        )
        report = run_kfold(gallery, ProtocolSpec(folds=2, gallery_sets_per_class=2, seed=0),
                           small_config(seed=0, widths=(20, 20)))
        assert report.mean_accuracy >= 95.0

    def test_noise_and_cap_echoed_in_summary(self):
        gallery = make_blob_gallery(classes=3, sets_per_class=4, samples_per_set=9,
                                    dim=8, seed=10)
        spec = ProtocolSpec(folds=2, gallery_sets_per_class=2, seed=10,
                            noise_mode="ngp", max_samples_per_set=3)
        report = run_kfold(gallery, spec, small_config(seed=10, widths=(4, 4)))
        assert report.data_summary["noise_added_per_set"] == 2
        # capped at 3 then grown by c-1 = 2 foreign samples
        assert report.data_summary["max_set_samples"] == 5


@pytest.fixture
def traced_flags(monkeypatch):
    """Whether tracemalloc was on at each harness.train_all call."""
    flags = []
    real = harness.train_all

    def train_all_recording(*args, **kwargs):
        flags.append(tracemalloc.is_tracing())
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "train_all", train_all_recording)
    return flags


class TestTrainingUntraced:
    def test_run_kfold_trains_every_fold_untraced(self, traced_flags):
        gallery = make_blob_gallery(classes=3, sets_per_class=4, samples_per_set=9,
                                    dim=8, seed=16)
        spec = ProtocolSpec(folds=3, gallery_sets_per_class=2, seed=16,
                            noise_mode="ngp", max_samples_per_set=4)
        report = run_kfold(gallery, spec, small_config(seed=16, widths=(4, 4)))
        assert traced_flags == [False, False, False]
        assert report.peak_memory_bytes is None

    def test_measure_run_traces_one_pass_and_times_another(self, traced_flags):
        gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=8,
                                    dim=10, seed=17)
        report = measure_run(gallery, list(gallery.sets), small_config(seed=17, widths=(4, 4)))
        assert traced_flags == [True, False]
        assert not tracemalloc.is_tracing()
        assert report.peak_memory_bytes > 0

    def test_measure_run_leaves_a_running_trace_on(self, traced_flags):
        gallery = make_blob_gallery(classes=2, sets_per_class=2, samples_per_set=6,
                                    dim=6, seed=18)
        tracemalloc.start()
        try:
            measure_run(gallery, list(gallery.sets), small_config(seed=18, widths=(3, 3)))
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert traced_flags == [True, True]


class TestMajorityVoteRobustness:
    def test_corrupted_set_keeps_its_label(self):
        c = 3
        gallery = make_blob_gallery(classes=c, sets_per_class=2, samples_per_set=5,
                                    dim=12, sigma=0.01, seed=11)
        norm_all, stats = normalize_gallery(gallery)
        models = train_all(norm_all, small_config(seed=11, widths=(5, 5)),
                           feature_stats=stats)

        # every clean sample individually classifies correctly (precondition)
        for s in gallery.sets:
            pred = classify_set(s, models)
            assert all(lab == s.label for lab in pred.per_sample_labels)

        # corrupt every set with one foreign sample per other class
        target = gallery.sets[0]
        assert target.n_samples >= 2 * (c - 1) + 1
        corrupted, _ = inject_noise(gallery, [], "ng", seed=12)
        for s in corrupted.sets:
            assert classify_set(s, models).set_label == s.label


class TestMeasureRun:
    def test_fields(self):
        gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=8,
                                    dim=10, seed=13)
        report = measure_run(gallery, list(gallery.sets), small_config(seed=13, widths=(4, 4)))
        assert report.train_seconds > 0.0
        assert report.test_seconds_per_set > 0.0
        assert report.fold_accuracies == (100.0,)
        # the gallery matrix itself is allocated while training
        lower_bound = gallery.feature_dim * gallery.total_samples * 8
        assert report.peak_memory_bytes >= lower_bound

    def test_test_time_roughly_linear_in_probe_count(self):
        gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=60,
                                    dim=40, seed=14)
        cfg = small_config(seed=14, widths=(10, 10))
        probes = list(gallery.sets)

        def total_test_seconds(reps):
            many = [ImageSet(s.features, s.label, f"{s.set_id}_{r}")
                    for r in range(reps) for s in probes]
            report = measure_run(gallery, many, cfg)
            return report.test_seconds_per_set * len(many)

        # medians of alternating runs, so that a burst of load elsewhere on
        # the machine falls on both sides and moves neither median much
        runs = [(total_test_seconds(8), total_test_seconds(16)) for _ in range(7)]
        t1, t2 = np.median(runs, axis=0)
        assert t1 < t2 < 3.0 * t1


class TestReportRendering:
    def _report(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=2, samples_per_set=5,
                                    dim=6, seed=15)
        spec = ProtocolSpec(folds=2, gallery_sets_per_class=1, seed=15)
        return run_kfold(gallery, spec, small_config(seed=15, widths=(3, 3)))

    def test_key_values_round_trip(self):
        report = self._report()
        kv = parse_kv(report_key_values(report))
        assert kv["format"] == "delm-report-v1"
        assert kv["config_seed"] == "15"
        assert kv["protocol_folds"] == "2"
        assert float(kv["accuracy_mean_pct"]) == report.mean_accuracy
        assert float(kv["accuracy_fold_0_pct"]) == report.fold_accuracies[0]
        assert int(kv["fold_count"]) == 2
        assert float(kv["train_seconds"]) == report.train_seconds

    def test_text_report_echoes_config(self):
        report = self._report()
        text = report_text(report)
        assert "seed=15" in text
        assert "folds=2" in text
        assert "accuracy" in text
        assert "train time" in text

    def test_kfold_reports_leave_the_peak_unmeasured(self):
        report = self._report()
        assert report.peak_memory_bytes is None
        assert parse_kv(report_key_values(report))["peak_memory_bytes"] == ""
        text = report_text(report)
        assert "peak training memory: not measured (see `deepelm bench`)" in text
        assert "estimate" not in text

    def test_measured_peak_rendered_in_bytes(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=2, samples_per_set=5,
                                    dim=6, seed=15)
        report = measure_run(gallery, list(gallery.sets), small_config(seed=15, widths=(3, 3)))
        kv = parse_kv(report_key_values(report))
        assert int(kv["peak_memory_bytes"]) == report.peak_memory_bytes > 0
        text = report_text(report)
        assert f"peak training memory estimate: {report.peak_memory_bytes} bytes" in text


class TestProtocolValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolSpec(folds=0)
        with pytest.raises(ConfigError):
            ProtocolSpec(noise_mode="nope")
        with pytest.raises(ConfigError):
            ProtocolSpec(max_samples_per_set=0)
        with pytest.raises(ConfigError):
            ProtocolSpec(gallery_sets_per_class=0)
