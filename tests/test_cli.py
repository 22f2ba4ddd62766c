import filecmp

import numpy as np
import pytest

from deepelm import ConfigError, ProtocolSpec, SynthParams, TrainConfig, cli
from deepelm.cli import main
from deepelm.persistence import load_models


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def synth_dir(tmp_path, capsys):
    out = tmp_path / "gallery"
    code, _, _ = run(
        capsys, "synth", "--out-dir", str(out), "--classes", "3",
        "--sets-per-class", "3", "--samples-per-set", "8", "--dim", "12",
        "--noise-sigma", "0.02", "--seed", "5",
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_expected_entries(self, synth_dir):
        manifest = synth_dir / "manifest.txt"
        lines = [l for l in manifest.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 9
        for line in lines:
            set_id, label, rel = line.split("\t")
            assert (synth_dir / rel).is_file()

    def test_seeded_runs_are_diff_identical(self, tmp_path, capsys):
        args = ["synth", "--classes", "2", "--sets-per-class", "1",
                "--samples-per-set", "4", "--dim", "5", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *args, "--out-dir", str(a))[0] == 0
        assert run(capsys, *args, "--out-dir", str(b))[0] == 0
        match, mismatch, errors = filecmp.cmpfiles(
            a, b, [p.name for p in a.iterdir()], shallow=False
        )
        assert not mismatch and not errors

    def test_invalid_params_exit_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out-dir", str(tmp_path / "g"),
                           "--classes", "0")
        assert code == 3
        assert "classes" in err

    def test_sinusoid_in_one_dimension_exit_3(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, _, err = run(capsys, "synth", "--out-dir", str(out),
                           "--manifold", "sinusoid", "--dim", "1")
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "feature_dim >= 2" in err
        assert not out.exists()

    def test_unwritable_out_dir_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("flat file, not a directory")
        code, _, err = run(capsys, "synth", "--out-dir", str(blocker / "sub"))
        assert code == 2
        assert "error" in err


class TestTrain:
    def test_happy_path(self, synth_dir, tmp_path, capsys):
        model_path = tmp_path / "model.delm"
        code, out, _ = run(
            capsys, "train", str(synth_dir / "manifest.txt"),
            "--out", str(model_path), "--width", "5", "--seed", "5",
        )
        assert code == 0
        assert model_path.is_file()
        assert "train_seconds=" in out and "classes=3" in out
        models = load_models(model_path)
        assert models.class_labels == ("class00", "class01", "class02")

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere" / "manifest.txt"
        code, _, err = run(capsys, "train", str(missing), "--out", str(tmp_path / "m"))
        assert code == 2
        assert str(missing) in err

    def test_zero_hidden_layers_exit_3(self, synth_dir, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", str(synth_dir / "manifest.txt"),
            "--out", str(tmp_path / "m"), "--hidden-layers", "0",
        )
        assert code == 3
        assert "h must be >= 1" in err

    def test_width_count_mismatch_exit_3(self, synth_dir, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", str(synth_dir / "manifest.txt"),
            "--out", str(tmp_path / "m"),
            "--width", "5", "--width", "6", "--width", "7",
        )
        assert code == 3
        assert "--width" in err

    def test_banner_echoes_effective_config(self, synth_dir, tmp_path, capsys):
        code, out, _ = run(
            capsys, "train", str(synth_dir / "manifest.txt"),
            "--out", str(tmp_path / "m.delm"), "--seed", "42", "--width", "6",
        )
        assert code == 0
        banner = out.splitlines()[0]
        assert "seed=42" in banner and "widths=6,6" in banner and "hidden_layers=2" in banner


class TestMissingOutputDirectory:
    """train, classify and eval check that the directory of --out exists
    before they load, train or write anything."""

    @pytest.fixture()
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the output directory was checked")

        for name in ("load_gallery", "load_image_sets", "load_models", "train_all", "run_kfold"):
            monkeypatch.setattr(cli, name, fail)

    @pytest.mark.parametrize("command", ["train", "classify", "eval"])
    def test_exit_2_before_any_work(self, command, synth_dir, tmp_path, capsys, no_work):
        manifest, missing = str(synth_dir / "manifest.txt"), tmp_path / "missing"
        argv = {
            "train": ["train", manifest, "--out", str(missing / "m.dlmc")],
            "classify": ["classify", "--model", str(tmp_path / "m.dlmc"),
                         "--probes", manifest, "--out", str(missing / "r.tsv")],
            "eval": ["eval", manifest, "--out", str(missing / "r.txt")],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: output directory not found: {missing}\n"
        assert out.count("\n") == 1  # the banner alone
        assert sorted(tmp_path.rglob("*")) == before


class TestSeedAndNoiseSigma:
    """Seeds outside [0, 2**63 - 1] and non-finite or negative noise sigmas
    are config errors, rejected where the setting is constructed."""

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda seed: TrainConfig(seed=seed), ConfigError),
            (lambda seed: ProtocolSpec(seed=seed), ConfigError),
            (lambda seed: SynthParams(1, 1, 1, 1, seed=seed), ValueError),
        ],
        ids=["TrainConfig", "ProtocolSpec", "SynthParams"],
    )
    def test_seed_range(self, make, error):
        for bad in (-1, 2**63, np.int64(-1), np.uint64(2**63), 1.0, True, "3"):
            with pytest.raises(error, match="seed must be an integer"):
                make(bad)
        for good in (0, 2**63 - 1, np.int64(2**63 - 1), np.uint8(7)):
            seed = make(good).seed
            assert seed == good and type(seed) is int

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf"), -0.1])
    def test_noise_sigma_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthParams(1, 1, 1, 1, noise_sigma=sigma)

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "{gallery}", "--out", "{out}", "--seed", "-1"],
            ["train", "{gallery}", "--out", "{out}", "--seed", str(2**63)],
            ["eval", "{gallery}", "--out", "{out}", "--seed", "-2",
             "--gallery-sets-per-class", "1"],
            ["synth", "--out-dir", "{out}", "--seed", "-1"],
            ["synth", "--out-dir", "{out}", "--noise-sigma", "nan"],
            ["synth", "--out-dir", "{out}", "--noise-sigma", "inf"],
        ],
    )
    def test_cli_exit_3_with_one_line(self, argv, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [a.format(gallery=synth_dir / "manifest.txt", out=out) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err or "noise_sigma" in err
        assert not out.exists()

    def test_largest_seed_trains_saves_and_loads(self, synth_dir, tmp_path, capsys):
        path = tmp_path / "m.dlmc"
        code, _, _ = run(
            capsys, "train", str(synth_dir / "manifest.txt"), "--out", str(path),
            "--width", "5", "--seed", str(2**63 - 1),
        )
        assert code == 0
        assert load_models(path).config.seed == 2**63 - 1


class TestClassify:
    @pytest.fixture()
    def model_path(self, synth_dir, tmp_path, capsys):
        path = tmp_path / "model.delm"
        code, _, _ = run(capsys, "train", str(synth_dir / "manifest.txt"),
                         "--out", str(path), "--width", "5", "--seed", "5")
        assert code == 0
        return path

    def test_resubstitution_is_perfect(self, synth_dir, model_path, tmp_path, capsys):
        report = tmp_path / "preds.tsv"
        code, out, _ = run(
            capsys, "classify", "--model", str(model_path),
            "--probes", str(synth_dir / "manifest.txt"), "--out", str(report),
        )
        assert code == 0
        assert "accuracy 100.00%" in out
        text = report.read_text()
        assert "#accuracy\t100.00" in text
        body = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(body) == 1 + 9  # header row plus one row per probe set
        header = body[0].split("\t")
        assert header[:3] == ["set_id", "predicted", "votes"]
        assert header[3:] == ["err_class00", "err_class01", "err_class02"]

    def test_unlabeled_probes_get_no_accuracy(self, synth_dir, model_path, tmp_path, capsys):
        manifest = synth_dir / "manifest.txt"
        lines = manifest.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            set_id, _, rel = line.split("\t")
            lines[i] = f"{set_id}\t-\t{rel}"
        # keep the manifest next to the feature files it references
        probe_manifest = synth_dir / "probes_unlabeled.txt"
        probe_manifest.write_text("\n".join(lines) + "\n")
        report = tmp_path / "preds.tsv"
        code, out, _ = run(capsys, "classify", "--model", str(model_path),
                           "--probes", str(probe_manifest), "--out", str(report))
        assert code == 0
        assert "unlabeled, no accuracy" in out
        assert "#accuracy" not in report.read_text()

    def test_empty_probe_manifest_exit_2(self, model_path, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("#delm-manifest v1 d=12\n")
        code, _, err = run(capsys, "classify", "--model", str(model_path),
                           "--probes", str(empty), "--out", str(tmp_path / "r"))
        assert code == 2
        assert "empty gallery" in err

    def test_dimension_mismatch_exit_2_names_both(self, model_path, tmp_path, capsys):
        other = tmp_path / "other"
        assert run(capsys, "synth", "--out-dir", str(other), "--classes", "2",
                   "--sets-per-class", "1", "--samples-per-set", "3",
                   "--dim", "7", "--seed", "1")[0] == 0
        code, _, err = run(capsys, "classify", "--model", str(model_path),
                           "--probes", str(other / "manifest.txt"),
                           "--out", str(tmp_path / "r"))
        assert code == 2
        assert "model d=12" in err and "probes d=7" in err


class TestEval:
    def test_clean_two_fold(self, synth_dir, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "eval", str(synth_dir / "manifest.txt"), "--out", str(report),
            "--folds", "2", "--gallery-sets-per-class", "2",
            "--width", "5", "--seed", "5",
        )
        assert code == 0
        assert report.is_file() and report.with_suffix(".kv").is_file()
        kv = dict(
            line.split("=", 1)
            for line in report.with_suffix(".kv").read_text().strip().splitlines()
        )
        assert float(kv["accuracy_mean_pct"]) >= 95.0
        assert kv["protocol_folds"] == "2"
        assert kv["config_seed"] == "5"

    def test_noise_mode_echoed(self, synth_dir, tmp_path, capsys):
        report = tmp_path / "noisy.txt"
        code, _, _ = run(
            capsys, "eval", str(synth_dir / "manifest.txt"), "--out", str(report),
            "--folds", "2", "--gallery-sets-per-class", "2", "--width", "5",
            "--noise-mode", "ngp", "--seed", "5",
        )
        assert code == 0
        kv = dict(
            line.split("=", 1)
            for line in report.with_suffix(".kv").read_text().strip().splitlines()
        )
        assert kv["protocol_noise_mode"] == "ngp"
        assert kv["data_noise_added_per_set"] == "2"

    def test_sample_cap_reflected_in_report(self, synth_dir, tmp_path, capsys):
        report = tmp_path / "capped.txt"
        code, _, _ = run(
            capsys, "eval", str(synth_dir / "manifest.txt"), "--out", str(report),
            "--folds", "2", "--gallery-sets-per-class", "2", "--width", "5",
            "--nr", "3", "--seed", "5",
        )
        assert code == 0
        kv = dict(
            line.split("=", 1)
            for line in report.with_suffix(".kv").read_text().strip().splitlines()
        )
        assert kv["protocol_max_samples_per_set"] == "3"
        assert int(kv["data_max_set_samples"]) <= 3

    def test_protocol_infeasible_exit_3(self, tmp_path, capsys):
        thin = tmp_path / "thin"
        assert run(capsys, "synth", "--out-dir", str(thin), "--classes", "2",
                   "--sets-per-class", "1", "--samples-per-set", "4",
                   "--dim", "6", "--seed", "2")[0] == 0
        code, _, err = run(capsys, "eval", str(thin / "manifest.txt"),
                           "--out", str(tmp_path / "r.txt"), "--folds", "2",
                           "--width", "3")
        assert code == 3
        assert "class00" in err

    @pytest.mark.parametrize("mode", ["nc", "ng", "np", "ngp"])
    def test_one_class_gallery_exit_2(self, tmp_path, capsys, mode):
        one = tmp_path / "one"
        assert run(capsys, "synth", "--out-dir", str(one), "--classes", "1",
                   "--sets-per-class", "4", "--samples-per-set", "4",
                   "--dim", "6", "--seed", "2")[0] == 0
        report = tmp_path / "r.txt"
        code, _, err = run(capsys, "eval", str(one / "manifest.txt"), "--out", str(report),
                           "--width", "3", "--noise-mode", mode)
        assert code == 2
        assert err == "error: classification needs at least 2 classes, gallery has 1\n"
        assert not report.exists() and not report.with_suffix(".kv").exists()


class TestBench:
    def test_table_format(self, synth_dir, capsys):
        code, out, _ = run(capsys, "bench", str(synth_dir / "manifest.txt"),
                           "--width", "5", "--seed", "5")
        assert code == 0
        rows = dict(
            line.split("\t") for line in out.splitlines() if "\t" in line and "metric" not in line
        )
        train = rows["train_seconds"]
        assert float(train) >= 0.0 and len(train.split(".")[1]) == 2
        assert float(rows["test_seconds_per_set"]) > 0.0
        assert int(rows["peak_memory_bytes"]) > 0
        # 3 classes, d=12, widths 5/5, 3 sets of 8 samples per class
        assert int(rows["gallery_matrix_bytes"]) == 8 * 12 * 72
        assert int(rows["class_stack_bytes"]) == 8 * 3 * (12 * 5 + 5 * 5 + 5 * 12)

    def test_repeat_run_same_accuracy(self, synth_dir, capsys):
        accs = []
        for _ in range(2):
            code, out, _ = run(capsys, "bench", str(synth_dir / "manifest.txt"),
                               "--width", "5", "--seed", "5")
            assert code == 0
            for line in out.splitlines():
                if line.startswith("resubstitution_accuracy_pct"):
                    accs.append(line.split("\t")[1])
        assert accs[0] == accs[1]

    def test_wider_layers_cost_at_least_as_much(self, tmp_path, capsys):
        big = tmp_path / "big"
        assert run(capsys, "synth", "--out-dir", str(big), "--classes", "3",
                   "--sets-per-class", "2", "--samples-per-set", "70",
                   "--dim", "100", "--seed", "3")[0] == 0

        def train_seconds(width):
            best = np.inf
            for _ in range(3):
                code, out, _ = run(capsys, "bench", str(big / "manifest.txt"),
                                   "--width", str(width), "--seed", "3")
                assert code == 0
                for line in out.splitlines():
                    if line.startswith("train_seconds"):
                        best = min(best, float(line.split("\t")[1]))
            return best

        assert train_seconds(150) >= train_seconds(20)
