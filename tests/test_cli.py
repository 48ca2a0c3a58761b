"""CLI subcommands: exit codes, outputs, manifests."""

import json
import shutil

import numpy as np
import pytest

from emgdecode.cli import main

SYNTH_CFG = {
    "duration_s": 4.0,
    "tasks": [[1], [2], [0, 1], [0, 1, 2, 3, 4]],
}
RUN_CFG = {"crop_s": [0.25, 3.75]}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG))
    out = root / "ds"
    assert main(["synth", "--config", str(cfg_path), "--seed", "5", "--out", str(out)]) == 0
    return root, out


def write_run_config(root, **extra):
    path = root / f"run_{len(list(root.iterdir()))}.json"
    path.write_text(json.dumps({**RUN_CFG, **extra}))
    return path


class TestSynth:
    def test_dataset_layout(self, dataset):
        _, out = dataset
        names = {p.name for p in out.iterdir()}
        assert "manifest.json" in names
        assert "task_00.f32" in names and "task_00.json" in names
        assert "task_00_angles.csv" in names
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["tasks"]) == 4
        assert manifest["synth"]["seed"] == 5

    def test_unknown_synth_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"durration": 3}))
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestEvaluate:
    def test_smoke_metrics_json(self, dataset):
        root, ds = dataset
        cfg = write_run_config(root)
        out = root / "eval"
        rc = main(
            ["evaluate", "--dataset", str(ds), "--config", str(cfg), "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "r2_vw" in metrics
        assert set(metrics["per_output"]) == {"thumb", "index", "middle", "ring", "little"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert manifest["config"]["seed"] == 1

    def test_pca_logs_component_count(self, dataset, capsys):
        root, ds = dataset
        cfg = write_run_config(root)
        out = root / "eval_pca"
        rc = main(
            [
                "evaluate", "--dataset", str(ds), "--config", str(cfg),
                "--feature", "pca", "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "components" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["n_components"] >= 1

    def test_unknown_config_key_exits_2(self, dataset):
        root, ds = dataset
        bad = root / "bad_run.json"
        bad.write_text(json.dumps({"blok_size": 3}))
        assert main(["evaluate", "--dataset", str(ds), "--config", str(bad), "--out", str(root / "x")]) == 2

    def test_missing_dataset_exits_1(self, dataset, tmp_path):
        root, _ = dataset
        cfg = write_run_config(root)
        rc = main(
            ["evaluate", "--dataset", str(tmp_path / "nope"), "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 1


class TestTrain:
    def test_model_json_written(self, dataset):
        root, ds = dataset
        cfg = write_run_config(root)
        out = root / "train"
        rc = main(
            ["train", "--dataset", str(ds), "--config", str(cfg), "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        model = json.loads((out / "model.json").read_text())
        assert model["kind"] == "ridge"
        assert model["hyperparams"].keys() == {"alpha"}
        assert len(model["fold_scores"]) == 5  # one tuple per grid point? no: per point
        weights = np.asarray(model["model"]["weights"])
        assert weights.shape[1] == 5


class TestExtract:
    def test_features_written_per_task(self, dataset):
        root, ds = dataset
        cfg = write_run_config(root)
        out = root / "features"
        rc = main(
            ["extract", "--dataset", str(ds), "--config", str(cfg), "--feature", "rms", "--out", str(out)]
        )
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert "task_00_features.f32" in names
        hdr = json.loads((out / "task_00_features.json").read_text())
        assert hdr["n_features"] == 128

    def test_mixed_fs_exits_1(self, dataset, tmp_path, capsys):
        root, ds = dataset
        mixed = tmp_path / "mixed"
        shutil.copytree(ds, mixed)
        header = json.loads((mixed / "task_01.json").read_text())
        header["fs"] *= 0.8
        (mixed / "task_01.json").write_text(json.dumps(header))
        cfg = write_run_config(root)
        rc = main(["extract", "--dataset", str(mixed), "--config", str(cfg), "--out", str(tmp_path / "f")])
        assert rc == 1
        assert "task 1: fs" in capsys.readouterr().err

    def test_no_dataset_exits_2(self, tmp_path, capsys):
        assert main(["extract", "--out", str(tmp_path / "f")]) == 2
        assert "extract requires --dataset" in capsys.readouterr().err

    def test_pca_rejected_for_extract(self, dataset):
        root, ds = dataset
        cfg = write_run_config(root)
        rc = main(
            ["extract", "--dataset", str(ds), "--config", str(cfg), "--feature", "pca", "--out", str(root / "y")]
        )
        assert rc == 2


class TestSweep:
    def test_block_size_sweep_csv(self, dataset):
        root, ds = dataset
        cfg = write_run_config(root)
        out = root / "sweep"
        rc = main(
            [
                "sweep", "--dataset", str(ds), "--config", str(cfg),
                "--param", "block_size", "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "sweep_block_size.csv").read_text().splitlines()
        assert lines[0] == "param,value,status,r2_vw,rmse_vw,mae_vw,r_vw"
        assert len(lines) == 9  # header + 8 sizes

    def test_unknown_param_exits_2(self, dataset):
        root, ds = dataset
        cfg = write_run_config(root)
        rc = main(
            ["sweep", "--dataset", str(ds), "--config", str(cfg), "--param", "banana", "--out", str(root / "z")]
        )
        assert rc == 2


class TestSfbs:
    def test_outputs(self, dataset):
        root, ds = dataset
        cfg = write_run_config(root, block_size=4, block_step=2)
        out = root / "sfbs"
        rc = main(
            ["sfbs", "--dataset", str(ds), "--config", str(cfg), "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        order = (out / "sfbs_order.csv").read_text().splitlines()
        assert order[0] == "step,block_id,grid,row,col,score"
        assert len(order) == 1 + 2 * 9  # two grids of (floor((8-4)/2)+1)^2 = 9 blocks
        cmap = (out / "contribution_map.csv").read_text().splitlines()
        assert cmap[0] == "grid,row,col,value"
        assert len(cmap) == 1 + 128
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["centroids"]) == {"EDC", "FDS"}
        assert manifest["config"]["model"] == "ridge"
        stages = manifest["stages"]
        assert stages["n_features"] == 18 * 3
        assert stages["n_candidates"] == 18 * 19 // 2
        assert stages["n_train_rows"] > 0 and stages["n_test_rows"] > 0
        assert manifest["wall_time_s"] > 0

    @pytest.mark.parametrize("flags", [["--alpha", "0"], ["--alpha", "-1"], ["--model", "mlp"]])
    def test_bad_flag_exits_2(self, dataset, flags):
        root, ds = dataset
        cfg = write_run_config(root)
        rc = main(["sfbs", "--dataset", str(ds), "--config", str(cfg), "--out", str(root / "bad"), *flags])
        assert rc == 2


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2
