"""CLI subcommands: exit codes, outputs, manifests."""

import csv
import json
import shutil

import numpy as np
import pytest

from emgdecode import RunConfig, run_sfbs
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

    def test_bad_synth_value_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spread": 0}))
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


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

    def test_bad_grid_value_exits_2_before_reading_data(self, tmp_path):
        bad = tmp_path / "bad_grid.json"
        bad.write_text(json.dumps({"model": "knn", "grid": {"k": [0]}}))
        missing = tmp_path / "no_such_dataset"
        rc = main(["evaluate", "--dataset", str(missing), "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize(
        "field,value", [("window_s", -0.1), ("block_size", 0), ("seed", -1), ("n_win", 2.0)]
    )
    def test_bad_config_value_exits_2_before_reading_data(self, tmp_path, capsys, field, value):
        bad = tmp_path / "bad_value.json"
        bad.write_text(json.dumps({field: value}))
        missing = tmp_path / "no_such_dataset"
        rc = main(["evaluate", "--dataset", str(missing), "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"RunConfig.{field} " in capsys.readouterr().err

    def test_missing_dataset_exits_1(self, dataset, tmp_path):
        root, _ = dataset
        cfg = write_run_config(root)
        rc = main(
            ["evaluate", "--dataset", str(tmp_path / "nope"), "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 1


class TestExtract:
    """Failures of the pipeline's extract stage, through ``evaluate`` and ``sfbs``."""

    @pytest.mark.parametrize("command", ["evaluate", "sfbs"])
    @pytest.mark.parametrize("plan", [{"block_size": 9}, {"window_s": 9.0}], ids=["block_9x9", "window_beyond_crop"])
    def test_plan_that_does_not_fit_exits_1(self, dataset, tmp_path, capsys, command, plan):
        root, ds = dataset
        cfg = write_run_config(root, **plan)
        rc = main([command, "--dataset", str(ds), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: [extract] " in capsys.readouterr().err

    def test_mixed_fs_exits_1(self, dataset, tmp_path, capsys):
        root, ds = dataset
        mixed = tmp_path / "mixed"
        shutil.copytree(ds, mixed)
        header = json.loads((mixed / "task_01.json").read_text())
        header["fs"] *= 0.8
        (mixed / "task_01.json").write_text(json.dumps(header))
        cfg = write_run_config(root)
        rc = main(["evaluate", "--dataset", str(mixed), "--config", str(cfg), "--out", str(tmp_path / "f")])
        assert rc == 1
        assert "task 1: fs" in capsys.readouterr().err

    def test_no_dataset_exits_2(self, tmp_path, capsys):
        assert main(["evaluate", "--out", str(tmp_path / "f")]) == 2
        assert "evaluate requires --dataset" in capsys.readouterr().err


def drop_manifest_tasks(ds):
    manifest = json.loads((ds / "manifest.json").read_text())
    del manifest["tasks"]
    (ds / "manifest.json").write_text(json.dumps(manifest))
    return "manifest.json"


def manifest_tasks_not_a_list(ds):
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["tasks"] = 3
    (ds / "manifest.json").write_text(json.dumps(manifest))
    return "manifest.json"


def drop_header_key(ds):
    header = json.loads((ds / "task_00.json").read_text())
    del header["n_samples"]
    (ds / "task_00.json").write_text(json.dumps(header))
    return "task_00.json"


def empty_trajectory(ds):
    (ds / "task_00_angles.csv").write_text("")
    return "task_00_angles.csv"


def short_trajectory_row(ds):
    path = ds / "task_00_angles.csv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    return "task_00_angles.csv"


def invalid_json_header(ds):
    (ds / "task_00.json").write_text("{")
    return "task_00.json"


def invalid_json_manifest(ds):
    (ds / "manifest.json").write_text('{"tasks": [')
    return "manifest.json"


CORRUPTIONS = [
    drop_manifest_tasks,
    manifest_tasks_not_a_list,
    drop_header_key,
    empty_trajectory,
    short_trajectory_row,
    invalid_json_header,
    invalid_json_manifest,
]

# signal header values of the wrong type or range
BAD_HEADER_VALUES = [
    ("n_samples", "10"),
    ("n_samples", True),
    ("n_samples", -1),
    ("n_channels", 128.0),
    ("fs", 0),
    ("fs", "2048"),
    ("fs", float("nan")),
    ("grids", {}),
]


class TestMalformedDataset:
    @pytest.mark.parametrize("command", ["evaluate", "sfbs"])
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_exits_1_naming_the_file(self, dataset, tmp_path, capsys, command, corrupt):
        root, ds = dataset
        bad = tmp_path / "bad"
        shutil.copytree(ds, bad)
        name = corrupt(bad)
        cfg = write_run_config(root)
        rc = main([command, "--dataset", str(bad), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "sfbs"])
    @pytest.mark.parametrize("key, value", BAD_HEADER_VALUES)
    def test_bad_header_value_named(self, dataset, tmp_path, capsys, command, key, value):
        root, ds = dataset
        bad = tmp_path / "bad"
        shutil.copytree(ds, bad)
        header = json.loads((bad / "task_01.json").read_text())
        header[key] = value
        (bad / "task_01.json").write_text(json.dumps(header))
        cfg = write_run_config(root)
        rc = main([command, "--dataset", str(bad), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"task_01.json: header {key!r} must be " in capsys.readouterr().err


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
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["n_cells"], manifest["failures"]) == (8, [])

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_malformed_file_named_in_every_cell(self, dataset, tmp_path, corrupt):
        root, ds = dataset
        bad = tmp_path / "bad"
        shutil.copytree(ds, bad)
        name = corrupt(bad)
        cfg = write_run_config(root)
        out = tmp_path / "o"
        rc = main(["sweep", "--dataset", str(bad), "--config", str(cfg), "--param", "block_size", "--out", str(out)])
        assert rc == 0
        with open(out / "sweep_block_size.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 8
        for b, row in enumerate(rows, 1):
            assert len(row) == 7 and row[:2] == ["block_size", str(b)]
            assert row[2].startswith("failed: ") and name in row[2]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_cells"] == 8
        assert [f["value"] for f in manifest["failures"]] == list(range(1, 9))
        assert all(name in f["reason"] and not f["reason"].startswith("failed") for f in manifest["failures"])

    def test_unknown_param_exits_2(self, dataset, capsys):
        root, ds = dataset
        cfg = write_run_config(root)
        rc = main(
            ["sweep", "--dataset", str(ds), "--config", str(cfg), "--param", "banana", "--out", str(root / "z")]
        )
        assert rc == 2
        assert "'banana'" in capsys.readouterr().err
        assert not (root / "z").exists()


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
        timings = manifest["timings"]
        assert set(timings) == {"featurize_s", "select_s"}
        assert 0 < timings["featurize_s"] and 0 < timings["select_s"]
        assert timings["featurize_s"] + timings["select_s"] <= manifest["wall_time_s"]

    def test_contribution_map_values_are_numbers(self, dataset, tmp_path):
        root, ds = dataset
        cfg = write_run_config(root, block_size=4, block_step=2)
        out = tmp_path / "sfbs"
        assert main(["sfbs", "--dataset", str(ds), "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        with open(out / "contribution_map.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        config = RunConfig.from_dict({**RUN_CFG, "block_size": 4, "block_step": 2, "seed": 1, "dataset": str(ds)})
        _, maps, _, _ = run_sfbs(config)
        expected = [(name, r, c, v) for name, m in zip(maps.grids, maps.maps) for (r, c), v in np.ndenumerate(m)]
        assert len(rows) == len(expected) == 128
        for (grid, row, col, value), (name, r, c, v) in zip(rows, expected):
            assert (grid, int(row), int(col)) == (name, r + 1, c + 1)
            assert float(value) == v  # shortest round-trip text: bit for bit

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

    @pytest.mark.parametrize("command", ["extract", "train"])
    def test_removed_command_exits_2(self, dataset, command):
        root, ds = dataset
        assert main([command, "--dataset", str(ds), "--out", str(root / command)]) == 2
        assert not (root / command).exists()
