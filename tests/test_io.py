"""File formats: signal binaries with sidecars, trajectory CSVs, and dataset
directories."""

import csv
import json

import numpy as np
import pytest

from emgdecode import InvalidInputError, SynthConfig, Trajectory, generate_task
from emgdecode import io


@pytest.fixture()
def task(tmp_path):
    cfg = SynthConfig(seed=9, duration_s=1.0)
    return generate_task(cfg, 0)


class TestSignalRoundTrip:
    def test_header_schema(self, tmp_path, task):
        x, _ = task
        _, hdr_path = io.save_signal(x, tmp_path / "sig")
        hdr = json.loads(hdr_path.read_text())
        assert set(hdr) == {"fs", "n_samples", "n_channels", "grids", "dtype"}
        assert hdr["dtype"] == "f32le"
        assert hdr["n_channels"] == 128
        assert hdr["grids"][0] == {"name": "EDC", "n_rows": 8, "n_cols": 8, "channel_offset": 0}
        assert hdr["grids"][1]["channel_offset"] == 64

    def test_payload_is_little_endian_f32_row_major(self, tmp_path, task):
        x, _ = task
        bin_path, _ = io.save_signal(x, tmp_path / "sig")
        raw = np.fromfile(bin_path, dtype="<f4")
        assert raw.size == x.n_samples * x.n_channels
        assert raw[: x.n_channels] == pytest.approx(x.data[0], abs=1e-6)

    def test_round_trip_f32_precision(self, tmp_path, task):
        x, _ = task
        io.save_signal(x, tmp_path / "sig")
        back = io.load_signal(tmp_path / "sig")
        assert back.fs == x.fs
        assert back.grids == x.grids
        assert np.abs(back.data - x.data).max() <= 1e-5 * max(1.0, np.abs(x.data).max())

    def test_truncated_payload_rejected(self, tmp_path, task):
        x, _ = task
        bin_path, _ = io.save_signal(x, tmp_path / "sig")
        bin_path.write_bytes(bin_path.read_bytes()[:100])
        with pytest.raises(Exception):
            io.load_signal(tmp_path / "sig")


class TestTrajectoryRoundTrip:
    def test_csv_header(self, tmp_path, task):
        _, traj = task
        path = io.save_trajectory(traj, tmp_path / "angles.csv")
        first = path.read_text().splitlines()[0]
        assert first == "t,thumb,index,middle,ring,little"

    def test_round_trip(self, tmp_path, task):
        _, traj = task
        io.save_trajectory(traj, tmp_path / "angles.csv")
        back = io.load_trajectory(tmp_path / "angles.csv")
        assert back.labels == traj.labels
        assert back.fs_kin == pytest.approx(traj.fs_kin, rel=1e-9)
        assert np.abs(back.angles - traj.angles).max() <= 1e-12

    def test_default_task_bytes_match_repr_join(self, tmp_path):
        _, traj = generate_task(SynthConfig(), 0)
        path = io.save_trajectory(traj, tmp_path / "angles.csv")
        rows = [(t, *angles) for t, angles in zip(traj.times, traj.angles)]
        expected = "t," + ",".join(traj.labels) + "\n"
        expected += "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "stamps,row",
        [((0.5, 0.6, 0.7), r"row 0 has t=0\.5"), ((0.0, 0.1, 0.5), r"row 1 has t=0\.1")],
        ids=["offset", "non-uniform"],
    )
    def test_stamps_not_0_dt_2dt_rejected(self, tmp_path, stamps, row):
        path = tmp_path / "angles.csv"
        path.write_text("t,thumb\n" + "".join(f"{t},{i}\n" for i, t in enumerate(stamps)))
        with pytest.raises(InvalidInputError, match=row):
            io.load_trajectory(path)


class TestCsvText:
    @pytest.mark.parametrize(
        "field",
        ["x\ry", "x\r\ny", "x\ny", 'x"y', "x,y", "trailing\r", "\r"],
        ids=["lone-cr", "crlf", "lf", "quote", "comma", "trailing-cr", "only-cr"],
    )
    def test_special_fields_read_back_through_csv_reader(self, tmp_path, field):
        path = tmp_path / "table.csv"
        io.atomic_write_text(path, io.csv_text(("a", "b"), [(field, 1.5), ("plain", 2)]))
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], [field, "1.5"], ["plain", "2"]]

    def test_lone_cr_field_is_quoted(self):
        assert io.csv_text(("a", "b"), [("x\ry", 1.5)]) == 'a,b\n"x\ry",1.5\n'

    def test_plain_table_lines_end_in_line_feed(self):
        assert io.csv_text(("t", "v"), [(0.0, 0.1), (0.5, -2.0)]) == "t,v\n0.0,0.1\n0.5,-2.0\n"


class TestDataset:
    def test_save_and_iterate(self, tmp_path):
        cfg = SynthConfig(seed=2, duration_s=1.0, tasks=((0,), (1,)))
        tasks = [generate_task(cfg, i) for i in range(2)]
        io.save_dataset(tmp_path / "ds", tasks, extra_manifest={"synth": cfg.to_jsonable()})
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert len(manifest["tasks"]) == 2
        loaded = list(io.iter_dataset(tmp_path / "ds"))
        assert len(loaded) == 2
        for (x0, t0), (x1, t1) in zip(tasks, loaded):
            assert np.abs(x0.data - x1.data).max() <= 1e-5 * max(1.0, np.abs(x0.data).max())
            assert np.abs(t0.angles - t1.angles).max() <= 1e-12

    def test_label_with_comma_round_trips(self, tmp_path):
        x, traj = generate_task(SynthConfig(seed=2, duration_s=1.0, tasks=((0,),)), 0)
        labels = ("thumb, distal", 'index "MCP"', *traj.labels[2:])
        traj = Trajectory(traj.angles, traj.fs_kin, labels)
        io.save_dataset(tmp_path / "ds", [(x, traj)])
        ((_, back),) = io.iter_dataset(tmp_path / "ds")
        assert back.labels == labels
        assert np.array_equal(back.angles, traj.angles)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        io.save_json({"a": 1}, tmp_path / "x.json")
        io.save_json({"a": 2}, tmp_path / "x.json")
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
        assert json.loads((tmp_path / "x.json").read_text()) == {"a": 2}
