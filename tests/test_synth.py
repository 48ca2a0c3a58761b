"""Synthetic dataset generator: determinism, decodability, spectra."""

import json
import math
import threading
import time

import numpy as np
import pytest

from emgdecode import (
    ConfigError,
    RunConfig,
    SynthConfig,
    generate_task,
    generate_tasks,
    run_pipeline,
)
from emgdecode import synth
from emgdecode.blocks import plan_windows_seconds, window_sumsq
from emgdecode.io import save_json
from emgdecode.signal_core import (
    FilterSpec,
    SignalMatrix,
    Trajectory,
    apply_filtfilt,
    default_grids,
    design_butterworth,
)
from emgdecode.synth import DEFAULT_TASKS

from conftest import pool_of


def loop_generate_task(cfg: SynthConfig, task_index: int):
    """Reference generator: the per-finger angle loops and the per-source
    outer-product adds that ``generate_task`` replaced with broadcasts and one
    mixing matmul. It draws the same random numbers in the same order."""
    active = cfg.tasks[task_index]
    rng = synth._task_rng(cfg, task_index)
    params = []
    for d in range(5):
        freqs = rng.uniform(0.1, 1.2, size=3)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        params.append((d in active, freqs, phases))

    def angles_at(t):
        out = np.empty((t.shape[0], 5))
        amp = cfg.amplitude_deg
        for d, (is_active, freqs, phases) in enumerate(params):
            if is_active:
                out[:, d] = amp * (1.0 - np.cos(2.0 * math.pi * cfg.movement_hz * t)) / 2.0
            else:
                wiggle = np.zeros_like(t)
                for f, ph in zip(freqs, phases):
                    wiggle += np.sin(2.0 * math.pi * f * t + ph)
                out[:, d] = (cfg.coupling * amp / 3.0) * wiggle
        return out

    n_kin = int(round(cfg.duration_s * cfg.fs_kin))
    traj = Trajectory(angles=angles_at(np.arange(n_kin) / cfg.fs_kin), fs_kin=cfg.fs_kin)
    n_sig = int(round(cfg.duration_s * cfg.fs))
    t_sig = np.arange(n_sig) / cfg.fs
    theta = angles_at(t_sig) / cfg.amplitude_deg

    grids = default_grids()
    coeffs = design_butterworth(FilterSpec("bandpass", order=4, band=cfg.carrier_band), cfg.fs)
    data = np.zeros((n_sig, 128))
    centers = (cfg.centers_edc, cfg.centers_fds)
    for d in range(5):
        for gi, grid in enumerate(grids):
            carrier = apply_filtfilt(coeffs, rng.standard_normal(n_sig))
            carrier /= carrier.std()
            envelope = (1.0 - theta[:, d]) if grid.name == "EDC" else theta[:, d]
            foot = synth._footprint(grid, centers[gi][d], cfg.spread)
            sl = slice(grid.channel_offset, grid.channel_offset + grid.n_channels)
            data[:, sl] += (envelope * carrier)[:, None] * foot[None, :]
    if cfg.effort > 0:
        grip = theta.mean(axis=1)
        for grid in grids:
            carrier = apply_filtfilt(coeffs, rng.standard_normal(n_sig))
            carrier /= carrier.std()
            envelope = (1.0 - grip) if grid.name == "EDC" else grip
            foot = synth._footprint(grid, (3.5, 3.5), cfg.effort_spread)
            sl = slice(grid.channel_offset, grid.channel_offset + grid.n_channels)
            data[:, sl] += (cfg.effort * envelope * carrier)[:, None] * foot[None, :]
    if cfg.noise > 0:
        data += cfg.noise * rng.standard_normal(data.shape)
    if cfg.powerline > 0:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        data += cfg.powerline * np.sin(2.0 * math.pi * cfg.powerline_hz * t_sig + phase)[:, None]
    return SignalMatrix(data=data, fs=cfg.fs, grids=grids), traj


def field_by_field_jsonable(cfg: SynthConfig) -> dict:
    """The explicit field list ``SynthConfig.to_jsonable`` used to spell out."""
    scalars = (
        "seed", "fs", "fs_kin", "movement_hz", "duration_s", "amplitude_deg", "spread",
        "noise", "powerline", "powerline_hz", "coupling", "effort", "effort_spread",
    )
    out = {name: getattr(cfg, name) for name in scalars}
    out["carrier_band"] = list(cfg.carrier_band)
    for name in ("tasks", "centers_edc", "centers_fds"):
        out[name] = [list(v) for v in getattr(cfg, name)]
    return out


CUSTOM = SynthConfig(
    seed=4,
    fs=1500.0,
    duration_s=2.5,
    spread=0.9,
    effort=1.5,
    carrier_band=(30.0, 400.0),
    tasks=((0, 4), (2,), (1, 3)),
    centers_edc=((1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0), (5.0, 5.0)),
)


class TestStructure:
    def test_eight_tasks_cover_protocol(self):
        assert len(DEFAULT_TASKS) == 8
        assert DEFAULT_TASKS[0] == (1,)  # index flexion/extension
        assert DEFAULT_TASKS[2] == (3, 4)  # ring + little together
        assert DEFAULT_TASKS[7] == (0, 1, 2, 3, 4)  # five-finger grasp
        covered = set()
        for task in DEFAULT_TASKS:
            covered.update(task)
        assert covered == {0, 1, 2, 3, 4}

    def test_shapes_and_rates(self):
        cfg = SynthConfig(seed=0, duration_s=5.0)
        x, traj = generate_task(cfg, 0)
        assert x.n_channels == 128
        assert x.n_samples == int(round(5.0 * cfg.fs))
        assert traj.angles.shape == (500, 5)
        assert traj.labels == ("thumb", "index", "middle", "ring", "little")

    def test_angle_range_of_active_dof(self):
        cfg = SynthConfig(seed=1, duration_s=6.0)
        _, traj = generate_task(cfg, 0)  # index active
        active = traj.angles[:, 1]
        assert active.min() >= -1e-9
        assert active.max() == pytest.approx(cfg.amplitude_deg, rel=1e-3)
        # inactive fingers stay near zero
        assert np.abs(traj.angles[:, 3]).max() <= 0.1 * cfg.amplitude_deg


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        cfg = SynthConfig(seed=11, duration_s=3.0)
        x1, t1 = generate_task(cfg, 2)
        x2, t2 = generate_task(cfg, 2)
        assert np.array_equal(x1.data, x2.data)
        assert np.array_equal(t1.angles, t2.angles)

    def test_generation_order_independent(self):
        cfg = SynthConfig(seed=5, duration_s=2.0)
        direct = generate_task(cfg, 3)[0].data
        after_others = generate_tasks(cfg)[3][0].data
        assert np.array_equal(direct, after_others)

    def test_different_seeds_differ(self):
        cfg_a = SynthConfig(seed=1, duration_s=2.0)
        cfg_b = SynthConfig(seed=2, duration_s=2.0)
        assert not np.array_equal(generate_task(cfg_a, 0)[0].data, generate_task(cfg_b, 0)[0].data)


class TestSignalContent:
    def test_rms_tracks_envelope_without_noise(self):
        cfg = SynthConfig(seed=3, duration_s=8.0, noise=0.0, powerline=0.0, effort=0.0)
        x, traj = generate_task(cfg, 0)  # index finger only
        plan = plan_windows_seconds(x.n_samples, x.fs, 0.150, 0.050)
        rms = np.sqrt(window_sumsq(x.data, plan) / plan.length)
        # FDS channel nearest the index source center
        r, c = cfg.centers_fds[1]
        ch = 64 + int(round(r)) * 8 + int(round(c))
        env_times = (plan.starts + plan.length) / x.fs
        env = np.interp(env_times, traj.times, traj.angles[:, 1]) / cfg.amplitude_deg
        rho = np.corrcoef(rms[:, ch], env)[0, 1]
        assert rho >= 0.95

    def test_angles_band_limited(self):
        # Hann window suppresses rectangular-window leakage from the
        # non-integer-period sinusoids; the process itself is < 1.5 Hz
        cfg = SynthConfig(seed=4, duration_s=10.0)
        for task in range(8):
            _, traj = generate_task(cfg, task)
            n = traj.angles.shape[0]
            window = np.hanning(n)
            freqs = np.fft.rfftfreq(n, 1.0 / traj.fs_kin)
            for d in range(5):
                spec = np.abs(np.fft.rfft(traj.angles[:, d] * window)) ** 2
                high = spec[freqs > 2.0].sum()
                assert high <= 0.01 * spec.sum()

    def test_powerline_present_when_requested(self):
        cfg = SynthConfig(seed=6, duration_s=4.0, noise=0.0, powerline=1.0)
        x, _ = generate_task(cfg, 0)
        spec = np.abs(np.fft.rfft(x.data[:, 0])) ** 2
        freqs = np.fft.rfftfreq(x.n_samples, 1.0 / x.fs)
        band = spec[(freqs > 58) & (freqs < 62)].sum()
        assert band >= 0.5 * spec.sum() * 0.01  # clearly visible line


class TestDecodability:
    def test_noise_monotonically_degrades_decoding(self):
        scores = []
        for noise in (0.1, 1.0, 10.0):
            cfg = SynthConfig(seed=21, duration_s=8.0, noise=noise)
            rc = RunConfig(crop_s=(0.5, 7.5), seed=0)
            res = run_pipeline(rc, iter(generate_tasks(cfg)))
            scores.append(res.metrics.r2_vw)
        assert scores[0] > scores[1] > scores[2]

    def test_notch_improves_rmse_with_powerline(self, small_tasks, small_config):
        with_notch = run_pipeline(small_config, iter(small_tasks))
        without = run_pipeline(small_config.replace(notch_hz=None), iter(small_tasks))
        assert with_notch.metrics.rmse_vw < without.metrics.rmse_vw


class TestMixingOracle:
    @pytest.mark.parametrize("seed", [0, 7, 13])
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"effort": 0.0},
            {"noise": 0.0},
            {"powerline": 0.0},
            {"noise": 0.0, "powerline": 0.0, "effort": 0.0},
            {"tasks": ((0, 4), (3,), (0, 1, 2, 3, 4))},
        ],
        ids=["default", "effort0", "noise0", "powerline0", "sources_only", "custom_tasks"],
    )
    def test_matches_outer_product_loop(self, seed, overrides):
        self.check(SynthConfig(seed=seed, duration_s=3.0, **overrides), tasks=(0, 2))

    def test_custom_config_matches_loop(self):
        self.check(CUSTOM, tasks=range(len(CUSTOM.tasks)))

    @staticmethod
    def check(cfg, tasks):
        for task in tasks:
            x, traj = generate_task(cfg, task)
            ref_x, ref_traj = loop_generate_task(cfg, task)
            assert np.array_equal(traj.angles, ref_traj.angles)
            assert np.abs(x.data - ref_x.data).max() <= 1e-14 * np.abs(ref_x.data).max()


class TestConfig:
    def test_json_bytes_unchanged(self, tmp_path):
        save_json(CUSTOM.to_jsonable(), tmp_path / "new.json")
        save_json(field_by_field_jsonable(CUSTOM), tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    @pytest.mark.parametrize("cfg", [SynthConfig(), CUSTOM], ids=["default", "custom"])
    def test_json_round_trip_equal_and_hashable(self, cfg):
        back = SynthConfig(**json.loads(json.dumps(cfg.to_jsonable())))
        assert back == cfg
        assert hash(back) == hash(cfg)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),
            ("noise", -1.0),
            ("powerline", -0.5),
            ("coupling", -0.1),
            ("effort", -2.0),
            ("spread", 0.0),
            ("spread", -1.2),
            ("effort_spread", 0.0),
            ("amplitude_deg", 0.0),
            ("movement_hz", 0.0),
            ("fs", -1.0),
            ("fs_kin", 0.0),
            ("duration_s", 0.0),
            ("duration_s", float("nan")),
            ("powerline_hz", 5000.0),
            ("carrier_band", (20.0, 2000.0)),
            ("carrier_band", (0.0, 450.0)),
            ("carrier_band", (20.0, 450.0, 500.0)),
            ("tasks", ((7,),)),
            ("tasks", ((1,), (-1,))),
            ("tasks", ((1,), ())),
            ("tasks", ()),
            ("centers_edc", ((1.0, 5.5), (1.5, 4.0), (2.5, 5.5), (3.5, 4.5))),
            ("centers_fds", ((2.0, 6.0), (2.5, 4.5), (3.5, 6.0), (4.5, 5.0), (8.5, 6.0))),
            ("duration_s", 0.011),  # one kinematic sample
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigError) as info:
            SynthConfig(**{field: value})
        assert f"SynthConfig.{field} " in str(info.value)
        assert repr(value) in str(info.value)

    def test_signal_within_carrier_padding_rejected(self):
        # 12 kinematic samples at 1 kHz, but 21 signal samples: no more than
        # the carrier filter's padding of 3 x 8 poles
        with pytest.raises(ConfigError, match=r"SynthConfig\.duration_s .*got 0\.01$"):
            SynthConfig(fs_kin=1000.0, duration_s=0.01)
        shortest = SynthConfig(fs_kin=1000.0, duration_s=25 / SynthConfig.fs, tasks=((1,),))
        (x, traj), = generate_tasks(shortest)
        assert (x.n_samples, traj.angles.shape[0]) == (25, 12)


def assert_same_tasks(got, expected):
    assert len(got) == len(expected)
    for (x, traj), (ref_x, ref_traj) in zip(got, expected):
        assert x.data.tobytes() == ref_x.data.tobytes()
        assert traj.angles.tobytes() == ref_traj.angles.tobytes()
        assert (x.fs, x.grids, traj.fs_kin) == (ref_x.fs, ref_x.grids, ref_traj.fs_kin)


# 2.37 s is 4864 signal samples, not a multiple of the 2048 rows that make
# 2 MB of 128 channels: the mixing takes two even chunks of 2432 rows
POOLED = [
    SynthConfig(seed=8, duration_s=2.37),
    SynthConfig(seed=9, duration_s=2.37, noise=0.0),
    CUSTOM,
]


class TestGenerateTasks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cfg", POOLED, ids=["default", "noise0", "custom"])
    def test_pool_equals_serial_generate_task(self, cfg, workers):
        serial = [generate_task(cfg, i) for i in range(len(cfg.tasks))]
        with pool_of(workers):
            pooled = generate_tasks(cfg)
        assert_same_tasks(pooled, serial)
        assert_same_tasks(list(synth.iter_tasks(cfg)), serial)

    @pytest.mark.parametrize("n_rows", [1, 2, 2047, 2048, 2049, 3073, 4864, 6145])
    @pytest.mark.parametrize("n_chan, noise", [(128, 1.0), (128, 0.0), (100, 0.3)])
    def test_chunked_mix_equals_whole_array(self, n_rows, n_chan, noise):
        rng = np.random.default_rng(n_rows)
        sources, feet = rng.standard_normal((n_rows, 12)), rng.random((12, n_chan))
        ref = sources @ feet
        ref_rng, mix_rng = np.random.default_rng(1), np.random.default_rng(1)
        if noise > 0:
            draws = ref_rng.standard_normal(ref.shape)
            draws *= noise
            ref += draws
        out = np.empty((n_rows, n_chan))
        synth._mix(sources, feet, mix_rng, noise, out=out)
        assert out.tobytes() == ref.tobytes()
        # the draws after the mixing (the powerline phase) are unchanged too
        assert mix_rng.uniform() == ref_rng.uniform()

    def test_pool_bypasses_wrapped_generate_task(self):
        """A tracer wraps ``generate_task`` with one span stack, which pool
        threads would corrupt: ``generate_tasks`` does not call it, and
        ``iter_tasks`` calls it on the calling thread only."""
        cfg = POOLED[0]
        expected = [generate_task(cfg, i) for i in range(len(cfg.tasks))]
        caller, stack, calls = threading.get_ident(), [], []
        real = synth.generate_task

        def traced(cfg, i):
            if threading.get_ident() != caller:
                raise RuntimeError("generate_task called off the calling thread")
            stack.append(i)
            try:
                return real(cfg, i)
            finally:
                if stack.pop() != i:
                    raise RuntimeError(f"span {i} closed out of order")
                calls.append(i)

        with pytest.MonkeyPatch.context() as mp, pool_of(2):
            mp.setattr(synth, "generate_task", traced)
            assert_same_tasks(synth.generate_tasks(cfg), expected)
            assert calls == []
            assert_same_tasks(list(synth.iter_tasks(cfg)), expected)
            assert calls == list(range(len(cfg.tasks)))

    def test_first_failure_in_task_order_after_every_item(self):
        cfg = SynthConfig(seed=1, duration_s=0.5, tasks=DEFAULT_TASKS[:6])
        real, finished = synth._generate, []

        def flaky(cfg, i):
            if i == 3:  # fails first in time, later in task order
                finished.append(i)
                raise ValueError("task 3 failed")
            time.sleep(0.05)
            finished.append(i)
            if i == 1:
                raise ValueError("task 1 failed")
            return real(cfg, i)

        with pytest.MonkeyPatch.context() as mp, pool_of(2):
            mp.setattr(synth, "_generate", flaky)
            with pytest.raises(ValueError, match="task 1 failed"):
                generate_tasks(cfg)
            assert sorted(finished) == list(range(6))
        # the pool keeps working
        assert_same_tasks(generate_tasks(cfg), [generate_task(cfg, i) for i in range(6)])
