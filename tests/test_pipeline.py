import json

import numpy as np
import pytest

from gasdiff.pipeline import (
    DESK,
    PAPER,
    Preset,
    read_binned_dir,
    run_reproduce,
    write_binned_dir,
)
from gasdiff import binning, md
from gasdiff.fields import GridSpec

# miniature preset: same code path as desk/paper, sized for fast tests
MINI = Preset(
    name="mini",
    n_he=80,
    n_ar=80,
    box_side=2000.0,
    dt=5.0,
    n_steps=600,
    sample_stride=60,
    temperature=300.0,
    n_values=(6,),
    d0_nd=0.05,
    init_from_frame0=True,
)


class TestPresets:
    def test_desk_preset_constants(self):
        assert DESK.n_he == 500 and DESK.n_ar == 500
        assert DESK.box_side == 5.0e3
        assert DESK.n_steps == 20000 and DESK.sample_stride == 200
        assert DESK.n_values == (10, 20)

    def test_paper_preset_matches_production_setup(self):
        assert PAPER.n_he == 30000 and PAPER.n_ar == 30000
        assert PAPER.box_side == 5.0e4
        assert PAPER.dt == 5.0
        assert PAPER.n_steps == 1000000 and PAPER.sample_stride == 1000
        assert PAPER.temperature == 300.0
        assert PAPER.n_values == (20, 50, 100)

    def test_unit_scale_derived_from_box(self):
        assert PAPER.unit_scale.box_length_cm == pytest.approx(5.0e-4)
        assert PAPER.unit_scale.time_unit_s == 1e-9
        assert DESK.unit_scale.box_length_cm == pytest.approx(5.0e-5)


class TestBinnedDirRoundtrip:
    def test_write_then_read(self, tmp_path):
        traj = md.run(md.MDConfig(n_he=40, n_ar=40, seed=2, sample_stride=50),
                      md.SimBox(side=1500.0), 100)
        series = binning.bin_trajectory(traj, GridSpec(d=2, n=5), md.Species.AR)
        out = tmp_path / "b"
        write_binned_dir(series, out)
        back = read_binned_dir(out)
        assert back.normalization_max == series.normalization_max
        assert back.species == series.species
        assert back.times_fs.tobytes() == series.times_fs.tobytes()
        assert len(back.frames) == len(series.frames)
        for a, b in zip(series.frames, back.frames):
            assert a.tobytes() == b.tobytes()


class TestReproduce:
    def test_report_table_and_manifests(self, tmp_path):
        manifests = []

        def writer(command, directory, config, outputs, wall_time_s):
            manifests.append((command, str(directory), wall_time_s))

        report = run_reproduce(MINI, seeds=[3], out_dir=tmp_path,
                               manifest_writer=writer)
        assert report["preset"] == "mini"
        assert report["seeds"] == [3]
        run = report["runs"][0]
        assert run["msd_d_cm2_s"] > 0
        fit = run["fits"]["6"]
        assert fit["d_opt_cm2_s"] > 0
        summary = report["summary"]["6"]
        assert summary["d_opt_cm2_s_mean"] == pytest.approx(fit["d_opt_cm2_s"])

        table = (tmp_path / "table.csv").read_text().splitlines()
        assert table[0] == "N,d_opt_cm2_s,cost,ci95"
        assert table[1].startswith("6,")
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved["summary"]["6"]["d_opt_cm2_s_mean"] > 0

        stages = {c for c, _, _ in manifests}
        assert stages == {"md-run", "bin", "fit"}
        assert all(seconds > 0 for _, _, seconds in manifests)
        assert (tmp_path / "seed_3" / "trajectory.bin").exists()
        assert (tmp_path / "seed_3" / "bin_N6" / "binned.json").exists()
        assert (tmp_path / "seed_3" / "fit_N6" / "report.json").exists()

    def test_mean_over_seeds(self, tmp_path):
        report = run_reproduce(MINI, seeds=[1, 2], out_dir=tmp_path)
        fits = [r["fits"]["6"]["d_opt_cm2_s"] for r in report["runs"]]
        assert report["summary"]["6"]["d_opt_cm2_s_mean"] == pytest.approx(
            float(np.mean(fits)))

    def test_rerun_reproduces_artifact_bytes(self, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run_reproduce(MINI, seeds=[4], out_dir=out)
            blobs.append(
                (out / "table.csv").read_bytes()
                + (out / "report.json").read_bytes()
                + (out / "seed_4" / "trajectory.bin").read_bytes()
            )
        assert blobs[0] == blobs[1]
