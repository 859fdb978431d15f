import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gasdiff import cli
from gasdiff.cli import main
from gasdiff.fields import GridSpec, ScalarField, read_field_csv, write_field_csv
from gasdiff.md import Species
from gasdiff.trajectory_io import Frame, Trajectory, read_native, write_native
from binned_fields import series_of_fields
from native_bytes import MAGIC, raw_native


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def small_traj(tmp_path_factory):
    """A small shared MD run used by bin/fit/msd/convert tests."""
    out = tmp_path_factory.mktemp("mdrun") / "traj.txt"
    code = run_cli(
        "md-run", "--n-he", 120, "--n-ar", 120, "--box", 2500.0,
        "--steps", 400, "--stride", 40, "--seed", 5, "--out", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def binned_dir(tmp_path_factory, small_traj):
    out = tmp_path_factory.mktemp("binned") / "b"
    assert run_cli("bin", "--traj", small_traj, "--N", 8, "--species", "ar",
                   "--out", out) == 0
    return out


class TestMdRun:
    def test_writes_trajectory_and_manifest(self, small_traj):
        traj = read_native(small_traj)
        assert traj.n_frames == 11
        assert traj.n_particles == 240
        manifest = json.loads((small_traj.parent / "manifest.json").read_text())
        assert manifest["command"] == "md-run"
        assert manifest["seed"] == 5
        assert manifest["version"]

    def test_identical_seed_reproduces_bytes(self, tmp_path, small_traj):
        again = tmp_path / "again.txt"
        assert run_cli(
            "md-run", "--n-he", 120, "--n-ar", 120, "--box", 2500.0,
            "--steps", 400, "--stride", 40, "--seed", 5, "--out", again,
        ) == 0
        assert again.read_bytes() == small_traj.read_bytes()

    def test_blow_up_mid_run_exits_4_and_leaves_no_file(self, tmp_path, monkeypatch):
        from gasdiff import md
        from gasdiff.errors import InstabilityError

        out = tmp_path / "run" / "traj.txt"
        step, calls = md.verlet_step, []

        def failing_step(*args):
            calls.append(1)
            if len(calls) == 25:  # after frames 0, 10 and 20 were written
                assert (tmp_path / "run" / "traj.txt.tmp").stat().st_size > 0
                raise InstabilityError("particle 3 reached 2 A/fs")
            return step(*args)

        monkeypatch.setattr(md, "verlet_step", failing_step)
        assert run_cli("md-run", "--n-he", 20, "--n-ar", 20, "--box", 1000.0,
                       "--steps", 100, "--stride", 10, "--out", out) == 4
        assert len(calls) == 25
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [
        ["md-run", "--n-he", 10, "--n-ar", 10, "--box", 1000.0, "--steps", 20,
         "--stride", 10],
        ["convert", "--in", "{traj}", "--to", "lammps"],
    ])
    def test_out_that_is_a_directory_exits_3_and_leaves_no_tmp(self, tmp_path, capsys,
                                                               small_traj, command):
        # the file is written whole, and the rename onto the directory fails
        out = tmp_path / "out_is_dir"
        out.mkdir()
        capsys.readouterr()
        assert run_cli(*[str(a).format(traj=small_traj) for a in command],
                       "--out", out) == 3
        assert_one_line_error(capsys, f"Is a directory: '{out}.tmp' -> '{out}'")
        assert [p.name for p in tmp_path.iterdir()] == ["out_is_dir"]
        assert list(out.iterdir()) == []


class TestFdRun:
    def test_frames_series_and_oracle(self, tmp_path):
        out = tmp_path / "fd"
        assert run_cli(
            "fd-run", "--N", 16, "--D", 0.05, "--k", 1e-3, "--steps", 40,
            "--scheme", "cn", "--stride", 20, "--oracle", "--modes", 32,
            "--out", out,
        ) == 0
        meta = json.loads((out / "series.json").read_text())
        assert meta["n"] == 16
        assert meta["times"] == [0.0, 0.02, 0.04]
        for i in range(3):
            assert (out / f"frame_{i:04d}.csv").exists()
            assert (out / f"oracle_{i:04d}.csv").exists()
        # FD and oracle agree loosely even at this coarse N
        fd, _ = read_field_csv(out / "frame_0002.csv")
        oracle, _ = read_field_csv(out / "oracle_0002.csv")
        assert np.max(np.abs(fd.values - oracle.values)) < 0.15

    def test_manifest_lists_only_what_this_run_wrote(self, tmp_path):
        out = tmp_path / "fd"
        assert run_cli("fd-run", "--N", 8, "--steps", 300, "--stride", 100, "--oracle",
                       "--out", out) == 0
        assert run_cli("fd-run", "--N", 8, "--steps", 100, "--stride", 100,
                       "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / name) for name in (
            "frame_0000.csv", "frame_0001.csv", "series.json")]
        assert (out / "frame_0003.csv").exists() and (out / "oracle_0003.csv").exists()

    def test_forward_euler_blowup_exits_4(self, tmp_path):
        out = tmp_path / "boom"
        code = run_cli(
            "fd-run", "--N", 32, "--D", 1.0, "--k", 0.5, "--steps", 200,
            "--scheme", "fe", "--stride", 1, "--out", out,
        )
        assert code == 4


class TestAmpPlot:
    def test_csv_pins_critical_step_values(self, tmp_path):
        out = tmp_path / "amp.csv"
        assert run_cli("amp-plot", "--N", 32, "--D", 2.0, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m_over_n,fe_0.5kc,fe_1.0kc,fe_1.5kc,cn_0.5kc,cn_1.0kc,cn_1.5kc"
        last = [float(tok) for tok in lines[-1].split(",")]
        assert last[0] == pytest.approx(0.5)   # |m|/N at the Nyquist mode
        assert last[2] == pytest.approx(-1.0)  # FE at k_c
        assert last[5] == pytest.approx(0.0, abs=1e-14)  # CN at k_c
        fe_above = last[3]
        assert fe_above < -1.0  # unstable branch

    @pytest.mark.parametrize("d, n, diffusion, factors", [
        (1, 32, 2.0, "0.5,1.0,1.5"), (2, 33, 0.7, "0.3,1.0,2.5")])
    def test_rows_equal_the_per_mode_factors(self, tmp_path, d, n, diffusion, factors):
        from fd_modes import amplification_factor

        from gasdiff.fd_solver import SchemeKind, critical_time_step

        out = tmp_path / "amp.csv"
        assert run_cli("amp-plot", "--d", d, "--N", n, "--D", diffusion,
                       "--k-factors", factors, "--out", out) == 0
        grid = GridSpec(d=d, n=n)
        k_c = critical_time_step(grid, diffusion)
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == n // 2 + 1
        for m, row in enumerate(rows):
            expected = [np.sqrt(d) * m / n] + [
                amplification_factor(scheme, (m,) * d, float(f) * k_c, diffusion, grid)
                for scheme in (SchemeKind.FORWARD_EULER, SchemeKind.CRANK_NICOLSON)
                for f in factors.split(",")]
            assert row == ",".join(repr(float(v)) for v in expected)


class TestBinCli:
    def test_outputs_and_manifest(self, binned_dir):
        meta = json.loads((binned_dir / "binned.json").read_text())
        assert meta["n"] == 8
        assert meta["species"] == "Ar"
        assert meta["normalization_max"] >= 1
        assert len(meta["times_fs"]) == 11
        counts, _ = read_field_csv(binned_dir / "counts_0000.csv")
        assert counts.values.sum() == 120  # every argon lands in some cell
        assert (binned_dir / "manifest.json").exists()

    def test_u_fields_in_unit_interval(self, binned_dir):
        for i in range(11):
            u, _ = read_field_csv(binned_dir / f"u_{i:04d}.csv")
            assert np.all(u.values >= 0.0) and np.all(u.values <= 1.0)

    def test_per_frame_max_is_no_option(self, tmp_path, small_traj):
        # a frame scaled by its own peak is not counts over one maximum,
        # which a fit of a mass-conserving model needs
        out = tmp_path / "b"
        with pytest.raises(SystemExit) as exc:
            run_cli("bin", "--traj", small_traj, "--per-frame-max", "--out", out)
        assert exc.value.code == 2
        assert not out.exists()


class TestFitCli:
    def test_report_keys_and_types(self, tmp_path, binned_dir):
        report_path = tmp_path / "report.json"
        code = run_cli(
            "fit", "--binned", binned_dir, "--d0", "0.05",
            "--scale-box-cm", 2.5e-5, "--scale-time-s", 1e-9,
            "--init-from-frame0", "--out", report_path,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        for key in ("d_opt_nd", "d_opt_cm2_s", "cost", "iterations", "ci95",
                    "converged", "cost_trace", "rejected_trials"):
            assert key in report
        assert report["d_opt_nd"] > 0
        assert report["cost"] >= 0
        assert isinstance(report["cost_trace"], list)
        assert isinstance(report["rejected_trials"], int)


    def test_series_starting_after_t0_needs_init_from_frame0(self, tmp_path,
                                                             small_traj):
        dump = tmp_path / "out.dump"
        assert run_cli("convert", "--in", small_traj, "--to", "lammps",
                       "--out", dump) == 0
        lines = dump.read_text().splitlines()
        for i, line in enumerate(lines[:-1]):
            if line == "ITEM: TIMESTEP":  # the run restarted at timestep 1000
                lines[i + 1] = str(int(lines[i + 1]) + 1000)
        dump.write_text("\n".join(lines) + "\n")
        traj, binned = tmp_path / "late.txt", tmp_path / "late_bin"
        assert run_cli("convert", "--in", dump, "--to", "native",
                       "--species-map", "1=He,2=Ar", "--dt", 5.0, "--out", traj) == 0
        assert read_native(traj).frames[0].time_fs == 5000.0
        assert run_cli("bin", "--traj", traj, "--N", 8, "--species", "ar",
                       "--out", binned) == 0
        args = ("fit", "--binned", binned, "--d0", "0.05",
                "--scale-box-cm", 2.5e-5, "--scale-time-s", 1e-9)
        report = tmp_path / "fit" / "report.json"
        assert run_cli(*args, "--out", report) == 2  # FitError
        assert not report.exists()
        assert run_cli(*args, "--init-from-frame0", "--out", report) == 0
        assert json.loads(report.read_text())["d_opt_nd"] > 0

    def test_series_of_identical_uniform_fields_exits_2(self, tmp_path, capsys):
        # a uniform field stays as it is for every D, so no trial lowers the cost
        from gasdiff import pipeline

        grid = GridSpec(d=2, n=8)
        uniform = ScalarField(grid, np.full((8, 8), 0.25))
        binned, out = tmp_path / "binned", tmp_path / "fit"
        pipeline.write_binned_dir(series_of_fields([0.0, 1e3, 2e3], [uniform] * 3),
                                  binned)
        capsys.readouterr()
        assert run_cli("fit", "--binned", binned, "--init-from-frame0", "--d0", 0.05,
                       "--out", out / "report.json") == 2
        assert capsys.readouterr().err == (
            "gasdiff: no trial D lowered the cost in the first step from D0=0.05\n")
        assert not out.exists()


class TestCostCurveCli:
    def test_writes_monotone_grid(self, tmp_path, binned_dir):
        out = tmp_path / "curve.csv"
        code = run_cli(
            "cost-curve", "--binned", binned_dir, "--d-min", 0.01,
            "--d-max", 0.2, "--points", 7,
            "--scale-box-cm", 2.5e-5, "--scale-time-s", 1e-9,
            "--init-from-frame0", "--out", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d_nd,cost"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 7
        assert all(b[0] > a[0] for a, b in zip(rows, rows[1:]))


class TestMsdCli:
    def test_report(self, tmp_path, small_traj):
        out = tmp_path / "msd.json"
        assert run_cli("msd", "--traj", small_traj, "--species", "ar",
                       "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["d_cm2_s"] > 0
        assert report["n_frames"] == 11
        assert 0.0 <= report["r_squared"] <= 1.0

    def test_one_sided_window_on_a_frameless_trajectory_exits_2(self, tmp_path):
        empty = tmp_path / "empty.bin"
        write_native(Trajectory(box_side=100.0), empty)
        assert run_cli("msd", "--traj", empty, "--t-lo", 0.0,
                       "--out", tmp_path / "msd.json") == 2
        assert not (tmp_path / "msd.json").exists()


class TestConvertCli:
    def test_native_to_lammps_and_back(self, tmp_path, small_traj):
        dump = tmp_path / "out.dump"
        assert run_cli("convert", "--in", small_traj, "--to", "lammps",
                       "--out", dump) == 0
        native2 = tmp_path / "back.txt"
        assert run_cli("convert", "--in", dump, "--to", "native",
                       "--species-map", "1=He,2=Ar", "--dt", 5.0,
                       "--out", native2) == 0
        a = read_native(small_traj)
        b = read_native(native2)
        assert b.n_frames == a.n_frames
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.positions, fb.positions)
            assert np.array_equal(fa.species, fb.species)

    def test_missing_input_exits_3(self, tmp_path):
        code = run_cli("convert", "--in", tmp_path / "nope.txt",
                       "--to", "lammps", "--out", tmp_path / "x.dump")
        assert code == 3

    def test_malformed_dump_exits_3(self, tmp_path):
        bad = tmp_path / "bad.dump"
        bad.write_text("ITEM: TIMESTEP\nnot-a-number\n")
        code = run_cli("convert", "--in", bad, "--to", "native",
                       "--out", tmp_path / "x.txt")
        assert code == 3

    DUMP = ("ITEM: TIMESTEP\n0\nITEM: NUMBER OF ATOMS\n1\n"
            "ITEM: BOX BOUNDS pp pp pp\n0.0 100.0\n0.0 100.0\n-0.5 0.5\n"
            "ITEM: ATOMS id type x y\n1 1 5.0 5.0\n")

    @pytest.mark.parametrize("edit, message", [
        (("NUMBER OF ATOMS\n1", "NUMBER OF ATOMS\n-1"), ":4: negative atom count"),
        (("pp pp pp\n0.0 100.0", "pp pp pp\n0.0"), ":6: malformed box bounds line"),
        (("0.0 100.0\n0.0 100.0\n-0.5 0.5\n", "0.0 100.0\n"),
         ":6: expected at least 2 box bounds lines"),
        ((DUMP.split("0\n", 1)[1], ""), ":2: missing 'ITEM: NUMBER OF ATOMS' section"),
    ], ids=["negative atom count", "one-token bounds line", "one bounds line",
            "end after the timestep"])
    def test_malformed_dump_names_its_line(self, tmp_path, capsys, edit, message):
        dump, out = tmp_path / "bad.dump", tmp_path / "out"
        dump.write_text(self.DUMP.replace(*edit))
        capsys.readouterr()
        assert run_cli("convert", "--in", dump, "--to", "native", "--out", out / "t.bin") == 3
        assert capsys.readouterr().err == f"gasdiff: {dump}{message}\n"
        assert not out.exists()


class TestSmallBoxCli:
    """A trajectory's box needs no room for the MD's cutoff: a 30 A dump
    converts, bins and gives an MSD, while md-run refuses a 30 A box."""

    def test_dump_with_a_30_a_box(self, tmp_path, capsys):
        # He 1 stays put; Ar 2 steps +1 A in x across the x = 30 boundary,
        # Ar 3 steps -1 A in y; frames every 10 steps of 5 fs
        dump = tmp_path / "small.dump"
        dump.write_text("".join(
            f"ITEM: TIMESTEP\n{10 * k}\nITEM: NUMBER OF ATOMS\n3\n"
            "ITEM: BOX BOUNDS pp pp pp\n0.0 30.0\n0.0 30.0\n-0.5 0.5\n"
            f"ITEM: ATOMS id type x y\n1 1 15.0 15.0\n2 2 {x} 10.0\n3 2 20.0 {5.0 - k}\n"
            for k, x in enumerate([29.5, 0.5, 1.5, 2.5])))
        traj, binned, msd = tmp_path / "t.bin", tmp_path / "bin", tmp_path / "msd.json"
        assert run_cli("convert", "--in", dump, "--to", "native", "--dt", 5.0,
                       "--out", traj) == 0
        assert read_native(traj).box_side == 30.0
        assert run_cli("bin", "--traj", traj, "--N", 4, "--out", binned) == 0
        for k in range(4):
            want = np.zeros((4, 4))
            want[3 if k == 0 else 0, 1] = want[2, 0] = 1.0
            counts, t = read_field_csv(binned / f"counts_{k:04d}.csv")
            assert (t, counts.values.tolist()) == (50.0 * k, want.tolist())
        assert run_cli("msd", "--traj", traj, "--out", msd) == 0
        report = json.loads(msd.read_text())
        # MSD k**2 A**2 at 50 k fs: slope 0.06 A**2/fs, D = slope / 4
        assert report["n_frames"] == 4
        assert report["slope_a2_fs"] == pytest.approx(0.06, rel=1e-12)
        assert report["d_a2_fs"] == pytest.approx(0.015, rel=1e-12)
        capsys.readouterr()
        assert run_cli("md-run", "--n-he", 2, "--n-ar", 2, "--box", 30.0, "--steps", 10,
                       "--out", tmp_path / "md" / "t.bin") == 2
        assert_one_line_error(capsys, "box side 30.0 too small for minimum image at cutoff 20.0")
        assert not (tmp_path / "md").exists()


class TestFrameWithOtherParticlesCli:
    """A frame that holds other particles than frame 0 makes msd (other ids
    in frame 0's rows of the species) and bin (other species) exit 3."""

    @staticmethod
    def converted(tmp_path, rows):
        dump, traj = tmp_path / "d.dump", tmp_path / "t.bin"
        dump.write_text("".join(
            f"ITEM: TIMESTEP\n{10 * k}\nITEM: NUMBER OF ATOMS\n4\n"
            "ITEM: BOX BOUNDS pp pp pp\n0.0 100.0\n0.0 100.0\n-0.5 0.5\n"
            "ITEM: ATOMS id type x y\n" + "".join(
                f"{i} {t} {10.0 * i + k} 50.0\n" for i, t in frame_rows)
            for k, frame_rows in enumerate(rows)))
        assert run_cli("convert", "--in", dump, "--to", "native", "--dt", 5.0,
                       "--out", traj) == 0
        return traj

    def test_msd_of_a_frame_with_other_ids_exits_3(self, tmp_path, capsys):
        ar = [(1, 2), (2, 2), (3, 2), (4, 2)]
        traj = self.converted(tmp_path, [ar, ar, [(i + 4, t) for i, t in ar]])
        capsys.readouterr()
        assert run_cli("msd", "--traj", traj, "--out", tmp_path / "msd" / "msd.json") == 3
        assert capsys.readouterr().err == (
            "gasdiff: frame at timestep 20 holds other Ar particles than frame 0\n")
        assert not (tmp_path / "msd").exists()

    def test_bin_of_a_frame_with_other_species_exits_3(self, tmp_path, capsys):
        rows = [(1, 1), (2, 2), (3, 2), (4, 2)]
        traj = self.converted(tmp_path, [rows, [(1, 2), *rows[1:]], rows])
        capsys.readouterr()
        assert run_cli("bin", "--traj", traj, "--N", 4, "--out", tmp_path / "bin") == 3
        assert capsys.readouterr().err == (
            "gasdiff: frame at timestep 10 holds particles of other species than frame 0\n")
        assert not (tmp_path / "bin").exists()


class TestDumpColumnLayoutCli:
    FRAME = ("ITEM: TIMESTEP\n{t}\nITEM: NUMBER OF ATOMS\n1\n"
             "ITEM: BOX BOUNDS pp pp pp\n0.0 100.0\n0.0 100.0\n-0.5 0.5\n"
             "ITEM: ATOMS {columns}\n{row}\n")

    @pytest.mark.parametrize("columns, row", [
        ("type id x y", "1 1 25.0 75.0"),
        ("id type xs ys", "1 1 0.25 0.75"),
        ("id type x y vx vy", "1 1 25.0 75.0 0.5 -0.5"),
    ])
    def test_later_frame_with_other_columns_exits_3(self, tmp_path, capsys, columns, row):
        dump = tmp_path / "d.dump"
        dump.write_text(self.FRAME.format(t=0, columns="id type x y", row="1 1 25.0 75.0")
                        + self.FRAME.format(t=10, columns=columns, row=row))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("convert", "--in", dump, "--to", "native", "--out", out / "t.bin") == 3
        assert_one_line_error(capsys, f"{dump}:19: ATOMS columns {columns.split()!r} "
                                      "differ from frame 0's ['id', 'type', 'x', 'y']")
        assert not out.exists()


def assert_one_line_error(capsys, message):
    err = capsys.readouterr().err
    assert err.startswith("gasdiff: ") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err


class TestValuesOutsideTheirDomain:
    """Options and input files the model cannot use exit 2 and 3 with a
    one-line message and write nothing."""

    FIT_SCALE = ["--scale-box-cm", 2.5e-5, "--scale-time-s", 1e-9]
    MD_RUN = ["md-run", "--n-he", 20, "--n-ar", 20, "--box", 1000.0, "--steps", 10,
              "--stride", 5]
    COST_CURVE = ["cost-curve", "--binned", "{binned}", *FIT_SCALE,
                  "--init-from-frame0", "--d-min", 0.01, "--d-max", 0.2]

    @pytest.mark.parametrize("command, message", [
        (["fit", "--binned", "{binned}", *FIT_SCALE, "--substeps", 0],
         "substeps must be >= 1"),
        (["fit", "--binned", "{binned}", *FIT_SCALE, "--substeps", -1],
         "substeps must be >= 1"),
        ([*COST_CURVE, "--substeps", 0], "substeps must be >= 1"),
        ([*COST_CURVE, "--points", 0], "diffusion grid is empty"),
        ([*MD_RUN, "--steps", -1], "step count must be nonnegative"),
        (["reproduce", "--seeds", ""], "no seeds given"),
        (["reproduce", "--seeds", "1,2,1"], "seed 1 is given more than once"),
        (["reproduce", "--seeds", "1", "--N", "10,20,10"], "N 10 is given more than once"),
        ([*MD_RUN, "--box", "nan"], "box side must be positive and finite"),
        ([*MD_RUN, "--box", "inf"], "box side must be positive and finite"),
        ([*MD_RUN, "--dt", "nan"], "time step and temperature must be positive"),
        ([*MD_RUN, "--dt", "inf"], "time step and temperature must be positive"),
        ([*MD_RUN, "--temp", "nan"], "time step and temperature must be positive"),
        ([*MD_RUN, "--temp", "inf"], "time step and temperature must be positive"),
        (["fd-run", "--D", "inf"], "diffusion coefficient must be positive and finite"),
        (["amp-plot", "--D", "nan"], "diffusion coefficient must be positive and finite"),
        ([*COST_CURVE[:-4], "--d-min", "nan", "--d-max", 0.2],
         "diffusion grid must be positive and finite"),
        ([*COST_CURVE[:-4], "--d-min", 0.2, "--d-max", 0.1],
         "diffusion grid must be strictly increasing"),
        (["fit", "--binned", "{binned}", *FIT_SCALE, "--d0", "nan"],
         "initial diffusion guess must be positive and finite"),
        (["fit", "--binned", "{binned}", "--scale-box-cm", "inf"],
         "unit scale factors must be positive and finite"),
        (["amp-plot", "--k-factors", "0.5,nan"], "k factors must be positive and finite, got nan"),
        (["amp-plot", "--k-factors", "-1"], "k factors must be positive and finite, got -1.0"),
        (["amp-plot", "--k-factors", "0"], "k factors must be positive and finite, got 0.0"),
        (["amp-plot", "--k-factors", "inf"], "k factors must be positive and finite, got inf"),
    ])
    def test_option_exits_2(self, tmp_path, capsys, binned_dir, command, message):
        out = tmp_path / "out"
        argv = [str(a).format(binned=binned_dir) for a in command]
        capsys.readouterr()
        assert run_cli(*argv, "--out", out / "result") == 2
        assert_one_line_error(capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["bin", "--traj", "{traj}", "--N", 8, "--out", "{out}"],
        ["msd", "--traj", "{traj}", "--out", "{out}/msd.json"],
    ])
    @pytest.mark.parametrize("fault", ["nan x", "nan box", "inf box"])
    def test_non_finite_input_exits_3(self, tmp_path, capsys, small_traj, command, fault):
        if fault == "nan x":  # converts, as the dump's numbers are read as given
            dump = tmp_path / "nan.dump"
            dump.write_text("".join(
                f"ITEM: TIMESTEP\n{t}\nITEM: NUMBER OF ATOMS\n2\n"
                "ITEM: BOX BOUNDS pp pp pp\n0.0 100.0\n0.0 100.0\n-0.5 0.5\n"
                f"ITEM: ATOMS id type x y\n1 1 5.0 5.0\n7 2 {x} 9.0\n"
                for t, x in ((0, "8.0"), (10, "nan"), (20, "8.5"))))
            traj = tmp_path / "nan.txt"
            assert run_cli("convert", "--in", dump, "--to", "native", "--out", traj) == 0
            message = "gasdiff: frame at timestep 10: particle 7 has a non-finite position"
        else:
            traj = tmp_path / "bad.bin"
            raw_native(traj, f"#gasdiff-trajectory 2\n#box {fault[:3]}\n#dt 5.0\n",
                       read_native(small_traj).frames)
            message = (f"gasdiff: {traj}: box side must be positive and finite, "
                       f"got {fault[:3]}")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*[str(a).format(traj=traj, out=out) for a in command]) == 3
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()


    @pytest.mark.parametrize("hi", ["nan", "inf", "-1.0"])
    def test_dump_box_bounds_outside_zero_to_inf_exit_3(self, tmp_path, capsys, hi):
        dump = tmp_path / "bad.dump"
        dump.write_text("ITEM: TIMESTEP\n0\nITEM: NUMBER OF ATOMS\n1\n"
                        f"ITEM: BOX BOUNDS pp pp pp\n0.0 {hi}\n0.0 100.0\n-0.5 0.5\n"
                        "ITEM: ATOMS id type x y\n1 1 5.0 5.0\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("convert", "--in", dump, "--to", "native",
                       "--out", out / "t.txt") == 3
        assert_one_line_error(capsys, f"{dump}:6: box extent must be positive and finite, got {hi}")
        assert not out.exists()

    DUMP_FRAME = ("ITEM: TIMESTEP\n{t}\nITEM: NUMBER OF ATOMS\n2\nITEM: BOX BOUNDS {box}\n"
                  "ITEM: ATOMS id type x y\n1 1 5.0 5.0\n7 2 8.0 9.0\n")
    SQUARE = "pp pp pp\n0.0 100.0\n0.0 100.0\n-0.5 0.5"

    @pytest.mark.parametrize("box, message", [
        ("pp pp pp\n0.0 100.0\n0.0 200.0\n-0.5 0.5",
         "{dump}:18: box must be square: x extent 100.0, y extent 200.0"),
        ("pp pp pp\n0.0 300.0\n0.0 300.0\n-0.5 0.5",
         "{dump}:17: box bounds [(0.0, 300.0), (0.0, 300.0)] differ from frame 0's "
         "[(0.0, 100.0), (0.0, 100.0)]"),
        ("xy xz yz pp pp pp\n0.0 100.0 5.0\n0.0 100.0 0.0\n-0.5 0.5 0.0",
         "{dump}:16: only an orthogonal box is supported, "
         "found 'ITEM: BOX BOUNDS xy xz yz pp pp pp'"),
    ])
    def test_dump_box_the_model_cannot_use_exits_3(self, tmp_path, capsys, box, message):
        dump = tmp_path / "bad.dump"
        dump.write_text(self.DUMP_FRAME.format(t=0, box=self.SQUARE)
                        + self.DUMP_FRAME.format(t=10, box=box))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("convert", "--in", dump, "--to", "native",
                       "--out", out / "t.txt") == 3
        assert capsys.readouterr().err == f"gasdiff: {message.format(dump=dump)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["nan", "inf", "-5", "0"])
    def test_convert_dt_outside_zero_to_inf_exits_2(self, tmp_path, capsys, dt):
        dump = tmp_path / "d.dump"
        dump.write_text(self.DUMP_FRAME.format(t=0, box=self.SQUARE)
                        + self.DUMP_FRAME.format(t=10, box=self.SQUARE))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("convert", "--in", dump, "--to", "native", "--dt", dt,
                       "--out", out / "t.txt") == 2
        assert_one_line_error(capsys, f"dt must be positive and finite, got {float(dt)!r}")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_convert_to_lammps_with_a_dt_exits_2(self, tmp_path, capsys, small_traj,
                                                 source):
        # a native trajectory keeps its own times, so a dt has nothing to set
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 5.0\n")
        extra = ["--dt", "nan"] if source == "flag" else ["--config", cfg]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("convert", "--in", small_traj, "--to", "lammps", *extra,
                       "--out", out / "t.dump") == 2
        assert_one_line_error(capsys, "--dt applies only to dump input (--to native)")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["bin", "--traj", "{traj}", "--N", 8, "--out", "{out}"],
        ["msd", "--traj", "{traj}", "--out", "{out}/msd.json"],
        # streams: frame 0 reaches the .tmp file before frame 1 is refused
        ["convert", "--in", "{traj}", "--to", "lammps", "--out", "{out}/t.dump"],
    ])
    @pytest.mark.parametrize("time, message", [
        ("nan", "frame at timestep 10 has a non-finite time nan"),
        ("0.0", "frame at timestep 10 has time 0.0 fs, not after 0.0"),
        ("-50.0", "frame at timestep 10 has time -50.0 fs, not after 0.0"),
    ])
    def test_frame_time_the_model_cannot_use_exits_3(self, tmp_path, capsys, command, time,
                                                     message):
        traj = tmp_path / "bad.bin"
        ids, species = np.array([1, 2]), np.array([int(Species.HE), int(Species.AR)])
        raw_native(traj, "#gasdiff-trajectory 2\n#box 100.0\n#dt 5.0\n", [
            Frame(0, 0.0, ids, species, np.array([[5.0, 5.0], [8.0, 9.0]]), np.zeros((2, 2))),
            Frame(10, float(time), ids, species, np.array([[5.5, 5.0], [8.0, 9.5]]),
                  np.zeros((2, 2)))])
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*[str(a).format(traj=traj, out=out) for a in command]) == 3
        assert capsys.readouterr().err == f"gasdiff: {traj}: {message}\n"
        assert not out.exists()


class TestMalformedBinnedInput:
    """A binned directory or a field CSV the model cannot read makes fit,
    cost-curve and heatmap exit 3 with a one-line message naming the file,
    and write nothing."""

    FIT = ["fit", "--binned", "{binned}", *TestValuesOutsideTheirDomain.FIT_SCALE,
           "--init-from-frame0", "--out", "{out}/report.json"]
    COST_CURVE = [*TestValuesOutsideTheirDomain.COST_CURVE, "--out", "{out}/curve.csv"]

    @pytest.mark.parametrize("command", ["fit", "cost-curve"])
    @pytest.mark.parametrize("edit, file, message", [
        ("not JSON", "binned.json", "binned.json: not JSON"),
        ("a list", "binned.json", "binned.json: expected a JSON object"),
        ("no times_fs", "binned.json", "binned.json: times_fs must be a nonempty list"),
        ("times_fs a number", "binned.json", "binned.json: times_fs must be a nonempty list"),
        ("times_fs empty", "binned.json", "binned.json: times_fs must be a nonempty list"),
        ("times_fs of strings", "binned.json", "binned.json: times_fs must be a nonempty list"),
        ("normalization_max a string", "binned.json",
         "binned.json: normalization_max must be an integer, got 'abc'"),
        ("normalization_max a float", "binned.json",
         "binned.json: normalization_max must be an integer, got 2.5"),
        ("species unknown", "binned.json", "binned.json: unknown species 'Xe'"),
        ("species a list", "binned.json", "binned.json: unknown species ['Ar']"),
        ("times_fs with a NaN", "binned.json",
         "binned.json: times_fs must be a nonempty list of finite numbers"),
        ("times_fs with an int beyond float", "binned.json",
         "binned.json: times_fs must be a nonempty list of finite numbers"),
        ("nan value", "u_0003.csv", "u_0003.csv: field values must be finite"),
        ("other grid", "u_0002.csv", "u_0002.csv: grid GridSpec(d=2, n=4) differs"),
        ("other time", "u_0004.csv",
         "u_0004.csv: t=800.5 differs from binned.json's times_fs[4] = 800.0"),
        ("value off the counts", "binned.json",
         "binned.json: frame 3 is not counts / normalization_max"),
        ("a count added", "binned.json", "binned.json: per-frame particle count varies"),
        ("n and d of another grid", "binned.json",
         "binned.json: n=99, d=7 are not u_0000.csv's grid GridSpec(d=2, n=8)"),
        ("n a float", "binned.json",
         "binned.json: n=8.0, d=2 are not u_0000.csv's grid GridSpec(d=2, n=8)"),
        ("d a string", "binned.json",
         "binned.json: n=8, d='2' are not u_0000.csv's grid GridSpec(d=2, n=8)"),
        ("no n", "binned.json",
         "binned.json: n=None, d=2 are not u_0000.csv's grid GridSpec(d=2, n=8)"),
    ])
    def test_binned_dir_exits_3(self, tmp_path, capsys, binned_dir, command, edit, file,
                                message):
        import shutil

        binned = tmp_path / "binned"
        shutil.copytree(binned_dir, binned)
        meta = json.loads((binned / "binned.json").read_text())
        if edit == "not JSON":
            (binned / "binned.json").write_text("{\"times_fs\": [0.0,")
        elif edit == "nan value":
            text = (binned / file).read_text().splitlines()
            text[2] = "nan" + text[2][text[2].index(","):]
            (binned / file).write_text("\n".join(text) + "\n")
        elif edit == "other grid":
            write_field_csv(ScalarField(GridSpec(d=2, n=4), np.zeros((4, 4))), binned / file)
        elif edit == "other time":
            u, t = read_field_csv(binned / file)
            write_field_csv(u, binned / file, time=t + 0.5)
        elif edit in ("value off the counts", "a count added"):
            u, t = read_field_csv(binned / "u_0003.csv")
            values, norm = u.values.copy(), meta["normalization_max"]
            values[0, 0] += (0.5 if edit == "value off the counts" else 1.0) / norm
            write_field_csv(ScalarField(u.grid, values), binned / "u_0003.csv", time=t)
        else:
            meta = {"a list": [meta], "no times_fs": {"n": 8},
                    "times_fs a number": {**meta, "times_fs": 5.0},
                    "times_fs empty": {**meta, "times_fs": []},
                    "times_fs of strings": {**meta, "times_fs": ["0.0"] * 11},
                    "times_fs with a NaN": {**meta, "times_fs": [float("nan")] * 11},
                    "times_fs with an int beyond float": {**meta, "times_fs": [10**400] * 11},
                    "normalization_max a string": {**meta, "normalization_max": "abc"},
                    "normalization_max a float": {**meta, "normalization_max": 2.5},
                    "species unknown": {**meta, "species": "Xe"},
                    "species a list": {**meta, "species": ["Ar"]},
                    "n and d of another grid": {**meta, "n": 99, "d": 7},
                    "n a float": {**meta, "n": 8.0},
                    "d a string": {**meta, "d": "2"},
                    "no n": {k: v for k, v in meta.items() if k != "n"}}[edit]
            (binned / "binned.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        argv = self.FIT if command == "fit" else self.COST_CURVE
        capsys.readouterr()
        assert run_cli(*[str(a).format(binned=binned, out=out) for a in argv]) == 3
        assert_one_line_error(capsys, f"gasdiff: {binned}/{message}")
        assert not out.exists()

    def test_frames_scaled_by_their_own_peaks_exit_3(self, tmp_path, capsys):
        """8 argon spread from one cell (peak 8) over two (peak 4) and four
        (peak 2): scaled by its own peak, as the former bin --per-frame-max
        wrote it, the series holds 8, 16 and 32 argon over the maximum 8."""
        from gasdiff.trajectory_io import write_native_frames

        ids, species = np.arange(1, 9), np.full(8, int(Species.AR))
        cells = [[(0, 0)] * 8, [(0, 0), (1, 1)] * 4, [(0, 0), (0, 1), (1, 0), (1, 1)] * 2]
        traj, binned = tmp_path / "t.bin", tmp_path / "binned"
        write_native_frames(Trajectory(box_side=100.0), (
            Frame(10 * f, 50.0 * f, ids, species, 50.0 * np.array(c) + 25.0, np.zeros((8, 2)))
            for f, c in enumerate(cells)), traj)
        assert run_cli("bin", "--traj", traj, "--N", 2, "--out", binned) == 0
        for i in range(3):
            counts, t = read_field_csv(binned / f"counts_{i:04d}.csv")
            write_field_csv(ScalarField(counts.grid, counts.values / counts.values.max()),
                            binned / f"u_{i:04d}.csv", time=t)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*[str(a).format(binned=binned, out=out) for a in self.FIT]) == 3
        assert_one_line_error(capsys, f"gasdiff: {binned}/binned.json: "
                                      "per-frame particle count varies: [8, 16, 32]")
        assert not out.exists()

    @pytest.mark.parametrize("values, message", [
        ("nan,0.0\n0.0,1.0", ": field values must be finite"),
        ("inf,0.0\n0.0,1.0", ": field values must be finite"),
        ("0.0\n0.0,1.0", ":2: expected 2 columns, found 1"),
        ("0.5", ": need at least 2 cells per side, got 1"),
    ])
    def test_heatmap_field_exits_3(self, tmp_path, capsys, values, message):
        field, out = tmp_path / "f.csv", tmp_path / "out"
        n = values.count("\n") + 1
        field.write_text(f"# N={n} d=2 t=0.0\n{values}\n")
        capsys.readouterr()
        assert run_cli("heatmap", "--field", field, "--out", out / "f.svg") == 3
        assert_one_line_error(capsys, f"gasdiff: {field}{message}")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("", "empty field file"),
        ("# N=2 d=2 t=abc\n0.0,1.0\n1.0,0.0\n", "non-numeric time in header"),
    ])
    def test_heatmap_field_header_exits_3(self, tmp_path, capsys, text, message):
        field, out = tmp_path / "f.csv", tmp_path / "out"
        field.write_text(text)
        capsys.readouterr()
        assert run_cli("heatmap", "--field", field, "--out", out / "f.svg") == 3
        assert capsys.readouterr().err == f"gasdiff: {field}:1: {message}\n"
        assert not out.exists()


class TestHeatmapCli:
    def test_valid_xml_and_top_bin(self, tmp_path):
        field_path = tmp_path / "f.csv"
        values = np.zeros((2, 2))
        values[0, 1] = 1.0
        write_field_csv(ScalarField(GridSpec(d=2, n=2), values), field_path)
        out = tmp_path / "f.svg"
        assert run_cli("heatmap", "--field", field_path, "--out", out) == 0
        root = ET.fromstring(out.read_text())  # well-formed XML
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) == 4
        fills = {(r.get("x"), r.get("y")): r.get("fill") for r in rects}
        assert fills[("1", "0")] == "#08306b"  # the 1.0 cell gets the top bin
        assert fills[("0", "0")] == "#f7fbff"

    def test_uniform_zero_is_single_color(self, tmp_path):
        field_path = tmp_path / "z.csv"
        write_field_csv(ScalarField(GridSpec(d=2, n=3), np.zeros((3, 3))), field_path)
        out = tmp_path / "z.svg"
        assert run_cli("heatmap", "--field", field_path, "--out", out) == 0
        root = ET.fromstring(out.read_text())
        fills = {el.get("fill") for el in root.iter() if el.tag.endswith("rect")}
        assert len(fills) == 1


class TestUsageAndConfig:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("md-run")  # --out required
        assert exc.value.code == 2

    def test_config_file_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nsteps = 30\nseed = 7\nn_he = 40\nn_ar = 0\n")
        out = tmp_path / "t.txt"
        assert run_cli("md-run", "--config", cfg, "--seed", 9, "--box", 2000.0,
                       "--stride", 10, "--out", out) == 0
        traj = read_native(out)
        assert traj.seed == 9          # flag beats config
        assert traj.n_he == 40         # config beats built-in default
        assert traj.n_frames == 4      # 30 steps / stride 10 + frame 0
        # the manifest records the values the run used, wherever they came from
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["config"] == {
            "box": 2000.0, "command": "md-run", "dt": 5.0, "n_ar": 0, "n_he": 40,
            "out": str(out), "seed": 9, "steps": 30, "stride": 10, "temp": 300.0,
            "threads": 1,
        }

    def test_non_numeric_config_value_exits_2_and_writes_nothing(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_he = abc\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("md-run", "--config", cfg, "--out", tmp_path / "run" / "t.txt")
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()

    def test_failed_fit_leaves_no_output_directory(self, tmp_path):
        assert run_cli("fit", "--binned", tmp_path / "missing",
                       "--out", tmp_path / "new" / "r.json") == 3
        assert not (tmp_path / "new").exists()

    def test_verbose_line_and_manifest_share_one_wall_time(self, tmp_path, capsys):
        out = tmp_path / "amp.csv"
        capsys.readouterr()
        assert run_cli("amp-plot", "--N", 8, "--verbose", "--out", out) == 0
        wall = json.loads((tmp_path / "manifest.json").read_text())["wall_time_s"]
        assert capsys.readouterr().err == f"gasdiff amp-plot: exit 0 in {wall:.2f}s\n"

    def test_malformed_config_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        out = tmp_path / "t.txt"
        assert run_cli("md-run", "--config", cfg, "--out", out) == 3

    def test_config_that_is_not_utf8_exits_3_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        out = tmp_path / "run" / "t.bin"
        capsys.readouterr()
        assert run_cli("md-run", "--config", cfg, "--out", out) == 3
        assert_one_line_error(capsys, "gasdiff: cannot read config: 'utf-8' codec")
        assert not out.parent.exists()


class TestConfigChoices:
    """A config-file value is checked against its option's choices like the
    flag's: exit 2 with argparse's usage message."""

    @pytest.mark.parametrize("command, key, option, value", [
        (["bin", "--traj", "t.txt"], "species", "--species", "xx"),
        (["msd", "--traj", "t.txt"], "species", "--species", "xx"),
        (["fd-run"], "scheme", "--scheme", "xx"),
        (["amp-plot"], "d", "--d", "3"),
        (["reproduce"], "scale", "--scale", "big"),
    ])
    def test_bad_choice_in_a_config_file_exits_2_like_the_flag(
            self, tmp_path, capsys, command, key, option, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out" / "o"
        errors = []
        for extra in (["--config", cfg], [option, value]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                run_cli(*command, *extra, "--out", out)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert f"argument {option}: invalid choice: " in errors[0]
        assert not (tmp_path / "out").exists()

    def test_flag_with_a_good_choice_overrides_a_bad_config_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 3\n")
        out = tmp_path / "amp.csv"
        assert run_cli("amp-plot", "--config", cfg, "--d", 2, "--N", 8, "--out", out) == 0


class TestReproduceCli:
    def test_threads_flag_runs_the_seeds_in_order_with_the_same_bytes(
            self, tmp_path, monkeypatch):
        from gasdiff import pipeline
        from test_pipeline import MINI

        monkeypatch.setitem(pipeline.PRESETS, "desk", MINI)
        runs = {}
        for threads in (1, 2):
            # the same relative --out, so the source paths in binned.json match
            run_dir = tmp_path / str(threads)
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            assert run_cli("reproduce", "--seeds", "5,6", "--threads", threads,
                           "--out", "out") == 0
            out = run_dir / "out"
            runs[threads] = {str(p.relative_to(out)): p.read_bytes()
                             for p in sorted(out.rglob("*")) if p.is_file()}
            manifest = json.loads(runs[threads].pop("manifest.json"))
            stages = [f"seed_{seed}/{stage}manifest.json" for seed in (5, 6)
                      for stage in ("", "bin_N6/", "fit_N6/")]
            assert manifest["outputs"] == ["out/report.json", "out/table.csv",
                                           *(f"out/{stage}" for stage in stages)]
            assert manifest["config"]["threads"] == threads
            for stage in stages:
                runs[threads].pop(stage)
        assert sorted(runs[1]) == sorted(runs[2])
        assert "seed_6/trajectory.bin" in runs[1]
        assert not any(name.endswith((".frames", ".tmp", ".txt")) for name in runs[1])
        assert runs[1] == runs[2]

    def test_N_replaces_the_preset_s_resolutions(self, tmp_path, monkeypatch):
        from gasdiff import pipeline
        from test_pipeline import MINI

        monkeypatch.setitem(pipeline.PRESETS, "desk", MINI)
        out = tmp_path / "out"
        assert run_cli("reproduce", "--seeds", "7", "--N", "4,8", "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_values"] == [4, 8]
        assert set(report["summary"]) == {"4", "8"}
        assert sorted(p.name for p in (out / "seed_7").glob("bin_N*")) == ["bin_N4", "bin_N8"]

    def test_blow_up_in_seed_1_exits_4_and_leaves_no_directory(self, tmp_path,
                                                              monkeypatch, capsys):
        from gasdiff import md, pipeline
        from gasdiff.errors import InstabilityError
        from test_pipeline import MINI

        def failing_step(*args):
            raise InstabilityError("particle 3 reached 2 A/fs")

        monkeypatch.setitem(pipeline.PRESETS, "desk", MINI)
        monkeypatch.setattr(md, "verlet_step", failing_step)
        capsys.readouterr()
        assert run_cli("reproduce", "--seeds", "5,6", "--out", tmp_path / "out") == 4
        assert_one_line_error(capsys, "instability: particle 3 reached 2 A/fs")
        assert list(tmp_path.iterdir()) == []


class TestArtifactIdempotence:
    def test_fd_run_outputs_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("fd-run", "--N", 12, "--D", 0.1, "--k", 1e-3,
                           "--steps", 10, "--stride", 5, "--out", out) == 0
            outs.append(b"".join(
                sorted(p.read_bytes() for p in out.glob("*.csv"))
            ) + (out / "series.json").read_bytes())
        assert outs[0] == outs[1]


#: the commands that read a native trajectory
NATIVE_INPUT_COMMANDS = [
    ["bin", "--traj", "{traj}", "--N", 8, "--out", "{out}"],
    ["msd", "--traj", "{traj}", "--out", "{out}/msd.json"],
    ["convert", "--in", "{traj}", "--to", "lammps", "--out", "{out}/t.dump"],
]


class TestNotANativeTrajectory:
    """A format 1 text trajectory, an empty file or other leading bytes
    make bin, msd and convert --to lammps exit 3 and write nothing."""

    @pytest.mark.parametrize("command", NATIVE_INPUT_COMMANDS)
    @pytest.mark.parametrize("data", [
        b"#gasdiff-trajectory 1\n#box 100.0\nFRAME 0 0.0\n1 He 1.0 1.0 0.0 0.0\n",
        b"", MAGIC[:-1] + b"3", bytes(range(256))], ids=["text", "empty", "other", "bytes"])
    def test_exits_3_and_writes_nothing(self, tmp_path, capsys, command, data):
        traj, out = tmp_path / "traj.txt", tmp_path / "out"
        traj.write_bytes(data)
        capsys.readouterr()
        assert run_cli(*[str(a).format(traj=traj, out=out) for a in command]) == 3
        assert capsys.readouterr().err == (
            f"gasdiff: {traj}: not a native binary trajectory "
            "(text trajectories, format 1, are no longer read)\n")
        assert not out.exists()


class TestDamagedBinaryTrajectory:
    """A binary trajectory that is truncated, or has one byte flipped in its
    header, records or trailer, makes bin, msd and convert --to lammps exit 3
    and write nothing."""

    @pytest.mark.parametrize("command", NATIVE_INPUT_COMMANDS)
    @pytest.mark.parametrize("damage", ["truncated", "header", "record", "trailer"])
    def test_exits_3_and_writes_nothing(self, tmp_path, capsys, small_traj, command,
                                        damage):
        data = small_traj.read_bytes()
        at = {"header": data.index(b"#box 2500.0") + 6, "record": len(data) // 2,
              "trailer": len(data) - 40}.get(damage)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data[:-1] if at is None
                        else data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*[str(a).format(traj=bad, out=out) for a in command]) == 3
        assert_one_line_error(capsys, f"gasdiff: {bad}: binary trajectory")
        assert not out.exists()


class TestNativeInputReadOnce:
    """bin, msd and convert --to lammps open and hash their native input
    once, taking its header from the one stream, and refuse a file whose
    SHA-256 does not match before any writer starts, whatever its header
    holds."""

    @staticmethod
    def record(monkeypatch):
        """The names of the reads and writes a command makes, in order."""
        from gasdiff import pipeline, trajectory_io

        calls = []
        for module, name in [(trajectory_io, "_open_binary"), (trajectory_io, "_sha256"),
                             (cli, "write_lammps_dump"), (cli, "write_json"),
                             (pipeline, "write_binned_dir")]:
            def recording(*args, _name=name, _call=getattr(module, name), **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        return calls

    @pytest.mark.parametrize("command", NATIVE_INPUT_COMMANDS)
    def test_input_is_opened_and_hashed_once(self, tmp_path, monkeypatch, small_traj,
                                             command):
        out = tmp_path / "out"
        calls = self.record(monkeypatch)
        assert run_cli(*[str(a).format(traj=small_traj, out=out) for a in command]) == 0
        assert calls[:2] == ["_open_binary", "_sha256"]
        assert calls[2:] and not {"_open_binary", "_sha256"} & set(calls[2:])

    @pytest.mark.parametrize("command", NATIVE_INPUT_COMMANDS)
    @pytest.mark.parametrize("header", ["#box 2500.0", "#box 2500.x"])
    def test_bad_sha256_is_refused_before_any_write(self, tmp_path, capsys, monkeypatch,
                                                    small_traj, command, header):
        data = small_traj.read_bytes().replace(b"#box 2500.0", header.encode())
        at = len(data) // 2  # inside a frame record
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
        out = tmp_path / "out"
        calls = self.record(monkeypatch)
        capsys.readouterr()
        assert run_cli(*[str(a).format(traj=bad, out=out) for a in command]) == 3
        assert capsys.readouterr().err == (
            f"gasdiff: {bad}: binary trajectory does not match its SHA-256\n")
        assert calls == ["_open_binary", "_sha256"]
        assert not out.exists()


class TestDiskSpace:
    """md-run and reproduce compare the exact size of their trajectories with
    the free space and stop before any MD step when it does not fit."""

    @staticmethod
    def fake_free(monkeypatch, free):
        import shutil

        usage = shutil.disk_usage
        monkeypatch.setattr(shutil, "disk_usage",
                            lambda path: usage(path)._replace(free=free))

    @staticmethod
    def count_md(monkeypatch):
        from gasdiff import md

        calls, init = [], md.init_state
        monkeypatch.setattr(md, "init_state", lambda *a: calls.append(1) or init(*a))
        return calls

    MD_RUN = ("md-run", "--n-he", 30, "--n-ar", 30, "--box", 1500.0, "--steps", 100,
              "--stride", 10, "--seed", 3)

    def test_md_run_needs_the_exact_size(self, tmp_path, monkeypatch, capsys):
        assert run_cli(*self.MD_RUN, "--out", tmp_path / "a" / "t.txt") == 0
        size = (tmp_path / "a" / "t.txt").stat().st_size
        self.fake_free(monkeypatch, size)
        assert run_cli(*self.MD_RUN, "--out", tmp_path / "b" / "t.txt") == 0
        self.fake_free(monkeypatch, size - 1)
        calls = self.count_md(monkeypatch)
        capsys.readouterr()
        assert run_cli(*self.MD_RUN, "--out", tmp_path / "c" / "t.txt") == 3
        assert_one_line_error(
            capsys, f"gasdiff: [Errno 28] the trajectories need {size} bytes, and "
                    f"{tmp_path / 'c'} has {size - 1} bytes free")
        assert calls == []
        assert not (tmp_path / "c").exists()

    def test_reproduce_needs_every_seed_s_trajectory(self, tmp_path, monkeypatch, capsys):
        from gasdiff import pipeline
        from test_pipeline import MINI

        monkeypatch.setitem(pipeline.PRESETS, "desk", MINI)
        assert run_cli("reproduce", "--seeds", "5,6", "--out", tmp_path / "a") == 0
        size = sum((tmp_path / "a" / f"seed_{s}" / "trajectory.bin").stat().st_size
                   for s in (5, 6))
        self.fake_free(monkeypatch, size - 1)
        calls = self.count_md(monkeypatch)
        capsys.readouterr()
        assert run_cli("reproduce", "--seeds", "5,6", "--out", tmp_path / "b") == 3
        assert_one_line_error(
            capsys, f"gasdiff: [Errno 28] the trajectories need {size} bytes, and "
                    f"{tmp_path / 'b'} has {size - 1} bytes free")
        assert calls == []
        assert not (tmp_path / "b").exists()


class TestRefusedCommandLeavesNoDirectory:
    """A refused command leaves no output directory: the writers make the
    directories they need and remove them on a fault, convert reads its
    input's header first, md-run and reproduce check the free space of the
    directory's nearest existing ancestor first."""

    def test_convert_of_a_dump_with_a_bad_timestep(self, tmp_path, capsys):
        dump = tmp_path / "bad.dump"
        dump.write_text("ITEM: TIMESTEP\nx\nITEM: NUMBER OF ATOMS\n1\n"
                        "ITEM: BOX BOUNDS pp pp pp\n0.0 100.0\n0.0 100.0\n-0.5 0.5\n"
                        "ITEM: ATOMS id type x y\n1 1 5.0 5.0\n")
        capsys.readouterr()
        assert run_cli("convert", "--in", dump, "--to", "native",
                       "--out", tmp_path / "newdir" / "t.bin") == 3
        assert_one_line_error(capsys, f"{dump}:2: non-integer field 'x'")
        assert not (tmp_path / "newdir").exists()

    def test_convert_with_a_repeated_species_map_type(self, tmp_path, capsys):
        dump = tmp_path / "d.dump"
        dump.write_text("ITEM: TIMESTEP\n0\nITEM: NUMBER OF ATOMS\n1\n"
                        "ITEM: BOX BOUNDS pp pp pp\n0.0 100.0\n0.0 100.0\n-0.5 0.5\n"
                        "ITEM: ATOMS id type x y\n1 1 5.0 5.0\n")
        capsys.readouterr()
        assert run_cli("convert", "--in", dump, "--to", "native",
                       "--species-map", "1=He,1=Ar,2=He",
                       "--out", tmp_path / "d3" / "t.bin") == 3
        assert_one_line_error(capsys,
                              "gasdiff: type id 1 is given more than once in the species map")
        assert not (tmp_path / "d3").exists()

    @pytest.mark.parametrize("entry, message", [
        ("1He", "bad species-map entry '1He' (use e.g. 1=He,2=Ar)"),
        ("x=He", "bad type id in species-map entry 'x=He'"),
        ("1=Ne", "unknown species 'Ne' (use he or ar)"),
    ])
    def test_convert_with_a_bad_species_map_entry(self, tmp_path, capsys, entry, message):
        dump = tmp_path / "d.dump"
        dump.write_text(TestConvertCli.DUMP)
        capsys.readouterr()
        assert run_cli("convert", "--in", dump, "--to", "native",
                       "--species-map", f"{entry},2=Ar",
                       "--out", tmp_path / "d4" / "t.bin") == 3
        assert capsys.readouterr().err == f"gasdiff: {message}\n"
        assert not (tmp_path / "d4").exists()

    def test_convert_of_bytes_that_are_no_trajectory(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(bytes(range(256)))
        capsys.readouterr()
        assert run_cli("convert", "--in", garbage, "--to", "lammps",
                       "--out", tmp_path / "d2" / "t.dump") == 3
        assert_one_line_error(capsys, f"{garbage}: not a native binary trajectory")
        assert not (tmp_path / "d2").exists()

    def test_md_run_with_no_room(self, tmp_path, capsys):
        # 1e11 frames of 60000 rows need far more bytes than any disk holds
        capsys.readouterr()
        assert run_cli("md-run", "--n-he", 30000, "--n-ar", 30000, "--box", 50000.0,
                       "--steps", 100_000_000_000, "--stride", 1,
                       "--out", tmp_path / "run1" / "t.bin") == 3
        assert_one_line_error(capsys, "gasdiff: [Errno 28] the trajectories need")
        assert not (tmp_path / "run1").exists()

    def test_reproduce_with_no_room(self, tmp_path, monkeypatch, capsys):
        # 20 paper seeds need 57.6 GB; the file system is made to show 1 GB
        TestDiskSpace.fake_free(monkeypatch, 10**9)
        capsys.readouterr()
        assert run_cli("reproduce", "--scale", "paper", "--seeds",
                       ",".join(str(s) for s in range(1, 21)), "--out", tmp_path / "rep1") == 3
        assert_one_line_error(capsys, "gasdiff: [Errno 28] the trajectories need")
        assert not (tmp_path / "rep1").exists()


class TestStreamingMemory:
    def test_bin_and_msd_memory_grows_only_by_the_binned_frames(self, tmp_path):
        """Ten times the frames of the same n cost bin + msd no more traced
        memory than the extra frames' N x N counts and concentrations: the
        trajectory is never held whole."""
        import tracemalloc

        from gasdiff.trajectory_io import Frame, Trajectory, write_native_frames

        n, grid_n = 300, 10
        rng = np.random.default_rng(0)
        ids, species = np.arange(1, n + 1), np.arange(n) % 2
        start = rng.uniform(0.0, 1000.0, (n, 2))

        def frames(count):
            for f in range(count):
                yield Frame(f, 10.0 * f, ids, species,
                            (start + rng.normal(0.0, 1.0, (n, 2)) * f) % 1000.0,
                            np.zeros((n, 2)))

        peaks = {}
        for count in (20, 200):
            traj = tmp_path / f"t{count}.txt"
            write_native_frames(Trajectory(box_side=1000.0), frames(count), traj)
            # a first run pays for imports and caches outside the traced span
            assert run_cli("msd", "--traj", traj, "--out", tmp_path / "warm.json") == 0
            tracemalloc.start()
            try:
                assert run_cli("bin", "--traj", traj, "--N", grid_n,
                               "--out", tmp_path / f"b{count}") == 0
                assert run_cli("msd", "--traj", traj,
                               "--out", tmp_path / f"m{count}.json") == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        binned_frame = 2 * grid_n * grid_n * 8  # int64 counts + float64 concentration
        assert peaks[200] - peaks[20] <= 180 * binned_frame

    def test_convert_peak_rss_is_flat_in_the_frame_count(self, tmp_path):
        """convert holds one frame at a time each way: on 60k-atom frames
        (about 3 MB each as arrays), a child interpreter's peak RSS for 8
        frames stays within 5 MB of that for 2.  The peak is VmHWM, that of
        the child's own memory map: ru_maxrss would keep the larger peak of
        the process it was started from."""
        import subprocess
        import sys
        from pathlib import Path

        import gasdiff
        from gasdiff.trajectory_io import write_lammps_dump

        n, side = 60_000, 5.0e4
        rng = np.random.default_rng(0)
        ids, species = np.arange(1, n + 1), np.arange(n) % 2

        def frames(count):
            for f in range(count):
                yield Frame(10 * f, 10.0 * f, ids, species, rng.uniform(0.0, side, (n, 2)),
                            rng.normal(0.0, 0.01, (n, 2)))

        child = ("import re, sys\n"
                 "from gasdiff.cli import main\n"
                 "assert main(sys.argv[1:]) == 0\n"
                 "with open('/proc/self/status') as fh:\n"
                 "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read())[1])\n")
        env = {**os.environ, "PYTHONPATH": str(Path(gasdiff.__file__).parents[1])}

        def peak_mb(*argv):
            done = subprocess.run([sys.executable, "-c", child, *map(str, argv)], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            return int(done.stdout) / 1024

        peaks = {}
        for count in (2, 8):
            dump, native = tmp_path / f"{count}.dump", tmp_path / f"{count}.bin"
            write_lammps_dump(Trajectory(box_side=side), frames(count), dump)
            peaks[count] = (
                peak_mb("convert", "--in", dump, "--to", "native", "--out", native),
                peak_mb("convert", "--in", native, "--to", "lammps",
                        "--out", tmp_path / f"{count}.back.dump"))
        for two, eight in zip(peaks[2], peaks[8]):
            assert eight - two < 5.0, peaks


# Every subcommand's options as (option strings, dest, required, choices),
# after the three that all of them share.  Options that take no value (the
# store_true flags) are listed in NO_VALUE.
COMMON = [
    (("--config",), "config", False, None),
    (("--threads",), "threads", False, None),
    (("--verbose",), "verbose", False, None),
]
SURFACE = {
    "md-run": [
        (("--n-he",), "n_he", False, None),
        (("--n-ar",), "n_ar", False, None),
        (("--box",), "box", False, None),
        (("--dt",), "dt", False, None),
        (("--steps",), "steps", False, None),
        (("--stride",), "stride", False, None),
        (("--temp",), "temp", False, None),
        (("--seed",), "seed", False, None),
        (("--out",), "out", True, None),
    ],
    "fd-run": [
        (("--N",), "N", False, None),
        (("--D",), "D", False, None),
        (("--k",), "k", False, None),
        (("--steps",), "steps", False, None),
        (("--scheme",), "scheme", False, ["fe", "cn"]),
        (("--stride",), "stride", False, None),
        (("--oracle",), "oracle", False, None),
        (("--modes",), "modes", False, None),
        (("--out",), "out", True, None),
    ],
    "amp-plot": [
        (("--N",), "N", False, None),
        (("--D",), "D", False, None),
        (("--d",), "d", False, [1, 2]),
        (("--k-factors",), "k_factors", False, None),
        (("--out",), "out", True, None),
    ],
    "bin": [
        (("--traj",), "traj", True, None),
        (("--N",), "N", False, None),
        (("--species",), "species", False, ["he", "ar"]),
        (("--out",), "out", True, None),
    ],
    "fit": [
        (("--binned",), "binned", True, None),
        (("--d0",), "d0", False, None),
        (("--scale-box-cm",), "scale_box_cm", False, None),
        (("--scale-time-s",), "scale_time_s", False, None),
        (("--substeps",), "substeps", False, None),
        (("--init-from-frame0",), "init_from_frame0", False, None),
        (("--out",), "out", True, None),
    ],
    "cost-curve": [
        (("--binned",), "binned", True, None),
        (("--d-min",), "d_min", True, None),
        (("--d-max",), "d_max", True, None),
        (("--points",), "points", False, None),
        (("--scale-box-cm",), "scale_box_cm", False, None),
        (("--scale-time-s",), "scale_time_s", False, None),
        (("--substeps",), "substeps", False, None),
        (("--init-from-frame0",), "init_from_frame0", False, None),
        (("--out",), "out", True, None),
    ],
    "msd": [
        (("--traj",), "traj", True, None),
        (("--species",), "species", False, ["he", "ar"]),
        (("--t-lo",), "t_lo", False, None),
        (("--t-hi",), "t_hi", False, None),
        (("--use-3d-factor",), "use_3d_factor", False, None),
        (("--out",), "out", True, None),
    ],
    "convert": [
        (("--in",), "infile", True, None),
        (("--to",), "to", True, ["native", "lammps"]),
        (("--species-map",), "species_map", False, None),
        (("--dt",), "dt", False, None),
        (("--out",), "out", True, None),
    ],
    "heatmap": [
        (("--field",), "field", True, None),
        (("--out",), "out", True, None),
    ],
    "reproduce": [
        (("--scale",), "scale", False, ["desk", "paper"]),
        (("--seeds",), "seeds", False, None),
        (("--N",), "N", False, None),
        (("--out",), "out", True, None),
    ],
}
NO_VALUE = {"verbose", "oracle", "init_from_frame0", "use_3d_factor"}


class TestCliSurface:
    """The options, the config-file rule and the manifest keys, checked with
    each command replaced by one that records its arguments."""

    @staticmethod
    def run_recorded(monkeypatch, tmp_path, command, *args, config=None):
        seen = []
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                            lambda a: seen.append(a) or ([], []))
        argv = [command]
        for option, dest, required, choices in SURFACE[command]:
            if required:
                value = tmp_path / "out" / "o" if dest == "out" else 1
                argv += [option[0], choices[0] if choices else value]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            argv += ["--config", cfg]
        assert run_cli(*argv, *args) == 0
        return vars(seen[0])

    def test_options_match_the_pinned_table(self):
        parser = cli.build_parser()
        subparsers = parser._subparsers._group_actions[0].choices
        assert list(subparsers) == list(SURFACE)
        for command, sub in subparsers.items():
            actions = [a for a in sub._actions if a.dest != "help"]
            assert [(tuple(a.option_strings), a.dest, a.required, a.choices)
                    for a in actions] == COMMON + SURFACE[command]
            assert {a.dest for a in actions if a.nargs == 0} <= NO_VALUE

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_config_supplies_every_value_option_and_flags_win(
            self, monkeypatch, tmp_path, command):
        defaults = self.run_recorded(monkeypatch, tmp_path, command)
        for option, dest, required, choices in COMMON + SURFACE[command]:
            if required or dest in NO_VALUE or dest == "config":
                continue
            if choices:
                value, other = [c for c in choices if c != defaults[dest]][0], defaults[dest]
            else:
                value, other = 7, 3
            as_flag = self.run_recorded(monkeypatch, tmp_path, command, option[0], value)
            from_file = self.run_recorded(monkeypatch, tmp_path, command,
                                          config={dest: value})
            assert from_file[dest] == as_flag[dest] != defaults[dest], dest
            both = self.run_recorded(monkeypatch, tmp_path, command, option[0], other,
                                     config={dest: value})
            assert both[dest] == self.run_recorded(
                monkeypatch, tmp_path, command, option[0], other)[dest], dest

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_config_ignores_keys_of_options_without_a_value(
            self, monkeypatch, tmp_path, command):
        args = self.run_recorded(monkeypatch, tmp_path, command,
                                 config={dest: 1 for dest in NO_VALUE})
        assert all(args[dest] is False for dest in NO_VALUE if dest in args)

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_manifest_keys(self, monkeypatch, tmp_path, command):
        self.run_recorded(monkeypatch, tmp_path, command)
        out = tmp_path / "out" / "o"
        directory = out if command in ("fd-run", "bin", "reproduce") else out.parent
        manifest = json.loads((directory / "manifest.json").read_text())
        assert sorted(manifest) == ["command", "config", "inputs", "outputs", "seed",
                                    "version", "wall_time_s"]
        dests = {dest for _, dest, _, _ in COMMON + SURFACE[command]}
        assert set(manifest["config"]) == dests - {"config", "verbose"} | {"command"}
        assert manifest["command"] == command
