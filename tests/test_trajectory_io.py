import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gasdiff import trajectory_io
from gasdiff.errors import ParseError
from gasdiff.md import Species
from gasdiff.trajectory_io import (
    Frame,
    Trajectory,
    iter_lammps_dump,
    iter_native,
    parse_lammps_dump,
    read_native,
    write_lammps_dump,
    write_native,
    write_native_frames,
)
from native_bytes import MAGIC, raw_native, whole_file_native
from text_rows import lammps_rows

SPECIES_MAP = {1: Species.HE, 2: Species.AR}


def make_frame(timestep, n, rng, side=1000.0, time_per_step=5.0):
    return Frame(
        timestep=timestep,
        time_fs=timestep * time_per_step,
        ids=np.arange(1, n + 1, dtype=np.int64),
        species=rng.integers(0, 2, n),
        positions=rng.uniform(0, side, (n, 2)),
        velocities=rng.normal(0, 0.01, (n, 2)),
        energy=float(rng.normal()),
    )


def make_trajectory(n_frames=3, n=4, seed=0, side=1000.0):
    rng = np.random.default_rng(seed)
    frames = [make_frame(100 * i, n, rng, side) for i in range(n_frames)]
    return Trajectory(box_side=side, frames=frames, dt=5.0, seed=seed,
                      n_he=2, n_ar=2, has_velocities=True)


class TestTrajectoryInvariants:
    def test_timesteps_must_increase(self):
        rng = np.random.default_rng(0)
        frames = [make_frame(5, 3, rng), make_frame(5, 3, rng)]
        with pytest.raises(ValueError):
            Trajectory(box_side=100.0, frames=frames)

    def test_particle_count_must_be_constant(self):
        rng = np.random.default_rng(0)
        frames = [make_frame(0, 3, rng), make_frame(1, 4, rng)]
        with pytest.raises(ValueError):
            Trajectory(box_side=100.0, frames=frames)

    @pytest.mark.parametrize("frame, time", [(0, np.nan), (1, np.inf), (1, 0.0), (1, -5.0)])
    def test_times_must_be_finite_and_increase(self, frame, time):
        rng = np.random.default_rng(0)
        frames = [make_frame(0, 3, rng), make_frame(1, 3, rng)]
        frames[frame].time_fs = time
        with pytest.raises(ValueError, match="time"):
            Trajectory(box_side=100.0, frames=frames)


class TestNativeFormat:
    def test_roundtrip_identity(self, tmp_path):
        traj = make_trajectory()
        path = tmp_path / "traj.txt"
        write_native(traj, path)
        back = read_native(path)
        assert back.box_side == traj.box_side
        assert back.dt == traj.dt
        assert back.seed == traj.seed
        assert back.n_he == traj.n_he
        assert back.n_ar == traj.n_ar
        assert back.has_velocities == traj.has_velocities
        assert back.n_frames == traj.n_frames
        for a, b in zip(traj.frames, back.frames):
            assert a.timestep == b.timestep
            assert a.time_fs == b.time_fs
            assert a.energy == b.energy
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.species, b.species)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.velocities, b.velocities)

    def test_frames_of_many_hash_blocks_fill_the_exact_size(self, tmp_path):
        # a file is hashed in blocks; frames larger than two blocks must
        # still read back bit for bit, from a file of exactly the size that
        # its header and counts give
        n = 2 * (trajectory_io._BLOCK // trajectory_io._ROW_BYTES) + 7
        traj = make_trajectory(n_frames=2, n=n, seed=3)
        path = tmp_path / "traj.txt"
        write_native(traj, path)
        header = len(trajectory_io._header_bytes(traj))
        assert path.stat().st_size == 16 + 8 + header + 2 * (32 + 48 * n) + 48
        assert_reads_back(path, traj.frames)

    def test_empty_trajectory_roundtrips(self, tmp_path):
        traj = Trajectory(box_side=500.0, frames=[], dt=1.0, seed=9)
        path = tmp_path / "empty.txt"
        write_native(traj, path)
        back = read_native(path)
        assert back.n_frames == 0
        assert back.box_side == 500.0

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_native(make_trajectory(seed=4), a)
        write_native(make_trajectory(seed=4), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("big_id", [2**53 + 1, 2**62, -(2**62)])
    def test_large_ids_roundtrip_exactly(self, tmp_path, big_id):
        # a float64 column would read 2**53 + 1 back as 2**53
        traj = make_trajectory(n_frames=2, n=3)
        for fr in traj.frames:
            fr.ids = np.array([1, big_id, 7], dtype=np.int64)
        path = tmp_path / "traj.txt"
        write_native(traj, path)
        back = read_native(path)
        for fr in back.frames:
            assert fr.ids.dtype == np.int64
            assert fr.ids.tolist() == [1, big_id, 7]

    def test_lammps_dump_bytes_without_velocities(self, tmp_path):
        traj = make_trajectory(n_frames=1, n=2)
        traj.has_velocities = False
        fr = traj.frames[0]
        fr.positions = np.array([[0.1, 2.5], [999.0, 1e-300]])
        fr.species = np.array([0, 1])
        path = tmp_path / "t.dump"
        write_lammps_dump(traj, traj.frames, path)
        assert path.read_text().splitlines()[-3:] == [
            "ITEM: ATOMS id type x y z", "1 1 0.1 2.5 0.0", "2 2 999.0 1e-300 0.0"]


MINIMAL_DUMP = """ITEM: TIMESTEP
0
ITEM: NUMBER OF ATOMS
1
ITEM: BOX BOUNDS pp pp pp
0.0 100.0
0.0 100.0
-0.5 0.5
ITEM: ATOMS id type x y z
1 1 25.0 75.0 0.0
"""

REORDERED_DUMP = """ITEM: TIMESTEP
10
ITEM: NUMBER OF ATOMS
2
ITEM: BOX BOUNDS pp pp pp
0.0 200.0
0.0 200.0
-0.5 0.5
ITEM: ATOMS x y id type
30.0 40.0 2 2
10.0 20.0 1 1
"""

SCALED_DUMP = """ITEM: TIMESTEP
0
ITEM: NUMBER OF ATOMS
2
ITEM: BOX BOUNDS pp pp pp
0.0 400.0
0.0 400.0
-0.5 0.5
ITEM: ATOMS id type xs ys
1 1 0.25 0.5
2 2 0.75 1.0
"""

VELOCITY_DUMP = """ITEM: TIMESTEP
5
ITEM: NUMBER OF ATOMS
1
ITEM: BOX BOUNDS pp pp pp
0.0 50.0
0.0 50.0
-0.5 0.5
ITEM: ATOMS id type x y z vx vy
7 2 10.0 20.0 0.0 0.001 -0.002
"""


class TestLammpsParser:
    def test_minimal_single_atom(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP)
        traj = parse_lammps_dump(p, SPECIES_MAP)
        assert traj.n_frames == 1
        assert traj.n_particles == 1
        assert traj.box_side == 100.0
        assert traj.frames[0].species[0] == int(Species.HE)
        assert np.allclose(traj.frames[0].positions[0], [25.0, 75.0])
        assert traj.has_velocities is False

    def test_reordered_columns(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(REORDERED_DUMP)
        traj = parse_lammps_dump(p, SPECIES_MAP)
        frame = traj.frames[0]
        # rows come back sorted by id
        assert list(frame.ids) == [1, 2]
        assert np.allclose(frame.positions[0], [10.0, 20.0])
        assert np.allclose(frame.positions[1], [30.0, 40.0])
        assert frame.species[1] == int(Species.AR)

    def test_scaled_coordinates(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(SCALED_DUMP)
        traj = parse_lammps_dump(p, SPECIES_MAP)
        frame = traj.frames[0]
        assert np.allclose(frame.positions[0], [100.0, 200.0])
        # xs = 1.0 wraps to 0
        assert np.allclose(frame.positions[1], [300.0, 0.0])

    def test_velocities_read_when_present(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(VELOCITY_DUMP)
        traj = parse_lammps_dump(p, SPECIES_MAP, dt_fs=5.0)
        assert traj.has_velocities
        assert np.allclose(traj.frames[0].velocities[0], [0.001, -0.002])
        assert traj.frames[0].time_fs == 25.0

    @pytest.mark.parametrize("dt", [None, 5.0])
    @pytest.mark.parametrize("has_velocities", [True, False])
    def test_iter_yields_the_header_then_each_frame(self, tmp_path, dt, has_velocities):
        traj = replace(make_trajectory(n_frames=3, n=5, side=40.0),
                       has_velocities=has_velocities)
        p = tmp_path / "d.dump"
        write_lammps_dump(traj, traj.frames, p)
        header, *frames = iter_lammps_dump(p, SPECIES_MAP, dt_fs=dt)
        assert (header.box_side, header.dt, header.has_velocities) == (40.0, dt, has_velocities)
        assert header.frames == []
        assert_same_frames(frames, parse_lammps_dump(p, SPECIES_MAP, dt_fs=dt).frames)
        for got, written in zip(frames, traj.frames):
            assert got.time_fs == written.timestep * (dt or 1.0)
            assert got.positions.tolist() == written.positions.tolist()
            assert got.velocities.tolist() == (written.velocities.tolist() if has_velocities
                                               else np.zeros((5, 2)).tolist())

    def test_missing_number_of_atoms_section(self, tmp_path):
        text = MINIMAL_DUMP.replace("ITEM: NUMBER OF ATOMS\n1\n", "")
        p = tmp_path / "d.dump"
        p.write_text(text)
        with pytest.raises(ParseError, match="NUMBER OF ATOMS"):
            parse_lammps_dump(p, SPECIES_MAP)

    def test_truncated_atom_rows(self, tmp_path):
        text = MINIMAL_DUMP.replace("1\n", "3\n", 1)  # claims 3 atoms, has 1
        p = tmp_path / "d.dump"
        p.write_text(text)
        with pytest.raises(ParseError, match="truncated"):
            parse_lammps_dump(p, SPECIES_MAP)

    def test_unknown_column_layout(self, tmp_path):
        text = MINIMAL_DUMP.replace("id type x y z", "id mol q")
        p = tmp_path / "d.dump"
        p.write_text(text.replace("1 1 25.0 75.0 0.0", "1 0 0.0"))
        with pytest.raises(ParseError, match="column layout"):
            parse_lammps_dump(p, SPECIES_MAP)

    def test_unmapped_type_id(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP.replace("1 1 25.0", "1 9 25.0"))
        with pytest.raises(ParseError, match="type 9"):
            parse_lammps_dump(p, SPECIES_MAP)

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP.replace("25.0", "banana"))
        with pytest.raises(ParseError, match="banana"):
            parse_lammps_dump(p, SPECIES_MAP)

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP.replace("25.0", "banana"))
        with pytest.raises(ParseError) as err:
            parse_lammps_dump(p, SPECIES_MAP)
        assert err.value.line == 10

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ab \n\r\x0b\x0c\x1c\x85\u2028", max_size=60))
    def test_lines_split_like_splitlines(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("lines") / "t.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            want = fh.read().splitlines()
        with open(path, encoding="utf-8") as fh:
            assert list(trajectory_io._lines(fh)) == want


SQUARE_BOUNDS = "ITEM: BOX BOUNDS pp pp pp\n0.0 100.0\n0.0 100.0\n-0.5 0.5\n"


class TestLammpsBoxAndTime:
    """Boxes and time axes the model cannot use are ParseErrors naming
    their line; MINIMAL_DUMP's bounds are lines 5-8, and a second copy of
    it starts at line 11."""

    def test_y_is_measured_from_its_own_origin(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP.replace("0.0 100.0\n0.0 100.0", "0.0 100.0\n-50.0 50.0")
                     .replace("25.0 75.0", "25.0 -40.0"))
        assert parse_lammps_dump(p, SPECIES_MAP).frames[0].positions.tolist() == [[25.0, 10.0]]

    def test_y_extent_within_1e_12_of_x_is_square(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP.replace("0.0 100.0\n0.0 100.0",
                                          "0.0 100.0\n0.0 100.00000000000001"))
        traj = parse_lammps_dump(p, SPECIES_MAP)
        assert traj.box_side == 100.0
        assert traj.frames[0].positions.tolist() == [[25.0, 75.0]]

    @pytest.mark.parametrize("flags, bounds, line, message", [
        ("pp pp pp", "0.0 100.0\n0.0 200.0", 7,
         "box must be square: x extent 100.0, y extent 200.0"),
        ("pp pp pp", "0.0 100.0\n0.0 100.000001", 7, "box must be square"),
        ("pp pp pp", "0.0 100.0\n0.0 nan", 7, "box must be square"),
        ("xy xz yz pp pp pp", "0.0 100.0 5.0\n0.0 100.0 0.0", 5,
         "only an orthogonal box is supported"),
        ("abc origin pp pp pp", "100.0 0.0 0.0 0.0\n0.0 100.0 0.0 0.0", 5,
         "only an orthogonal box is supported"),
    ])
    def test_box_the_model_cannot_use(self, tmp_path, flags, bounds, line, message):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP.replace(
            SQUARE_BOUNDS, f"ITEM: BOX BOUNDS {flags}\n{bounds}\n-0.5 0.5\n"))
        with pytest.raises(ParseError, match=message) as err:
            parse_lammps_dump(p, SPECIES_MAP)
        assert err.value.line == line

    @pytest.mark.parametrize("new, line", [("0.0 300.0\n0.0 300.0", 16),
                                           ("0.0 100.0\n5.0 105.0", 17),
                                           ("1.0 101.0\n0.0 100.0", 16)])
    def test_box_that_changes_between_frames(self, tmp_path, new, line):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP + MINIMAL_DUMP.replace("TIMESTEP\n0\n", "TIMESTEP\n10\n")
                     .replace("0.0 100.0\n0.0 100.0", new).replace("25.0", "250.0"))
        with pytest.raises(ParseError, match="differ from frame 0's") as err:
            parse_lammps_dump(p, SPECIES_MAP)
        assert err.value.line == line

    @pytest.mark.parametrize("steps, dt, message", [
        ((0, 0), None, "frame timesteps must be strictly increasing"),
        ((10, 5), None, "frame timesteps must be strictly increasing"),
        ((2**62 - 1, 2**62), None,
         "frame at timestep 4611686018427387904 has time 4.611686018427388e+18 fs, "
         "not after 4.611686018427388e+18"),
        ((0, 10), 1e308, "frame at timestep 10 has a non-finite time inf"),
    ])
    def test_frames_out_of_order_name_their_timestep_line(self, tmp_path, steps, dt, message):
        p = tmp_path / "d.dump"
        p.write_text("".join(MINIMAL_DUMP.replace("TIMESTEP\n0\n", f"TIMESTEP\n{t}\n")
                             for t in steps))
        with pytest.raises(ParseError) as err:
            parse_lammps_dump(p, SPECIES_MAP, dt_fs=dt)
        assert (err.value.line, str(err.value)) == (12, f"{p}:12: {message}")

    def test_particle_count_change_names_the_timestep_line(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP + REORDERED_DUMP.replace("0.0 200.0", "0.0 100.0"))
        with pytest.raises(ParseError) as err:
            parse_lammps_dump(p, SPECIES_MAP)
        assert (err.value.line, str(err.value)) == (
            12, f"{p}:12: frame at timestep 10 has 2 particles, expected 1")

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -5.0, 0.0])
    def test_dt_outside_zero_to_inf(self, tmp_path, dt):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            parse_lammps_dump(p, SPECIES_MAP, dt_fs=dt)

    def test_each_frame_is_parsed_once(self, tmp_path, monkeypatch):
        columns = ["id", "type", "x", "y", "z"]
        good = dump_text(3, 0.0, 100.0, columns,
                         ["1 1 5.0 5.0 0.0", "2 2 5.0 5.0 0.0", "3 1 6.0 5.0 0.0"])
        # an unmapped type (line 23) before a bad field (line 24)
        bad = dump_text(3, 0.0, 100.0, columns,
                        ["1 1 5.0 5.0 0.0", "2 9 5.0 5.0 0.0", "3 1 banana 5.0 0.0"])
        calls, parse = [], trajectory_io._parse_rows
        monkeypatch.setattr(trajectory_io, "_parse_rows",
                            lambda *args: calls.append(1) or parse(*args))
        p = tmp_path / "d.dump"
        p.write_text(good + good.replace("TIMESTEP\n0\n", "TIMESTEP\n10\n"))
        assert parse_lammps_dump(p, SPECIES_MAP).n_frames == 2
        assert len(calls) == 2
        p.write_text(good + bad.replace("TIMESTEP\n0\n", "TIMESTEP\n10\n"))
        with pytest.raises(ParseError, match="atom type 9 not in species map") as err:
            parse_lammps_dump(p, SPECIES_MAP)
        assert (err.value.line, len(calls)) == (23, 4)


class TestLammpsColumnLayout:
    """Frame 0's ATOMS columns are the dump's layout; a later frame that
    lists other columns is a ParseError naming its ATOMS line, line 19 of
    two copies of MINIMAL_DUMP."""

    @pytest.mark.parametrize("columns, row", [
        ("type id x y z", "1 1 25.0 75.0 0.0"),
        ("id type x y z q", "1 1 25.0 75.0 0.0 7"),
        ("id type xs ys z", "1 1 0.25 0.75 0.0"),
        ("id type x y z vx vy", "1 1 25.0 75.0 0.0 0.5 -0.5"),
    ])
    def test_later_frame_with_other_columns(self, tmp_path, columns, row):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP + MINIMAL_DUMP.replace("TIMESTEP\n0\n", "TIMESTEP\n10\n")
                     .replace("id type x y z\n1 1 25.0 75.0 0.0", f"{columns}\n{row}"))
        with pytest.raises(ParseError) as err:
            parse_lammps_dump(p, SPECIES_MAP)
        assert (err.value.line, str(err.value)) == (
            19, f"{p}:19: ATOMS columns {columns.split()!r} differ from frame 0's "
            "['id', 'type', 'x', 'y', 'z']")

    def test_same_columns_with_other_spacing(self, tmp_path):
        p = tmp_path / "d.dump"
        p.write_text(MINIMAL_DUMP + MINIMAL_DUMP.replace("TIMESTEP\n0\n", "TIMESTEP\n10\n")
                     .replace("ITEM: ATOMS id type x y z", "ITEM: ATOMS  id\ttype x  y z "))
        traj = parse_lammps_dump(p, SPECIES_MAP)
        assert [fr.positions.tolist() for fr in traj.frames] == [[[25.0, 75.0]]] * 2
        assert traj.has_velocities is False


class TestDumpRoundTrip:
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture],
              deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=4))
    def test_write_then_parse_recovers_fields(self, tmp_path, seed, n, n_frames):
        traj = make_trajectory(n_frames=n_frames, n=n, seed=seed)
        path = tmp_path / f"rt_{seed}_{n}_{n_frames}.dump"
        write_lammps_dump(traj, traj.frames, path)
        back = parse_lammps_dump(path, SPECIES_MAP, dt_fs=5.0)
        assert back.n_frames == traj.n_frames
        assert back.box_side == traj.box_side
        for a, b in zip(traj.frames, back.frames):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.species, b.species)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.velocities, b.velocities)

    def test_parse_holds_one_frame_of_lines(self, tmp_path):
        import tracemalloc

        def peak_beyond_frames(n_frames):
            path = tmp_path / f"{n_frames}.dump"
            traj = make_trajectory(n_frames=n_frames, n=2000)
            write_lammps_dump(traj, traj.frames, path)
            tracemalloc.start()
            try:
                traj = parse_lammps_dump(path, SPECIES_MAP)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert traj.n_frames == n_frames
            return peak - held

        # the 20-frame text is 3.6 MB
        small, large = peak_beyond_frames(2), peak_beyond_frames(20)
        assert large < 1.2 * small, (small, large)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=600))
    def test_parser_never_crashes_on_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "f.dump"
        path.write_bytes(data)
        try:
            parse_lammps_dump(path, SPECIES_MAP)
        except ParseError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ITEM: TIMESTEPNUMBROFAS\n 0123456789.xyid", max_size=400))
    def test_parser_never_crashes_on_dumplike_text(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "f.dump"
        path.write_text(text)
        try:
            parse_lammps_dump(path, SPECIES_MAP)
        except ParseError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=400), st.booleans())
    def test_binary_reader_never_crashes(self, tmp_path_factory, data, valid_head):
        # random bytes after the magic, or after a whole header
        path = tmp_path_factory.mktemp("fuzz") / "f.txt"
        head = trajectory_io._MAGIC
        if valid_head:
            text = trajectory_io._header_bytes(make_trajectory())
            head += trajectory_io._LENGTH.pack(len(text)) + text
        path.write_bytes(head + data)
        try:
            read_native(path)
        except ParseError:
            pass


# Tokens for the generated row blocks: ones each parser accepts, and faults.
INT_TOKENS = st.one_of(st.integers(-(2**62), 2**62).map(str),
                       st.sampled_from(["+7", "007", "-0", "1_000"]))
FLOAT_TOKENS = st.one_of(st.floats().map(repr),
                         st.sampled_from(["nan", "-inf", "1e400", "+.5", "1_0.5", "5", "-0"]))
BAD_INTS = ["3.0", "banana", "1e3", str(2**62 + 1), str(-(2**62) - 1), str(2**63), str(2**70)]
BAD_FLOATS = ["banana", "1.0.0", "0x10", "1e", "--1"]
JUNK = st.sampled_from(["0.0", "junk", "nan", "1e999", "--", "Xe"])


@st.composite
def row_block(draw, columns, good, bad):
    """Rows of tokens for ``columns`` (``good[c]`` draws a token of column
    ``c``, ``bad[c]`` lists its faults; a column without faults is never
    parsed), then up to 3 faults: a bad token, a dropped or an extra token.
    Returns the rows and each row's number of faults."""
    rows = [[draw(good[c]) for c in columns] for _ in range(draw(st.integers(0, 6)))]
    faults = [0] * len(rows)
    parsed = [k for k, c in enumerate(columns) if bad.get(c)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        r = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["token", "drop", "extra"]))
        if edit == "token" and len(rows[r]) == len(columns):
            k = draw(st.sampled_from(parsed))
            rows[r][k] = draw(st.sampled_from(bad[columns[k]]))
        elif edit == "drop" and len(rows[r]) > 1:
            del rows[r][draw(st.integers(0, len(rows[r]) - 1))]
        else:
            rows[r].append("0")
        faults[r] += 1
    return [" ".join(row) for row in rows], faults


def assert_same_parse(read, oracle, faults, first_line):
    """``read()`` and ``oracle()`` give bit-identical arrays, or errors on
    the same line, with the same message when that row has one fault."""
    try:
        want = oracle()
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            read()
        assert got.value.line == err.line
        if faults[err.line - first_line] == 1:
            assert str(got.value) == str(err)
        return
    got = read()
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


def dump_text(n, lo, hi, columns, rows):
    """One LAMMPS dump frame; its first atom row is line 10."""
    return (f"ITEM: TIMESTEP\n0\nITEM: NUMBER OF ATOMS\n{n}\nITEM: BOX BOUNDS pp pp pp\n"
            f"{lo!r} {hi!r}\n{lo!r} {hi!r}\n-0.5 0.5\nITEM: ATOMS {' '.join(columns)}\n"
            + "".join(f"{row}\n" for row in rows))


def parsed_dump_frame(path):
    fr = parse_lammps_dump(path, SPECIES_MAP).frames[0]
    return fr.ids, fr.species, fr.positions, fr.velocities


class TestRowParser:
    """The column parser against the row-by-row reference in
    ``text_rows``, on generated LAMMPS row blocks, converted in one block
    of rows and in blocks of two."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lammps_rows_match_the_row_parser(self, tmp_path_factory, data):
        self.check_lammps(tmp_path_factory, data)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lammps_rows_in_blocks_match_the_row_parser(self, tmp_path_factory, data):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(trajectory_io, "_ROW_BLOCK", 2)
            self.check_lammps(tmp_path_factory, data)

    @staticmethod
    def check_lammps(tmp_path_factory, data):
        names = (["id", "type"] + data.draw(st.sampled_from([["x", "y"], ["xs", "ys"]]))
                 + data.draw(st.sampled_from([[], ["z"], ["z", "q"]]))
                 + data.draw(st.sampled_from([[], ["vx", "vy"], ["vx"]])))
        columns = data.draw(st.permutations(names))
        parsed = {"id", "type", "x", "y", "xs", "ys"} | (
            {"vx", "vy"} if "vy" in names else set())
        good = {c: JUNK for c in columns}
        good.update(id=INT_TOKENS, type=st.sampled_from(["1", "2", "01", "+2"]))
        good.update({c: FLOAT_TOKENS for c in ("x", "y", "xs", "ys", "vx", "vy")
                     if c in parsed})
        bad = {"id": BAD_INTS, "type": ["9", "0", "banana", "1.0"]}
        bad.update({c: BAD_FLOATS for c in ("x", "y", "xs", "ys", "vx", "vy") if c in parsed})
        rows, faults = data.draw(row_block(columns, good, bad))
        lo = data.draw(st.floats(-1e4, 1e4))
        hi = lo + data.draw(st.floats(1.0, 1e5))
        path = tmp_path_factory.mktemp("dump") / "d.dump"
        path.write_text(dump_text(len(rows), lo, hi, columns, rows))
        lines = path.read_text().splitlines()
        assert_same_parse(lambda: parsed_dump_frame(path),
                          lambda: lammps_rows(lines, 9, len(rows), columns, lo, hi - lo,
                                              SPECIES_MAP, path),
                          faults, 10)

    @pytest.mark.parametrize("good_rows", [0, 1])
    def test_unmapped_type_before_a_bad_field_names_the_earlier_line(self, tmp_path,
                                                                      good_rows):
        rows = ["1 1 5.0 5.0 0.0"] * good_rows + ["2 9 5.0 5.0 0.0", "3 1 banana 5.0 0.0"]
        path = tmp_path / "d.dump"
        path.write_text(dump_text(len(rows), 0.0, 100.0, ["id", "type", "x", "y", "z"], rows))
        with pytest.raises(ParseError) as err:
            parse_lammps_dump(path, SPECIES_MAP)
        line = 10 + good_rows
        assert (err.value.line, str(err.value)) == (
            line, f"{path}:{line}: atom type 9 not in species map")

    def test_scaled_dump_with_an_offset_box_unsorted_ids_and_junk_z(self, tmp_path):
        columns = ["type", "xs", "id", "z", "ys", "vx", "vy"]
        rows = ["2 0.5 3 junk 0.25 0.5 -0.5", "1 0.75 1 nan 1.0 0.0 1e-300",
                "1 -0.25 2 -- -0.0 2.5 -0.0"]
        path = tmp_path / "d.dump"
        path.write_text(dump_text(3, -50.0, 150.0, columns, rows))
        ids, species, positions, velocities = parsed_dump_frame(path)
        assert ids.tolist() == [1, 2, 3]
        assert species.tolist() == [int(Species.HE), int(Species.HE), int(Species.AR)]
        # scaled coordinates times the side (200), wrapped into [0, 200)
        assert positions.tolist() == [[150.0, 0.0], [150.0, 0.0], [100.0, 50.0]]
        assert velocities.tolist() == [[0.0, 1e-300], [2.5, -0.0], [0.5, -0.5]]
        lines = path.read_text().splitlines()
        assert_same_parse(lambda: (ids, species, positions, velocities),
                          lambda: lammps_rows(lines, 9, 3, columns, -50.0, 200.0,
                                              SPECIES_MAP, path), [0] * 3, 10)


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        # repr, so that a NaN time or energy compares equal to itself
        assert (repr((a.timestep, a.time_fs, a.energy))
                == repr((b.timestep, b.time_fs, b.energy)))
        for x, y in ((a.ids, b.ids), (a.species, b.species),
                     (a.positions, b.positions), (a.velocities, b.velocities)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def assert_reads_back(path, frames):
    """The frames of the native trajectory at ``path``, after checking that
    iter_native, read_native and the whole-file reference in
    ``native_bytes`` all read ``frames`` from it, bit for bit, that
    iter_native yields a frameless header first, and that each array
    iter_native yields is its own."""
    header, *got = iter_native(path)
    assert isinstance(header, Trajectory) and header.frames == []
    assert_same_frames(got, frames)
    assert_same_frames(read_native(path).frames, frames)
    assert_same_frames([Frame(*record) for record in whole_file_native(path)[1]], frames)
    for fr in got:
        for a in (fr.ids, fr.species, fr.positions, fr.velocities):
            assert a.flags.owndata and a.flags.c_contiguous and a.flags.writeable
    return got


def recorded_writes(monkeypatch):
    """A list that gets each frame handed to write_native_frames, through
    any module's name for it, as the frame is written."""
    from gasdiff import cli, pipeline

    got, write = [], trajectory_io.write_native_frames

    def recording(header, frames, path):
        write(header, (got.append(fr) or fr for fr in frames), path)

    for module in (trajectory_io, cli, pipeline):
        monkeypatch.setattr(module, "write_native_frames", recording)
    return got


def flip(at):
    """A damage that flips the lowest bit of byte ``at`` (from the end when
    negative)."""
    def damage(data):
        k = at % len(data)
        return data[:k] + bytes([data[k] ^ 1]) + data[k + 1:]
    return damage


RECORD = 32 + 48 * 4  # a frame of 4 particles
#: where the header text and the frames of make_trajectory(seed=5) start
HEADER = trajectory_io._header_bytes(make_trajectory(seed=5))
FRAMES = 16 + 8 + len(HEADER)
BINARY_DAMAGE = {
    "empty": lambda data: b"",
    "cut to the magic": lambda data: data[:16],
    "cut one byte": lambda data: data[:-1],
    "cut one frame": lambda data: data[:FRAMES + RECORD] + data[FRAMES + 2 * RECORD:],
    "extra byte": lambda data: data + b"\0",
    "flip the header length": flip(16),
    "flip a digit of the box": flip(16 + 8 + HEADER.index(b"#box 1000.0") + 5),
    "flip a timestep": flip(FRAMES + RECORD),
    "flip a position": flip(FRAMES + 32 + 16 * 4),
    "flip an id": flip(FRAMES + RECORD + 32),
    "flip a species code": flip(FRAMES + 2 * RECORD + 32 + 8 * 4),
    "flip the particle count": flip(-48),
    "flip the frame count": flip(-40),
    "flip the digest": flip(-1),
}


class TestBinaryTrajectory:
    def test_md_run_reads_back_the_frames_it_wrote(self, tmp_path, monkeypatch):
        from gasdiff.cli import main

        written = recorded_writes(monkeypatch)
        outs = [tmp_path / name / "traj.bin" for name in ("a", "b")]
        for out in outs:
            assert main(["md-run", "--n-he", "30", "--n-ar", "30", "--box", "1500.0",
                         "--steps", "100", "--stride", "10", "--seed", "3",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes().startswith(MAGIC)
        assert len(written) == 22
        frames = assert_reads_back(outs[0], written[:11])
        assert all(fr.energy is not None for fr in frames)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert sorted(p.name for p in outs[0].parent.iterdir()) == ["manifest.json",
                                                                     "traj.bin"]

    def test_reproduce_reads_back_the_frames_it_wrote(self, tmp_path, monkeypatch):
        from gasdiff.pipeline import Preset, run_reproduce

        written = recorded_writes(monkeypatch)
        preset = Preset(name="tiny", n_he=40, n_ar=40, box_side=1500.0, dt=5.0,
                        n_steps=120, sample_stride=20, temperature=300.0,
                        n_values=(4,), d0_nd=0.05, init_from_frame0=True)
        run_reproduce(preset, seeds=[2], out_dir=tmp_path)
        seed_dir = tmp_path / "seed_2"
        assert [p.name for p in seed_dir.iterdir() if p.is_file()] == ["trajectory.bin"]
        assert len(written) == 7
        assert_reads_back(seed_dir / "trajectory.bin", written)

    def test_desk_run_reads_back_as_written(self, tmp_path):
        from gasdiff import md
        from gasdiff.pipeline import DESK

        # the desk preset's particles and box, shortened to 2000 steps
        cfg = replace(DESK.md_config(seed=1), sample_stride=100)
        traj = md.run(cfg, md.SimBox(side=DESK.box_side), 2000)
        path = tmp_path / "desk.bin"
        write_native(traj, path)
        assert len(assert_reads_back(path, traj.frames)) == 21
        header = next(iter_native(path))
        assert header.frames == []
        assert (header.box_side, header.dt, header.seed, header.n_he, header.n_ar) == (
            DESK.box_side, DESK.dt, 1, DESK.n_he, DESK.n_ar)

    def test_converted_dump_without_velocities_or_energy(self, tmp_path, monkeypatch):
        from gasdiff.cli import main

        written = recorded_writes(monkeypatch)
        dump, out = tmp_path / "d.dump", tmp_path / "traj.bin"
        dump.write_text(REORDERED_DUMP + REORDERED_DUMP.replace("10\n", "20\n", 1))
        assert main(["convert", "--in", str(dump), "--to", "native",
                     "--dt", "5.0", "--out", str(out)]) == 0
        assert out.read_bytes().startswith(MAGIC)
        assert next(iter_native(out)).has_velocities is False
        frames = assert_reads_back(out, written)
        assert [fr.energy for fr in frames] == [None, None]
        assert [fr.timestep for fr in frames] == [10, 20]

    def test_written_trajectory_with_edge_values(self, tmp_path):
        traj = make_trajectory(n_frames=3, n=5, seed=8)
        traj.has_velocities = False
        traj.frames[0].energy = None
        traj.frames[1].ids[2] = -(2**62)
        traj.frames[1].ids[3] = 2**62
        traj.frames[1].velocities[0] = [np.nan, -np.inf]
        traj.frames[2].positions[1] = [-0.0, 5e-324]
        traj.frames[2].velocities[:] = 0.0
        traj.frames[2].velocities[4] = [-0.0, 1.7976931348623157e308]
        path = tmp_path / "traj.txt"
        write_native(traj, path)
        assert_reads_back(path, traj.frames)

    def test_binary_keeps_what_the_text_format_could_not(self, tmp_path):
        # values the text writer could not give back bit for bit, or its
        # reader refused
        traj = make_trajectory(n_frames=3, n=4, seed=6)
        traj.frames[0].energy = float("nan")
        traj.frames[1].positions[2, 0] = np.nan
        traj.frames[1].velocities[3] = [-np.inf, np.float64(np.nan) * -1.0]
        traj.frames[2].ids[1] = 2**63 - 1
        traj.frames[2].timestep = 2**62 + 1
        path = tmp_path / "traj.txt"
        write_native(traj, path)
        assert_same_frames(read_native(path).frames, traj.frames)
        assert_same_frames(list(iter_native(path))[1:], traj.frames)

    def test_empty_trajectory_and_empty_frames(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_native(Trajectory(box_side=10.0), path)
        assert assert_reads_back(path, []) == []
        traj = make_trajectory(n_frames=2, n=0)
        write_native(traj, path)
        assert len(assert_reads_back(path, traj.frames)) == 2

    @pytest.mark.parametrize("damage", sorted(BINARY_DAMAGE))
    def test_damaged_binary_is_a_parse_error_before_any_frame(self, tmp_path, damage):
        path = tmp_path / "traj.txt"
        write_native(make_trajectory(n_frames=3, n=4, seed=5), path)
        data = path.read_bytes()
        assert len(data) == FRAMES + 3 * RECORD + 48
        path.write_bytes(BINARY_DAMAGE[damage](data))
        with pytest.raises(ParseError):
            next(iter_native(path))
        with pytest.raises(ParseError):
            read_native(path)

    @pytest.mark.parametrize("case, bad, message", [
        ("timestep repeats", 1, "frame timesteps must be strictly increasing"),
        ("nan time", 1, "frame at timestep 100 has a non-finite time nan"),
        ("inf time", 1, "frame at timestep 100 has a non-finite time inf"),
        ("nan time in the first frame", 0, "frame at timestep 0 has a non-finite time nan"),
        ("time repeats", 2, "frame at timestep 200 has time 500.0 fs, not after 500.0"),
        ("time decreases", 2, "frame at timestep 200 has time -1.0 fs, not after 500.0"),
        ("species code 7", 1, "frame at timestep 100 has a species code other than He's or Ar's"),
    ])
    def test_reader_refuses_a_frame_the_writer_refuses(self, tmp_path, case, bad, message):
        # a file the writer would not write, with a trailer that fits: the
        # frames before the bad one are read, then it is a ParseError
        frames = make_trajectory(n_frames=3, n=4, seed=5).frames
        if case == "timestep repeats":
            frames[1].timestep = frames[0].timestep
        elif case == "species code 7":
            frames[1].species[2] = 7
        else:
            frames[bad].time_fs = {"nan time": np.nan, "inf time": np.inf,
                                   "nan time in the first frame": np.nan,
                                   "time repeats": 500.0, "time decreases": -1.0}[case]
        path = tmp_path / "traj.bin"
        raw_native(path, "#gasdiff-trajectory 2\n#box 1000.0\n", frames)
        read = iter_native(path)
        assert next(read).box_side == 1000.0
        assert_same_frames([next(read) for _ in range(bad)], frames[:bad])
        with pytest.raises(ParseError) as err:
            next(read)
        assert (err.value.line, str(err.value)) == (None, f"{path}: {message}")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}: {message}") + "$"):
            read_native(path)

    @pytest.mark.parametrize("case", ["repeated timestep", "particle count changes",
                                      "float timestep", "float32 positions",
                                      "positions of 3 columns", "species code 7",
                                      "line break in units", "nan time", "time decreases"])
    def test_writer_refuses_a_frame_the_reader_refuses(self, tmp_path, case):
        traj = make_trajectory(n_frames=3, n=4, seed=6)
        frames = traj.frames
        if case == "repeated timestep":
            frames[2].timestep = frames[1].timestep
        elif case == "particle count changes":
            frames[1] = make_frame(100, 5, np.random.default_rng(1))
        elif case == "float timestep":
            frames[1].timestep = 100.0
        elif case == "float32 positions":
            frames[0].positions = frames[0].positions.astype(np.float32)
        elif case == "positions of 3 columns":
            frames[2].positions = np.zeros((4, 3))
        elif case == "species code 7":
            frames[1].species[2] = 7
        elif case == "nan time":
            frames[1].time_fs = float("nan")
        elif case == "time decreases":
            frames[2].time_fs = frames[1].time_fs - 1.0
        else:
            traj.units = "real\x0bFRAME 0 0.0"
        path = tmp_path / "traj.txt"
        write_native(make_trajectory(), path)  # an older file, left as it was
        old = path.read_bytes()
        with pytest.raises(ValueError):
            write_native_frames(traj, frames, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.txt"]
        assert path.read_bytes() == old

    def test_frames_raising_leaves_no_files(self, tmp_path):
        def frames():
            yield from make_trajectory().frames
            raise RuntimeError("run failed")

        with pytest.raises(RuntimeError):
            write_native_frames(make_trajectory(), frames(), tmp_path / "traj.txt")
        assert list(tmp_path.iterdir()) == []

    def test_frames_raising_removes_the_directories_it_made_that_are_empty(self, tmp_path):
        def frames():
            yield from make_trajectory().frames
            (tmp_path / "a" / "other.txt").write_text("made while the run wrote")
            raise RuntimeError("run failed")

        with pytest.raises(RuntimeError, match="run failed"):
            write_native_frames(make_trajectory(), frames(), tmp_path / "a" / "b" / "t.bin")
        assert [p.relative_to(tmp_path).as_posix()
                for p in sorted(tmp_path.rglob("*"))] == ["a", "a/other.txt"]

    def test_binary_changed_while_read_is_an_error(self, tmp_path):
        path = tmp_path / "traj.txt"
        # frames larger than the file buffer, so the next one is read anew
        write_native(make_trajectory(n_frames=3, n=500), path)
        frames = iter_native(path)
        next(frames), next(frames)  # the header and frame 0
        path.write_bytes(b"")
        with pytest.raises(ParseError, match="changed while it was read"):
            next(frames)

    def test_binary_read_holds_one_frame(self, tmp_path):
        import tracemalloc

        n, n_frames = 1000, 200
        rng = np.random.default_rng(0)
        frame = make_frame(0, n, rng)
        path = tmp_path / "traj.txt"
        write_native_frames(make_trajectory(), (replace(frame, timestep=k, time_fs=5.0 * k)
                                                for k in range(n_frames)), path)
        tracemalloc.start()
        try:
            count = sum(isinstance(fr, Frame) for fr in iter_native(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == n_frames
        # the hash block plus a frame, against 9.6 MB for all of them
        assert peak < trajectory_io._BLOCK + 4 * 48 * n


GOOD_HEADER = "#gasdiff-trajectory 2\n#box 100.0\n#dt 5.0\n#has_velocities 1\n"


def assert_refused(path, message):
    """read_native and iter_native's first ``next`` each raise ParseError
    ``path: message``, with no line, before any frame is read."""
    def header(p):
        return next(iter_native(p))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(trajectory_io, "_binary_frame", None)  # a frame read would fail
        for read in (read_native, header):
            with pytest.raises(ParseError) as err:
                read(path)
            assert (err.value.line, str(err.value)) == (None, f"{path}: {message}")


class TestBinaryHeader:
    """A header the model cannot use is a ParseError that names the file;
    a binary file has no lines, so it names none."""

    @pytest.mark.parametrize("line, bad", [("#box 100.0", "wide"), ("#dt 5.0", "soon")])
    def test_bad_header_value_is_a_parse_error_without_a_line(self, tmp_path, line, bad):
        path = tmp_path / "bad.bin"
        raw_native(path, GOOD_HEADER.replace(line, f"{line.split()[0]} {bad}"))
        assert_refused(path, f"non-numeric field {bad!r}")

    @pytest.mark.parametrize("box", ["-1.0", "0.0", "nan", "inf"])
    def test_box_side_outside_zero_to_inf_is_a_parse_error(self, tmp_path, box):
        path = tmp_path / "bad.bin"
        raw_native(path, GOOD_HEADER.replace("#box 100.0", f"#box {box}"),
                   make_trajectory(n_frames=1).frames)
        assert_refused(path, f"box side must be positive and finite, got {float(box)!r}")

    @pytest.mark.parametrize("header, message", [
        ("", "missing '#gasdiff-trajectory' signature"),
        (GOOD_HEADER.replace("#gasdiff-trajectory 2\n", ""),
         "missing '#gasdiff-trajectory' signature"),
        (GOOD_HEADER.replace("#dt 5.0", "#dt"), "malformed header line"),
        (GOOD_HEADER.replace("#dt 5.0", "dt 5.0"), "malformed header line"),
        (GOOD_HEADER.replace("#dt 5.0", ""), "malformed header line"),
        (GOOD_HEADER.replace("#box 100.0\n", ""), "header is missing the box side"),
        (GOOD_HEADER.replace("#dt 5.0", "#n_he 2.5"), "non-integer field '2.5'"),
    ])
    def test_malformed_header_is_a_parse_error(self, tmp_path, header, message):
        path = tmp_path / "bad.bin"
        raw_native(path, header)
        assert_refused(path, message)

    def test_good_header_reads_its_fields(self, tmp_path):
        path = tmp_path / "good.bin"
        raw_native(path, GOOD_HEADER + "#units metal\n#n_he 2\n#n_ar 3\n#seed 9\n")
        header = next(iter_native(path))
        assert (header.box_side, header.dt, header.units, header.n_he, header.n_ar,
                header.seed, header.has_velocities, header.frames) == (
            100.0, 5.0, "metal", 2, 3, 9, True, [])


NOT_BINARY_MESSAGE = ("not a native binary trajectory "
                      "(text trajectories, format 1, are no longer read)")
NOT_BINARY = {
    "format 1 text": (b"#gasdiff-trajectory 1\n#box 100.0\n#has_velocities 1\n"
                      b"FRAME 0 0.0\n1 He 1.0 1.0 0.0 0.0\n2 Ar 2.0 2.0 0.0 0.0\n"),
    "empty": b"",
    "the magic cut short": MAGIC[:-1],
    "random bytes": np.random.default_rng(0).integers(0, 256, 400, np.uint8).tobytes(),
}


class TestOnlyBinaryIsRead:
    """A file that does not start with the binary magic is refused before
    its first frame, whatever follows."""

    @pytest.mark.parametrize("case", sorted(NOT_BINARY))
    def test_file_without_the_magic_is_a_parse_error(self, tmp_path, case):
        path = tmp_path / "traj.txt"
        path.write_bytes(NOT_BINARY[case])
        assert_refused(path, NOT_BINARY_MESSAGE)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=400).filter(lambda data: not data.startswith(MAGIC)))
    def test_any_other_leading_bytes_are_a_parse_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "f"
        path.write_bytes(data)
        assert_refused(path, NOT_BINARY_MESSAGE)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch):
    """A list that gets an entry each time ``os.fork`` is called."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def md_blow_up_frames(monkeypatch):
    """iter_frames of a small run whose 25th step raises InstabilityError,
    after frames 0, 10 and 20 were made."""
    from gasdiff import md
    from gasdiff.errors import InstabilityError

    step, calls = md.verlet_step, []

    def failing_step(*args):
        calls.append(1)
        if len(calls) == 25:
            raise InstabilityError("particle 3 reached 2 A/fs")
        return step(*args)

    monkeypatch.setattr(md, "verlet_step", failing_step)
    cfg, box = md.MDConfig(n_he=20, n_ar=20, sample_stride=10), md.SimBox(side=1000.0)
    return md.trajectory_header(cfg, box), md.iter_frames(cfg, box, 100)


class TestInProcessWriter:
    def test_success_forks_nothing(self, tmp_path, monkeypatch):
        forks = counting_forks(monkeypatch)
        write_native(make_trajectory(), tmp_path / "traj.txt")
        assert forks == []
        assert_no_child_left()

    @pytest.mark.parametrize("case", ["species 7", "frames raise", "md blows up"])
    def test_failure_leaves_no_files_and_no_child(self, tmp_path, monkeypatch, case):
        forks = counting_forks(monkeypatch)
        header = make_trajectory()
        if case == "species 7":  # refused before the frame is written
            frames, error = make_trajectory().frames, ValueError
            message = "^frame at timestep 100 has a species code other than He's or Ar's$"
            frames[1].species[2] = 7
        elif case == "frames raise":
            def raising():
                yield from make_trajectory().frames[:2]
                raise ValueError("run failed")

            frames, error, message = raising(), ValueError, "^run failed$"
        else:
            from gasdiff.errors import InstabilityError

            (header, frames), error = md_blow_up_frames(monkeypatch), InstabilityError
            message = "^particle 3 reached 2 A/fs$"
        with pytest.raises(error, match=message):
            write_native_frames(header, frames, tmp_path / "traj.txt")
        assert forks == []
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["md-run", "reproduce", "convert"])
    def test_commands_that_write_a_trajectory_fork_nothing(self, tmp_path, monkeypatch,
                                                           command):
        from gasdiff import pipeline
        from gasdiff.cli import main

        forks = counting_forks(monkeypatch)
        if command == "md-run":
            argv = ["md-run", "--n-he", "30", "--n-ar", "30", "--box", "1500.0",
                    "--steps", "100", "--stride", "10", "--out", str(tmp_path / "t.txt")]
        elif command == "reproduce":
            monkeypatch.setitem(pipeline.PRESETS, "desk", pipeline.Preset(
                name="tiny", n_he=40, n_ar=40, box_side=1500.0, dt=5.0, n_steps=120,
                sample_stride=20, temperature=300.0, n_values=(4,), d0_nd=0.05,
                init_from_frame0=True))
            argv = ["reproduce", "--seeds", "1", "--out", str(tmp_path / "out")]
        else:
            dump = tmp_path / "d.dump"
            dump.write_text(REORDERED_DUMP)
            argv = ["convert", "--in", str(dump), "--to", "native",
                    "--out", str(tmp_path / "t.txt")]
        assert main(argv) == 0
        assert forks == []
        assert_no_child_left()
