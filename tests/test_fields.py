import numpy as np
import pytest
from hypothesis import given, strategies as st

from gasdiff.errors import ParseError
from gasdiff.fields import (
    GridSpec,
    ScalarField,
    UnitScale,
    field_energy,
    nd_to_physical_d,
    read_field_csv,
    write_field_csv,
)

from fd_modes import field_mass


class TestGridSpec:
    def test_spacing_times_cells_is_one(self):
        for n in (2, 3, 8, 50, 128):
            grid = GridSpec(d=2, n=n)
            assert grid.h * grid.n == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GridSpec(d=3, n=8)
        with pytest.raises(ValueError):
            GridSpec(d=0, n=8)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridSpec(d=1, n=1)

    def test_cell_centers(self):
        grid = GridSpec(d=1, n=4)
        assert np.allclose(grid.cell_centers_1d(), [0.125, 0.375, 0.625, 0.875])


class TestScalarField:
    def test_shape_must_match(self):
        with pytest.raises(ValueError):
            ScalarField(GridSpec(d=2, n=4), np.zeros(4))

    def test_rejects_nonfinite(self):
        values = np.zeros((4, 4))
        values[1, 2] = np.nan
        with pytest.raises(ValueError):
            ScalarField(GridSpec(d=2, n=4), values)

    def test_values_read_only(self):
        f = ScalarField(GridSpec(d=2, n=4), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestFieldMass:
    def test_constant_field(self):
        f = ScalarField(GridSpec(d=2, n=8), np.full((8, 8), 0.7))
        assert field_mass(f) == pytest.approx(0.7, abs=1e-15)

    def test_center_block_indicator(self):
        # 4 of 16 cells set
        values = np.zeros((4, 4))
        values[1:3, 1:3] = 1.0
        f = ScalarField(GridSpec(d=2, n=4), values)
        assert field_mass(f) == pytest.approx(0.25, abs=1e-15)

    def test_zero_field(self):
        f = ScalarField(GridSpec(d=1, n=8), np.zeros(8))
        assert field_mass(f) == 0.0


class TestFieldEnergy:
    def test_zero_field(self):
        f = ScalarField(GridSpec(d=2, n=4), np.zeros((4, 4)))
        assert field_energy(f) == 0.0

    def test_single_cell(self):
        values = np.zeros((4, 4))
        values[2, 1] = 3.0
        f = ScalarField(GridSpec(d=2, n=4), values)
        assert field_energy(f) == pytest.approx(9.0, abs=1e-15)

    def test_constant_one(self):
        f = ScalarField(GridSpec(d=2, n=4), np.ones((4, 4)))
        assert field_energy(f) == pytest.approx(16.0, abs=1e-15)

    def test_zero_energy_iff_zero_field(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(6, 6))
        f = ScalarField(GridSpec(d=2, n=6), values)
        assert field_energy(f) > 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mass_and_energy_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=16)
    f = ScalarField(GridSpec(d=1, n=16), values)
    g = ScalarField(GridSpec(d=1, n=16), rng.permutation(values))
    assert field_mass(f) == pytest.approx(field_mass(g), rel=1e-12, abs=1e-15)
    assert field_energy(f) == pytest.approx(field_energy(g), rel=1e-12)


class TestUnitConversion:
    def test_zero_maps_to_zero(self):
        assert nd_to_physical_d(0.0, UnitScale()) == 0.0

    def test_default_conversion_factor(self):
        # (5e-4 cm)^2 / 1e-9 s = 250 cm^2/s per nondimensional unit
        scale = UnitScale(box_length_cm=5e-4, time_unit_s=1e-9)
        assert nd_to_physical_d(1.0, scale) == pytest.approx(250.0, rel=1e-12)

    def test_production_reference_value(self):
        scale = UnitScale()
        assert nd_to_physical_d(3.1792e-3, scale) == pytest.approx(0.7948, rel=1e-4)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            UnitScale(box_length_cm=0.0)
        with pytest.raises(ValueError):
            UnitScale(time_unit_s=-1.0)

    @given(st.floats(min_value=1e-8, max_value=1e3),
           st.floats(min_value=0.1, max_value=10.0))
    def test_linear_in_coefficient(self, d_nd, factor):
        scale = UnitScale()
        assert nd_to_physical_d(factor * d_nd, scale) == pytest.approx(
            factor * nd_to_physical_d(d_nd, scale), rel=1e-12)


class TestFieldCsv:
    def test_roundtrip_2d(self, tmp_path):
        rng = np.random.default_rng(5)
        f = ScalarField(GridSpec(d=2, n=6), rng.uniform(size=(6, 6)))
        path = tmp_path / "field.csv"
        write_field_csv(f, path, time=0.125)
        g, t = read_field_csv(path)
        assert t == 0.125
        assert g.grid == f.grid
        assert np.array_equal(g.values, f.values)

    def test_roundtrip_1d(self, tmp_path):
        f = ScalarField(GridSpec(d=1, n=5), np.arange(5.0))
        path = tmp_path / "field.csv"
        write_field_csv(f, path, time=2.0)
        g, t = read_field_csv(path)
        assert g.grid.d == 1
        assert np.array_equal(g.values, f.values)

    def test_header_format(self, tmp_path):
        f = ScalarField(GridSpec(d=2, n=3), np.zeros((3, 3)))
        path = tmp_path / "field.csv"
        write_field_csv(f, path, time=1.5)
        first = path.read_text().splitlines()[0]
        assert first == "# N=3 d=2 t=1.5"

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a header\n1,2\n")
        with pytest.raises(ParseError):
            read_field_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("# N=3 d=2 t=0.0\n1,2,3\n\n4,5,6\n7,8\n", ":5: expected 3 columns, found 2"),
        ("# N=2 d=2 t=0.0\n1,2\n3,abc\n", ":3: non-numeric field value"),
        ("# N=2 d=2 t=0.0\n\n1,2\n\n3,4,5\n", ":5: expected 2 columns, found 3"),
    ])
    def test_row_fault_names_its_own_line(self, tmp_path, text, message):
        # blank lines are skipped, but each row keeps its line number
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_field_csv(path)
        assert str(err.value) == f"{path}{message}"

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# N=3 d=2 t=0.0\n1,2,3\n4,5,6\n")
        with pytest.raises(ParseError):
            read_field_csv(path)
