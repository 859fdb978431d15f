"""Plain concentration fields as a binned series, for the tests that fit,
bin or write synthetic data."""

from gasdiff.binning import BinnedSeries


def series_of_fields(times_fs, fields) -> BinnedSeries:
    """Wrap ``fields`` (no normalization_max) without copying their values."""
    return BinnedSeries(fields[0].grid, times_fs, [f.values for f in fields], None)
