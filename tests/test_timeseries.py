import numpy as np
import pytest

from gridrel.timeseries import (
    LOAD, PRODUCTION, ProfileSet, TimeSeries, TimeSeriesError, interpolate,
    read_cost_table, read_timeseries_csv, tile_to_horizon,
)


def _series(values, step=1.0, kind=LOAD):
    return TimeSeries("x", step, tuple(values), kind)


def test_identity_when_steps_match():
    s = _series([1.0, 2.0, 3.0])
    assert interpolate(s, 1.0) is s


def test_linear_refinement_hits_midpoints():
    out = interpolate(_series([1.0, 2.0]), 0.5)
    assert out.values == (1.0, 1.5, 2.0)
    assert out.step_h == 0.5


def test_refinement_preserves_endpoints():
    src = _series([3.0, 1.0, 4.0, 1.5])
    out = interpolate(src, 0.25)
    assert out.values[0] == src.values[0]
    assert out.values[-1] == src.values[-1]
    assert out.values[4] == src.values[1]  # original samples survive


def test_mean_downsampling_preserves_energy():
    src = _series([1.0] * 12)
    out = interpolate(src, 2.0)
    assert all(v == pytest.approx(1.0) for v in out.values)
    # energy = mean * covered span; equal for constant series
    assert np.mean(out.values) * 12 == pytest.approx(np.mean(src.values) * 12,
                                                     rel=1e-12)


def test_mean_downsampling_random_energy():
    rng = np.random.default_rng(8)
    values = rng.uniform(0, 2, size=24)
    src = _series(values)
    out = interpolate(src, 4.0)
    assert np.sum(out.values) * 4.0 == pytest.approx(np.sum(values) * 1.0, rel=1e-9)


def test_target_step_larger_than_span_rejected():
    with pytest.raises(TimeSeriesError):
        interpolate(_series([1.0, 2.0, 3.0]), 10.0)


def test_incommensurate_steps_rejected():
    with pytest.raises(TimeSeriesError):
        interpolate(_series([1.0, 2.0, 3.0, 4.0]), 0.7)


def test_tile_wraps_short_series(caplog):
    s = _series([1.0, 2.0, 3.0])
    out = tile_to_horizon(s, 8.0)
    assert list(out) == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "loads.csv"
    path.write_text("time_h,foo,bar\n0,1.0,5\n1,2.0,6\n2,3.0,7\n")
    series = read_timeseries_csv(path, LOAD)
    assert set(series) == {"foo", "bar"}
    assert series["foo"].values == (1.0, 2.0, 3.0)
    assert series["bar"].step_h == 1.0


def test_csv_time_unit_suffix(tmp_path):
    path = tmp_path / "loads.csv"
    path.write_text("time_min,foo\n0,1\n30,2\n60,3\n")
    series = read_timeseries_csv(path, LOAD)
    assert series["foo"].step_h == pytest.approx(0.5)


def test_csv_missing_value_positioned_error(tmp_path):
    path = tmp_path / "loads.csv"
    path.write_text("time_h,foo\n0,1\n1,\n")
    with pytest.raises(TimeSeriesError, match=r"loads\.csv:3"):
        read_timeseries_csv(path, LOAD)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_value_positioned_error(tmp_path, cell):
    path = tmp_path / "loads.csv"
    path.write_text(f"time_h,foo\n0,1\n1,{cell}\n")
    with pytest.raises(TimeSeriesError, match=r"loads\.csv:3: not a finite number"):
        read_timeseries_csv(path, LOAD)


# a comment and a blank line above the header, so that the data rows' places
# among the kept rows differ from their lines in the file
@pytest.mark.parametrize("bad_row, message", [
    ("1,x", "not a finite number: 'x'"),
    ("1", "expected 2 fields"),
])
def test_csv_error_names_the_file_line(tmp_path, bad_row, message):
    path = tmp_path / "ts.csv"
    path.write_text(f"# hourly load\n\ntime_h,foo\n0,1\n{bad_row}\n2,3\n")
    with pytest.raises(TimeSeriesError) as err:
        read_timeseries_csv(path, LOAD)
    assert str(err.value) == f"{path}:5: {message}"


def test_a_line_of_whitespace_is_blank(tmp_path):
    # the csv module reads it as one cell of spaces, not as an empty row
    path = tmp_path / "ws.csv"
    path.write_text("time_h,foo\n0,1\n1,2\n   \n")
    assert read_timeseries_csv(path, LOAD)["foo"].values == (1.0, 2.0)
    path = tmp_path / "wc.csv"
    path.write_text("category,cost\nres,1\n  \n")
    assert read_cost_table(path) == {"res": 1.0}


def test_a_row_of_empty_fields_is_not_blank(tmp_path):
    path = tmp_path / "ws.csv"
    path.write_text("time_h,foo\n0,1\n1,2\n,,\n")
    with pytest.raises(TimeSeriesError) as err:
        read_timeseries_csv(path, LOAD)
    assert str(err.value) == f"{path}:4: expected 2 fields"
    path = tmp_path / "wc.csv"
    path.write_text("category,cost\nres,1\n,,\n")
    with pytest.raises(TimeSeriesError) as err:
        read_cost_table(path)
    assert str(err.value) == f"{path}:3: bad cost value ''"


def test_csv_refuses_a_duplicate_series_at_the_header_line(tmp_path):
    path = tmp_path / "loads.csv"
    path.write_text("# hourly load\ntime_h,res, res\n0,1,2\n1,3,4\n")
    with pytest.raises(TimeSeriesError) as err:
        read_timeseries_csv(path, LOAD)
    assert str(err.value) == f"{path}:2: duplicate series 'res'"


def test_csv_non_numeric_value_is_not_a_finite_number(tmp_path):
    path = tmp_path / "loads.csv"
    path.write_text("time_h,foo\n0,1\n1,abc\n")
    with pytest.raises(TimeSeriesError) as err:
        read_timeseries_csv(path, LOAD)
    assert str(err.value) == f"{path}:3: not a finite number: 'abc'"


def test_series_built_in_code_must_be_finite():
    with pytest.raises(TimeSeriesError, match="finite"):
        _series([1.0, float("nan")])
    with pytest.raises(TimeSeriesError, match="finite"):
        _series([float("inf")], kind=PRODUCTION)


def test_csv_nonuniform_spacing_rejected(tmp_path):
    path = tmp_path / "loads.csv"
    path.write_text("time_h,foo\n0,1\n1,2\n3,3\n")
    with pytest.raises(TimeSeriesError, match="uniform"):
        read_timeseries_csv(path, LOAD)


def test_cost_table(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text("category,cost_per_mwh\nresidential,12\nindustrial,110\n")
    assert read_cost_table(path) == {"residential": 12.0, "industrial": 110.0}


def test_cost_table_rejects_non_finite_cost(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text("category,cost_per_mwh\nresidential,12\nindustrial,nan\n")
    with pytest.raises(TimeSeriesError, match=r"costs\.csv:3: bad cost value 'nan'"):
        read_cost_table(path)


def test_cost_table_refuses_a_negative_cost_at_its_file_line(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text("# costs\ncategory,cost_per_mwh\n\nresidential,0\nindustrial,-0.5\n")
    with pytest.raises(TimeSeriesError, match=r"costs\.csv:5: cost must be >= 0, got '-0.5'"):
        read_cost_table(path)
    path.write_text("category,cost_per_mwh\nresidential,0\n")
    assert read_cost_table(path) == {"residential": 0.0}


def test_cost_table_refuses_a_duplicate_category_at_its_file_line(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text("category,cost_per_mwh\nresidential,12\n\nresidential,99\n")
    with pytest.raises(TimeSeriesError) as err:
        read_cost_table(path)
    assert str(err.value) == f"{path}:4: duplicate category 'residential'"


def test_profile_set_lookup_and_mean():
    loads = {"res": _series([0.5, 1.0, 1.5, 1.0])}
    wind = {"wind": _series([0.0, 2.0, 0.0, 0.0], kind=PRODUCTION)}
    ps = ProfileSet(1.0, 8.0, loads, wind)
    assert ps.load_multiplier("res", 2) == 1.5
    assert ps.load_multiplier("res", 6) == 1.5  # wrapped
    assert ps.load_multiplier("flat", 3) == 1.0
    assert ps.load_mean("res") == pytest.approx(1.0)
    assert ps.load_mean("flat") == 1.0
    assert ps.production["wind"].tolist() == [0.0, 2.0, 0.0, 0.0] * 2
    # "flat", None and a name with no series share one read-only ones curve
    ones = ps.load_curve("flat")
    assert ps.load_curve(None) is ones and ps.load_curve("wind") is ones
    assert ones.tolist() == [1.0] * 8
    with pytest.raises(ValueError):
        ones[0] = 2.0
    assert ps.load_curve("res") is ps.load["res"]  # not copied


def test_load_multiplier_reads_the_load_curve():
    ps = ProfileSet(1.0, 8.0, {"res": _series([0.5, 1.0, 1.5, 1.0])})
    for name in ("res", "flat", "nope", None):
        curve = ps.load_curve(name)
        assert len(curve) == ps.n_increments
        assert [ps.load_multiplier(name, t) for t in range(8)] == curve.tolist()
