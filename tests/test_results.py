"""The result files, byte for byte, from a report set built by hand."""

from gridrel.indices import IndexReport, IterationIndices, Stats
from gridrel.results import write_load_points, write_results

REPORTS = [
    IterationIndices(ens_mwh=12.5, cens=1 / 3, saifi=2.0, saidi=7.0, caidi=3.5,
                     lambda_i={}, u_i={}),
    # no interruption: CAIDI is undefined
    IterationIndices(ens_mwh=0.0, cens=0.0, saifi=0.0, saidi=0.0, caidi=None,
                     lambda_i={}, u_i={}),
    IterationIndices(ens_mwh=12345678901.5, cens=1e-12, saifi=0.125, saidi=2 / 3,
                     caidi=16 / 3, lambda_i={}, u_i={}),
]
SUMMARY = IndexReport(
    iterations=3,
    ens=Stats(4115226304.666667, 7127553893.0, 1.25, 12.5, 11111110981.2),
    cens=Stats(1 / 9, 0.19245008972987526, 1e-13, 1e-12, 0.3),
    saifi=Stats(0.7083333333333334, 1.1273124382023252, 0.0125, 0.125, 1.8125),
    saidi=Stats(2.5555555555555554, 3.8873012632302, 0.06666666666666667,
                0.6666666666666666, 6.366666666666666),
    caidi=None,
    caidi_of_means=None,
    load_points={"B01": (0.5, 2.0, 4.0), "B02": (0.0, 0.0, None)},
    system_average=(0.25, 1.0, 4.0),
)
METADATA = {"master_seed": 7, "scenario": None, "increment_h": 0.25,
            "modeling_assumptions": {"b": "second", "a": "first"}}

EXPECTED = {
    "iterations.csv": (
        "iteration,ens_mwh,cens,saifi,saidi,caidi\n"
        "0,12.5,0.3333333333,2,7,3.5\n"
        "1,0,0,0,0,\n"
        "2,1.23456789e+10,1e-12,0.125,0.6666666667,5.333333333\n"),
    "summary.csv": (
        "index,mean,std,p5,p50,p95\n"
        "ens_mwh,4115226305,7127553893,1.25,12.5,1.111111098e+10\n"
        "cens,0.1111111111,0.1924500897,1e-13,1e-12,0.3\n"
        "saifi,0.7083333333,1.127312438,0.0125,0.125,1.8125\n"
        "saidi,2.555555556,3.887301263,0.06666666667,0.6666666667,6.366666667\n"
        "caidi,,,,,\n"
        "caidi_of_means,,,,,\n"),
    "load_points.csv": (
        "load_point,lambda_per_year,outage_hours_per_year,r_hours\n"
        "B01,0.5,2,4\n"
        "B02,0,0,\n"
        "system_average,0.25,1,4\n"),
    "run_metadata.json": (
        '{\n'
        '  "increment_h": 0.25,\n'
        '  "master_seed": 7,\n'
        '  "modeling_assumptions": {\n'
        '    "a": "first",\n'
        '    "b": "second"\n'
        '  },\n'
        '  "scenario": null\n'
        '}\n'),
}


def test_write_results_writes_each_file_byte_for_byte(tmp_path):
    out = tmp_path / "out"
    written = write_results(out, REPORTS, SUMMARY, METADATA)
    assert written == [str(out / name) for name in EXPECTED]
    for name, text in EXPECTED.items():
        assert (out / name).read_bytes() == text.encode(), name


def test_write_load_points_writes_the_analytical_table_byte_for_byte(tmp_path):
    path = tmp_path / "analytical.csv"
    write_load_points(path, [("VB2", 0.1, 1 / 3, 10 / 3), ("VB3", 0.0, 0.0, None),
                             ("VB4", 2.5e-7, 1e16, 4e22)])
    assert path.read_bytes() == (
        b"load_point,lambda_per_year,outage_hours_per_year,r_hours\n"
        b"VB2,0.1,0.3333333333,3.333333333\n"
        b"VB3,0,0,\n"
        b"VB4,2.5e-07,1e+16,4e+22\n")
