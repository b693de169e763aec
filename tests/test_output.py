"""Byte-level format of the data files."""

import pytest

from nmqsim.output import write_trajectory_csv
from nmqsim.pipeline import simulate
from nmqsim.presets import default_grid, preset_params


def reference_trajectory_csv(path, result):
    """One cell at a time, each number through f"{float(v):.12g}"."""
    series = result.series
    columns = (
        result.grid.points, result.a, result.b, result.c, result.d,
        result.f.real, result.f.imag,
        series.concurrence, series.precursor, series.eof,
    )
    lines = ["t,a,b,c,d,re_f,im_f,concurrence,precursor,eof"]
    for i in range(result.grid.num_points):
        lines.append(",".join(f"{float(col[i]):.12g}" for col in columns))
    path.write_bytes("".join(line + "\n" for line in lines).encode("ascii"))


@pytest.mark.parametrize("name", ["fig3", "fig6", "fig10"])
def test_trajectory_csv_matches_cellwise_reference(tmp_path, name):
    result = simulate(preset_params(name), default_grid())
    write_trajectory_csv(tmp_path / "fast.csv", result)
    reference_trajectory_csv(tmp_path / "reference.csv", result)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_trajectory_csv_prints_no_negative_zero(tmp_path):
    # fig3's dead samples have eof 0, which "%.12g" prints as -0 if its sign bit is set
    write_trajectory_csv(tmp_path / "fig3.csv", simulate(preset_params("fig3"), default_grid()))
    fields = (tmp_path / "fig3.csv").read_text().replace("\n", ",").split(",")
    assert "-0" not in fields
