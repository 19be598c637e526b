import numpy as np

import fluoinv as fv
from fluoinv import io


def test_field_csv_rows_are_the_values_joined_by_fmt(tmp_path, monkeypatch):
    # the whole-row formatting of write_field_csv gives fmt's bytes for every
    # float, the special values included, across blocks of rows
    monkeypatch.setattr(io, "FIELD_ROWS_PER_BLOCK", 3)
    grid = fv.Grid(1, 6)
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1])
    path = io.write_field_csv(tmp_path / "field.csv", grid,
                              {"u": values, "v": fv.GridFunction(grid, values[::-1])})
    rows = zip(grid.x, values, values[::-1])
    expected = ["# schema=fluoinv/nodal-field-v1", "x,u,v"]
    expected += [",".join(io.fmt(v) for v in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert [line.split(",")[1] for line in expected[2:]] == [
        "nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "10000000000000000",
        "0.10000000000000001"]
