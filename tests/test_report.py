import math

import numpy as np

from graphlse._report import format_value, from_columns, read_csv, write_csv


def pinned_format_value(v) -> str:
    """format_value as it was when rows were formatted one numpy scalar at a time."""
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


FLOATS = [0.1, 1.0 / 3.0, -2.5, math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324, 123456789.125, -1e300]
INTS = [0, -1, 7, 2**40, 3, 4, 5, 6, 8, 9, 10, 11, 12]
BOOLS = [True, False] * 6 + [True]
STRINGS = ["a", "boundary", "star-free", "x y", "", "1e16", "nan", "b", "c", "d", "e", "f", "g"]


def data_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]


def test_write_csv_text_is_pinned(tmp_path):
    arrays = (np.array(FLOATS), np.array(INTS), np.array(BOOLS), np.array(STRINGS))
    plain = (FLOATS, INTS, BOOLS, STRINGS)
    want = [",".join(pinned_format_value(v) for v in row) for row in zip(*arrays)]
    assert want == [",".join(pinned_format_value(v) for v in row) for row in zip(*plain)]
    assert want[3:7] == ["nan,1099511627776,False,x y", "inf,3,True,", "-inf,4,False,1e16", "-0.0,5,True,nan"]
    assert want[8:11] == ["1e+16,8,True,c", "1e-05,9,False,d", "5e-324,10,True,e"]
    cases = {
        "numpy-rows": zip(*arrays),
        "python-rows": zip(*plain),
        "numpy-columns": from_columns(*arrays),
        "mixed-columns": from_columns(arrays[0], INTS, arrays[2], STRINGS),
    }
    for name, rows in cases.items():
        path = tmp_path / f"{name}.csv"
        write_csv(path, ["f", "i", "b", "s"], rows, {"k": 1})
        assert data_lines(path) == want, name
    for v in (*FLOATS, *INTS, *BOOLS, *STRINGS, *np.array(FLOATS), np.float32(0.1), np.int64(-3), np.bool_(True)):
        assert format_value(v) == pinned_format_value(v)


def test_csv_floats_round_trip(tmp_path):
    x = np.array(FLOATS)
    path = tmp_path / "t.csv"
    write_csv(path, ["x"], from_columns(x))
    _, cols, rows = read_csv(path)
    assert cols == ["x"]
    back = np.array([float(r[0]) for r in rows])
    np.testing.assert_array_equal(back, x)
    assert [math.copysign(1.0, v) for v in back] == [math.copysign(1.0, v) for v in x]


def test_from_columns_text_equals_per_value_path(tmp_path):
    # a checkpoint's columns: an int edge_id and whole float columns, formatted column by column
    special = np.array([-0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5, 5e-324, 2.2e-308, 0.1])
    edge_id = np.concatenate([np.full(3, e) for e in range(3)])
    cols = (edge_id, np.linspace(0.0, 1.0, 9), special, special[::-1].copy())
    want = [",".join(map(format_value, row)) for row in zip(*cols)]
    assert list(from_columns(*cols)) == want
    assert want[1].startswith("0,0.125,nan,") and want[0].endswith(",-0.0,0.1")
    by_value, by_column = tmp_path / "values.csv", tmp_path / "columns.csv"
    write_csv(by_value, ["edge_id", "x", "re_u", "im_u"], zip(*cols))
    write_csv(by_column, ["edge_id", "x", "re_u", "im_u"], from_columns(*cols))
    assert data_lines(by_value) == data_lines(by_column) == want
