import csv
import inspect

import numpy as np

from heliport.output import write_csv


def test_write_csv_header_row_ends_and_repr_floats(tmp_path):
    path = tmp_path / "table.csv"
    floats = np.array([np.nan, -0.0, 1e-300, 0.1 + 0.2])
    write_csv(path, ["i", "x", "flag"], [np.arange(4), floats, np.array([1, 0, 0, 1])])
    raw = path.read_bytes()
    assert raw.startswith(b"i,x,flag\r\n")
    assert raw.count(b"\r\n") == 5 and raw.endswith(b"\r\n")
    rows = list(csv.reader(raw.decode().splitlines()))
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]     # ints stay ints
    assert [r[2] for r in rows[1:]] == ["1", "0", "0", "1"]
    assert [r[1] for r in rows[1:]] == ["nan", "-0.0", "1e-300", "0.30000000000000004"]
    back = np.array([float(r[1]) for r in rows[1:]])
    assert np.isnan(back[0]) and np.signbit(back[1])
    assert np.array_equal(back[1:], floats[1:])


def test_output_imports_only_the_formats(fresh_python):
    import heliport.output as output

    writers = {n for n, v in vars(output).items()
               if inspect.isfunction(v) and v.__module__ == output.__name__}
    assert writers == {"write_csv", "write_json"}
    loaded = fresh_python("import sys, heliport.output; "
                          "print(sorted(m for m in sys.modules if m.startswith('heliport.')))")
    assert loaded.strip() == "['heliport.output']"
