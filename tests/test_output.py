import csv
import inspect

import numpy as np
import pytest

from heliport.output import write_csv


def csv_writer_oracle(path, header, columns):
    """The standard-library writer that write_csv must match byte for byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


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


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.1 + 0.2, 1e16, -2.5])
_ROWS = 2 * 4096 + 5                    # three 4096-row blocks, the last one short
_RNG = np.random.default_rng(7)
_BLOCKS = _RNG.normal(size=_ROWS) * 10.0 ** _RNG.integers(-300, 300, size=_ROWS)


@pytest.mark.parametrize("header, columns", [
    (["i", "flag", "x", "signed"], [np.arange(8), np.arange(8) % 3 == 0, _SPECIAL,
                                    np.arange(8, dtype=np.int64) - 4]),
    (["only"], [_SPECIAL]),
    (["a", "b"], [np.array([]), np.array([], dtype=int)]),
    (["row", "value", "flag"], [np.arange(_ROWS), _BLOCKS, np.arange(_ROWS) % 7 == 0]),
], ids=["special_values", "single_column", "zero_rows", "several_blocks"])
def test_write_csv_matches_csv_writer_bytes(tmp_path, header, columns):
    write_csv(tmp_path / "new.csv", header, columns)
    csv_writer_oracle(tmp_path / "oracle.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_output_imports_only_the_formats(fresh_python):
    import heliport.output as output

    assert "csv" not in vars(output)

    writers = {n for n, v in vars(output).items()
               if inspect.isfunction(v) and v.__module__ == output.__name__}
    assert writers == {"write_csv", "write_json"}
    loaded = fresh_python("import sys, heliport.output; "
                          "print(sorted(m for m in sys.modules if m.startswith('heliport.')), "
                          "'csv' in sys.modules)")
    assert loaded.strip() == "['heliport.output'] False"
