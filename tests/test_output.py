import csv
import inspect

import numpy as np
import pytest

from heliport import output
from heliport.output import cells, write_tables


def csv_writer_oracle(path, header, columns):
    """The standard-library writer that write_tables must match byte for byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


def test_write_csv_header_row_ends_and_repr_floats(tmp_path):
    path = tmp_path / "table.csv"
    floats = np.array([np.nan, -0.0, 1e-300, 0.1 + 0.2])
    write_tables([(path, ["i", "x", "flag"], [np.arange(4), floats, np.array([1, 0, 0, 1])])])
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
    write_tables([(tmp_path / "new.csv", header, columns)])
    csv_writer_oracle(tmp_path / "oracle.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def assert_tables_match_oracle(tmp_path, tables):
    """write_tables on all tables at once, each file against the oracle."""
    write_tables([(tmp_path / f"new{i}.csv", header, columns)
                  for i, (header, columns) in enumerate(tables)])
    for i, (header, columns) in enumerate(tables):
        csv_writer_oracle(tmp_path / f"oracle{i}.csv", header, columns)
        assert ((tmp_path / f"new{i}.csv").read_bytes()
                == (tmp_path / f"oracle{i}.csv").read_bytes()), f"table {i}"


def test_tables_sharing_column_objects_match_csv_writer_bytes(tmp_path):
    # the field layout: every map shares the u and v objects, several blocks long
    u, v = np.repeat(np.linspace(-1.0, 1.0, 97), 97), np.tile(np.linspace(0.0, 3.0, 97), 97)
    assert len(u) > 2 * output.BLOCK_ROWS
    maps = [_RNG.normal(size=len(u)) * 10.0 ** _RNG.integers(-20, 20, size=len(u))
            for _ in range(4)]
    assert_tables_match_oracle(tmp_path, [(["y", "z", "intensity"], [u, v, m]) for m in maps])


def test_tables_of_unequal_lengths_match_csv_writer_bytes(tmp_path):
    # a dynamics run: a long series, short snapshots sharing site and z, and
    # an empty table; bool, int and the special float values included
    site, z = np.arange(8), _SPECIAL
    tables = [
        (["row", "value", "flag"], [np.arange(_ROWS), _BLOCKS, np.arange(_ROWS) % 7 == 0]),
        (["site", "z", "p"], [site, z, np.linspace(0.0, 1.0, 8)]),
        (["a", "b"], [np.array([]), np.array([], dtype=int)]),
        (["site", "z", "flag", "p"], [site, z, site % 2 == 0, _SPECIAL[::-1]]),
        (["t"], [np.arange(4097) * 0.1]),
    ]
    assert_tables_match_oracle(tmp_path, tables)


def test_column_twice_in_one_table_matches_csv_writer_bytes(tmp_path):
    # --dump-matrices: J and Gamma share row and col; here one table also
    # holds the same object twice
    rows, cols = np.repeat(np.arange(70), 70), np.tile(np.arange(70), 70)
    tables = [(["row", "col", "re", "im"], [rows, cols, _BLOCKS[:4900], _BLOCKS[1:4901]]),
              (["row", "col", "re", "again"], [rows, cols, _BLOCKS[:4900], rows])]
    assert_tables_match_oracle(tmp_path, tables)


def test_more_tables_than_open_files_match_csv_writer_bytes(tmp_path, monkeypatch):
    # one table at a time: a file is closed before the next one opens
    opened = []

    def counting_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        assert sum(not f.closed for f in opened) <= 1
        return fh

    monkeypatch.setattr(output, "open", counting_open, raising=False)
    shared = np.arange(5000) * 0.25
    tables = ([(["x", "y"], [shared, _BLOCKS[i:i + 5000]]) for i in range(3)]
              + [(["x"], [np.arange(n) * 0.5]) for n in (0, 4097)])
    assert_tables_match_oracle(tmp_path, tables)
    assert len(opened) == 5


def test_columns_of_unequal_length_write_the_shortest_as_csv_writer(tmp_path):
    long, short = np.arange(5000) * 0.25, _BLOCKS[:4100]
    assert_tables_match_oracle(tmp_path, [(["x", "y"], [long, short]), (["x"], [long])])


def test_output_imports_only_the_formats(fresh_python):
    import heliport.output as output

    assert "csv" not in vars(output)

    writers = {n for n, v in vars(output).items()
               if inspect.isfunction(v) and v.__module__ == output.__name__}
    assert writers == {"cells", "write_tables", "write_json"}
    loaded = fresh_python("import sys, heliport.output; "
                          "print(sorted(m for m in sys.modules if m.startswith('heliport.')), "
                          "'csv' in sys.modules)")
    assert loaded.strip() == "['heliport.output'] False"


def test_formatted_blocks_are_dropped_after_their_last_file(tmp_path):
    # twelve one-block tables sharing u and v: the writer holds one block of
    # the table it is writing (~1 MB of cells for three columns), not all
    # fourteen distinct columns (~4.5 MB)
    import tracemalloc

    u, v = _RNG.normal(size=4096), _RNG.normal(size=4096)
    tables = [(tmp_path / f"t{i}.csv", ["u", "v", "m"], [u, v, _RNG.normal(size=4096)])
              for i in range(12)]
    tracemalloc.start()
    try:
        write_tables(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_cells_columns_match_csv_writer_bytes_of_their_numbers(tmp_path):
    # the field layout over several blocks (a repeated and a tiled axis beside
    # numeric maps) and the snapshots' int site and float z
    u = _RNG.normal(size=97) * 10.0 ** _RNG.integers(-20, 20, size=97)
    v = np.append(_SPECIAL[3:], np.linspace(0.0, 3.0, 92))
    n_u, n_v = len(u), len(v)
    assert n_u * n_v > 2 * output.BLOCK_ROWS
    site, z = np.arange(8), np.linspace(-1.0, 1.0, 8)
    # (header, columns written, the numbers the oracle writes)
    tables = [(["y", "z", "intensity"],
               [np.repeat(cells(u), n_v), np.tile(cells(v), n_u), m],
               [np.repeat(u, n_v), np.tile(v, n_u), m])
              for m in (_RNG.normal(size=n_u * n_v) for _ in range(2))]
    tables.append((["site", "z", "p"], [cells(site), cells(z), _SPECIAL], [site, z, _SPECIAL]))
    write_tables([(tmp_path / f"new{i}.csv", header, columns)
                  for i, (header, columns, _) in enumerate(tables)])
    for i, (header, _, numbers) in enumerate(tables):
        csv_writer_oracle(tmp_path / f"oracle{i}.csv", header, numbers)
        assert ((tmp_path / f"new{i}.csv").read_bytes()
                == (tmp_path / f"oracle{i}.csv").read_bytes()), f"table {i}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cells_refuse_non_finite_values(bad):
    with pytest.raises(FloatingPointError):
        cells(np.array([0.5, bad, 1.0]))
