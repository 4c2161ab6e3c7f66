"""The CSV reader and writer against the per-line reader and per-cell writer they replaced."""

import math

import numpy as np
import pytest

import vesflex as vf
from vesflex.csvio import read_csv, write_csv


def oracle_read(path, header):
    """One float() per field, line by line: the reader's reference."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise vf.InputError(f"{path}: {exc}") from None
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != ",".join(header):
        raise vf.InputError(f"{path}: expected header {','.join(header)!r}")
    rows = []
    for no, line in lines[1:]:
        try:
            row = [float(f) for f in line.split(",")]
        except ValueError as exc:
            raise vf.InputError(f"{path}:{no}: {exc}") from None
        if len(row) != len(header) or not all(map(math.isfinite, row)):
            raise vf.InputError(f"{path}:{no}: expected {len(header)} finite numbers")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def oracle_write(path, header, columns):
    """One _fmt() per cell, row by row: the writer's reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(columns[0])):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308,
                  1.7976931348623157e308, 0.1, 1 / 3, 1e16, math.nan, math.inf, -math.inf]


def _floats(rng, n):
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    pick = rng.random(n) < 0.3
    x[pick] = rng.choice(SPECIAL_FLOATS, pick.sum())
    return x


def _random_columns(rng, n):
    f = _floats(rng, n)
    f32 = (rng.standard_normal(n) * 1e-3).astype(np.float32)
    i = rng.integers(-(2**62), 2**62, n)
    b = rng.random(n) < 0.5
    words = [str(w) for w in rng.choice(["t_hours", "a", "", "x y", "1e3", "-0"], n)]
    return [
        f, i, b, i.astype(np.int8), f32,
        list(f), list(i), list(b), list(f32),
        f.tolist(), i.tolist(), b.tolist(), words,
        # bools and ints share one column: both are written as %d
        [bool(v) if k % 2 else int(v) for k, v in enumerate(i.tolist())],
        [np.bool_(v) if k % 2 else np.int64(w) for k, (v, w) in enumerate(zip(b, i))],
    ]


@pytest.mark.parametrize("seed", range(6))
def test_writer_matches_per_cell_oracle(tmp_path, seed):
    rng = np.random.default_rng([seed, 14])
    for n in (0, 1, 7, 200):
        cols = _random_columns(rng, n)
        order = rng.permutation(len(cols))
        cols = [cols[k] for k in order]
        header = [f"c{k}" for k in order]
        write_csv(str(tmp_path / "new.csv"), header, cols)
        oracle_write(str(tmp_path / "old.csv"), header, cols)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_writer_single_row_of_scalars(tmp_path):
    # the capacity table: one row, each column a one-element list
    vals = [np.float64(1.0), 1.2729431632276107, np.float64(-0.0), 10.0, np.int64(3)]
    cols = [[v] for v in vals]
    write_csv(str(tmp_path / "new.csv"), list("abcde"), cols)
    oracle_write(str(tmp_path / "old.csv"), list("abcde"), cols)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_text() == "a,b,c,d,e\n1,1.2729431632276107,-0,10,3\n"


def test_writer_refuses_ragged_columns(tmp_path):
    with pytest.raises(vf.InputError, match="ragged"):
        write_csv(str(tmp_path / "r.csv"), ["a", "b"], [[1.0, 2.0], [1.0]])
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("column", [[1.0, 2], ["a", 1.0], [np.float64(1.0), np.int64(2)], [None]])
def test_writer_refuses_a_column_of_mixed_or_unknown_cell_types(tmp_path, column):
    with pytest.raises(vf.InputError, match="CSV column must be all str"):
        write_csv(str(tmp_path / "m.csv"), ["a", "b"], [[1.0] * len(column), column])
    assert not (tmp_path / "m.csv").exists()


def _field(rng, v):
    # the spellings float() takes that a hand-made file may hold
    forms = [repr(v), "%.17g" % v, "%.17E" % v, " %r " % v, "%r" % v + "\t"]
    return forms[rng.integers(len(forms))]


@pytest.mark.parametrize("seed", range(6))
def test_reader_matches_per_line_oracle(tmp_path, seed):
    rng = np.random.default_rng([seed, 41])
    header = ["t_hours", "theta_a_C", "q_d_kW"]
    for n in (0, 1, 5, 300):
        vals = [v for v in _floats(rng, 3 * n).tolist() if math.isfinite(v)]
        vals += [0.5] * (3 * n - len(vals))
        lines = [",".join(header)] + [
            ",".join(_field(rng, v) for v in vals[3 * k: 3 * k + 3]) for k in range(n)
        ]
        for k in sorted(rng.integers(0, len(lines) + 1, 3), reverse=True):
            lines.insert(int(k), rng.choice(["", "  ", "\t"]))
        end = "\r\n" if seed % 2 else "\n"
        path = tmp_path / "in.csv"
        path.write_bytes((end.join(lines) + end).encode())
        got, want = read_csv(str(path), header), oracle_read(str(path), header)
        assert got.shape == want.shape == (n, 3)
        assert got.tobytes() == want.tobytes()


BAD_CSV = {
    "empty": b"",
    "blank-only": b"\n \n",
    "wrong-header": b"time,kw\n0,1\n",
    "header-spaces": b"t_hours, ref_kw\n0,1\n",
    "not-utf8": b"t_hours,ref_kw\n0,1\n1,2 \xff\n",
    "ragged-long": b"t_hours,ref_kw\n0,1\n1,2,3\n2,3\n",
    "ragged-short": b"t_hours,ref_kw\n0,1\n\n1\n",
    "compensating-rows": b"t_hours,ref_kw\n0\n1,2,3\n",
    "word": b"t_hours,ref_kw\r\n0,1\r\n1,abc\r\n",
    "empty-field": b"t_hours,ref_kw\n0,1\n1,\n",
    "nan": b"t_hours,ref_kw\n0,1\n1,nan\n",
    "inf": b"t_hours,ref_kw\n0,-inf\n",
    "overflow": b"t_hours,ref_kw\n0,1e309\n",
    "word-after-nan": b"t_hours,ref_kw\n0,nan\n1,abc\n",
    "nan-after-word": b"t_hours,ref_kw\n0,abc\n1,nan\n",
}


@pytest.mark.parametrize("case", BAD_CSV)
def test_reader_errors_match_per_line_oracle(tmp_path, case):
    path = tmp_path / "bad.csv"
    path.write_bytes(BAD_CSV[case])
    with pytest.raises(vf.InputError) as want:
        oracle_read(str(path), ["t_hours", "ref_kw"])
    with pytest.raises(vf.InputError) as got:
        read_csv(str(path), ["t_hours", "ref_kw"])
    assert str(got.value) == str(want.value)
