import numpy as np
import pytest

from blockkaczmarz.matio import read_matrix, read_vector, write_matrix, write_vector


def test_matrix_roundtrip_exact(tmp_path, rng):
    a = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, size=(7, 3))
    path = tmp_path / "a.txt"
    write_matrix(a, path)
    back = read_matrix(path)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back, a)


def test_matrix_header(tmp_path, rng):
    a = rng.standard_normal((4, 2))
    path = tmp_path / "a.txt"
    write_matrix(a, path)
    assert path.read_text().splitlines()[0] == "4 2"


def test_vector_roundtrip_exact(tmp_path, rng):
    v = rng.standard_normal(11)
    path = tmp_path / "v.txt"
    write_vector(v, path)
    assert np.array_equal(read_vector(path), v)


def test_bad_matrix_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2\n")
    with pytest.raises(ValueError, match="header"):
        read_matrix(path)


def test_non_integer_matrix_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x 2\n1 2\n")
    with pytest.raises(ValueError, match=r"bad.txt: expected an integer 'n d' header, got \['x', '2'\]"):
        read_matrix(path)


def test_short_matrix_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1 2 3\n1 2\n")
    with pytest.raises(ValueError, match="entries"):
        read_matrix(path)


def test_truncated_matrix(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1 2\n3 4\n")
    with pytest.raises(ValueError, match="expected 3 rows of 2 entries, got 2 rows"):
        read_matrix(path)


@pytest.mark.parametrize("body", ["", "1 2\n\n3 4\n"])
def test_empty_or_blank_matrix_rows(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n" + body)
    with pytest.raises(ValueError, match="entries"):
        read_matrix(path)


@pytest.mark.parametrize("token", ["x", "#"])
def test_non_numeric_matrix_entry(tmp_path, token):
    path = tmp_path / "bad.txt"
    path.write_text(f"2 2\n1 2\n3 {token}\n")
    with pytest.raises(ValueError, match="could not convert"):
        read_matrix(path)


def test_bad_vector_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1\n2\n")
    with pytest.raises(ValueError, match="header"):
        read_vector(path)


def test_non_integer_vector_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2.5\n1\n2\n")
    with pytest.raises(ValueError, match=r"bad.txt: expected an integer 'n' header, got \['2.5'\]"):
        read_vector(path)


@pytest.mark.parametrize("header", ["0", "-2"])
def test_non_positive_vector_header(tmp_path, header):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\n1\n")
    with pytest.raises(ValueError, match="positive 'n' header"):
        read_vector(path)


@pytest.mark.parametrize("body", ["1\n2\n", "", "1\n\n3\n", "1\n2 3\n4\n", "1 2\n3 4\n5 6\n"])
def test_malformed_vector_lines(tmp_path, body):
    # truncated, empty, blank, and lines with more than one value
    path = tmp_path / "bad.txt"
    path.write_text("3\n" + body)
    with pytest.raises(ValueError, match="bad.txt: expected 3 values"):
        read_vector(path)


@pytest.mark.parametrize("token", ["x", "#"])
def test_non_numeric_vector_entry(tmp_path, token):
    path = tmp_path / "bad.txt"
    path.write_text(f"2\n1\n{token}\n")
    with pytest.raises(ValueError, match="expected 2 values: could not convert"):
        read_vector(path)


@pytest.mark.parametrize("trailer, first", [("5 6\n", "5"), ("foo\n", "foo"), ("\n\n5 6", "5")])
def test_data_after_matrix_rows(tmp_path, trailer, first):
    # an extra row, a trailing non-numeric line, data after blank lines
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n3 4\n" + trailer)
    with pytest.raises(ValueError, match=f"bad.txt: expected 2 rows of 2 entries, got more after them, starting '{first}'"):
        read_matrix(path)


@pytest.mark.parametrize("trailer, first", [("5\n", "5"), ("foo\n", "foo"), ("\n5", "5")])
def test_data_after_vector_values(tmp_path, trailer, first):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1\n2\n" + trailer)
    with pytest.raises(ValueError, match=f"bad.txt: expected 2 values, got more after them, starting '{first}'"):
        read_vector(path)


def test_trailing_whitespace_after_the_data_is_allowed(tmp_path):
    matrix, vector = tmp_path / "a.txt", tmp_path / "v.txt"
    matrix.write_text("2 2\n1 2\n3 4\n\n  \n")
    vector.write_text("2\n1\n2\n\n")
    assert np.array_equal(read_matrix(matrix), [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(read_vector(vector), [1.0, 2.0])
