"""The columnar CSV and recoding path against its row-wise predecessors.

``read_csv``/``write_csv`` work per column and per distinct value, and
``apply_partition_recoding`` per group; ``tests/reference/rowwise_io.py``
keeps the per-cell implementations they replaced. These tests pin that
the two produce equal tables (names, kinds, categories, codes, value
dtype and bits) and equal bytes, on both reader paths: ``csv.reader`` for
text with quote characters and the direct split for quote-free text.
"""

import csv
import io
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from reference import rowwise_io as ref
from repro.algorithms import KMemberClustering, Mondrian
from repro.core import io as csv_io
from repro.core.generalize import apply_partition_recoding
from repro.core.hierarchy import Hierarchy
from repro.core.io import read_csv, write_csv
from repro.core.schema import Schema
from repro.core.table import Column, Table
from repro.data import adult_hierarchies, adult_schema, load_adult
from repro.errors import HierarchyError, SchemaError
from repro.privacy import DistinctLDiversity, KAnonymity

SPECIAL_CELLS = [
    "", " ", "a", " b ", "x,y", 'say "hi"', '"', "two\nlines", "cr\r\nlf", "lone\rcr",
    "1_000", " nan", "inf", "-inf", "1e3", "-0", "3.0", "7", " 42 ", "-2.5",
    "é", "中文", "ß ", "naïve,ok", "exactly8", "nine char", "x" * 40, "é" * 13, "a\x00",
]
TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=5,
)
CELL = st.one_of(st.sampled_from(SPECIAL_CELLS), TEXT, st.text(min_size=6, max_size=30))


def assert_tables_equal(new: Table, old: Table) -> None:
    assert new.column_names == old.column_names
    for name in old.column_names:
        a, b = new.column(name), old.column(name)
        assert a.is_categorical == b.is_categorical, name
        if b.is_categorical:
            assert a.categories == b.categories, name
            assert a.codes.dtype == b.codes.dtype, name
            assert np.array_equal(a.codes, b.codes), name
        else:
            assert a.values.dtype == b.values.dtype, name
            assert a.values.tobytes() == b.values.tobytes(), name


def _outcome(reader, path, **kwargs):
    """``("ok", table)`` or ``("error", message)`` for one read."""
    try:
        return "ok", reader(path, **kwargs)
    except SchemaError as exc:
        return "error", str(exc)


def _assert_same_read(path, **kwargs) -> Table | None:
    kind, new = _outcome(read_csv, path, **kwargs)
    old_kind, old = _outcome(ref.read_csv, path, **kwargs)
    assert kind == old_kind, (new, old)
    if kind == "error":
        if "cells, header has" in old:
            # The row-wise reader numbered data rows after dropping blank
            # lines; the columnar one reports the physical line.
            assert "cells, header has" in new
        else:
            assert new == old
        return None
    assert_tables_equal(new, old)
    return new


def _assert_same_bytes(table: Table, tmp_path, delimiter: str = ",") -> bytes:
    new_path, old_path = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(table, new_path, delimiter=delimiter)
    ref.write_csv(table, old_path, delimiter=delimiter)
    data = new_path.read_bytes()
    assert data == old_path.read_bytes()
    return data


@st.composite
def csv_texts(draw):
    """CSV text from a random cell grid: csv-quoted rows, either line
    terminator, blank lines between rows and after the last one."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 5))
    header = [draw(st.sampled_from(["c", " d", "e ", "名"])) + str(j) for j in range(n_cols)]
    terminator = draw(st.sampled_from(["\r\n", "\n"]))
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", "§"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=terminator, delimiter=delimiter)
    writer.writerow(header)
    for _ in range(n_rows):
        if draw(st.booleans()) and draw(st.booleans()):
            buffer.write(terminator)
        writer.writerow([draw(CELL) for _ in range(n_cols)])
    buffer.write(terminator * draw(st.integers(0, 2)))
    header_names = [name.strip() for name in header]
    categorical = draw(st.lists(st.sampled_from(header_names), max_size=2, unique=True))
    numeric = draw(st.lists(st.sampled_from(header_names), max_size=2, unique=True))
    return buffer.getvalue(), delimiter, categorical, numeric


def _check_read_and_write(tmp_path, case):
    text, delimiter, categorical, numeric = case
    event("quoted" if '"' in text else "plain")
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    table = _assert_same_read(
        path, categorical=categorical, numeric=numeric, delimiter=delimiter
    )
    if table is not None:
        _assert_same_bytes(table, tmp_path, delimiter)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_texts())
def test_read_and_write_match_rowwise(tmp_path, case):
    _check_read_and_write(tmp_path, case)


def _one_key(words, starts, lengths, n_words):
    return np.zeros(starts.size, dtype=np.uint64)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_texts())
def test_key_collisions_fall_back_exactly(tmp_path, case):
    """With every cell sent to one key, the plain reader's word-for-word
    check must catch the collision."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csv_io, "_cell_keys", _one_key)
        _check_read_and_write(tmp_path, case)


LISTED_CASES = {
    "plain": "a,b\n1,x\n2,y\n",
    "crlf-and-trailing-blanks": "a,b\r\n1,x\r\n\r\n2,y\r\n\r\n\r\n",
    "lone-cr": "a,b\r1,x\r2,y",
    "padded-and-empty": " a , b \n  1 ,\n,  y  \n 3 ,x\n",
    "numeric-looking": "n,m\n1_000,1e3\n nan,-0\ninf,7\n-inf,3.0\n",
    "non-ascii": "名前,ville\n山田,Zürich\nsmith,Montréal\n",
    "blank-first-line": "\na,b\n1,2\n",
    "whitespace-only-row": "a\n1\n   \n2\n",
    "quoted": 'a,b\n"x,1","say ""hi"""\n"two\nlines",plain\n',
    "quoted-crlf": 'a,b\r\n"p\r\nq",1\r\n\r\n"",2\r\n',
    "one-column-empty-cell": 'v\n""\nx\n',
}


@pytest.mark.parametrize("name", sorted(LISTED_CASES))
def test_listed_inputs_match_rowwise(tmp_path, name):
    path = tmp_path / "in.csv"
    path.write_bytes(LISTED_CASES[name].encode("utf-8"))
    table = _assert_same_read(path)
    if table is not None:
        _assert_same_bytes(table, tmp_path)


def test_both_reader_paths_are_exercised(tmp_path, monkeypatch):
    taken = []
    for split in ("_split_plain", "_split_quoted"):
        original = getattr(csv_io, split)
        monkeypatch.setattr(
            csv_io, split,
            lambda *args, _f=original, _n=split: taken.append(_n) or _f(*args),
        )
    for name in sorted(LISTED_CASES):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(LISTED_CASES[name].encode("utf-8"))
        try:
            read_csv(path)
        except SchemaError:
            pass
    assert taken.count("_split_quoted") == 3
    assert taken.count("_split_plain") == len(LISTED_CASES) - 3


def test_key_collision_takes_the_string_fallback(tmp_path, monkeypatch):
    calls = []
    original = csv_io._encode_strings
    monkeypatch.setattr(csv_io, "_encode_strings", lambda cells: calls.append(1) or original(cells))
    monkeypatch.setattr(csv_io, "_cell_keys", _one_key)
    path = tmp_path / "in.csv"
    path.write_text("a,b\nxy,1\nyx,1\n")
    table = read_csv(path)
    assert len(calls) == 1  # column a collides, column b has one value
    assert table.column("a").decode() == ["xy", "yx"]


def test_long_cell_column_takes_the_string_path(tmp_path, monkeypatch):
    """One long quote-free cell must not make every row of its column pay
    a numpy pass per 8 bytes of it."""
    word_counts = []
    original = csv_io._cell_keys
    monkeypatch.setattr(
        csv_io, "_cell_keys",
        lambda words, starts, lengths, n_words: word_counts.append(n_words)
        or original(words, starts, lengths, n_words),
    )
    rows = [f"v{i % 7},{i % 3}" for i in range(5000)]
    rows[1234] = "x" * 100_000 + ",1"
    path = tmp_path / "long.csv"
    path.write_text("a,b\n" + "\n".join(rows) + "\n")
    table = _assert_same_read(path)
    assert word_counts == [1]  # only column b is grouped with numpy
    assert table.column("a").decode()[1234] == "x" * 100_000


@pytest.mark.parametrize("delimiter", ["::", ""])
def test_delimiter_must_be_one_character(tmp_path, delimiter):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n")
    table = read_csv(path)
    for function, target in ((read_csv, path), (ref.read_csv, path)):
        with pytest.raises(TypeError, match="1-character string"):
            function(target, delimiter=delimiter)
    for function in (write_csv, ref.write_csv):
        with pytest.raises(TypeError, match="1-character string"):
            function(table, tmp_path / "out.csv", delimiter=delimiter)


NUMBERS = st.sampled_from(
    [0.0, -0.0, 1.0, 2.5, -3.0, 1e20, 1e-7, 123456789.0, math.nan, math.inf, -math.inf]
)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(1, 3))
    columns = []
    for j in range(n_cols):
        kind = draw(st.sampled_from(["categorical", "mixed", "float", "float32", "int"]))
        name = f"col{j}" if draw(st.booleans()) else f"c,{j}"
        if kind == "categorical":
            cells = draw(st.lists(CELL, min_size=n_rows, max_size=n_rows))
            columns.append(Column.categorical(name, cells))
        elif kind == "mixed":
            pool = st.sampled_from([2.0, 2.5, 7, "x", ("t", 1)])
            columns.append(Column.categorical(name, draw(st.lists(pool, min_size=n_rows, max_size=n_rows))))
        else:
            values = draw(st.lists(NUMBERS, min_size=n_rows, max_size=n_rows))
            array = np.array(values, dtype=np.float64)
            if kind == "float32":
                array = array.astype(np.float32)
            elif kind == "int":
                array = np.nan_to_num(array, posinf=9, neginf=-9).clip(-1e9, 1e9).astype(np.int64)
            columns.append(Column.numeric(name, array))
    return Table(columns)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables())
def test_write_matches_rowwise(tmp_path, table):
    _assert_same_bytes(table, tmp_path)


def test_one_column_empty_cell_written_quoted(tmp_path):
    table = Table([Column.categorical("v", ["", "x"])])
    data = _assert_same_bytes(table, tmp_path)
    assert data == b'v\r\n""\r\nx\r\n'
    assert_tables_equal(read_csv(tmp_path / "new.csv"), table)


def test_streams_match_paths(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(LISTED_CASES["quoted-crlf"].encode())
    from_path = read_csv(path)
    with open(path, newline="", encoding="utf-8") as handle:
        assert_tables_equal(read_csv(handle), from_path)
    assert_tables_equal(read_csv(io.StringIO(path.read_bytes().decode(), newline="")), from_path)
    buffer = io.StringIO(newline="")
    write_csv(from_path, buffer)
    write_csv(from_path, tmp_path / "out.csv")
    assert buffer.getvalue().encode() == (tmp_path / "out.csv").read_bytes()


# -- fixed defects --------------------------------------------------------------


def test_bom_is_not_part_of_the_first_header_name(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffzip,job\n13053,nurse\n".encode("utf-8"))
    table = read_csv(path, numeric=["zip"])
    assert table.column_names == ["zip", "job"]
    assert table.values("zip").tolist() == [13053.0]
    stream = io.StringIO("\ufeffzip,job\n13053,nurse\n", newline="")
    assert read_csv(stream).column_names == ["zip", "job"]


@pytest.mark.parametrize(
    "text, line",
    [
        ("a,b\n1,2\n\n3,4\n5\n", 5),  # a blank line before the bad row
        ('a,b\n"x\ny",2\n3,4\n5\n', 5),  # a quoted newline before it
        ('a,b\n\n"x\ny",2\n6\n', 5),  # both
        ("a,b\n1,2\n3\n", 3),
    ],
)
def test_ragged_row_reports_physical_line(tmp_path, text, line):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=rf": row {line} has 1 cells, header has 2$"):
        read_csv(path)


def test_stream_errors_name_the_stream():
    with pytest.raises(SchemaError, match=r"^<stream>: no data rows$"):
        read_csv(io.StringIO("a,b\n\n"))


# -- local recoding ---------------------------------------------------------------


ZIP = Hierarchy.from_levels(
    {
        "13053": ["1305*", "130**", "1****"],
        "13068": ["1306*", "130**", "1****"],
        "14853": ["1485*", "148**", "1****"],
        "14850": ["1485*", "148**", "1****"],
        "24850": ["2485*", "248**", "2****"],
    }
)
FLAT = Hierarchy.flat(["a", "b", "c"])


@st.composite
def partitions(draw):
    n_rows = draw(st.integers(1, 12))
    order = draw(st.permutations(list(range(n_rows))))
    cuts = sorted(draw(st.sets(st.integers(1, n_rows - 1), max_size=4))) if n_rows > 1 else []
    groups = [np.array(part, dtype=np.int64) for part in np.split(np.array(order), cuts)]
    zips = draw(st.lists(st.sampled_from(ZIP.ground), min_size=n_rows, max_size=n_rows))
    kinds = draw(st.lists(st.sampled_from(FLAT.ground), min_size=n_rows, max_size=n_rows))
    values = np.array(draw(st.lists(NUMBERS, min_size=n_rows, max_size=n_rows)))
    if draw(st.booleans()):
        values = np.nan_to_num(values, posinf=5, neginf=-5).clip(-1e9, 1e9).astype(np.int64)
    table = Table([
        # Categories are the values present, so codes need not be ground codes.
        Column.categorical("zip", zips),
        Column.categorical("kind", kinds),
        Column.numeric("age", values),
        Column.categorical("disease", ["flu"] * n_rows),
    ])
    return table, groups


@settings(max_examples=200, deadline=None)
@given(case=partitions())
def test_recoding_matches_rowwise(case):
    table, groups = case
    qis = {"zip": ZIP, "kind": FLAT}
    assert_tables_equal(
        apply_partition_recoding(table, groups, qis, ["age"]),
        _rowwise_recoding(table, groups, qis, ["age"]),
    )


def _rowwise_recoding(table, groups, categorical_qis, numeric_qis=(), precision=6):
    """The row-wise recoding, given a table whose categorical QIs are coded
    in hierarchy-ground order: it read column codes as ground codes, so it
    mislabeled any column whose categories were not the ground itself."""
    grounded = table.replace(*(
        Column.from_codes(name, hierarchy.ground_codes(table.column(name)), hierarchy.ground)
        for name, hierarchy in categorical_qis.items()
    ))
    return ref.apply_partition_recoding(grounded, groups, categorical_qis, numeric_qis, precision)


def test_recoding_labels_cover_the_published_values():
    """A column holding a subset of the hierarchy's ground values is coded
    differently from the ground; each row's label must still cover it."""
    table = Table([
        Column.categorical("c", ["a"] * 4 + ["c"] * 4),
        Column.numeric("n", [1, 2, 3, 4, 5, 6, 7, 8]),
        Column.categorical("s", list("pqpqpqpq")),
    ])
    schema = Schema.build(quasi_identifiers=["c"], numeric_quasi_identifiers=["n"], sensitive=["s"])
    release = Mondrian().anonymize(table, schema, {"c": FLAT}, [KAnonymity(2)])
    assert release.table.column("c").decode() == table.column("c").decode()


def test_recoding_signed_zero_groups():
    values = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -0.0, 0.0] * 30)
    table = Table([Column.numeric("x", values)])
    for groups in (
        [np.arange(2), np.arange(2, 210)],
        [np.arange(210)],
        [np.array([1, 0, 2]), np.arange(3, 150), np.arange(150, 210)],
    ):
        assert_tables_equal(
            apply_partition_recoding(table, groups, {}, ["x"]),
            ref.apply_partition_recoding(table, groups, {}, ["x"]),
        )


def test_recoding_rejects_bad_partitions():
    table = Table([Column.numeric("x", [1.0, 2.0, 3.0])])
    with pytest.raises(HierarchyError, match="cover"):
        apply_partition_recoding(table, [np.array([0, 1])], {}, ["x"])
    with pytest.raises(HierarchyError, match="overlap"):
        apply_partition_recoding(table, [np.array([0, 1]), np.array([1, 2])], {}, ["x"])


@pytest.mark.parametrize(
    "algorithm, n_rows",
    [
        pytest.param(lambda: Mondrian(mode="strict"), 1500, id="mondrian-strict"),
        pytest.param(lambda: Mondrian(mode="relaxed"), 1500, id="mondrian-relaxed"),
        pytest.param(lambda: KMemberClustering(4), 300, id="kmember"),
    ],
)
def test_algorithm_releases_match_rowwise_recoding(monkeypatch, algorithm, n_rows):
    import repro.algorithms.kmember as kmember_module
    import repro.algorithms.mondrian as mondrian_module

    seen = []

    def recode_both(table, groups, categorical_qis, numeric_qis=(), precision=6):
        release = apply_partition_recoding(table, groups, categorical_qis, numeric_qis, precision)
        assert_tables_equal(
            release, _rowwise_recoding(table, groups, categorical_qis, numeric_qis, precision)
        )
        seen.append(release)
        return release

    for module in (mondrian_module, kmember_module):
        monkeypatch.setattr(module, "apply_partition_recoding", recode_both)
    table = load_adult(n_rows=n_rows, seed=5)
    models = [KAnonymity(4), DistinctLDiversity(2, "occupation")]
    release = algorithm().anonymize(table, adult_schema(), adult_hierarchies(), models)
    assert seen and seen[-1] is release.table


# -- install contract -----------------------------------------------------------


def test_runs_without_scipy(tmp_path):
    """``import repro`` and a CLI run need only numpy: scipy is blocked."""
    data = tmp_path / "in.csv"
    data.write_text("zip,job,age,disease\n" + "".join(
        f"1305{i % 4},{['nurse', 'clerk'][i % 2]},{20 + i % 30},{['flu', 'hiv', 'ulcer'][i % 3]}\n"
        for i in range(60)
    ))
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["scipy"] = None
        from repro.cli import main
        # A job that requests no metrics loads neither metrics nor attacks.
        assert not {{"repro.attacks", "repro.metrics"}} & set(sys.modules)
        import repro, repro.attacks, repro.dp
        rc = main([{str(data)!r}, {str(tmp_path / "out.csv")!r}, "--qi", "zip", "--qi", "job",
                   "--numeric-qi", "age", "--sensitive", "disease", "--k", "3",
                   "--algorithm", "mondrian"])
        assert "scipy" not in {{m.split(".")[0] for m in sys.modules if sys.modules[m] is not None}}
        sys.exit(rc)
        """
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out.csv").read_text().startswith("zip,job,age,disease")


def test_closed_forms_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    from repro.attacks.uniqueness import binom_pmf_one, poisson_pmf
    from repro.dp.rdp import normal_cdf

    n = np.arange(1, 400)
    for p in (0.001, 0.05, 0.3, 0.5, 0.9, 1.0):
        assert binom_pmf_one(n, p) == pytest.approx(stats.binom.pmf(1, n, p), rel=1e-9, abs=1e-300)
    for lam in (1.0, 2.5, 17.3, 120.0):
        j = np.arange(1, max(int(lam * 6), 20))
        assert poisson_pmf(j, lam) == pytest.approx(stats.poisson.pmf(j, lam), rel=1e-9, abs=1e-300)
    for x in np.linspace(-8.0, 8.0, 161):
        assert normal_cdf(float(x)) == pytest.approx(stats.norm.cdf(x), rel=1e-9, abs=1e-300)
