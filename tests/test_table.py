"""Unit tests for the column-store table engine."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.table import Column, Table, count_by_labels, split_by_labels
from repro.errors import SchemaError


class TestColumnCategorical:
    def test_encodes_sorted_categories_by_default(self):
        col = Column.categorical("c", ["b", "a", "b"])
        assert col.categories == ("a", "b")
        assert col.codes.tolist() == [1, 0, 1]

    def test_explicit_category_order_preserved(self):
        col = Column.categorical("c", ["x", "y"], categories=["y", "x"])
        assert col.categories == ("y", "x")
        assert col.codes.tolist() == [1, 0]

    def test_value_outside_explicit_categories_raises(self):
        with pytest.raises(SchemaError, match="not in its category list"):
            Column.categorical("c", ["x", "z"], categories=["x", "y"])

    def test_from_codes_roundtrip(self):
        col = Column.from_codes("c", np.array([0, 2, 1]), ["a", "b", "c"])
        assert col.decode() == ["a", "c", "b"]

    def test_from_codes_out_of_range_raises(self):
        with pytest.raises(SchemaError, match="outside the category list"):
            Column.from_codes("c", np.array([0, 3]), ["a", "b"])

    def test_decode_returns_original_values(self):
        values = ["red", "green", "red", "blue"]
        assert Column.categorical("c", values).decode() == values

    def test_is_categorical_flag(self):
        assert Column.categorical("c", ["a"]).is_categorical
        assert not Column.numeric("n", [1.0]).is_categorical

    def test_value_counts_skips_absent_categories(self):
        col = Column.categorical("c", ["a", "a", "b"], categories=["a", "b", "c"])
        assert col.value_counts() == {"a": 2, "b": 1}

    def test_n_distinct_counts_present_values_only(self):
        col = Column.categorical("c", ["a", "a"], categories=["a", "b", "c"])
        assert col.n_distinct() == 1

    def test_take_reorders(self):
        col = Column.categorical("c", ["a", "b", "c"])
        assert col.take(np.array([2, 0])).decode() == ["c", "a"]


class TestColumnNumeric:
    def test_numeric_from_list(self):
        col = Column.numeric("n", [1, 2, 3])
        assert len(col) == 3
        assert col.values.dtype.kind in "if"

    def test_numeric_value_counts(self):
        assert Column.numeric("n", [1.0, 1.0, 2.0]).value_counts() == {1.0: 2, 2.0: 1}

    def test_numeric_take(self):
        col = Column.numeric("n", [10.0, 20.0, 30.0])
        assert col.take(np.array([1])).decode() == [20.0]


class TestTableConstruction:
    def test_mismatched_lengths_raise(self):
        with pytest.raises(SchemaError, match="mismatched lengths"):
            Table([Column.numeric("a", [1]), Column.numeric("b", [1, 2])])

    def test_duplicate_names_raise(self):
        with pytest.raises(SchemaError, match="duplicate column names"):
            Table([Column.numeric("a", [1]), Column.numeric("a", [2])])

    def test_empty_table_raises(self):
        with pytest.raises(SchemaError, match="at least one column"):
            Table([])

    def test_from_rows(self):
        table = Table.from_rows(
            [{"c": "x", "n": 1}, {"c": "y", "n": 2}], categorical=["c"], numeric=["n"]
        )
        assert table.n_rows == 2
        assert table.column("c").decode() == ["x", "y"]

    def test_from_rows_empty_raises(self):
        with pytest.raises(SchemaError):
            Table.from_rows([], categorical=["c"])

    def test_from_dict(self):
        table = Table.from_dict({"c": ["a", "b"], "n": [1, 2]}, categorical=["c"], numeric=["n"])
        assert table.column_names == ["c", "n"]


class TestTableAccessors:
    def test_unknown_column_raises_with_names(self, tiny_table):
        with pytest.raises(SchemaError, match="zipcode"):
            tiny_table.column("nope")

    def test_codes_on_numeric_raises(self, tiny_table):
        with pytest.raises(SchemaError, match="numeric, not categorical"):
            tiny_table.codes("age")

    def test_values_on_categorical_raises(self, tiny_table):
        with pytest.raises(SchemaError, match="categorical, not numeric"):
            tiny_table.values("zipcode")

    def test_contains(self, tiny_table):
        assert "age" in tiny_table
        assert "nope" not in tiny_table

    def test_iter_yields_columns(self, tiny_table):
        assert [c.name for c in tiny_table] == ["zipcode", "nationality", "disease", "age"]


class TestTableTransforms:
    def test_replace_swaps_column(self, tiny_table):
        new = Column.numeric("age", np.zeros(8))
        replaced = tiny_table.replace(new)
        assert replaced.values("age").sum() == 0
        assert tiny_table.values("age").sum() > 0  # original untouched

    def test_replace_unknown_raises(self, tiny_table):
        with pytest.raises(SchemaError, match="unknown column"):
            tiny_table.replace(Column.numeric("ghost", np.zeros(8)))

    def test_with_column_appends(self, tiny_table):
        out = tiny_table.with_column(Column.numeric("extra", np.arange(8)))
        assert "extra" in out

    def test_with_existing_column_raises(self, tiny_table):
        with pytest.raises(SchemaError, match="already exists"):
            tiny_table.with_column(Column.numeric("age", np.zeros(8)))

    def test_drop(self, tiny_table):
        out = tiny_table.drop("age", "disease")
        assert out.column_names == ["zipcode", "nationality"]

    def test_drop_unknown_raises(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.drop("ghost")

    def test_select_orders_columns(self, tiny_table):
        out = tiny_table.select(["age", "zipcode"])
        assert out.column_names == ["age", "zipcode"]

    def test_take_subsets_rows(self, tiny_table):
        out = tiny_table.take(np.array([0, 7]))
        assert out.n_rows == 2
        assert out.values("age").tolist() == [28.0, 49.0]

    def test_mask_filters(self, tiny_table):
        keep = tiny_table.values("age") > 40
        out = tiny_table.mask(keep)
        assert out.n_rows == 4

    def test_mask_wrong_length_raises(self, tiny_table):
        with pytest.raises(SchemaError, match="mask length"):
            tiny_table.mask(np.ones(3, dtype=bool))

    def test_head(self, tiny_table):
        assert tiny_table.head(3).n_rows == 3
        assert tiny_table.head(100).n_rows == 8


class TestGrouping:
    def test_group_rows_partitions_all_rows(self, tiny_table):
        groups = tiny_table.group_rows(["zipcode"])
        covered = np.sort(np.concatenate(groups))
        assert covered.tolist() == list(range(8))

    def test_group_rows_respects_equality(self, tiny_table):
        groups = tiny_table.group_rows(["zipcode", "nationality"])
        decoded_zip = tiny_table.column("zipcode").decode()
        decoded_nat = tiny_table.column("nationality").decode()
        for group in groups:
            signatures = {(decoded_zip[i], decoded_nat[i]) for i in group}
            assert len(signatures) == 1

    def test_group_signature_equal_iff_rows_equal(self, tiny_table):
        signature = tiny_table.group_signature(["zipcode", "nationality", "age"])
        rows = tiny_table.to_rows()
        for i in range(8):
            for j in range(8):
                same_values = all(
                    rows[i][name] == rows[j][name]
                    for name in ("zipcode", "nationality", "age")
                )
                assert (signature[i] == signature[j]) == same_values

    def test_group_signature_numeric_column(self, tiny_table):
        signature = tiny_table.group_signature(["age"])
        assert np.unique(signature).size == tiny_table.column("age").n_distinct()

    def test_group_signature_empty_names_raises(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.group_signature([])

    def test_group_signature_overflow_fallback(self):
        # Many moderately wide numeric columns overflow the int64 mixed-radix
        # packing (50^10 > 2^62), forcing the np.unique(axis=0) path.
        n = 50
        columns = [
            Column.numeric(f"n{i}", (np.arange(n, dtype=np.float64) * (i + 3)) % n)
            for i in range(12)
        ]
        table = Table(columns)
        names = [c.name for c in columns]
        signature = table.group_signature(names)
        # Signatures must still distinguish exactly the distinct row tuples.
        rows = list(zip(*(table.values(name) for name in names)))
        expected_groups = len(set(rows))
        assert np.unique(signature).size == expected_groups


class TestConversion:
    def test_to_rows_roundtrip(self, tiny_table):
        rows = tiny_table.to_rows()
        rebuilt = Table.from_rows(
            rows, categorical=["zipcode", "nationality", "disease"], numeric=["age"]
        )
        assert rebuilt.to_rows() == rows

    def test_repr_mentions_kinds(self, tiny_table):
        text = repr(tiny_table)
        assert "zipcode:cat" in text and "age:num" in text


class TestSplitByLabels:
    """The radix-key split and the group counts against a plain stable
    argsort + ``np.split``, for label ranges on both sides of 2**16."""

    @staticmethod
    def _reference(labels):
        order = np.argsort(labels, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(-(2**62), 2**62), max_size=60),
        span=st.sampled_from([3, 1 << 16, (1 << 16) + 1, 1 << 40]),
        dtype=st.sampled_from([np.int64, np.int32, np.uint64]),
    )
    def test_matches_reference(self, values, span, dtype):
        labels = np.array([v % span for v in values], dtype=np.int64)
        if dtype is not np.int64:
            if dtype is np.int32:
                labels = labels % (1 << 31)
            labels = labels.astype(dtype)
        expected = self._reference(labels)
        groups = split_by_labels(labels)
        assert len(groups) == len(expected)
        for got, want in zip(groups, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        sizes = count_by_labels(labels)
        assert sizes.dtype == np.int64
        assert sizes.tolist() == [g.size for g in expected]

