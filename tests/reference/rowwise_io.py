"""Row-wise CSV I/O and local recoding: parity oracles for the columnar path.

These are the implementations ``repro.core.io.read_csv``/``write_csv`` and
``repro.core.generalize.apply_partition_recoding`` replaced, kept verbatim:
per-cell ``csv.reader``/``csv.writer`` loops and a per-group object-array
scatter re-encoded through ``Column.categorical``. They exist only so the
differential tests can check that the columnar code produces equal tables
and equal bytes; nothing in ``src`` imports them. The recoding reads a
column's codes as hierarchy ground codes, so callers hand it tables coded
in ground order (the columnar version translates codes itself).
"""

from __future__ import annotations

import csv
import os
from typing import Mapping, Sequence

import numpy as np

from repro.core.hierarchy import Hierarchy
from repro.core.table import Column, Table
from repro.errors import HierarchyError, SchemaError

__all__ = ["read_csv", "write_csv", "apply_partition_recoding"]


def read_csv(
    path: str | os.PathLike,
    categorical: Sequence[str] = (),
    numeric: Sequence[str] = (),
    delimiter: str = ",",
) -> Table:
    """Load a CSV with a header row into a :class:`Table`.

    Columns named in ``categorical``/``numeric`` are typed accordingly;
    every other column is numeric if all its values parse as floats, else
    categorical. Values are stripped of surrounding whitespace.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = [[cell.strip() for cell in row] for row in reader if row]
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: row {i + 2} has {len(row)} cells, header has {len(header)}"
            )

    columns: list[Column] = []
    by_name = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    declared = set(categorical) | set(numeric)
    unknown = declared - set(header)
    if unknown:
        raise SchemaError(f"declared columns {sorted(unknown)} not in CSV header {header}")
    for name in header:
        values = by_name[name]
        if name in categorical:
            columns.append(Column.categorical(name, values))
        elif name in numeric:
            columns.append(Column.numeric(name, [_parse_number(name, v) for v in values]))
        elif all(_is_number(v) for v in values):
            columns.append(Column.numeric(name, [float(v) for v in values]))
        else:
            columns.append(Column.categorical(name, values))
    return Table(columns)


def write_csv(table: Table, path: str | os.PathLike, delimiter: str = ",") -> None:
    """Write a table (decoded values) to a CSV file with a header row."""
    decoded = {name: table.column(name).decode() for name in table.column_names}
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(table.column_names)
        for i in range(table.n_rows):
            writer.writerow([_render(decoded[name][i]) for name in table.column_names])


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _parse_number(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SchemaError(f"column {name!r}: {text!r} is not numeric") from None


def _render(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def apply_partition_recoding(
    table: Table,
    groups: Sequence[np.ndarray],
    categorical_qis: Mapping[str, Hierarchy],
    numeric_qis: Sequence[str] = (),
    precision: int = 6,
) -> Table:
    """Local recoding: give each group a shared representative per QI.

    * Categorical QIs: the lowest hierarchy level at which the group's values
      collapse to a single generalized value; the group is recoded to that
      value's label.
    * Numeric QIs: the group's ``[min-max]`` interval label (point values stay
      numeric-looking strings only when min == max).

    Returns a new table where each recoded QI is a categorical column.
    """
    n_rows = table.n_rows
    covered = np.zeros(n_rows, dtype=bool)
    for group in groups:
        covered[group] = True
    if not covered.all():
        raise HierarchyError("groups do not cover every row")

    new_columns: list[Column] = []
    for name, hierarchy in categorical_qis.items():
        codes = table.codes(name)
        out = np.empty(n_rows, dtype=object)
        for group in groups:
            # Vectorized scatter: one label assignment per group, not per row.
            out[group] = _categorical_group_label(hierarchy, codes[group])
        new_columns.append(Column.categorical(name, out.tolist()))

    fmt = f"%.{precision}g"
    for name in numeric_qis:
        values = table.values(name)
        out = np.empty(n_rows, dtype=object)
        for group in groups:
            lo, hi = float(values[group].min()), float(values[group].max())
            out[group] = fmt % lo if lo == hi else f"[{fmt % lo}-{fmt % hi}]"
        new_columns.append(Column.categorical(name, out.tolist()))

    return table.replace(*new_columns)


def _categorical_group_label(hierarchy: Hierarchy, group_codes: np.ndarray) -> str:
    """Label of the minimal hierarchy value covering all codes in the group."""
    distinct = np.unique(group_codes)
    if distinct.size == 1:
        return str(hierarchy.ground[int(distinct[0])])
    for level in range(1, hierarchy.height + 1):
        mapped = np.unique(hierarchy.map_codes(distinct, level))
        if mapped.size == 1:
            return str(hierarchy.labels(level)[int(mapped[0])])
    raise HierarchyError("hierarchy top level does not unify the domain")  # pragma: no cover
