"""Applying generalizations to tables.

Two styles, matching the survey's operation taxonomy:

* **full-domain** (:func:`apply_node`) — a lattice node assigns one level per
  QI; every value of that attribute is mapped through its hierarchy at that
  level. Used by Datafly, Incognito, and the lattice searches.
* **local recoding** (:func:`apply_partition_recoding`) — each equivalence
  class gets its own representative value per QI (the minimal hierarchy node
  covering the class, or the min-max interval for numeric QIs). Used by
  Mondrian and microaggregation, which produce multidimensional regions.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..errors import HierarchyError
from .hierarchy import Hierarchy, IntervalHierarchy
from .table import Column, Table

__all__ = ["apply_node", "apply_partition_recoding", "generalized_qi_table"]

HierarchyLike = Hierarchy | IntervalHierarchy


def apply_node(
    table: Table,
    hierarchies: Mapping[str, HierarchyLike],
    attributes: Sequence[str],
    node: Sequence[int],
) -> Table:
    """Generalize ``attributes`` of ``table`` to the levels in ``node``."""
    if len(attributes) != len(node):
        raise HierarchyError("attributes and node levels must be parallel")
    new_columns = []
    for name, level in zip(attributes, node):
        hierarchy = hierarchies[name]
        new_columns.append(hierarchy.generalize_column(table.column(name), int(level)))
    return table.replace(*new_columns)


def generalized_qi_table(
    table: Table,
    hierarchies: Mapping[str, HierarchyLike],
    attributes: Sequence[str],
    node: Sequence[int],
) -> Table:
    """Like :func:`apply_node` but projected to the QIs only (hot path)."""
    return apply_node(table.select(list(attributes)), hierarchies, attributes, node)


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

    ``groups`` must partition the rows (empty groups are ignored). The
    groups are concatenated once and every per-group quantity — the
    lowest unifying level, the numeric min and max — is one
    ``reduceat`` over the concatenation; Python runs once per group or
    per distinct label, never per row.

    Returns a new table where each recoded QI is a categorical column.
    """
    n_rows = table.n_rows
    groups = [group for group in groups if len(group)]
    sizes = np.fromiter(map(len, groups), np.intp, len(groups))
    rows = np.concatenate(groups) if groups else np.empty(0, dtype=np.intp)
    covered = np.zeros(n_rows, dtype=bool)
    covered[rows] = True
    if not covered.all():
        raise HierarchyError("groups do not cover every row")
    if rows.size != n_rows:
        raise HierarchyError("groups overlap")
    starts = np.cumsum(sizes) - sizes

    new_columns: list[Column] = []
    for name, hierarchy in categorical_qis.items():
        codes = hierarchy.ground_codes(table.column(name))[rows]
        labels, label_of_group = _unifying_labels(hierarchy, codes, starts)
        new_columns.append(_group_column(name, labels, label_of_group, rows, sizes))

    fmt = f"%.{precision}g"
    for name in numeric_qis:
        values = table.values(name)[rows]
        # Agrees with values[group].min()/.max() per group, down to the sign
        # of a zero result (pinned by the signed-zero recoding test).
        lo = np.minimum.reduceat(values, starts).astype(np.float64)
        hi = np.maximum.reduceat(values, starts).astype(np.float64)
        labels = [
            fmt % a if a == b else f"[{fmt % a}-{fmt % b}]"
            for a, b in zip(lo.tolist(), hi.tolist())
        ]
        new_columns.append(_group_column(name, labels, np.arange(len(labels)), rows, sizes))

    return table.replace(*new_columns)


def _unifying_labels(
    hierarchy: Hierarchy, codes: np.ndarray, starts: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Label of the minimal hierarchy value covering each group.

    ``codes`` are ground codes with the groups laid end to end from
    ``starts``. A group unifies at the first level where its minimum and
    maximum generalized codes agree. Returns the distinct labels and, per
    group, the index of its label."""
    label_id = np.full(len(starts), -1, dtype=np.int64)
    offset = 0
    names: list = []
    for level in range(hierarchy.height + 1):
        mapped = codes if level == 0 else hierarchy.map_codes(codes, level)
        lo = np.minimum.reduceat(mapped, starts)
        hit = (label_id < 0) & (lo == np.maximum.reduceat(mapped, starts))
        label_id[hit] = offset + lo[hit]
        level_names = hierarchy.ground if level == 0 else hierarchy.labels(level)
        names.extend(level_names)
        offset += len(level_names)
    if (label_id < 0).any():  # pragma: no cover - the root unifies any group
        raise HierarchyError("hierarchy top level does not unify the domain")
    distinct, label_of_group = np.unique(label_id, return_inverse=True)
    return [str(names[i]) for i in distinct.tolist()], label_of_group


def _group_column(
    name: str,
    labels: list[str],
    label_of_group: np.ndarray,
    rows: np.ndarray,
    sizes: np.ndarray,
) -> Column:
    """Categorical column giving the rows of group ``g`` (laid end to end
    in ``rows``) the label ``labels[label_of_group[g]]``; categories are
    the sorted distinct labels."""
    categories = sorted(set(labels))
    index = {label: code for code, label in enumerate(categories)}
    code_of_label = np.array([index[label] for label in labels], dtype=np.int32)
    codes = np.empty(rows.size, dtype=np.int32)
    codes[rows] = np.repeat(code_of_label[label_of_group], sizes)
    return Column.from_codes(name, codes, categories)
