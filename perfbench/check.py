"""Independent check of published releases.

Re-checks k-anonymity and distinct l-diversity with a plain ``Counter``
group-by over the published quasi-identifier values, read from the CSV
bytes exactly as a recipient reads them. It imports nothing from ``repro``,
so a defect in the engines cannot hide itself here.
"""

from __future__ import annotations

import csv
import io
from collections import Counter, defaultdict


def check_release(data: bytes, qis, sensitive: str, k: int, l: int,
                  max_rows: int) -> list[str]:
    """Problems found in one release published as CSV bytes (empty when
    it holds)."""
    rows = csv.reader(io.StringIO(data.decode()))
    try:
        header = next(rows)
    except StopIteration:
        return ["release is empty"]
    missing = [name for name in list(qis) + [sensitive] if name not in header]
    if missing:
        return [f"release lacks columns {missing}"]
    qi_index = [header.index(name) for name in qis]
    s_index = header.index(sensitive)
    sizes: Counter = Counter()
    values: dict = defaultdict(set)
    count = 0
    for row in rows:
        count += 1
        key = tuple(row[i] for i in qi_index)
        sizes[key] += 1
        values[key].add(row[s_index])
    problems = []
    if count == 0:
        problems.append("release has no rows")
    if count > max_rows:
        problems.append(f"release has {count} rows, input had {max_rows}")
    small = sum(1 for size in sizes.values() if size < k)
    if small:
        problems.append(f"{small} of {len(sizes)} groups smaller than k={k}")
    narrow = sum(1 for seen in values.values() if len(seen) < l)
    if narrow:
        problems.append(f"{narrow} of {len(values)} groups with fewer than l={l} "
                        f"distinct {sensitive} values")
    return problems
