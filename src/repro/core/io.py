"""CSV import/export for tables.

Minimal, dependency-free CSV round-tripping so the CLI (and downstream
users without pandas) can anonymize real files:

* :func:`read_csv` — header-based load with optional explicit column kinds;
  unspecified columns are sniffed (all-numeric → numeric, else categorical).
* :func:`write_csv` — writes decoded values.

Both work per column and per distinct value, never per cell in Python.
The reader dictionary-encodes each column and strips, parses and sniffs
each distinct raw string once; the writer renders each category (or
distinct numeric value) once and gathers the rendered strings by code.
``csv.reader`` still parses any input that contains a quote character.
Quote-free input is split with numpy on its UTF-8 bytes instead, which
reads the same cells without making a Python string per cell (see
``docs/architecture.md``, "CSV and recoding").
"""

from __future__ import annotations

import csv
import io
import os
from typing import IO, Sequence

import numpy as np

from ..errors import SchemaError
from .table import Column, Table

__all__ = ["read_csv", "write_csv"]

_QUOTE = '"'
# Cells up to this many 64-bit words long are grouped with numpy. Its
# passes cost rows x words, so a column with a longer cell is decoded and
# dict-encoded instead, at a cost that follows its bytes; on 100k-row
# columns the dict is the faster of the two from about 128-byte cells on.
_MAX_WORDS = 8
_BYTE_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)
_MIX_LENGTH = np.uint64(0x9E3779B97F4A7C15)
_MIX_WORD = np.uint64(0xBF58476D1CE4E5B9)


def read_csv(
    source: str | os.PathLike | IO[str],
    categorical: Sequence[str] = (),
    numeric: Sequence[str] = (),
    delimiter: str = ",",
) -> Table:
    """Load a CSV with a header row into a :class:`Table`.

    ``source`` is a path (decoded as UTF-8, a leading byte-order mark
    dropped) or an open text stream; a stream should be opened with
    ``newline=""`` so quoted line breaks survive. Columns named in
    ``categorical``/``numeric`` are typed accordingly; every other column
    is numeric if all its values parse as floats, else categorical.
    Values are stripped of surrounding whitespace. ``delimiter`` must be
    one character, as for ``csv``.
    """
    _check_delimiter(delimiter)
    if hasattr(source, "read"):
        label = getattr(source, "name", "<stream>")
        text = source.read()  # type: ignore[union-attr]
        if text.startswith("\ufeff"):
            text = text[1:]
    else:
        label = source
        with open(source, newline="", encoding="utf-8-sig") as handle:  # type: ignore[arg-type]
            text = handle.read()
    if not text:
        raise SchemaError(f"{label}: empty file")
    if _QUOTE in text:
        header, column_cells = _split_quoted(text, delimiter, label)
    else:
        header, column_cells = _split_plain(text, delimiter, label)
    del text

    declared = set(categorical) | set(numeric)
    unknown = declared - set(header)
    if unknown:
        raise SchemaError(f"declared columns {sorted(unknown)} not in CSV header {header}")
    columns = [
        _encode_column(name, column_cells(j), categorical, numeric)
        for j, name in enumerate(header)
    ]
    return Table(columns)


def write_csv(table: Table, target: str | os.PathLike | IO[str], delimiter: str = ",") -> None:
    """Write a table (decoded values) as CSV with a header row.

    ``target`` is a path (written as UTF-8) or an open text stream. The
    bytes are those of ``csv.writer`` with its default dialect, one
    ``_render``-ed string per cell.
    """
    _check_delimiter(delimiter)
    names = table.column_names
    single = len(names) == 1
    header = delimiter.join(_quote(str(name), delimiter, single) for name in names)
    cells = [_rendered_cells(table.column(name), delimiter, single) for name in names]
    lines = [header]
    if table.n_rows:
        lines.append("\r\n".join(map(delimiter.join, zip(*cells))))
    lines.append("")
    text = "\r\n".join(lines)
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
        return
    with open(target, "w", newline="", encoding="utf-8") as handle:  # type: ignore[arg-type]
        handle.write(text)


def _check_delimiter(delimiter) -> None:
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise TypeError('"delimiter" must be a 1-character string')


# -- reading -------------------------------------------------------------------


def _split_plain(text: str, delimiter: str, label):
    """Split quote-free CSV text without making a string per cell.

    Lines end at ``\\r\\n``, ``\\r`` or ``\\n`` (as ``csv.reader`` over a
    ``newline=""`` file sees them) and cells at the delimiter; both are
    found with numpy on the UTF-8 bytes. Returns ``(header, column)``
    where ``column(j)`` is ``(distinct, raw_codes)`` for column ``j``: its
    distinct raw strings in first-appearance order and, per row, the
    index of its string."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    data = text.encode("utf-8")
    del text
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    line_starts = np.concatenate(([0], newlines + 1))
    line_ends = np.append(newlines, buf.size)
    header_line = data[: line_ends[0]].decode("utf-8")
    header = [name.strip() for name in header_line.split(delimiter)] if header_line else []
    lines = np.flatnonzero(line_ends[1:] > line_starts[1:]) + 1  # non-blank data lines
    if not lines.size:
        raise SchemaError(f"{label}: no data rows")
    starts, ends = line_starts[lines], line_ends[lines]

    sep = delimiter.encode("utf-8")
    seps = _find_all(buf, sep)
    first_sep = np.searchsorted(seps, starts)
    counts = np.searchsorted(seps, ends) - first_sep
    width = len(header)
    ragged = np.flatnonzero(counts != width - 1)
    if ragged.size:
        i = int(ragged[0])
        _raise_ragged(label, int(lines[i]) + 1, int(counts[i]) + 1, width)
    cell_seps = seps[first_sep[0]:][: lines.size * (width - 1)].reshape(lines.size, width - 1)
    cell_starts = np.empty((lines.size, width), dtype=np.int64)
    cell_starts[:, 0] = starts
    cell_starts[:, 1:] = cell_seps + len(sep)
    cell_lengths = np.empty_like(cell_starts)
    cell_lengths[:, :-1] = cell_seps - cell_starts[:, :-1]
    cell_lengths[:, -1] = ends - cell_starts[:, -1]
    # An unaligned little-endian uint64 view starting at every byte; eight
    # zero bytes of padding let the last cell's word be read whole.
    padded = np.concatenate((buf, np.zeros(8, dtype=np.uint8)))
    words = np.ndarray((buf.size + 1,), dtype="<u8", buffer=padded, strides=(1,))

    def column(j: int):
        return _encode_cells(data, words, cell_starts[:, j], cell_lengths[:, j])

    return header, column


def _find_all(buf: np.ndarray, pattern: bytes) -> np.ndarray:
    """Start offsets of ``pattern`` in ``buf``. UTF-8 is self-synchronizing,
    so a match of an encoded character is always a whole character."""
    hits = buf[: buf.size - len(pattern) + 1] == pattern[0]
    for k in range(1, len(pattern)):
        hits &= buf[k : buf.size - len(pattern) + 1 + k] == pattern[k]
    return np.flatnonzero(hits)


def _encode_cells(data: bytes, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Dictionary-encode one column given as byte ranges of ``data``.

    A cell is read as little-endian 64-bit words (``words`` is an unaligned
    view of the bytes; the bytes past a cell's end are masked off) and the
    words are mixed into one 64-bit key per cell. Rows are grouped by
    sorting the keys, then every row is checked word for word against its
    group's first row, so the grouping is exact. A key collision, or a
    cell longer than ``_MAX_WORDS`` words, sends the column to a dict
    over decoded strings instead."""
    n_words = -(-int(lengths.max()) // 8)
    if n_words > _MAX_WORDS:
        return _decode_and_encode(data, starts, lengths)
    key = _cell_keys(words, starts, lengths, n_words)
    order = np.argsort(key)
    sorted_key = key[order]
    new_group = np.empty(key.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(new_group))
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    codes = np.empty(key.size, dtype=np.intp)
    codes[order] = rank[np.cumsum(new_group) - 1]
    first.sort()

    representative = first[codes]
    exact = bool(np.array_equal(lengths, lengths[representative])) and all(
        np.array_equal(word, word[representative])
        for word in (_cell_word(words, starts, lengths, c) for c in range(n_words))
    )
    if not exact:
        return _decode_and_encode(data, starts, lengths)
    distinct = [
        data[s : s + n].decode("utf-8")
        for s, n in zip(starts[first].tolist(), lengths[first].tolist())
    ]
    return distinct, codes


def _decode_and_encode(data: bytes, starts: np.ndarray, lengths: np.ndarray):
    return _encode_strings(
        [data[s : s + n].decode("utf-8") for s, n in zip(starts.tolist(), lengths.tolist())]
    )


def _cell_keys(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, n_words: int):
    """One 64-bit key per cell (wrapping multiply-add over its words)."""
    key = lengths.astype(np.uint64) * _MIX_LENGTH
    for c in range(n_words):
        key = key * _MIX_WORD + _cell_word(words, starts, lengths, c)
    return key


def _cell_word(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, c: int) -> np.ndarray:
    """Word ``c`` of every cell, the bytes past the cell's end zeroed (a
    cell shorter than ``8 * c`` bytes reads a clamped offset, all masked)."""
    offsets = np.minimum(starts + 8 * c, words.size - 1)
    return words[offsets] & _BYTE_MASKS[np.clip(lengths - 8 * c, 0, 8)]


def _split_quoted(text: str, delimiter: str, label):
    """``csv.reader`` split for text containing quote characters (quoted
    fields may hold delimiters, quotes and line breaks). Same return shape
    as :func:`_split_plain`."""
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    first = next(reader, None)
    if first is None:
        raise SchemaError(f"{label}: empty file")
    header = [name.strip() for name in first]
    width = len(header)
    rows = []
    line_no = reader.line_num + 1  # physical line the next record starts on
    for row in reader:
        if row:
            if len(row) != width:
                _raise_ragged(label, line_no, len(row), width)
            rows.append(row)
        line_no = reader.line_num + 1
    if not rows:
        raise SchemaError(f"{label}: no data rows")
    columns = list(zip(*rows)) if width else []
    return header, lambda j: _encode_strings(columns[j])


def _encode_strings(cells: Sequence[str]):
    """``(distinct, raw_codes)`` of a column given as strings."""
    index = {raw: code for code, raw in enumerate(dict.fromkeys(cells))}
    return list(index), np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))


def _raise_ragged(label, line_no: int, n_cells: int, width: int):
    raise SchemaError(f"{label}: row {line_no} has {n_cells} cells, header has {width}")


def _encode_column(name: str, column, categorical, numeric) -> Column:
    """Type and encode one column from ``(distinct, raw_codes)``: every
    per-value step (strip, float parse, category lookup) maps the short
    list of distinct raw strings, then one gather by code fills the rows."""
    distinct, raw_codes = column
    stripped = [raw.strip() for raw in distinct]
    if name not in categorical:
        parsed = _parse_numbers(stripped)
        if name in numeric and isinstance(parsed, str):
            raise SchemaError(f"column {name!r}: {parsed!r} is not numeric")
        if not isinstance(parsed, str):
            return Column.numeric(name, parsed[raw_codes])
    categories = sorted(set(stripped))
    category_index = {value: code for code, value in enumerate(categories)}
    code_of_raw = np.array([category_index[v] for v in stripped], dtype=np.int32)
    return Column.from_codes(name, code_of_raw[raw_codes], categories)


def _parse_numbers(texts: list[str]) -> np.ndarray | str:
    """``float`` of each text, or the first text that does not parse."""
    values = np.empty(len(texts), dtype=np.float64)
    for i, text in enumerate(texts):
        try:
            values[i] = float(text)
        except ValueError:
            return text
    return values


# -- writing -------------------------------------------------------------------


def _rendered_cells(column: Column, delimiter: str, single: bool) -> list[str]:
    """The column's cells as CSV-quoted strings, each distinct value
    rendered once and gathered by code."""
    if column.is_categorical:
        distinct, codes = column.categories, column.codes
    else:
        # Distinct bit patterns, not distinct values: 0.0 and -0.0 compare
        # equal but a float32 renders them differently.
        values = column.values
        size = values.dtype.itemsize
        bits = values.view(f"u{size}" if size in (1, 2, 4, 8) else f"V{size}")
        distinct_bits, codes = np.unique(bits, return_inverse=True)
        distinct = distinct_bits.view(values.dtype)
    lookup = np.empty(len(distinct), dtype=object)
    lookup[:] = [_quote(_render(value), delimiter, single) for value in distinct]
    return lookup[codes].tolist()


def _quote(text: str, delimiter: str, single: bool) -> str:
    """``csv.writer``'s minimal quoting of one field; ``single`` marks a
    one-column row, where an empty field is written as ``""``."""
    if (
        delimiter in text
        or _QUOTE in text
        or "\r" in text
        or "\n" in text
    ):
        return _QUOTE + text.replace(_QUOTE, _QUOTE * 2) + _QUOTE
    if single and not text:
        return _QUOTE * 2
    return text


def _render(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
