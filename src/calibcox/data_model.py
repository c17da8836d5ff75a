"""Cohort datasets and the CSV schemas for study files.

Main-study files carry one row per subject::

    id,time,event,z_90,...,z_2100,w_1,...,w_k

Validation-study files carry one row per (subject, occasion)::

    id,occasion,x,z_90,...,z_2100,w_1,...,w_k

Buffer radii are encoded in the ``z_<radius>`` header names and must be
strictly increasing.  Files are UTF-8, comma-separated, ``.`` decimal point,
header row mandatory; a cell is quoted only when it must be.  Missing cells
are errors: the analyses this package supports are complete-case.  So are
non-finite numbers (``nan``, ``inf``, ``1e999``); the error names the row
and column.

Both readers are one reader, ``_read_study``, given the file's two leading
columns and a rule for each (time finite and > 0, event 0 or 1; occasion an
integer that int64 holds, x finite).  It parses a file's rows in bulk
(``np.loadtxt``), streaming the text in chunks of about a mebibyte, and
reads them one at a time, as ``csv.reader`` and ``float()`` do, only when
the bulk parse rejects the file or its values break the schema; either way
a file reads to the same arrays or raises the same :class:`ParseError`,
which names the first bad cell in file order.  A file that is not UTF-8
text is a :class:`ParseError` too.  The validation reader then rejects a
duplicate (id, occasion) pair, naming the row of its second occurrence.

The writers emit what ``csv.writer``'s ``excel`` dialect would (CRLF line
endings, an id or header name quoted only when it holds a comma, quote or
line break) with numbers at 12 significant digits, formatting and writing
a block of rows at a time.
"""

import contextlib
import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


class ParseError(DataError):
    """CSV content violates the schema; message carries row/column coordinates."""


DEFAULT_RADII = (90.0, 150.0, 270.0, 510.0, 750.0, 990.0, 1230.0, 1500.0, 2100.0)


def _format_radius(r):
    return str(int(r)) if float(r).is_integer() else repr(float(r))


def _check_radii(dataset):
    if np.any(np.diff(dataset.radii) <= 0):
        raise ParseError("buffer radii must be strictly increasing")
    if dataset.z.shape[1] != len(dataset.radii):
        raise ParseError("z width does not match radii count")


@dataclass(frozen=True)
class MainDataset:
    """Immutable, array-backed main-study cohort.

    Row order is exactly the file/order of construction and is preserved by
    every operation in this package.
    """

    ids: np.ndarray
    time: np.ndarray
    event: np.ndarray
    z: np.ndarray
    w: np.ndarray
    radii: np.ndarray
    confounder_names: tuple = field(default=("w_1",))

    def __post_init__(self):
        _check_radii(self)

    def __len__(self):
        return len(self.time)


@dataclass(frozen=True)
class ValidationDataset:
    """Immutable, array-backed validation cohort with repeated measurements.

    ``subject_codes`` numbers each row's subject 0, 1, ... in order of the
    subject's first row; it is computed once, at construction.
    """

    ids: np.ndarray
    occasion: np.ndarray
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    radii: np.ndarray
    confounder_names: tuple = field(default=("w_1",))

    def __post_init__(self):
        _check_radii(self)
        codes = {}
        object.__setattr__(self, "subject_codes", np.fromiter(
            (codes.setdefault(sid, len(codes)) for sid in self.ids),
            dtype=np.intp, count=len(self.ids)))

    def __len__(self):
        return len(self.x)

    def subject_groups(self):
        """Row-index arrays grouped by subject id, in first-appearance order."""
        order = np.argsort(self.subject_codes, kind="stable")
        groups = np.split(order, np.cumsum(np.bincount(self.subject_codes))[:-1])
        return {self.ids[rows[0]]: rows for rows in groups if rows.size}


def _parse_header(header, leading, path):
    for k, name in enumerate(leading):
        if k >= len(header) or header[k] != name:
            raise ParseError(f"{path}: expected column {k + 1} to be '{name}'")
    radii, z_cols = [], []
    k = len(leading)
    while k < len(header) and header[k].startswith("z_"):
        try:
            radii.append(float(header[k][2:]))
        except ValueError as exc:
            raise ParseError(f"{path}: bad radius in header '{header[k]}'") from exc
        z_cols.append(k)
        k += 1
    if not z_cols:
        raise ParseError(f"{path}: no z_<radius> columns found")
    w_cols = list(range(k, len(header)))
    if not w_cols:
        raise ParseError(f"{path}: no confounder columns found")
    w_names = tuple(header[k] for k in w_cols)
    return np.asarray(radii), z_cols, w_cols, w_names


def _cell(row, col_idx, header, rownum, path, valid=math.isfinite,
          rule="must be finite"):
    """The cell as a float; a ParseError that names its row and column
    when it is not a number or ``valid`` rejects it (saying ``rule``)."""
    try:
        value = float(row[col_idx])
    except (ValueError, IndexError) as exc:
        raise ParseError(
            f"{path}: row {rownum}, column '{header[col_idx]}': "
            f"non-numeric or missing cell"
        ) from exc
    if not valid(value):
        raise ParseError(f"{path}: row {rownum}, column '{header[col_idx]}': {rule}")
    return value


@contextlib.contextmanager
def _open_text(path):
    """The file as UTF-8 text; a byte that does not decode is a ParseError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte "
                         f"{exc.object[exc.start]:#04x} ({exc.reason})") from None


def _read_header(fh, leading, path):
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    return header, _parse_header(header, leading, path)


# Characters of file text the bulk parse holds at a time.
_CHUNK_CHARS = 1 << 20


def _bulk_rows(fh, n_cols):
    """Ids and numeric cells of the rows left in ``fh``, parsed in chunks.

    Returns ``(ids, chunks)``: the ids, and the numeric cells of columns
    1..n_cols-1 as one float array per chunk of rows, exactly as
    ``csv.reader`` and ``float()`` would read them (NumPy's parser rounds
    as ``float()`` does).  Returns None when they might not agree or a cell
    does not parse: a quote character, a blank line, a row of the wrong
    length, a cell NumPy does not take (a non-number, ``1_000``), a cell
    that is not finite, an undecodable byte, or no rows at all.

    The text is read _CHUNK_CHARS characters at a time; each chunk's rows
    end at its last newline, and the partial row after it is carried into
    the next chunk, so only one chunk's text and lines are held at once.
    """
    ids, chunks = [], []
    rest = ""
    while True:
        try:
            text = fh.read(_CHUNK_CHARS)
        except UnicodeDecodeError:
            return None
        if '"' in text:
            return None
        if not text:
            if not rest:
                return (ids, chunks) if ids else None
            text = "\n"  # end the last row, which lacks its newline
        commas = rest.count(",") + text.count(",")
        lines = (rest + text).split("\n")
        del text  # only the chunk's lines are held from here on
        rest = lines.pop()
        if not lines:
            continue
        # loadtxt skips blank lines, ignores cells past usecols and raises
        # on short rows, so the comma total and the row count together hold
        # every row to n_cols - 1 commas.
        if commas - rest.count(",") != len(lines) * (n_cols - 1):
            return None
        try:
            cells = np.loadtxt(lines, delimiter=",", comments=None,
                               usecols=range(1, n_cols), ndmin=2)
        except ValueError:
            return None
        if len(cells) != len(lines) or not np.isfinite(cells).all():
            return None
        ids += [line.partition(",")[0] for line in lines]
        chunks.append(cells)


def _columns(chunks, lo, hi=None):
    """Column ``lo`` (or columns lo..hi-1) of every chunk, joined into one
    new C-contiguous array."""
    return np.concatenate([c[:, lo] if hi is None else c[:, lo:hi]
                           for c in chunks])


def _scan_rows(fh, header, rules, path):
    """Ids and numeric cells of the rows after the header, read one at a
    time as ``csv.reader`` and ``float()`` read them, in the form
    :func:`_bulk_rows` returns; the first cell that breaks the schema, in
    file order, raises a ParseError that names its row and column."""
    checks = [*rules,
              *[(math.isfinite, "must be finite")] * (len(header) - 1 - len(rules))]
    reader = csv.reader(fh)
    next(reader)
    ids, cells = [], []
    for rownum, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {rownum}: expected {len(header)} cells, got {len(row)}")
        cells.append([_cell(row, k, header, rownum, path, valid, rule)
                      for k, (valid, rule) in enumerate(checks, start=1)])
        ids.append(row[0])
    return ids, [np.array(cells, dtype=float).reshape(len(ids), len(header) - 1)]


def _read_study(path, leading, rules):
    """The one reader of both study files: the ids (an object array), the
    two numeric columns that ``leading`` names after the id, z, w, the radii
    and the confounder names.

    ``rules`` holds, for each of the two columns, a test that takes a float
    or an array, and the message for a cell that fails it.  The rows are
    parsed in bulk; a file the bulk parse does not take, or whose leading
    columns fail a rule, is read again row by row, which names the offending
    row and column.
    """
    with _open_text(path) as fh:
        header, (radii, z_cols, w_cols, w_names) = _read_header(fh, leading, path)
        parsed = _bulk_rows(fh, len(header))
        if parsed is None or not all(np.all(valid(c[:, k])) for c in parsed[1]
                                     for k, (valid, _) in enumerate(rules)):
            fh.seek(0)
            parsed = _scan_rows(fh, header, rules, path)
    ids, chunks = parsed
    return (np.asarray(ids, dtype=object), _columns(chunks, 0), _columns(chunks, 1),
            _columns(chunks, z_cols[0] - 1, w_cols[0] - 1),
            _columns(chunks, w_cols[0] - 1, len(header) - 1), radii, w_names)


def read_main_csv(path):
    """Parse a main-study CSV into a :class:`MainDataset`.

    Subjects with time <= 0 are rejected: a zero follow-up time would place
    nobody meaningfully at risk and the convention for it is undefined.
    """
    ids, time, event, z, w, radii, w_names = _read_study(
        path, ("id", "time", "event"),
        ((lambda t: (t > 0) & (t < math.inf), "must be finite and > 0"),
         (lambda d: (d == 0) | (d == 1), "must be 0 or 1")))
    return MainDataset(ids=ids, time=time, event=event.astype(int), z=z, w=w,
                       radii=radii, confounder_names=w_names)


def _fits_int64(o):
    """Whether the finite ``o`` (a float or an array) is an integer that an
    int64 holds."""
    return (o == np.floor(o)) & (np.abs(o) < 2.0 ** 63)


def read_validation_csv(path):
    """Parse a validation-study CSV into a :class:`ValidationDataset`.

    Confounders may vary across occasions within a subject; only duplicate
    (id, occasion) pairs are rejected, after every cell has parsed.
    """
    ids, occasion, x, z, w, radii, w_names = _read_study(
        path, ("id", "occasion", "x"),
        ((_fits_int64, "must be an integer below 2**63 in magnitude"),
         (lambda x: abs(x) < math.inf, "must be finite")))
    occasion = occasion.astype(int)
    pairs = list(zip(ids.tolist(), occasion.tolist()))
    if len(set(pairs)) != len(pairs):
        seen = set()
        for rownum, key in enumerate(pairs, start=2):
            if key in seen:
                raise ParseError(f"{path}: row {rownum}: duplicate (id, occasion) pair {key}")
            seen.add(key)
    return ValidationDataset(ids=ids, occasion=occasion, x=x, z=z, w=w,
                             radii=radii, confounder_names=w_names)


# Rows the writers format and write at a time.
_WRITE_ROWS = 1024

_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _csv_text(value):
    """``value`` as one cell of ``csv.writer``'s excel dialect.

    The text is ``str(value)``, empty for None, as ``csv.writer`` makes
    it; it is wrapped in quotes when it holds a comma, a quote or a line
    break, with each inner quote doubled.
    """
    text = "" if value is None else str(value)
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_rows(path, dataset, leading, template, columns):
    """Write the header ``leading``, z_<radius>..., confounder names, then
    one CRLF-ended row per record: its id, ``columns`` formatted by the
    ``%`` template ``template``, and the z and w cells at 12 significant
    digits.

    Rows go _WRITE_ROWS to a ``write``: each block takes every column to
    Python scalars once (``tolist``) and formats its rows with the one
    template, so only a block's values and text are held at once.  Header
    names and ids are cells of :func:`_csv_text`.
    """
    header = [*leading, *(f"z_{_format_radius(r)}" for r in dataset.radii),
              *dataset.confounder_names]
    template += ",%.12g" * (dataset.z.shape[1] + dataset.w.shape[1]) + "\r\n"
    columns = [*columns, *dataset.z.T, *dataset.w.T]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_csv_text, header)) + "\r\n")
        for lo in range(0, len(dataset), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            block = [[_csv_text(v) for v in dataset.ids[lo:hi]]]
            block += [c[lo:hi].tolist() for c in columns]
            fh.write("".join(map(template.__mod__, zip(*block))))


def write_main_csv(path, dataset):
    """Write a :class:`MainDataset` using the canonical schema, 12 significant digits."""
    _write_rows(path, dataset, ("id", "time", "event"), "%s,%.12g,%s",
                (dataset.time, dataset.event))


def write_validation_csv(path, dataset):
    """Write a :class:`ValidationDataset` using the canonical schema."""
    _write_rows(path, dataset, ("id", "occasion", "x"), "%s,%s,%.12g",
                (dataset.occasion, dataset.x))
