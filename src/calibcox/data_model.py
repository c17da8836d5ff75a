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
a file reads to the same arrays or raises the same :class:`DataError`,
which names the first bad cell in file order.  A file that is not UTF-8
text is a :class:`DataError` too.

A main study keeps no subject labels: its reader parses each id cell and
drops it, and :func:`write_main_csv` labels the rows ``m1``, ``m2``, ...
A validation study keeps its subjects as integer codes.  The reader
numbers the ids once, in order of each subject's first row
(:func:`number_subjects`); the simulation passes its codes directly; a
subset of the rows, such as a cross-validation training set, renumbers the
codes it keeps (:meth:`ValidationDataset.subset`).  The folds read the
codes, and the GEE reads the size buckets that :class:`ValidationDataset`
derives from them once, at construction; a PCA model reads the principal
axes the dataset solves once, when first asked
(:attr:`ValidationDataset.pca_axes`).
The reader rejects a duplicate (id, occasion) pair, found on the codes,
naming the first row, in file order, that repeats an earlier row's pair.

The writers emit what ``csv.writer``'s ``excel`` dialect would (CRLF line
endings, a label or header name quoted only when it holds a comma, quote or
line break) with numbers at 12 significant digits, formatting and writing
a block of rows at a time.
"""

import contextlib
import csv
import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .errors import DataError


DEFAULT_RADII = (90.0, 150.0, 270.0, 510.0, 750.0, 990.0, 1230.0, 1500.0, 2100.0)


def _format_radius(r):
    return str(int(r)) if float(r).is_integer() else repr(float(r))


def _check_radii(dataset):
    if np.any(np.diff(dataset.radii) <= 0):
        raise DataError("buffer radii must be strictly increasing")
    if dataset.z.shape[1] != len(dataset.radii):
        raise DataError("z width does not match radii count")


@dataclass(frozen=True)
class MainDataset:
    """Immutable, array-backed main-study cohort.

    Row order is exactly the file/order of construction and is preserved by
    every operation in this package.  A subject enters the fit only through
    its row's values, so no id is kept; :func:`write_main_csv` makes them.
    """

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

    Subjects are data: ``subject_ids`` holds one label per subject and
    ``subject_codes`` one int per row, numbering the row's subject 0, 1, ...
    in order of the subject's first row; :func:`number_subjects` makes both
    from per-row labels, and only the writer makes a row's label again.
    Derived from the codes once, at construction: ``n_subjects``, the
    number of subjects, and ``subject_buckets``, the one grouping of rows by
    subject, which the GEE sums over.  It holds one ``(m, subjects, rows)``
    entry per cluster size m, in ascending order of m: the subjects with m
    rows, in ascending order, and the read-only (g, m) matrix of their rows,
    each subject's rows in row order.  ``pca_axes`` is derived once too, but
    only when a PCA model first asks for it.
    """

    subject_ids: np.ndarray
    subject_codes: np.ndarray
    occasion: np.ndarray
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    radii: np.ndarray
    confounder_names: tuple = field(default=("w_1",))
    n_subjects: int = field(init=False, repr=False, compare=False)
    subject_buckets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_radii(self)
        codes = self.subject_codes
        # First-appearance numbering: no code exceeds the largest before it
        # by more than one, so codes 0..top all occur, once per subject id.
        top = np.maximum.accumulate(np.concatenate(([-1], codes)))
        if np.any(codes < 0) or np.any(np.diff(top) > 1) \
                or top[-1] + 1 != len(self.subject_ids):
            raise DataError("subject codes must number the subject ids "
                            "0, 1, ... in order of each subject's first row")
        object.__setattr__(self, "n_subjects", len(self.subject_ids))
        object.__setattr__(self, "subject_buckets", _size_buckets(
            np.argsort(codes, kind="stable"),
            np.bincount(codes, minlength=self.n_subjects)))

    def __len__(self):
        return len(self.x)

    @functools.cached_property
    def pca_axes(self):
        """All principal axes of ``z``, solved on first use; a failure is not kept."""
        return transforms.pca_axes(self.z)

    def subset(self, rows):
        """The dataset of the rows ``rows``: its subjects keep their labels
        and are numbered again in order of their first row among ``rows``."""
        codes = self.subject_codes[rows]
        kept = codes[np.sort(np.unique(codes, return_index=True)[1])]
        renumber = np.empty(self.n_subjects, dtype=np.intp)
        renumber[kept] = np.arange(kept.size)
        return ValidationDataset(
            subject_ids=self.subject_ids[kept], subject_codes=renumber[codes],
            occasion=self.occasion[rows], x=self.x[rows], z=self.z[rows],
            w=self.w[rows], radii=self.radii, confounder_names=self.confounder_names)

    def subject_groups(self):
        """Row-index arrays keyed by subject id, in first-appearance order:
        a view of ``subject_buckets``, which nothing in the package calls;
        the benchmark's tracer wraps it by name."""
        groups = [None] * self.n_subjects
        for _, subjects, rows in self.subject_buckets:
            for s, r in zip(subjects.tolist(), rows):
                groups[s] = r
        return dict(zip(self.subject_ids, groups))


def _size_buckets(order, sizes):
    """``(m, subjects, rows)`` per distinct cluster size m, ascending: the
    subjects whose ``sizes`` entry is m and the read-only (g, m) matrix of
    their rows, where ``order`` lists the rows subject by subject."""
    starts = np.cumsum(sizes) - sizes
    buckets = []
    for m in np.unique(sizes).tolist():
        subjects = np.flatnonzero(sizes == m)
        rows = order[starts[subjects, None] + np.arange(m)]
        subjects.flags.writeable = rows.flags.writeable = False
        buckets.append((m, subjects, rows))
    return tuple(buckets)


def number_subjects(ids):
    """``(subject_ids, subject_codes)`` of per-row labels ``ids``: the
    distinct labels in order of first row (an object array), and each row's
    position in it (an intp array).  Labels are told apart as dict keys,
    and every float nan, NumPy or Python, is one label, ``np.nan``."""
    ids = [np.nan if label != label else label for label in ids]
    labels = dict.fromkeys(ids)
    index = dict(zip(labels, range(len(labels))))
    return (np.fromiter(labels, dtype=object, count=len(labels)),
            np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids)))


def _read_header(fh, leading, path):
    """The header row of ``fh``, and the radii, z and w column indices and
    confounder names it gives."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    for k, name in enumerate(leading):
        if k >= len(header) or header[k] != name:
            raise DataError(f"{path}: expected column {k + 1} to be '{name}'")
    radii, z_cols = [], []
    k = len(leading)
    while k < len(header) and header[k].startswith("z_"):
        try:
            radii.append(float(header[k][2:]))
        except ValueError as exc:
            raise DataError(f"{path}: bad radius in header '{header[k]}'") from exc
        z_cols.append(k)
        k += 1
    if not z_cols:
        raise DataError(f"{path}: no z_<radius> columns found")
    w_cols = list(range(k, len(header)))
    if not w_cols:
        raise DataError(f"{path}: no confounder columns found")
    return header, (np.asarray(radii), z_cols, w_cols, tuple(header[k] for k in w_cols))


def _cell(row, col_idx, header, rownum, path, valid=math.isfinite,
          rule="must be finite"):
    """The cell as a float; a DataError that names its row and column
    when it is not a number or ``valid`` rejects it (saying ``rule``)."""
    try:
        value = float(row[col_idx])
    except (ValueError, IndexError) as exc:
        raise DataError(
            f"{path}: row {rownum}, column '{header[col_idx]}': "
            f"non-numeric or missing cell"
        ) from exc
    if not valid(value):
        raise DataError(f"{path}: row {rownum}, column '{header[col_idx]}': {rule}")
    return value


@contextlib.contextmanager
def _open_text(path):
    """The file as UTF-8 text; a byte that does not decode is a DataError.

    A leading byte-order mark, which spreadsheet programs write to
    "CSV UTF-8" files, is dropped, also when the reader seeks back to 0.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: byte "
                        f"{exc.object[exc.start]:#04x} ({exc.reason})") from None


# Characters of file text the bulk parse holds at a time.
_CHUNK_CHARS = 1 << 20


def _bulk_rows(fh, n_cols, keep_ids):
    """Ids and numeric cells of the rows left in ``fh``, parsed in chunks.

    Returns ``(ids, chunks)``: the ids (None unless ``keep_ids``), and the
    numeric cells of columns 1..n_cols-1 as one float array per chunk of
    rows, exactly as ``csv.reader`` and ``float()`` would read them (NumPy's
    parser rounds as ``float()`` does).  Returns None when they might not
    agree or a cell does not parse: a quote character, a blank line, a row
    of the wrong length, a cell NumPy does not take (a non-number,
    ``1_000``), a cell that is not finite, an undecodable byte, or no rows
    at all.

    The text is read _CHUNK_CHARS characters at a time; each chunk's rows
    end at its last newline, and the partial row after it is carried into
    the next chunk, so only one chunk's text and lines are held at once.
    """
    ids, chunks = ([] if keep_ids else None), []
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
                return (ids, chunks) if chunks else None
            text = "\n"  # end the last row, which lacks its newline
        commas = rest.count(",") + text.count(",")
        lines = text.split("\n")
        del text  # only the chunk's lines are held from here on
        lines[0] = rest + lines[0]  # rest holds no newline
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
        if keep_ids:
            ids += [line.partition(",")[0] for line in lines]
        del lines  # freed before the next chunk is read
        chunks.append(cells)


def _columns(chunks, lo, hi=None):
    """Column ``lo`` (or columns lo..hi-1) of every chunk, joined into one
    new C-contiguous array."""
    return np.concatenate([c[:, lo] if hi is None else c[:, lo:hi]
                           for c in chunks])


def _scan_rows(fh, header, rules, path, keep_ids):
    """Ids and numeric cells of the rows after the header, read one at a
    time as ``csv.reader`` and ``float()`` read them, in the form
    :func:`_bulk_rows` returns; the first cell that breaks the schema, in
    file order, raises a DataError that names its row and column."""
    checks = [*rules,
              *[(math.isfinite, "must be finite")] * (len(header) - 1 - len(rules))]
    reader = csv.reader(fh)
    next(reader)
    ids, cells = ([] if keep_ids else None), []
    for rownum, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {rownum}: expected {len(header)} cells, got {len(row)}")
        cells.append([_cell(row, k, header, rownum, path, valid, rule)
                      for k, (valid, rule) in enumerate(checks, start=1)])
        if keep_ids:
            ids.append(row[0])
    return ids, [np.array(cells, dtype=float).reshape(len(cells), len(header) - 1)]


def _read_study(path, leading, rules, keep_ids):
    """The one reader of both study files: the ids (None unless
    ``keep_ids``), the two numeric columns that ``leading`` names after the
    id, z, w, the radii and the confounder names.

    ``rules`` holds, for each of the two columns, a test that takes a float
    or an array, and the message for a cell that fails it.  The rows are
    parsed in bulk; a file the bulk parse does not take, or whose leading
    columns fail a rule, is read again row by row, which names the offending
    row and column.
    """
    with _open_text(path) as fh:
        header, (radii, z_cols, w_cols, w_names) = _read_header(fh, leading, path)
        parsed = _bulk_rows(fh, len(header), keep_ids)
        if parsed is None or not all(np.all(valid(c[:, k])) for c in parsed[1]
                                     for k, (valid, _) in enumerate(rules)):
            fh.seek(0)
            parsed = _scan_rows(fh, header, rules, path, keep_ids)
    ids, chunks = parsed
    return (ids, _columns(chunks, 0), _columns(chunks, 1),
            _columns(chunks, z_cols[0] - 1, w_cols[0] - 1),
            _columns(chunks, w_cols[0] - 1, len(header) - 1), radii, w_names)


def in_file(path, call, *args, **kwargs):
    """``call(*args, **kwargs)``, whose DataError names the file ``path``."""
    try:
        return call(*args, **kwargs)
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_main_csv(path):
    """Parse a main-study CSV into a :class:`MainDataset`.

    Subjects with time <= 0 are rejected: a zero follow-up time would place
    nobody meaningfully at risk and the convention for it is undefined.
    """
    _, time, event, z, w, radii, w_names = _read_study(
        path, ("id", "time", "event"),
        ((lambda t: (t > 0) & (t < math.inf), "must be finite and > 0"),
         (lambda d: (d == 0) | (d == 1), "must be 0 or 1")), keep_ids=False)
    return in_file(path, MainDataset, time=time, event=event.astype(int), z=z, w=w,
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
         (lambda x: abs(x) < math.inf, "must be finite")), keep_ids=True)
    subject_ids, codes = number_subjects(ids)
    occasion = occasion.astype(int)
    # A stable sort by (subject, occasion) keeps a pair's rows in file
    # order, so every row after the first of its run repeats an earlier
    # row; the earliest of them is where a row-by-row check would stop.
    order = np.lexsort((occasion, codes))
    again = order[1:][(np.diff(codes[order]) == 0) & (np.diff(occasion[order]) == 0)]
    if again.size:
        row = int(again.min())
        key = (subject_ids[codes[row]], int(occasion[row]))
        raise DataError(f"{path}: row {row + 2}: duplicate (id, occasion) pair {key}")
    return in_file(path, ValidationDataset, subject_ids=subject_ids,
                   subject_codes=codes, occasion=occasion, x=x, z=z, w=w,
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
    one CRLF-ended row per record: ``columns`` formatted by the ``%``
    template ``template``, and the z and w cells at 12 significant digits.

    Rows go _WRITE_ROWS to a ``write``: each block takes every column to
    Python scalars once (``tolist``) and formats its rows with the one
    template, so only a block's values and text are held at once.  Header
    names are cells of :func:`_csv_text`.
    """
    header = [*leading, *(f"z_{_format_radius(r)}" for r in dataset.radii),
              *dataset.confounder_names]
    template += ",%.12g" * (dataset.z.shape[1] + dataset.w.shape[1]) + "\r\n"
    columns = [*columns, *dataset.z.T, *dataset.w.T]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_csv_text, header)) + "\r\n")
        for lo in range(0, len(dataset), _WRITE_ROWS):
            block = [c[lo:lo + _WRITE_ROWS].tolist() for c in columns]
            fh.write("".join(map(template.__mod__, zip(*block))))


def write_main_csv(path, dataset):
    """Write a :class:`MainDataset`, rows labelled m1, m2, ..., at 12 significant digits."""
    _write_rows(path, dataset, ("id", "time", "event"), "m%d,%.12g,%s",
                (np.arange(1, len(dataset) + 1), dataset.time, dataset.event))


def write_validation_csv(path, dataset):
    """Write a :class:`ValidationDataset`, quoting each subject's label once."""
    labels = np.array([_csv_text(v) for v in dataset.subject_ids], dtype=object)
    _write_rows(path, dataset, ("id", "occasion", "x"), "%s,%s,%.12g",
                (labels[dataset.subject_codes], dataset.occasion, dataset.x))
