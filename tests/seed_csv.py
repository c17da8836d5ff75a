"""The study-file writers as they were before the block writer, and the
readers as they were before they became one reader.

Verbatim copies, kept as references:

- the per-row ``csv.writer`` loops, which ``test_data_model`` requires
  ``data_model.write_main_csv`` and ``write_validation_csv`` to match byte
  for byte;
- the two readers, each with its own bulk-then-row-scan flow, which
  ``test_data_model`` requires ``data_model.read_main_csv`` and
  ``read_validation_csv`` to match, in arrays and dtypes or in the
  ParseError text, on files with at most one defect.

Only the imports differ, and the validation readers' last step: the
dataset is built from ``number_subjects`` of the ids, as
``ValidationDataset`` takes its subjects as labels and codes.
"""

import csv
import math

import numpy as np

from calibcox.data_model import (MainDataset, ParseError, ValidationDataset,
                                 number_subjects, _bulk_rows, _cell, _columns, _fits_int64,
                                 _format_radius, _open_text, _read_header)


def write_main_csv(path, dataset):
    """Write a :class:`MainDataset` using the canonical schema, 12 significant digits."""
    header = (["id", "time", "event"]
              + [f"z_{_format_radius(r)}" for r in dataset.radii]
              + list(dataset.confounder_names))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            writer.writerow(
                [dataset.ids[i], f"{dataset.time[i]:.12g}", dataset.event[i]]
                + [f"{v:.12g}" for v in dataset.z[i]]
                + [f"{v:.12g}" for v in dataset.w[i]]
            )


def write_validation_csv(path, dataset):
    """Write a :class:`ValidationDataset` using the canonical schema."""
    header = (["id", "occasion", "x"]
              + [f"z_{_format_radius(r)}" for r in dataset.radii]
              + list(dataset.confounder_names))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            writer.writerow(
                [dataset.ids[i], dataset.occasion[i], f"{dataset.x[i]:.12g}"]
                + [f"{v:.12g}" for v in dataset.z[i]]
                + [f"{v:.12g}" for v in dataset.w[i]]
            )


def read_main_csv(path):
    """Parse a main-study CSV into a :class:`MainDataset`.

    Subjects with time <= 0 are rejected: a zero follow-up time would place
    nobody meaningfully at risk and the convention for it is undefined.
    The rows are parsed in bulk; a file the bulk parse does not take, or
    whose values break the schema, is read again row by row, which names
    the offending row and column.
    """
    with _open_text(path) as fh:
        header, (radii, z_cols, w_cols, w_names) = _read_header(
            fh, ("id", "time", "event"), path)
        bulk = _bulk_rows(fh, len(header))
        if bulk is not None:
            ids, chunks = bulk
            t, d = _columns(chunks, 0), _columns(chunks, 1)
            if np.all(t > 0) and np.all((d == 0) | (d == 1)):
                return MainDataset(
                    ids=np.asarray(ids, dtype=object), time=t,
                    event=d.astype(int),
                    z=_columns(chunks, z_cols[0] - 1, w_cols[0] - 1),
                    w=_columns(chunks, w_cols[0] - 1, len(header) - 1),
                    radii=radii, confounder_names=w_names)
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        ids, times, events, zs, ws = [], [], [], [], []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {rownum}: expected {len(header)} cells, got {len(row)}")
            t = _cell(row, 1, header, rownum, path,
                      lambda t: math.isfinite(t) and t > 0, "must be finite and > 0")
            d = _cell(row, 2, header, rownum, path, (0.0, 1.0).__contains__,
                      "must be 0 or 1")
            ids.append(row[0])
            times.append(t)
            events.append(int(d))
            zs.append([_cell(row, k, header, rownum, path) for k in z_cols])
            ws.append([_cell(row, k, header, rownum, path) for k in w_cols])
    return MainDataset(
        ids=np.asarray(ids, dtype=object), time=np.asarray(times),
        event=np.asarray(events, dtype=int), z=np.asarray(zs).reshape(len(ids), len(z_cols)),
        w=np.asarray(ws).reshape(len(ids), len(w_cols)),
        radii=radii, confounder_names=w_names,
    )


def read_validation_csv(path):
    """Parse a validation-study CSV into a :class:`ValidationDataset`.

    Confounders may vary across occasions within a subject; only duplicate
    (id, occasion) pairs are rejected.  Parsed like :func:`read_main_csv`.
    """
    with _open_text(path) as fh:
        header, (radii, z_cols, w_cols, w_names) = _read_header(
            fh, ("id", "occasion", "x"), path)
        bulk = _bulk_rows(fh, len(header))
        if bulk is not None:
            ids, chunks = bulk
            o = _columns(chunks, 0)
            # Occasions must be integers that fit the int64 array, and the
            # (id, occasion) pairs distinct.
            if np.all(_fits_int64(o)):
                occ = o.astype(int)
                if len(set(zip(ids, occ.tolist()))) == len(ids):
                    return ValidationDataset(
                        *number_subjects(ids), occasion=occ,
                        x=_columns(chunks, 1),
                        z=_columns(chunks, z_cols[0] - 1, w_cols[0] - 1),
                        w=_columns(chunks, w_cols[0] - 1, len(header) - 1),
                        radii=radii, confounder_names=w_names)
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        ids, occ, xs, zs, ws = [], [], [], [], []
        seen = set()
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {rownum}: expected {len(header)} cells, got {len(row)}")
            o = _cell(row, 1, header, rownum, path, _fits_int64,
                      "must be an integer below 2**63 in magnitude")
            key = (row[0], int(o))
            if key in seen:
                raise ParseError(f"{path}: row {rownum}: duplicate (id, occasion) pair {key}")
            seen.add(key)
            ids.append(row[0])
            occ.append(int(o))
            xs.append(_cell(row, 2, header, rownum, path))
            zs.append([_cell(row, k, header, rownum, path) for k in z_cols])
            ws.append([_cell(row, k, header, rownum, path) for k in w_cols])
    return ValidationDataset(
        *number_subjects(ids), occasion=np.asarray(occ, dtype=int),
        x=np.asarray(xs), z=np.asarray(zs).reshape(len(ids), len(z_cols)),
        w=np.asarray(ws).reshape(len(ids), len(w_cols)),
        radii=radii, confounder_names=w_names,
    )
