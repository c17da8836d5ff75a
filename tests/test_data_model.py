"""CSV schemas, record datasets, and risk-set construction."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calibcox import data_model
from calibcox.errors import DataError
from conftest import risk_set_indices

import seed_csv


MAIN_HEADER = "id,time,event,z_90,z_150,w_1\n"
VAL_HEADER = "id,occasion,x,z_90,z_150,w_1\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestReadMainCsv:
    def test_smoke_three_rows(self, tmp_path):
        p = write(tmp_path, "m.csv", MAIN_HEADER
                  + "a,1.0,1,0.5,0.6,2.0\n"
                  + "b,2.0,0,0.4,0.5,1.0\n"
                  + "c,0.5,1,0.3,0.4,0.0\n")
        ds = data_model.read_main_csv(p)
        assert len(ds) == 3
        assert list(ds.radii) == [90.0, 150.0]
        assert ds.confounder_names == ("w_1",)

    def test_non_binary_event_names_row(self, tmp_path):
        rows = [f"s{i},1.{i},{1 if i != 6 else 2},0.1,0.2,1.0" for i in range(8)]
        p = write(tmp_path, "m.csv", MAIN_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match="row 8"):
            data_model.read_main_csv(p)

    def test_nonpositive_time_rejected(self, tmp_path):
        p = write(tmp_path, "m.csv", MAIN_HEADER + "a,0.0,1,0.1,0.2,1.0\n")
        with pytest.raises(DataError, match="time"):
            data_model.read_main_csv(p)

    def test_non_numeric_cell_coordinates(self, tmp_path):
        p = write(tmp_path, "m.csv", MAIN_HEADER + "a,1.0,1,oops,0.2,1.0\n")
        with pytest.raises(DataError, match="row 2.*z_90"):
            data_model.read_main_csv(p)

    def test_missing_column(self, tmp_path):
        p = write(tmp_path, "m.csv", "id,time,event,w_1\na,1,1,2\n")
        with pytest.raises(DataError, match="z_"):
            data_model.read_main_csv(p)

    def test_round_trip(self, tmp_path, rng):
        n = 25
        ds = data_model.MainDataset(
            time=rng.uniform(0.1, 5.0, n),
            event=rng.integers(0, 2, n),
            z=rng.normal(0.5, 0.1, (n, 3)),
            w=rng.normal(1.0, 2.0, (n, 2)),
            radii=np.array([90.0, 150.0, 270.0]),
            confounder_names=("w_1", "w_2"))
        p = tmp_path / "rt.csv"
        data_model.write_main_csv(p, ds)
        back = data_model.read_main_csv(p)
        assert np.allclose(back.time, ds.time, rtol=1e-12)
        assert np.allclose(back.z, ds.z, rtol=1e-12)
        assert np.allclose(back.w, ds.w, rtol=1e-12)
        assert np.array_equal(back.event, ds.event)


class TestReadValidationCsv:
    def test_smoke_groups(self, tmp_path):
        rows = [f"s{i},{o},0.5,0.1,0.2,1.0" for i in range(2) for o in range(1, 9)]
        p = write(tmp_path, "v.csv", VAL_HEADER + "\n".join(rows) + "\n")
        ds = data_model.read_validation_csv(p)
        assert len(ds) == 16
        groups = ds.subject_groups()
        assert len(groups) == 2
        assert all(len(rows) == 8 for rows in groups.values())

    def test_duplicate_id_occasion_rejected(self, tmp_path):
        p = write(tmp_path, "v.csv", VAL_HEADER
                  + "a,1,0.5,0.1,0.2,1.0\n" + "a,1,0.6,0.1,0.2,1.0\n")
        with pytest.raises(DataError, match="duplicate"):
            data_model.read_validation_csv(p)

    def test_confounders_may_vary_by_occasion(self, tmp_path):
        p = write(tmp_path, "v.csv", VAL_HEADER
                  + "a,1,0.5,0.1,0.2,1.0\n" + "a,2,0.6,0.1,0.2,9.0\n")
        ds = data_model.read_validation_csv(p)
        assert len(ds) == 2

    def test_round_trip(self, tmp_path, rng):
        n = 12
        ds = data_model.ValidationDataset(
            *data_model.number_subjects([f"s{i // 3}" for i in range(n)]),
            occasion=np.tile([1, 2, 3], 4),
            x=rng.normal(0.5, 0.3, n),
            z=rng.normal(0.5, 0.1, (n, 2)),
            w=rng.normal(1.0, 2.0, (n, 1)),
            radii=np.array([90.0, 150.0]))
        p = tmp_path / "rt.csv"
        data_model.write_validation_csv(p, ds)
        back = data_model.read_validation_csv(p)
        assert np.allclose(back.x, ds.x, rtol=1e-12)
        assert np.allclose(back.z, ds.z, rtol=1e-12)
        assert np.array_equal(back.occasion, ds.occasion)


def _spy_bulk(monkeypatch):
    """Record whether each read took the bulk parse (True) or the row scan."""
    taken = []
    bulk = data_model._bulk_rows

    def spy(*args):
        out = bulk(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(data_model, "_bulk_rows", spy)
    return taken


def _quote_first_id(path):
    """A copy of ``path`` whose first id is quoted: same values, but the
    bulk parse must leave it to the row scan."""
    lines = path.read_text().split("\n")
    first = lines[1].split(",")
    lines[1] = ",".join([f'"{first[0]}"'] + first[1:])
    out = path.with_name("quoted-" + path.name)
    out.write_text("\n".join(lines))
    return out


def row_labels(ds):
    """Each row's subject label of a validation study."""
    return ds.subject_ids[ds.subject_codes].tolist()


def _assert_same_arrays(a, b, fields):
    for name in fields:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.flags.c_contiguous and y.flags.c_contiguous, name
        assert np.array_equal(x, y), name
    if isinstance(a, data_model.ValidationDataset):
        assert row_labels(a) == row_labels(b)
    assert a.confounder_names == b.confounder_names


class TestBulkParse:
    """The bulk parse reads what the row scan reads, bit for bit."""

    def test_main_matches_row_scan(self, tmp_path, rng, monkeypatch):
        n = 300
        ds = data_model.MainDataset(
            time=rng.exponential(1.0, n) + 1e-3, event=rng.integers(0, 2, n),
            z=rng.normal(0.5, 0.1, (n, 3)), w=rng.normal(1.0, 2.0, (n, 2)),
            radii=np.array([90.0, 150.0, 270.0]), confounder_names=("w_1", "w_2"))
        p = tmp_path / "m.csv"
        data_model.write_main_csv(p, ds)
        taken = _spy_bulk(monkeypatch)
        bulk = data_model.read_main_csv(p)
        scanned = data_model.read_main_csv(_quote_first_id(p))
        assert taken == [True, False]
        _assert_same_arrays(bulk, scanned, ("time", "event", "z", "w", "radii"))

    def test_validation_matches_row_scan(self, tmp_path, rng, monkeypatch):
        n = 120
        ds = data_model.ValidationDataset(
            *data_model.number_subjects([f"s{i // 4}" for i in range(n)]),
            occasion=np.tile([1, 2, 3, 4], n // 4), x=rng.normal(0.5, 0.3, n),
            z=rng.normal(0.5, 0.1, (n, 2)), w=rng.normal(1.0, 2.0, (n, 1)),
            radii=np.array([90.0, 150.0]))
        p = tmp_path / "v.csv"
        data_model.write_validation_csv(p, ds)
        taken = _spy_bulk(monkeypatch)
        bulk = data_model.read_validation_csv(p)
        scanned = data_model.read_validation_csv(_quote_first_id(p))
        assert taken == [True, False]
        _assert_same_arrays(bulk, scanned, ("occasion", "x", "z", "w", "radii"))

    ROW = "a,1.0,1,0.5,0.6,2.0\n"

    @pytest.mark.parametrize("body, error", [
        (ROW + "\n" + ROW, "row 3: expected 6 cells, got 0"),
        ("a,1.0,1,#,0.6,2.0\n", "row 2, column 'z_90': non-numeric or missing cell"),
        (ROW + "b,2.0,0,0.4,0.5\n", "row 3: expected 6 cells, got 5"),
        (ROW + "b,2.0,0,0.4,0.5,1.0,7\n", "row 3: expected 6 cells, got 7"),
        (ROW + "b,0,0,0.4,0.5,1.0\n", "row 3, column 'time': must be finite and > 0"),
        ("a,1.0,2,0.5,0.6,2.0\n", "row 2, column 'event': must be 0 or 1"),
    ])
    def test_main_rejections(self, tmp_path, body, error):
        p = write(tmp_path, "m.csv", MAIN_HEADER + body)
        with pytest.raises(DataError) as err:
            data_model.read_main_csv(p)
        assert str(err.value) == f"{p}: {error}"

    @pytest.mark.parametrize("cell, value", [('"1.5"', 1.5), ("1_000", 1000.0)])
    def test_cells_float_reads(self, tmp_path, cell, value):
        p = write(tmp_path, "m.csv", MAIN_HEADER + f"a,1.0,1,{cell},0.6,2.0\n")
        ds = data_model.read_main_csv(p)
        assert ds.z.tolist() == [[value, 0.6]] and ds.z.flags.c_contiguous

    def test_duplicate_pair_names_row(self, tmp_path, monkeypatch):
        p = write(tmp_path, "v.csv", VAL_HEADER + "a,1,0.5,0.1,0.2,1.0\n"
                  + "b,1,0.5,0.1,0.2,1.0\n" + "a,1.0,0.6,0.1,0.2,1.0\n")

        def no_scan(*args):
            raise AssertionError("a duplicate pair read the file again")

        # The pairs are checked on the parsed arrays, so the bulk parse's
        # rows name the duplicate without a row scan.
        monkeypatch.setattr(data_model, "_scan_rows", no_scan)
        with pytest.raises(DataError) as err:
            data_model.read_validation_csv(p)
        assert str(err.value) == f"{p}: row 4: duplicate (id, occasion) pair ('a', 1)"

    @pytest.mark.parametrize("parse", ["bulk", "row scan"])
    def test_first_repeat_in_file_order_is_named(self, tmp_path, monkeypatch, parse):
        # Two repeated pairs among interleaved subjects: ('b', 2) sorts after
        # ('a', 1), by label and by subject code, but repeats first in the
        # file, so it is the one named.
        p = write(tmp_path, "v.csv", VAL_HEADER + "a,1,0.5,0.1,0.2,1.0\n"
                  + "b,2,0.5,0.1,0.2,1.0\n" + "a,2,0.5,0.1,0.2,1.0\n"
                  + "b,2,0.6,0.1,0.2,1.0\n" + "a,1,0.6,0.1,0.2,1.0\n")
        if parse == "row scan":
            p = _quote_first_id(p)
        taken = _spy_bulk(monkeypatch)
        with pytest.raises(DataError) as err:
            data_model.read_validation_csv(p)
        assert taken == [parse == "bulk"]
        assert str(err.value) == f"{p}: row 5: duplicate (id, occasion) pair ('b', 2)"


def _bom_copy(path):
    """A copy of ``path`` behind a UTF-8 byte-order mark, as spreadsheets
    write "CSV UTF-8" files."""
    out = path.with_name("bom-" + path.name)
    out.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return out


class TestByteOrderMark:
    """A file behind a byte-order mark reads to the arrays of the plain
    file, on the bulk parse and on the row scan (a quoted id forces it)."""

    @pytest.mark.parametrize("parse", ["bulk", "row scan"])
    def test_main(self, tmp_path, rng, monkeypatch, parse):
        p = tmp_path / "m.csv"
        data_model.write_main_csv(p, _main_dataset(rng))
        if parse == "row scan":
            p = _quote_first_id(p)
        taken = _spy_bulk(monkeypatch)
        plain = data_model.read_main_csv(p)
        bom = data_model.read_main_csv(_bom_copy(p))
        assert taken == [parse == "bulk"] * 2
        _assert_same_arrays(plain, bom, ("time", "event", "z", "w", "radii"))

    @pytest.mark.parametrize("parse", ["bulk", "row scan"])
    def test_validation(self, tmp_path, rng, monkeypatch, parse):
        n = 40
        ds = data_model.ValidationDataset(
            *data_model.number_subjects([f"s{i // 4}" for i in range(n)]),
            occasion=np.tile([1, 2, 3, 4], n // 4), x=rng.normal(0.5, 0.3, n),
            z=rng.normal(0.5, 0.1, (n, 2)), w=rng.normal(1.0, 2.0, (n, 1)),
            radii=np.array([90.0, 150.0]))
        p = tmp_path / "v.csv"
        data_model.write_validation_csv(p, ds)
        if parse == "row scan":
            p = _quote_first_id(p)
        taken = _spy_bulk(monkeypatch)
        plain = data_model.read_validation_csv(p)
        bom = data_model.read_validation_csv(_bom_copy(p))
        assert taken == [parse == "bulk"] * 2
        _assert_same_arrays(plain, bom, ("occasion", "x", "z", "w", "radii"))

    def test_writers_write_no_mark(self, tmp_path, rng):
        p = tmp_path / "m.csv"
        data_model.write_main_csv(p, _main_dataset(rng))
        assert p.read_bytes().startswith(b"id,")


class TestDatasetInvariants:
    @pytest.mark.parametrize("subject_ids, codes", [
        (["a", "b"], [1, 0, 1]), (["a", "b"], [0, 2, 1]), (["a"], [0, -1]),
        (["a", "b", "c"], [0, 1, 1]), (["a"], [0, 1])])
    def test_codes_must_number_ids_by_first_row(self, subject_ids, codes):
        with pytest.raises(DataError, match="in order of each subject's first row"):
            data_model.ValidationDataset(
                np.asarray(subject_ids, dtype=object), np.asarray(codes),
                occasion=np.arange(len(codes)), x=np.zeros(len(codes)),
                z=np.zeros((len(codes), 1)), w=np.zeros((len(codes), 1)),
                radii=np.array([90.0]))

    def test_grouping_derived_from_the_codes(self):
        ds = data_model.ValidationDataset(
            *data_model.number_subjects(["b", "a", "b", "c", "a"]),
            occasion=np.arange(5), x=np.zeros(5), z=np.zeros((5, 1)),
            w=np.zeros((5, 1)), radii=np.array([90.0]))
        assert ds.subject_ids.tolist() == ["b", "a", "c"]
        assert ds.subject_codes.tolist() == [0, 1, 0, 2, 1]
        assert row_labels(ds) == ["b", "a", "b", "c", "a"]
        assert ds.n_subjects == 3
        assert [(m, subjects.tolist(), rows.tolist())
                for m, subjects, rows in ds.subject_buckets] == \
            [(1, [2], [[3]]), (2, [0, 1], [[0, 2], [1, 4]])]
        assert {k: v.tolist() for k, v in ds.subject_groups().items()} == \
            {"b": [0, 2], "a": [1, 4], "c": [3]}
        for _, subjects, rows in ds.subject_buckets:
            assert not subjects.flags.writeable and not rows.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), sizes=st.lists(st.integers(1, 5), min_size=1, max_size=12))
    def test_buckets_group_ragged_codes(self, data, sizes):
        """``subject_buckets`` lists each subject once under its row count,
        sizes ascending, each subject's rows in row order, read-only, equal
        to ``subject_groups()``; a subset derives its own."""
        labels = np.repeat([f"s{i}" for i in range(len(sizes))], sizes)
        labels = labels[data.draw(st.permutations(range(len(labels))))]
        ds = data_model.ValidationDataset(
            *data_model.number_subjects(labels), occasion=np.arange(len(labels)),
            x=np.zeros(len(labels)), z=np.zeros((len(labels), 1)),
            w=np.zeros((len(labels), 1)), radii=np.array([90.0]))
        rows = np.flatnonzero(data.draw(st.lists(
            st.booleans(), min_size=len(labels), max_size=len(labels))))
        for d in (ds, ds.subset(rows)) if rows.size else (ds,):
            groups = d.subject_groups()
            assert list(groups) == d.subject_ids.tolist()
            seen = []
            for m, subjects, matrix in d.subject_buckets:
                assert matrix.shape == (len(subjects), m) and len(subjects) > 0
                assert np.all(np.diff(subjects) > 0)
                assert not subjects.flags.writeable and not matrix.flags.writeable
                for s, r in zip(subjects.tolist(), matrix):
                    assert r.tolist() == np.flatnonzero(d.subject_codes == s).tolist()
                    assert r.tolist() == groups[d.subject_ids[s]].tolist()
                seen += subjects.tolist()
            assert sorted(seen) == list(range(d.n_subjects))
            bucket_sizes = [m for m, _, _ in d.subject_buckets]
            assert bucket_sizes == sorted(set(bucket_sizes))

    @pytest.mark.parametrize("ids", [
        np.array([1.5, np.nan, 2.0, np.nan]),
        [1.5, float("nan"), 2.0, float("nan")]], ids=["NumPy", "Python"])
    def test_float_nan_labels_are_one_subject(self, ids):
        # nan equals nothing, and the two nans here are distinct objects.
        subject_ids, codes = data_model.number_subjects(ids)
        assert codes.tolist() == [0, 1, 2, 1]
        assert [str(label) for label in subject_ids] == ["1.5", "nan", "2.0"]

    def test_radii_must_increase(self, rng):
        # A dataset built by hand gets the readers' check, with no file named.
        with pytest.raises(DataError, match="^buffer radii must be strictly increasing$"):
            data_model.MainDataset(
                time=np.array([1.0]),
                event=np.array([1]), z=np.zeros((1, 2)), w=np.zeros((1, 1)),
                radii=np.array([150.0, 90.0]))


class TestRiskSets:
    def test_ordered_times_all_events(self):
        out = risk_set_indices([1.0, 2.0, 3.0], [1, 1, 1])
        sizes = [len(idx) for _, idx in out]
        assert sizes == [3, 2, 1]

    def test_unique_max_event_alone(self):
        out = risk_set_indices([1.0, 2.0, 3.0], [0, 0, 1])
        assert len(out) == 1
        i, idx = out[0]
        assert i == 2 and list(idx) == [2]

    def test_tied_censoring_stays_in_risk_set(self):
        out = risk_set_indices([2.0, 2.0], [1, 0])
        (_, idx), = out
        assert set(idx) == {0, 1}

    def test_matches_brute_force(self, rng):
        time = rng.uniform(0.0, 1.0, 50) + 0.01
        event = rng.integers(0, 2, 50)
        out = dict(risk_set_indices(time, event))
        for i in np.flatnonzero(event == 1):
            expected = set(np.flatnonzero(time >= time[i]))
            assert set(out[int(i)]) == expected

    def test_nested_risk_sets(self, rng):
        time = rng.uniform(0.0, 1.0, 40) + 0.01
        event = np.ones(40, dtype=int)
        out = dict(risk_set_indices(time, event))
        idx = sorted(out, key=lambda i: time[i])
        for a, b in zip(idx, idx[1:]):
            if time[a] < time[b]:
                assert set(out[b]) <= set(out[a])


def _main_dataset(rng, n=40):
    """A small main study; ``write_main_csv`` writes its rows with CRLF."""
    return data_model.MainDataset(
        time=rng.exponential(1.0, n) + 1e-3, event=rng.integers(0, 2, n),
        z=rng.normal(0.5, 0.1, (n, 3)), w=rng.normal(1.0, 2.0, (n, 2)),
        radii=np.array([90.0, 150.0, 270.0]), confounder_names=("w_1", "w_2"))


def _write_variant(tmp_path, name, write, ds, variant):
    """``ds`` written by ``write``, then given the line endings of ``variant``."""
    p = tmp_path / name
    write(p, ds)
    text = p.read_bytes().decode()
    lines = text.split("\r\n")
    body = {"crlf": text, "lf": text.replace("\r\n", "\n"),
            "no final newline": text.replace("\r\n", "\n").rstrip("\n"),
            "header only": lines[0] + "\n"}[variant]
    p.write_bytes(body.encode())
    return p


def _outcome(read, path):
    """What reading ``path`` gives: the dataset, or the DataError text with
    the path left out."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc).replace(str(path), "<path>")


class TestChunkedRead:
    """Any chunk size reads a file to the arrays, subject labels and errors
    of one chunk holding the whole file."""

    MAIN_FIELDS = ("time", "event", "z", "w", "radii")
    VAL_FIELDS = ("occasion", "x", "z", "w", "radii")

    @pytest.mark.parametrize("variant", ["crlf", "lf", "no final newline",
                                         "header only"])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_same_arrays_at_any_chunk_size(self, tmp_path, rng, monkeypatch,
                                           chunk, variant):
        main = _write_variant(tmp_path, "m.csv", data_model.write_main_csv,
                              _main_dataset(rng), variant)
        n = 36
        val = _write_variant(tmp_path, "v.csv", data_model.write_validation_csv,
                             data_model.ValidationDataset(
                                 *data_model.number_subjects(
                                     [f"s{i // 4}" for i in range(n)]),
                                 occasion=np.tile([1, 2, 3, 4], n // 4),
                                 x=rng.normal(0.5, 0.3, n),
                                 z=rng.normal(0.5, 0.1, (n, 2)),
                                 w=rng.normal(1.0, 2.0, (n, 1)),
                                 radii=np.array([90.0, 150.0])), variant)
        taken = _spy_bulk(monkeypatch)
        whole = [data_model.read_main_csv(main), data_model.read_validation_csv(val)]
        monkeypatch.setattr(data_model, "_CHUNK_CHARS", chunk)
        chunked = [data_model.read_main_csv(main), data_model.read_validation_csv(val)]
        # A header-only file has no rows to parse in bulk.
        assert taken == [variant != "header only"] * 4
        _assert_same_arrays(whole[0], chunked[0], self.MAIN_FIELDS)
        _assert_same_arrays(whole[1], chunked[1], self.VAL_FIELDS)
        assert len(whole[0]) == (0 if variant == "header only" else 40)

    def test_row_straddling_a_chunk_boundary(self, tmp_path, rng, monkeypatch):
        p = _write_variant(tmp_path, "m.csv", data_model.write_main_csv,
                           _main_dataset(rng), "lf")
        rows = p.read_text().split("\n")[1:]
        # The first chunk starts after the header and ends inside row 3.
        chunk = len(rows[0]) + len(rows[1]) + 2 + len(rows[2]) // 2
        whole = data_model.read_main_csv(p)
        monkeypatch.setattr(data_model, "_CHUNK_CHARS", chunk)
        taken = _spy_bulk(monkeypatch)
        _assert_same_arrays(whole, data_model.read_main_csv(p), self.MAIN_FIELDS)
        assert taken == [True]

    ROW = TestBulkParse.ROW
    GOOD = 600  # rows ahead of the fault: past the header's read buffer too

    @pytest.mark.parametrize("tail, error", [
        (b"\n" + ROW.encode(), "row 602: expected 6 cells, got 0"),
        (b"b,2.0,0,0.4,0.5\n", "row 602: expected 6 cells, got 5"),
        (b"b,2.0,0,0.4,0.5,1.0,7\n", "row 602: expected 6 cells, got 7"),
        (b"a,1.0,1,#,0.6,2.0\n", "row 602, column 'z_90': non-numeric or missing cell"),
        # The blank line's missing commas make up for the long row's extra
        # ones, so only the row count tells the bulk parse a row is off.
        (b"b,1,1,1,1,1,1,1,1,1,1\n\n", "row 602: expected 6 cells, got 11"),
        (b'b,1.0,0,"0.4",0.5,1.0\n', None),
        (b"b,1.0,0,0.4,0.5,1.\xff\n", "not UTF-8 text: byte 0xff (invalid start byte)"),
    ], ids=["blank line", "short row", "long row", "non-number",
            "long row and blank line", "quote", "non-UTF-8 byte"])
    @pytest.mark.parametrize("chunk", [7, 64, data_model._CHUNK_CHARS])
    def test_later_chunk_falls_back_to_row_scan(self, tmp_path, monkeypatch,
                                                chunk, tail, error):
        # At 7 and 64 characters the fault sits in a later chunk than the
        # first; at the default size the one chunk holds it.
        p = tmp_path / "m.csv"
        p.write_bytes((MAIN_HEADER + self.ROW * self.GOOD).encode() + tail)
        monkeypatch.setattr(data_model, "_CHUNK_CHARS", chunk)
        taken = _spy_bulk(monkeypatch)
        if error is None:
            ds = data_model.read_main_csv(p)
            assert len(ds) == self.GOOD + 1 and ds.z[-1].tolist() == [0.4, 0.5]
        else:
            with pytest.raises(DataError) as err:
                data_model.read_main_csv(p)
            assert str(err.value) == f"{p}: {error}"
        assert taken == [False]


_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.floats(min_value=-1e6, max_value=1e6).map("{:.5e}".format),
    st.integers(-10, 10).map(str),
    st.sampled_from(["nan", "inf", "-inf", "", "x", "1_0", " 2.5", "1e999"]))


@st.composite
def _main_bodies(draw):
    """Main-study file bodies: mostly well formed, sometimes not."""
    rows = []
    for i in range(draw(st.integers(1, 6))):
        cells = [f"s{i}", draw(st.sampled_from(["1.5", "0.25", "3", "0", "-1"])),
                 draw(st.sampled_from(["0", "1", "1.0", "2"]))]
        cells += [draw(_CELL) for _ in range(3)]
        extra = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        cells = cells[:len(cells) + extra] if extra < 0 else cells + ["7"] * extra
        rows.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            rows.append("")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(rows) + draw(st.sampled_from([eol, ""]))


@settings(max_examples=150, deadline=None)
@given(body=_main_bodies(), chunk=st.integers(1, 80))
def test_bulk_parse_matches_row_scan(body, chunk):
    """On any body, the chunked bulk parse and the row scan give the same
    arrays, or the same DataError."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data_model, "_CHUNK_CHARS", chunk):
        p = Path(tmp) / "m.csv"
        p.write_bytes((MAIN_HEADER + body).encode())
        bulk = _outcome(data_model.read_main_csv, p)
        scanned = _outcome(data_model.read_main_csv, _quote_first_id(p))
    if isinstance(bulk, str) or isinstance(scanned, str):
        assert bulk == scanned
    else:
        for name in ("time", "event", "z", "w"):
            x, y = getattr(bulk, name), getattr(scanned, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


_LEAD = {"main": (["1.5", "0.25", "3", "2e-3"], ["0", "1", "1.0"]),
         "validation": (["1", "2.0", "3"], ["0.5", "-1.25", "7"])}
_BAD_LEAD = {"main": (["0", "-1", "nan", "inf", "x", ""],
                      ["2", "0.5", "-1", "nan", "x", ""]),
             "validation": (["1.5", "1e19", "nan", "-inf", "x", ""],
                            ["nan", "inf", "1e999", "x", ""])}
_CELL_DEFECTS = ["nan", "inf", "-inf", "", "x", "1_0", " 2.5", "1e999"]
_DEFECTS = ["none", "quote", "lead", "cell", "short row", "long row",
            "blank line", "byte", "duplicate"]


def _study_file(kind, body):
    """A study file's bytes: the header of ``kind``, then ``body``."""
    header = MAIN_HEADER if kind == "main" else VAL_HEADER
    return kind, (header + body).encode("utf-8", "surrogateescape")


@st.composite
def _one_defect_files(draw):
    """A study file of either kind, well formed or with one defect; a quoted
    cell is no defect, but the bulk parse leaves it to the row scan."""
    kind = draw(st.sampled_from(["main", "validation"]))
    rows = []
    for i in range(draw(st.integers(0, 7))):
        sid, occasion = (f"s{i}", draw(st.sampled_from(_LEAD["main"][0]))) \
            if kind == "main" else (f"s{i // 3}", str(i % 3 + 1))
        rows.append([sid, occasion, draw(st.sampled_from(_LEAD[kind][1])),
                     *(draw(_CELL.filter(lambda c: c not in _CELL_DEFECTS))
                       for _ in range(3))])
    defect = draw(st.sampled_from(_DEFECTS)) if len(rows) > 1 else "none"
    i = draw(st.integers(0, len(rows) - 1)) if rows else 0
    col = draw(st.integers(1, 5))
    if defect == "quote":
        rows[i][col] = f'"{rows[i][col]}"'
    elif defect == "lead":
        k = draw(st.integers(1, 2))
        rows[i][k] = draw(st.sampled_from(_BAD_LEAD[kind][k - 1]))
    elif defect == "cell":
        rows[i][draw(st.integers(3, 5))] = draw(st.sampled_from(_CELL_DEFECTS))
    elif defect == "short row":
        rows[i].pop()
    elif defect == "long row":
        rows[i].append("7")
    elif defect == "blank line":
        rows.insert(i, [])
    elif defect == "byte":
        rows[i][col] += "\udcff"  # an undecodable byte, once encoded below
    elif defect == "duplicate":
        j = draw(st.integers(0, len(rows) - 1).filter(lambda j: j != i))
        if kind == "validation":
            rows[j][:2] = rows[i][:2]
        else:  # a main study takes repeated ids
            rows[j][0] = rows[i][0]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    body = eol.join(",".join(r) for r in rows)
    if rows and draw(st.booleans()):
        body += eol
    return _study_file(kind, body)


@settings(max_examples=150, deadline=None)
@given(study=_one_defect_files(), chunk=st.sampled_from([1, 7, 64, None]))
# One example per rule, so that each is checked on every run.
@example(study=_study_file("main", "a,1.0,1,0.5,0.6,2.0\nb,0,0,0.4,0.5,1.0\n"),
         chunk=None)
@example(study=_study_file("main", "a,1.0,1,0.5,0.6,2.0\nb,2.0,2,0.4,0.5,1.0\n"),
         chunk=None)
@example(study=_study_file("validation",
                           "a,1,0.5,0.1,0.2,1.0\na,2.5,0.5,0.1,0.2,1.0\n"),
         chunk=None)
@example(study=_study_file("validation",
                           "a,1,0.5,0.1,0.2,1.0\na,2,nan,0.1,0.2,1.0\n"),
         chunk=None)
@example(study=_study_file("validation", "a,1,0.5,0.1,0.2,1.0\n"
                           "b,1,0.5,0.1,0.2,1.0\na,1.0,0.6,0.1,0.2,1.0\n"),
         chunk=None)
def test_readers_match_seed_readers(study, chunk):
    """On a file with at most one defect, the one reader gives the arrays,
    dtypes and subject labels of the two readers it replaced, or their
    DataError."""
    kind, data = study
    read = f"read_{kind}_csv"
    fields = (("time", "event") if kind == "main" else ("occasion", "x")) \
        + ("z", "w", "radii")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data_model, "_CHUNK_CHARS",
                              chunk or data_model._CHUNK_CHARS):
        p = Path(tmp) / "study.csv"
        p.write_bytes(data)
        new = _outcome(getattr(data_model, read), p)
        old = _outcome(getattr(seed_csv, read), p)
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
    else:
        _assert_same_arrays(new, old, fields)
        if kind == "validation":
            assert new.subject_ids.dtype == old.subject_ids.dtype == object


def test_bad_cell_outranks_an_earlier_duplicate(tmp_path):
    """Every cell parses before the duplicate check, so a file with both
    defects names the bad cell, wherever the duplicate falls."""
    p = write(tmp_path, "v.csv", VAL_HEADER + "a,1,0.5,0.1,0.2,1.0\n"
              + "a,1,0.6,0.1,0.2,1.0\n" + "b,1,0.5,x,0.2,1.0\n")
    with pytest.raises(DataError) as err:
        data_model.read_validation_csv(p)
    assert str(err.value) == (f"{p}: row 4, column 'z_90': "
                              "non-numeric or missing cell")


def _nine_radii_main(rng, n):
    """A main study of ``n`` rows over the default radii and one confounder."""
    return data_model.MainDataset(
        time=rng.exponential(1.0, n) + 1e-3, event=rng.integers(0, 2, n),
        z=rng.normal(0.5, 0.1, (n, 9)), w=rng.normal(1.0, 2.0, (n, 1)),
        radii=np.asarray(data_model.DEFAULT_RADII))


def _traced_read_main(path):
    """The dataset ``read_main_csv`` reads from ``path``, and the bytes
    that stay traced after the read and at its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = data_model.read_main_csv(path)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ds, live - base, peak - base


def test_read_main_peak_memory(tmp_path, rng):
    """Reading holds one chunk of text, not the whole file: the traced peak
    stays within 2.5 times what the returned dataset keeps live."""
    n = 20_000
    p = tmp_path / "m.csv"
    data_model.write_main_csv(p, _nine_radii_main(rng, n))
    ds, live, peak = _traced_read_main(p)
    assert len(ds) == n
    assert peak <= 2.5 * live


def test_read_main_builds_no_labels(tmp_path, rng):
    """A main-study read builds no ids: on 40,000 rows the traced peak
    stays within the numeric cells held twice (the parsed chunks and the
    joined columns) and a mebibyte.  Measured: a peak of 7.35 MiB against a
    bound of 8.32 MiB.  A reader that kept the 40,000 id strings (2.4 MiB
    of them) peaked at 10.09 MiB, and one that built them and dropped them
    at 9.76 MiB."""
    n = 40_000
    p = tmp_path / "m.csv"
    data_model.write_main_csv(p, _nine_radii_main(rng, n))
    ds, _, peak = _traced_read_main(p)
    arrays = sum(a.nbytes for a in (ds.time, ds.event, ds.z, ds.w))
    assert len(ds) == n
    assert peak <= 2 * arrays + 2 ** 20


_ODD_TEXT = [",", '"', "\r", "\n", "\r\n", "", 'say "hi"', "a,b", "ünï", "名前"]
_ODD_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1]


def _study(kind, block, n, id_pool, float_pool, radii, names, seed):
    """A main (``kind`` "main") or validation study of ``n`` rows whose
    float cells, and a validation study's subject labels, are drawn from
    the pools (a main study takes no ``id_pool``), and the block size to
    write it with."""
    rng = np.random.default_rng(seed)
    cells = np.asarray(float_pool)[
        rng.integers(0, len(float_pool), (n, 1 + len(radii) + len(names)))]
    z, w = cells[:, 1:1 + len(radii)], cells[:, 1 + len(radii):]
    common = dict(z=z, w=w, radii=np.asarray(radii), confounder_names=tuple(names))
    if kind == "main":
        return kind, block, data_model.MainDataset(
            time=cells[:, 0], event=rng.integers(0, 2, n), **common)
    picks = rng.integers(0, len(id_pool), n)
    if isinstance(id_pool, np.ndarray):  # labels of the pool's dtype
        ids = id_pool[picks]
    else:
        ids = np.empty(n, dtype=object)
        ids[:] = [id_pool[i] for i in picks]
    return kind, block, data_model.ValidationDataset(
        *data_model.number_subjects(ids), occasion=rng.integers(-3, 9, n),
        x=cells[:, 0], **common)


_TEXT = st.one_of(st.sampled_from(_ODD_TEXT), st.text(max_size=5))


@st.composite
def _studies(draw):
    block = draw(st.sampled_from([1, 3, data_model._WRITE_ROWS]))
    p_z = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["main", "validation"]))
    return _study(
        kind=kind, block=block,
        n=draw(st.sampled_from([0, 1, block, block + 1, 3 * block + 2])),
        id_pool=None if kind == "main" else draw(
            st.lists(st.one_of(_TEXT, st.integers(), st.floats(), st.none()),
                     min_size=1, max_size=8)),
        float_pool=draw(st.lists(st.one_of(st.sampled_from(_ODD_FLOATS), st.floats()),
                                 min_size=1, max_size=8)),
        radii=np.cumsum(draw(st.lists(st.sampled_from([90.0, 60.0, 0.5]),
                                      min_size=p_z, max_size=p_z))),
        names=draw(st.lists(_TEXT, min_size=1, max_size=3)),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=80, deadline=None)
@given(study=_studies())
@example(study=_study("main", data_model._WRITE_ROWS, 3 * data_model._WRITE_ROWS + 2,
                      None, _ODD_FLOATS, [90.0, 150.5, 270.0],
                      ["w_1", "a,b", 'q"'], seed=1))
@example(study=_study("validation", 3, 11, _ODD_TEXT + [7], _ODD_FLOATS,
                      [90.0], ["w_1"], seed=2))
# NumPy float labels: csv.writer writes str(), which differs from repr().
# The pool holds each scalar once, so a nan label is one subject.
@example(study=_study("validation", 3, 7,
                      np.array(list(np.array([1.5, -0.0, np.nan])), dtype=object),
                      [0.25], [90.0], ["w_1"], seed=3))
def test_writers_match_seed_writers(study):
    """At any block size the writers give the bytes of the per-row
    ``csv.writer`` loops they replaced."""
    kind, block, ds = study
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data_model, "_WRITE_ROWS", block):
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        getattr(data_model, f"write_{kind}_csv")(new, ds)
        getattr(seed_csv, f"write_{kind}_csv")(old, ds)
        assert new.read_bytes() == old.read_bytes()


def test_write_main_peak_memory(tmp_path, rng):
    """Writing holds one block of rows, not the whole file: four times the
    rows raise the traced peak by at most a quarter."""
    def peak(n):
        ds = _nine_radii_main(rng, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            data_model.write_main_csv(tmp_path / f"m{n}.csv", ds)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(16_384) <= 1.25 * peak(4_096)
