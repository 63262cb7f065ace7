import csv
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasaudit import data
from biasaudit.data import (
    CodeMatrix,
    Dataset,
    GroupPair,
    attack_responses,
    bona_fide_responses,
    group_pairs,
    load_codes_csv,
    load_csv,
    save_csv,
)
from biasaudit.errors import (
    EmptyDatasetError,
    InsufficientDataError,
    ParameterError,
    RowError,
    SchemaError,
    UnknownGroupError,
)


class TestLoadCsv:
    def test_basic_row(self, write_csv):
        path = write_csv("sample_id,group,class,response\ns1,Asian,bonafide,0.031\n")
        ds = load_csv(path)
        assert len(ds) == 1
        assert ds.sample_ids[0] == "s1"
        assert ds.groups()[ds.group_codes[0]] == "Asian"
        assert ds.bona_fide[0]
        assert ds.responses[0] == 0.031

    def test_class_names_case_insensitive(self, write_csv):
        path = write_csv(
            "sample_id,group,class,response\n"
            "s1,A,BonaFide,0.1\n"
            "s2,A,bona_fide,0.1\n"
            "s3,A,ATTACK,0.1\n"
        )
        ds = load_csv(path)
        assert ds.bona_fide.tolist() == [True, True, False]

    def test_byte_order_mark_accepted(self, write_csv):
        path = write_csv("\ufeffsample_id,group,class,response\ns1,A,bonafide,0.5\n")
        ds = load_csv(path)
        assert ds.sample_ids == ("s1",)
        assert ds.responses.tolist() == [0.5]

    def test_crlf_accepted(self, write_csv):
        path = write_csv(
            "sample_id,group,class,response\r\ns1,A,bonafide,0.5\r\ns2,B,attack,0.7\r\n"
        )
        ds = load_csv(path)
        assert len(ds) == 2
        assert ds.responses[1] == 0.7

    def test_negative_response_reports_line(self, write_csv):
        path = write_csv(
            "sample_id,group,class,response\ns1,A,bonafide,0.1\ns2,A,bonafide,-0.1\n"
        )
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert exc.value.line == 3

    def test_row_error_reports_physical_line(self, write_csv):
        # a bad record is reported at the line where it starts, and a quoted
        # field that spans lines 2-3 puts the next record on line 4
        path = write_csv(
            "sample_id,group,class,response\n"
            "s1,A,bonafide,0.1\n"
            '"s\n2",A,bonafide,-0.1\n'
        )
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert (exc.value.path, exc.value.line) == (path, 3)
        assert str(exc.value) == f"{path}: line 3: response must be finite and >= 0, got '-0.1'"
        path = write_csv(
            "sample_id,group,class,response\n"
            '"s\n1",A,bonafide,0.1\n'
            "s2,A,bonafide,-0.1\n"
        )
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert exc.value.line == 4

    def test_non_numeric_response_reports_line(self, write_csv):
        path = write_csv("sample_id,group,class,response\ns1,A,bonafide,zero\n")
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert exc.value.line == 2

    def test_non_finite_response_rejected(self, write_csv):
        path = write_csv("sample_id,group,class,response\ns1,A,bonafide,inf\n")
        with pytest.raises(RowError):
            load_csv(path)

    def test_unknown_class_rejected(self, write_csv):
        path = write_csv("sample_id,group,class,response\ns1,A,imposter,0.1\n")
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert "imposter" in str(exc.value)

    def test_missing_column_named_in_error(self, write_csv):
        path = write_csv("sample_id,group,class\ns1,A,bonafide\n")
        with pytest.raises(SchemaError) as exc:
            load_csv(path)
        assert "response" in str(exc.value)

    def test_extra_column_named_in_error(self, write_csv):
        path = write_csv("sample_id,group,class,response,notes\ns1,A,bonafide,0.1,x\n")
        with pytest.raises(SchemaError) as exc:
            load_csv(path)
        assert "notes" in str(exc.value)

    def test_wrong_field_count_reports_line(self, write_csv):
        path = write_csv("sample_id,group,class,response\ns1,A,bonafide\n")
        with pytest.raises(RowError) as exc:
            load_csv(path)
        assert exc.value.line == 2

    def test_zero_byte_file(self, write_csv):
        path = write_csv("")
        with pytest.raises(EmptyDatasetError):
            load_csv(path)

    def test_header_only_file(self, write_csv):
        path = write_csv("sample_id,group,class,response\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(path)

    def test_blank_lines_tolerated(self, write_csv):
        path = write_csv(
            "sample_id,group,class,response\n\ns1,A,bonafide,0.1\n\ns2,A,attack,0.2\n"
        )
        assert len(load_csv(path)) == 2

    def test_400_rows_two_groups(self, write_csv):
        lines = ["sample_id,group,class,response"]
        for i in range(200):
            lines.append(f"a{i},A,bonafide,{0.01 + i * 1e-4}")
        for i in range(200):
            lines.append(f"b{i},B,bonafide,{0.02 + i * 1e-4}")
        text = "\n".join(lines) + "\n"
        path = write_csv(text)
        # independent count: the file really has 400 data lines
        assert len(text.strip().splitlines()) - 1 == 400
        ds = load_csv(path)
        assert len(ds) == 400
        assert dict(zip(ds.groups(), np.bincount(ds.group_codes).tolist())) == {
            "A": 200,
            "B": 200,
        }

    def test_duplicate_sample_id_warns(self, write_csv, caplog):
        path = write_csv(
            "sample_id,group,class,response\ns1,A,bonafide,0.1\ns1,A,bonafide,0.2\n"
        )
        with caplog.at_level("WARNING"):
            ds = load_csv(path)
        assert len(ds) == 2
        assert any("sample_id" in m for m in caplog.messages)


@pytest.mark.parametrize("loader", ["responses", "codes"])
def test_group_labels_interned(loader, tmp_path):
    """A loader keeps one str per distinct group label, so the length of the
    labels costs nothing per row."""
    n = 20_000

    def load_peak(width: int) -> int:
        groups = [c * width for c in "ab"]
        if loader == "responses":
            rows = [f"s{i:05d},{groups[i % 2]},bonafide,{i % 97}.5" for i in range(n)]
            text, load = "sample_id,group,class,response\n", load_csv
        else:
            rows = [f"s{i:05d},{groups[i % 2]},{i % 4}" for i in range(n)]
            text, load = "#K=4\nsample_id,group,c0\n", load_codes_csv
        path = tmp_path / f"{loader}-{width}.csv"
        path.write_text(text + "\n".join(rows) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            load(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(load_peak(60) - load_peak(1)) < 8 * n


def _columns(ds: Dataset) -> tuple:
    """A dataset's columns, its responses as their bits, so that -0.0 and
    0.0 differ."""
    return (
        ds.sample_ids,
        ds.groups(),
        ds.group_codes.tolist(),
        ds.bona_fide.tolist(),
        ds.responses.view(np.int64).tolist(),
    )


# every accepted class spelling, each letter in either case, maybe padded
_CLASS_TEXT = st.tuples(
    st.sampled_from(["", " "]),
    st.sampled_from(sorted(data._BONA_FIDE_NAMES | data._ATTACK_NAMES)).flatmap(
        lambda name: st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in name))
    ),
    st.sampled_from(["", " "]),
).map(lambda t: t[0] + "".join(t[1]) + t[2])
_RESPONSE_TEXT = st.one_of(
    st.floats(0.0, 1e6).map(repr),  # -0.0 among them
    st.floats(0.0, 1e6).map(lambda v: f"{v:e}"),
    st.sampled_from(["1e-3", "+0.5", "-0", "0", "0.", ".5", "1E3", " 0.25 ", "\x1c1_0.5", "+.5e+1"]),
)
_PLAIN_ROW = st.tuples(
    st.text("sS0189 _-.", min_size=1, max_size=6).filter(str.strip),
    st.sampled_from(["A", "A ", " A", "b", "Zoë", "x y"]),
    _CLASS_TEXT,
    _RESPONSE_TEXT,
).map(",".join)


@st.composite
def _plain_tables(draw) -> str:
    """A valid response CSV with no quote, CR or NUL."""
    lines = ["sample_id,group,class,response"]
    for row in draw(st.lists(_PLAIN_ROW, min_size=1, max_size=40)):
        lines += [""] * draw(st.integers(0, 2)) + [row]  # blank lines tolerated
    bom = "﻿" if draw(st.booleans()) else ""
    end = "\n" * draw(st.integers(0, 2))  # no final newline, one, or a blank line
    return bom + "\n".join(lines) + end


_HEADER = "sample_id,group,class,response\n"
_NUL_ERROR = (
    "{path}: line 3: bad response '0.5\\x00'"
    if sys.version_info >= (3, 11)
    else "{path}: line 3: line contains NUL"  # csv.reader refuses NUL before 3.11
)


class TestBlockReader:
    """load_csv reads a plain file block by block, and any other file, or a
    plain file with a fault, row by row with csv.reader, the one reader that
    raises; both give the same columns."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_plain_tables(), st.integers(1, 64))
    def test_blocks_give_the_row_readers_columns(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("plain") / "responses.csv"
        path.write_text(text, encoding="utf-8")
        # blocks of a few characters put a block edge in every kind of field
        with mock.patch.object(data, "_BLOCK", block):
            plain = data._plain_columns(path)
            assert plain is not None
            assert _columns(load_csv(path)) == _columns(Dataset(*plain))
        assert _columns(Dataset(*plain)) == _columns(Dataset(*data._reader_columns(path)))

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ('"s\n1",A,bonafide,0.1\ns2,A,bonafide,-1\n', RowError,
             "{path}: line 4: response must be finite and >= 0, got '-1'"),
            ('"s1","A",bonafide,0.1\ns2,A,"imposter",0.1\n', RowError,
             "{path}: line 3: unknown class 'imposter'"),
            ("s1,A,bonafide,0.5\r\ns2,A,imposter,0.1\r\n", RowError,
             "{path}: line 3: unknown class 'imposter'"),
            ("s1,A,bonafide,0.5\r\n\r\ns2,A,bonafide\r\n", RowError,
             "{path}: line 4: expected 4 fields, got 3"),
            ("s1,A,bonafide,0.5\ns2,A,bonafide,0.5\x00\n", RowError, _NUL_ERROR),
            ("s1,A,bonafide,0.5\ns2,A,bonafide\n", RowError,
             "{path}: line 3: expected 4 fields, got 3"),
            ("s1,A,bonafide,0.5\ns2,A,bonafide,0.5,x\n", RowError,
             "{path}: line 3: expected 4 fields, got 5"),
            # three fields, then five: eight in all, still refused at line 2
            ("s1,A,bonafide\n0.5,s2,A,bonafide,0.5\n", RowError,
             "{path}: line 2: expected 4 fields, got 3"),
            ("s1,A,bonafide,0.5\n ,A,bonafide,0.5\n", RowError, "{path}: line 3: empty sample_id"),
            ("s1, ,bonafide,0.5\n", RowError, "{path}: line 2: empty group"),
            ("s1,A,bona fide,0.5\ns2,A,Imposter,0.5\n", RowError,
             "{path}: line 3: unknown class 'Imposter'"),
            ("s1,A,bonafide,zero\n", RowError, "{path}: line 2: bad response 'zero'"),
            ("s1,A,bonafide,nan\n", RowError,
             "{path}: line 2: response must be finite and >= 0, got 'nan'"),
            ("s1,A,bonafide,1e999\n", RowError,
             "{path}: line 2: response must be finite and >= 0, got '1e999'"),
            ("s1,A,bonafide,-0.5\n", RowError,
             "{path}: line 2: response must be finite and >= 0, got '-0.5'"),
            (" \n", RowError, "{path}: line 2: expected 4 fields, got 1"),
            ("\n\n", EmptyDatasetError, "{path}: no data rows"),
        ],
        ids=[
            "quoted-multiline", "quoted", "crlf-class", "crlf-short-row", "nul",
            "short-row", "long-row", "balanced-miscount", "empty-sample-id", "empty-group",
            "unknown-class", "bad-response", "nan", "overflow", "negative",
            "blank-space-line", "blank-lines-only",
        ],
    )
    def test_fault_named_as_the_row_reader_names_it(self, tmp_path, text, error, message):
        path = tmp_path / "responses.csv"
        path.write_text(_HEADER + text, encoding="utf-8", newline="")
        assert data._plain_columns(path) is None
        with pytest.raises(error) as exc:
            load_csv(path)
        assert type(exc.value) is error
        assert str(exc.value) == message.format(path=path)

    def test_quoted_and_crlf_files_read_like_plain_ones(self, tmp_path):
        rows = ["s1,A,bonafide,0.5", "s2,B,Attack,-0.0", "s3,A,bona fide,1e-3"]
        plain = tmp_path / "plain.csv"
        plain.write_text(_HEADER + "\n".join(rows) + "\n", encoding="utf-8")
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(
            "\r\n".join(",".join(f'"{f}"' for f in r.split(",")) for r in [_HEADER[:-1], *rows])
            + "\r\n",
            encoding="utf-8",
            newline="",
        )
        assert data._plain_columns(quoted) is None
        assert _columns(load_csv(quoted)) == _columns(load_csv(plain))

    def test_line_over_the_limit_handed_on_at_once(self, tmp_path):
        """A data line longer than csv's field limit, with no newline after
        it, is handed to csv.reader as soon as the block reader has read past
        the limit, not carried from block to block to the end of the file."""
        limit = csv.field_size_limit()
        path = tmp_path / "responses.csv"
        path.write_text(_HEADER + "s1,A,bonafide,0.5\n" + "s" * (40 * limit), encoding="utf-8")
        tracemalloc.start()
        try:
            assert data._plain_columns(path) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * limit  # the line itself is 40 times the limit
        where = re.escape(str(path))
        with pytest.raises(
            RowError, match=rf"^{where}: line 3: field larger than field limit \({limit}\)$"
        ):
            load_csv(path)


_TABLES = {
    "responses": (load_csv, _HEADER, "s{i},A,bonafide,0.5\n"),
    "codes": (load_codes_csv, "#K=4\nsample_id,group,c0\n", "s{i},A,{i}\n"),
}


@pytest.mark.parametrize("loader", _TABLES)
class TestUnreadableFile:
    """A file that is not UTF-8, or holds a field over csv's size limit,
    raises RowError at the line that holds the fault."""

    def test_not_utf8(self, tmp_path, loader):
        load, header, row = _TABLES[loader]
        rows = "".join(row.format(i=i) for i in range(3)).encode()
        path = tmp_path / "table.csv"
        # Latin-1 'é' in the last row; CRLF line ends count as one line each
        path.write_bytes(header.encode().replace(b"\n", b"\r\n") + rows + b"s\xe9,A,")
        line = header.count("\n") + 4
        where = re.escape(str(path))
        with pytest.raises(
            RowError, match=rf"^{where}: line {line}: not UTF-8 text \(byte 0xe9\)$"
        ):
            load(path)

    @pytest.mark.parametrize("bad_line", [6, 3_000])
    def test_bad_byte_reported_before_a_bad_header(self, tmp_path, loader, bad_line):
        # the whole file is decoded before the header is read, so the byte
        # wins wherever it lies, also past the first blocks csv.reader reads
        load, header, row = _TABLES[loader]
        header = header.replace(",class,", ",klass,").replace(",group,", ",grp,")
        lines = header.encode().split(b"\n")[:-1]
        lines += [row.format(i=i % 4).rstrip("\n").encode() for i in range(4_000)]
        lines[bad_line - 1] = b"\xff" + lines[bad_line - 1]
        path = tmp_path / "table.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        where = re.escape(str(path))
        with pytest.raises(
            RowError, match=rf"^{where}: line {bad_line}: not UTF-8 text \(byte 0xff\)$"
        ):
            load(path)

    def test_field_over_the_csv_limit(self, tmp_path, loader):
        load, header, row = _TABLES[loader]
        limit = csv.field_size_limit()
        path = tmp_path / "table.csv"
        fits = row.format(i=0).replace("s0", "s" * limit, 1)
        path.write_text(header + fits, encoding="utf-8")
        assert len(load(path)) == 1
        too_long = row.format(i=1).replace("s1", "s" * (limit + 1), 1)
        path.write_text(header + fits + too_long, encoding="utf-8")
        line = header.count("\n") + 2
        where = re.escape(str(path))
        with pytest.raises(
            RowError, match=rf"^{where}: line {line}: field larger than field limit \({limit}\)$"
        ):
            load(path)


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path, make_dataset):
        rng = np.random.default_rng(90210)
        rows = []
        for i in range(120):
            group = ("North", "South", "East")[i % 3]
            cls = "bonafide" if i % 4 else "attack"
            rows.append((group, cls, float(rng.lognormal(-3.5, 0.6))))
        ds = make_dataset(rows)
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert len(back) == len(ds)
        assert back.sample_ids == ds.sample_ids
        assert back.groups() == ds.groups()
        assert back.group_codes.tolist() == ds.group_codes.tolist()
        assert back.bona_fide.tolist() == ds.bona_fide.tolist()
        # exact, not approximate
        assert back.responses.tolist() == ds.responses.tolist()


class TestDatasetInvariants:
    def test_partition_property(self, make_dataset):
        rng = np.random.default_rng(7)
        rows = [
            (("A", "B", "C", "D")[int(rng.integers(4))], "bonafide", rng.random())
            for _ in range(257)
        ]
        ds = make_dataset(rows)
        per_group = [np.flatnonzero(ds.group_codes == c) for c in range(len(ds.groups()))]
        assert sum(len(idx) for idx in per_group) == len(ds)
        seen = sorted(i for idx in per_group for i in idx.tolist())
        assert seen == list(range(len(ds)))
        # and the sorted per-group arrays partition the responses the same way
        pooled = sorted(
            v for g in ds.groups() for v in bona_fide_responses(ds, g).tolist()
        )
        assert pooled == sorted(r for _, _, r in rows)

    def test_groups_sorted(self, make_dataset):
        ds = make_dataset([("zeta", "bonafide", 0.1), ("alpha", "bonafide", 0.2)])
        assert ds.groups() == ["alpha", "zeta"]

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            Dataset([], [], [], [])

    def test_record_validation(self):
        with pytest.raises(ParameterError):
            Dataset([""], ["A"], [True], [0.1])
        with pytest.raises(ParameterError):
            Dataset(["s1"], [""], [True], [0.1])
        with pytest.raises(ParameterError):
            Dataset(["s1"], ["A"], [True], [-0.5])
        with pytest.raises(ParameterError):
            Dataset(["s1"], ["A"], [True], [float("nan")])
        with pytest.raises(ParameterError):
            Dataset(["s1"], ["A"], ["bonafide"], [0.1])  # class must be a bool mask
        with pytest.raises(ParameterError):
            Dataset(["s1", "s2"], ["A"], [True, True], [0.1, 0.2])  # unequal lengths


    def test_pipe_in_group_label_rejected(self):
        # pair keys join two labels with "|": (x, y|z) and (x|y, z) would
        # both be "x|y|z"
        with pytest.raises(ParameterError, match=r"'x\|y'"):
            Dataset(["s1", "s2", "s3", "s4"], ["x|y", "z", "x", "y|z"], [True] * 4, [0.1] * 4)

    @pytest.mark.parametrize("label", ["a\x01b", "tab\there", "two\nlines", "del\x7f", "nel\x85"])
    def test_control_character_in_group_label_rejected(self, label):
        # an SVG title or legend may hold no control character
        with pytest.raises(ParameterError, match=re.escape(repr(label))):
            Dataset(["s1", "s2"], [label, "z"], [True] * 2, [0.1] * 2)
        with pytest.raises(ParameterError, match=re.escape(repr(label))):
            CodeMatrix([(0,), (1,)], [label, "z"], k=2)

    def test_control_character_rejected_from_either_csv(self, write_csv):
        # a quoted field may hold a newline; the csv reader keeps it
        responses = write_csv('sample_id,group,class,response\ns1,"x\ny",bonafide,0.1\n')
        with pytest.raises(ParameterError, match=re.escape(repr("x\ny"))):
            load_csv(responses)
        codes = write_csv("#K=4\nsample_id,group,c0\ns1,a\x01,1\ns2,b,2\n")
        with pytest.raises(ParameterError, match=re.escape(repr("a\x01"))):
            load_codes_csv(codes)

    def test_other_unicode_labels_accepted(self):
        labels = ["Zoë", "R&D", "zero\u200bwidth", 'a"b']  # U+200B is format (Cf), not Cc
        ds = Dataset(["s1", "s2", "s3", "s4"], labels, [True] * 4, [0.1] * 4)
        assert ds.groups() == sorted(labels)


class TestResponseQueries:
    def test_sorted_filtered(self, make_dataset):
        rng = np.random.default_rng(55)
        rows = []
        for _ in range(300):
            g = ("A", "B")[int(rng.integers(2))]
            cls = ("bonafide", "attack")[int(rng.integers(2))]
            rows.append((g, cls, float(rng.random())))
        ds = make_dataset(rows)
        got = bona_fide_responses(ds, "A")
        # brute force over the raw rows
        want = sorted(r for g, c, r in rows if g == "A" and c == "bonafide")
        assert got.tolist() == want
        assert attack_responses(ds, "B").tolist() == sorted(
            r for g, c, r in rows if g == "B" and c == "attack"
        )

    def test_mixed_group_counts(self, make_dataset):
        rows = [("A", "bonafide", 0.1 + i * 1e-3) for i in range(200)]
        rows += [("A", "attack", 0.5 + i * 1e-3) for i in range(200)]
        ds = make_dataset(rows)
        assert len(bona_fide_responses(ds, "A")) == 200
        assert len(attack_responses(ds, "A")) == 200

    def test_attack_only_group_gives_empty_bona(self, make_dataset):
        ds = make_dataset([("A", "attack", 0.5), ("B", "bonafide", 0.1)])
        assert bona_fide_responses(ds, "A").tolist() == []

    def test_none_group_pools_everything(self, make_dataset):
        ds = make_dataset(
            [("A", "bonafide", 0.3), ("B", "bonafide", 0.1), ("A", "attack", 0.9)]
        )
        assert bona_fide_responses(ds).tolist() == [0.1, 0.3]
        assert attack_responses(ds).tolist() == [0.9]

    def test_sorted_once_read_only_and_stable(self, make_dataset):
        ds = make_dataset(
            [("A", "bonafide", 0.5), ("A", "bonafide", 0.0), ("A", "bonafide", -0.0)]
        )
        got = bona_fide_responses(ds, "A")
        assert bona_fide_responses(ds, "A") is got  # no per-call copy or sort
        assert not got.flags.writeable
        # 0.0 and -0.0 tie and keep input order, as list.sort does
        assert np.signbit(got).tolist() == [False, True, False]
        assert np.signbit(bona_fide_responses(ds)).tolist() == [False, True, False]

    def test_unknown_group_named(self, make_dataset):
        ds = make_dataset([("A", "bonafide", 0.1)])
        with pytest.raises(UnknownGroupError) as exc:
            bona_fide_responses(ds, "Z")
        assert "Z" in str(exc.value)


class TestGroupPairs:
    def test_counts(self, make_dataset):
        for k, expected in ((2, 1), (4, 6), (5, 10)):
            rows = [(f"g{i}", "bonafide", 0.1 * (i + 1)) for i in range(k)]
            pairs = group_pairs(make_dataset(rows))
            assert len(pairs) == expected
            assert len(set(pairs)) == expected

    def test_canonical_order(self, make_dataset):
        ds = make_dataset(
            [("c", "bonafide", 0.1), ("a", "bonafide", 0.2), ("b", "bonafide", 0.3)]
        )
        pairs = group_pairs(ds)
        assert [(p.a, p.b) for p in pairs] == [("a", "b"), ("a", "c"), ("b", "c")]
        for p in pairs:
            assert p.a < p.b

    def test_single_group_rejected(self, make_dataset):
        ds = make_dataset([("only", "bonafide", 0.1)])
        with pytest.raises(InsufficientDataError):
            group_pairs(ds)

    def test_pair_normalizes_and_validates(self):
        assert GroupPair.of("b", "a") == GroupPair("a", "b")
        assert GroupPair("a", "b").key == "a|b"
        with pytest.raises(ParameterError):
            GroupPair("a", "a")
        with pytest.raises(ParameterError):
            GroupPair("b", "a")
