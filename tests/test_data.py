import numpy as np
import pytest

from biasaudit.data import (
    Dataset,
    GroupPair,
    attack_responses,
    bona_fide_responses,
    group_pairs,
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
        assert exc.value.line == 3
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
