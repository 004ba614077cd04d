import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import clmc.inference
from clmc import cli
from clmc.cli import FITTERS, main, read_clustered_csv, write_clustered_csv
from clmc.harness import PRESETS
from clmc.models import FitError
from clmc.mvnprob import QuantileConvergenceError
from clmc.simgen import Exchangeable, ScenarioSpec, generate


@pytest.fixture
def mvn_csv(tmp_path):
    spec = ScenarioSpec("mvn", 80, 4, 3, np.array([0.5, -0.2, 0.0]),
                        Exchangeable(0.8, 0.3), seed=31)
    path = tmp_path / "mvn.csv"
    write_clustered_csv(generate(spec), str(path))
    return str(path)


# covariates vary within a cluster, so cluster means differ from the rows
QUADEXP_SPEC = ScenarioSpec("quadexp", 300, (3, 4, 5), 3,
                            np.array([0.4, 0.1, -0.2]), w=0.3, seed=32, x_row_corr=0.3)


@pytest.fixture
def quadexp_csv(tmp_path):
    path = tmp_path / "qe.csv"
    write_clustered_csv(generate(QUADEXP_SPEC), str(path))
    return str(path)


# tokens, lines and line ends that numpy's parser and the csv row loop could
# read differently: the first few are read alike, the rest send a file to the loop
ODD_FIELDS = [" 1.5 ", "nan", "-nan", "1e999", "-1e-400", "\v1", "1\f", "1\u2028", "\xa02", "\t.5",
              "#", "a\x00", " c ", "\u2028b", "1_0", "\x1c1", "b\x1f", '"1"', "", " ", "x", "0x1",
              "1 2", "\x001", "\ufeff1", "\uff11", "1,2", '"1,2"', '" a "', '""', '"a', 'a"',
              ' "a"', '"a" ', '"a""b"', '"a"b']
ODD_LINES = ["", "  ", "\t", "\x1c", "#", "# note", ",", "\x00", "a,1"]
ODD_ENDS = ["\r", "\r\n", "\n", ""]


@st.composite
def nearly_plain_csv(draw) -> bytes:
    """A well-formed clustered CSV with at most three odd fields, lines or line ends."""
    p = draw(st.integers(1, 2))
    number = st.one_of(st.floats(allow_nan=False).map(repr), st.integers(-2, 2).map(str))
    rows = draw(st.lists(st.lists(number, min_size=p + 1, max_size=p + 1), min_size=1, max_size=6))
    lines = [["cluster_id", "y"] + [f"x{j + 1}" for j in range(p)]]
    lines += [[draw(st.sampled_from(["a", "b", "c"]))] + r for r in rows]
    # R's write.csv quotes every header name and every id
    if draw(st.booleans()):
        lines[0] = [f'"{name}"' for name in lines[0]]
    if draw(st.booleans()):
        for line in lines[1:]:
            line[0] = f'"{line[0]}"'
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        kind = draw(st.sampled_from(["field", "line", "end"]))
        if kind == "field":
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(st.sampled_from(ODD_FIELDS))
        elif kind == "line":
            lines.insert(i, [draw(st.sampled_from(ODD_LINES))])
            ends.insert(i, ends[i])
        else:
            ends[i] = draw(st.sampled_from(ODD_ENDS))
    text = "".join(",".join(line) + end for line, end in zip(lines, ends))
    return b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode("utf-8")


class TestReadClusteredCsv:
    def test_round_trip_identical(self, tmp_path):
        spec = ScenarioSpec("mvn", 12, 3, 2, np.array([0.1, 0.2]),
                            Exchangeable(1.0, 0.4), seed=33)
        d = generate(spec)
        path = tmp_path / "rt.csv"
        write_clustered_csv(d, str(path))
        back = read_clustered_csv(str(path))
        assert back.n == d.n and back.p == d.p
        assert back.response_kind == d.response_kind
        np.testing.assert_array_equal(back.ids, d.ids)
        np.testing.assert_array_equal(back.cluster_sizes, d.cluster_sizes)
        np.testing.assert_array_equal(back.y, d.y)
        np.testing.assert_array_equal(back.x, d.x)

    def test_basic_two_clusters(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("cluster_id,y,x1\na,1.0,0.5\na,2.0,0.25\nb,0.5,1.0\nb,1.5,2.0\n")
        d = read_clustered_csv(str(path))
        assert d.n == 2 and d.p == 1
        assert d.cluster_sizes.tolist() == [2, 2]
        assert d.response_kind == "positive"

    def test_blank_field_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["cluster_id,y,x1"] + [f"c{i},1.0,0.1" for i in range(5)]
        rows.insert(6, "c9,,0.3")  # line 7 of the file
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=":7"):
            read_clustered_csv(str(path))

    def test_malformed_numeric_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("cluster_id,y,x1\na,1.0,0.5\na,oops,0.3\n")
        with pytest.raises(ValueError, match=":3"):
            read_clustered_csv(str(path))

    def test_inconsistent_column_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("cluster_id,y,x1,x2\na,1.0,0.5,0.2\na,1.0,0.5\n")
        with pytest.raises(ValueError, match=":3"):
            read_clustered_csv(str(path))

    def test_empty_file_and_bad_header(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_clustered_csv(str(empty))
        bad = tmp_path / "b.csv"
        bad.write_text("id,resp,x1\na,1.0,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_clustered_csv(str(bad))

    def test_interleaved_cluster_rows(self, tmp_path):
        # clusters in order of first appearance, rows in file order within each
        path = tmp_path / "t.csv"
        path.write_text("cluster_id,y,x1\nb,1.0,0.1\na,2.0,0.2\nb,3.0,0.3\n"
                        "c,4.0,0.4\na,5.0,0.5\nb,6.0,0.6\n")
        d = read_clustered_csv(str(path))
        assert d.ids.tolist() == ["b", "a", "c"]
        assert d.cluster_sizes.tolist() == [3, 2, 1]
        assert d.y.tolist() == [1.0, 3.0, 6.0, 2.0, 5.0, 4.0]
        assert d.x[:, 0].tolist() == [0.1, 0.3, 0.6, 0.2, 0.5, 0.4]
        again = tmp_path / "again.csv"
        write_clustered_csv(d, str(again))
        back = read_clustered_csv(str(again))
        for name in ("ids", "cluster_sizes", "y", "x"):
            np.testing.assert_array_equal(getattr(back, name), getattr(d, name))
        assert back.response_kind == d.response_kind

    def test_oversized_field_is_a_value_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("cluster_id,y,x1\na,1.0,0.5\nb,1.0," + "1" * 200_000 + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: field larger than field limit"):
            read_clustered_csv(str(path))
        assert main(["fit", "--model", "probit", "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3:") and len(err.strip().splitlines()) == 1

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"cluster_id,y,x1\na,1.0,0.5\n\xe9,1.0,0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8"):
            read_clustered_csv(str(path))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=st.one_of(
        st.binary(max_size=300),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=300),
        st.lists(st.lists(st.sampled_from(["a", "b", " 1.5", "-2", "", "nan", "1e999", "x", '"', "\n"]),
                          min_size=1, max_size=5), max_size=6)
        .map(lambda rows: "cluster_id,y,x1\n" + "\n".join(",".join(r) for r in rows)),
    ))
    def test_fuzzed_files_read_or_raise_value_error(self, tmp_path, content):
        path = tmp_path / "fuzz.csv"
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8", newline="")
        else:
            path.write_bytes(content)
        try:
            d = read_clustered_csv(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
        else:
            assert d.n == len(d.ids) and d.cluster_sizes.sum() == len(d.y) == len(d.x)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=nearly_plain_csv())
    @example(raw=b"cluster_id,y,x1\r\nb,1,2\r\na,3,4\r\n\r\nb,5,6\r\n")
    @example(raw=b"\xef\xbb\xbfcluster_id,y,x1\nb,1,2\n\na,3,4")
    @example(raw=b"cluster_id,y,x1\na,1,2\n  \n\t\nb,3,4\n")
    @example(raw=b"cluster_id,y,x1\n#,1,2\n# note\n")
    @example(raw=b'cluster_id,y,x1\n"a",1,2\n')
    @example(raw=b'cluster_id,y,x1\na,"1",2\n')
    @example(raw=b"cluster_id,y,x1\na\x00,1,2\nb,\x001,2\n")
    @example(raw="cluster_id,y,x1\na,\v1,1\f\nb,1\u2028,\xa02\n".encode())
    @example(raw=b"cluster_id,y,x1\na,\x1c1,2\n")
    @example(raw=b"cluster_id,y,x1\na,nan,1e999\nb,-nan, 1.5 \n")
    @example(raw=b"cluster_id,y,x1\na,1_0,2\n")
    @example(raw=b"cluster_id,y,x1\na,1,2,3\n")
    @example(raw=b"cluster_id,y,x1\na,1,2\rb,3,4\r")
    @example(raw=b"cluster_id,y," + b"x" * 200_000 + b"\na,1,2\n")
    @example(raw=b'"cluster_id","y","x1"\r\n"a",1,2\r\n" b ",3,4\r\n"a",5,6\r\n')
    @example(raw=b'"cluster_id"," y","x1,x2"\n"a",1,2,3\n')
    @example(raw=b'"cluster_id",y, "x1"\na,1,2\n')
    @example(raw=b'cluster_id,y,x1\n"a" ,1,2\n')
    @example(raw=b'cluster_id,y,x1\n "a",1,2\n')
    @example(raw=b' "cluster_id",y,x1\na,1,2\n')
    @example(raw=b'cluster_id,y,x1\n"a\rb",1,2\n')
    @example(raw=b'cluster_id,y,x1\n"",1,2\n')
    def test_fast_path_reads_what_the_row_loop_reads(self, tmp_path, raw):
        path = tmp_path / "same.csv"
        path.write_bytes(raw)
        if cli._read_fast(str(path)) is None:
            return
        fast = read_clustered_csv(str(path))
        with mock.patch.object(cli, "_read_fast", lambda path: None):
            loop = read_clustered_csv(str(path))
        # "-nan" reads as a NaN of either sign; validate_dataset rejects NaN rows anyway
        for name in ("x", "y", "cluster_sizes"):
            np.testing.assert_array_equal(getattr(fast, name), getattr(loop, name))
        assert fast.ids.tolist() == loop.ids.tolist()
        assert fast.response_kind == loop.response_kind

    @pytest.mark.parametrize("raw", [
        b"cluster_id,y,x1\nb,1.0,0.5\na,2.0,0.25\nb,0.5,1.0\n",
        b"cluster_id,y,x1\r\nb,1.0,0.5\r\na,2.0,0.25\r\n\r\nb,0.5,1.0\r\n",
        b"\xef\xbb\xbfcluster_id,y,x1\nb,1.0,0.5\na,2.0,0.25\nb,0.5,1.0",
        b'"cluster_id","y","x1"\n"b",1.0,0.5\n"a",2.0,0.25\n"b",0.5,1.0\n',
    ], ids=["lf", "crlf", "bom", "quoted-header-and-ids"])
    def test_plain_files_skip_the_row_loop(self, tmp_path, monkeypatch, raw):
        def loop_called(path):
            raise AssertionError("the row loop read a plain file")

        monkeypatch.setattr(cli, "_csv_rows", loop_called)
        path = tmp_path / "plain.csv"
        path.write_bytes(raw)
        d = read_clustered_csv(str(path))
        assert d.ids.tolist() == ["b", "a"] and d.cluster_sizes.tolist() == [2, 1]
        assert d.y.tolist() == [1.0, 0.5, 2.0] and d.x[:, 0].tolist() == [0.5, 1.0, 0.25]

    def test_whitespace_only_line_goes_to_the_row_loop_before_numpy(self, tmp_path, monkeypatch):
        # numpy would fail on the "  " line only after parsing the rows above it
        calls = []
        path = tmp_path / "trailing.csv"
        path.write_bytes(b"cluster_id,y,x1\nb,1.0,0.5\na,2.0,0.25\n  \n")
        monkeypatch.setattr(cli.np, "loadtxt", lambda *args, **kwargs: calls.append(args))
        assert cli._read_fast(str(path)) is None and not calls
        monkeypatch.undo()
        d = read_clustered_csv(str(path))
        assert d.ids.tolist() == ["b", "a"] and d.y.tolist() == [1.0, 2.0]

    def test_byte_order_mark_is_accepted(self, mvn_csv, tmp_path, capsys):
        # the quoted id sends the second file to the row loop
        for name, body in (("plain", b"a,1.0,0.5\nb,2.0,0.25\n"), ("quoted", b'"a",1.0,0.5\nb,2.0,0.25\n')):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(b"\xef\xbb\xbfcluster_id,y,x1\n" + body)
            d = read_clustered_csv(str(path))
            assert d.ids.tolist() == ["a", "b"] and d.y.tolist() == [1.0, 2.0]
        cpath = tmp_path / "contrasts.csv"
        cpath.write_bytes(b"\xef\xbb\xbfonly,1,-1,0\n")
        assert main(["test", "--model", "mvn", "--data", mvn_csv, "--contrasts", f"file:{cpath}",
                     "--methods", "bonferroni", "--format", "json"]) == 0
        assert [h["hypothesis"] for h in json.loads(capsys.readouterr().out)["hypotheses"]] == ["only"]

    def test_kind_inference(self, tmp_path):
        cases = {
            "cluster_id,y,x1\na,0,0.1\na,1,0.2\nb,1,0.3\n": "binary01",
            "cluster_id,y,x1\na,-1,0.1\na,1,0.2\nb,1,0.3\n": "binary_pm1",
            "cluster_id,y,x1\na,0.5,0.1\na,2.0,0.2\nb,3.0,0.3\n": "positive",
            "cluster_id,y,x1\na,-0.5,0.1\na,2.0,0.2\nb,0.0,0.3\n": "continuous",
        }
        for text, kind in cases.items():
            path = tmp_path / f"{kind}.csv"
            path.write_text(text)
            assert read_clustered_csv(str(path)).response_kind == kind


class TestFitCommand:
    def test_fit_mvn_text(self, mvn_csv, capsys):
        rc = main(["fit", "--model", "mvn", "--data", mvn_csv])
        out = capsys.readouterr().out
        assert rc == 0
        assert "coefficient" in out and "converged=True" in out

    def test_fit_csv_output(self, mvn_csv, tmp_path):
        out = tmp_path / "fit.csv"
        rc = main(["fit", "--model", "mvn", "--data", mvn_csv,
                   "--format", "csv", "--output", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["coefficient"] for r in rows] == ["x1", "x2", "x3"]
        est = float(rows[0]["estimate"])
        assert abs(est - 0.5) < 0.15

    def test_fit_quadexp_reports_w(self, quadexp_csv, capsys):
        rc = main(["fit", "--model", "quadexp", "--data", quadexp_csv, "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        names = [r["coefficient"] for r in rows]
        assert names == ["x1", "x2", "x3", "w"]

    def test_fit_invalid_data_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,y,x1\na,1.0,0.5\n")  # single cluster
        rc = main(["fit", "--model", "mvn", "--data", str(path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = main(["fit", "--model", "mvn", "--data", "/nonexistent.csv"])
        assert rc == 1


class TestTestCommand:
    def test_quadexp_all_pairwise(self, quadexp_csv, capsys):
        rc = main([
            "test", "--model", "quadexp", "--data", quadexp_csv,
            "--contrasts", "all-pairwise", "--methods", "mnq,bonferroni,holm",
            "--qmc-points", "256", "--qmc-shifts", "4", "--format", "json",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["hypotheses"]) == 3
        assert {m["method"] for m in report["methods"]} == {"mnq", "bonferroni", "holm"}
        for h in report["hypotheses"]:
            assert h["mnq"] in ("A", "R")

    def test_many_to_one_and_naive_flag(self, quadexp_csv, capsys):
        args = ["test", "--model", "quadexp", "--data", quadexp_csv,
                "--contrasts", "many-to-one:1", "--methods", "bonferroni",
                "--format", "json"]
        assert main(args) == 0
        full = json.loads(capsys.readouterr().out)
        assert main(args + ["--naive"]) == 0
        naive = json.loads(capsys.readouterr().out)
        t_full = [float(h["t"]) for h in full["hypotheses"]]
        t_naive = [float(h["t"]) for h in naive["hypotheses"]]
        assert t_full != t_naive

    def test_contrast_file(self, mvn_csv, tmp_path, capsys):
        cpath = tmp_path / "contrasts.csv"
        cpath.write_text("first_vs_second,1,-1,0\nfirst_vs_third,1,0,-1\n")
        rc = main(["test", "--model", "mvn", "--data", mvn_csv,
                   "--contrasts", f"file:{cpath}", "--methods", "bonferroni",
                   "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert [h["hypothesis"] for h in report["hypotheses"]] == [
            "first_vs_second", "first_vs_third",
        ]

    def test_contrast_file_skips_whitespace_only_lines(self, mvn_csv, tmp_path, capsys):
        cpath = tmp_path / "contrasts.csv"
        cpath.write_text("first_vs_second,1,-1,0\n  \n\t\nfirst_vs_third,1,0,-1\n  ")
        rc = main(["test", "--model", "mvn", "--data", mvn_csv, "--contrasts", f"file:{cpath}",
                   "--methods", "bonferroni", "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert [h["hypothesis"] for h in report["hypotheses"]] == ["first_vs_second", "first_vs_third"]

    @pytest.mark.parametrize("text,where", [
        (b"a,1,-1,0\nb,1,0," + b"1" * 200_000 + b"\n", ":2: field larger than field limit"),
        (b"a,1,-1,0\n\xff,1,0,-1\n", ": not UTF-8"),
        (b"a,1,-1,0\nb,1,0\n", ":2: contrast rows must have 3 weights"),
        (b"a,1,x,0\n", ":1: malformed contrast weight"),
        (b"", ": contrast rows must have 3 weights"),
        # nan once printed t = nan and accepted every hypothesis; inf leaked a RuntimeWarning
        (b"a,1,-1,0\nb,1,nan,-1\n", ":2: contrast weights must be finite"),
        (b"a,1,-inf,0\n", ":1: contrast weights must be finite"),
    ], ids=["oversized-field", "non-utf8", "ragged-row", "malformed-weight", "empty",
            "nan-weight", "inf-weight"])
    def test_bad_contrast_file_is_one_line_naming_it(self, mvn_csv, tmp_path, capsys, text, where):
        cpath = tmp_path / "contrasts.csv"
        cpath.write_bytes(text)
        rc = main(["test", "--model", "mvn", "--data", mvn_csv,
                   "--contrasts", f"file:{cpath}", "--methods", "bonferroni"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cpath}{where}") and err.count("\n") == 1

    @pytest.mark.parametrize("baseline", ["abc", ""])
    def test_non_integer_baseline_is_one_line_naming_it(self, mvn_csv, capsys, baseline):
        spec = f"many-to-one:{baseline}"
        rc = main(["test", "--model", "mvn", "--data", mvn_csv, "--contrasts", spec])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err == (f"error: baseline {baseline!r} of --contrasts {spec!r} "
                           "is not a positive integer\n")

    def test_unknown_contrast_spec_is_one_line_naming_it(self, mvn_csv, capsys):
        rc = main(["test", "--model", "mvn", "--data", mvn_csv, "--contrasts", "foo"])
        out = capsys.readouterr()
        assert rc == 1
        assert out.err == "error: unknown contrast spec 'foo'\n"

    def test_unknown_method_rejected(self, mvn_csv, capsys):
        rc = main(["test", "--model", "mvn", "--data", mvn_csv,
                   "--contrasts", "many-to-one:1", "--methods", "fdr"])
        assert rc == 1
        assert "unknown methods" in capsys.readouterr().err

    def test_repeated_method_is_one_error_line(self, mvn_csv, capsys):
        # mnq was once computed twice and listed twice
        rc = main(["test", "--model", "mvn", "--data", mvn_csv,
                   "--contrasts", "many-to-one:1", "--methods", "mnq,mnq,holm"])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err == "error: --methods names a method twice: mnq,mnq,holm\n"

    def test_tukey_requires_all_pairwise(self, mvn_csv, capsys):
        rc = main(["test", "--model", "mvn", "--data", mvn_csv,
                   "--contrasts", "many-to-one:1", "--methods", "tukey"])
        assert rc == 1


class TestErrorPath:
    """Every failure ends in exit status 1 and one `error:` line on stderr."""

    def test_test_command_rejects_nonconverged_fit(self, mvn_csv, capsys, monkeypatch):
        real = FITTERS["mvn"]
        monkeypatch.setitem(
            FITTERS, "mvn", lambda d: dataclasses.replace(real(d), converged=False)
        )
        rc = main(["test", "--model", "mvn", "--data", mvn_csv, "--contrasts", "many-to-one:1"])
        out = capsys.readouterr()
        assert rc == 1
        assert out.err == "error: fit did not converge\n"
        assert out.out == ""

    def test_fit_command_rejects_nonconverged_fit(self, mvn_csv, capsys, monkeypatch):
        real = FITTERS["mvn"]
        monkeypatch.setitem(
            FITTERS, "mvn", lambda d: dataclasses.replace(real(d), converged=False)
        )
        rc = main(["fit", "--model", "mvn", "--data", mvn_csv])
        out = capsys.readouterr()
        assert rc == 1
        assert out.err == "error: fit did not converge\n"
        assert "converged=False" in out.out

    def test_binary_fitter_refuses_continuous_responses(self, mvn_csv, capsys):
        assert main(["fit", "--model", "probit", "--data", mvn_csv]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: probit fitter needs binary responses in {0,1} or {-1,+1}\n"

    @pytest.mark.parametrize("command", [["fit"], ["test", "--contrasts", "all-pairwise"]])
    def test_each_invalid_cluster_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "nan.csv"
        path.write_text("cluster_id,y,x1,x2\nb,1,1,inf\nb,1,2,3\na,0.5,1,0\n"
                        "c,2,3,1\nc,nan,0,1\n")
        rc = main([command[0], "--model", "mvn", "--data", str(path), *command[1:]])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err == ("error: b: non-finite value in y or x\n"
                           "error: c: non-finite value in y or x\n")

    def test_error_without_a_message_is_one_line(self, mvn_csv, capsys, monkeypatch):
        def silent(d):
            raise FitError()

        monkeypatch.setitem(FITTERS, "mvn", silent)
        assert main(["fit", "--model", "mvn", "--data", mvn_csv]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: \n"

    def test_module_run_sets_the_exit_status(self):
        # `python -m clmc.cli` as a shell runs it; both processes start at once
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        runs = [subprocess.Popen([sys.executable, "-m", "clmc.cli", "simulate", *flags],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
                for flags in ([], ["--list-presets"])]
        (refused_out, refused_err), (listed, listed_err) = (run.communicate(timeout=60) for run in runs)
        assert runs[0].returncode == 1
        assert (refused_out, refused_err) == ("", "error: give exactly one of --preset or --config\n")
        assert runs[1].returncode == 0 and listed_err == ""
        assert listed.splitlines() == list(PRESETS)

    def test_test_command_refuses_non_finite_cell(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("cluster_id,y,x1,x2\n0,nan,1,2\n0,1,2,3\n1,0.5,1,0\n1,2,3,1\n")
        rc = main(["test", "--model", "mvn", "--data", str(path), "--contrasts", "all-pairwise"])
        out = capsys.readouterr()
        assert rc == 1
        assert out.err == "error: 0: non-finite value in y or x\n"
        assert out.out == ""

    def test_quantile_failure(self, mvn_csv, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise QuantileConvergenceError("quantile search stalled")

        monkeypatch.setattr(clmc.inference, "equicoordinate_quantile", stall)
        rc = main(["test", "--model", "mvn", "--data", mvn_csv, "--contrasts", "many-to-one:1",
                   "--methods", "mnq"])
        assert rc == 1
        assert capsys.readouterr().err == "error: quantile search stalled\n"

    def test_every_replicate_failed(self, capsys, monkeypatch):
        def broken(d):
            raise FitError("synthetic failure")

        monkeypatch.setitem(FITTERS, "mvn", broken)
        rc = main(["simulate", "--preset", "mvn-null-rho0-m4-p10", "--replicates", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: every replicate was dropped (its fit, statistics or mnq decisions failed)\n")

    def test_dropped_replicate_is_one_row(self, capsys, monkeypatch):
        real, calls = FITTERS["mvn"], []

        def fails_once(d):
            calls.append(None)
            if len(calls) == 2:
                raise FitError("synthetic failure")
            return real(d)

        monkeypatch.setitem(FITTERS, "mvn", fails_once)
        assert main(["simulate", "--preset", "mvn-null-rho0-m4-p10", "--replicates", "3",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["estimate"] for r in rows if r["metric"] == "dropped_replicates"] == [1]
        assert all(r["replicates"] == 2 for r in rows)

    # sizes no machine can hold (96 PiB of QMC points, 711 PiB of cluster
    # sizes): numpy refuses each before touching memory
    def test_impossible_qmc_allocation_is_one_line(self, mvn_csv, capsys):
        rc = main(["test", "--model", "mvn", "--data", mvn_csv, "--contrasts", "many-to-one:1",
                   "--qmc-points", str(2**50)])
        out = capsys.readouterr()
        assert rc == 1
        assert out.err.startswith("error: Unable to allocate") and out.err.count("\n") == 1

    def test_impossible_scenario_allocation_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"model": "mvn", "n": 10**17, "m": 4, "p": 2,
                                    "beta": [0.0, 0.0]}))
        rc = main(["simulate", "--config", str(path), "--replicates", "1"])
        out = capsys.readouterr()
        assert rc == 1
        assert out.err.startswith("error: Unable to allocate") and out.err.count("\n") == 1
        assert out.out == ""


class TestSimulateCommand:
    def test_list_presets(self, capsys):
        assert main(["simulate", "--list-presets"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "mvn-null-rho0-m4-p10" in out
        assert len(out) > 50

    def test_preset_summary_columns_and_stability(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--preset", "mvn-null-rho0-m4-p10",
                "--replicates", "6", "--seed", "9", "--format", "csv"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with out1.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"scenario", "procedure", "metric", "estimate",
                                "mc_se", "replicates"}
        procs = {r["procedure"] for r in rows}
        assert {"mnq", "naive", "bonferroni"} <= procs
        assert any(r["metric"] == "efficiency" for r in rows)

    def test_config_json(self, tmp_path, capsys):
        cfg = {
            "model": "mvn", "n": 50, "m": 4, "p": 3, "beta": [0, 0, 0],
            "correlation": {"type": "exchangeable", "sigma2": 0.8, "rho": 0.2},
            "contrasts": {"kind": "many_to_one", "baseline": 1},
            "replicates": 4, "seed": 3, "compute_efficiency": False,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["replicates"] == 4 for r in rows)

    @pytest.mark.parametrize("change, message", [
        ("[1]", "the experiment must be a JSON object"),
        ({"correlation": 0.5}, "'correlation' must be an object"),
        ({"contrasts": 5}, "'contrasts' must be an object"),
        ({"procedures": 5}, "'procedures' must be a list"),
        ({"contrasts": {"kind": "bogus"}}, "cannot build contrasts of kind 'bogus'"),
        ({"n": [1]}, "'n' must be numeric"),
        ({"m": {"a": 1}}, "'m' must be numeric"),
        ({"beta": {"a": 1}}, "'beta' must be numeric"),
        ({"correlation": {"type": "exchangeable", "rho": "x"}}, "'rho' must be numeric"),
        ({"contrasts": {"kind": "many_to_one", "baseline": "1"}}, "'baseline' must be numeric"),
        ({"procedures": [["mnq"]]}, "unknown procedures [['mnq']]"),
        ("not json", "cfg.json: Expecting value"),
        ({"n": 2.9}, "'n' must be an integer"),
        ({"m": [4.5, 3]}, "'m' must be an integer"),
        ({"p": 3.7}, "'p' must be an integer"),
        ({"seed": 0.5}, "'seed' must be an integer"),
        ({"replicates": 2.5}, "'replicates' must be an integer"),
        ({"contrasts": {"kind": "many_to_one", "baseline": 1.5}}, "'baseline' must be an integer"),
        ({"m": []}, "m must be a positive cluster size or a nonempty list of them, got ()"),
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"m": [4, 3]}, "the gaussian fitter needs one cluster size 'm', got (4, 3)"),
        ({"replicate": 10}, "unknown key 'replicate'"),
        ({"corelation": {"type": "exchangeable", "rho": 0.2}}, "unknown key 'corelation'"),
        ({"correlation": {"type": "exchangeable", "rh": 0.2}}, "unknown key 'correlation.rh'"),
        ({"contrasts": {"kind": "many_to_one", "baselin": 2}}, "unknown key 'contrasts.baselin'"),
        ({"correlation": {"type": "unstructured", "sigma": np.eye(4).tolist(), "rho": 0.2}},
         "unknown key 'correlation.rho'"),
        ({"truth_kind": "a1"}, "unknown key 'truth_kind'"),
        ({"alpha": 1.5}, "alpha must be in (0, 1)"),
        ({"x_row_corr": 2}, "x_row_corr must lie in [0, 1]"),
        ({"x_scale": -1}, "x_scale must be positive"),
        ({"model": "gamma", "nu": 0}, "the gamma shape nu must be positive"),
        ({"correlation": {"type": "unstructured", "sigma": [[1.0, 0.0]]}}, "covariance must be square"),
        # [] once ran every replicate, then failed; a repeated name ran twice for one row
        ({"procedures": []}, "need at least one procedure, each named once, got []"),
        ({"procedures": ["mnq", "holm", "mnq"]},
         "need at least one procedure, each named once, got ['mnq', 'holm', 'mnq']"),
    ], ids=["top-level-list", "correlation-number", "contrasts-number", "procedures-number",
            "unknown-contrast-kind", "n-list", "m-object", "beta-object", "rho-text",
            "baseline-text", "procedure-list", "not-json", "n-fraction", "m-fraction",
            "p-fraction", "seed-fraction", "replicates-fraction", "baseline-fraction",
            "m-empty", "seed-negative", "mvn-mixed-sizes", "unknown-key", "misspelt-correlation",
            "correlation-unknown-key", "contrasts-unknown-key", "unstructured-rho",
            "removed-truth-kind", "alpha-above-one", "x_row_corr-above-one", "x_scale-negative",
            "gamma-nu-zero", "unstructured-non-square", "procedures-empty", "procedures-repeated"])
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, monkeypatch, change, message):
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("a replicate ran"))
        cfg = {"model": "mvn", "n": 50, "m": 4, "p": 3, "beta": [0, 0, 0], "replicates": 2}
        path = tmp_path / "cfg.json"
        path.write_text(change if isinstance(change, str) else json.dumps({**cfg, **change}))
        rc = main(["simulate", "--config", str(path)])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert message in out.err

    def test_integral_floats_are_integers(self, tmp_path, capsys):
        cfg = {"model": "mvn", "n": 50.0, "m": [4.0], "p": 3.0, "beta": [0, 0, 0],
               "replicates": 2.0, "seed": 3.0, "contrasts": {"kind": "many_to_one", "baseline": 2.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["replicates"] == 2 for r in rows)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "mvn-null-rho0-m4-p10", "--replicates", "2", "--seed", "-1"],
        ["generate", "--preset", "mvn-null-rho0-m4-p10", "--seed", "-3", "--output", "unused.csv"],
        # numpy's seeding once refused it without naming --seed or the value
        ["test", "--model", "mvn", "--data", "{mvn_csv}", "--contrasts", "many-to-one:1",
         "--seed", "-1"],
    ], ids=["simulate", "generate", "test"])
    def test_negative_seed_is_one_error_line(self, argv, mvn_csv, capsys):
        argv = [a.format(mvn_csv=mvn_csv) for a in argv]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: seed must be nonnegative, got {argv[argv.index('--seed') + 1]}\n"

    def test_preset_and_config_mutually_exclusive(self, capsys):
        for argv in (["simulate"], ["simulate", "--preset", "x", "--config", "y"]):
            assert main(argv) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "error: give exactly one of --preset or --config\n"

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("source", ["preset", "config"])
    def test_workers_below_one_is_one_error_line(self, tmp_path, capsys, monkeypatch, source,
                                                 workers):
        # once accepted without a word and run serially
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("a replicate ran"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(PRESETS["mvn-null-rho0-m4-p10"]))
        given = ["--preset", "mvn-null-rho0-m4-p10"] if source == "preset" else ["--config", str(path)]
        rc = main(["simulate", *given, "--replicates", "2", "--workers", workers])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert f"workers must be at least 1, got {workers}" in out.err

    @pytest.mark.parametrize("flag, message", [
        (["--workers", "0"], "workers must be at least 1, got 0"),
        (["--seed", "-1"], "seed must be nonnegative, got -1"),
    ], ids=["workers", "seed"])
    def test_flag_error_does_not_name_the_config_file(self, tmp_path, capsys, monkeypatch, flag,
                                                      message):
        # the file is valid and has no seed; the error was once prefixed with its path
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("a replicate ran"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "mvn", "n": 50, "m": 4, "p": 3, "beta": [0, 0, 0]}))
        assert main(["simulate", "--config", str(path), *flag]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")

    def test_contrast_kind_is_refused_with_config(self, tmp_path, capsys):
        # the --config object names its own family; the flag was once ignored
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "mvn", "n": 50, "m": 4, "p": 3, "beta": [0, 0, 0]}))
        rc = main(["simulate", "--config", str(path), "--contrast-kind", "all_pairwise"])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err == "error: --contrast-kind applies to --preset only\n"

    @pytest.mark.parametrize("change", [
        {"model": "quadexp", "m": 21},
        {"m": 3, "correlation": {"type": "unstructured", "sigma": [[1.0, 0.2], [0.2, 1.0]]}},
        {"m": 2, "correlation": {"type": "unstructured", "sigma": [[1.0, 2.0], [2.0, 1.0]]}},
        {"correlation": {"type": "exchangeable", "rho": -0.5}},
        {"model": "probit", "correlation": {"type": "exchangeable", "sigma2": 2.0}},
        {"model": "gamma", "correlation": {"type": "exchangeable", "rho": -0.2}},
        {"model": "quadexp", "correlation": {"type": "exchangeable", "rho": 0.9}},
        {"model": "quadexp", "nu": -5},
        {"model": "gamma", "correlation": {"type": "exchangeable", "sigma2": 4}},
        {"model": "probit", "m": 2, "correlation": {"type": "unstructured",
                                                    "sigma": [[4.0, 0.0], [0.0, 4.0]]}},
        # JSON's NaN and Infinity: each once failed only inside the replicates
        {"x_scale": float("nan")},
        {"x_scale": float("inf")},
        {"beta": [float("nan"), 0, 0]},
        {"correlation": {"type": "exchangeable", "sigma2": float("inf")}},
        {"m": 2, "correlation": {"type": "unstructured",
                                 "sigma": [[1.0, float("nan")], [float("nan"), 1.0]]}},
        {"model": "gamma", "nu": float("nan")},
        {"model": "gamma", "nu": float("inf")},
        {"model": "quadexp", "w": float("nan")},
        {"model": "quadexp", "w": float("inf")},
        # refused, but once after a RuntimeWarning from its integer check
        {"n": float("inf")},
    ], ids=["quadexp-m21", "unstructured-size", "unstructured-not-pd", "exchangeable-rho",
            "probit-sigma2", "gamma-rho", "quadexp-correlation", "quadexp-nu", "gamma-sigma2",
            "probit-unstructured-scale", "x_scale-nan", "x_scale-inf", "beta-nan", "sigma2-inf",
            "sigma-nan", "nu-nan", "nu-inf", "w-nan", "w-inf", "n-inf"])
    def test_undrawable_scenario_is_refused_before_any_replicate(self, tmp_path, capsys,
                                                                 monkeypatch, change):
        def no_replicate(cfg):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(cli, "run_experiment", no_replicate)
        cfg = {"model": "mvn", "n": 50, "m": 4, "p": 3, "beta": [0, 0, 0], "replicates": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, **change}))
        rc = main(["simulate", "--config", str(path), "--workers", "2"])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err.startswith(f"error: {path}: ") and out.err.count("\n") == 1

    def test_metric_is_read_off_the_effects(self, tmp_path, capsys):
        # beta_3 differs from the baseline beta_1, so the rows are global power
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "mvn", "n": 50, "m": 4, "p": 3, "beta": [0, 0, 0.1],
                                    "replicates": 4, "compute_efficiency": False}))
        assert main(["simulate", "--config", str(path), "--format", "json"]) == 0
        metrics = [r["metric"] for r in json.loads(capsys.readouterr().out)]
        assert metrics == ["global_power", "ind_power_sum"] * 6

    def test_dumped_preset_as_config_prints_the_preset_rows(self, tmp_path, capsys):
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(PRESETS["probit-a1-rho05-m4-p10"]))
        common = ["--replicates", "4", "--format", "json"]
        assert main(["simulate", "--preset", "probit-a1-rho05-m4-p10", *common]) == 0
        by_preset = json.loads(capsys.readouterr().out)
        assert main(["simulate", "--config", str(path), *common]) == 0
        by_config = json.loads(capsys.readouterr().out)
        for row in by_preset + by_config:
            del row["scenario"]
        assert by_config == by_preset

    def test_unknown_preset(self, capsys):
        assert main(["simulate", "--preset", "bogus-null-x"]) == 1
        assert "error" in capsys.readouterr().err


class TestGenerateCommand:
    def test_generate_writes_readable_csv(self, tmp_path):
        out = tmp_path / "gen.csv"
        rc = main(["generate", "--preset", "quadexp-null-w05-p10",
                   "--seed", "4", "--output", str(out)])
        assert rc == 0
        d = read_clustered_csv(str(out))
        assert d.p == 10
        assert d.response_kind == "binary_pm1"
        assert set(np.unique(d.y)) == {-1.0, 1.0}

    def test_unknown_preset_name_is_one_line(self, tmp_path, capsys):
        # names that look like presets but are not in PRESETS once raised
        # an IndexError traceback or built a neighbouring design
        for bad in ("mvn-null-rho05", "probit-null-rho0", "quadexp-null-w05", "gamma-null-bogus",
                    "quadexp-null-w05-p10-extra"):
            rc = main(["generate", "--preset", bad, "--output", str(tmp_path / "g.csv")])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("error: ") and err.count("\n") == 1


def test_each_subcommand_keeps_its_option_strings():
    # the shared options are argparse parents, so --help lists them first
    expected = {
        "fit": ["--model", "--data", "--naive", "--cluster-means", "--format", "--output"],
        "test": ["--model", "--data", "--contrasts", "--alpha", "--methods", "--naive", "--seed",
                 "--qmc-points", "--qmc-shifts", "--format", "--output"],
        "simulate": ["--preset", "--config", "--list-presets", "--replicates", "--seed",
                     "--workers", "--contrast-kind", "--format", "--output"],
        "generate": ["--preset", "--seed", "--output"],
    }
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    got = {name: sorted(s for a in p._actions for s in a.option_strings) for name, p in commands.items()}
    assert got == {name: sorted(["-h", "--help", *opts]) for name, opts in expected.items()}


# ---------------------------------------------------------------------------
# golden output: clmc fit/test stdout (or --output file) recorded byte for byte

CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
GOLDEN_DATA = {"mvn": "mvn-a2-rho05-m4-p10", "quadexp": "quadexp-a1-w05-p10",
               "gamma": "gamma-a1-correlated"}
GOLDEN_SEED = "7"


def write_golden_csvs(root: Path) -> dict:
    """The recorded commands' data files: three `clmc generate` outputs, and
    QUADEXP_SPEC's rows (the quadexp presets repeat one covariate row per
    cluster, on which --cluster-means changes nothing)."""
    paths = {key: str(root / f"{key}.csv") for key in (*GOLDEN_DATA, "quadexp_rows")}
    for key, preset in GOLDEN_DATA.items():
        assert main(["generate", "--preset", preset, "--seed", GOLDEN_SEED,
                     "--output", paths[key]]) == 0
    write_clustered_csv(generate(QUADEXP_SPEC), paths["quadexp_rows"])
    return paths


@pytest.fixture(scope="module")
def golden_csvs(tmp_path_factory):
    return write_golden_csvs(tmp_path_factory.mktemp("golden"))


def run_golden_case(argv, paths, out_path, capsys) -> dict:
    """Run one recorded command line; its exit code, stdout and --output file."""
    argv = [a.format(out=out_path, **paths) for a in argv]
    rc = main(argv)
    stdout = capsys.readouterr().out
    written = None
    if "--output" in argv:
        with open(out_path, newline="") as fh:
            written = fh.read()
    return {"rc": rc, "stdout": stdout, "output": written}


@pytest.mark.parametrize("case", CLI_GOLDEN, ids=[c["name"] for c in CLI_GOLDEN])
def test_cli_output_matches_recording(case, golden_csvs, tmp_path, capsys):
    got = run_golden_case(case["argv"], golden_csvs, str(tmp_path / "out.txt"), capsys)
    assert got == {k: case[k] for k in ("rc", "stdout", "output")}
