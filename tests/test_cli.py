"""Command-line behavior: flags, exit codes, output files, determinism."""

from __future__ import annotations

import contextlib
import csv
import errno
import gc
import io
import json
import os
import shutil
import sys

import pytest

from baserates import cli, metrics, stats
from baserates.cli import EXIT_EMPTY, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from baserates.facts import ProjectMeta, SizeRecord
from conftest import CORPUS, SLOC_DIR, SLOC_MANIFEST


def copy_corpus(tmp_path):
    shutil.copy(CORPUS / "metadata.jsonl", tmp_path / "metadata.jsonl")
    shutil.copy(CORPUS / "facts.csv", tmp_path / "facts.csv")


def analyze_args(tmp_path, **overrides):
    args = {
        "metadata": str(tmp_path / "metadata.jsonl"),
        "facts": str(tmp_path / "facts.csv"),
        "cutoff-year": "2012",
        "out": str(tmp_path / "out"),
    }
    args.update(overrides)
    argv = ["analyze"]
    for flag, value in args.items():
        if value is None:
            continue
        argv += [f"--{flag}", str(value)]
    return argv


class TestCount:
    def test_counts_fixture_tree(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        assert main(["count", "--root", str(SLOC_DIR), "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert rows[0] == ["path", "language", "code", "comment", "blank"]
        total = rows[-1]
        expected = [sum(c[i] for c in SLOC_MANIFEST.values()) for i in range(3)]
        assert total == ["(total)", "(all)"] + [str(v) for v in expected]
        file_rows = [r for r in rows[1:] if r[0] != "(total)"]
        assert len(file_rows) == len(SLOC_MANIFEST)

    def test_stdout_by_default(self, capsys):
        assert main(["count", "--root", str(SLOC_DIR)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.startswith("path,language,code,comment,blank")

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failing_stdout_is_io_error(self, monkeypatch, capsys, failing):
        class FullStdout(io.StringIO):
            def fail(self, *args):
                raise OSError(28, "No space left on device")

        stdout = FullStdout()
        setattr(stdout, failing, stdout.fail)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["count", "--root", str(SLOC_DIR)]) == EXIT_IO
        assert capsys.readouterr().err == "baserates: [Errno 28] No space left on device\n"

    def test_missing_root_is_io_error(self, tmp_path, capsys):
        code = main(["count", "--root", str(tmp_path / "absent")])
        assert code == EXIT_IO
        assert "baserates:" in capsys.readouterr().err

    def test_tree_without_registered_extensions(self, tmp_path, capsys):
        (tmp_path / "blob.xyz").write_text("data\n", encoding="utf-8")
        assert main(["count", "--root", str(tmp_path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "(total),(all),0,0,0" in captured.out
        assert "skipped" in captured.err

    def test_unreadable_entries_are_warned_before_the_csv(self, tmp_path, monkeypatch):
        # Root lists any directory whatever its mode, so the denial is simulated.
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.c").write_text("int a;\n", encoding="utf-8")
        (tmp_path / "sub" / "b.c").write_text("int b;\n", encoding="utf-8")
        (tmp_path / "blob.xyz").write_text("data\n", encoding="utf-8")
        (tmp_path / "gone.c").symlink_to(tmp_path / "absent.c")
        real_scandir = os.scandir

        def scandir(path):
            if os.path.basename(path) == "sub":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        both = io.StringIO()  # stdout and stderr in the order they are written
        monkeypatch.setattr(sys, "stdout", both)
        monkeypatch.setattr(sys, "stderr", both)
        assert main(["count", "--root", str(tmp_path)]) == EXIT_OK
        assert both.getvalue().splitlines() == [
            f"baserates: WARNING: skipping unreadable {tmp_path / 'gone.c'}: "
            + os.strerror(errno.ENOENT),
            f"baserates: WARNING: skipping unreadable {tmp_path / 'sub'}: "
            + os.strerror(errno.EACCES),
            "path,language,code,comment,blank",
            "a.c,clike,1,0,0",
            "(total),clike,1,0,0",
            "(total),(all),1,0,0",
            "baserates: skipped 1 file(s) with unregistered extensions",
        ]

    def test_custom_registry(self, tmp_path, capsys):
        registry = tmp_path / "registry.json"
        registry.write_text(
            json.dumps(
                {
                    "languages": [
                        {"name": "lisp", "extensions": [".el"], "line_comments": [";"]}
                    ]
                }
            ),
            encoding="utf-8",
        )
        (tmp_path / "init.el").write_text("; comment\n(setq x 1)\n", encoding="utf-8")
        assert (
            main(
                [
                    "count",
                    "--root",
                    str(tmp_path),
                    "--registry",
                    str(registry),
                ]
            )
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert "init.el,lisp,1,1,0" in out

    def test_bad_registry_is_io_error(self, tmp_path, capsys):
        registry = tmp_path / "registry.json"
        for document in (
            "{broken",
            "[" * 100_000 + "]" * 100_000,
            '{"languages": 5}',
            '{"languages": [{"name": "x", "extensions": [".x"], "line_comments": [" #"]}]}',
            '{"languages": [{"name": "x", "extensions": [".x"], "line_comments": ["#\\n"]}]}',
        ):
            registry.write_text(document, encoding="utf-8")
            assert (
                main(["count", "--root", str(SLOC_DIR), "--registry", str(registry)])
                == EXIT_IO
            )
            assert "cannot load registry" in capsys.readouterr().err


class TestAnalyze:
    def test_end_to_end_writes_all_artifacts(self, tmp_path):
        copy_corpus(tmp_path)
        assert main(analyze_args(tmp_path, svg=None) + ["--svg"]) == EXIT_OK
        out = tmp_path / "out"
        for name in (
            "report.json",
            "report.txt",
            "yearly_aggregates.csv",
            "boxplot_cs.svg",
            "boxplot_cga.svg",
            "boxplot_cgi.svg",
        ):
            assert (out / name).exists(), name
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert doc["validation"]["projects_collected"] == 10
        assert [m["metric"] for m in doc["metrics"]] == ["CS", "CGa", "CGi"]

    def test_no_svg_by_default(self, tmp_path):
        copy_corpus(tmp_path)
        assert main(analyze_args(tmp_path)) == EXIT_OK
        assert not (tmp_path / "out" / "boxplot_cs.svg").exists()

    def test_rerun_into_the_same_directory_leaves_no_stale_boxplot(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        out = tmp_path / "out"
        svgs = ["boxplot_cga.svg", "boxplot_cgi.svg", "boxplot_cs.svg"]

        def boxplots():
            return sorted(path.name for path in out.glob("boxplot_*.svg"))

        assert main(analyze_args(tmp_path) + ["--svg"]) == EXIT_OK
        assert boxplots() == svgs
        # Every month lies after a 1990 cut-off, so no metric is rendered.
        assert main(analyze_args(tmp_path, **{"cutoff-year": "1990"}) + ["--svg"]) == EXIT_EMPTY
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["metrics"] == []
        assert boxplots() == []
        assert main(analyze_args(tmp_path) + ["--svg"]) == EXIT_OK
        assert main(analyze_args(tmp_path)) == EXIT_OK  # no --svg: none rendered
        assert boxplots() == []
        # A stale boxplot that cannot be removed is a write failure.
        (out / "boxplot_cs.svg").mkdir()
        capsys.readouterr()
        assert main(analyze_args(tmp_path)) == EXIT_IO
        assert "boxplot_cs.svg" in capsys.readouterr().err

    def test_omitted_cutoff_year_is_usage_error(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        argv = analyze_args(tmp_path)
        index = argv.index("--cutoff-year")
        del argv[index : index + 2]
        assert main(argv) == EXIT_USAGE
        assert "--cutoff-year" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["analyze", "--bogus"]) == EXIT_USAGE

    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("name", ["metadata.jsonl", "facts.csv"])
    def test_non_utf8_input_is_io_error(self, tmp_path, capsys, name):
        copy_corpus(tmp_path)
        bad_line = len((tmp_path / name).read_bytes().splitlines()) + 1
        with (tmp_path / name).open("ab") as handle:
            handle.write(b"caf\xe9\n")
        assert main(analyze_args(tmp_path)) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{tmp_path / name}:{bad_line}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_oversized_csv_field_is_io_error_with_line(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        lines = (tmp_path / "facts.csv").read_text(encoding="utf-8").splitlines()
        lines.insert(2, "x" * 131_073 + ",2010,1,1,0,0,,,,")
        (tmp_path / "facts.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(analyze_args(tmp_path)) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{tmp_path / 'facts.csv'}:3:" in err
        assert "Traceback" not in err

    def test_loc_beyond_float_range_is_one_malformed_row(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        facts = tmp_path / "facts.csv"
        text = facts.read_text(encoding="utf-8")
        huge = "1" + "0" * 400
        facts.write_text(text.replace("echo,2012,12,363,", f"echo,2012,12,{huge},"), encoding="utf-8")
        assert main(analyze_args(tmp_path)) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            f"baserates: WARNING: {facts}:55: size fields must not exceed 2**53 in magnitude"
        ]

    def test_integer_past_the_digit_limit_is_one_malformed_metadata_line(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        metadata = tmp_path / "metadata.jsonl"
        with metadata.open("a", encoding="utf-8") as handle:
            handle.write('{"name": "zz", "tags": [%s]}\n' % ("9" * 5000))  # line 11
        assert main(analyze_args(tmp_path)) == EXIT_OK
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err.splitlines() == [
            f"baserates: WARNING: {metadata}:11: invalid JSON: integer longer than {limit} digits"
        ]

    def test_warnings_come_metadata_then_facts_then_duplicates(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        metadata, facts = tmp_path / "metadata.jsonl", tmp_path / "facts.csv"
        with metadata.open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with facts.open("a", encoding="utf-8") as handle:
            handle.write("alpha,2012,13,1,1,1,1,1,1,1\n")  # line 81
            handle.write("alpha,2011,1,1000,100,40,,,,\n")  # a second size record
        assert main(analyze_args(tmp_path)) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            f"baserates: WARNING: {metadata}:11: invalid JSON: Expecting value",
            f"baserates: WARNING: {facts}:81: month 13 outside 1..12",
            "baserates: WARNING: duplicate size record for 'alpha' at 2011-01; project rejected",
        ]

    def test_metadata_error_wins_when_both_inputs_fail(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        for name in ("metadata.jsonl", "facts.csv"):
            with (tmp_path / name).open("ab") as handle:
                handle.write(b"caf\xe9\n")
        assert main(analyze_args(tmp_path)) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"baserates: {tmp_path / 'metadata.jsonl'}:11: not UTF-8 text")
        assert len(err.splitlines()) == 1 and "facts.csv" not in err

    def test_metadata_is_read_after_the_facts_join(self, tmp_path, monkeypatch):
        from baserates import ingest

        copy_corpus(tmp_path)
        calls = []

        def recorded(name, inner):
            def call(*args):
                calls.append(name)
                return inner(*args)

            return call

        for owner, name in ((ingest, "read_metadata"), (ingest, "read_facts"), (cli, "join_facts")):
            monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))
        assert main(analyze_args(tmp_path)) == EXIT_OK
        assert calls == ["read_facts", "join_facts", "read_metadata"]

    def test_each_rendered_metric_gets_one_boxplot_pass(self, tmp_path, monkeypatch):
        # One _boxplot per metric feeds its summary, report.json and its SVG.
        copy_corpus(tmp_path)
        inner, sizes = stats._boxplot, []

        def spy(xs):
            sizes.append(len(xs))
            return inner(xs)

        monkeypatch.setattr(stats, "_boxplot", spy)
        assert main(analyze_args(tmp_path) + ["--svg"]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert sizes == [m["observations"] for m in doc["metrics"]] and len(sizes) == 3

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        argv = analyze_args(tmp_path, metadata=str(tmp_path / "absent.jsonl"))
        assert main(argv) == EXIT_IO

    def test_empty_survivor_set_exits_3_with_report_written(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        argv = analyze_args(tmp_path, **{"cutoff-year": "1990"})
        assert main(argv) == EXIT_EMPTY
        assert capsys.readouterr().err.splitlines() == [
            "baserates: validation eliminated every project-month; "
            "reports written with empty metrics",
        ]
        report_text = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
        assert "no metrics computed" in report_text
        doc = json.loads(
            (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        )
        assert doc["validation"]["after_cutoff"]["months"] == 0

    def test_rule_1_emptying_the_survivors_blames_no_cutoff(self, tmp_path, capsys):
        # Rule 1 removes every project, zzz too; the cut-off removes nothing.
        copy_corpus(tmp_path)
        (tmp_path / "metadata.jsonl").write_text(
            '{"name": "zzz", "enlistments": [], "tags": []}\n', encoding="utf-8"
        )
        assert main(analyze_args(tmp_path)) == EXIT_EMPTY
        assert capsys.readouterr().err.splitlines() == [
            "baserates: validation eliminated every project-month; "
            "reports written with empty metrics",
        ]
        doc = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert doc["validation"]["projects_collected"] == 9
        assert doc["validation"]["excluded_missing_data"] == 9

    def test_growthless_policy_changes_observation_counts(self, tmp_path):
        copy_corpus(tmp_path)
        assert main(analyze_args(tmp_path)) == EXIT_OK
        undefined_doc = json.loads(
            (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        )
        assert main(analyze_args(tmp_path, **{"growthless-year-policy": "zero"})) == EXIT_OK
        zero_doc = json.loads(
            (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        )
        by_metric = lambda doc: {m["metric"]: m for m in doc["metrics"]}
        # foxtrot 2011 has a single month: no growth evidence
        assert by_metric(undefined_doc)["CGa"]["observations"] == 7
        assert by_metric(undefined_doc)["CGa"]["undefined_excluded"] == 1
        assert by_metric(zero_doc)["CGa"]["observations"] == 8
        assert by_metric(zero_doc)["CGa"]["undefined_excluded"] == 0

    # setting: flag value, config value the flag beats, config value used
    # alone, and the default (None: the setting is required)
    SETTINGS = {
        "metadata": ("a/metadata.jsonl", "b/metadata.jsonl", "b/metadata.jsonl", None),
        "facts": ("a/facts.csv", "b/facts.csv", "b/facts.csv", None),
        "cutoff_year": (2012, 2011, 2011, None),
        "growthless_year_policy": ("undefined", "zero", "zero", "undefined"),
        "out": ("out-flag", "out-config", "out-config", None),
        "svg": (True, False, True, False),
    }

    @pytest.mark.parametrize("case", ["flag-wins", "config-alone", "neither"])
    @pytest.mark.parametrize("key", list(SETTINGS))
    def test_config_file_supplies_defaults_and_flags_win(
        self, tmp_path, monkeypatch, capsys, key, case
    ):
        monkeypatch.chdir(tmp_path)
        for copy in ("a", "b"):
            (tmp_path / copy).mkdir()
            copy_corpus(tmp_path / copy)
        flag_value, beaten, alone, default = self.SETTINGS[key]
        flag = "--" + key.replace("_", "-")
        config = {
            "metadata": "a/metadata.jsonl",
            "facts": "a/facts.csv",
            "cutoff_year": 2012,
            "out": "out",
        }
        config.pop(key, None)
        argv = ["analyze", "--config", "run.json"]
        if case == "flag-wins":
            config[key] = beaten
            argv += [flag] if flag_value is True else [flag, str(flag_value)]
            expected = flag_value
        elif case == "config-alone":
            config[key] = expected = alone
        else:
            expected = default
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")

        code = main(argv)
        if expected is None:
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"baserates: error: missing required option(s): {flag}\n"
            )
            return
        assert code == EXIT_OK
        resolved = {"growthless_year_policy": "undefined", "svg": False, **config}
        resolved[key] = expected
        out = tmp_path / resolved["out"]
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["config"] == resolved
        assert (out / "boxplot_cs.svg").exists() == resolved["svg"]

    def test_config_alone_is_sufficient(self, tmp_path):
        copy_corpus(tmp_path)
        config = {
            "metadata": str(tmp_path / "metadata.jsonl"),
            "facts": str(tmp_path / "facts.csv"),
            "cutoff_year": 2012,
            "out": str(tmp_path / "out"),
            "svg": True,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["analyze", "--config", str(config_path)]) == EXIT_OK
        assert (tmp_path / "out" / "boxplot_cs.svg").exists()

    @pytest.mark.parametrize(
        "document,message",
        [
            (b"{broken", "cannot load config"),
            (b"[" * 100_000 + b"]" * 100_000, "cannot load config"),
            (b"[]", "config file must hold a JSON object"),
            (b'{"cutoff_year": 2012, "x": "\xff"}', "cannot load config: 'utf-8' codec"),
            (b'{"cutoff_year": %s}' % (b"9" * 5000), "cannot load config: Exceeds the limit"),
        ],
        ids=["broken", "deeply-nested", "not-an-object", "not-utf-8", "digit-limit"],
    )
    def test_unloadable_config_is_io_error(self, tmp_path, capsys, document, message):
        config_path = tmp_path / "run.json"
        config_path.write_bytes(document)
        assert main(["analyze", "--config", str(config_path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_bad_cutoff_type_in_config_is_usage_error(self, tmp_path, capsys):
        copy_corpus(tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "metadata": str(tmp_path / "metadata.jsonl"),
                    "facts": str(tmp_path / "facts.csv"),
                    "cutoff_year": "2012",
                    "out": str(tmp_path / "out"),
                }
            ),
            encoding="utf-8",
        )
        assert main(["analyze", "--config", str(config_path)]) == EXIT_USAGE

    def test_unknown_policy_in_config_is_usage_error(self, tmp_path, capsys):
        # argparse's choices stop a bad --growthless-year-policy; only a config reaches the check.
        copy_corpus(tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "metadata": str(tmp_path / "metadata.jsonl"),
                    "facts": str(tmp_path / "facts.csv"),
                    "cutoff_year": 2012,
                    "out": str(tmp_path / "out"),
                    "growthless_year_policy": "bogus",
                }
            ),
            encoding="utf-8",
        )
        assert main(["analyze", "--config", str(config_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "baserates: error: unknown growthless-year policy 'bogus'\n"
        )

    @pytest.mark.parametrize(
        "key,value",
        [("metadata", 5), ("facts", ["facts.csv"]), ("out", True), ("svg", "no")],
    )
    def test_mistyped_config_value_is_usage_error(self, tmp_path, capsys, key, value):
        copy_corpus(tmp_path)
        config = {
            "metadata": str(tmp_path / "metadata.jsonl"),
            "facts": str(tmp_path / "facts.csv"),
            "cutoff_year": 2012,
            "out": str(tmp_path / "out"),
            key: value,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["analyze", "--config", str(config_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert repr(key) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["a\0b", "a\ud800b"], ids=["nul", "lone-surrogate"])
    @pytest.mark.parametrize("key", ["metadata", "facts", "out"])
    def test_unusable_path_in_config_is_usage_error(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # open() and mkdir() raise ValueError on these; the check comes before any file is opened.
        monkeypatch.setattr(cli, "run_analyze", lambda config: pytest.fail("inputs opened"))
        copy_corpus(tmp_path)
        config = {
            "metadata": str(tmp_path / "metadata.jsonl"),
            "facts": str(tmp_path / "facts.csv"),
            "cutoff_year": 2012,
            "out": str(tmp_path / "out"),
            key: value,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["analyze", "--config", str(config_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"baserates: error: config key {key!r} must be a path without NUL "
            "or unencodable characters\n"
        )

    @pytest.mark.parametrize("value", ["{}", "0", '""', "false"])
    @pytest.mark.parametrize("key", ["enlistments", "tags"])
    def test_falsy_non_list_metadata_is_malformed(self, tmp_path, capsys, key, value):
        # golf fails the SVN screen; read as empty, its enlistments would pass it.
        copy_corpus(tmp_path)
        meta_path = tmp_path / "metadata.jsonl"
        lines = meta_path.read_text(encoding="utf-8").splitlines()
        lineno = next(n for n, line in enumerate(lines, 1) if '"golf"' in line)
        lines[lineno - 1] = f'{{"name": "golf", "{key}": {value}}}'
        meta_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(analyze_args(tmp_path)) == EXIT_OK
        assert any(
            line.startswith(f"baserates: WARNING: {meta_path}:{lineno}: {key} must be a list")
            for line in capsys.readouterr().err.splitlines()
        )
        doc = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert doc["validation"]["excluded_svn_config"] == 0
        assert doc["validation"]["excluded_missing_data"] == 3
        assert doc["validation"]["projects_remaining"] == 7

    def test_each_call_warns_on_its_own_stderr(self, tmp_path):
        copy_corpus(tmp_path)
        with (tmp_path / "facts.csv").open("a", encoding="utf-8") as handle:
            handle.write("alpha,2012,13,1,1,1,1,1,1,1\n")
        errs = []
        for run in ("first", "second"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(analyze_args(tmp_path, out=tmp_path / run)) == EXIT_OK
            errs.append(err.getvalue())
        assert errs[0] == errs[1]
        assert errs[1].count("baserates: WARNING: ") == 1
        assert "month 13 outside 1..12" in errs[1]

    def test_diagnostics_spanning_several_batches_keep_their_order(self, tmp_path, monkeypatch):
        copy_corpus(tmp_path)
        metadata, facts = tmp_path / "metadata.jsonl", tmp_path / "facts.csv"
        bad_lines = 2 * cli._WARNING_BATCH + 7
        with metadata.open("a", encoding="utf-8") as handle:
            handle.write("not json\n" * bad_lines)  # lines 11 on
        with facts.open("a", encoding="utf-8") as handle:
            handle.write("alpha,2012,13,1,1,1,1,1,1,1\n")  # line 81
            handle.write("alpha,2012,0,1,1,1,1,1,1,1\n")
            handle.write("bravo,2012,1,1000,100,40,,,,\n")  # a second size record
            handle.write("alpha,2011,2,,,,1,1,1,1\n")  # a second activity record
        expected = [
            *(f"{metadata}:{n}: invalid JSON: Expecting value" for n in range(11, 11 + bad_lines)),
            f"{facts}:81: month 13 outside 1..12",
            f"{facts}:82: month 0 outside 1..12",
            "duplicate size record for 'bravo' at 2012-01; project rejected",
            "duplicate activity record for 'alpha' at 2011-02; project rejected",
        ]

        class Stderr(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        stderr = Stderr()
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(analyze_args(tmp_path)) == EXIT_OK
        assert stderr.getvalue().splitlines() == [f"baserates: WARNING: {m}" for m in expected]
        assert stderr.writes == -(-len(expected) // cli._WARNING_BATCH)  # not one per line

    def test_failing_stderr_changes_no_output(self, tmp_path, monkeypatch):
        copy_corpus(tmp_path)
        with (tmp_path / "metadata.jsonl").open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with (tmp_path / "facts.csv").open("a", encoding="utf-8") as handle:
            handle.write("alpha,2012,13,1,1,1,1,1,1,1\n")

        class BrokenPipe(io.StringIO):
            def write(self, *args):
                raise BrokenPipeError(32, "Broken pipe")

            flush = write

        argv = analyze_args(tmp_path) + ["--svg"]
        out = tmp_path / "out"
        assert main(argv) == EXIT_OK
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        shutil.rmtree(out)
        monkeypatch.setattr(sys, "stderr", BrokenPipe())
        assert main(argv) == EXIT_OK
        assert {path.name: path.read_bytes() for path in out.iterdir()} == written
        assert "boxplot_cs.svg" in written

        # Nor does it change an exit code: each of these runs writes to stderr.
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "a.c").write_text("int a;\n", encoding="utf-8")
        (tree / "blob.xyz").write_text("data\n", encoding="utf-8")  # skipped
        (tree / "gone.c").symlink_to(tree / "absent.c")  # unreadable
        counts = tmp_path / "counts.csv"
        assert main(["count", "--root", str(tree), "--out", str(counts)]) == EXIT_OK
        assert counts.read_text(encoding="utf-8").splitlines() == [
            "path,language,code,comment,blank",
            "a.c,clike,1,0,0",
            "(total),clike,1,0,0",
            "(total),(all),1,0,0",
        ]
        assert main(analyze_args(tmp_path, **{"cutoff-year": "1990"})) == EXIT_EMPTY
        assert main(analyze_args(tmp_path, facts=tmp_path / "absent.csv")) == EXIT_IO

    def test_inputs_are_freed_before_the_later_stages(self, tmp_path, monkeypatch):
        # main turns the cyclic GC off, so every record of the run stays
        # tracked while alive and gc.get_objects() finds it. Records alive
        # before the run (other tests' data) are held, so no new record
        # reuses their ids, and are not counted.
        copy_corpus(tmp_path)
        kinds = (ProjectMeta, SizeRecord)
        before = {id(obj): obj for obj in gc.get_objects() if isinstance(obj, kinds)}
        alive = {}

        def counting(name, kind, inner):
            def call(*args):
                alive.setdefault(name, sum(
                    isinstance(obj, kind) and id(obj) not in before
                    for obj in gc.get_objects()
                ))
                return inner(*args)

            return call

        # The metadata is gone once validation is done, the months once aggregated.
        for owner, name, kind in ((metrics, "aggregate_all", ProjectMeta), (stats, "summarize", SizeRecord)):
            monkeypatch.setattr(owner, name, counting(name, kind, getattr(owner, name)))
        assert main(analyze_args(tmp_path)) == EXIT_OK
        assert alive == {"aggregate_all": 0, "summarize": 0}

    def test_aggregates_csv_matches_survivors(self, tmp_path):
        copy_corpus(tmp_path)
        assert main(analyze_args(tmp_path)) == EXIT_OK
        lines = (
            (tmp_path / "out" / "yearly_aggregates.csv")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert lines[0] == "project,year,cs,cga,cgi,age,months_present"
        assert len(lines) == 1 + 8  # eight surviving project-years
        foxtrot_2011 = next(l for l in lines if l.startswith("foxtrot,2011"))
        assert foxtrot_2011 == "foxtrot,2011,500,,,0,1"


class TestGcPause:
    """``main`` pauses the cyclic GC for the command and restores the caller's setting."""

    def record_gc(self, monkeypatch, outcome=EXIT_OK):
        seen = []

        def command(*args):
            seen.append(gc.isenabled())
            if isinstance(outcome, int):
                return outcome
            raise outcome

        monkeypatch.setattr(cli, "run_analyze", command)
        monkeypatch.setattr(cli, "_cmd_count", command)
        return seen

    @pytest.mark.parametrize("command", ["analyze", "count"])
    def test_gc_is_off_during_the_command(self, tmp_path, monkeypatch, command):
        seen = self.record_gc(monkeypatch)
        argv = analyze_args(tmp_path) if command == "analyze" else ["count", "--root", "."]
        assert main(argv) == EXIT_OK
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("outcome", [EXIT_OK, EXIT_IO, EXIT_EMPTY, RuntimeError("boom")])
    def test_gc_is_on_again_after_the_command(self, tmp_path, monkeypatch, outcome):
        seen = self.record_gc(monkeypatch, outcome)
        if isinstance(outcome, int):
            assert main(analyze_args(tmp_path)) == outcome
        else:
            with pytest.raises(RuntimeError, match="boom"):
                main(analyze_args(tmp_path))
        assert seen == [False]
        assert gc.isenabled()

    def test_caller_with_gc_off_keeps_it_off(self, tmp_path, monkeypatch):
        seen = self.record_gc(monkeypatch)
        gc.disable()
        try:
            assert main(analyze_args(tmp_path)) == EXIT_OK
            assert main(["count", "--root", "."]) == EXIT_OK
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False, False]
