"""Line classifier: fixtures with manual counts, invariants, tree walking."""

from __future__ import annotations

import errno
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baserates.sloc import (
    LanguageSyntax,
    LineCounts,
    classify_lines,
    count_file,
    count_tree,
    default_registry,
    extension_map,
    load_registry,
)
from conftest import SLOC_DIR, SLOC_MANIFEST, child_env
from test_sloc_oracle import physical_lines

C_LIKE = next(s for s in default_registry() if s.name == "clike")
HASH = next(s for s in default_registry() if s.name == "hash")
TEXT = next(s for s in default_registry() if s.name == "text")


def counted(text, syntax=C_LIKE):
    c = classify_lines(text, syntax)
    return (c.code, c.comment, c.blank)


def independent_line_count(text: str) -> int:
    # Oracle for totals: newline count plus an unterminated final line.
    return text.count("\n") + (1 if text and not text.endswith("\n") else 0)


class TestClassifyLines:
    def test_code_blank_comment(self):
        assert counted("x = 1\n\n// note\n") == (1, 1, 1)

    def test_empty_text(self):
        assert counted("") == (0, 0, 0)

    def test_trailing_line_comment_counts_as_code(self):
        assert counted("int x; // explanation\n") == (1, 0, 0)

    def test_block_comment_state_carries_across_lines(self):
        assert counted("/*\nhidden()\n*/\nreal();\n") == (1, 3, 0)

    def test_unterminated_block_runs_to_end(self):
        assert counted("/* open\nstill inside\n") == (0, 2, 0)

    def test_comment_openers_inside_strings_are_inert(self):
        assert counted('s = "// not a comment";\n') == (1, 0, 0)
        assert counted('s = "/* neither */";\n') == (1, 0, 0)
        assert counted("v = '#nope'\n", HASH) == (1, 0, 0)

    def test_escaped_quote_does_not_close_string(self):
        assert counted('s = "a\\"b // still string";\n') == (1, 0, 0)

    def test_block_comments_do_not_nest(self):
        assert counted("/* a /* b */ code();\n") == (1, 0, 0)

    def test_whitespace_only_line_inside_block_is_blank(self):
        assert counted("/*\n   \n*/\n") == (0, 2, 1)

    def test_code_after_block_close_on_same_line(self):
        assert counted("/* note */ x = 1;\n") == (1, 0, 0)

    def test_block_open_and_close_same_line_comment_only(self):
        assert counted("  /* note */\n") == (0, 1, 0)

    def test_no_comment_language_counts_all_nonblank_as_code(self):
        assert counted("# looks like a comment\ntext\n", TEXT) == (2, 0, 0)

    def test_final_line_without_newline_counts(self):
        assert counted("int x;\nint y;") == (2, 0, 0)

    def test_crlf_endings(self):
        assert counted("// a\r\nb;\r\n\r\n") == (1, 1, 1)

    @given(st.text(alphabet="ab /*#\"'\\\n\t", max_size=300))
    def test_counts_sum_to_physical_lines(self, text):
        for syntax in (C_LIKE, HASH, TEXT):
            counts = classify_lines(text, syntax)
            assert counts.total == independent_line_count(text)

    @given(st.text(alphabet="ab /*\"\n", max_size=200))
    def test_trailing_newline_insensitive(self, text):
        if not text or text.endswith("\n"):
            return
        assert classify_lines(text, C_LIKE) == classify_lines(text + "\n", C_LIKE)


class TestFixtureFiles:
    @pytest.mark.parametrize("name,expected", sorted(SLOC_MANIFEST.items()))
    def test_manual_counts(self, name, expected):
        path = SLOC_DIR / name
        syntax = extension_map(default_registry())[path.suffix.lower()]
        text = path.read_bytes().decode("utf-8", errors="replace")
        counts = classify_lines(text, syntax)
        assert (counts.code, counts.comment, counts.blank) == expected
        assert counts.total == independent_line_count(text)

    def test_concatenation_of_closed_files_is_additive(self):
        # Every fixture ending in a newline leaves no block comment open,
        # so concatenation must add up exactly.
        names = ["hello.c", "strings.c", "block.c", "nested.c", "only_comment.c"]
        texts = [(SLOC_DIR / name).read_text(encoding="utf-8") for name in names]
        for first in texts:
            for second in texts:
                combined = classify_lines(first + second, C_LIKE)
                separate = classify_lines(first, C_LIKE) + classify_lines(second, C_LIKE)
                assert combined == separate


class TestPhysicalLines:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("", []),
            ("\n", [""]),
            ("a", ["a"]),
            ("a\n", ["a"]),
            ("a\nb", ["a", "b"]),
            ("a\r\nb\r\n", ["a", "b"]),
        ],
    )
    def test_splitting(self, text, expected):
        assert physical_lines(text) == expected


class TestCountTree:
    def build_tree(self, root):
        # 10 physical lines: 7 code, 2 comment, 1 blank
        (root / "main.c").write_text(
            "// header\n"
            "/* block */\n"
            "\n"
            "int a;\n"
            "int b;\n"
            "int c;\n"
            "int d;\n"
            "int e;\n"
            "int f;\n"
            "int g;\n",
            encoding="utf-8",
        )

    def test_single_file_totals(self, tmp_path):
        self.build_tree(tmp_path)
        tree = count_tree(tmp_path, default_registry())
        assert tree.total == LineCounts(7, 2, 1)
        assert [fc.path for fc in tree.files] == ["main.c"]
        assert tree.by_language["clike"] == LineCounts(7, 2, 1)

    def test_empty_directory(self, tmp_path):
        tree = count_tree(tmp_path, default_registry())
        assert tree.files == [] and tree.total == LineCounts(0, 0, 0)

    def test_unrecognized_extension_skipped(self, tmp_path):
        (tmp_path / "data.xyz").write_text("some payload\n", encoding="utf-8")
        tree = count_tree(tmp_path, default_registry())
        assert tree.files == [] and tree.skipped == 1

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(OSError):
            count_tree(tmp_path / "absent", default_registry())

    def test_unreadable_file_is_recorded_and_skipped(self, tmp_path):
        self.build_tree(tmp_path)
        os.symlink(tmp_path / "missing-target.c", tmp_path / "broken.c")
        tree = count_tree(tmp_path, default_registry())
        assert len(tree.unreadable) == 1 and "broken.c" in tree.unreadable[0]
        assert tree.total == LineCounts(7, 2, 1)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_is_recorded_and_skipped_without_blocking(self, tmp_path):
        # Opening a FIFO blocks until a writer appears, so the count runs in
        # a child process that a hang cannot take the test suite down with.
        root = tmp_path / "tree"
        root.mkdir()
        self.build_tree(root)
        os.mkfifo(root / "pipe.c")
        result = subprocess.run(
            [sys.executable, "-m", "baserates", "count", "--root", str(root)],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[1:] == [
            "main.c,clike,7,2,1",
            "(total),clike,7,2,1",
            "(total),(all),7,2,1",
        ]
        assert f"{root / 'pipe.c'}: not a regular file" in result.stderr

    def test_totals_sum_over_languages_and_subdirs(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.c").write_text("int a;\n// c\n", encoding="utf-8")
        (tmp_path / "sub" / "b.py").write_text("x = 1\n# p\n\n", encoding="utf-8")
        tree = count_tree(tmp_path, default_registry())
        assert tree.by_language["clike"] == LineCounts(1, 1, 0)
        assert tree.by_language["hash"] == LineCounts(1, 1, 1)
        assert tree.total == LineCounts(2, 2, 1)
        assert [fc.path for fc in tree.files] == ["a.c", "sub/b.py"]

    def test_unlistable_directory_is_recorded_with_a_warning(self, tmp_path, monkeypatch):
        # The warning is the CLI's (tests/test_cli.py); the library records the entry.
        # Root lists any directory whatever its mode, so the denial is simulated.
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.c").write_text("int a;\n", encoding="utf-8")
        (tmp_path / "sub" / "b.c").write_text("int b;\n", encoding="utf-8")
        real_scandir = os.scandir

        def scandir(path):
            if os.path.basename(path) == "sub":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        tree = count_tree(tmp_path, default_registry())
        assert [fc.path for fc in tree.files] == ["a.c"]
        assert tree.unreadable == [f"{tmp_path / 'sub'}: {os.strerror(errno.EACCES)}"]

    def test_invalid_utf8_is_replaced_not_fatal(self, tmp_path):
        (tmp_path / "odd.c").write_bytes(b"caf\xe9 = 1;\n")
        tree = count_tree(tmp_path, default_registry())
        assert tree.total == LineCounts(1, 0, 0)


class TestRegistry:
    def test_count_file_reports_language_and_path(self, tmp_path):
        path = tmp_path / "x.py"
        path.write_text("x = 1\n", encoding="utf-8")
        fc = count_file(path, HASH)
        assert fc.language == "hash" and fc.counts.code == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_count_file_refuses_a_fifo_without_blocking(self, tmp_path):
        # Opening a FIFO blocks until a writer appears, so the call runs in a
        # child process that a hang cannot take the test suite down with.
        os.mkfifo(tmp_path / "pipe.c")
        script = (
            "import sys\n"
            "from baserates.sloc import count_file, default_registry\n"
            "try:\n"
            "    count_file(sys.argv[1], default_registry()[0])\n"
            "except OSError as exc:\n"
            "    print(exc.strerror)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "pipe.c")],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "not a regular file\n"

    def test_extension_lookup_is_case_insensitive(self, tmp_path):
        (tmp_path / "UPPER.C").write_text("int x;\n", encoding="utf-8")
        tree = count_tree(tmp_path, default_registry())
        assert tree.total.code == 1

    def test_load_registry_extends_and_overrides(self, tmp_path):
        config = tmp_path / "registry.json"
        config.write_text(
            json.dumps(
                {
                    "languages": [
                        {
                            "name": "lisp",
                            "extensions": [".lisp", ".el"],
                            "line_comments": [";"],
                        },
                        {
                            "name": "fancy-text",
                            "extensions": [".txt"],
                            "line_comments": ["%"],
                        },
                    ]
                }
            ),
            encoding="utf-8",
        )
        registry = load_registry(config)
        mapping = extension_map(registry)
        assert mapping[".lisp"].name == "lisp"
        assert mapping[".txt"].name == "fancy-text"  # config wins the clash
        assert mapping[".c"].name == "clike"  # defaults still present

    def test_load_registry_rejects_bad_entries(self, tmp_path):
        config = tmp_path / "registry.json"
        for document in (
            '{"languages": [{"name": "x"}]}',
            '{"languages": 5}',
            "[]",
            '{"languages": [{"name": "x", "extensions": [5]}]}',
            '{"languages": [{"name": "x", "extensions": "abc"}]}',
            '{"languages": [{"name": "x", "extensions": [".x"], "line_comments": "#"}]}',
            '{"languages": [{"name": "x", "extensions": [".x"], "string_delimiters": [1]}]}',
            '{"languages": [{"name": "x", "extensions": [".x"], "block_comments": [[5, 6]]}]}',
            # openers led by whitespace, which the scanner would never open
            '{"languages": [{"name": "x", "extensions": [".x"], "line_comments": [" #"]}]}',
            '{"languages": [{"name": "x", "extensions": [".x"], "line_comments": ["\\t;"]}]}',
            '{"languages": [{"name": "x", "extensions": [".x"], "block_comments": [[" /*", "*/"]]}]}',
            '{"languages": [{"name": "x", "extensions": [".x"], "string_delimiters": [" %"]}]}',
            # delimiters holding a line break, which a line never contains
            '{"languages": [{"name": "x", "extensions": [".x"], "line_comments": ["#\\n"]}]}',
            '{"languages": [{"name": "x", "extensions": [".x"], "string_delimiters": ["\\r\\""]}]}',
            '{"languages": [{"name": "x", "extensions": [".x"], "block_comments": [["/*", "*\\n/"]]}]}',
            # extensions no file name has, since a suffix runs from the last dot
            '{"languages": [{"name": "x", "extensions": ["foo"]}]}',
            '{"languages": [{"name": "x", "extensions": ["."]}]}',
            '{"languages": [{"name": "x", "extensions": [".tar.gz"]}]}',
            '{"languages": [{"name": "x", "extensions": [".a/b"]}]}',
        ):
            config.write_text(document, encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(str(config))):
                load_registry(config)

    def test_language_syntax_requires_extensions_and_delimiters(self):
        with pytest.raises(ValueError):
            LanguageSyntax("bad", ())
        with pytest.raises(ValueError):
            LanguageSyntax("bad", (".x",), line_comments=("",))

    @pytest.mark.parametrize(
        "delimiters",
        [
            {"line_comments": ("#\n",)},
            {"line_comments": ("\r#",)},
            {"block_comments": (("/*", "*\r\n/"),)},
            {"block_comments": (("\n/*", "*/"),)},
            {"string_delimiters": ('"', "\r")},
            # openers led by whitespace, where no opener is looked for
            {"line_comments": (" #",)},
            {"line_comments": ("#", "\t;")},
            {"block_comments": (("/*", "*/"), (" {-", "-}"))},
            {"string_delimiters": ("\xa0'",)},
        ],
    )
    def test_language_syntax_rejects_line_break_delimiters(self, delimiters):
        with pytest.raises(ValueError, match="line break|starts with whitespace"):
            LanguageSyntax("bad", (".x",), **delimiters)
