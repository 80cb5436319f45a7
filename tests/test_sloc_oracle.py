"""Differential tests of the line classifier and the tree walk against frozen oracles.

``_classify_line`` and ``_match_at`` below are the classifier the package
used before it masked whole texts. They step through a line one
character at a time and serve here as the oracle: the classifier must
give the same kind for every line, and so the same counts, on generated
and on real text. ``oracle_count_tree`` is the walk ``count_tree`` used
before it built its paths as strings: one ``pathlib.Path`` per file.
"""

from __future__ import annotations

import importlib
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baserates.sloc import (
    FileCount,
    LanguageSyntax,
    LineCounts,
    TreeCount,
    _read_and_classify,
    classify_lines,
    count_tree,
    default_registry,
    extension_map,
)
from conftest import SLOC_DIR

REPO = Path(__file__).resolve().parent.parent

# Openers that overlap within a group in both priority orders (`/*` before
# `/**`, `"""` before `"`) and across groups (line comment `--` and block
# opener `--[[`, block opener `{-` and string `{`, `|` in two groups),
# regex metacharacters, and a string delimiter that starts with a backslash.
ADVERSARIAL = LanguageSyntax(
    name="adversarial",
    extensions=(".adv",),
    line_comments=("|", "--"),
    block_comments=(
        ("/*", "*/"),
        ("/**", "**/"),
        ("(*", "*)"),
        ("{-", "-}"),
        ("--[[", "]]"),
    ),
    string_delimiters=('"""', '"', "\\q", "'", "{", "|"),
)
SYNTAXES = [*default_registry(), ADVERSARIAL]


def delimiters(syntax: LanguageSyntax) -> list[str]:
    pairs = [d for pair in syntax.block_comments for d in pair]
    return sorted({*syntax.line_comments, *syntax.string_delimiters, *pairs})


ALL_DELIMITERS = sorted({d for syntax in SYNTAXES for d in delimiters(syntax)})
# Escapes, line ends, blank lines, whitespace beyond ASCII (`str.isspace`
# and `str.strip` agree on it), and U+200B and U+FEFF, which are not space.
FILLER = [
    *" \t\x0b\x1c\x1f\x85\xa0\u2003\u2028\u2029\u205f\u3000\u200b\ufeff\r\\\\xq*/-}",
    *["\n", "\r\n", "\n  \n", "\n\n"],
]


def text_for(syntax: LanguageSyntax):
    """Text mostly made of the syntax's own delimiters (all of them for text)."""
    own = delimiters(syntax) or ALL_DELIMITERS
    tokens = 4 * own + ["\\" + d for d in own] + FILLER
    return st.lists(st.sampled_from(tokens), max_size=120).map("".join)


def physical_lines(text: str) -> list[str]:
    """Split text into physical lines; a final unterminated line still counts."""
    if not text:
        return []
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _match_at(line: str, pos: int, candidates) -> str | None:
    for candidate in candidates:
        if line.startswith(candidate, pos):
            return candidate
    return None


def _classify_line(
    line: str, syntax: LanguageSyntax, block_close: str | None
) -> tuple[str, str | None]:
    """Classify one line and thread the open block-comment delimiter through."""
    if not line.strip():
        return "blank", block_close

    has_code = False
    has_comment = False
    string_close: str | None = None
    i = 0
    n = len(line)
    while i < n:
        if block_close is not None:
            # The delimiters themselves count as comment content.
            has_comment = True
            end = line.find(block_close, i)
            if end == -1:
                i = n
            else:
                i = end + len(block_close)
                block_close = None
            continue
        if string_close is not None:
            if line[i] == "\\":
                i += 2
                continue
            if line.startswith(string_close, i):
                i += len(string_close)
                string_close = None
                continue
            i += 1
            continue
        if line[i].isspace():
            i += 1
            continue
        if _match_at(line, i, syntax.line_comments):
            has_comment = True
            break
        opener_pair = next(
            (pair for pair in syntax.block_comments if line.startswith(pair[0], i)),
            None,
        )
        if opener_pair is not None:
            has_comment = True
            block_close = opener_pair[1]
            i += len(opener_pair[0])
            continue
        delimiter = _match_at(line, i, syntax.string_delimiters)
        if delimiter is not None:
            has_code = True
            string_close = delimiter
            i += len(delimiter)
            continue
        has_code = True
        i += 1

    return ("code" if has_code else "comment"), block_close


def oracle_counts(text: str, syntax: LanguageSyntax) -> LineCounts:
    kinds = {"code": 0, "comment": 0, "blank": 0}
    block_close = None
    for line in physical_lines(text):
        kind, block_close = _classify_line(line, syntax, block_close)
        kinds[kind] += 1
    return LineCounts(**kinds)


def assert_matches_oracle(text: str, syntax: LanguageSyntax) -> None:
    """Same kind per line, and the same counts.

    Classification only flows forward, so a line's kind is what it adds to
    the counts of the text that ends with it over the text before it.
    """
    kinds = {(1, 0, 0): "code", (0, 1, 0): "comment", (0, 0, 1): "blank"}
    oracle_close = None
    before = LineCounts()
    ends = [m.end() for m in re.finditer(r"[^\n]*\n|[^\n]+", text)]
    for number, (line, end) in enumerate(zip(physical_lines(text), ends, strict=True), 1):
        expected, oracle_close = _classify_line(line, syntax, oracle_close)
        after = classify_lines(text[:end], syntax)
        added = (
            after.code - before.code,
            after.comment - before.comment,
            after.blank - before.blank,
        )
        assert kinds.get(added) == expected, (syntax.name, number, line)
        before = after
    assert classify_lines(text, syntax) == oracle_counts(text, syntax)


@pytest.mark.parametrize("syntax", SYNTAXES, ids=lambda s: s.name)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_generated_text_matches_oracle(syntax, data):
    assert_matches_oracle(data.draw(text_for(syntax)), syntax)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("/**/ x\n", (1, 0, 0)),  # `/*` wins over `/**`, so `*/` closes it
        ('"""a"b"""(*\nb *)\n', (1, 1, 0)),  # `"""` wins over `"`
        ('"\\"(*\nx\n', (2, 0, 0)),  # `\` skips the quote after it
        ("\t| x\n", (0, 1, 0)),  # whitespace before an opener does not stop it
        ("\\q ab \\q (*\nx *)\n", (2, 0, 0)),  # `\q` cannot close itself
        ("--[[ a\nb ]]\n", (1, 1, 0)),  # line comment `--` wins over block `--[[`
        ("(* a\n\n *) b\n", (1, 1, 1)),
        ('"a\rb" (*\n*)\n', (1, 1, 0)),  # a lone `\r` does not end the line or the string
        ('"a\\\r\n(* b *)\r\n', (1, 1, 0)),  # `\` before CRLF cannot carry the string on
        ('"a\\\nb (* c *)\n', (2, 0, 0)),  # nor can `\` before LF
        ("x (* a\n  \nb", (1, 1, 1)),  # a block left open at the end of unterminated text
        ("(* a\nb *) {- c\nd -} x\n", (1, 2, 0)),  # one block closes, the next opens
    ],
)
def test_adversarial_examples(text, expected):
    counts = classify_lines(text, ADVERSARIAL)
    assert (counts.code, counts.comment, counts.blank) == expected
    assert_matches_oracle(text, ADVERSARIAL)


def test_every_code_point_is_blank_exactly_when_str_isspace_accepts_it():
    points = [chr(point) for point in range(0x110000) if point != 0x0A]
    text = "\n".join(points)
    counts = classify_lines(text, extension_map(default_registry())[".txt"])
    assert counts.blank == sum(map(str.isspace, points))
    # The rule the counter used before it split lines: one `\S[^\n]*` match per code line.
    assert counts.code == len(re.findall(r"\S[^\n]*", text))
    assert (counts.comment, counts.total) == (0, len(points))


def test_real_sources_match_oracle(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    gen = importlib.import_module("gen")
    gen.write_source_tree(tmp_path / "tree", seed=11, total_bytes=50_000)
    roots = [SLOC_DIR, REPO / "src", REPO / "bench", tmp_path / "tree"]
    paths = sorted(
        p
        for root in roots
        for p in root.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    )
    assert len(paths) > 40
    for path in paths:
        text = path.read_bytes().decode("utf-8", errors="replace")
        for syntax in SYNTAXES:
            assert classify_lines(text, syntax) == oracle_counts(text, syntax), (
                path,
                syntax.name,
            )


def oracle_count_tree(root, registry) -> TreeCount:
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    by_extension = extension_map(registry)
    files, by_language, total, skipped, unreadable = [], {}, LineCounts(), 0, []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            path = Path(dirpath) / filename
            syntax = by_extension.get(path.suffix.lower())
            if syntax is None:
                skipped += 1
                continue
            try:
                counts = _read_and_classify(path, syntax)
            except OSError as exc:
                unreadable.append(f"{path}: {exc.strerror or exc}")
                continue
            files.append(FileCount(path.relative_to(root).as_posix(), syntax.name, counts))
            by_language[syntax.name] = by_language.get(syntax.name, LineCounts()) + counts
            total = total + counts
    return TreeCount(files, by_language, total, skipped, unreadable)


# Names whose suffix rule is easy to get wrong, with spaces and beyond ASCII.
TREE_NAMES = [
    ".bashrc", "foo.", "..a", "a.tar.gz", "A.PY", "main.c", "x.H", ".c", "a..c",
    "Makefile", "with space.c", "naïve.py", "日本語.md", "ünï côdé.TXT", "b.rs",
]
# A symlink to its own directory (entered, it would loop) and a dangling one.
DIR_LINK, BROKEN_LINK = "dir-link", "broken-link"
# Registers ".gz", ".a" and the empty suffix, which names without one get.
EXTRA = LanguageSyntax(name="extra", extensions=(".gz", ".a", ""), line_comments=("#",))
FILE_BYTES = st.lists(
    st.sampled_from([b"int x;\n", b"// c\n", b"# h\n", b"\n", b"/* a\n", b"b */ y", b"\xff\r\n"]),
    max_size=4,
).map(b"".join)
TREES = st.dictionaries(
    st.sampled_from(TREE_NAMES),
    st.recursive(
        FILE_BYTES | st.sampled_from([DIR_LINK, BROKEN_LINK]),
        lambda children: st.dictionaries(st.sampled_from(TREE_NAMES), children, max_size=4),
        max_leaves=12,
    ),
    max_size=6,
)
EVERY_KIND = {
    **{name: b"int x;\n// c\n\n" for name in TREE_NAMES},
    "sub dir": {"inner.c": b"/* a\nb */ y\n", "deeper": {"A.PY": b"# h\n"}, "up": DIR_LINK},
    "link.c": BROKEN_LINK,
    "linked": DIR_LINK,
}


def build_tree(directory: Path, tree: dict) -> None:
    directory.mkdir()
    for name, node in tree.items():
        if isinstance(node, dict):
            build_tree(directory / name, node)
        elif node == DIR_LINK:
            os.symlink(".", directory / name)
        elif node == BROKEN_LINK:
            os.symlink("missing-target", directory / name)
        else:
            (directory / name).write_bytes(node)


@pytest.mark.parametrize("root_form", ["tree", "tree/", "./tree", "absolute", "."])
@pytest.mark.parametrize(
    "registry", [default_registry(), [*default_registry(), EXTRA]], ids=["default", "extra"]
)
@settings(max_examples=25, deadline=None)
@given(tree=TREES)
@example(tree=EVERY_KIND)
def test_tree_walk_matches_pathlib_oracle(root_form, registry, tree):
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)
        build_tree(base / "tree", tree)
        root = str(base / "tree") if root_form == "absolute" else root_form
        cwd = os.getcwd()
        os.chdir(base / "tree" if root_form == "." else base)
        try:
            assert count_tree(root, registry) == oracle_count_tree(root, registry)
        finally:
            os.chdir(cwd)
