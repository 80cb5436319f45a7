"""Line classification of source text into code, comment, and blank lines.

A line is blank when it holds only whitespace, a comment when its only
non-whitespace content lies inside comment regions, and code otherwise,
so mixed lines count as code. Block-comment state carries across lines,
and comment openers inside string literals are inert. Two limitations
are deliberate: block comments do not nest (the first close delimiter
ends the comment), and string literals do not span lines.

A line is scanned from one delimiter to the next. Outside comments and
strings, one regex per syntax finds the next opener, trying line comments,
block openers and string delimiters in that order; a non-whitespace
search before it decides whether the line has code. A block comment
ends at the next closer, a string at the next closer not escaped by a
backslash (which skips the character after it).
"""

from __future__ import annotations

import json
import logging
import os
import re
import stat
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .facts import FactKey, SizeRecord

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LanguageSyntax:
    """Comment and string syntax for one language, keyed by file extension."""

    name: str
    extensions: tuple[str, ...]
    line_comments: tuple[str, ...] = ()
    block_comments: tuple[tuple[str, str], ...] = ()
    string_delimiters: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.extensions:
            raise ValueError(f"language {self.name!r} declares no extensions")
        delimiters = list(self.line_comments) + list(self.string_delimiters)
        for open_delim, close_delim in self.block_comments:
            delimiters += [open_delim, close_delim]
        if any(not d for d in delimiters):
            raise ValueError(f"language {self.name!r} has an empty delimiter")

    @cached_property
    def _scanner(self):
        """Opener regex in priority order, each opener's kind and closer, and ``\\S``."""
        starts: dict[str, tuple[str, object]] = {}
        for opener in self.line_comments:
            starts.setdefault(opener, ("line", None))
        for opener, close in self.block_comments:
            starts.setdefault(opener, ("block", close))
        for opener in self.string_delimiters:
            starts.setdefault(opener, ("string", re.compile(r"\\|" + re.escape(opener))))
        # Openers are tried only at non-whitespace, so one led by whitespace never opens.
        alternatives = [re.escape(o) for o in starts if not o[0].isspace()]
        openers = re.compile("|".join(alternatives)) if alternatives else None
        return openers, starts, re.compile(r"\S")


@dataclass(frozen=True)
class LineCounts:
    code: int = 0
    comment: int = 0
    blank: int = 0

    @property
    def total(self) -> int:
        return self.code + self.comment + self.blank

    def __add__(self, other: "LineCounts") -> "LineCounts":
        return LineCounts(
            self.code + other.code,
            self.comment + other.comment,
            self.blank + other.blank,
        )


@dataclass(frozen=True)
class FileCount:
    """Classification result for one file."""

    path: str
    language: str
    counts: LineCounts


def physical_lines(text: str) -> list[str]:
    """Split text into physical lines; a final unterminated line still counts."""
    if not text:
        return []
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def classify_lines(text: str, syntax: LanguageSyntax) -> LineCounts:
    """Count code, comment, and blank lines of ``text`` under ``syntax``.

    The three counts always sum to the number of physical lines.
    """
    code = comment = blank = 0
    block_close: str | None = None
    for line in physical_lines(text):
        if not line.strip():
            blank += 1
            continue
        has_code, block_close = _scan_line(line, syntax, block_close)
        if has_code:
            code += 1
        else:
            comment += 1
    return LineCounts(code, comment, blank)


def _scan_line(
    line: str, syntax: LanguageSyntax, block_close: str | None
) -> tuple[bool, str | None]:
    """Whether a non-blank line holds code, and the block closer still open after it."""
    openers, starts, non_space = syntax._scanner
    has_code = False
    pos = 0
    while True:
        if block_close is not None:
            end = line.find(block_close, pos)
            if end == -1:
                return has_code, block_close
            pos = end + len(block_close)
            block_close = None
        match = openers.search(line, pos) if openers else None
        stop = match.start() if match else len(line)
        has_code = has_code or non_space.search(line, pos, stop) is not None
        if match is None:
            return has_code, None
        kind, close = starts[match.group()]
        if kind == "line":
            return has_code, None
        pos = match.end()
        if kind == "block":
            block_close = close
            continue
        has_code = True
        # ``close`` finds a backslash, which skips the next character, or the closer.
        while (found := close.search(line, pos)) is not None and found.group() == "\\":
            pos = found.start() + 2
        if found is None:
            return True, None
        pos = found.end()


def default_registry() -> list[LanguageSyntax]:
    """Built-in languages: C-style comments, hash scripting, plain text."""
    return [
        LanguageSyntax(
            name="clike",
            extensions=(
                ".c",
                ".h",
                ".cc",
                ".hh",
                ".cpp",
                ".hpp",
                ".cxx",
                ".java",
                ".js",
                ".ts",
                ".cs",
                ".go",
                ".rs",
            ),
            line_comments=("//",),
            block_comments=(("/*", "*/"),),
            string_delimiters=('"', "'"),
        ),
        LanguageSyntax(
            name="hash",
            extensions=(".py", ".sh", ".bash", ".rb", ".pl", ".r", ".yaml", ".yml", ".toml"),
            line_comments=("#",),
            string_delimiters=('"', "'"),
        ),
        LanguageSyntax(
            name="text",
            extensions=(".txt", ".md", ".rst"),
        ),
    ]


def load_registry(path) -> list[LanguageSyntax]:
    """Default registry extended by a JSON config; its entries win extension clashes.

    Expected shape: {"languages": [{"name": ..., "extensions": [...],
    "line_comments": [...], "block_comments": [[open, close], ...],
    "string_delimiters": [...]}]}, every list holding strings. Line
    comments, block openers and string delimiters must not start with
    whitespace.
    """
    with Path(path).open(encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: registry must be a JSON object")
    entries = doc.get("languages", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: registry languages must be a list")
    languages = default_registry()
    for raw in entries:
        try:
            syntax = LanguageSyntax(
                name=str(raw["name"]),
                extensions=_strings(raw["extensions"]),
                line_comments=_strings(raw.get("line_comments", [])),
                block_comments=tuple(
                    _strings(pair) for pair in raw.get("block_comments", [])
                ),
                string_delimiters=_strings(raw.get("string_delimiters", [])),
            )
            if any(opener[0].isspace() for opener in syntax._scanner[1]):
                raise ValueError("a comment or string opener starts with whitespace")
            languages.append(syntax)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad registry entry {raw!r}: {exc}") from exc
    return languages


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"expected a list of strings, got {value!r}")
    return tuple(value)


def extension_map(registry) -> dict[str, LanguageSyntax]:
    """Extension (lowercase, with dot) to syntax; later registry entries win."""
    mapping: dict[str, LanguageSyntax] = {}
    for syntax in registry:
        for extension in syntax.extensions:
            mapping[extension.lower()] = syntax
    return mapping


def count_file(path, syntax: LanguageSyntax) -> FileCount:
    """Classify one file; invalid UTF-8 bytes become replacement characters."""
    return FileCount(str(path), syntax.name, _read_and_classify(path, syntax))


def _read_and_classify(path, syntax: LanguageSyntax) -> LineCounts:
    data = Path(path).read_bytes()
    return classify_lines(data.decode("utf-8", errors="replace"), syntax)


@dataclass
class TreeCount:
    """Per-file counts plus per-language and overall totals for one tree walk."""

    files: list[FileCount] = field(default_factory=list)
    by_language: dict[str, LineCounts] = field(default_factory=dict)
    total: LineCounts = LineCounts()
    skipped: int = 0
    unreadable: list[str] = field(default_factory=list)


def count_tree(root, registry) -> TreeCount:
    """Classify every registered file under ``root``, in sorted walk order.

    Files with unregistered extensions are skipped and counted; files
    that cannot be read or are not regular files (FIFOs, devices, sockets)
    are recorded and left out of the totals.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    by_extension = extension_map(registry)
    result = TreeCount()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            path = Path(dirpath) / filename
            syntax = by_extension.get(path.suffix.lower())
            if syntax is None:
                result.skipped += 1
                continue
            try:
                # Opening a FIFO or a device can block, so only regular files are read.
                if not stat.S_ISREG(path.stat().st_mode):
                    raise OSError(0, "not a regular file")
                counts = _read_and_classify(path, syntax)
            except OSError as exc:
                message = f"{path}: {exc.strerror or exc}"
                result.unreadable.append(message)
                logger.warning("skipping unreadable file %s", message)
                continue
            result.files.append(
                FileCount(path.relative_to(root).as_posix(), syntax.name, counts)
            )
            result.by_language[syntax.name] = (
                result.by_language.get(syntax.name, LineCounts()) + counts
            )
            result.total = result.total + counts
    return result


def snapshot_to_size_facts(project: str, snapshots, registry) -> list[SizeRecord]:
    """One size record per (year, month, tree root) snapshot.

    Snapshots must be strictly increasing in (year, month); a duplicate
    or out-of-order month is an error.
    """
    records: list[SizeRecord] = []
    last: tuple[int, int] | None = None
    for year, month, root in snapshots:
        if last is not None and (year, month) <= last:
            raise ValueError(
                f"snapshots must be strictly increasing; got {(year, month)} after {last}"
            )
        last = (year, month)
        tree = count_tree(root, registry)
        records.append(
            SizeRecord(
                FactKey(project, year, month),
                tree.total.code,
                tree.total.comment,
                tree.total.blank,
            )
        )
    return records
