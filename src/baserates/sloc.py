"""Line classification of source text into code, comment, and blank lines.

A line is blank when it holds only whitespace, a comment when its only
non-whitespace content lies inside comment regions, and code otherwise,
so mixed lines count as code. Block-comment state carries across lines,
and comment openers inside string literals are inert. Two limitations
are deliberate: block comments do not nest (the first close delimiter
ends the comment), and string literals do not span lines.

Each file's text is scanned once by one regex per syntax, whose
alternatives (line comments, then block openers, then string delimiters)
each match a whole comment or string, and a backslash in a string skips
the next character. Splitting the text on that regex masks it: comments
drop out, a string keeps its opener, and a block comment over several
lines keeps the newline that ends its first line, so each line not
wholly inside a block maps to one masked line.

Lines end at ``\\n`` only, and a final line without one still counts.
Counting splits the text there once and the masked text once more; a
line is blank when it is empty or ``str.isspace`` accepts it, so a
``\\r``, U+00A0 and U+3000 are whitespace and U+200B and U+FEFF are not.
A non-blank line is code when its masked line is not blank too.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

# A possessive repeat (Python 3.11+) keeps no backtracking state per escape;
# no token fails once its opener matched, so a greedy one matches the same.
_REPEAT = "*+" if sys.version_info >= (3, 11) else "*"


def _run_before(close: str, stops: str, escape: str = "") -> str:
    """Regex for the text before the next ``close`` or character in ``stops``.

    Plain text goes by in one class repeat; the engine loops only at an
    ``escape`` (an alternative ending in ``|``) or a false start of ``close``.
    """
    first = re.escape(close[0])
    plain = f"[^{first}{stops}]{_REPEAT}"
    return f"{plain}(?:(?:{escape}(?!{re.escape(close)}){first}){plain}){_REPEAT}"


class _LanguageSyntax(NamedTuple):
    name: str
    extensions: tuple[str, ...]
    line_comments: tuple[str, ...] = ()
    block_comments: tuple[tuple[str, str], ...] = ()
    string_delimiters: tuple[str, ...] = ()


class LanguageSyntax(_LanguageSyntax):
    """Comment and string syntax for one language, keyed by file extension.

    Each extension is "" or a dot and then one or more characters, none a
    dot or a slash. No delimiter may be empty or hold a line break, and no
    line comment, block opener or string delimiter may start with whitespace.
    """

    __slots__ = ()

    def __new__(cls, name, extensions, line_comments=(), block_comments=(), string_delimiters=()):
        if not extensions:
            raise ValueError(f"language {name!r} declares no extensions")
        # A suffix runs from a name's last dot; "" is the suffix of a name without one.
        if not all(re.fullmatch(r"(\.[^./]+)?", extension) for extension in extensions):
            raise ValueError(f"language {name!r} has an extension no file name can have")
        delimiters = list(line_comments) + list(string_delimiters)
        for open_delim, close_delim in block_comments:
            delimiters += [open_delim, close_delim]
        if any(not d for d in delimiters):
            raise ValueError(f"language {name!r} has an empty delimiter")
        # Masking would match one across a line end, as no line-by-line reading can.
        if any("\n" in d or "\r" in d for d in delimiters):
            raise ValueError(f"language {name!r} has a delimiter with a line break")
        # An opener only ever starts at a non-whitespace character.
        openers = [*line_comments, *string_delimiters]
        openers += [open_delim for open_delim, _ in block_comments]
        if any(opener[0].isspace() for opener in openers):
            raise ValueError("a comment or string opener starts with whitespace")
        return tuple.__new__(cls, (name, extensions, line_comments, block_comments, string_delimiters))


@lru_cache(maxsize=512)  # far more languages than a registry holds
def _tokens(syntax: LanguageSyntax) -> re.Pattern | None:
    """Comment and string regex whose ``split`` masks a text (see the module doc).

    Alternatives start with their opener's literal, so ``re`` skips ahead
    to the next possible opener; an opener listed twice keeps its first kind.
    Equal syntaxes share one compiled regex.
    """
    def block(close: str) -> str:
        end = re.escape(close)
        same_line, rest = _run_before(close, r"\n"), _run_before(close, "")
        return rf"{same_line}(?:{end}|(\n)?{rest}(?:{end})?)"

    def string(opener: str) -> str:
        end = re.escape(opener)
        # A backslash skips the next character on its line, so a closer
        # led by a backslash never closes.
        body = _run_before(opener, r"\\\n", escape=r"\\[^\n]?|")
        return rf"(?<=({end})){body}(?:{end})?"

    bodies = [
        *((opener, r"[^\n]*") for opener in syntax.line_comments),
        *((opener, block(close)) for opener, close in syntax.block_comments),
        *((opener, string(opener)) for opener in syntax.string_delimiters),
    ]
    alternatives = [re.escape(opener) + body for opener, body in bodies]
    return re.compile("|".join(alternatives)) if alternatives else None


class LineCounts(NamedTuple):
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


class FileCount(NamedTuple):
    """Classification result for one file."""

    path: str
    language: str
    counts: LineCounts


def classify_lines(text: str, syntax: LanguageSyntax) -> LineCounts:
    """Count code, comment, and blank lines of ``text`` under ``syntax``.

    The three counts always sum to the number of physical lines.
    """
    lines = text.split("\n")
    physical = len(lines) - (lines[-1] == "")
    non_blank = _non_blank(lines)
    del lines  # one line list alive at a time keeps the peak down
    tokens = _tokens(syntax)
    if tokens is None:
        return LineCounts(non_blank, 0, physical - non_blank)
    code = _non_blank("".join(filter(None, tokens.split(text))).split("\n"))
    return LineCounts(code, non_blank - code, physical - non_blank)


def _non_blank(lines: list[str]) -> int:
    """How many ``lines`` hold a character that ``str.isspace`` rejects."""
    return len(lines) - lines.count("") - sum(map(str.isspace, lines))


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
    "string_delimiters": [...]}]}, every list holding strings and every
    entry a valid ``LanguageSyntax``.
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
    """Classify one regular file (else ``OSError``); invalid UTF-8 becomes U+FFFD."""
    return FileCount(str(path), syntax.name, _read_and_classify(path, syntax))


def _read_and_classify(path, syntax: LanguageSyntax) -> LineCounts:
    # Opening a FIFO or a device can block, so only regular files are read.
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError(0, "not a regular file")
    data = Path(path).read_bytes()
    return classify_lines(data.decode("utf-8", errors="replace"), syntax)


class TreeCount(NamedTuple):
    """Per-file counts plus per-language and overall totals for one tree walk."""

    files: list[FileCount]
    by_language: dict[str, LineCounts]
    total: LineCounts
    skipped: int
    unreadable: list[str]


def count_tree(root, registry) -> TreeCount:
    """Classify every registered file under ``root``, in sorted walk order.

    A directory's files come before its subdirectories, each sorted by
    name, and symlinked directories are not entered. Files with
    unregistered extensions are skipped and counted; files that cannot
    be read or are not regular files (FIFOs, devices, sockets), and
    directories that cannot be listed, are recorded and left out of the
    totals.
    """
    top = str(Path(root))
    if not os.path.isdir(top):
        raise NotADirectoryError(f"not a directory: {top}")
    by_extension = extension_map(registry)
    # Paths stay strings: ``shown + relative`` is how ``Path(root) / relative`` prints.
    sep = "" if top.endswith("/") else "/"
    shown = "" if top == "." else top + sep
    files: list[FileCount] = []
    unreadable: list[str] = []
    skipped = 0
    per_language: dict[str, list[LineCounts]] = {}

    def skip_directory(exc: OSError) -> None:
        unreadable.append(f"{Path(exc.filename)}: {exc.strerror or exc}")

    for dirpath, dirnames, filenames in os.walk(top, onerror=skip_directory):
        dirnames.sort()
        relative_dir = dirpath[len(top) + len(sep):]
        prefix = relative_dir + "/" if relative_dir else ""
        for filename in sorted(filenames):
            # PurePath.suffix: from the last dot, unless it leads or ends the name.
            dot = filename.rfind(".")
            suffix = filename[dot:].lower() if 0 < dot < len(filename) - 1 else ""
            syntax = by_extension.get(suffix)
            if syntax is None:
                skipped += 1
                continue
            relative = prefix + filename
            try:
                counts = _read_and_classify(shown + relative, syntax)
            except OSError as exc:
                unreadable.append(f"{shown}{relative}: {exc.strerror or exc}")
                continue
            files.append(FileCount(relative, syntax.name, counts))
            per_language.setdefault(syntax.name, []).append(counts)
    by_language = {name: sum(counts, LineCounts()) for name, counts in per_language.items()}
    total = sum(by_language.values(), LineCounts())
    return TreeCount(files, by_language, total, skipped, unreadable)
