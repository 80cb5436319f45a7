"""Fuzzing ``cli.main``: mutated inputs end in a documented exit code, never a traceback.

``analyze`` runs on the corpus files with flipped bytes, cut, repeated or
dropped rows, a huge field, a cell of many digits, a BOM, NULs and lines
that are not JSON or not facts, and sometimes with a ``--config`` file;
a metadata line and the config may hold many digits or bytes that are
not UTF-8. Some runs leave a path flag off and give that key in the
config as any text, NULs and lone surrogates included. ``count`` runs
with a registry mutated byte by byte or node by node. Each test takes a
few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from baserates.cli import EXIT_EMPTY, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from conftest import CORPUS, SLOC_DIR

FUZZ = settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

STRAY_LINES = [
    b"",
    b"not json",
    b"{",
    b"[1, 2]",
    b"null",
    b'{"name": 5}',
    b'{"name": "alpha", "enlistments": [{"type": "svn"}]}',
    b"alpha,2011,13,1,1,1,1,1,1,1",
    b"alpha,2011,1,-5,,,,,,",
    b"zulu,2011,1,1,1,1",
    b'"unclosed,2011',
]

# Cells of digits alone around the 2**53 size bound and far past float
# range, up to and past int()'s default 4,300-digit limit.
HUGE_DIGITS = st.one_of(
    st.sampled_from([str(2**53), str(2**53 + 1), "9" * 16, "1" + "0" * 400, "9" * 4301]),
    st.integers(17, 4400).map(lambda n: "9" * n),
).map(str.encode)

# JSON values at json.loads' edges: many digits, or a string whose bytes
# are not UTF-8 (an invalid byte, a lone continuation byte, an overlong
# form, an encoded surrogate).
NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80"])
EDGE_VALUES = HUGE_DIGITS | NOT_UTF8.map(lambda raw: b'"%s"' % raw)
# No config, or one holding such a value under a setting's key or another.
CONFIGS = st.none() | st.builds(
    lambda key, value: b'{"%s": %s}' % (key, value),
    st.sampled_from([b"cutoff_year", b"x"]),
    EDGE_VALUES,
)

# A path setting that only the config gives: its key, and text for the last
# component of its path, so that it stays inside the run's directory.
PATH_KEYS = st.none() | st.sampled_from(["metadata", "facts", "out"])
PATH_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)

REGISTRY = {
    "languages": [
        {
            "name": "fuzzed",
            "extensions": [".c", ".py", ".txt"],
            "line_comments": ["//", "#"],
            "block_comments": [["/*", "*/"]],
            "string_delimiters": ['"', "'"],
        }
    ]
}
REGISTRY_KEYS = [
    "languages",
    "name",
    "extensions",
    "line_comments",
    "block_comments",
    "string_delimiters",
]
DELIMITERS = st.text(alphabet=" \t\n\r\x00\u3000#/*\"'\\|;{}[]().xa", max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | DELIMITERS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(REGISTRY_KEYS) | st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after zero to four byte- or line-level mutations."""
    for _ in range(draw(st.integers(0, 4))):
        lines = data.split(b"\n")
        row = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(
            ["flip", "cut", "repeat", "drop", "huge", "digits", "bom", "nul", "stray", "edge"]
        ))
        if kind == "flip" and data:
            at = min(at, len(data) - 1)
            flipped = data[at] ^ draw(st.integers(1, 255))
            data = data[:at] + bytes([flipped]) + data[at + 1 :]
        elif kind == "cut":
            lines[row] = lines[row][: draw(st.integers(0, len(lines[row])))]
            data = b"\n".join(lines)
        elif kind == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[row])
            data = b"\n".join(lines)
        elif kind == "drop":
            del lines[row]
            data = b"\n".join(lines)
        elif kind == "huge":
            data = data[:at] + b"x" * 200_000 + data[at:]
        elif kind == "digits":
            cells = lines[row].split(b",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(HUGE_DIGITS)
            lines[row] = b",".join(cells)
            data = b"\n".join(lines)
        elif kind == "bom":
            data = b"\xef\xbb\xbf" + data
        elif kind == "nul":
            data = data[:at] + b"\x00" + data[at:]
        elif kind == "stray":
            lines.insert(row, draw(st.sampled_from(STRAY_LINES)))
            data = b"\n".join(lines)
        elif kind == "edge":
            lines.insert(row, b'{"name": "zz", "tags": [%s]}' % draw(EDGE_VALUES))
            data = b"\n".join(lines)
    return data


@st.composite
def mutated_registry(draw) -> bytes:
    """The registry with a delimiter or a node replaced, or with its bytes mutated."""
    document = json.loads(json.dumps(REGISTRY))
    language = document["languages"][0]
    kind = draw(st.sampled_from(["delimiter", "node", "bytes"]))
    if kind == "delimiter":
        key = draw(st.sampled_from(["line_comments", "block_comments", "string_delimiters"]))
        at = draw(st.integers(0, len(language[key]) - 1))
        if key == "block_comments":
            language[key][at][draw(st.integers(0, 1))] = draw(DELIMITERS)
        else:
            language[key][at] = draw(DELIMITERS)
    elif kind == "node":
        language[draw(st.sampled_from(sorted(language)))] = draw(JSON_VALUES)
    data = json.dumps(document).encode()
    return draw(mutated(data)) if kind == "bytes" else data


def run_main(argv: list[str]) -> tuple[int, str]:
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    event(f"exit {code}")
    return code, err.getvalue()


@FUZZ
@given(
    metadata=mutated((CORPUS / "metadata.jsonl").read_bytes()),
    facts=mutated((CORPUS / "facts.csv").read_bytes()),
    cutoff_year=st.sampled_from(["2012", "2011", "2000"]),
    config=CONFIGS,
    path_key=PATH_KEYS,
    path_text=PATH_TEXT,
)
def test_analyze_on_mutated_corpus_exits_cleanly(
    metadata, facts, cutoff_year, config, path_key, path_text
):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "metadata.jsonl").write_bytes(metadata)
        (root / "facts.csv").write_bytes(facts)
        paths = {
            "metadata": str(root / "metadata.jsonl"),
            "facts": str(root / "facts.csv"),
            "out": str(root / "out"),
        }
        if path_key is not None:
            path = json.dumps(str(root / "p") + path_text.replace("/", "")).encode()
            entry = b'"%s": %s' % (path_key.encode(), path)
            config = b"{%s}" % entry if config is None else config[:-1] + b", %s}" % entry
            del paths[path_key]  # a flag would win over the config
        config_args = []
        if config is not None:
            (root / "run.json").write_bytes(config)
            config_args = ["--config", str(root / "run.json")]
        code, err = run_main([
            "analyze",
            *(arg for key, path in paths.items() for arg in (f"--{key}", path)),
            "--cutoff-year", cutoff_year,
            *config_args,
        ])
    allowed = (EXIT_OK, EXIT_IO, EXIT_EMPTY) + ((EXIT_USAGE,) if path_key else ())
    assert code in allowed, err
    assert "Traceback" not in err


@FUZZ
@given(registry=mutated_registry())
def test_count_with_mutated_registry_exits_cleanly(registry):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "registry.json").write_bytes(registry)
        code, err = run_main([
            "count",
            "--root", str(SLOC_DIR),
            "--registry", str(root / "registry.json"),
            "--out", str(root / "counts.csv"),
        ])
    assert code in (EXIT_OK, EXIT_IO), err
    assert "Traceback" not in err
