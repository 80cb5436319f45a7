"""Seeded generators of benchmark inputs, each with a ground-truth sidecar.

``write_facts_inputs`` writes ``metadata.jsonl`` and ``facts.csv`` for
``baserates analyze``; ``write_source_tree`` writes a source tree for
``baserates count``. Both draw every choice from ``random.Random(seed)``,
so a seed always gives the same bytes, and both return the sidecar: what
the program must report for those inputs, worked out from the generator's
own model of the data and the rules in README.md, never from the program.

The facts model is one record per project: its metadata line (or none),
its written rows, and the defect it carries. Duplicate-key projects are
counted in rule 1 ("missing data"), as the report counts them today; the
sidecar also lists them as ``duplicate_key_projects`` because ROADMAP
item 5 moves them to an exclusion bucket of their own.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

FACTS_HEADER = [
    "project", "year", "month", "loc", "comments", "blanks",
    "loc_added", "loc_removed", "commits", "contributors",
]


@dataclass(frozen=True)
class FactsShape:
    """Size and defect rates of one synthetic project population.

    The negative, half_missing, one_half, duplicate, facts_only and
    unscoped shares are fractions of ``projects``; each goes to exactly
    that many distinct projects, so every seed carries the same amount of
    each kind of work.
    """

    projects: int
    months: tuple[int, int]  # inclusive range of rows per project
    enlistments: int
    svn_share: float  # enlistments that are SVN
    unscoped_share: float  # projects whose SVN enlistment is not scoped
    gap_share: float  # months that skip one or more calendar months
    negative_share: float  # projects with some negative-size months
    half_missing_share: float  # projects with some size-only/activity-only months
    one_half_share: float  # projects whose every row lacks one half
    duplicate_share: float  # projects with a duplicated row
    meta_only_share: float  # extra projects with metadata and no facts
    facts_only_share: float  # projects with facts and no metadata
    malformed_share: float  # extra malformed rows and lines, per project
    first_year: int


# The last year with data, and the analysis cut-off: the year after it is
# cut, so every workload exercises the cut-off rule.
LAST_YEAR = 2013
CUTOFF_YEAR = 2012

# ~40k fact rows each; see BENCHMARK.json for why each was chosen.
LONG = FactsShape(
    projects=340, months=(118, 122), enlistments=1, svn_share=0.2,
    unscoped_share=0.02, gap_share=0.005, negative_share=0.02,
    half_missing_share=0.02, one_half_share=0.005, duplicate_share=0.005,
    meta_only_share=0.005, facts_only_share=0.005, malformed_share=0.02,
    first_year=2002,
)
WIDE = FactsShape(
    projects=10000, months=(2, 6), enlistments=3, svn_share=0.5,
    unscoped_share=0.15, gap_share=0.1, negative_share=0.1,
    half_missing_share=0.1, one_half_share=0.05, duplicate_share=0.03,
    meta_only_share=0.05, facts_only_share=0.05, malformed_share=0.1,
    first_year=2000,
)

_SVN_TYPES = ("SvnRepository", "svn", "SvnSyncRepository", "subversion")
_OTHER_TYPES = ("GitRepository", "HgRepository", "BzrRepository", "CvsRepository", "darcs")
# Each scoped URL fully matches one of README's SVN patterns; no unscoped one does.
_SCOPED = ("/trunk", "/trunk/", "/HEAD", "/sandbox", "/site/", "/branches/rel_{k}", "/tags/v{k}_0")
_UNSCOPED = ("", "/", "/branches", "/trunk/src", "/tags/v{k}.0")


def _months_from(rng: random.Random, index: int, count: int, gap_share: float):
    """``count`` (year, month) pairs from month number ``index``, with random gaps."""
    for _ in range(count):
        year, month0 = divmod(index, 12)
        yield year, month0 + 1
        index += 1 + (rng.randint(1, 3) if rng.random() < gap_share else 0)


@dataclass
class _Project:
    name: str
    has_meta: bool = True
    unscoped: bool = False
    duplicate: bool = False
    # (year, month, size, activity); size/activity are tuples or None
    rows: list = field(default_factory=list)


def _size_activity(rng: random.Random, count: int, negative: bool):
    loc = int(rng.lognormvariate(8.5, 1.5))
    for step in range(count):
        added = int(rng.expovariate(1 / 300)) if step else loc
        removed = min(loc, int(rng.expovariate(1 / 150))) if step else 0
        if step and rng.random() < 0.01:
            added, removed = 0, loc  # an empty tree: next month's ratio is undefined
        loc = loc + added - removed if step else loc
        shown = -rng.randint(1, 5000) if negative and rng.random() < 0.3 else loc
        size = (shown, int(loc * rng.uniform(0.1, 0.4)), int(loc * rng.uniform(0.05, 0.2)))
        commits = rng.randint(0, 40)
        activity = (added, removed, commits, rng.randint(0 if commits == 0 else 1, 6))
        yield size, activity


def _pick(rng: random.Random, population: int, share: float) -> set[int]:
    return set(rng.sample(range(population), round(population * share)))


def _model(rng: random.Random, shape: FactsShape) -> list[_Project]:
    n = shape.projects
    order = list(range(n))
    rng.shuffle(order)
    # Each defect goes to its own slice of a shuffled order, so the defects
    # never stack on one project and their counts are exact.
    cuts = {}
    start = 0
    for name in ("negative", "half_missing", "one_half", "duplicate", "facts_only", "unscoped"):
        size = round(n * getattr(shape, f"{name}_share"))
        cuts[name] = set(order[start:start + size])
        start += size
    projects = []
    for i in range(n):
        p = _Project(f"p{i:06d}-{rng.choice(('lib', 'app', 'tool', 'web', 'db'))}")
        p.has_meta = i not in cuts["facts_only"]
        p.unscoped = i in cuts["unscoped"]
        p.duplicate = i in cuts["duplicate"]
        count = rng.randint(*shape.months)
        span = LAST_YEAR - shape.first_year + 1
        first = shape.first_year * 12 + rng.randrange(max(1, span * 12 - count))
        for (y, m), (size, activity) in zip(
            _months_from(rng, first, count, shape.gap_share),
            _size_activity(rng, count, i in cuts["negative"]),
        ):
            if i in cuts["one_half"]:
                size, activity = (size, None) if i % 2 else (None, activity)
            elif i in cuts["half_missing"] and rng.random() < 0.4:
                size, activity = (size, None) if rng.random() < 0.5 else (None, activity)
            p.rows.append((y, m, size, activity))
        projects.append(p)
    for j in range(round(n * shape.meta_only_share)):
        projects.append(_Project(f"q{j:06d}-meta-only"))
    return projects


def _enlistments(rng: random.Random, p: _Project, shape: FactsShape) -> list[dict]:
    out = []
    for k in range(shape.enlistments):
        if rng.random() < shape.svn_share or (p.unscoped and k == 0):
            tail = rng.choice(_UNSCOPED if p.unscoped and k == 0 else _SCOPED)
            url = f"http://svn.example.org/{p.name}{tail.format(k=k)}"
            out.append({"type": rng.choice(_SVN_TYPES), "url": url})
        else:
            out.append({"type": rng.choice(_OTHER_TYPES), "url": f"https://vcs.example.org/{p.name}/{k}"})
    rng.shuffle(out)
    return out


def _malformed_rows(rng: random.Random, name: str) -> list[list]:
    good = [name, "2010", "5", "100", "10", "5", "1", "2", "3", "1"]
    variants = [
        good[:9],  # wrong field count
        [name, "2010", "13"] + good[3:],  # month outside 1..12
        [name, "1949", "5"] + good[3:],  # year before 1950
        [name, "twenty", "5"] + good[3:],  # non-integer year
        ["", "2010", "5"] + good[3:],  # empty project name
        good[:4] + ["", "5"] + good[6:],  # partial size half
        good[:6] + ["-1"] + good[7:],  # negative activity
        good[:3] + ["x", "10", "5"] + good[6:],  # non-integer size
        good[:3] + ["", "", "", "", "", "", ""],  # neither half present
    ]
    return [rng.choice(variants) for _ in range(rng.randint(1, 2))]


_MALFORMED_META = (
    '{"name": "broken", "enlistments": [',
    "[1, 2, 3]",
    '{"name": ""}',
    '{"name": "no-url", "enlistments": [{"type": "svn"}]}',
    '{"name": "bad-tags", "tags": "a,b"}',
)


def write_facts_inputs(out_dir, seed: int, shape: FactsShape) -> dict:
    """Write metadata.jsonl and facts.csv under ``out_dir``; return the sidecar."""
    rng = random.Random(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    projects = _model(rng, shape)
    malformed_for = _pick(rng, shape.projects, shape.malformed_share)

    meta_lines = []
    for p in projects:
        if p.has_meta:
            doc = {"name": p.name, "enlistments": _enlistments(rng, p, shape), "tags": ["t"]}
            meta_lines.append(json.dumps(doc))
    rng.shuffle(meta_lines)
    meta_malformed = 0
    for i in sorted(malformed_for):
        line = rng.choice(_MALFORMED_META)
        if rng.random() < 0.3 and projects[i].has_meta:
            line = json.dumps({"name": projects[i].name})  # duplicate name: the first line wins
        meta_lines.append(line)
        meta_malformed += 1

    facts_rows = []
    facts_malformed = 0
    for i in sorted(range(len(projects)), key=lambda _: rng.random()):
        p = projects[i]
        rows = [
            [p.name, y, m, *(size or ("", "", "")), *(activity or ("", "", "", ""))]
            for y, m, size, activity in p.rows
        ]
        if p.duplicate:
            full = [r for r in rows if r[3] != "" and r[6] != ""]
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(full or rows)))
        if i in malformed_for:
            bad = _malformed_rows(rng, p.name)
            facts_malformed += len(bad)
            rows += bad
        facts_rows += rows

    with (out_dir / "metadata.jsonl").open("w", encoding="utf-8") as handle:
        handle.write("\n".join(meta_lines) + "\n")
    with (out_dir / "facts.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(FACTS_HEADER)
        writer.writerows(facts_rows)

    sidecar = _expected_validation(projects)
    sidecar["ingest"] = {
        "metadata_records": len(meta_lines),
        "metadata_malformed": meta_malformed,
        "facts_records": len(facts_rows),
        "facts_malformed": facts_malformed,
    }
    sidecar["input_bytes"] = sum((out_dir / n).stat().st_size for n in ("metadata.jsonl", "facts.csv"))
    return sidecar


def _expected_validation(projects: list[_Project]) -> dict:
    """The validation table README's rules give for the model.

    Each joined month of the model lands in exactly one bucket: a rule-1
    or rule-2 project, rule 3, after the cut-off, or the survivors. So a
    report whose table equals this one accounts for every month.
    """
    joined: dict[str, list[tuple[int, int, int]]] = {}
    for p in projects:
        months = [(y, m, size[0]) for y, m, size, activity in p.rows if size and activity]
        if months and not p.duplicate:
            joined[p.name] = months
    by_name = {p.name: p for p in projects}
    collected = {p.name for p in projects if p.has_meta} | set(joined)
    rule1 = {n for n in collected if not by_name[n].has_meta or n not in joined}
    rule2 = {n for n in collected - rule1 if by_name[n].unscoped}
    remaining = collected - rule1 - rule2
    kept = [(n, y, m) for n in remaining for y, m, loc in joined[n] if loc >= 0]
    survivors = [(n, y, m) for n, y, m in kept if y <= CUTOFF_YEAR]
    before_rule3 = sum(len(joined[n]) for n in remaining)
    return {
        "validation": {
            "projects_collected": len(collected),
            "excluded_missing_data": len(rule1),
            "excluded_svn_config": len(rule2),
            "projects_remaining": len(remaining),
            "months_before_rule3": before_rule3,
            "excluded_negative_size": before_rule3 - len(kept),
            "months_remaining": len(kept),
            "years_remaining": len({(n, y) for n, y, _ in kept}),
            "after_cutoff": {
                "projects": len({n for n, _, _ in survivors}),
                "months": len(survivors),
                "years": len({(n, y) for n, y, _ in survivors}),
            },
        },
        "duplicate_key_projects": sum(1 for p in projects if p.duplicate),
        "joined_months": sum(len(v) for v in joined.values()),
    }


# --- source trees for `count` ---------------------------------------------

CODE, COMMENT, BLANK = "code", "comment", "blank"

# (template, class, opens a block) outside a block comment and (template,
# class, closes the block) inside one. Block comments do not nest and
# string literals do not span lines, as sloc's docstring states.
_CLIKE_OUT = (
    ("    x{n} = y{n} + {n};", CODE, False),
    ('    printf("/* not a comment */ %d\\n", x{n});', CODE, False),
    ('    s = "escaped \\" quote // still a string";', CODE, False),
    ("    c = '/'; d = '*'; e = '\"';", CODE, False),
    ("    if (a{n}) {{ b(); }} // trailing note", CODE, False),
    ("    /* lead */ call{n}();", CODE, False),
    ("    x = {n}; /* opens a block", CODE, True),
    ("// note {n}", COMMENT, False),
    ("    /* one line */", COMMENT, False),
    ("  /* a */ /* b */ // c", COMMENT, False),
    ("/* opens a block {n}", COMMENT, True),
    ("/**", COMMENT, True),
    ("", BLANK, False),
    ("    ", BLANK, False),
    ("\t", BLANK, False),
)
_CLIKE_IN = (
    (" * text {n}", COMMENT, False),
    ("   with // slashes and \"a quote", COMMENT, False),
    ("   /* looks like an opener", COMMENT, False),
    ("", BLANK, False),
    (" */", COMMENT, True),
    ("*/ x{n} = 2;", CODE, True),
    (" end */ // tail", COMMENT, True),
)
_HASH = (
    ("x{n} = {n}", CODE),
    ('s = "# not a comment {n}"', CODE),
    ("y = f(x{n})  # trailing", CODE),
    ("a = b /* c {n}", CODE),
    ("t = 'it' + 's'", CODE),
    ("# comment {n}", COMMENT),
    ("    # indented {n}", COMMENT),
    ("#!/usr/bin/env python", COMMENT),
    ("", BLANK),
    ("  ", BLANK),
)
_TEXT = (
    ("Plain text line {n} // not a comment here", CODE),
    ("# a heading, still text", CODE),
    ("", BLANK),
)
_KINDS = (
    ("clike", (".c", ".h", ".java", ".js", ".go", ".rs", ".cpp", ".H"), 0.5),
    ("hash", (".py", ".sh", ".rb", ".yaml", ".PY"), 0.3),
    ("text", (".txt", ".md"), 0.1),
    (None, (".bin", ".dat", ".json", ".csv", ""), 0.1),
)


def _weights(table) -> list[int]:
    return [3 if cls == CODE else 2 if cls == COMMENT else 1 for _, cls, *_ in table]


def _clike_lines(rng: random.Random, count: int, unclosed: bool) -> list:
    lines = []
    in_block = False
    out_w, in_w = _weights(_CLIKE_OUT), _weights(_CLIKE_IN)
    for n in range(count):
        if in_block:
            text, cls, closes = rng.choices(_CLIKE_IN, in_w)[0]
            in_block = not closes
        else:
            text, cls, opens = rng.choices(_CLIKE_OUT, out_w)[0]
            in_block = opens
        lines.append((text.format(n=n), cls))
    if in_block and not unclosed:
        lines.append((" */", COMMENT))
    elif not in_block and unclosed:
        lines.append(("/* never closed", COMMENT))
    return lines


def _file_lines(rng: random.Random, kind: str, count: int, unclosed: bool) -> list:
    if kind == "clike":
        return _clike_lines(rng, count, unclosed)
    table = _HASH if kind == "hash" else _TEXT
    return [
        (t.format(n=n), c)
        for n, (t, c) in enumerate(rng.choices(table, _weights(table), k=count))
    ]


def write_source_tree(root, seed: int, total_bytes: int) -> dict:
    """Write a tree with about ``total_bytes`` of source under ``root``; return the sidecar.

    File lengths are log-normal. Files mix CRLF and LF endings, missing
    final newlines, invalid UTF-8 inside code and line comments, block
    comments across lines, unclosed blocks and comment openers in strings.
    """
    rng = random.Random(seed)
    root = Path(root)
    files: dict[str, dict] = {}
    by_language: dict[str, list[int]] = {}
    skipped = 0
    source_bytes = 0
    index = 0
    while source_bytes < total_bytes:
        language, extensions, _ = rng.choices(_KINDS, [k[2] for k in _KINDS])[0]
        depth = rng.randint(0, 3)
        parts = [f"d{rng.randrange(6)}" for _ in range(depth)]
        rel = "/".join(parts + [f"f{index:05d}{rng.choice(extensions)}"])
        index += 1
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if language is None:
            data = rng.randbytes(rng.randint(0, 4000))
            path.write_bytes(data)
            skipped += 1
            continue
        count = 0 if rng.random() < 0.01 else min(4000, max(1, int(rng.lognormvariate(math.log(90), 1.0))))
        lines = _file_lines(rng, language, count, unclosed=rng.random() < 0.05) if count else []
        newline = b"\r\n" if rng.random() < 0.15 else b"\n"
        encoded = []
        for text, cls in lines:
            raw = text.encode("utf-8")
            # Invalid bytes only where they cannot change the line's class.
            if (cls == CODE or text.lstrip().startswith(("//", "#"))) and rng.random() < 0.02:
                raw += rng.choice((b" \xff", b"\xc3(", b"\xe2\x82"))
            encoded.append(raw)
        trailing = not encoded or rng.random() > 0.1
        if not trailing and not encoded[-1].strip(b" \t"):
            encoded[-1] = b"    "  # an unterminated last line must not be empty
        data = newline.join(encoded) + (newline if trailing and encoded else b"")
        path.write_bytes(data)
        source_bytes += len(data)
        counts = [sum(1 for _, c in lines if c == k) for k in (CODE, COMMENT, BLANK)]
        files[rel] = {"language": language, "code": counts[0], "comment": counts[1], "blank": counts[2]}
        total = by_language.setdefault(language, [0, 0, 0])
        for k in range(3):
            total[k] += counts[k]
    totals = [sum(v[k] for v in by_language.values()) for k in range(3)]
    return {
        "files": files,
        "by_language": by_language,
        "total": totals,
        "skipped": skipped,
        "lines": sum(totals),
        "input_bytes": source_bytes,
    }
