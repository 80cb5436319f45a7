"""Reference job: fixed stdlib-only work shaped like the analyze pipeline.

    python3 probe.py

The benchmark runs this right before every timed child and scales the
child's wall time by how long this job took (see run.py). It parses CSV
text, sorts and groups the records and renders JSON, all in memory and
from a fixed seed, and imports nothing from baserates, so no change to
the program can change its time; only the machine's speed does.
"""

import csv
import io
import json
import random


def main() -> None:
    rng = random.Random(0)
    rows = [(f"p{i % 500:04d}", 2000 + i % 14, 1 + i % 12, rng.randrange(10**6)) for i in range(40_000)]
    text = "\n".join(",".join(map(str, row)) for row in rows)
    records = sorted((r[0], int(r[1]), int(r[2]), int(r[3])) for r in csv.reader(io.StringIO(text)))
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(record[0], []).append(record)
    json.dumps({name: sum(r[3] for r in group) for name, group in groups.items()})


if __name__ == "__main__":
    main()
