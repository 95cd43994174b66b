#!/usr/bin/env python3
"""Check EXPERIMENTS.md's measured numbers against the bench goldens.

    check_experiments_doc.py EXPERIMENTS.md tests/data/bench

For every `## ` section that names `bench/<name>` binaries, every
number in the section's tables taken from a column headed `measured`,
`closed form`, `empirical`, `R-HAM analytic` or `R-HAM Monte-Carlo`,
and from the bold half of every `paper / **measured**` cell, must
equal a number that one of those binaries prints in its golden stdout
(`<name>.stdout`). Numbers compare as numbers, with thousands
separators dropped, so `8.20` matches `8.2` and `1,000` matches
`1000`. Exits 1, naming each number that no golden prints.
"""

import os
import re
import sys

CHECKED_COLUMNS = {"measured", "closed form", "empirical",
                   "R-HAM analytic", "R-HAM Monte-Carlo"}
NUMBER = re.compile(
    r"(?<![\w.])(\d{1,3}(?:,\d{3})+|\d+)(\.\d+)?([eE][+-]?\d+)?")
BOLD = re.compile(r"\*\*(.*?)\*\*")
BINARY = re.compile(r"(?<![\w/])bench/(\w+)")


def numbers(text):
    return [float(m.group(1).replace(",", "") + (m.group(2) or "") +
                  (m.group(3) or ""))
            for m in NUMBER.finditer(text)]


def sections(lines):
    """(title, lines) per `## ` section."""
    title, body = None, []
    for line in lines:
        if line.startswith("## "):
            if title is not None:
                yield title, body
            title, body = line[3:].strip(), []
        elif title is not None:
            body.append(line)
    if title is not None:
        yield title, body


def tables(lines):
    """Each table as a list of rows of cell strings, header first."""
    rows = []
    for line in lines + [""]:
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip().strip("|")
                         .split("|")])
        elif rows:
            yield [r for r in rows if not set("".join(r)) <= set("-:")]
            rows = []


def main(doc, goldens):
    with open(doc, encoding="utf-8") as f:
        lines = f.read().splitlines()
    failures, checked, tables_seen = [], 0, 0
    for title, body in sections(lines):
        binaries = sorted(set(BINARY.findall("\n".join(body))))
        if not binaries:
            continue
        printed = set()
        for name in binaries:
            path = os.path.join(goldens, name + ".stdout")
            if not os.path.exists(path):
                failures.append("%s: no golden %s" % (title, path))
                continue
            with open(path, encoding="utf-8") as f:
                printed.update(numbers(f.read()))
        for table in tables(body):
            tables_seen += 1
            header, rows = table[0], table[1:]
            for row in rows:
                for column, cell in zip(header, row):
                    if column in CHECKED_COLUMNS:
                        quoted = numbers(cell)
                    else:
                        quoted = [n for bold in BOLD.findall(cell)
                                  for n in numbers(bold)]
                    for value in quoted:
                        checked += 1
                        if value not in printed:
                            failures.append(
                                "%s: %g (row '%s', column '%s') is "
                                "printed by none of %s" %
                                (title, value, row[0], column,
                                 ", ".join(binaries)))
    for failure in failures:
        print("MISMATCH", failure)
    print("checked %d numbers in %d tables: %d mismatched" %
          (checked, tables_seen, len(failures)))
    return 1 if failures or checked == 0 else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
