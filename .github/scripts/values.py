"""Compares experiment tables with the committed reference values.

Usage, from the repository root:

    python3 .github/scripts/values.py check [--threads N] RUN.json...
    python3 .github/scripts/values.py update RUN.json...

RUN.json is what `experiments --json` writes. Every cell of a table is a value
except those in the columns its `wall_clock` list names, and a value is the
same on every run and at every engine thread count.

`check` fails, naming the table, row and column, when a run's table is missing
from the reference or differs from it in headers, wall-clock columns, row count
or any value cell, and with `--threads N` when a run's `threads` is not N.

`update` writes the runs' tables into the reference with their wall-clock cells
left out (null), so a run that moved only wall-clock leaves the file
byte-identical. A deliberate value change commits the reference diff and gives
its reason in CHANGES.md.
"""

import argparse
import json
import sys

REFERENCE = ".github/reference/values.json"


def value_rows(table):
    """The table's rows with every wall-clock cell replaced by None."""
    clock = {i for i, h in enumerate(table["headers"]) if h in table["wall_clock"]}
    return [[None if i in clock else c for i, c in enumerate(r)] for r in table["rows"]]


def runs(paths):
    for path in paths:
        with open(path, encoding="utf-8") as f:
            yield path, json.load(f)


def read_reference():
    with open(REFERENCE, encoding="utf-8") as f:
        return {t["id"]: t for t in json.load(f)["tables"]}


def check(paths, threads):
    reference = read_reference()
    failures, tables, rows = [], 0, 0
    for path, doc in runs(paths):
        if threads is not None and doc["threads"] != threads:
            failures.append(f"{path}: threads {doc['threads']}, expected {threads}")
        for table in doc["tables"]:
            name, ref = table["id"], reference.get(table["id"])
            if ref is None:
                failures.append(f"{path}: table {name} is missing from {REFERENCE}")
                continue
            moved = [k for k in ("headers", "wall_clock") if table[k] != ref[k]]
            for key in moved:
                failures.append(f"{path}: {name} {key} {table[key]}, reference {ref[key]}")
            ran = value_rows(table)
            if len(ran) != len(ref["rows"]):
                failures.append(f"{path}: {name} has {len(ran)} rows, reference {len(ref['rows'])}")
            if moved or len(ran) != len(ref["rows"]):
                continue
            for i, (row, expected) in enumerate(zip(ran, ref["rows"])):
                if len(row) != len(expected):
                    failures.append(f"{path}: {name} row {i} has {len(row)} cells, reference {len(expected)}")
                    continue
                for header, cell, want in zip(table["headers"], row, expected):
                    if cell != want:
                        failures.append(
                            f"{path}: {name} row {i} ({row[0]}) column {header!r}: {cell!r}, reference {want!r}"
                        )
            tables, rows = tables + 1, rows + len(ran)
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        sys.exit(f"{len(failures)} difference(s) from {REFERENCE}")
    print(f"{rows} rows of {tables} tables equal {REFERENCE} outside their wall-clock columns")


def update(paths):
    reference = read_reference()
    for _, doc in runs(paths):
        for table in doc["tables"]:
            reference[table["id"]] = {
                "id": table["id"],
                "headers": table["headers"],
                "wall_clock": table["wall_clock"],
                "rows": value_rows(table),
            }
    def dump(value):
        return json.dumps(value, ensure_ascii=False)

    entries = []
    for name in sorted(reference, key=lambda name: int(name[1:])):
        table = reference[name]
        rows = ",\n".join(f"   {dump(row)}" for row in table["rows"])
        entries.append(
            f' {{"id": {dump(name)},\n  "headers": {dump(table["headers"])},\n'
            f'  "wall_clock": {dump(table["wall_clock"])},\n  "rows": [\n{rows}\n  ]}}'
        )
    with open(REFERENCE, "w", encoding="utf-8") as f:
        f.write('{"tables": [\n' + ",\n".join(entries) + "\n]}\n")
    print(f"wrote {len(reference)} tables to {REFERENCE}")


parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
commands = parser.add_subparsers(dest="command", required=True)
check_parser = commands.add_parser("check", help="compare runs with the reference")
check_parser.add_argument("--threads", type=int, help="the thread count every run must record")
check_parser.add_argument("runs", nargs="+", metavar="RUN.json")
update_parser = commands.add_parser("update", help="write runs into the reference")
update_parser.add_argument("runs", nargs="+", metavar="RUN.json")
args = parser.parse_args()
if args.command == "check":
    check(args.runs, args.threads)
else:
    update(args.runs)
