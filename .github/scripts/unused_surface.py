"""Lists public items that nothing outside their own definition mentions.

Usage, from the repository root (or with the root as the only argument):

    python3 .github/scripts/unused_surface.py [ROOT]

Scans the non-test source: `crates/*/src/**/*.rs` and `src/**/*.rs`, minus
every `#[cfg(test)]` item (see `src_lines.py`). An item is a plain `pub fn`,
`struct`, `enum`, `trait` or `type` declared there. It is reported when its
name, as a whole word, appears in no other non-test file and only once (at
its definition) in its own. A mention anywhere counts, doc comments and
strings included, so an item another file only links to is not reported. A
re-export (`pub use`, over one line or several) is not a mention: an item
that only a module re-exports is reported.

Integration tests, examples and `perfbench/` are not scanned, so a reported
item may still be called there, or by its own unit tests. Read its callers
before deleting it. Prints one `path:line kind name` line per reported item
and a count; report only, the exit code is always 0.
"""

import pathlib
import re
import sys

from src_lines import non_test_lines

DEFINITION = re.compile(
    r"^pub\s+(?:(?:const|async|unsafe)\s+)*(fn|struct|enum|trait|type)\s+(\w+)"
)
REEXPORT = re.compile(r"^pub(?:\([^)]*\))?\s+use\b")


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = sorted(root.glob("crates/*/src/**/*.rs")) + sorted(root.glob("src/**/*.rs"))
    texts = {}
    definitions = []
    for path in files:
        raw = []
        reexport = False  # inside a `pub use` statement
        for number, line, code in non_test_lines(path):
            if reexport or REEXPORT.match(code):
                reexport = not code.endswith(";")
                continue
            raw.append(line)
            found = DEFINITION.match(code)
            if found:
                definitions.append((path, number, found.group(1), found.group(2)))
        texts[path] = "\n".join(raw)
    unused = []
    for path, number, kind, name in definitions:
        word = re.compile(r"\b%s\b" % re.escape(name))
        if len(word.findall(texts[path])) > 1:
            continue
        if any(word.search(text) for other, text in texts.items() if other != path):
            continue
        unused.append(f"{path.relative_to(root)}:{number} {kind} {name}")
    for line in unused:
        print(line)
    print(f"{len(unused)} of {len(definitions)} public items have no mention outside their definition")


if __name__ == "__main__":
    main()
