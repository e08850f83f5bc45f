"""Counts the non-test code lines of every workspace crate.

Usage, from the repository root (or with the root as the only argument):

    python3 .github/scripts/src_lines.py [ROOT]

Prints one line per crate under `crates/` (by its package name) and a total.
A line of `crates/*/src/**/*.rs` counts when it is not blank, not a comment
(`//`, `///`, `//!` or inside `/* */`), and not part of an item marked
`#[cfg(test)]` (the attribute, the item's lines through its closing brace or
semicolon). Braces inside string and character literals are ignored. Reported,
not gated: run it at two commits to compare their sizes.
"""

import pathlib
import re
import sys


def strip_literals(line, in_block):
    """Returns `line` without comments and literal contents, and whether a
    block comment is still open at its end."""
    out = []
    i = 0
    while i < len(line):
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            in_block = False
            i = end + 2
            continue
        c = line[i]
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block = True
            i += 2
            continue
        raw = re.match(r'r(#*)"', line[i:])
        if raw and (i == 0 or not (line[i - 1].isalnum() or line[i - 1] == "_")):
            close = '"' + raw.group(1)
            end = line.find(close, i + len(raw.group(0)))
            out.append('""')
            i = len(line) if end < 0 else end + len(close)
            continue
        if c == '"':
            i += 1
            while i < len(line) and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
            out.append('""')
            i += 1
            continue
        char = re.match(r"'(\\.|[^\\'])'", line[i:])
        if char:
            out.append("' '")
            i += len(char.group(0))
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block


def count_file(path):
    """Counts the non-test code lines of one source file."""
    count = 0
    in_block = False
    skipping = False  # inside a `#[cfg(test)]` item
    depth = 0  # brace depth within the skipped item
    opened = False  # the skipped item has opened its body
    for line in path.read_text(encoding="utf-8").splitlines():
        code, in_block = strip_literals(line, in_block)
        code = code.strip()
        if not skipping and code.startswith("#[cfg(test)]"):
            skipping, depth, opened = True, 0, False
            code = code[len("#[cfg(test)]") :].strip()
        if skipping:
            depth += code.count("{") - code.count("}")
            opened = opened or "{" in code
            if (opened and depth <= 0) or (not opened and code.endswith(";")):
                skipping = False
            continue
        if code:
            count += 1
    return count


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    total = 0
    for manifest in sorted(root.glob("crates/*/Cargo.toml")):
        name = re.search(r'^name\s*=\s*"([^"]+)"', manifest.read_text(), re.M).group(1)
        src = manifest.parent / "src"
        lines = sum(count_file(path) for path in sorted(src.rglob("*.rs")))
        total += lines
        print(f"{name:<14} {lines:>6}")
    print(f"{'total':<14} {total:>6}")


if __name__ == "__main__":
    main()
