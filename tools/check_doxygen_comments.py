#!/usr/bin/env python3
"""Doxygen-coverage audit for public API headers.

Flags public declarations (classes, structs, enums, free functions,
public member functions and fields) that carry no Doxygen comment -
neither a preceding ``/** ... */`` or ``///`` block nor a trailing
``///<``. This is the local, dependency-free half of the docs CI
gate; the other half builds real Doxygen with warnings-as-errors
(docs/Doxyfile) and subsumes this check when available.

Usage:
    tools/check_doxygen_comments.py src/core src/sim/flat_memo.hh [...]

Each argument is a directory (every ``*.hh`` below it is checked) or
a single ``.hh`` file. Exit status 1 if any undocumented declaration
is found, 2 if an argument names no header at all (a missing path, a
non-header file, or a directory without headers).
"""

import re
import sys
from pathlib import Path

# Lines that never need their own doc comment.
SKIP = re.compile(
    r"^\s*($|#|//(?!/<)|/?\*|\}|\)|public:|private:|protected:|"
    r"namespace\b|using namespace|extern\b|template\b|friend\b|"
    r"typedef\b|static_assert\b|\[\[|[A-Z_]+\($|else|return\b)"
)
# A declaration opener: type name, class/struct/enum, or using alias.
DECL = re.compile(r"^\s*(?:class|struct|enum(?:\s+class)?|using)\s+\w|^\s*[A-Za-z_]")
FWD_DECL = re.compile(r"^\s*(?:class|struct)\s+\w+\s*;")


def ends_doc(line: str) -> bool:
    stripped = line.strip()
    return stripped.endswith("*/") or stripped.startswith("///")


def check_header(path: Path) -> list:
    problems = []
    lines = path.read_text().splitlines()
    depth = 0            # brace depth
    access = ["public"]  # access specifier per class-nesting level
    class_depths = []    # brace depth at which each class body opened
    in_block_comment = False
    in_decl = False      # inside a multi-line declaration/definition
    decl_balance = 0     # brace balance within that declaration
    skip_parens = 0      # open parens of a multi-line skipped stmt
    prev_doc = False     # previous meaningful line ended a doc comment

    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip()
        code = line

        if in_block_comment:
            if "*/" in code:
                in_block_comment = False
                prev_doc = True
            continue
        stripped = code.strip()
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block_comment = True
            else:
                prev_doc = True
            continue
        if not stripped:
            continue
        if stripped.startswith("///"):
            prev_doc = True
            continue
        if stripped.startswith("//"):
            continue

        # Track class/struct bodies and access regions.
        opens = code.count("{")
        closes = code.count("}")

        if re.match(r"\s*(namespace\b|using namespace)", code):
            depth += opens - closes
            prev_doc = False
            continue
        if re.match(r"\s*template\s*<", code):
            # Transparent: the doc comment covers the entity below.
            continue
        body_open = re.match(
            r"\s*(?:class|struct)\s+\w+[^;]*$", code
        ) and ("{" in code or not code.rstrip().endswith(";"))

        if re.match(r"\s*(public|private|protected)\s*:", stripped):
            if access:
                access[-1] = stripped.split(":")[0].strip()
            depth += opens - closes
            prev_doc = False
            continue

        documented_inline = "///<" in raw

        # Continuation lines of a skipped multi-line statement (a
        # static_assert or macro call whose argument list spans
        # lines) are part of that statement, not fresh declarations.
        if skip_parens > 0:
            depth += opens - closes
            skip_parens += code.count("(") - code.count(")")
            if skip_parens < 0:
                skip_parens = 0
            prev_doc = False
            continue

        if in_decl:
            depth += opens - closes
            decl_balance += opens - closes
            if decl_balance < 0:
                in_decl = False
                decl_balance = 0
            # A declaration continues across lines until a semicolon
            # or a net-closing brace line. Lines whose braces balance
            # (e.g. brace-initialized default arguments, `= {},`) do
            # not terminate it.
            elif decl_balance == 0 and (";" in code
                                        or closes > opens):
                in_decl = False
            prev_doc = False
            continue

        # Is this a declaration we should check?
        at_ns_scope = not class_depths and depth >= 1
        at_public_scope = bool(class_depths) and access[-1] == "public"
        skipped = bool(SKIP.match(code))
        checkable = (at_ns_scope or at_public_scope) and not skipped \
            and DECL.match(code) and not FWD_DECL.match(code)

        if skipped:
            balance = code.count("(") - code.count(")")
            if balance > 0:
                skip_parens = balance

        if checkable and not prev_doc and not documented_inline:
            problems.append((lineno, stripped[:60]))

        if body_open:
            kind = re.match(r"\s*(class|struct)", code).group(1)
            # A type nested in a non-public region is not public API.
            outer_public = not class_depths or access[-1] == "public"
            class_depths.append(depth)
            access.append("public" if kind == "struct" and
                          outer_public else "private")
        depth += opens - closes
        if closes > 0 and class_depths and depth <= class_depths[-1]:
            class_depths.pop()
            if len(access) > 1:
                access.pop()

        # Multi-line function signature or inline definition? (Class
        # bodies are excluded: their members are checked line-wise.)
        if checkable and not body_open:
            balance = opens - closes
            if balance > 0:
                in_decl, decl_balance = True, balance
            elif (balance == 0 and ";" not in code
                  and "}" not in code):
                in_decl, decl_balance = True, 0
        prev_doc = False

    return problems


def headers(arg: str) -> list:
    """The headers an argument names: itself, or those below it."""
    path = Path(arg)
    if path.is_file():
        return [path] if path.suffix == ".hh" else []
    return sorted(path.glob("**/*.hh"))


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    paths = []
    for arg in argv[1:]:
        found = headers(arg)
        if not found:
            print(f"{arg}: no .hh header here", file=sys.stderr)
            return 2
        paths.extend(found)
    failures = 0
    for path in paths:
        for lineno, snippet in check_header(path):
            print(f"{path}:{lineno}: undocumented: {snippet}")
            failures += 1
    if failures:
        print(f"\n{failures} undocumented public declaration(s)")
        return 1
    print("all public declarations documented")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
