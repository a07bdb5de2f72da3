#!/usr/bin/env python3
"""Count the code lines of OCaml source files: lines that hold anything
outside a comment, blank lines and comment-only lines excluded. Nested
comments and string literals are honoured.

    python3 tools/code_lines.py lib/machine/procs.ml lib/machine/wire.ml

prints "code raw path" per file, then the code total. Line ledgers in
EXPERIMENTS.md give both counts.
"""
import sys


def code_lines(text):
    depth = 0
    in_string = False
    has_code = False
    count = 0
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            count += has_code
            has_code = False
            i += 1
        elif in_string:
            has_code = True
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
            i += 1
        elif text.startswith("(*", i) and not text.startswith("(*)", i):
            depth += 1
            i += 2
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif depth > 0:
            i += 1
        elif c == '"':
            in_string = has_code = True
            i += 1
        elif c == "'" and text[i + 2 : i + 3] == "'":
            # a character literal such as '"' or '('
            has_code = True
            i += 3
        else:
            has_code = has_code or not c.isspace()
            i += 1
    return count + has_code


def main(paths):
    total = 0
    for path in paths:
        with open(path) as f:
            text = f.read()
        n = code_lines(text)
        total += n
        print(n, text.count("\n"), path)
    print("total code", total)


if __name__ == "__main__":
    main(sys.argv[1:])
