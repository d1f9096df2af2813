#!/usr/bin/env python3
"""Stale-pointer check for the documentation.

Scans README.md, ROADMAP.md, and docs/*.md for (a) relative markdown
links and (b) repository path references (src/..., apps/..., tests/...,
bench/..., docs/..., tools/..., examples/...), expands {a,b} brace
groups, and fails when a referenced file or directory does not exist.
It also scans the comments of the .h, .cpp and .py files under src/,
apps/, bench/, examples/, tests/ and tools/ for the same repository paths
and for *.md names, which must be written as paths from the repository
root. CI runs this as the docs job, so documentation or a comment that
names a file which was moved or deleted fails the build instead of
rotting.

Usage: python3 tools/check_docs.py  (from anywhere; repo root is derived
from this script's location)
"""

import ast
import io
import itertools
import re
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO / "README.md", REPO / "ROADMAP.md"] + list((REPO / "docs").glob("*.md"))
)

CODE_FILES = sorted(
    path
    for top in ("src", "apps", "bench", "examples", "tests", "tools")
    for path in (REPO / top).rglob("*")
    if path.suffix in (".h", ".cpp", ".py")
)

# Repo-path tokens: a known top-level directory followed by path
# characters, with at most one {a,b,...} brace group.
PATH_RE = re.compile(
    r"\b(?:src|apps|tests|bench|docs|tools|examples)/"
    r"[\w./-]*(?:\{[\w.,]+\}[\w./-]*)?"
)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BRACE_RE = re.compile(r"\{([\w.,]+)\}")
# A markdown file named in a comment, such as README.md or docs/EVENTS.md.
MD_RE = re.compile(r"(?<![\w./-])[\w./-]*\w\.md\b")
# C++ string and character literals (a digit separator such as 5'000 is
# not a character literal) and comments, in source order.
CPP_TOKEN_RE = re.compile(
    r'"(?:\\.|[^"\\\n])*"|(?<!\w)\'(?:\\.|[^\'\\\n])*\'|//[^\n]*|/\*.*?\*/',
    re.S,
)


def expand_braces(token: str) -> list[str]:
    m = BRACE_RE.search(token)
    if not m:
        return [token]
    alternatives = m.group(1).split(",")
    return list(
        itertools.chain.from_iterable(
            expand_braces(token[: m.start()] + alt + token[m.end() :])
            for alt in alternatives
        )
    )


def check_file(doc: Path) -> list[str]:
    errors = []
    text = doc.read_text(encoding="utf-8")

    def missing(path_str: str) -> bool:
        return not (REPO / path_str).exists()

    for match in PATH_RE.finditer(text):
        token = match.group(0).rstrip(".,:;")
        for candidate in expand_braces(token):
            if missing(candidate.rstrip("/")):
                errors.append(f"{doc.relative_to(REPO)}: stale path '{candidate}'")

    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        target = target.split("#")[0]
        if not target:
            continue
        resolved = (doc.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{doc.relative_to(REPO)}: broken link '{match.group(1)}'")
    return errors


def comments(path: Path, text: str) -> list[tuple[int, str]]:
    """(line, text) of each comment in a source file; for Python, the
    docstrings too."""
    if path.suffix == ".py":
        found = [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.COMMENT
        ]
        for node in ast.walk(ast.parse(text)):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ) and ast.get_docstring(node, clean=False):
                doc = node.body[0]
                found.append((doc.lineno, doc.value.value))
        return found
    return [
        (text.count("\n", 0, m.start()) + 1, m.group(0))
        for m in CPP_TOKEN_RE.finditer(text)
        if m.group(0).startswith(("//", "/*"))
    ]


def check_code_file(path: Path) -> list[str]:
    errors = []
    rel = path.relative_to(REPO)
    for first_line, comment in comments(path, path.read_text(encoding="utf-8")):
        for regex in (PATH_RE, MD_RE):
            for match in regex.finditer(comment):
                line = first_line + comment.count("\n", 0, match.start())
                token = match.group(0).rstrip(".,:;")
                for candidate in expand_braces(token):
                    if not (REPO / candidate.rstrip("/")).exists():
                        errors.append(f"{rel}:{line}: stale pointer '{candidate}'")
    return sorted(set(errors))


def main() -> int:
    all_errors = []
    for doc in DOC_FILES:
        if not doc.exists():
            all_errors.append(f"missing doc file: {doc.relative_to(REPO)}")
            continue
        all_errors.extend(check_file(doc))
    for path in CODE_FILES:
        all_errors.extend(check_code_file(path))
    if all_errors:
        print("documentation check FAILED:", file=sys.stderr)
        for err in all_errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(
        f"documentation check passed ({len(DOC_FILES)} docs, "
        f"comments of {len(CODE_FILES)} source files)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
