#!/usr/bin/env python3
"""Doc drift check: every backquoted name in the docs must still exist.

Usage (from anywhere):

    python3 tools/check_doc_names.py [DOC ...]

With no arguments it checks README.md, DESIGN.md and EXPERIMENTS.md at
the repo root. A backquoted span (outside fenced code blocks) is checked
when it is one of:

  - an identifier, optionally qualified with `::` and followed by `()`:
    every component must occur as a whole word in the code;
  - a file path (contains `/`, or is a file name with an extension): it
    must exist relative to the repo root, the doc's directory or `src/`
    (with or without a file extension), or occur verbatim in the code.

"The code" is every non-markdown file under src/, tools/, tests/,
bench/, examples/, perfbench/ and .github/. Anything else in backquotes
(flags, commands, expressions, globs, metric keys) is not checked.
A name that is gone on purpose, say in a history note, is written
without backquotes.

Exit status: 0 = every name found, 1 = stale names (listed on stdout).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
CODE_DIRS = ["src", "tools", "tests", "bench", "examples", "perfbench",
             ".github"]

SPAN = re.compile(r"`([^`\n]+)`")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(::~?[A-Za-z_]\w*)*")
PATH = re.compile(r"[\w.-]+(/[\w.-]+)+|[\w-]+\.[A-Za-z]{1,4}")
WORD = re.compile(r"[A-Za-z_]\w*")


def load_code():
    """The text of every code file, and the set of words in it."""
    this = Path(__file__).resolve()
    texts = []
    for top in CODE_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if (not path.is_file() or path.suffix == ".md"
                    or path.resolve() == this
                    or "__pycache__" in path.parts):
                continue
            texts.append(path.read_text(errors="ignore"))
    text = "\n".join(texts)
    return text, set(WORD.findall(text))


def spans(doc_text):
    """Backquoted spans outside ``` fences, with their line numbers."""
    fenced = False
    for lineno, line in enumerate(doc_text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            for span in SPAN.findall(line):
                yield lineno, span


def path_exists(name, doc_dir):
    for base in (ROOT, doc_dir, ROOT / "src"):
        path = base / name
        if path.exists() or any(path.parent.glob(path.name + ".*")):
            return True
    return False


def stale(name, doc_dir, code_text, code_words):
    """True when @p name is a checked name that the code lacks."""
    name = name.strip()
    if name.endswith("()"):
        name = name[:-2]
    if IDENTIFIER.fullmatch(name):
        parts = name.replace("~", "").split("::")
        return not all(part in code_words for part in parts)
    if PATH.fullmatch(name.rstrip("/")):
        name = name.rstrip("/")
        return not (path_exists(name, doc_dir) or name in code_text)
    return False


def main(argv):
    docs = [Path(arg).resolve() for arg in argv] or \
           [ROOT / doc for doc in DEFAULT_DOCS]
    code_text, code_words = load_code()
    found = 0
    for doc in docs:
        for lineno, name in spans(doc.read_text()):
            if stale(name, doc.parent, code_text, code_words):
                shown = doc.relative_to(ROOT) if doc.is_relative_to(ROOT) \
                    else doc
                print(f"{shown}:{lineno}: `{name}` is in no code file "
                      f"and names no path")
                found += 1
    if found:
        print(f"{found} stale name(s): rename them, or drop the "
              f"backquotes where a name is gone on purpose")
        return 1
    print(f"doc names: {len(docs)} doc(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
