"""Line coverage of src/smrgrid under the tier-1 tests, standard library only.

Run it with no arguments, from any directory:

    python tools/line_coverage.py

It installs a line tracer on the frames of src/smrgrid files before anything
imports smrgrid, runs pytest in this process with tier-1's arguments, and
compares the executable lines that no test reached with
tools/unreached_lines.txt. A line is executable when a code object compiled
from its file maps an instruction to it (`co_lines`); docstrings are left out.
The list keys each line by its file and its stripped source text, not by its
number, so edits elsewhere do not move it.

Exit status: pytest's own when a test fails; otherwise 0 when the list
matches, and 1 when it does not, after printing the list that would match.
A line that a test reaches should leave the list; a new unreached line wants
a test that reaches it, or its deletion.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smrgrid"
LISTED = ROOT / "tools" / "unreached_lines.txt"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]
SEP = " | "


def executable_lines(path: Path) -> set[int]:
    """Lines of `path` that some code object maps an instruction to, less
    the lines of docstrings."""
    source = path.read_text()
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if (
                isinstance(doc, ast.Expr)
                and isinstance(doc.value, ast.Constant)
                and isinstance(doc.value.value, str)
            ):
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return lines


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the reached lines of each package file."""
    reached: dict[str, set[int]] = {
        str(p): set() for p in sorted(PACKAGE.glob("*.py"))
    }

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        hits = reached.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)
        return local

    os.chdir(ROOT)  # tier-1's tests name their data files from the root
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        import pytest

        status = pytest.main(TIER1_ARGS + [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = Path(sys.modules["smrgrid"].__file__).resolve().parent
    if loaded != PACKAGE:
        sys.exit(f"smrgrid was imported from {loaded}, not {PACKAGE}")
    return int(status), reached


def read_listed() -> tuple[Counter, dict]:
    """The listed (file, source) keys, with multiplicity, and their reasons."""
    keys: Counter = Counter()
    reasons = {}
    for raw in LISTED.read_text().splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        rest, reason = raw.rsplit(SEP, 1)
        name, text = rest.split(SEP, 1)
        keys[name, text] += 1
        reasons[name, text] = reason
    return keys, reasons


def main() -> int:
    status, reached = run_traced()
    if status != 0:
        print(f"line_coverage: pytest exited {status}; coverage not compared")
        return status
    unreached: Counter = Counter()
    total = 0
    for filename, hits in reached.items():
        path = Path(filename)
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines - hits):
            unreached[path.name, source[n - 1].strip()] += 1
    listed, reasons = read_listed()
    print(f"line_coverage: {total - sum(unreached.values())} of {total} "
          f"executable lines of src/smrgrid reached")
    if unreached == listed:
        return 0
    for key in sorted((unreached - listed).elements()):
        print(f"  unreached, not listed: {key[0]}: {key[1]}")
    for key in sorted((listed - unreached).elements()):
        print(f"  listed, but reached or gone: {key[0]}: {key[1]}")
    print(f"line_coverage: {LISTED.relative_to(ROOT)} should read (replace each '?'):")
    for key in sorted(unreached.elements()):
        print(SEP.join((*key, reasons.get(key, "?"))))
    return 1


if __name__ == "__main__":
    sys.exit(main())
