#!/usr/bin/env python3
"""List the code of doodlekit that a test run never reaches; print one JSON object.

Runs pytest in-process, with the given arguments (default: the whole
tests directory), under sys.settrace and threading.settrace, tracing only
frames of src/doodlekit.  For each module it then reports the statements
whose lines never ran ("unexecuted", by first line) and the if statements
that never took one of their two ways ("one_way": [line, the way never
taken]).  An if takes its true way when a line of its body runs, and its
false way when control leaves its test for any line outside the test and
the body, or leaves the frame.  One-line ifs are not told apart and are
skipped.  Stdlib only besides pytest; a traced run is several times slower
than a plain one.  The pytest report goes to stderr.

    python scripts/branch_census.py [pytest arguments ...]
"""

import ast
import contextlib
import json
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "doodlekit"


class LocalTracer:
    """The tracer of one frame: adds its (file, line, next line) arcs to arcs.

    An object that returns itself, not a closure: a closure that returns
    itself holds itself through its own cell, so every traced frame would
    leave a reference cycle, and tests that count the cycles a call leaves
    would fail under the census alone."""

    __slots__ = ("arcs", "name", "last")

    def __init__(self, arcs, name):
        self.arcs, self.name = arcs, name
        self.last = None  # no arc into a frame's first line or out of an exception

    def __call__(self, frame, event, arg):
        line = 0 if event == "return" else frame.f_lineno
        self.arcs.add((self.name, self.last, line))
        self.last = None if event == "exception" else line
        return self


def trace_run(args):
    """pytest's exit code and the set of (file, line, next line) arcs; 0 is the frame's exit."""
    arcs, files = set(), {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = pathlib.Path(name).resolve()
            files[name] = path if path.parent == PKG else None
        if files[name] is None:
            return None
        return LocalTracer(arcs, files[name])

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(call)
    threading.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), arcs


def census(path, arcs):
    """The unexecuted statements and one-way ifs of one module, from its (line, next line) arcs."""
    text = path.read_text()
    code_lines, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        co = codes.pop()
        code_lines.update(line for _, _, line in co.co_lines() if line)
        codes += [c for c in co.co_consts if hasattr(c, "co_lines")]
    ran = {b for _, b in arcs}
    unexecuted, ifs, one_way = [], 0, []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = max(body[0].lineno, node.lineno + 1) if body else node.end_lineno + 1
        head = set(range(first, last))  # a compound statement's header only
        if head & code_lines and not head & ran:
            unexecuted.append(node.lineno)
        if not isinstance(node, ast.If):
            continue
        test = set(range(node.lineno, node.test.end_lineno + 1))
        block = set(range(body[0].lineno, body[-1].end_lineno + 1))
        if test & block or not test & ran:
            continue
        ifs += 1
        outside = test | block
        if not block & ran:
            one_way.append([node.lineno, "true"])
        elif not any(a in test and b not in outside for a, b in arcs):
            one_way.append([node.lineno, "false"])
    return {"unexecuted": sorted(unexecuted), "ifs_reached": ifs, "one_way": sorted(one_way)}


def main() -> int:
    code, arcs = trace_run(sys.argv[1:] or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    modules = {}
    for path in sorted(PKG.glob("*.py")):
        modules[path.stem] = census(path, {(a, b) for name, a, b in arcs if name == path})
    print(json.dumps({"pytest_exit": code, "modules": modules}))
    return code


if __name__ == "__main__":
    sys.exit(main())
