"""A pytest plugin that fails the session when a line of ``src/iwa`` never runs.

Run it over the whole tier-1 suite::

    PYTHONPATH=src:tests python -m pytest -q -p linetrace --hypothesis-seed=0

It is built on the standard library alone. A ``sys.settrace`` hook records
the lines that frames of ``src/iwa`` execute, and stops tracing a code object
once every line of it has run, so hot loops cost nothing after their first
pass. At the end of the session every executable line (the union of the
line numbers in the code objects' ``co_lines()``) that never ran is listed
as ``file:line``, and the session fails if there is any.

The one exemption is a ``# pragma: no cover`` comment, read as coverage.py
reads it: on the first line of a statement it exempts the whole statement,
so on a ``def`` it exempts the body.
"""

from __future__ import annotations

import ast
import io
import os
import re
import sys
import threading
import tokenize
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# coverage.py's default exclusion pattern
_PRAGMA = re.compile(r"#\s*(pragma|PRAGMA)[:\s]?\s*(no|NO)\s*(cover|COVER)")
_NOTHING = frozenset()


def _lines_of(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}


@lru_cache(maxsize=None)
def _real(filename: str) -> str:
    return os.path.realpath(filename)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _exempt_lines(source: str) -> set[int]:
    """The lines a ``# pragma: no cover`` exempts."""
    marked = {
        tok.start[0]
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and _PRAGMA.search(tok.string)
    }
    exempt = set(marked)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and node.lineno in marked:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            exempt.update(range(first, node.end_lineno + 1))
    return exempt


class LineTrace:
    """The lines of one package's modules that have run since ``start``."""

    def __init__(self, package: Path = ROOT / "src" / "iwa"):
        self.package = package
        self.missing: list[tuple[Path, int]] = []
        prefix = f"{package.resolve()}{os.sep}"
        # code object -> the lines of it that have not run yet (empty once all have)
        todo: dict = {}
        self._todo = todo

        def call(frame, event, arg):
            code = frame.f_code
            lines = todo.get(code)
            if lines is None:
                own = _real(code.co_filename).startswith(prefix)
                lines = todo[code] = _lines_of(code) if own else _NOTHING
            if not lines:
                return None
            # the call event stands for the line the frame starts on: a
            # function's RESUME sits on its def line and raises no line event
            lines.discard(frame.f_lineno)
            return line if lines else None

        def line(frame, event, arg):
            if event == "line":
                lines = todo[frame.f_code]
                lines.discard(frame.f_lineno)
                if not lines:
                    return None
            return line

        self._call = call

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def unrun(self) -> list[tuple[Path, int]]:
        """Every executable, unexempted line of the package that has not run."""
        ran: dict[str, set[int]] = {}
        for code, todo in self._todo.items():
            if todo is not _NOTHING:
                ran.setdefault(_real(code.co_filename), set()).update(_lines_of(code) - todo)
        out = []
        for path in sorted(self.package.glob("*.py")):
            source = path.read_text()
            executable = set()
            for code in _code_objects(compile(source, str(path), "exec")):
                executable |= _lines_of(code)
            missing = executable - _exempt_lines(source) - ran.get(_real(str(path)), set())
            out.extend((path, line) for line in sorted(missing))
        return out

    def pytest_sessionfinish(self, session):
        self.stop()
        self.missing = self.unrun()
        if self.missing and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        if self.missing:
            terminalreporter.section("src/iwa lines that never ran", red=True)
            for path, line in self.missing:
                terminalreporter.write_line(f"{path.relative_to(ROOT)}:{line}")
        terminalreporter.write_line(f"linetrace: {len(self.missing)} src/iwa lines never ran")


def pytest_configure(config):
    tracer = LineTrace()
    config.pluginmanager.register(tracer, "linetrace-session")
    tracer.start()
