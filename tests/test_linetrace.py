"""The line tracer behind the ``-p linetrace`` gate (tests/linetrace.py)."""

from __future__ import annotations

import importlib.util
import sys
import threading

from linetrace import LineTrace, _exempt_lines

SOURCE = '''\
def guard(x):  # pragma: no cover - guard
    if x:
        raise AttributeError("immutable")


def check(x):
    if x < 0:
        raise RuntimeError(  # pragma: no cover - safety net
            "a message on a second line"
        )
    return x  # pragma: no cover
'''


def test_a_pragma_exempts_the_statement_it_starts():
    # the def's whole body, the multi-line raise, and the one-line return;
    # nothing else, not even the if that guards the raise
    assert _exempt_lines(SOURCE) == {1, 2, 3, 8, 9, 10, 11}


def test_a_pragma_inside_a_string_exempts_nothing():
    assert _exempt_lines('x = "# pragma: no cover"\ny = 1\n') == set()


def test_the_tracer_names_each_line_that_never_ran(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    module = package / "mod.py"
    module.write_text(
        "def sign(x):\n"
        "    if x < 0:\n"
        "        return -1\n"
        "    return 1\n"
        "\n"
        "\n"
        "def never():\n"
        "    return 0\n"
    )
    tracer = LineTrace(package)
    # under the gate itself an outer tracer is running: put it back after
    outer, outer_threads = sys.gettrace(), threading.gettrace()
    tracer.start()
    try:
        spec = importlib.util.spec_from_file_location("linetrace_probe", module)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.sign(5) == 1
    finally:
        tracer.stop()
        threading.settrace(outer_threads)
        sys.settrace(outer)
    assert tracer.unrun() == [(module, 3), (module, 8)]
