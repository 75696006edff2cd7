"""The race harness, and two rules that the test modules keep.

Every threaded test races through the harness, so that the CI step that runs
``-k racing`` five times selects every threaded test.  And no test module
keeps a former implementation as its reference (a top-level ``_old*``,
``_Old*`` or ``_linear*``): each layer's oracle is written once, from the
layer's meaning, in ``conftest.py``.
"""

import ast
import pathlib
import sys

import pytest

from conftest import race


def test_racing_harness_returns_results_in_thread_order_and_raises_a_workers_error():
    switch = sys.getswitchinterval()
    assert race(lambda k: k * k, 6) == [0, 1, 4, 9, 16, 25]

    def worker(k):
        if k == 3:
            raise KeyError(k)
        return k

    with pytest.raises(KeyError) as caught:
        race(worker, 6)
    assert caught.value.args == (3,)
    assert sys.getswitchinterval() == switch


def _modules(pattern) -> list[tuple[str, ast.Module]]:
    return [(path.name, ast.parse(path.read_text(), path.name))
            for path in sorted(pathlib.Path(__file__).parent.glob(pattern))]


def _calls(node) -> list[ast.Call]:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)]


def test_every_threaded_test_races_through_the_harness():
    faults = []
    for name, tree in _modules("test_*.py"):
        faults += [f"{name}:{call.lineno} starts a thread itself" for call in _calls(tree)
                   if ast.unparse(call.func) in ("threading.Thread", "Thread")]
        faults += [f"{name}::{test.name} calls race without 'racing' in its name"
                   for test in ast.walk(tree) if isinstance(test, ast.FunctionDef)
                   and test.name.startswith("test_") and "racing" not in test.name
                   and any(ast.unparse(call.func) == "race" for call in _calls(test))]
    assert faults == []


def test_no_test_module_keeps_a_former_implementation_as_its_reference():
    faults = [f"{name}::{node.name}" for name, tree in _modules("*.py") if name != "conftest.py"
              for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith(("_old", "_Old", "_linear"))]
    assert faults == []
