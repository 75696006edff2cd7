"""The race harness, and the rule that keeps every threaded test on it: the CI
step that runs ``-k racing`` five times then selects every threaded test."""

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


def _calls(node) -> list[ast.Call]:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)]


def test_every_threaded_test_races_through_the_harness():
    faults = []
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text(), path.name)
        faults += [f"{path.name}:{call.lineno} starts a thread itself" for call in _calls(tree)
                   if ast.unparse(call.func) in ("threading.Thread", "Thread")]
        faults += [f"{path.name}::{test.name} calls race without 'racing' in its name"
                   for test in ast.walk(tree) if isinstance(test, ast.FunctionDef)
                   and test.name.startswith("test_") and "racing" not in test.name
                   and any(ast.unparse(call.func) == "race" for call in _calls(test))]
    assert faults == []
