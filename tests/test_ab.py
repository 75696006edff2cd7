"""tools/ab.py's verdicts, on made-up run results: no benchmark process is started."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_p90_ms", "better": "lower", "bound": 0.25}


def _run(metrics, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


@pytest.mark.parametrize("metric,at_edge,past_edge", [(HIGHER, 3, 2.9), (LOWER, 5, 5.1)])
def test_compare_at_the_bound_edge(metric, at_edge, past_edge):
    # Head may be worse than base by the bound itself (4 -> 3 or 4 -> 5 is 0.25), not by more.
    edge = ab.compare(metric, [4, 4, 4], [at_edge] * 3)
    assert (edge["ratio"], edge["within"], edge["wins"]) == (at_edge / 4, True, 0)
    assert ab.compare(metric, [4, 4, 4], [past_edge] * 3)["within"] is False


def test_compare_counts_the_pairs_head_won_and_reads_medians_and_quartiles():
    c = ab.compare(HIGHER, [1, 2, 3, 4, 5], [2, 2, 2, 5, 6])
    assert (c["base"], c["head"], c["ratio"], c["wins"]) == ((2, 3, 4), (2, 2, 5), 2 / 3, 3)
    assert ab.compare(LOWER, [7], [6])["base"] == (7, 7, 7)


@pytest.mark.parametrize("metric,head,ratio,within", [
    (LOWER, 0, 1.0, True), (HIGHER, 0, 1.0, True),
    (LOWER, 0.5, float("inf"), False), (HIGHER, 0.5, float("inf"), True)])
def test_compare_with_a_base_median_of_zero(metric, head, ratio, within):
    c = ab.compare(metric, [0, 0, 0], [head] * 3)
    assert (c["ratio"], c["within"]) == (ratio, within)


def test_stalled_names_runs_below_half_the_median():
    runs = [_run({"ops_per_s": (v, "1/s")}) for v in (100, 49, 50, 120, 100)]
    assert ab.stalled(runs) == [1]


def test_failure_names_errors_wrong_answers_and_failed_ops():
    assert ab.failure(_run({})) is None
    assert ab.failure({"error": "exit 1: boom"}) == "exit 1: boom"
    assert ab.failure(_run({}, correct=False)) == "correct False, failed 0"
    assert ab.failure(_run({}, failed=2)) == "correct True, failed 2"


def test_trace_rows_compare_counts_and_bits_only():
    base = _run({"streams.reads": (6502, "count"), "real.max_endpoint_bits": (21, "bits"),
                 "cli.self_s": (0.02, "s"), "trace.overhead": (1.7, "x"), "old.count": (3, "count")})
    head = _run({"streams.reads": (6502, "count"), "real.max_endpoint_bits": (23, "bits"),
                 "cli.self_s": (0.03, "s"), "new.count": (4, "count")})
    assert ab.trace_rows(base, head) == [
        ("streams.reads", 6502, 6502), ("real.max_endpoint_bits", 21, 23),
        ("old.count", 3, None), ("new.count", None, 4)]


@pytest.mark.parametrize("head_reads,ok,row", [
    (6502, True, "streams.reads                identical"),
    (6503, False, "streams.reads                6502 -> 6503")])
def test_report_traces_prints_each_row_and_fails_on_a_difference(monkeypatch, capsys,
                                                                   head_reads, ok, row):
    calls = []

    def run_once(checkout, command, workload, seed, seconds, trace=0):
        calls.append((checkout, seed, seconds, trace))
        reads = 6502 if checkout == "base" else head_reads
        return _run({"streams.reads": (reads, "count"), "cli.self_s": (0.01, "s")})

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.report_traces("base", "head", ["python3"], "discrete") is ok
    assert calls == [(side, seed, 5, 1) for seed in (1, 9001) for side in ("base", "head")]
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.strip()] == [
        "discrete: traced counts, seed 1, 5 s runs", f"  {row}",
        "discrete: traced counts, seed 9001, 5 s runs", f"  {row}"]


def test_report_traces_fails_when_a_traced_run_fails(monkeypatch, capsys):
    monkeypatch.setattr(ab, "run_once", lambda checkout, *args, **kwargs:
                        {"error": "exit 2: no sources"} if checkout == "head" else _run({}))
    assert ab.report_traces("base", "head", ["python3"], "reals") is False
    assert capsys.readouterr().out.count("head FAILED: exit 2: no sources") == 2


def _out_file(checkout, workload, seed, by_class):
    out = checkout / "conbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed{seed}-trace0.json").write_text(
        json.dumps({"detail": {"class_quartiles_ms": by_class}}))


def test_class_medians_read_the_untraced_out_file(tmp_path):
    _out_file(tmp_path, "ivt", 1, {"ivt_approx": [0.5, 0.75, 1.25], "ivt_lnc": [2.0]})
    assert ab.class_medians(tmp_path, "ivt", 1) == {"ivt_approx": 0.75, "ivt_lnc": 2.0}
    assert ab.class_medians(tmp_path, "ivt", 9001) == {}
    (tmp_path / "conbench" / "out" / "ivt-seed1-trace0.json").write_text("{\"detail\": {}}")
    assert ab.class_medians(tmp_path, "ivt", 1) == {}


def test_class_rows_take_the_median_over_each_sides_runs():
    base = [{"a": 1.0, "b": 4.0}, {"a": 3.0, "b": 5.0}, {"a": 2.0}]
    head = [{"a": 1.0, "c": 7.0}, {"a": 1.5}]
    assert ab.class_rows(base, head) == [("a", 2.0, 1.25), ("b", 4.5, None), ("c", None, 7.0)]


def test_main_prints_each_classs_medians_below_the_metric_table(monkeypatch, capsys, tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    head.mkdir()
    (head / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3"], "run_seconds": 20, "workloads": [{"name": "ivt"}],
        "end_to_end": [dict(HIGHER, unit="1/s")]}))
    latency = {base: [1.0, 1.2, 1.1], head: [0.9, 0.8, 1.0]}

    def run_once(checkout, command, workload, seed, seconds, trace=0):
        ms = latency[checkout].pop(0)  # each run leaves its own out-file behind
        _out_file(checkout, workload, seed, {"ivt_approx": [ms / 2, ms, 2 * ms], "ivt_lnc": [4 * ms]})
        return _run({"ops_per_s": (1000 / ms, "1/s")})

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main(["--base", str(base), "--head", str(head), "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index(next(line for line in lines if "op class" in line)):]
    assert [line.split() for line in table] == [
        ["op", "class", "base", "median", "ms", "head", "median", "ms", "head/base"],
        ["ivt_approx", "1.1", "0.9", "0.818"], ["ivt_lnc", "4.4", "3.6", "0.818"]]
