import ast
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cli_cases import CASES
from cli_errors import ERRORS
from conftest import outcome
from conreal import (Coloring, ContinuousMap, CReal, FuelExhausted, NatStream, PiecewiseLinearSpec,
                     RationalInterval, almost_full_witness, cli, fans, identity_map,
                     monochromatic_witness, pair, streams, unpair)
from conreal.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def _python(args, **env):
    """Run ``python args`` on the package sources; the completed process."""
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC), **env})


JSON_GOLDEN = json.loads((GOLDEN / "cases_json.json").read_text())


@pytest.mark.parametrize("name,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden_json(name, argv, expected_code):
    # The JSON twin of every golden case: exit code and stdout, byte for byte.
    assert JSON_GOLDEN.keys() == {c[0] for c in CASES}
    code, out, err = _invoke([*argv, "--format", "json"])
    assert err == ""
    assert {"code": code, "stdout": out} == JSON_GOLDEN[name]


@pytest.mark.parametrize("name,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_entry_point_golden(name, argv, expected_code):
    proc = _python(["-m", "conreal.cli", *argv])
    assert proc.returncode == expected_code
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("argv", [
    ["encode", "15000"],
    ["encode", "100000", "--format", "json"],
    ["euclid", "2", "3", "--format", "json"],
    ["eval", "1/3", "-p", "15000", "--fuel", "20000"],
    ["eval", "1/3 - 1", "-p", "15000", "--fuel", "20000", "--format", "json"],
    # Under 4000 digits but over 12,000 bits: a top part of 0 once printed as leading zeros.
    ["encode", "12000"],
    ["encode", "12000", "--format", "json"],
    ["eval", "1/3", "-p", "12001", "--fuel", "12005"],
], ids=["encode", "encode_json", "euclid_json", "eval", "eval_json",
        "encode_12000", "encode_12000_json", "eval_12001"])
def test_integers_past_the_str_limit(argv):
    # Python 3.11+ refuses str() of an int over 4300 digits.  The reference
    # is the same command with plain str for every integer, in a process
    # where that limit is lifted (earlier Pythons have no limit to lift).
    code, out, err = _invoke(argv)
    reference = _python(["-c", "import sys, conreal.cli as cli; cli._decimal = str; "
                               "sys.exit(cli.run(sys.argv[1:]))", *argv],
                        PYTHONINTMAXSTRDIGITS="0")
    assert reference.returncode == 0, reference.stderr
    assert (code, err) == (0, "")
    assert out.encode() == reference.stdout


@pytest.mark.parametrize("argv", [
    ["encode", "3000"],
    ["encode", "3000", "--format", "json"],
    ["pi", "--digits", "700"],
], ids=["encode", "encode_json", "pi"])
def test_output_is_the_same_under_the_lowest_str_limit(argv):
    # 640 is the lowest int-to-str digit limit Python allows: encode prints a
    # code of 904 digits, and pi reads its digits from an integer of 1025.
    low = _python(["-m", "conreal.cli", *argv], PYTHONINTMAXSTRDIGITS="640")
    default = _python(["-m", "conreal.cli", *argv], PYTHONINTMAXSTRDIGITS="4300")
    assert (low.returncode, low.stderr) == (default.returncode, default.stderr) == (0, b"")
    assert low.stdout == default.stdout


def test_ramsey_guard():
    # Decided before any slot is listed: no C(M, 2)-digit count is printed.
    for M in ("200", "1000000000"):
        code, out, err = _invoke(["ramsey", "--M", M, "--n", "3", "--k", "2", "--r", "2"])
        assert (code, out, err) == (2, "", f"error: 2^C({M},2) colorings exceed the 2^30 guard\n")


def test_dickson_exhausted_exit_code():
    code, out, _ = _invoke(["dickson", "--seqs", "5,4,3,2,1,0;0,1,2,3,4,5", "--fuel", "2"])
    assert code == 3
    assert "exhausted" in out


def test_global_flags_accepted_before_subcommand():
    code1, out1, _ = _invoke(["--format", "json", "encode", "1", "2"])
    code2, out2, _ = _invoke(["encode", "1", "2", "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["op"] == "encode" and payload["result"] == 53


def test_json_shape():
    code, out, _ = _invoke(["dickson", "--seqs", "0,1;0,1", "--fuel", "8",
                            "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"op", "inputs", "result", "certificate"}
    assert payload["certificate"] == {"i": 0, "j": 1}


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["eval", "--help"]):
        code, out, err = _invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: conreal {' '.join(argv[:-1])}".rstrip())
        assert capsys.readouterr() == ("", "")  # nothing printed to the process's own streams
    shell = _python(["-m", "conreal.cli", "--help"])
    assert (shell.returncode, shell.stdout.decode(), shell.stderr) == (0, _invoke(["--help"])[1], b"")


def test_negative_precision_certificates():
    # 2^-p for p < 0 is 2^|p|; the certificates print it like any other bound.
    code, out, err = _invoke(["eval", "1/3", "-p", "-5"])
    assert (code, err) == (0, "")
    assert out == "-2/3 .. 4/3\n"
    code, out, err = _invoke(["ivt", "--map", "id", "--y", "1/3", "-p", "-1"])
    assert (code, err) == (0, "")
    assert out.endswith("certified: |f(x) - y| < 2/1\n")
    # Depth 0 leaves x = [0, 1]: as wide as 2^-modulus(0) = 1 allows, and it certifies 2^1.
    code, out, err = _invoke(["ivt", "--map", "id", "--y", "1/2", "-p", "-1", "--mode", "lnc",
                              "--depth", "0"])
    assert (code, err) == (0, "")
    assert out.endswith("certified: |f(x) - y| < 2/1\n")


@pytest.mark.parametrize("argv", [
    ["eval", "1/3", "-p", "-65537"],
    ["eval", "1/3", "-p", "-1000000000000000000"],
    ["ivt", "--map", "id", "--y", "1/3", "-p", "-65537"],
    ["ivt", "--map", "id", "--y", "1/3", "-p", "-1000000000000000000"],
    ["ivt", "--map", "id", "--y", "1/3", "-p", "-1000000000000000000", "--mode", "lnc"],
    # lnc's depth builds 3^d and 2^(d + p) for d up to about 2.4 p: also rejected above 65,536.
    ["ivt", "--map", "id", "--y", "1/3", "-p", "65537", "--mode", "lnc"],
    ["ivt", "--map", "id", "--y", "1/3", "-p", "1000000000000000000", "--mode", "lnc"],
])
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_precisions_below_the_floor_are_rejected_before_any_work(monkeypatch, argv, fmt):
    # 2^|p| would be built as an integer: a MemoryError at this size.
    monkeypatch.setattr(cli, "_ExprParser", lambda text, digits: pytest.fail("parsed an expression"))
    monkeypatch.setattr(cli, "_thirds_depth", lambda target: pytest.fail("sought a depth"))
    code, out, err = _invoke([*argv, "--format", fmt])
    assert (code, out) == (2, "")
    p = argv[argv.index("-p") + 1]
    bound = ("below the least precision -65536" if p.startswith("-")
             else "above the largest lnc precision 65536")
    assert err == f"error: -p {p} is {bound}\n"


def test_precision_at_the_floor_answers():
    code, out, err = _invoke(["eval", "1/3", "-p", "-65536"])
    assert (code, out, err) == (0, "-2/3 .. 4/3\n", "")
    code, out, err = _invoke(["ivt", "--map", "id", "--y", "1/3", "-p", "-65536", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["certificate"]["certified_below"] == streams._decimal(2 ** 65536) + "/1"


@pytest.mark.parametrize("argv,message", [
    (["eval", "1000000 * sqrt2", "-p", "-1", "--fuel", "1"],
     "error: no interval of width <= 2^1 within 1 indices\n"),
])
def test_negative_precision_messages(argv, message):
    # 2^-p for p < 0 prints as 2^|p|, never as 2^--|p|.
    code, out, err = _invoke(argv)
    assert (code, out) == (3, "")
    assert "--" not in err
    assert err == message


@pytest.mark.parametrize("mode", ["lnc", "countable"])
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_ivt_negative_depth_is_a_usage_error(mode, fmt):
    code, out, err = _invoke(["ivt", "--map", "id", "--y", "1/3", "-p", "5", "--mode", mode,
                              "--depth", "-1", "--format", fmt])
    assert (code, out, err) == (2, "", "error: depth must be >= 0\n")


_CERTIFIED_32 = (0, "x in 0/1 .. 1/1\nf(x) - y in -7/3 .. 8/3\ncertified: |f(x) - y| < 32/1\n", "")


@pytest.mark.parametrize("mode, expected",
                         [(mode, _CERTIFIED_32) for mode in ("approx", "countable", "lnc")])
def test_ivt_default_depth_is_never_negative(mode, expected):
    # For id, modulus(p + 1) + 2 = p + 3 < 0 at p = -5: no steps are needed; lnc
    # takes _thirds_depth(p + 1) + 2 = 2 steps.  x = [0, 1] certifies 2^5 in every mode.
    assert _invoke(["ivt", "--map", "id", "--y", "1/3", "-p", "-5", "--mode", mode]) == expected


_UNFUELED = [
    ["pi", "--digits", "5"],
    ["hunt", "--digit", "9", "--run", "2", "--budget", "100"],
    ["encode", "1", "2"],
    ["decode", "11249"],
    ["subbar", "--spec", "len=3", "--depth", "4"],
    ["game", "--mode", "omega2", "--c", "n=3", "--bound", "5"],
    ["euclid", "2", "3"],
    ["ramsey", "--M", "5", "--n", "3", "--k", "2", "--r", "2"],
]


@pytest.mark.parametrize("argv", _UNFUELED, ids=[argv[0] for argv in _UNFUELED])
def test_fuel_flag_rejected_where_unread(argv):
    assert _invoke(argv)[0] == 0
    code, out, err = _invoke(argv + ["--fuel", "3"])
    assert (code, out, err) == (2, "", "error: unrecognized arguments: --fuel 3\n")


def test_fuel_flag_rejected_before_the_subcommand():
    code, out, err = _invoke(["--fuel", "3", "eval", "1/3", "-p", "4"])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["eval", "sqrt2", "-p", "10"],
    ["ivt", "--map", "f0:7,1", "--y", "1/2", "-p", "8"],
    ["dickson", "--seqs", "3,2,1,0;0,1,2"],
], ids=["eval", "ivt", "dickson"])
def test_fuel_flag_read_where_registered(argv):
    # The default is 64, the same as an explicit --fuel 64, JSON inputs included.
    for fmt in ("plain", "json"):
        default = _invoke(argv + ["--format", fmt])
        assert default[0] == 0
        assert _invoke(argv + ["--fuel", "64", "--format", fmt]) == default
    assert _invoke(argv + ["--fuel", "0"]) == (2, "", "error: --fuel must be >= 1\n")


def test_seed_flag_rejected():
    code, out, err = _invoke(["pi", "--digits", "5", "--seed", "1"])
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["pi", "--digits", "65537"],
    ["hunt", "--digit", "7", "--run", "9", "--budget", "65537"],
    ["hunt", "--digit", "7", "--run", "9", "--budget", "100000000"],
])
def test_pi_digit_counts_over_the_limit_are_rejected_before_any_batch(pi_batches, argv):
    code, out, err = _invoke(argv)
    assert (code, out, pi_batches) == (2, "", [])
    assert err == f"error: {argv[-2]} {argv[-1]} exceeds the limit of 65536 pi digits\n"


def test_pi_digit_counts_at_the_limit_are_accepted(monkeypatch):
    # An early hit reads the first batch alone, whatever the budget.
    assert _invoke(["hunt", "--digit", "9", "--run", "2", "--budget", "65536"]) == (0, "found: 43\n", "")
    # pi prints floor(pi * 10^65536) alone; a stand-in 3000...0 keeps this quick.
    sizes = []
    monkeypatch.setattr(cli, "_pi_floor", lambda size: sizes.append(size) or 3 * 10 ** size)
    assert _invoke(["pi", "--digits", "65536"]) == (0, "0" * 65536 + "\n", "")
    assert sizes == [65536]


@pytest.mark.parametrize("argv,expected", [
    # pi's digit 65,535 is 3 and digit 65,534 is 7: a run of 3s starting at
    # 65,535 is still open at the limit, and no earlier start can reach it.
    (["hunt", "--digit", "3", "--run", "9", "--budget", "65536"],
     (2, "", "error: --budget 65536 with --run 9 needs pi digits past the limit of 65536\n")),
    (["hunt", "--digit", "3", "--run", "9", "--budget", "65535"],
     (3, "unresolved after 65535 digits\n", "")),
    (["hunt", "--digit", "5", "--run", "99", "--budget", "65536"],
     (3, "unresolved after 65536 digits\n", "")),
    (["hunt", "--digit", "9", "--run", "2", "--budget", "65536"], (0, "found: 43\n", "")),
], ids=["run_open_at_the_limit", "run_open_past_the_budget", "no_run", "early_hit"])
def test_hunt_reads_no_batch_past_the_limit(pi_batches, argv, expected):
    assert _invoke(argv) == expected
    assert pi_batches and max(pi_batches) <= 65536


@pytest.mark.parametrize("budget", [1, 7, 60, 300])
def test_hunt_within_the_limit_reads_what_one_scan_reads(monkeypatch, budget):
    # budget + run - 1 <= 65,536: hunt reads exactly the digits of one scan to budget - 1.
    def logged(log):
        digits = streams.pi_digits()
        return streams.NatStream(lambda n: log.append(n) or digits[n])

    read = []
    monkeypatch.setattr(cli, "pi_digits", lambda: logged(read))
    for digit in range(10):
        for run_length in (1, 2, 3):
            scan = []
            expected = streams.fugitive_least(
                streams.pattern_indicator(logged(scan), digit, run_length), budget - 1)
            del read[:]
            code, out, _ = _invoke(["hunt", "--digit", str(digit), "--run", str(run_length),
                                    "--budget", str(budget)])
            assert read == scan
            assert (code, out) == ((3, f"unresolved after {budget} digits\n") if expected is None
                                   else (0, f"found: {expected}\n"))


@pytest.mark.parametrize("budget", [1, 7, 60, 300])
def test_hunt_computes_the_pi_batches_one_scan_computes(pi_batches, budget):
    # hunt finds runs in pi's batch bytes; the one-pass loop over a plain stream of the
    # same digits computes the same batches, in the same order.
    for digit in range(10):
        for run_length in (1, 2, 3):
            del pi_batches[:]
            plain = streams.NatStream(streams.pi_digits().__getitem__)
            expected = streams.fugitive_least(
                streams.pattern_indicator(plain, digit, run_length), budget - 1)
            scanned = pi_batches[:]
            del pi_batches[:]
            code, out, _ = _invoke(["hunt", "--digit", str(digit), "--run", str(run_length),
                                    "--budget", str(budget)])
            assert pi_batches == scanned
            assert (code, out) == ((3, f"unresolved after {budget} digits\n") if expected is None
                                   else (0, f"found: {expected}\n"))


@pytest.mark.parametrize("argv,code,sizes", [
    (["hunt", "--digit", "9", "--run", "2", "--budget", "65536"], 0, [64]),
    (["hunt", "--digit", "5", "--run", "3", "--budget", "300"], 0, [64, 128, 256]),
    (["hunt", "--digit", "5", "--run", "99", "--budget", "300"], 3, [64, 128, 256, 512]),
    # The scan stops in the 32,768-digit batch; the run open at the limit needs the last one.
    (["hunt", "--digit", "3", "--run", "40000", "--budget", "65536"], 2,
     [64 << k for k in range(11)]),
    # A run longer than any batch is sought with a needle no longer than a batch.
    (["hunt", "--digit", "1", "--run", "1000000000000", "--budget", "5"], 3, [64]),
])
def test_hunt_pi_batches_are_pinned(pi_batches, argv, code, sizes):
    assert (_invoke(argv)[0], pi_batches) == (code, sizes)


_PAST_THE_PI_LIMIT = [
    ["eval", "rho0(9,99)", "-p", "300000", "--fuel", "300001"],
    ["eval", "rho0(9,99)", "-p", "1000000", "--fuel", "1000001"],
    ["ivt", "--map", "f0:9,99", "--y", "1/2", "-p", "70000", "--fuel", "70010"],
]


@pytest.mark.parametrize("argv", _PAST_THE_PI_LIMIT)
def test_reals_over_pi_past_the_limit_exit_2(pi_batches, argv):
    # No run of 99 nines starts in pi's first 65,536 digits: the scan reaches the
    # stream's limit, which rejects the read before computing a larger batch.
    assert _invoke(argv) == (2, "", "error: needs pi digits past the limit of 65536\n")
    assert max(pi_batches) == 65536


@pytest.mark.parametrize("argv", _PAST_THE_PI_LIMIT)
def test_reals_over_pi_past_the_limit_exit_2_from_the_entry_point(argv):
    # The same argv through ``python -m conreal.cli`` in a child process, so a
    # read past the limit that hangs fails at _python's timeout.
    proc = _python(["-m", "conreal.cli", *argv])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: needs pi digits past the limit of 65536\n"


def test_reals_over_pi_within_the_limit_answer(pi_batches):
    bound = "1/" + streams._decimal(2 ** 65001)
    assert _invoke(["eval", "rho0(9,99)", "-p", "65000", "--fuel", "66000"]) == (
        0, f"-{bound} .. {bound}\n", "")


@pytest.mark.parametrize("mode,answer", [
    ("approx", "x in 57/256 .. 29/128\nf(x) - y in 1/24576 .. 175/24576\n"),
    ("lnc", "x in 7/32 .. 57/256\nf(x) - y in -143/24576 .. 31/24576\n"),
    ("countable", "x in 7/32 .. 57/256\nf(x) - y in -143/24576 .. 31/24576\n"),
])
def test_ivt_reads_pi_once_for_the_map_and_y(pi_batches, mode, answer):
    # The map and y read one pi stream: its 64-digit batch is computed once, not once each.
    argv = ["ivt", "--map", "f0:9,99", "--y", "rho0(9,99) + 1/3", "-p", "8", "--mode", mode]
    assert _invoke(argv) == (0, answer + "certified: |f(x) - y| < 1/256\n", "")
    assert pi_batches == [64]


@pytest.mark.parametrize("mode", ["approx", "lnc", "countable"])
def test_ivt_target_outside_range(mode):
    # y = 2 lies above f(1) = 1: every mode rejects it as a usage error.
    code, out, err = _invoke(["ivt", "--map", "id", "--y", "2", "-p", "4", "--mode", mode])
    assert (code, out) == (2, "")
    assert err == "error: need f(0) <= y <= f(1) in the enclosure sense\n"


@pytest.mark.parametrize("argv,fuels,message", [
    (["ivt", "--map", "f0:9,99", "--y", "1/2", "-p", "8", "--mode", "lnc"], (64, 94, 120, 200),
     "error: no apartness witness found in the middle third\n"),
    (["ivt", "--map", "id", "--y", "1/4", "-p", "8", "--mode", "countable"], (64, 120, 200),
     "error: no apartness witness at q = 1/4\n"),
    # y is a midpoint 21 halvings deep: the message names it, never a number past
    # the int-to-str limit.
    (["ivt", "--map", "id", "--y", "699051/2097152", "-p", "22", "--mode", "countable"],
     (64, 200), "error: no apartness witness at q = 699051/2097152\n"),
])
def test_ivt_unresolved_message_is_the_same_at_every_fuel(argv, fuels, message):
    # Direct node reals are read with no cap of their own, so a large --fuel
    # fails where the search did, not at a hidden node budget.
    for fuel in fuels:
        code, out, err = _invoke(argv + ["--fuel", str(fuel)])
        assert (code, out, err) == (3, "", message)


_ID_THIRD = ["ivt", "--map", "id", "--y", "1/3", "-p", "2000", "--fuel", "2010"]


@pytest.mark.parametrize("argv,code,digest", [
    (_ID_THIRD + ["--mode", "approx"], 0,
     "cab1ee6fa296a251d4a9d6375d01133734a48dc6e8d25ff2b4e4b1e465117cb5"),
    (_ID_THIRD + ["--mode", "lnc"], 3,
     "0424a7567f062f1e0bead5dd342198dca07fe1bc2ca593dd44bb54ca904466b9"),
    (_ID_THIRD + ["--mode", "countable"], 0,
     "cab1ee6fa296a251d4a9d6375d01133734a48dc6e8d25ff2b4e4b1e465117cb5"),
    (["ivt", "--map", "f0:9,99", "--y", "1/2", "-p", "2000", "--fuel", "2010", "--mode", "approx"],
     0, "dbe7d36b54ee3738696063d86105b5d52061a8fa983264de3ef5698bf178de75"),
], ids=["id_approx", "id_lnc", "id_countable", "f0_approx"])
def test_ivt_output_at_2000_bits_is_pinned(argv, code, digest):
    # Bisection points with 2,000-bit denominators, past every golden: the exit
    # code and the sha256 of stdout + stderr.
    got, out, err = _invoke(argv)
    assert (got, hashlib.sha256((out + err).encode()).hexdigest()) == (code, digest)


def test_huge_precision_is_a_fuel_error_not_a_huge_shift():
    third = CReal.from_rational(Fraction(1, 3))
    with pytest.raises(FuelExhausted, match="within 5 indices"):
        third.approx(10 ** 18, 5)
    assert third.approx(-10 ** 18, 5) == third.interval(0)
    for argv in (["eval", "1/3", "-p", str(10 ** 18), "--fuel", "5"],
                 ["ivt", "--map", "id", "--y", "1/3", "-p", str(10 ** 18)]):
        code, out, err = _invoke(argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: no interval of width <= 2^-") and err.count("\n") == 1


def test_subbar_deep_uncovered_path():
    # The walk keeps one path instead of recursing, so depth 1200 answers.
    code, out, err = _invoke(["subbar", "--spec", "has1@1200", "--depth", "1200"])
    assert (code, err) == (0, "")
    assert out == "not a bar within depth 1200: [" + ",".join(["0"] * 1200) + "]\n"


def test_subbar_root_in_the_bar():
    # The root alone covers every sequence: one element, the empty path.
    assert _invoke(["subbar", "--spec", "len=0", "--depth", "0"]) == (0, "[]\n", "")
    code, out, _ = _invoke(["subbar", "--spec", "len=0", "--depth", "0", "--format", "json"])
    assert (code, json.loads(out)["result"]) == (0, {"not_a_bar": False, "elements": [[]]})


def test_subbar_over_work_budget():
    # 2^3000 bar elements: the search stops at its work budget with exit 2.
    code, out, err = _invoke(["subbar", "--spec", "len=3000", "--depth", "3000"])
    assert (code, out) == (2, "")
    assert err == ("error: subbar search exceeds its budget of 4194304 path entries "
                   "(each member test counts its path length + 1)\n")


@pytest.mark.parametrize("k", range(7))
def test_bar_specs_match_their_definitions_on_lists(k):
    definitions = {f"len={k}": lambda xs: len(xs) == k,
                   f"has1@{k}": lambda xs: any(xs[i] == 1 for i in range(min(k, len(xs)))),
                   f"sum>={k}": lambda xs: xs.count(1) >= k}
    for spec, defined in definitions.items():
        member = cli._parse_bar_spec(spec)
        for n in range(8):
            for path in itertools.product((0, 1), repeat=n):
                assert member(path) == defined(list(path)), (spec, path)


@pytest.mark.parametrize("p0,p1", [("-1", "2"), ("2", "-1"), ("-3", "-3")])
def test_game_2omega_rejects_a_negative_reply(p0, p1):
    code, out, err = _invoke(["game", "--mode", "2omega", "--c", "n=3", "--p0", p0, "--p1", p1])
    assert (code, out, err) == (2, "", "error: replies must be naturals\n")


@pytest.mark.parametrize("bound", ["65537", "100000000"])
def test_game_bound_over_the_limit_is_rejected_before_any_work(monkeypatch, bound):
    games = []
    monkeypatch.setattr(fans, "solve_omega2", games.append)
    code, out, err = _invoke(["game", "--mode", "omega2", "--c", "none", "--bound", bound])
    assert (code, out, games) == (2, "", [])
    assert err == f"error: --bound {bound} exceeds the limit of 65536\n"


def test_game_bound_at_the_limit_answers():
    code, out, err = _invoke(["game", "--mode", "omega2", "--c", "none", "--bound", "65536"])
    assert (code, err) == (0, "")
    assert out == "counter strategy: [" + ",".join(["0"] * 65536) + "]\n"


@pytest.mark.parametrize("expr", [
    "(" * 300 + "1" + ")" * 300,
    " + ".join(["1"] * 500),
    "abs(" * 201 + "1" + ")" * 201,
    "(" + "-" * 200 + "1)",
])
def test_eval_expression_over_size_budget(expr):
    code, out, err = _invoke(["eval", expr, "-p", "4"])
    assert (code, out) == (2, "")
    assert err == "error: expression too large: over 200 operators and parentheses\n"


@pytest.mark.parametrize("expr,value", [
    ("(-" * 75 + "1/3" + ")" * 75, Fraction(-1, 3)),  # 150 units
    (" + ".join(["1/3"] * 150), Fraction(50)),         # 149 units
    ("(" * 200 + "1" + ")" * 200, Fraction(1)),        # the budget exactly
])
def test_eval_expression_within_size_budget(expr, value):
    code, out, err = _invoke(["eval", expr, "-p", "8"])
    assert (code, err) == (0, "")
    lo, hi = (Fraction(end) for end in out.strip().split(" .. "))
    assert lo <= value <= hi and hi - lo <= Fraction(1, 256)


@pytest.mark.parametrize("name,argv,expected_code,stderr", ERRORS, ids=[e[0] for e in ERRORS])
def test_error_table(name, argv, expected_code, stderr):
    code, out, err = _invoke(argv)
    assert (code, err) == (expected_code, stderr + "\n" if stderr else "")
    assert (out == "") is (code != 0)


def test_error_table_has_a_row_for_every_message_cli_raises():
    # A raise whose message is a literal or an f-string needs a row whose stderr
    # holds its literal parts; the others raise argparse's message, the help
    # text or a shared constant, whose rows are in the table by hand.
    lines = [row[3] for row in ERRORS]
    tree = ast.parse((SRC / "conreal" / "cli.py").read_text())
    checked = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.Constant):
            pieces = [message.value]
        elif isinstance(message, ast.JoinedStr):
            pieces = [v.value for v in message.values if isinstance(v, ast.Constant)]
        else:
            continue
        checked += 1
        assert any(all(p in line for p in pieces) for line in lines), (node.lineno, pieces)
    assert checked == 24


def _drifting_map() -> ContinuousMap:
    """A map whose enclosure at precision p is [p, p]: enclosures 0 and 1 are disjoint."""
    return ContinuousMap(lambda iv, p: RationalInterval(Fraction(p), Fraction(p)), lambda p: p)


# The library raises that no argv reaches (the ``cli_errors`` docstring says why)
# and no other test runs: (id, call, exception type, exact message).
UNREACHED = [
    ("pair", lambda: pair(-1, 0), ValueError, "pair arguments must be naturals"),
    ("unpair", lambda: unpair(-1), ValueError, "pair codes are naturals"),
    ("monochromatic_witness", lambda: monochromatic_witness(Coloring(r=2, k=1, assign=lambda t: 2), 2, 1),
     ValueError, "coloring produced 2, outside 0..1"),
    ("almost_full_witness", lambda: almost_full_witness(lambda s: True, NatStream(lambda n: n), 0),
     ValueError, "fuel must be >= 1"),
    ("apply", lambda: _drifting_map().apply(CReal.from_rational(0)).interval(1),
     ValueError, "enclosures drifted apart; map violates its contract"),
    ("at", lambda: identity_map().at(2), ValueError, "point outside [0, 1]"),
    ("pwl_spec", lambda: PiecewiseLinearSpec((0, 1), (CReal.from_rational(0),)),
     ValueError, "breakpoints and values must have equal length"),
    ("interval", lambda: CReal.from_rational(0).interval(-1), IndexError, "interval indices are naturals"),
    ("stream_value", lambda: NatStream(lambda n: -1)[0], ValueError, "stream produced a negative value"),
    ("eventually_constant", lambda: NatStream.eventually_constant([]),
     ValueError, "an eventually constant stream needs a nonempty prefix"),
]


@pytest.mark.parametrize("call,error,message", [row[1:] for row in UNREACHED],
                         ids=[row[0] for row in UNREACHED])
def test_raises_that_no_argv_reaches(call, error, message):
    assert outcome(call) == (error, message)


def _parsed(parse, argv):
    """What a parse of argv gives: its namespace's fields, or its error or help text."""
    try:
        return vars(parse(argv))
    except (ValueError, cli._Help) as e:
        return type(e).__name__, str(e)


def _assert_parses_as_the_top_level_parser(argv):
    assert _parsed(cli._parse, argv) == _parsed(cli._build_parser()[0].parse_args, argv)


@pytest.mark.parametrize("argv", [row[1] for row in CASES + ERRORS],
                         ids=[row[0] for row in CASES + ERRORS])
def test_parse_matches_the_top_level_parser_on_the_tables(argv):
    _assert_parses_as_the_top_level_parser(argv)


_COMMANDS = list(cli._build_parser()[1])
# The CLI's own words: its flags whole, abbreviated and with '=', options that
# take a value given none, the '--' separator, negative numbers and values.
# '--=x' is left out: it abbreviates every long option, and whether the
# top-level parser rejects it before its command's parser sees it differs
# between argparse releases.
_WORDS = _COMMANDS + [
    "bogus", "--format", "--fo", "--fo=json", "--format=plain", "json", "plain", "--fuel", "--fu=3",
    "--f", "--f=1", "-p", "-p5", "--prec=3", "--pre", "--", "-", "-h", "--help",
    "--he", "-3", "-1", "0", "1", "2", "1/3", "--bogus", "--map", "id", "--y", "--mode", "lnc",
    "--depth", "--seqs", "1,2;3", "--spec", "len=2", "--digits", "--digit", "--run", "--budget",
    "--c", "n=1", "--bound", "--p0", "--M", "--n", "--k", "--r", "--star"]


def _texts(action):
    """Values for one action: mostly ones that its type and choices take, now and
    then one that they reject or one that starts with '-'."""
    if action.choices:
        return st.sampled_from([*action.choices * 4, "bogus"])
    if action.type is int:
        return st.sampled_from(["0", "1", "2", "3", "5", "8", "12", "40", "1/3", "-3"])
    return st.sampled_from(["id", "1/3", "n=1", "len=2", "1,2;3", "f0:7,1", "sum>=3", "x", "", "-1"])


@st.composite
def _declared_argv(draw):
    """An argv built from one command's own declarations: its positional, then its
    options in any order, a required one left out now and then, an optional one
    sometimes, and sometimes one given twice, each time with a value of its own."""
    name = draw(st.sampled_from(_COMMANDS))
    argv, options = [name], []
    for a in cli._build_parser()[1][name]._actions:
        if a.dest == "help":
            continue
        if not a.option_strings:
            argv += draw(st.lists(_texts(a), max_size=1 if a.nargs is None else 3))
        elif draw(st.integers(0, 9) if a.required else st.booleans()):  # a required one unless 0 is drawn
            options.append((a, draw(st.sampled_from(a.option_strings))))
    if options:
        options += draw(st.lists(st.sampled_from(options), max_size=1))
    for a, option in draw(st.permutations(options)):
        argv += [option] if a.nargs == 0 else [option, draw(_texts(a))]
    return argv


@settings(deadline=None, max_examples=1000)
@given(st.one_of(st.builds(lambda head, tail: [head, *tail],
                           st.sampled_from(_COMMANDS + ["bogus", "--format", "--", "-h"]),
                           st.lists(st.sampled_from(_WORDS), max_size=8)),
                 _declared_argv()))
def test_parse_matches_the_top_level_parser(argv):
    fill = cli._build_parser()[2].get(argv[0])
    event("direct fill" if fill and cli._direct_fill(fill, argv[1:]) is not None else "argparse")
    _assert_parses_as_the_top_level_parser(argv)


def test_a_command_first_argv_is_parsed_once(monkeypatch):
    # A plain argv is filled without argparse: one golden argv per command
    # answers while every parser refuses to parse.  Any other command-first argv
    # goes to its command's parser alone, and only an argv that does not start
    # with a command to the top-level parser.
    class Parse(Exception):
        pass

    def refuse(name):
        def parse_known_args(*args, **kwargs):
            raise Parse(name)
        return parse_known_args

    parser, commands, _ = cli._build_parser()
    monkeypatch.setattr(parser, "parse_known_args", refuse("conreal"))
    for name, command in commands.items():
        monkeypatch.setattr(command, "parse_known_args", refuse(name))
    golden = {}
    for name, argv, code in CASES:
        golden.setdefault(argv[0], (name, argv, code))
    assert golden.keys() == commands.keys()
    for name, argv, code in golden.values():
        assert _invoke(argv) == (code, (GOLDEN / f"{name}.txt").read_text(), "")
    for argv, reached in [(["euclid", "2", "--fo=json"], "euclid"), (["eval", "1", "-p5"], "eval"),
                          (["--format", "json", "euclid", "2"], "conreal")]:
        with pytest.raises(Parse, match=f"^{reached}$"):
            _invoke(argv)
