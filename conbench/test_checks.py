"""Self-test of the benchmark's output checks.

For one op of every class, on three seeds, the answer conreal gives must pass
its check, and the same answer with one corruption (a shifted interval, a wrong digit, a
wrong witness index, a flipped verdict, ...) must fail it.

    python3 conbench/test_checks.py        # or: python3 -m pytest conbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import plan  # noqa: E402

import conreal  # noqa: E402
import conreal.cli  # noqa: E402


def _shift_first_interval(out: str, by_widths: int) -> str:
    """Move the first 'a/b .. c/d' in the text up by the given number of widths."""
    m = re.search(r"(-?\d+)/(\d+) \.\. (-?\d+)/(\d+)", out)
    lo, hi = Fraction(int(m.group(1)), int(m.group(2))), Fraction(int(m.group(3)), int(m.group(4)))
    d = (hi - lo) * by_widths
    lo, hi = lo + d, hi + d
    new = f"{lo.numerator}/{lo.denominator} .. {hi.numerator}/{hi.denominator}"
    return out[:m.start()] + new + out[m.end():]


def _text(answer, out):
    return answer[0], out, answer[2]


def _wrong_digit(answer):
    out = answer[1]
    return _text(answer, out[:7] + str((int(out[7]) + 1) % 10) + out[8:])


def _bump_number(answer):
    m = re.search(r"\d+", answer[1])
    return _text(answer, answer[1][:m.start()] + str(int(m.group()) + 1) + answer[1][m.end():])


def _claim_found(answer):
    return 0, "found: 3\n", ""


def _claim_resolved(answer):
    return 0, "0/1 .. 0/1\n", ""


def _flip_holds(answer):
    flipped = "false" if "true" in answer[1] else "true"
    return _text(answer, f"holds: {flipped}\n")


def _drop_last_line(answer):
    lines = answer[1].splitlines()
    return _text(answer, "\n".join(lines[:-1] or ["(empty bar)"]) + "\n")


def _shift_ivt_diff(answer):
    first, second, rest = answer[1].split("\n", 2)
    return _text(answer, "\n".join((first, _shift_first_interval(second, 3), rest)))


def _wrong_witness_index(answer):
    x, y, w = answer
    wrong = dataclasses.replace(w, witness=conreal.LtWitness(0 if w.witness.index else 1))
    return x, y, wrong


def _flip_direction(answer):
    x, y, w = answer
    other = conreal.Direction.GREATER if w.direction is conreal.Direction.LESS else conreal.Direction.LESS
    return x, y, dataclasses.replace(w, direction=other)


def _claim_witness(answer):
    return conreal.Apartness(conreal.Direction.LESS, conreal.LtWitness(3))


def _flip_split(answer):
    x, y, z, s = answer
    other = (conreal.SplitSide.RIGHT_IS_LESS if s.side is conreal.SplitSide.LEFT_IS_LESS
             else conreal.SplitSide.LEFT_IS_LESS)
    return x, y, z, dataclasses.replace(s, side=other)


def _shift_diagonal(answer):
    d, iv = answer
    shifted = conreal.CReal(lambda n: conreal.RationalInterval(
        d.interval(n).lo + Fraction(1, 3 ** n), d.interval(n).hi + Fraction(1, 3 ** n)))
    return shifted, iv


def _swap_case(answer):
    """Turn a found dickson pair into a different, non-first pair."""
    m = re.match(r"found: i=(\d+) j=(\d+)", answer[1])
    return _text(answer, f"found: i={m.group(1)} j={int(m.group(2)) + 1}\n")


def _wrong_move(answer):
    out = answer[1]
    if out.startswith("winning move"):
        return _bump_number(answer)
    if out.startswith("counter strategy"):
        return _text(answer, out.replace("[0", "[1", 1) if "[0" in out else out.replace("[1", "[0", 1))
    if out.startswith("answer"):
        return _text(answer, "no answer\n")
    return _text(answer, "answer: 0\n")


def _other_prime(answer):
    return _text(answer, "3\n" if answer[1] == "2\n" else "2\n")


def _exit_zero(answer):
    return 0, answer[1] or "x\n", ""


CORRUPT = {
    "eval_tree": lambda a: _text(a, _shift_first_interval(a[1], 1)),
    "eval_rho": lambda a: _text(a, _shift_first_interval(a[1], 1)),
    "eval_unknown": _claim_resolved,
    "try_apart": _wrong_witness_index,
    "try_equal": _claim_witness,
    "cotrans": _flip_split,
    "diagonal": _shift_diagonal,
    "ivt_approx": _shift_ivt_diff,
    "ivt_lnc": _shift_ivt_diff,
    "ivt_countable": _shift_ivt_diff,
    "ivt_lnc_plateau": _exit_zero,
    "ivt_countable_hit": _exit_zero,
    "pi": _wrong_digit,
    "hunt_found": _bump_number,
    "hunt_unknown": _claim_found,
    "encode": _bump_number,
    "decode": _bump_number,
    "subbar_bar": _drop_last_line,
    "subbar_open": lambda a: _text(a, a[1].replace("[0", "[1", 1)),
    "game": _wrong_move,
    "euclid": _other_prime,
    "dickson_found": _swap_case,
    "dickson_exhausted": _claim_found,
    "ramsey_small": _flip_holds,
    "ramsey_large": _flip_holds,
}


def one_op_per_class(seed: int = 7):
    oracle = plan.Oracle()
    seen = {}
    for workload in plan.WORKLOADS:
        for op in plan.make_ops(workload, seed, 1, oracle):
            if op.cls not in seen and op.cls != "ramsey_large":
                seen[op.cls] = op
    # The large Ramsey instances cost a quarter second each; a small one stands in.
    seen["ramsey_large"] = plan._ramsey("ramsey_large", 5, 3, 2, 2, False)
    return seen


def test_every_class_has_a_corruption():
    assert set(one_op_per_class()) == set(CORRUPT)


def test_checks_accept_right_and_reject_corrupted_answers():
    failures = []
    for seed in (7, 8, 9):
        for cls, op in one_op_per_class(seed).items():
            answer = op.call(conreal)
            verdict = op.check(answer)
            if verdict is not None:
                failures.append(f"{cls} (seed {seed}): right answer rejected: {verdict}")
            elif op.check(CORRUPT[cls](answer)) is None:
                failures.append(f"{cls} (seed {seed}): corrupted answer accepted")
    assert not failures, failures


def test_direction_and_witness_checks():
    rng = random.Random(3)
    op = plan._try_apart(rng, plan.Oracle())
    answer = op.call(conreal)
    assert op.check(answer) is None
    assert op.check(_flip_direction(answer)) is not None


def test_fugitive_check_follows_each_rho():
    # rho0 and rho2 take no negative value, so an enclosure may stop at the offset;
    # rho1 may go below it and rho0 may go above it.
    offset, p, clear = Fraction(1, 3), 8, 1000

    def interval(lo, hi):
        return 0, f"{lo.numerator}/{lo.denominator} .. {hi.numerator}/{hi.denominator}\n", ""

    width = Fraction(1, 1 << p)
    above = interval(offset, offset + width)
    below = interval(offset - width, offset)
    centred = interval(offset - width / 2, offset + width / 2)
    verdicts = {(k, name): checks.check_eval_fugitive(answer, k, offset, p, clear) is None
                for k in (0, 1, 2)
                for name, answer in (("above", above), ("below", below), ("centred", centred))}
    assert verdicts == {(0, "above"): True, (0, "below"): False, (0, "centred"): True,
                        (1, "above"): False, (1, "below"): False, (1, "centred"): True,
                        (2, "above"): True, (2, "below"): False, (2, "centred"): True}


def test_oracles_against_known_values():
    assert checks.machin_pi_digits(10) == [1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
    assert checks.code_of([1, 2, 3]) == 11249
    assert checks.ramsey_holds(6, 3, 2, 2, False) and not checks.ramsey_holds(5, 3, 2, 2, False)
    assert checks.ramsey_holds(7, 3, 1, 3, False) and not checks.ramsey_holds(6, 3, 1, 3, False)
    assert (checks.SQRT2 * checks.SQRT2).cmp(2) == 0
    assert checks.QS(Fraction(141, 100)).cmp(checks.SQRT2) < 0 < checks.QS(Fraction(142, 100)).cmp(checks.SQRT2)


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"PASS {fn.__name__}")
