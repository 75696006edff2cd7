"""Command-line interface: every operation behind one line-oriented binary.

Output is deterministic and machine-diffable: rationals print in lowest
terms as ``a/b`` with positive denominator and the sign on the numerator,
lists print as ``[0,1,2]``.  Each subcommand handler returns an answer
and prints nothing; ``run`` alone prints it, as one JSON object or in the
plain format, and sets the exit code: 0 success, 2 validation error,
3 fuel-exhausted-class outcomes (unresolved searches).  Errors go to the
error channel prefixed ``error:``.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, TextIO

from . import coding, combinatorics, fans
from .errors import FuelExhausted, TooLarge
from .ivt import (ContinuousMap, _UNCERTIFIED, _thirds_depth, approx_ivt, certified_within,
                  enumerated_witnesses, f0, f1, f2, identity_map, ivt_countable_exceptions,
                  ivt_locally_nonconstant, middle_third_oracle, require_range)
from .real import CReal, RationalInterval, half_pow, rho0, rho1, rho2, sqrt2
from .streams import (_PI_DIGITS_LIMIT, NatStream, _decimal, _pi_floor, fugitive_least,
                      pattern_indicator, pi_digits)


def _fmt_frac(q: Fraction) -> str:
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def _fmt_interval(iv: RationalInterval) -> str:
    return f"{_fmt_frac(iv.lo)} .. {_fmt_frac(iv.hi)}"


def _fmt_list(xs) -> str:
    return "[" + ",".join(str(x) for x in xs) + "]"


class _Help(Exception):
    """The text of a --help, which run prints to its own out stream."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)

    def print_help(self, file=None):  # argparse would write to sys.stdout
        raise _Help(self.format_help())


# Expression DSL: rationals a/b, operators + - *, abs(...), sqrt2,
# rho0(D,L) / rho1(D,L) / rho2(D,L) over the pi digit stream.

_TOKEN = re.compile(r"\s*(\d+|[-+*/(),]|[A-Za-z_][A-Za-z_0-9]*)")
# At most this many '(', 'abs(', unary '-' and binary operators in one
# expression: this bounds the nesting of the parser and of its real alike.
_EXPR_SIZE = 200


class _ExprParser:
    def __init__(self, text: str, digits: NatStream):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.digits = digits
        self.size = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ValueError(f"bad character in expression at position {pos}")
            tokens.append(m.group(1))
            pos = m.end()
        return tokens

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def _take(self) -> str:
        """The next token, counted as one unit of expression size."""
        self.size += 1
        if self.size > _EXPR_SIZE:
            raise ValueError(f"expression too large: over {_EXPR_SIZE} operators and parentheses")
        return self._next()

    def _expect(self, tok: str) -> None:
        got = self._next()
        if got != tok:
            raise ValueError(f"expected '{tok}', got '{got}'")

    def parse(self) -> CReal:
        value = self._expr()
        if self._peek() is not None:
            raise ValueError(f"trailing input at '{self._peek()}'")
        return value

    def _expr(self) -> CReal:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._take()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> CReal:
        value = self._factor()
        while self._peek() == "*":
            self._take()
            value = value * self._factor()
        return value

    def _factor(self) -> CReal:
        if self._peek() == "-":
            self._take()
            return -self._factor()
        return self._atom()

    def _int(self) -> int:
        tok = self._next()
        if not tok.isdigit():
            raise ValueError(f"expected a number, got '{tok}'")
        return int(tok)

    def _atom(self) -> CReal:
        tok = self._take() if self._peek() in ("(", "abs") else self._next()
        if tok.isdigit():
            num = int(tok)
            if self._peek() == "/":
                self._next()
                den = self._int()
                if den == 0:
                    raise ValueError("zero denominator")
                return CReal.from_rational(Fraction(num, den))
            return CReal.from_rational(num)
        if tok == "(":
            value = self._expr()
            self._expect(")")
            return value
        if tok == "sqrt2":
            return sqrt2()
        if tok == "abs":
            self._expect("(")
            value = self._expr()
            self._expect(")")
            return abs(value)
        if tok in ("rho0", "rho1", "rho2"):
            self._expect("(")
            digit = self._int()
            self._expect(",")
            run = self._int()
            self._expect(")")
            spec = pattern_indicator(self.digits, digit, run)
            return {"rho0": rho0, "rho1": rho1, "rho2": rho2}[tok](spec)
        raise ValueError(f"unknown token '{tok}' in expression")


class _Answer(NamedTuple):
    """What a subcommand found: ``result`` and ``certificate`` for JSON,
    ``plain`` for the line-oriented format, and the exit code."""
    inputs: dict
    result: object
    certificate: object
    plain: str
    code: int = 0


# The least -p of eval and ivt: their bound 2^65536 prints in 19,729 digits.  Its
# magnitude is also the largest -p of ivt's lnc mode, whose depth search builds
# 3^d and 2^(d + p) for d up to about 2.4 p.
_PRECISION_FLOOR = -65536


def _check_precision(p: int) -> None:
    if p < _PRECISION_FLOOR:
        raise TooLarge(f"-p {p} is below the least precision {_PRECISION_FLOOR}")


def _cmd_eval(args) -> _Answer:
    _check_precision(args.precision)
    x = _ExprParser(args.expr, pi_digits()).parse()
    iv = x.approx(args.precision, args.fuel)
    return _Answer({"expr": args.expr, "p": args.precision, "fuel": args.fuel},
                   {"lo": _fmt_frac(iv.lo), "hi": _fmt_frac(iv.hi)},
                   {"width_le": _fmt_frac(half_pow(args.precision))},
                   _fmt_interval(iv))


def _check_pi_digits(flag: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{flag} must be >= 1")
    if n > _PI_DIGITS_LIMIT:
        raise TooLarge(f"{flag} {n} exceeds the limit of {_PI_DIGITS_LIMIT} pi digits")


def _cmd_pi(args) -> _Answer:
    _check_pi_digits("--digits", args.digits)
    text = _decimal(_pi_floor(args.digits))[1:]
    return _Answer({"digits": args.digits}, text, None, text)


def _cmd_hunt(args) -> _Answer:
    _check_pi_digits("--budget", args.budget)
    spec = pattern_indicator(pi_digits(), args.digit, args.run)
    try:
        position = fugitive_least(spec, args.budget - 1)
    except TooLarge as e:  # the stream's own limit, with the flags that reached it
        raise TooLarge(f"--budget {args.budget} with --run {args.run} {e}") from None
    inputs = {"digit": args.digit, "run": args.run, "budget": args.budget}
    if position is None:
        return _Answer(inputs, None, None, f"unresolved after {args.budget} digits", code=3)
    return _Answer(inputs, position, {"position": position}, f"found: {position}")


def _cmd_encode(args) -> _Answer:
    code = coding.encode(args.values)
    return _Answer({"values": args.values}, code, None, _decimal(code))


def _cmd_decode(args) -> _Answer:
    values = coding.decode(args.code)
    return _Answer({"code": args.code}, values, None, _fmt_list(values))


def _cmd_euclid(args) -> _Answer:
    q = combinatorics.euclid_extend(args.primes)
    return _Answer({"primes": args.primes}, q, {"divides_none_of": args.primes}, _decimal(q))


def _cmd_dickson(args) -> _Answer:
    seqs = []
    for part in args.seqs.split(";"):
        values = [int(v) for v in part.split(",") if v.strip() != ""]
        if not values:
            raise ValueError("each sequence needs at least one value")
        if any(v < 0 for v in values):
            raise ValueError("sequence values must be naturals")
        seqs.append(NatStream.eventually_constant(values))
    inst = combinatorics.DicksonInstance(tuple(seqs))
    found = combinatorics.dickson_witness(inst, args.fuel)
    inputs = {"seqs": args.seqs, "fuel": args.fuel}
    if found is None:
        return _Answer(inputs, None, None, f"exhausted after {args.fuel} indices", code=3)
    i, j = found
    return _Answer(inputs, {"i": i, "j": j}, {"i": i, "j": j}, f"found: i={i} j={j}")


def _cmd_ramsey(args) -> _Answer:
    coloring = combinatorics.avoiding_coloring(args.M, args.n, args.k, args.r, args.star)
    holds = coloring is None
    return _Answer({"M": args.M, "n": args.n, "k": args.k, "r": args.r, "star": args.star},
                   holds, None if holds else {"coloring": coloring},
                   f"holds: {'true' if holds else 'false'}")


def _parse_bar_spec(spec: str) -> Callable[[tuple[int, ...]], bool]:
    m = re.fullmatch(r"len=(\d+)", spec)
    if m:
        size = int(m.group(1))
        return lambda path: len(path) == size
    m = re.fullmatch(r"has1@(\d+)", spec)
    if m:
        window = int(m.group(1))
        return lambda path: 1 in path[:window]
    m = re.fullmatch(r"sum>=(\d+)", spec)
    if m:
        target = int(m.group(1))
        return lambda path: sum(path) >= target
    raise ValueError(f"unknown bar spec '{spec}' (use len=K, has1@K or sum>=K)")


def _cmd_subbar(args) -> _Answer:
    bar = fans.DecidableBar(_parse_bar_spec(args.spec), args.depth)
    outcome = fans.finite_subbar(bar)
    inputs = {"spec": args.spec, "depth": args.depth}
    if isinstance(outcome, fans.NotBarWithinDepth):
        path = _fmt_list(outcome.path)
        return _Answer(inputs, {"not_a_bar": True, "path": list(outcome.path)},
                       {"uncovered_path": list(outcome.path)},
                       f"not a bar within depth {args.depth}: {path}")
    return _Answer(inputs, {"not_a_bar": False, "elements": outcome}, {"elements": outcome},
                   "\n".join(_fmt_list(e) for e in outcome))


def _parse_game_predicate(text: str, first: str) -> Callable[[int, int], bool]:
    """C as a test on a play (a, b) whose first move a is the one named ``first``."""
    if text == "none":
        return lambda a, b: False
    m = re.fullmatch(r"([ni])=(\d+)", text)
    if not m:
        raise ValueError(f"unknown game predicate '{text}' (use n=K, i=K or none)")
    var, value = m.group(1), int(m.group(2))
    return lambda a, b: (a if var == first else b) == value


# The largest --bound of game's omega2 mode: a counter-strategy lists one reply per move.
_GAME_BOUND_LIMIT = 65536


def _cmd_game(args) -> _Answer:
    in_c = _parse_game_predicate(args.c, "n" if args.mode == "omega2" else "i")
    if args.mode == "omega2":
        if args.bound is None:
            raise ValueError("--bound is required for --mode omega2")
        if args.bound > _GAME_BOUND_LIMIT:
            raise TooLarge(f"--bound {args.bound} exceeds the limit of {_GAME_BOUND_LIMIT}")
        outcome = fans.solve_omega2(fans.GameSpecOmega2(in_c, args.bound))
        inputs = {"mode": "omega2", "c": args.c, "bound": args.bound}
        if isinstance(outcome, fans.WinningMove):
            return _Answer(inputs, {"winning_move": outcome.move},
                           {"both_replies_in_c": outcome.move}, f"winning move: {outcome.move}")
        moves = list(outcome.moves)
        return _Answer(inputs, {"counter_strategy": moves}, {"escaping_replies": moves},
                       f"counter strategy: {_fmt_list(moves)}")

    if args.p0 is None or args.p1 is None:
        raise ValueError("--p0 and --p1 are required for --mode 2omega")
    answer = fans.answer_strategy_2omega(fans.GameSpec2Omega(in_c), args.p0, args.p1)
    inputs = {"mode": "2omega", "c": args.c, "p0": args.p0, "p1": args.p1}
    if answer is None:
        return _Answer(inputs, None, None, "no answer")
    return _Answer(inputs, {"answer": answer}, {"move_in_c": answer}, f"answer: {answer}")


def _parse_map(text: str, digits: NatStream) -> ContinuousMap:
    if text == "id":
        return identity_map()
    m = re.fullmatch(r"(f0|f1|f2):(\d+(?:,\d+)*)", text)
    if not m:
        raise ValueError(f"unknown map '{text}' (use id, f0:D,L, f1:D,L or f2:D,L,D2,L2)")
    name, params = m.group(1), [int(v) for v in m.group(2).split(",")]
    if name in ("f0", "f1"):
        if len(params) != 2:
            raise ValueError(f"{name} takes two parameters D,L")
        spec = pattern_indicator(digits, params[0], params[1])
        return f0(spec) if name == "f0" else f1(spec)
    if len(params) != 4:
        raise ValueError("f2 takes four parameters D,L,D2,L2")
    return f2(pattern_indicator(digits, params[0], params[1]),
              pattern_indicator(digits, params[2], params[3]))


def _cmd_ivt(args) -> _Answer:
    _check_precision(args.precision)
    if args.mode == "lnc" and args.precision > -_PRECISION_FLOOR:
        raise TooLarge(f"-p {args.precision} is above the largest lnc precision "
                       f"{-_PRECISION_FLOOR}")
    digits = pi_digits()  # one stream: the map and y share its batches
    f = _parse_map(args.map, digits)
    y = _ExprParser(args.y, digits).parse()
    p = args.precision
    fuel = args.fuel
    inputs = {"map": args.map, "y": args.y, "p": p, "mode": args.mode}

    if args.mode == "approx":
        x = approx_ivt(f, y, p, fuel)
    else:
        if args.mode == "lnc":
            depth = args.depth if args.depth is not None else _thirds_depth(f.modulus(p + 1)) + 2
            x = ivt_locally_nonconstant(f, y, middle_third_oracle(f, y, fuel), depth)
        else:
            depth = args.depth if args.depth is not None else max(f.modulus(p + 1) + 2, 0)
            x = ivt_countable_exceptions(f, y, enumerated_witnesses(f, y, fuel), depth)
        # x is read no deeper than its forced steps (at least one).
        if not certified_within(f, x, y, p, fuel, max(depth, 1)):
            require_range(f, y, p, fuel)  # an out-of-range target is a usage error, as in approx mode
            raise FuelExhausted(_UNCERTIFIED)

    xi = x.approx(p, fuel)
    img = f.enclose(xi, p + 2)
    yi = y.approx(p + 2, fuel)
    diff = RationalInterval(img.lo - yi.hi, img.hi - yi.lo)
    bound = _fmt_frac(half_pow(p))
    plain = (f"x in {_fmt_interval(xi)}\n"
             f"f(x) - y in {_fmt_interval(diff)}\n"
             f"certified: |f(x) - y| < {bound}")
    return _Answer(inputs,
                   {"x": {"lo": _fmt_frac(xi.lo), "hi": _fmt_frac(xi.hi)},
                    "diff": {"lo": _fmt_frac(diff.lo), "hi": _fmt_frac(diff.hi)}},
                   {"certified_below": bound}, plain)


# The top-level parser's defaults, which also seed the namespace of an argv
# that goes straight to its command's parser.
_DEFAULTS = {"format": "plain", "fuel": 64}


def _value(action: argparse.Action, text: str):
    """text through action's type and choices; ValueError if it starts with '-' or either rejects it."""
    if text.startswith("-"):
        raise ValueError(text)
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(value)
    return value


def _direct_fill(fill: tuple, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace of the tokens after a plain argv's command; None leaves them to argparse."""
    base, positional, options, required = fill
    given, lead = {}, 0
    try:
        if positional is not None:  # its tokens are those before the first that starts with '-'
            lead = next((i for i, token in enumerate(tokens) if token.startswith("-")), len(tokens))
            values = [_value(positional, token) for token in tokens[:lead]]
            if positional.nargs is None:
                (values,) = values  # ValueError unless there is exactly one
            elif positional.nargs == "+" and not values:
                return None
            given[positional.dest] = values
        rest = iter(tokens[lead:])
        for token in rest:
            action = options[token]
            given[action.dest] = action.const if action.nargs == 0 else _value(action, next(rest))
    except (KeyError, StopIteration, ValueError):  # a token the fill does not take
        return None
    args = argparse.Namespace()
    vars(args).update(base, **given)  # one update: Namespace(**kwargs) sets each name apart
    return args if required <= given.keys() else None


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser], dict[str, tuple]]:
    # Built once per process: parse_args leaves the parsers unchanged.  Returns
    # the top-level parser, each command's own parser by name and what the
    # direct fill reads of it; see _parse for which argv reaches which.
    parser = _Parser(prog="conreal", description="constructive reals and friends")
    # --format is accepted before or after the subcommand; --fuel after the
    # subcommands that read it.
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("plain", "json"), default=argparse.SUPPRESS)
    fueled = _Parser(add_help=False, parents=[common])
    fueled.add_argument("--fuel", type=int, default=argparse.SUPPRESS,
                        help=f"index budget for semi-decidable searches (default {_DEFAULTS['fuel']})")
    parser.add_argument("--format", choices=("plain", "json"))
    parser.set_defaults(**_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[fueled], help="evaluate an interval expression")
    p.add_argument("expr")
    p.add_argument("-p", "--precision", type=int, required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("pi", parents=[common], help="decimal digits of pi after the point")
    p.add_argument("--digits", type=int, required=True, help=f"how many digits, 1 to {_PI_DIGITS_LIMIT}")
    p.set_defaults(fn=_cmd_pi)

    p = sub.add_parser("hunt", parents=[common], help="hunt a digit run in the pi expansion")
    p.add_argument("--digit", type=int, required=True)
    p.add_argument("--run", type=int, required=True)
    p.add_argument("--budget", type=int, required=True,
                   help=f"digits a run may start in, 1 to {_PI_DIGITS_LIMIT}; a hunt whose answer "
                        f"needs a digit past the first {_PI_DIGITS_LIMIT} exits 2")
    p.set_defaults(fn=_cmd_hunt)

    p = sub.add_parser("encode", parents=[common], help="code of a finite sequence of naturals")
    p.add_argument("values", type=int, nargs="*")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("decode", parents=[common], help="sequence behind a code")
    p.add_argument("code", type=int)
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("ivt", parents=[fueled], help="intermediate value procedures")
    p.add_argument("--map", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("-p", "--precision", type=int, required=True)
    p.add_argument("--mode", choices=("approx", "lnc", "countable"), default="approx")
    p.add_argument("--depth", type=int, default=None,
                   help="bisection steps for lnc and countable (approx mode ignores it)")
    p.set_defaults(fn=_cmd_ivt)

    p = sub.add_parser("subbar", parents=[common], help="extract a finite subbar or a counterexample path")
    p.add_argument("--spec", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_subbar)

    p = sub.add_parser("game", parents=[common], help="two-move game solvers")
    p.add_argument("--mode", choices=("omega2", "2omega"), default="omega2")
    p.add_argument("--c", required=True)
    p.add_argument("--bound", type=int, default=None,
                   help=f"moves considered in omega2 mode, at most {_GAME_BOUND_LIMIT}")
    p.add_argument("--p0", type=int, default=None)
    p.add_argument("--p1", type=int, default=None)
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("euclid", parents=[common], help="a prime missing from the given list")
    p.add_argument("primes", type=int, nargs="+")
    p.set_defaults(fn=_cmd_euclid)

    p = sub.add_parser("dickson", parents=[fueled], help="dominance pair over finitely many sequences")
    p.add_argument("--seqs", required=True,
                   help="semicolon-separated sequences, e.g. '3,2,1,0;0,1,2' "
                        "(each continues with its last value)")
    p.set_defaults(fn=_cmd_dickson)

    p = sub.add_parser("ramsey", parents=[common], help="finite Ramsey checkers by exhaustive search")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--star", action="store_true")
    p.set_defaults(fn=_cmd_ramsey)

    # Per command: the namespace before any token (a dest's first default, then set_defaults),
    # its one positional, its store and store_true options by option string, its required dests.
    fills = {}
    for name, command in sub.choices.items():
        actions = command._actions
        defaults = {a.dest: a.default for a in reversed(actions) if a.default is not argparse.SUPPRESS}
        stores = [a for a in actions if isinstance(a, (argparse._StoreAction, argparse._StoreConstAction))]
        fills[name] = ({**command._defaults, **defaults, "command": name, **_DEFAULTS},
                       next((a for a in stores if not a.option_strings), None),
                       {option: a for a in stores for option in a.option_strings},
                       {a.dest for a in actions if a.required and a.option_strings})
    return parser, sub.choices, fills


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of one argv, as the top-level parser's parse_args gives it.

    A plain argv (the command, its positionals, then exact option strings, each with
    one value that does not start with '-' or, for store_true, none) is filled directly
    through its command parser's types, choices and defaults.  Any other argv that
    starts with a command ('=', an abbreviation, -p5, '--', -h, a negative or rejected
    value, a missing argument) goes to that command's parser, the rest to the top-level
    parser: every message and help text is argparse's.
    """
    parser, commands, fills = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _direct_fill(fills[argv[0]], argv[1:])
    if args is None:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0], **_DEFAULTS))
    return args


def run(argv: list[str], out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    """Dispatch one invocation, print its answer or error; returns the exit code.

    A plain argv is filled without argparse, any other is parsed once; ``_parse``
    says which argv takes which way.
    """
    try:
        args = _parse(argv)
        if args.fuel < 1:
            raise ValueError("--fuel must be >= 1")
        inputs, result, certificate, plain, code = args.fn(args)
        if args.format == "json":
            # json writes an int with str, which may refuse it: the result, last
            # of the sorted keys, is written apart, an int through _decimal.
            head = json.dumps({"op": args.command, "inputs": inputs, "certificate": certificate},
                              sort_keys=True)
            value = _decimal(result) if type(result) is int else json.dumps(result, sort_keys=True)
            print(f'{head[:-1]}, "result": {value}}}', file=out)
        else:
            print(plain, file=out)
        return code
    except _Help as e:
        out.write(str(e))
        return 0
    except FuelExhausted as e:
        print(f"error: {e}", file=err)
        return 3
    except ValueError as e:  # usage errors, failed preconditions and size guards alike
        print(f"error: {e}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
