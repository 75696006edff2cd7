"""The CLI error table: one argv for each ``raise`` that ``cli.run`` reaches,
with its exit code and its exact stderr (``""``: nothing on stderr).

Rows are grouped by the module that raises.  A guard that is added or whose
message changes adds or edits its row.

Raises that no argv reaches, and why:
- ``coding.pair`` and ``unpair``, ``combinatorics.monochromatic_witness`` and
  ``almost_full_witness``, ``real.interval`` (the constructor), ``cotrans_split``,
  ``diagonal``, ``sqrt2_irrationality_witness`` and ``cantor_point``: no command
  calls them.
- ``combinatorics.euclid_extend`` with no prime: ``euclid`` takes one or more.
- ``DicksonInstance`` with no sequence and ``NatStream.eventually_constant``
  with an empty prefix: ``--seqs`` always splits into one part or more, and
  ``dickson`` rejects an empty part first.
- ``NatStream`` reads at a negative index or of a negative value, and
  ``CReal.interval`` and ``verify_lt`` at a negative index: the CLI reads
  naturals of streams of naturals, and its witnesses come from scans.
- ``CReal._least`` with fuel below 1: ``run`` rejects ``--fuel 0`` first, and
  ``pwl`` nodes are read with fuel ``None`` or 96.
- ``ivt``: the [0, 1] checks of ``_clamp01``, ``at`` and ``enclose`` (every
  point and bisection interval lies in [0, 1]), ``pwl``'s breakpoint checks
  (the maps are built by the library), drifting enclosures, a failed witness
  verification and an oracle point outside the middle third (the library's
  maps, scans and oracles keep their contracts), and ``approx_ivt``'s first
  "enclosures did not narrow" (``require_range`` has already found y's interval
  at precision p + 4 within the fuel, which is narrow enough; only a real whose
  ``approx`` claims a width that its intervals never reach gets there).

Of these, ``test_cli.py`` ``UNREACHED`` calls each raise that no other test runs.
"""

import argparse


def _choice_format():
    """How the running interpreter's argparse prints one choice in "(choose from
    ...)": quoted (repr) up to 3.13.0, plain (str) in later patch releases.  Read
    once from a throwaway parser."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("x", choices=["a"])
    try:
        probe.parse_args(["b"])
    except argparse.ArgumentError as error:
        return repr if "(choose from 'a')" in str(error) else str
    raise AssertionError("argparse accepted a value outside its choices")


_CHOICE = _choice_format()


def _choose_from(*choices: str) -> str:
    return f"(choose from {', '.join(map(_CHOICE, choices))})"


ERRORS = [
    # cli.py: argparse errors, --help, --fuel.  Only an argv that does not start
    # with a command reaches the top-level parser.
    ("no_command", [], 2, "error: the following arguments are required: command"),
    ("unknown_command", ["bogus"], 2,
     "error: argument command: invalid choice: 'bogus' "
     + _choose_from("eval", "pi", "hunt", "encode", "decode", "ivt", "subbar", "game", "euclid",
                    "dickson", "ramsey")),
    ("format_without_value", ["--format"], 2, "error: argument --format: expected one argument"),
    ("missing_flag", ["eval", "1"], 2,
     "error: the following arguments are required: -p/--precision"),
    ("unknown_flag", ["eval", "1/2", "-p", "4", "--bogus"], 2,
     "error: unrecognized arguments: --bogus"),
    # A value that its option's choices reject, after a command: the direct fill
    # leaves the argv to the command's parser, which reports it.
    ("ivt_mode_invalid_choice", ["ivt", "--map", "id", "--y", "1/3", "-p", "4", "--mode", "bogus"], 2,
     "error: argument --mode: invalid choice: 'bogus' " + _choose_from("approx", "lnc", "countable")),
    ("format_invalid_choice", ["euclid", "2", "--format", "xml"], 2,
     "error: argument --format: invalid choice: 'xml' " + _choose_from("plain", "json")),
    ("help", ["eval", "--help"], 0, ""),
    ("fuel_zero", ["eval", "1", "-p", "4", "--fuel", "0"], 2, "error: --fuel must be >= 1"),
    # cli.py: the expression parser.
    ("expr_bad_character", ["eval", "1 $ 2", "-p", "4"], 2,
     "error: bad character in expression at position 1"),
    ("expr_unexpected_end", ["eval", "1 +", "-p", "4"], 2, "error: unexpected end of expression"),
    ("expr_too_large", ["eval", "(" * 201 + "1", "-p", "4"], 2,
     "error: expression too large: over 200 operators and parentheses"),
    ("expr_expected_token", ["eval", "abs 1", "-p", "4"], 2, "error: expected '(', got '1'"),
    ("expr_trailing_input", ["eval", "1 1", "-p", "4"], 2, "error: trailing input at '1'"),
    ("expr_expected_number", ["eval", "rho0(x,1)", "-p", "4"], 2, "error: expected a number, got 'x'"),
    ("expr_zero_denominator", ["eval", "1/0", "-p", "4"], 2, "error: zero denominator"),
    ("expr_unknown_token", ["eval", "foo", "-p", "4"], 2, "error: unknown token 'foo' in expression"),
    # cli.py: the commands' own guards.
    ("precision_below_floor", ["eval", "1", "-p", "-65537"], 2,
     "error: -p -65537 is below the least precision -65536"),
    ("pi_digits_zero", ["pi", "--digits", "0"], 2, "error: --digits must be >= 1"),
    ("pi_digits_over_limit", ["pi", "--digits", "65537"], 2,
     "error: --digits 65537 exceeds the limit of 65536 pi digits"),
    # pi's digit 65,535 is 3: a run of 3s starting there is still open at the limit.
    ("hunt_past_the_limit", ["hunt", "--digit", "3", "--run", "9", "--budget", "65536"], 2,
     "error: --budget 65536 with --run 9 needs pi digits past the limit of 65536"),
    ("dickson_empty_sequence", ["dickson", "--seqs", "1;"], 2,
     "error: each sequence needs at least one value"),
    ("dickson_negative_value", ["dickson", "--seqs", "1,-1"], 2,
     "error: sequence values must be naturals"),
    # CPython's own int() message.
    ("dickson_non_numeric_value", ["dickson", "--seqs", "1,x"], 2,
     "error: invalid literal for int() with base 10: 'x'"),
    ("subbar_unknown_spec", ["subbar", "--spec", "len", "--depth", "2"], 2,
     "error: unknown bar spec 'len' (use len=K, has1@K or sum>=K)"),
    ("game_unknown_predicate", ["game", "--c", "x", "--bound", "2"], 2,
     "error: unknown game predicate 'x' (use n=K, i=K or none)"),
    ("game_omega2_needs_bound", ["game", "--c", "n=1"], 2,
     "error: --bound is required for --mode omega2"),
    ("game_bound_over_limit", ["game", "--c", "n=1", "--bound", "65537"], 2,
     "error: --bound 65537 exceeds the limit of 65536"),
    ("game_2omega_needs_replies", ["game", "--mode", "2omega", "--c", "i=1", "--p0", "0"], 2,
     "error: --p0 and --p1 are required for --mode 2omega"),
    ("ivt_unknown_map", ["ivt", "--map", "g", "--y", "1/2", "-p", "4"], 2,
     "error: unknown map 'g' (use id, f0:D,L, f1:D,L or f2:D,L,D2,L2)"),
    ("ivt_f0_parameters", ["ivt", "--map", "f0:1", "--y", "1/2", "-p", "4"], 2,
     "error: f0 takes two parameters D,L"),
    ("ivt_f2_parameters", ["ivt", "--map", "f2:1,2", "--y", "1/2", "-p", "4"], 2,
     "error: f2 takes four parameters D,L,D2,L2"),
    ("ivt_lnc_precision_over_limit",
     ["ivt", "--map", "id", "--y", "1/2", "-p", "65537", "--mode", "lnc"], 2,
     "error: -p 65537 is above the largest lnc precision 65536"),
    ("ivt_countable_uncertified",
     ["ivt", "--map", "id", "--y", "1/3", "-p", "8", "--mode", "countable", "--depth", "1"], 3,
     "error: result could not be certified at the requested precision"),
    # coding.py
    ("encode_negative", ["encode", "-1"], 2, "error: sequence entries must be naturals"),
    ("decode_negative", ["decode", "-1"], 2, "error: not a sequence code: negative"),
    # combinatorics.py
    ("euclid_composite", ["euclid", "4"], 2, "error: 4 is not prime"),
    ("dickson_fuel_one", ["dickson", "--seqs", "1", "--fuel", "1"], 2, "error: fuel must be >= 2"),
    ("ramsey_order", ["ramsey", "--M", "2", "--n", "3", "--k", "2", "--r", "2"], 2,
     "error: need 1 <= k <= n <= M"),
    ("ramsey_no_colors", ["ramsey", "--M", "3", "--n", "3", "--k", "2", "--r", "0"], 2,
     "error: need r >= 1"),
    ("ramsey_guard", ["ramsey", "--M", "40", "--n", "3", "--k", "2", "--r", "2"], 2,
     "error: 2^C(40,2) colorings exceed the 2^30 guard"),
    # fans.py
    ("subbar_negative_depth", ["subbar", "--spec", "len=1", "--depth", "-1"], 2,
     "error: max_depth must be a natural"),
    ("subbar_over_budget", ["subbar", "--spec", "len=3000", "--depth", "3000"], 2,
     "error: subbar search exceeds its budget of 4194304 path entries "
     "(each member test counts its path length + 1)"),
    ("game_negative_bound", ["game", "--c", "n=1", "--bound", "-1"], 2,
     "error: n_bound must be a natural"),
    ("game_negative_reply", ["game", "--mode", "2omega", "--c", "i=1", "--p0", "-1", "--p1", "0"], 2,
     "error: replies must be naturals"),
    # ivt.py
    ("ivt_target_outside_range", ["ivt", "--map", "id", "--y", "2", "-p", "4"], 2,
     "error: need f(0) <= y <= f(1) in the enclosure sense"),
    ("ivt_negative_depth", ["ivt", "--map", "id", "--y", "1/3", "-p", "4", "--mode", "lnc",
                            "--depth", "-1"], 2, "error: depth must be >= 0"),
    # rho2(4,1) is the point 0 from index 1 on: y passes the range check, the map's
    # enclosures cannot narrow within one index.
    ("ivt_enclosures_not_narrow", ["ivt", "--map", "id", "--y", "rho2(4,1)", "-p", "2",
                                   "--fuel", "1"], 3,
     "error: enclosures did not narrow; malformed map or real"),
    ("ivt_approx_uncertified", ["ivt", "--map", "id", "--y", "rho2(4,1)", "-p", "2",
                                "--fuel", "2"], 3,
     "error: result could not be certified at the requested precision"),
    ("ivt_lnc_no_witness", ["ivt", "--map", "f0:9,99", "--y", "1/2", "-p", "8", "--mode", "lnc"], 3,
     "error: no apartness witness found in the middle third"),
    ("ivt_countable_no_witness",
     ["ivt", "--map", "id", "--y", "1/4", "-p", "8", "--mode", "countable"], 3,
     "error: no apartness witness at q = 1/4"),
    # real.py
    ("eval_out_of_fuel", ["eval", "sqrt2", "-p", "40", "--fuel", "5"], 3,
     "error: no interval of width <= 2^-40 within 5 indices"),
    # streams.py
    ("eval_pi_past_the_limit", ["eval", "rho0(9,99)", "-p", "300000", "--fuel", "300001"], 2,
     "error: needs pi digits past the limit of 65536"),
    ("hunt_digit_out_of_range", ["hunt", "--digit", "10", "--run", "2", "--budget", "5"], 2,
     "error: digit must be in 0..9"),
    ("hunt_empty_run", ["hunt", "--digit", "1", "--run", "0", "--budget", "5"], 2,
     "error: run_length must be >= 1"),
]
