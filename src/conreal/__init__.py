"""Constructive real numbers as shrinking interval streams, and the toolkit
around them: fugitive numbers over digit streams, semi-decidable comparisons
with checkable witnesses, co-transitive splitting, the Cantor diagonal,
approximate intermediate-value procedures, finite subbar extraction,
two-move game solvers and desk-scale Ramsey checkers."""

from .coding import (concat, decode, encode, incompatible, is_prefix, length,
                     pair, prefix_of_stream, subsequence, unpair)
from .combinatorics import (Coloring, DicksonInstance, almost_full_witness,
                            arrow_check, arrow_star_check, avoiding_coloring,
                            dickson_witness, euclid_extend, monochromatic_witness)
from .errors import FuelExhausted, PreconditionFailed, TooLarge
from .fans import (CounterStrategyPrefix, DecidableBar, GameSpec2Omega,
                   GameSpecOmega2, NotBarWithinDepth, WinningMove,
                   answer_strategy_2omega, finite_subbar, solve_omega2)
from .ivt import (ContinuousMap, PiecewiseLinearSpec, approx_ivt,
                  certified_within, distance_bound, enumerated_witnesses, f0,
                  f1, f2, identity_map, ivt_countable_exceptions,
                  ivt_locally_nonconstant, middle_third_oracle, pwl)
from .real import (Apartness, CReal, Direction, LtWitness, RationalInterval,
                   Split, SplitSide, cantor_point, cotrans_split, diagonal,
                   interval, rho0, rho1, rho2, sqrt2,
                   sqrt2_irrationality_witness, try_apart, try_lt, verify_lt,
                   zero)
from .streams import (FugitiveCompare, FugitiveSpec, NatStream,
                      fugitive_compare, fugitive_equal, fugitive_least,
                      pattern_indicator, pi_digits)

__version__ = "0.1.0"
