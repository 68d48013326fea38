"""blockseq: generators and verifiers for block-counting sequences.

a_{m;w}(n) is the number of occurrences of the digit word w in the
base-m expansion of n, reduced mod m.  The package generates these
sequences three independent ways (brute-force oracle, window-transform
doubling, coded fixed point of a uniform morphism), classifies their
p-blocks, scans prefixes for repetitions, and checks the degree-p
functional equation their generating series satisfies over F_p.
"""

from .errors import (BlockseqError, ClaimViolationError, InvalidBaseError,
                     InvalidPatternError, VerificationError)
from .morphism import UniformMorphism, build_morphism, expand_fixed_point
from .series import (degree_evidence, functional_equation_residual,
                     origin_correction, rhs_series, series_from_sequence)
from .structure import (ClaimReport, check_power_claims, classify_chunks,
                        classify_range, scan_power_prefixes, tail_periods)
from .windows import generate
from .words import (PatternSpec, a_batch, a_prefix, a_value,
                    count_occurrences, digit_string, e_count, from_base,
                    is_prime, to_base)

__version__ = "0.1.0"
