"""High-precision computation of the alternating prime series
W(n) = sum over odd primes p of (-chi4(p))/p^n, by three routes: the
composite-exclusion recurrence and the logarithmic product assembly of the
source memoir, and the Moebius inversion of closed-form L-values, together
with certified reproduction of the source tables.
"""

__version__ = "1.0.0"

from .arith import (HighPrecReal, UncertifiedError, constant, format_decimal,
                    half_log_ratio, parse_decimal, precision, working_digits)
from .primes import chi4, odd_primes
from .beta import BetaValue, beta_closed, beta_direct, euler_numbers
from .exclusion import (ExclusionState, SeriesValue, init_state, run,
                        sieved_tail_oracle, step, step_closed_form)
from .logmethod import (AssemblyResult, ClosedFormCandidate, ProductPartials,
                        assemble_O, closed_form_scan, master_identity_residual,
                        product_pi2_8, product_pi4, product_two, w_inversion,
                        w_value)
from .report import ERRATA, ReportTable, Row, build_table, to_csv, to_json, to_text

__all__ = [
    "__version__",
    "HighPrecReal", "UncertifiedError", "constant", "format_decimal",
    "half_log_ratio", "parse_decimal", "precision", "working_digits",
    "chi4", "odd_primes",
    "BetaValue", "beta_closed", "beta_direct", "euler_numbers",
    "ExclusionState", "SeriesValue", "init_state", "run", "sieved_tail_oracle",
    "step", "step_closed_form",
    "AssemblyResult", "ClosedFormCandidate", "ProductPartials", "assemble_O",
    "closed_form_scan", "master_identity_residual", "product_pi2_8",
    "product_pi4", "product_two", "w_inversion", "w_value",
    "ERRATA", "ReportTable", "Row", "build_table", "to_csv", "to_json",
    "to_text",
]
