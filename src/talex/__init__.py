"""Twisted Alexander polynomials of the (-2,3,2n+1)-pretzel knots.

The package computes the twisted Alexander polynomial of the pretzel knot
K_n associated to its SL2(C) holonomy-type representations by three
independent routes -- a generic Fox-calculus pipeline, a closed coefficient
formula, and an intermediate grouped form -- cross-validates them, and
reports the genus/fiberedness consequences.

Precision contract.  Numbers are plain mpmath values (``mpc``/``mpf``) with
no precision of their own; a ``PretzelContext``, a ``Representation`` and a
``LaurentPoly`` record the ``prec`` they were built at.  A function given a
working precision enters ``mp.workprec`` with it and computes everything at
that precision.  Only the entry points have a default precision:
``solve_s_roots``, ``build_context`` and ``verify_sweep`` take ``prec``,
default ``DEFAULT_PREC`` = 256 bits, from ``MIN_PREC`` = 64 to ``MAX_PREC``
= 4096, all defined in ``talex.pretzel``.  Below them the precision is
always passed on, never assumed: the functions of a context use
``PretzelContext.prec``, and the constructors ``Representation(pres,
images, prec)``, which walks every relator of ``pres`` once on Gaussian
integers (each prefix product rounded to prec + 64 bits), and
``LaurentPoly(terms, prec)`` require it.  ``LaurentPoly`` stores each
coefficient as Gaussian integers rounded to ``prec`` bits, the bits an
``mpc`` at ``prec`` holds, and ``coeff(e)`` returns that ``mpc``; it sweeps
every polynomial it builds, so none holds a non-finite coefficient.
``solve_s_roots`` returns one ``PretzelContext`` per root, the one
``build_context`` makes there, whose eta_1, eta_2 and holonomy matrices
are computed at its ``prec`` on first use.  Helpers that receive only values
(``BivarPoly.eval``, which keeps its rows in s per (m, precision), ``Mat2``
arithmetic) compute at their caller's ambient precision.  Inputs are
rounded to the working precision on entry; ``verify_sweep`` takes m as
decimal strings, so each precision it retries at parses m afresh.
The Fox route is ``wada_polynomial(rep, k)`` alone; it returns its division
remainder in the ``DeltaResult`` and never raises for it: the CLI refuses
an inexact one (``InexactDivision``), ``verify`` reports it as a check.
"""

from .errors import (DegenerateContext, InexactDivision, NonConvergence,
                     TalexError)
from .laurent import DeltaResult, LaurentPoly, Mat2, normalize_delta
from .fox import (Presentation, Relator, Representation, wada_polynomial,
                  word_invert, word_multiply)
from .pretzel import (DEFAULT_PREC, BivarPoly, PretzelContext, build_context,
                      build_holonomy_rep, eval_r1, presentation_three_gen,
                      presentation_two_gen, r0_polynomial, select_root,
                      solve_s_roots)
from .closed_form import (delta_prop32, delta_theorem,
                          genus_fiberedness_report, lambda_coefficients,
                          zeta_vanishing)
from .verify import verify_sweep

__version__ = "0.1.0"

__all__ = [
    "BivarPoly", "DEFAULT_PREC", "DegenerateContext",
    "DeltaResult", "InexactDivision", "LaurentPoly",
    "Mat2", "NonConvergence", "Presentation", "PretzelContext", "Relator",
    "Representation", "TalexError",
    "build_context", "build_holonomy_rep",
    "delta_prop32", "delta_theorem", "eval_r1", "genus_fiberedness_report",
    "lambda_coefficients", "normalize_delta",
    "presentation_three_gen", "presentation_two_gen", "r0_polynomial",
    "select_root", "solve_s_roots", "verify_sweep",
    "wada_polynomial", "word_invert", "word_multiply", "zeta_vanishing",
]
