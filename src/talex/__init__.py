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
integers, and ``LaurentPoly(terms, prec)`` require it.  ``LaurentPoly``
stores each coefficient as Gaussian integers rounded to ``prec`` bits, the
bits an ``mpc`` at ``prec`` holds, and ``coeff(e)`` returns that ``mpc``;
it sweeps every polynomial it builds, so none holds a non-finite
coefficient.  Every other fixed-point number carries prec + 64 bits.  All
of them, the Fox division's quotient and the solver's Newton steps round to
nearest with ties to even, as mpmath does (``talex.laurent.fit``); the
Horner shift of ``BivarPoly.eval`` is the one truncation.
``solve_s_roots`` returns one ``PretzelContext`` per root, the one
``build_context`` makes there, in an order taken at its ``prec``; every
derived value of a context (alpha, beta, H, S, the flags, eta_1, eta_2,
eta_1 + eta_2 and r1, the paper's forms in alpha and beta taken before
their rounding, and the holonomy matrices) is computed at its ``prec`` on
first use, so ``talex delta`` evaluates only the root it reports; each
matrix is exact Gaussian integers over one power of two, as a
``Representation`` takes its images.
``BivarPoly.eval``, which keeps its rows in s per (m, precision), takes
``mpc`` inputs as given, at the caller's ambient precision.  Inputs are
rounded to the working precision on entry; ``verify_sweep`` takes m as
decimal strings, so each precision it retries at parses m afresh.
The Fox route is ``wada_polynomial(rep, k)`` alone; it returns its division
remainder in the ``DeltaResult`` and never raises for it: the CLI refuses
an inexact one (``InexactDivision``), ``verify`` reports it as a check.
"""

from .errors import (DegenerateContext, InexactDivision, NonConvergence,
                     TalexError)
from .laurent import DeltaResult, LaurentPoly, normalize_delta
from .fox import (Presentation, Relator, Representation, wada_polynomial,
                  word_invert, word_multiply)
from .pretzel import (DEFAULT_PREC, BivarPoly, PretzelContext, build_context,
                      build_holonomy_rep, presentation_three_gen,
                      presentation_two_gen, r0_polynomial, select_root,
                      solve_s_roots)
from .closed_form import (delta_prop32, delta_theorem,
                          genus_fiberedness_report, zeta_vanishing)
from .verify import verify_sweep

__version__ = "0.1.0"

__all__ = [
    "BivarPoly", "DEFAULT_PREC", "DegenerateContext",
    "DeltaResult", "InexactDivision", "LaurentPoly",
    "NonConvergence", "Presentation", "PretzelContext", "Relator",
    "Representation", "TalexError",
    "build_context", "build_holonomy_rep",
    "delta_prop32", "delta_theorem", "genus_fiberedness_report",
    "normalize_delta",
    "presentation_three_gen", "presentation_two_gen", "r0_polynomial",
    "select_root", "solve_s_roots", "verify_sweep",
    "wada_polynomial", "word_invert", "word_multiply", "zeta_vanishing",
]
