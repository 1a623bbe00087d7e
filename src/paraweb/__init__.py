"""paraweb: a symbolic-numeric engine for point invariants of ODEs,
totally geodesic paraconformal connections and Veronese webs.

The expression kernel (exact rationals, opaque derivative symbols,
randomized zero testing) lives in ``expr``/``parser``/``zerotest``; jet
space geometry in ``jet``; the curvature chain and Wunschmann/Cartan
invariants in ``invariants``; the Veronese web side (Hirota system, null
curve, canonical and Bryant connections, Einstein-Weyl data) in
``webs``, with the tables of its spectral constants in ``spectral``;
batch analysis and the JSON report schema in ``report``/``cli``.
"""

from .expr import (
    Expr,
    ZERO,
    ONE,
    add,
    differentiate,
    div,
    eval_numeric,
    free_symbols,
    fun,
    mul,
    neg,
    opaque,
    pow_int,
    rational,
    sub,
    sym,
    to_string,
)
from .parser import Context, ParseError, parse_expr
from .zerotest import Verdict, ZeroTester, is_zero
from .jet import (
    OdeProblem,
    OneForm,
    VectorField,
    lie_bracket,
)
from .invariants import (
    CurvatureChain,
    ExtractionError,
    Residual,
    beta_coefficient,
    cartan_residuals,
    curvature_chain,
    gamma_k,
    wunschmann_residuals,
)
from .webs import (
    BryantForms,
    NullCurve,
    VeroneseWeb,
    WebConnection,
    WebError,
    bryant_forms,
    canonical_connection,
    conformal_metric,
    flatness_verdict,
    hirota_residuals,
    make_web,
    null_curve,
)
from .report import ProblemSpec, analyze_batch, analyze_ode, analyze_web

__version__ = "0.1.0"
