"""paraweb: a symbolic-numeric engine for point invariants of ODEs,
totally geodesic paraconformal connections and Veronese webs.

The expression kernel (exact rationals, opaque derivative symbols,
randomized zero testing) lives in ``expr``/``parser``/``zerotest``; jet
space geometry in ``jet``; the curvature chain and Wunschmann/Cartan
invariants in ``invariants``; the Veronese web side (Hirota system, Lax
tuple, canonical and Bryant connections, Einstein-Weyl data,
Ricci-null samples) in ``webs``; batch analysis and the JSON report
schema in ``report``/``cli``.
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
    integer,
    mul,
    neg,
    opaque,
    pow_int,
    rational,
    sub,
    substitute,
    sym,
    to_string,
)
from .parser import Context, ParseError, parse_expr
from .zerotest import DEFAULT_TESTER, Verdict, ZeroTester, is_zero
from .jet import (
    OdeProblem,
    OneForm,
    ScalingRule,
    ThreeForm,
    TwoForm,
    VectorField,
    differential,
    exterior_derivative,
    lie_bracket,
    lie_derivative_oneform,
    total_derivative_field,
    wedge3,
)
from .invariants import (
    CurvatureChain,
    ExtractionError,
    Residual,
    beta_coefficient,
    cartan_residuals,
    connection_forms,
    connection_residuals,
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
    lax_commutator_residuals,
    lax_tuple,
    make_web,
    null_curve,
    omega_at,
    ricci_null_residuals,
    torsion,
    zakharevich_verdict,
)
from .report import ProblemSpec, analyze_batch, analyze_ode, analyze_web

__version__ = "0.1.0"
