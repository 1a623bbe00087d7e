"""Exp-web verdicts against sympy at 100 digits.

The engine zero-tests the two-exponential webs exactly, over a prime
field.  Here the same residuals are written out again from the defining
formulas, with sympy instead of the engine's expression kernel, and
evaluated with mpmath at 100 significant digits at two rational points.
A value counts as zero when it is below 10^-80 of the sum of the
magnitudes of its top-level terms, and as nonzero when it is above
10^-20 of it; anything in between fails the test.

With spectral constants t_0..t_{k+1} (default 0..k+1):

* Hirota, for i < j < l:
  a(i,j,l) w_ij w_l + a(j,l,i) w_jl w_i + a(l,i,j) w_li w_j,
  with a(i,j,l) = (t_i - t_j)(t_{k+1} - t_l);
* hierarchy, for 1 <= i < j:
  (b_i - b_j) w_0 w_ij + b_j w_i w_j0 - b_i w_j w_i0,
  with b_i = (t_i - t_0) / (t_{k+1} - t_i);
* Lax, for 1 <= i < j: each t-coefficient of each component of
  [L_i(t), L_j(t)], where
  L_i(t) = -(t - t_0)(w_i / w_0) d/dx_0 + c_i (t - t_i) d/dx_i and
  c_i = (t_{k+1} - t_0) / (t_{k+1} - t_i);
* flatness (k > 2) needs d/dx_i (w_j / w_l) = 0 for all i outside {j, l}.
"""

from __future__ import annotations

from math import factorial

import pytest

from paraweb.report import analyze_batch
from paraweb.webs import flatness_verdict, hirota_verdicts, make_web
from paraweb.zerotest import Verdict, ZeroTester

from conftest import NONFLAT_W, NONFLAT_W5
from oracles import eq1_residuals, lax_commutator_residuals

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

DIGITS = 100
ZERO_BELOW = mpmath.mpf(10) ** -80
NONZERO_ABOVE = mpmath.mpf(10) ** -20

EXP_WEBS = sorted(NONFLAT_W.items()) + [(5, NONFLAT_W5)]
ZT = ZeroTester()


class Oracle:
    """One web w(x0..xk) in sympy, with default spectral constants."""

    def __init__(self, k: int, w_text: str):
        self.k = k
        self.x = sympy.symbols(f"x0:{k + 1}")
        self.t = sympy.Symbol("t")
        self.w = sympy.sympify(w_text.replace("^", "**"), locals={f"x{i}": s for i, s in enumerate(self.x)})
        self.tp = [sympy.Integer(n) for n in range(k + 2)]
        self.points = [
            [sympy.Rational(i - 2, 7) for i in range(k + 1)],
            [sympy.Rational(3 - 2 * i, 11) for i in range(k + 1)],
        ]

    def dw(self, *idx: int):
        return sympy.diff(self.w, *(self.x[i] for i in idx))

    def is_zero(self, expr) -> bool:
        """Zero at both points, or nonzero at one; never in between."""
        expr = sympy.sympify(expr)
        terms = sympy.Add.make_args(expr)
        f = sympy.lambdify(self.x, [expr, *terms], "mpmath")
        with mpmath.workdps(DIGITS):
            for point in self.points:
                value, *parts = f(*(mpmath.mpf(q.p) / q.q for q in point))
                scale = max(mpmath.mpf(1), mpmath.fsum(abs(v) for v in parts))
                if abs(value) > NONZERO_ABOVE * scale:
                    return False
                assert abs(value) < ZERO_BELOW * scale, (expr, value, scale)
        return True

    def hirota(self) -> dict:
        k, t = self.k, self.tp

        def a(i, j, l):
            return (t[i] - t[j]) * (t[k + 1] - t[l])

        return {
            (i, j, l): a(i, j, l) * self.dw(i, j) * self.dw(l) + a(j, l, i) * self.dw(j, l) * self.dw(i)
            + a(l, i, j) * self.dw(l, i) * self.dw(j)
            for i in range(k + 1) for j in range(i + 1, k + 1) for l in range(j + 1, k + 1)
        }

    def hierarchy(self) -> dict:
        k, t = self.k, self.tp
        b = [(t[i] - t[0]) / (t[k + 1] - t[i]) for i in range(k + 1)]
        return {
            (i, j): (b[i] - b[j]) * self.dw(0) * self.dw(i, j) + b[j] * self.dw(i) * self.dw(j, 0)
            - b[i] * self.dw(j) * self.dw(i, 0)
            for i in range(1, k + 1) for j in range(i + 1, k + 1)
        }

    def lax(self) -> dict:
        """(i, j, coordinate, t-degree) -> coefficient of [L_i, L_j]."""
        k, t, x, tp = self.k, self.t, self.x, self.tp

        def field(i):
            c = (tp[k + 1] - tp[0]) / (tp[k + 1] - tp[i])
            return {0: -(t - tp[0]) * self.dw(i) / self.dw(0), i: c * (t - tp[i])}

        def apply(v, f):
            return sum(comp * sympy.diff(f, x[a]) for a, comp in v.items())

        out = {}
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                li, lj = field(i), field(j)
                for c in range(k + 1):
                    bracket = apply(li, lj.get(c, 0)) - apply(lj, li.get(c, 0))
                    for deg in range(3):
                        coeff = sympy.diff(bracket, t, deg).subs(t, 0) / factorial(deg)
                        out[(i, j, f"x{c}", deg)] = coeff
        return out

    def flat(self) -> bool:
        k = self.k
        return all(
            self.is_zero(sympy.diff(self.dw(j) / self.dw(l), self.x[i]))
            for j in range(k + 1) for l in range(j + 1, k + 1) for i in range(k + 1) if i not in (j, l)
        )


@pytest.mark.parametrize("k, w", EXP_WEBS, ids=[f"k{k}" for k, _ in EXP_WEBS])
def test_exp_web_verdicts_agree_with_sympy(k, w):
    web, oracle = make_web(k, w), Oracle(k, w)
    engine = {
        "hirota": hirota_verdicts(web, ZT),
        # reports print these two with the Hirota verdicts; here each is tested
        "hierarchy": {key: ZT.verdict(e) for key, e in eq1_residuals(web).items()},
        "lax": {key: ZT.verdict(e) for key, e in lax_commutator_residuals(web).items()},
    }
    wanted = {"hirota": oracle.hirota(), "hierarchy": oracle.hierarchy(), "lax": oracle.lax()}
    for name, residuals in wanted.items():
        got = engine[name]
        assert set(got) <= set(residuals), name
        for key, expr in residuals.items():
            zero = oracle.is_zero(expr)
            # the engine leaves out components that are zero by construction
            assert got.get(key, Verdict.ZERO) is (Verdict.ZERO if zero else Verdict.NONZERO), (name, key)
            assert zero, (name, key)
    if k > 2:
        assert not oracle.flat()
        assert flatness_verdict(web, ZT) is False


def test_nonflat_k5_report_says_not_flat():
    report, code = analyze_batch({"problems": [{"kind": "web", "k": 5, "w": NONFLAT_W5}]})
    assert code == 0
    entry = report["reports"][0]
    assert entry["status"] == "ok"
    assert entry["verdicts"]["hirota"] is True
    assert entry["verdicts"]["flat"] is False


def test_oracle_tells_a_wrong_exponent():
    # m = (51, 21, 11, 6, 2) breaks the Hirota condition a~_i (m_i - 1) = 10
    oracle = Oracle(5, NONFLAT_W5.replace("3*x5", "2*x5"))
    assert not all(oracle.is_zero(e) for e in oracle.hirota().values())
    assert all(oracle.is_zero(e) for e in Oracle(5, NONFLAT_W5).hirota().values())


def test_flatness_oracle_on_a_separable_web():
    assert Oracle(3, "exp(x0) + x1^2 + exp(2*x2) + x3").flat()
