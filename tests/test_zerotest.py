"""The zero test's exact samples against the Fraction sampler.

The tester takes each exact sample modulo p = 2^61 - 1, confirms a
``zero`` verdict in ``Fraction`` at the first point, and falls back to
``Fraction`` for an expression the residues cannot sample.  The
reference below is the sampler as first written: every exact sample is
a ``Fraction`` evaluation.  Both draw the same points from the same RNG,
so they must return the same ``(verdict, samples)``.  p divides no
intermediate value of the generated expressions; the tests that put p
into an expression on purpose come after them.  Expressions whose only
functions are exps of rational linear forms are sampled exactly too
(the exp class); their tests are at the end.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from paraweb import zerotest
from paraweb.expr import (
    ADD,
    MUL,
    POW,
    EvalDomainError,
    EvaluationError,
    UnassignedSymbolError,
    _EXACT,
    _FLOAT_PAIRS,
    _PrimeInDenominator,
    _RESIDUES,
    _evaluate,
    add,
    add_iter,
    div,
    eval_numeric,
    free_symbols,
    fun,
    mul,
    mul_iter,
    opaque,
    pow_int,
    rational,
    sub,
    sym,
)
from paraweb.parser import Context, parse_expr
from paraweb.report import ProblemSpec, analyze_batch, analyze_ode, dumps_report
from paraweb.webs import make_web
from paraweb.zerotest import Verdict, ZeroTester, _exp_images

from conftest import expand
from oracles import eq1_residuals, lax_commutator_residuals

DATA = Path(__file__).parent / "data"
P = (1 << 61) - 1
CTX = Context(coords=("t", "x0", "x1", "x2"), functions={"F": ("t", "x0", "x1", "x2")})

# (numerator bound, least and greatest denominator) of the exact box.
EXACT_BOX = ((1 << 16) - 1, 1, (1 << 16) - 1)
# A box this small hits poles and the zeros of nonzero expressions often,
# so the order in which points are drawn and used shows in the verdicts.
SMALL_BOX = (2, 1, 3)

# A polynomial that equals p at every point: every exact sample is 0 mod p.
MULTIPLE_OF_P = "(x2 + 2147483648)*(x2 + 1073741824) - x2^2 - 3221225472*x2 - 1"


def p(text):
    return parse_expr(text, CTX)


# ---------------------------------------------------------------------------
# Reference sampler


def magnitude(e, env, memo=None):
    """The float tolerance's scale: absolute values added over sums and
    multiplied over products, ``|value|`` at every other node."""
    if memo is None:
        memo = {}
    if e.uid in memo:
        return memo[e.uid]
    if e.kind == ADD:
        val = sum(magnitude(c, env, memo) for c in e.children)
    elif e.kind == MUL:
        val = 1.0
        for c in e.children:
            val *= magnitude(c, env, memo)
    elif e.kind == POW:
        base = magnitude(e.children[0], env, memo)
        if base == 0.0 and e.payload < 0:
            raise EvalDomainError("division by zero")
        val = base ** e.payload
    else:
        val = abs(float(eval_numeric(e, env)))
    if not math.isfinite(val):
        raise EvalDomainError("non-finite magnitude")
    memo[e.uid] = val
    return val


def ref_verdict_stats(e, trials=8, tolerance=1e-9, seed=0, exact_box=EXACT_BOX, poles=None):
    """``(verdict, samples)`` with every exact sample taken in Fraction.

    An exp-class expression is sampled exactly, with each exp node given
    the value of its monomial in the generators, which are drawn after
    the coordinates.  ``poles``, if given, gets one entry per drawn point
    that was a pole.
    """
    if e.kind == 0:
        return (Verdict.ZERO if e.payload == 0 else Verdict.NONZERO), 0
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    h.update(e.shash.to_bytes(8, "big"))
    rng = random.Random(int.from_bytes(h.digest(), "big"))
    symbols = free_symbols(e)
    images = _exp_images(e)
    exact = images is not None
    samples = 0
    for _ in range(trials):
        for _ in range(60):
            memo = {}
            if exact:
                num_bound, den_low, den_high = exact_box
                pairs = [Fraction(rng.randint(-num_bound, num_bound), rng.randint(den_low, den_high))
                         for _ in range(len(symbols) + images[1])]
                env, gens = dict(zip(symbols, pairs)), pairs[len(symbols):]
            else:
                env = {s: float(Fraction(rng.randint(-48, 48), rng.randint(16, 64))) for s in symbols}
            try:
                if exact:
                    if 0 in gens:
                        raise EvalDomainError("a generator is 0")
                    for node, powers in images[0].items():
                        memo[node.uid] = Fraction(1)
                        for g, n in zip(gens, powers):
                            memo[node.uid] *= g ** n
                val = eval_numeric(e, env, memo)
                scale = 0.0 if exact else magnitude(e, env)
                break
            except (EvalDomainError, ZeroDivisionError, OverflowError):
                if poles is not None:
                    poles.append(env)
        else:
            continue
        samples += 1
        if (val != 0) if exact else abs(float(val)) > tolerance * max(1.0, scale):
            return Verdict.NONZERO, samples
    if samples == 0:
        return Verdict.INDETERMINATE, 0
    return Verdict.ZERO, samples


class ReferenceTester(ZeroTester):
    """A tester that samples with the reference."""

    def _sampled_verdict(self, e):
        return ref_verdict_stats(e, self.trials, self.tolerance, self.seed)


def assert_same(e, seed=0, trials=8, exact_box=EXACT_BOX):
    got = ZeroTester(trials=trials, seed=seed).verdict_stats(e)
    assert got == ref_verdict_stats(e, trials, seed=seed, exact_box=exact_box), str(e)
    return got


# ---------------------------------------------------------------------------
# Generated expressions

F_DEPS = ("t", "x0", "x1", "x2")
SYMBOLS = (sym("t"), sym("x0"), sym("x1"), sym("x2"), opaque("F", F_DEPS),
           opaque("F", F_DEPS, (0, 0, 1, 0)), opaque("F", F_DEPS, (0, 1, 0, 2)))


def _power(a, n):
    try:
        return pow_int(a, n)
    except ZeroDivisionError:  # a negative power of the constant 0
        return a


def _quotient(a, b):
    try:
        return div(a, b)
    except ZeroDivisionError:
        return a


_leaves = st.one_of(
    st.sampled_from(SYMBOLS),
    st.builds(lambda n, d: rational(Fraction(n, d)), st.integers(-9, 9), st.integers(1, 6)),
)


def _branches(children, functions=False):
    options = [
        st.lists(children, min_size=2, max_size=3).map(add_iter),
        st.lists(children, min_size=2, max_size=3).map(mul_iter),
        st.builds(sub, children, children),
        st.builds(_quotient, children, children),
        st.builds(_power, children, st.sampled_from((-3, -2, -1, 2, 3))),
    ]
    if functions:
        options.append(st.builds(fun, st.sampled_from(("exp", "sin", "cos")), children))
    return st.one_of(options)


rational_exprs = st.recursive(_leaves, _branches, max_leaves=8)
function_exprs = st.recursive(_leaves, lambda c: _branches(c, functions=True), max_leaves=6)
# exp(c x + c0) leaves: expressions of the exp class
_exps = st.builds(lambda c, c0, x: fun("exp", add(mul(rational(c), x), rational(c0))),
                  st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                  st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
                  st.sampled_from(SYMBOLS[:4]))
exp_class_exprs = st.recursive(st.one_of(_leaves, _exps), _branches, max_leaves=8)


def _identity(e):
    """A nonzero-looking expression that is 0: ``expand(e) - e``."""
    return sub(expand(e), e)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(rational_exprs, st.integers(0, 3))
    def test_rational_expressions(self, e, seed):
        assert_same(e, seed)
        assert_same(_identity(e), seed)

    @settings(max_examples=150, deadline=None)
    @given(rational_exprs, st.integers(0, 3))
    def test_rational_expressions_in_a_small_box(self, e, seed):
        with mock.patch.object(zerotest, "_EXACT_BOX", SMALL_BOX):
            assert_same(e, seed, exact_box=SMALL_BOX)
            assert_same(_identity(e), seed, exact_box=SMALL_BOX)
            assert_same(add(_identity(e), sym("x1")), seed, exact_box=SMALL_BOX)

    @settings(max_examples=60, deadline=None)
    @given(function_exprs, st.integers(0, 3))
    def test_expressions_with_functions(self, e, seed):
        assert_same(e, seed)

    @settings(max_examples=100, deadline=None)
    @given(exp_class_exprs, st.integers(0, 3))
    def test_exp_class_expressions(self, e, seed):
        assert_same(e, seed)
        assert_same(_identity(e), seed)
        with mock.patch.object(zerotest, "_EXACT_BOX", SMALL_BOX):
            assert_same(add(_identity(e), e), seed, exact_box=SMALL_BOX)

    @pytest.mark.parametrize("document", [
        json.loads((DATA / "golden_problems.json").read_text(encoding="utf-8")),
        {"problems": [{"kind": "ode", "order": 4, "rhs": "abstract", "options": {"seed": s}}
                      for s in (0, 1)] + [
            {"kind": "ode", "order": 5, "rhs": "x4^2*x1/(1+x0^2) + t*x3"},
            {"kind": "web", "k": 3, "w": "x0 + x1 + x2 + x3 + 2*x0*x1 + 1*x1*x1"}]},
    ], ids=["golden", "odes-and-web"])
    def test_every_expression_a_batch_tests(self, monkeypatch, document):
        tested = {}
        verdict_stats = ZeroTester.verdict_stats

        def record(tester, e):
            got = tested[tester.trials, tester.tolerance, tester.seed, e] = verdict_stats(tester, e)
            return got

        monkeypatch.setattr(ZeroTester, "verdict_stats", record)
        analyze_batch(document)
        # Reports print the hierarchy and Lax residuals with the verdicts of
        # the Hirota triples through 0; testing them here keeps them in the
        # comparison with the reference.
        for raw in document["problems"]:
            spec = ProblemSpec.from_dict(raw)
            if spec.kind == "web":
                web, tester = make_web(spec.k, spec.w, spec.t_params), spec.tester()
                for e in [*eq1_residuals(web).values(), *lax_commutator_residuals(web).values()]:
                    tester.verdict(e)
        assert len(tested) > 10
        assert {got[0] for got in tested.values()} >= {Verdict.ZERO, Verdict.NONZERO}
        for (trials, tolerance, seed, e), got in tested.items():
            assert got == ref_verdict_stats(e, trials, tolerance, seed), str(e)

    def test_golden_report_from_the_reference(self, monkeypatch):
        monkeypatch.setattr(ProblemSpec, "tester", lambda spec: ReferenceTester(
            trials=spec.trials, tolerance=spec.tolerance, seed=spec.seed))
        report, _ = analyze_batch(json.loads((DATA / "golden_problems.json").read_text(encoding="utf-8")))
        assert dumps_report(report) == (DATA / "golden_report.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Targeted cases


class TestDrawnPoints:
    @pytest.mark.parametrize("text", ["1/x1 + x2", "(2*x1 + 1)/(2*x1 - 1) - 1 - 2/(2*x1 - 1)",
                                      "x1 - 1/2 + 1/(x2*(x2 - 1)*(x2 + 1))"])
    def test_a_pole_resamples_as_before(self, text):
        e = p(text)
        poles = []
        with mock.patch.object(zerotest, "_EXACT_BOX", SMALL_BOX):
            for seed in range(12):
                got = ZeroTester(seed=seed).verdict_stats(e)
                assert got == ref_verdict_stats(e, seed=seed, exact_box=SMALL_BOX, poles=poles)
        assert poles, "no drawn point was a pole"

    @pytest.mark.parametrize("text", ["x1 - 1/2", "(2*x1 - 1)*(3*x1 + 1)*(3*x1 - 2) + x2 - x2^2"])
    def test_a_root_is_drawn_where_the_fraction_sampler_drew_it(self, text):
        # Each root needs a drawn denominator above 1, so a sample lands on
        # it only where num/den maps to the right residue.
        e = p(text)
        counts = []
        with mock.patch.object(zerotest, "_EXACT_BOX", SMALL_BOX):
            for seed in range(24):
                got = ZeroTester(seed=seed).verdict_stats(e)
                assert got == ref_verdict_stats(e, seed=seed, exact_box=SMALL_BOX)
                counts.append(got[1])
        assert max(counts) > 1, "no sample landed on a root"

    def test_a_pole_mod_p_is_a_pole(self):
        x1 = sym("x1")
        with pytest.raises(EvalDomainError):
            _evaluate(pow_int(add(x1, rational(-3)), -1), {x1: 3}, {}, _RESIDUES)

    def test_every_point_a_pole(self):
        e = p("1/((x1 + 1)^2 - x1^2 - 2*x1 - 1) + x2")
        assert assert_same(e) == (Verdict.INDETERMINATE, 0)


class TestPrimeInAnExpression:
    def test_constant_with_p_in_its_denominator(self):
        x1, x2 = sym("x1"), sym("x2")
        nonzero = add(mul(rational(1, P), x1), x2)
        with pytest.raises(_PrimeInDenominator):
            _evaluate(nonzero, {x1: 1, x2: 2}, {}, _RESIDUES)
        assert assert_same(nonzero) == (Verdict.NONZERO, 1)
        zero = mul(rational(5, 3 * P), _identity(p("(x1 + 1)*(x1 - 1/2)/(x2 + 3)")))
        assert assert_same(zero) == (Verdict.ZERO, 8)
        assert assert_same(add(zero, mul(rational(1, P * P), x2))) == (Verdict.NONZERO, 1)

    def test_value_that_p_divides_everywhere(self):
        e = p(MULTIPLE_OF_P)
        assert e.kind != 0
        assert assert_same(e) == (Verdict.NONZERO, 1)
        assert assert_same(mul(rational(P), sym("x1"))) == (Verdict.NONZERO, 1)
        assert assert_same(mul(p("x2^3"), e)) == (Verdict.NONZERO, 1)

    def test_base_that_p_divides_everywhere(self):
        assert assert_same(p(f"1/({MULTIPLE_OF_P}) - x1")) == (Verdict.NONZERO, 1)
        assert assert_same(pow_int(mul(rational(P), sym("x1")), -2)) == (Verdict.NONZERO, 1)

    def test_inside_an_ode_right_hand_side(self, monkeypatch):
        spec = ProblemSpec.from_dict({"kind": "ode", "order": 3, "rhs": f"x2^3*({MULTIPLE_OF_P})"})
        report = analyze_ode(spec)
        verdicts = [r["verdict"] for r in report["residuals"]]
        assert "nonzero" in verdicts and "indeterminate" not in verdicts
        monkeypatch.setattr(ProblemSpec, "tester", lambda s: ReferenceTester(
            trials=s.trials, tolerance=s.tolerance, seed=s.seed))
        assert dumps_report({"reports": [analyze_ode(spec)]}) == dumps_report({"reports": [report]})


# ---------------------------------------------------------------------------
# The exp class: exps of rational linear forms in the coordinates


EXP_ZEROS = [
    "exp(x1)*exp(-x1) - 1",
    "exp(x1)^2 - exp(2*x1)",
    "exp(x1+x2) - exp(x1)*exp(x2)",
    "exp(x1/3 + x2/2)^6 - exp(2*x1 + 3*x2)",
    "exp(x1 + 1/2)^2 - exp(2*x1 + 1)",
]
EXP_NONZEROS = [
    "exp(2*x1) - exp(x1)",
    "exp(x1) - x1",
    "exp(x1 + 1) - exp(x1)",
    "exp(x1) - exp(x2)",
    "exp(2*x1 + x2) - exp(x1 + 2*x2)",
]
FLOAT_PATH = ["exp(x1^2)", "sin(x1)", "exp(x1/5000)"]

# Equal to p everywhere, with exp(x2) where MULTIPLE_OF_P has x2.
EXP_MULTIPLE_OF_P = ("(exp(x2) + 2147483648)*(exp(x2) + 1073741824) - exp(2*x2)"
                     " - 3221225472*exp(x2) - 1")


def exact_only():
    """Fail on any float sample: the exp class never takes one."""
    def evaluate(e, env, memo, arithmetic):
        assert arithmetic is not _FLOAT_PAIRS, "float path"
        return _evaluate(e, env, memo, arithmetic)

    return mock.patch.object(zerotest, "_evaluate", evaluate)


class TestExpClass:
    @pytest.mark.parametrize("text", EXP_ZEROS)
    def test_zero(self, text):
        with exact_only():
            for seed in range(4):
                assert ZeroTester(seed=seed).verdict_stats(p(text)) == (Verdict.ZERO, 8)

    @pytest.mark.parametrize("text", EXP_NONZEROS)
    def test_nonzero(self, text):
        with exact_only():
            for seed in range(4):
                assert ZeroTester(seed=seed).verdict_stats(p(text)) == (Verdict.NONZERO, 1)

    @pytest.mark.parametrize("text", FLOAT_PATH + ["exp(x1) + sin(x2)", "exp(F) - 1", "exp(exp(x1))"])
    def test_other_functions_take_the_float_path(self, text):
        e = p(text)
        assert _exp_images(e) is None
        assert assert_same(e) == (Verdict.NONZERO, 1)

    def test_generators_and_scaled_exponents(self):
        e = p("exp(x1/3 + x2/2)^6 - exp(2*x1 + 3*x2)")
        exps, generators = _exp_images(e)
        assert generators == 2
        assert sorted(exps.values()) == [(2, 3), (12, 18)]
        exps, generators = _exp_images(p("exp(x1 + 1/2)^2 - exp(2*x1 + 1)"))
        assert generators == 2
        assert sorted(exps.values()) == [(2, 1), (4, 2)]
        # no constant generator without a constant term
        assert _exp_images(p("exp(x1) + x2"))[1] == 1

    def test_exponent_bound(self):
        # L and every c*L at most MAX_EXPONENT = 1000
        assert _exp_images(p("exp(x1/1000) + exp(x2)")) is not None
        assert _exp_images(p("exp(x1/1000 + x2/3)")) is None
        assert _exp_images(p("exp(1000*x1)")) is not None
        assert _exp_images(p("exp(1001*x1)")) is None

    def test_zero_is_confirmed_in_fraction(self):
        # Every exact sample is 0 mod p; the value is p.
        e = p(EXP_MULTIPLE_OF_P)
        assert _exp_images(e) is not None
        assert ZeroTester().verdict_stats(e) == (Verdict.NONZERO, 1)

    def test_constant_with_p_in_its_denominator(self):
        # sampled in Fraction, generators included
        exp_x1 = fun("exp", sym("x1"))
        assert ZeroTester().verdict_stats(add(mul(rational(1, P), exp_x1), sym("x2"))) == (Verdict.NONZERO, 1)
        assert ZeroTester().verdict_stats(mul(rational(1, P), p(EXP_ZEROS[2]))) == (Verdict.ZERO, 8)

    def test_a_generator_of_zero_is_a_pole(self):
        # In the small box a drawn generator is 0 one time in five; read
        # as a value it would make an exp vanish at that sample.
        with mock.patch.object(zerotest, "_EXACT_BOX", SMALL_BOX), exact_only():
            for seed in range(24):
                assert ZeroTester(seed=seed).verdict_stats(p("exp(x1)*x2 + exp(x2)")) == (Verdict.NONZERO, 1)
                assert ZeroTester(seed=seed).verdict_stats(p(EXP_ZEROS[2])) == (Verdict.ZERO, 8)


# ---------------------------------------------------------------------------
# One evaluator, three arithmetics


def _residue_of(q):
    return q.numerator * pow(q.denominator, -1, P) % P


# Each arithmetic, with what an assignment holds for a rational q and
# what the arithmetic's value of q is.
ARITHMETICS = [
    pytest.param(_EXACT, Fraction, Fraction, id="exact"),
    pytest.param(_RESIDUES, _residue_of, _residue_of, id="residues"),
    pytest.param(_FLOAT_PAIRS, float, lambda q: (float(q), abs(float(q))), id="float-pairs"),
]


@pytest.mark.parametrize("arithmetic, point, value", ARITHMETICS)
class TestArithmetics:
    def test_negative_power_of_zero_is_a_pole(self, arithmetic, point, value):
        x1, x2 = sym("x1"), sym("x2")
        e = add(pow_int(sub(x1, rational(3)), -2), x2)
        env = {x1: point(Fraction(3)), x2: point(Fraction(1, 2))}
        with pytest.raises(EvalDomainError):
            _evaluate(e, env, {}, arithmetic)

    def test_unassigned_symbol(self, arithmetic, point, value):
        with pytest.raises(UnassignedSymbolError):
            _evaluate(p("x1 + x2"), {sym("x1"): point(Fraction(1))}, {}, arithmetic)

    def test_function(self, arithmetic, point, value):
        e = p("sin(x1) + x2")
        env = {sym("x1"): point(Fraction(1, 2)), sym("x2"): point(Fraction(3))}
        if arithmetic is _RESIDUES:
            with pytest.raises(EvaluationError, match="mod p"):
                _evaluate(e, env, {}, arithmetic)
            return
        got = _evaluate(e, env, {}, arithmetic)
        want = 3 + math.sin(0.5)
        assert got == ((want, want) if arithmetic is _FLOAT_PAIRS else want)

    def test_seeded_memo_is_the_node_value(self, arithmetic, point, value):
        # The zero test seeds exp nodes with their images: mod p an exp
        # node has no value of its own.
        exp_x1 = fun("exp", sym("x1"))
        e = mul(exp_x1, sym("x2"))
        env = {sym("x1"): point(Fraction(1, 2)), sym("x2"): point(Fraction(8))}
        assert _evaluate(e, env, {exp_x1.uid: value(Fraction(5, 8))}, arithmetic) == value(Fraction(5))

    def test_no_garbage_cycle(self, arithmetic, point, value):
        # A cycle would keep each sample's memo until the collector runs.
        e = p("(x1 + 2)^2*x2 - x1/3")
        env = {sym("x1"): point(Fraction(1, 2)), sym("x2"): point(Fraction(8))}
        gc.collect()
        gc.disable()
        try:
            _evaluate(e, env, {}, arithmetic)
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("arithmetic", [_EXACT, _FLOAT_PAIRS], ids=["exact", "float-pairs"])
@pytest.mark.parametrize("text", ["x1 + x2", "x1*x2"])
def test_infinite_float_is_a_pole(arithmetic, text):
    with pytest.raises(EvalDomainError):
        _evaluate(p(text), {sym("x1"): 1e308, sym("x2"): 1e308}, {}, arithmetic)


# The last text is a long float sum: a sum that rounds unlike the builtin one shows.
@pytest.mark.parametrize("text", FLOAT_PATH + ["exp(exp(exp(x1)))", "sin(x1) + x1/3 + x2/7 - x0/11 + x1*x2/13"])
def test_float_pair_is_value_and_magnitude(text):
    e = p(text)
    rng = random.Random(text)
    outcomes = set()
    for _ in range(40):
        env = {s: rng.randint(-48, 48) / rng.randint(16, 64) for s in free_symbols(e)}
        try:
            want = (eval_numeric(e, env), magnitude(e, env))
        except EvalDomainError:
            with pytest.raises(EvalDomainError):
                _evaluate(e, env, {}, _FLOAT_PAIRS)
            outcomes.add("pole")
            continue
        assert _evaluate(e, env, {}, _FLOAT_PAIRS) == want
        outcomes.add("value")
    assert "value" in outcomes
