"""Expression kernel: parsing, canonical form, differentiation,
evaluation and the randomized zero test."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paraweb.expr import (
    MAX_CONSTANT_DIGITS,
    BudgetError,
    EvalDomainError,
    UnassignedSymbolError,
    ZERO,
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
    substitute,
    sym,
    to_string,
)
from paraweb.parser import MAX_EXPONENT, Context, ParseError, parse_expr
from paraweb.zerotest import Verdict, ZeroTester, is_zero

from conftest import expand

CTX = Context(
    coords=("t", "x0", "x1", "x2"),
    functions={"F": ("t", "x0", "x1", "x2"), "w": ("x0", "x1", "x2")},
)


def p(text: str):
    return parse_expr(text, CTX)


class TestParsing:
    def test_zero_literal(self):
        assert p("0") is ZERO

    def test_quotient_of_products_canonical(self):
        e = p("3*x2^2/(2*x1)")
        assert e is mul(rational(Fraction(3, 2)), pow_int(sym("x1"), -1), pow_int(sym("x2"), 2))
        assert to_string(e) == "3*x2^2/(2*x1)"

    def test_difference_of_equal_monomials_cancels(self):
        assert p("x1^2 - x1*x1") is ZERO

    def test_rational_literals_via_division(self):
        assert p("3/4") is rational(Fraction(3, 4))

    def test_unary_minus_and_precedence(self):
        assert p("-x1^2") is neg(pow_int(sym("x1"), 2))
        assert p("2*x1+x2") is add(mul(rational(2), sym("x1")), sym("x2"))

    def test_function_call(self):
        e = p("exp(x1+x2)")
        assert e.kind == 3 and e.payload == "exp"

    def test_opaque_identifiers(self):
        bare = p("F")
        assert bare is CTX.opaque_symbol("F")
        dd = p("F_t_x1_x1")
        assert dd is opaque("F", ("t", "x0", "x1", "x2"), (1, 0, 2, 0))

    def test_opaque_dependency_respected(self):
        assert p("w_x1") is opaque("w", ("x0", "x1", "x2"), (0, 1, 0))
        with pytest.raises(ParseError):
            p("w_t")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            p("x1 + + x2")
        assert err.value.position == 5

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            p("x1 + y3")

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="integer literal"):
            p("x1^x2")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            p("tanh(x1)")

    def test_exponent_bound(self):
        assert p("x1^1000") is pow_int(sym("x1"), MAX_EXPONENT)
        assert p("x1^-0001000") is pow_int(sym("x1"), -MAX_EXPONENT)
        for text in ("x1^1001", "x1^-1001", "x1^100000000", "2^" + "9" * 5000):
            with pytest.raises(ParseError, match="budget exceeded"):
                p(text)

    def test_constant_bound(self):
        # Every constant has at most MAX_CONSTANT_DIGITS digits: a longer
        # literal is a parse error, and a longer power or product of
        # literals is refused as it is built, a nested power before it is
        # computed.
        largest = 10 ** MAX_CONSTANT_DIGITS - 1
        assert p("9" * MAX_CONSTANT_DIGITS + "*x1") is mul(rational(largest), sym("x1"))
        assert p("00" + "9" * MAX_CONSTANT_DIGITS) is rational(largest)
        assert p("x1/" + "9" * MAX_CONSTANT_DIGITS) is mul(rational(Fraction(1, largest)), sym("x1"))
        with pytest.raises(ParseError, match="budget exceeded"):
            p("1" + "0" * MAX_CONSTANT_DIGITS)
        for text in ("(10^1000)^4", "(1/10^1000)^4", "9" * MAX_CONSTANT_DIGITS + "*10*x1",
                     "((10^1000)^1000)^1000"):
            with pytest.raises(BudgetError, match="budget exceeded"):
                p(text)
        assert p("(10^999)^4") is rational(10 ** 3996)


    def test_references_resolve_to_earlier_definitions(self):
        defs = [p("x1 + x2")]
        defs.append(parse_expr("3*@1^2 - x0", CTX, defs=defs))
        assert defs[1] is p("3*(x1 + x2)^2 - x0")
        assert parse_expr("@2/@1 + exp(@1)", CTX, defs=defs) is p("(3*(x1 + x2)^2 - x0)/(x1 + x2) + exp(x1 + x2)")
        for text in ("@0", "@3", "@" + "9" * 5000):
            with pytest.raises(ParseError, match="undefined reference"):
                parse_expr(text, CTX, defs=defs)

    def test_reference_without_definitions(self):
        for text in ("@1", "x1 + @1"):
            with pytest.raises(ParseError, match="undefined reference"):
                p(text)
        with pytest.raises(ParseError, match="unexpected character '@'") as err:
            p("x1 + @x2")
        assert err.value.position == 5


class TestDifferentiation:
    def test_power_rule(self):
        assert differentiate(p("x1^2"), "x1") is p("2*x1")

    def test_opaque_increment(self):
        assert differentiate(p("F"), "x0") is p("F_x0")

    def test_independent_coordinate(self):
        assert differentiate(p("x1"), "t") is ZERO

    def test_leibniz(self):
        e = p("x1*F")
        assert differentiate(e, "x1") is add(p("F"), mul(sym("x1"), p("F_x1")))

    def test_quotient(self):
        e = differentiate(p("1/x1"), "x1")
        assert e is p("-1/x1^2")

    def test_elementary_table(self):
        assert differentiate(p("exp(x1)"), "x1") is p("exp(x1)")
        assert differentiate(p("log(x1)"), "x1") is p("1/x1")
        assert differentiate(p("sin(x1)"), "x1") is p("cos(x1)")
        assert differentiate(p("cos(x1)"), "x1") is p("-sin(x1)")
        d = differentiate(p("sqrt(x1)"), "x1")
        assert d is div(rational(Fraction(1, 2)), fun("sqrt", sym("x1")))

    def test_mixed_partials_commute_on_opaque(self):
        e = p("F_t")
        assert differentiate(differentiate(e, "x1"), "x2") is differentiate(
            differentiate(e, "x2"), "x1"
        )


class TestEvaluation:
    def test_square(self):
        assert eval_numeric(p("x1^2"), {"x1": 3}) == 9

    def test_opaque_free_variable(self):
        e = p("F_x1")
        assert eval_numeric(e, {e: 5}) == 5
        assert eval_numeric(e, {"F_x1": 5}) == 5

    def test_division_by_zero_signals(self):
        with pytest.raises(EvalDomainError):
            eval_numeric(p("(x1+x2)/x2"), {"x1": 1, "x2": 0})

    def test_unassigned_symbol(self):
        with pytest.raises(UnassignedSymbolError):
            eval_numeric(p("x1+x2"), {"x1": 1})

    def test_exact_rational_path(self):
        v = eval_numeric(p("x1^2/3 + 1/7"), {"x1": Fraction(1, 2)})
        assert v == Fraction(1, 12) + Fraction(1, 7)
        assert isinstance(v, Fraction)

    def test_float_path_with_functions(self):
        v = eval_numeric(p("exp(x1)"), {"x1": 0.0})
        assert isinstance(v, float) and v == 1.0


class TestZeroTest:
    def test_trivial_zero(self):
        assert is_zero(p("x1 - x1")) is Verdict.ZERO

    def test_trivial_nonzero(self):
        assert is_zero(p("x1 - x2")) is Verdict.NONZERO

    def test_unexpanded_identity(self):
        assert is_zero(p("(x1+1)*(x1-1) - x1^2 + 1")) is Verdict.ZERO

    def test_float_identities(self):
        assert is_zero(p("sin(x1)^2 + cos(x1)^2 - 1")) is Verdict.ZERO
        assert is_zero(p("exp(x1)*exp(x2) - exp(x1+x2)")) is Verdict.ZERO
        assert is_zero(p("exp(x1) - x1")) is Verdict.NONZERO

    def test_indeterminate_when_every_sample_is_a_pole(self):
        assert is_zero(p("log(-1 - x1^2)")) is Verdict.INDETERMINATE

    def test_opaque_symbols_are_independent(self):
        assert is_zero(p("F_x1 - F_x2")) is Verdict.NONZERO

    def test_no_false_zeros_on_nonzero_corpus(self):
        # Schwartz-Zippel soundness at the pinned trial count: a seeded
        # family of structurally-nonzero rational expressions must never
        # test zero.
        rng = random.Random(77)
        zt = ZeroTester()
        for _ in range(60):
            e = _random_expr(rng, allow_fun=False)
            e = add(e, mul(rational(rng.randint(1, 9)), pow_int(sym("x1"), rng.randint(3, 6))))
            statement = sub(e, p("x1^17/9999"))
            assert zt.verdict(statement) is Verdict.NONZERO


def _random_expr(rng: random.Random, depth: int = 0, allow_fun: bool = True):
    leaves = [sym("t"), sym("x0"), sym("x1"), sym("x2"), p("F"), p("F_x1"),
              rational(rng.randint(-4, 4)), rational(rng.randint(1, 5), rng.randint(2, 7))]
    if depth >= 3:
        return leaves[rng.randrange(len(leaves))]
    roll = rng.random()
    a = _random_expr(rng, depth + 1, allow_fun)
    try:
        if roll < 0.30:
            return add(a, _random_expr(rng, depth + 1, allow_fun))
        if roll < 0.60:
            return mul(a, _random_expr(rng, depth + 1, allow_fun))
        if roll < 0.72:
            return pow_int(a, rng.choice([-2, -1, 2, 3]))
        if roll < 0.82 and allow_fun:
            return fun(rng.choice(("exp", "sin", "cos")), a)
        if roll < 0.92:
            return sub(a, _random_expr(rng, depth + 1, allow_fun))
        return div(a, _random_expr(rng, depth + 1, allow_fun))
    except (ZeroDivisionError, ValueError):
        # construction hit a literal pole (0^-n, sqrt of a negative, ...)
        return a


class TestCanonicalForm:
    def test_idempotence_on_seeded_corpus(self):
        rng = random.Random(5)
        for _ in range(120):
            e = _random_expr(rng)
            again = parse_expr(to_string(e), CTX)
            assert again is e

    def test_flatten_and_sort_deterministic(self):
        a = add(sym("x1"), add(sym("x2"), sym("x0")))
        b = add(add(sym("x2"), sym("x1")), sym("x0"))
        assert a is b

    def test_power_collection(self):
        assert mul(sym("x1"), sym("x1"), pow_int(sym("x1"), -1)) is sym("x1")

    def test_scaled_sums_merge_under_addition(self):
        # -(x1 + x2) stays a scalar multiple of the sum as a node, but
        # collecting it into an enclosing sum splats it term by term.
        e = add(sym("x1"), neg(add(sym("x1"), sym("x2"))))
        assert e is neg(sym("x2"))

    def test_expand_cancels_products_of_sums(self):
        e = sub(mul(add(sym("x1"), rational(1)), sub(sym("x1"), rational(1))),
                sub(pow_int(sym("x1"), 2), rational(1)))
        assert expand(e) is ZERO

    def test_rationals_exact(self):
        e = p("1/3 + 1/6")
        assert e is rational(Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_differentiation_commutes(seed):
    rng = random.Random(seed)
    e = _random_expr(rng, allow_fun=False)
    for u, v in (("x1", "x2"), ("t", "x0")):
        duv = differentiate(differentiate(e, u), v)
        dvu = differentiate(differentiate(e, v), u)
        if duv is not dvu:
            # canonical form does not expand products of sums, so the two
            # orders may differ structurally; they must agree expanded
            assert expand(sub(duv, dvu)) is ZERO


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_eval_is_ring_homomorphism(seed):
    rng = random.Random(seed)
    a = _random_expr(rng, allow_fun=False)
    b = _random_expr(rng, allow_fun=False)
    symbols = set(free_symbols(a)) | set(free_symbols(b))
    env = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for s in symbols}
    try:
        va, vb = eval_numeric(a, env), eval_numeric(b, env)
        vsum = eval_numeric(add(a, b), env)
        vprod = eval_numeric(mul(a, b), env)
    except (EvalDomainError, ZeroDivisionError):
        return
    assert vsum == va + vb
    assert vprod == va * vb


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_print_parse_fixed_point(seed):
    rng = random.Random(seed)
    e = _random_expr(rng)
    assert parse_expr(to_string(e), CTX) is e


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_expand_preserves_value(seed):
    rng = random.Random(seed)
    e = _random_expr(rng, allow_fun=False)
    x = expand(e)
    symbols = set(free_symbols(e)) | set(free_symbols(x))
    env = {s: Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for s in symbols}
    try:
        ve, vx = eval_numeric(e, env), eval_numeric(x, env)
    except (EvalDomainError, ZeroDivisionError):
        return
    assert ve == vx


def test_substitute_coordinates():
    e = p("x1^2 + x2")
    out = substitute(e, {sym("x1"): rational(3)})
    assert out is p("9 + x2")


def test_substitute_refuses_opaque_dependencies():
    from paraweb.expr import SubstitutionError

    with pytest.raises(SubstitutionError):
        substitute(p("F_x1"), {sym("x1"): rational(0)})
