"""Randomized polynomial identity testing for expressions.

A canonical expression that is literally the constant zero is reported
zero outright.  Anything else is evaluated at independent random rational
assignments, treating every opaque-derivative symbol as a free variable.
For rational-function expressions each sample is exact (tolerance zero),
which is a Schwartz-Zippel style test: a nonzero rational function of
bounded degree vanishes at a random point with small probability, so a
handful of agreeing samples makes a false "zero" vanishingly unlikely.
Expressions whose only functions are exps of rational linear forms in
the coordinates (the exp class, below) are sampled exactly as well.
Any other elementary function (sin, cos, log, sqrt, or exp of a
non-linear argument) sends the expression to floating point, where it is
compared against a relative tolerance.  Each sample is one walk of
``expr._evaluate``: mod p for exact samples, in exact numbers for the
``Fraction`` checks below, and in (value, magnitude) float pairs for
float samples, whose magnitude scales the tolerance.

Exact samples are taken modulo the prime p = 2^61 - 1, not in
``Fraction``.  A drawn rational ``num/den`` becomes ``num * den^-1 mod p``,
and each sum, product and power is reduced mod p, so no value reaches
p, however large the rational it stands for; ``x^1000000`` costs a few
dozen multiplications.  A negative power of a base that is
0 mod p counts as a pole.  Every value is then the image of a rational
whose denominator p does not divide, so a nonzero residue proves the
rational value nonzero.  The converse can fail, since a nonzero value
that p divides reads as 0, so a ``zero`` verdict is confirmed by one
``Fraction`` evaluation at the first sampled point.  An expression that
has a constant whose denominator p divides, or whose every point is a
pole mod p, is sampled in ``Fraction`` instead.

The exp class.  Let L be the common denominator of every coefficient
c_i, c_0 of every exp argument sum c_i x_i + c_0.  The coordinates x_i
and the functions exp(x_i/L) are algebraically independent (J. Ax, On
Schanuel's conjectures, 1971), and e^(1/L) is transcendental
(Lindemann), so the expression is zero exactly when it is zero as a
rational function of x_i, E_i = exp(x_i/L) and Z = e^(1/L) taken as free
variables.  Each exp node is therefore mapped to the monomial
prod E_i^(c_i L) * Z^(c_0 L), with one generator E_i per coordinate that
occurs in an exp argument and Z only when some c_0 is nonzero.  The
generators are drawn from the exact box with the node's RNG, after the
coordinates; a generator of 0 is not the value of an exp, so it counts
as a pole and the point is redrawn.  The monomials seed the evaluation
memo, which is keyed by node, and the rest is the rational path: samples
mod p, and a ``zero`` verdict confirmed by one ``Fraction`` evaluation
of the same image at the first point.  L and every |c L| are at most
``parser.MAX_EXPONENT``, the bound the parser puts on a literal
exponent, which keeps the powers of that ``Fraction`` check as small as
the parser's; an expression beyond it stays on the float path.

For a rational expression the points are the ones the ``Fraction``
sampler drew: the same 16-bit numerator and denominator pairs, from the
same RNG, in the same order.  So verdicts and sample counts are that
sampler's, except where p divides an intermediate value at a sampled
point: a base that p divides then reads as a pole, and the next point is
drawn; a nonzero value that p divides reads as 0 at that sample.

Sampling is deterministic: the RNG for an expression is derived from the
configured seed and the expression's structural hash, so verdicts do not
depend on call order and independent samples may be evaluated in
parallel.  For the same reason a tester keeps each node's verdict once
it is sampled: asking again can only give the same answer.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .expr import (
    ADD,
    FUN,
    MUL,
    RAT,
    SYM,
    EvalDomainError,
    Expr,
    _EXACT,
    _FLOAT_PAIRS,
    _P,
    _PrimeInDenominator,
    _RESIDUES,
    _evaluate,
    free_symbols,
)
from .parser import MAX_EXPONENT

__all__ = ["Verdict", "ZeroTester", "is_zero"]


# The two sampling boxes, as (numerator bound, least and greatest
# denominator).  Exact samples use 16-bit entries; float samples stay
# small so exponentials of sampled points keep well clear of overflow.
_EXACT_BOX = ((1 << 16) - 1, 1, (1 << 16) - 1)
_FLOAT_BOX = (48, 16, 64)
_MAX_RESAMPLES = 60

# What a random point may hit, so that drawing another is the right
# answer: a pole, a domain error, or a value too large for float().
_RESAMPLE_ERRORS = (EvalDomainError, ZeroDivisionError, OverflowError)


def _pole_free(draw, evaluate, attempts: int):
    """``evaluate(draw())`` at the first drawn point that raises none of
    ``_RESAMPLE_ERRORS``; None if all ``attempts`` points do."""
    for _ in range(attempts):
        point = draw()
        try:
            return evaluate(point)
        except _RESAMPLE_ERRORS:
            continue
    return None


def _linear_form(arg: Expr) -> dict | None:
    """``arg`` as ``{coordinate or None: coefficient}`` when it is a
    rational linear form sum c_i x_i + c_0 in coordinates; else None."""
    form = {}
    for term in arg.children if arg.kind == ADD else (arg,):
        if term.kind == RAT:
            form[None] = term.payload
        elif term.kind == SYM:
            form[term] = Fraction(1)
        elif term.kind == MUL and len(term.children) == 2 and term.children[0].kind == RAT \
                and term.children[1].kind == SYM:
            form[term.children[1]] = term.children[0].payload
        else:
            return None
    return form


def _exp_images(e: Expr) -> tuple[dict, int] | None:
    """How the exact samples map the exp nodes of ``e``.

    Each exp node with argument sum c_i x_i + c_0 becomes the monomial
    prod E_i^(c_i L) * Z^(c_0 L) in independent generators, one E_i per
    coordinate that occurs in an exp argument and Z when some c_0 is
    nonzero, with L the common denominator of all the c's.  Returns the
    exponent tuple of each exp node and the number of generators; None
    when ``e`` has another function, an exp of anything else, or L or a
    scaled exponent above ``MAX_EXPONENT``.
    """
    forms = {}
    stack, seen = [e], set()
    while stack:
        node = stack.pop()
        if not node.has_fun or node.uid in seen:
            continue
        seen.add(node.uid)
        if node.kind != FUN:
            stack.extend(node.children)
            continue
        form = _linear_form(node.children[0]) if node.payload == "exp" else None
        if form is None:
            return None
        forms[node] = form
    coeffs = [c for form in forms.values() for c in form.values()]
    lcd = math.lcm(*(c.denominator for c in coeffs))
    generators = sorted({x for form in forms.values() for x in form if x is not None}, key=lambda x: x.key)
    if any(None in form for form in forms.values()):
        generators.append(None)
    if lcd > MAX_EXPONENT or any(abs(c) * lcd > MAX_EXPONENT for c in coeffs):
        return None
    exps = {node: tuple(int(form.get(g, 0) * lcd) for g in generators) for node, form in forms.items()}
    return exps, len(generators)


def _residue_of(num: int, den: int) -> int:
    return num * pow(den, -1, _P) % _P


def _monomial_mod(gens: list, powers: tuple) -> int:
    return math.prod(pow(g, n, _P) for g, n in zip(gens, powers)) % _P


def _monomial(gens: list, powers: tuple) -> Fraction:
    return math.prod(g ** n for g, n in zip(gens, powers))


class Verdict(str, enum.Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ZeroTester:
    """Zero test with a fixed policy (trials, float tolerance, seed).

    Each sampled ``(verdict, samples)`` is kept per node for the life of
    the tester; a tester made per problem frees them with the problem.
    """

    trials: int = 8
    tolerance: float = 1e-9
    seed: int = 0
    _verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def verdict(self, e: Expr) -> Verdict:
        return self.verdict_stats(e)[0]

    def verdict_stats(self, e: Expr) -> tuple[Verdict, int]:
        """Verdict together with the number of samples actually evaluated."""
        got = self._verdicts.get(e)
        if got is None:
            got = self._verdicts[e] = self._sampled_verdict(e)
        return got

    def _sampled_verdict(self, e: Expr) -> tuple[Verdict, int]:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if e.kind == RAT:
            return (Verdict.ZERO if e.payload == 0 else Verdict.NONZERO), 0
        # A symbol-free non-constant expression can still occur (elementary
        # functions of constants); the paths below handle it too.
        symbols = free_symbols(e)
        exps = _exp_images(e)
        if exps is None:
            def float_zero(point):
                env = {s: num / den for s, (num, den) in zip(symbols, point)}
                val, scale = _evaluate(e, env, {}, _FLOAT_PAIRS)
                return abs(float(val)) <= self.tolerance * max(1.0, scale)

            return self._tally(e, _FLOAT_BOX, len(symbols), float_zero)[:2]
        # Each exp node is a monomial in the generators, which are drawn
        # after the coordinates: a rational expression draws none.
        exps, generators = exps
        width = len(symbols) + generators

        def image(point, value, monomial):
            """The env and the seeded memo of one point, each drawn pair
            mapped by ``value``, each exp node by ``monomial``."""
            gens = point[len(symbols):]
            if any(num == 0 for num, _ in gens):
                raise EvalDomainError("a generator is 0")
            gens = [value(num, den) for num, den in gens]
            env = {s: value(num, den) for s, (num, den) in zip(symbols, point)}
            return env, {node.uid: monomial(gens, powers) for node, powers in exps.items()}

        def residue_zero(point):
            env, memo = image(point, _residue_of, _monomial_mod)
            return _evaluate(e, env, memo, _RESIDUES) == 0

        def exact_value(point):
            return _evaluate(e, *image(point, Fraction, _monomial), _EXACT)

        try:
            verdict, samples, first = self._tally(e, _EXACT_BOX, width, residue_zero)
        except _PrimeInDenominator:
            verdict = Verdict.INDETERMINATE
        if verdict is Verdict.INDETERMINATE:
            # A constant has no residue, or every point was a pole mod p
            # (say, of a base that p divides as a polynomial).
            return self._tally(e, _EXACT_BOX, width, lambda point: exact_value(point) == 0)[:2]
        # A nonzero value that p divides reads as 0 mod p.  At the first
        # point the Fraction sampler would have stopped with one sample.
        if verdict is Verdict.ZERO and exact_value(first) != 0:
            return Verdict.NONZERO, 1
        return verdict, samples

    def _tally(self, e, box, width, is_zero):
        """``(verdict, samples, first point)`` over ``trials`` pole-free
        points, each ``width`` pairs ``(num, den)`` drawn from ``box`` with
        the node's RNG; ``is_zero(point)`` decides one sample."""
        rng = random.Random(self._derive_seed(e))
        num_bound, den_low, den_high = box

        def draw():
            return [(rng.randint(-num_bound, num_bound), rng.randint(den_low, den_high))
                    for _ in range(width)]

        samples = 0
        first = None
        for _ in range(self.trials):
            got = _pole_free(draw, lambda point: (point, is_zero(point)), _MAX_RESAMPLES)
            if got is None:
                continue
            point, zero = got
            samples += 1
            if first is None:
                first = point
            if not zero:
                return Verdict.NONZERO, samples, first
        if first is None:
            return Verdict.INDETERMINATE, samples, first
        return Verdict.ZERO, samples, first

    def _derive_seed(self, e: Expr) -> int:
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.seed).encode())
        h.update(e.shash.to_bytes(8, "big"))
        return int.from_bytes(h.digest(), "big")


def is_zero(e: Expr, trials: int = 8, tolerance: float = 1e-9, seed: int = 0) -> Verdict:
    """Three-valued zero test; see ``ZeroTester``."""
    return ZeroTester(trials=trials, tolerance=tolerance, seed=seed).verdict(e)
