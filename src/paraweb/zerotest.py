"""Randomized polynomial identity testing for expressions.

A canonical expression that is literally the constant zero is reported
zero outright.  Anything else is evaluated at independent random rational
assignments, treating every opaque-derivative symbol as a free variable.
For rational-function expressions each sample is exact (tolerance zero),
which is a Schwartz-Zippel style test: a nonzero rational function of
bounded degree vanishes at a random point with small probability, so a
handful of agreeing samples makes a false "zero" vanishingly unlikely.
Expressions containing elementary functions are evaluated in floating
point against a relative tolerance.

Sampling is deterministic: the RNG for an expression is derived from the
configured seed and the expression's structural hash, so verdicts do not
depend on call order and independent samples may be evaluated in
parallel.  For the same reason a tester keeps each node's verdict once
it is sampled: asking again can only give the same answer.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .expr import (
    EvalDomainError,
    Expr,
    eval_numeric,
    free_symbols,
    magnitude_estimate,
)

__all__ = ["Verdict", "ZeroTester", "is_zero", "DEFAULT_TESTER"]

RAT = 0  # expr kind tag for rational constants

# Numerator/denominator bounds for the two sampling boxes.  Exact samples
# use 16-bit entries; float samples stay small so exponentials of sampled
# points keep well clear of overflow.
_EXACT_BOUND = (1 << 16) - 1
_FLOAT_NUM = 48
_FLOAT_DEN = 16
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
        # functions of constants); it is handled by the float path below.
        symbols = free_symbols(e)
        rng = random.Random(self._derive_seed(e))
        exact = not e.has_fun
        samples = 0
        poles_only = True
        for _ in range(self.trials):
            value = self._sample(e, symbols, rng, exact)
            if value is None:
                continue
            poles_only = False
            samples += 1
            val, scale = value
            if exact:
                if val != 0:
                    return Verdict.NONZERO, samples
            else:
                if abs(val) > self.tolerance * max(1.0, scale):
                    return Verdict.NONZERO, samples
        if poles_only:
            return Verdict.INDETERMINATE, samples
        return Verdict.ZERO, samples

    def _derive_seed(self, e: Expr) -> int:
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.seed).encode())
        h.update(e.shash.to_bytes(8, "big"))
        return int.from_bytes(h.digest(), "big")

    def _sample(self, e, symbols, rng, exact):
        def evaluate(env):
            if exact:
                return eval_numeric(e, env), 0.0
            fenv = {s: float(v) for s, v in env.items()}
            val = eval_numeric(e, fenv)
            scale = magnitude_estimate(e, fenv)
            return float(val), scale

        return _pole_free(lambda: {s: self._draw(rng, exact) for s in symbols}, evaluate,
                          _MAX_RESAMPLES)

    def _draw(self, rng: random.Random, exact: bool) -> Fraction:
        if exact:
            num = rng.randint(-_EXACT_BOUND, _EXACT_BOUND)
            den = rng.randint(1, _EXACT_BOUND)
        else:
            num = rng.randint(-_FLOAT_NUM, _FLOAT_NUM)
            den = rng.randint(_FLOAT_DEN, _FLOAT_DEN + _FLOAT_NUM)
        return Fraction(num, den)


DEFAULT_TESTER = ZeroTester()


def is_zero(e: Expr, trials: int = 8, tolerance: float = 1e-9, seed: int = 0) -> Verdict:
    """Three-valued zero test; see ``ZeroTester``."""
    return ZeroTester(trials=trials, tolerance=tolerance, seed=seed).verdict(e)
