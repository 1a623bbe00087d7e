"""Vector fields, one-forms and the total derivative on jet space.

Fields and forms are sparse coefficient maps over a frame of coordinate
directions; all coefficients are canonical expressions.  On the jet space
of an ODE of order k+1 the frame is (t, x0, ..., xk); on the coordinate
space of a web it is (x0, ..., xk).  Everything here is pure and
frame-agnostic: the geometry-specific normalisations live downstream.

A field is applied to a scalar in one of two ways.  ``VectorField.apply``
goes partials first: it differentiates the scalar along each direction
and sums X^c * de/dc.  The total derivative of an ODE (``TotalDerivative``,
one instance per ``OdeProblem``) is applied as a derivation instead: one
recursive pass maps a sum to the sum of the X(term), a product by the
Leibniz rule and a power by the chain rule, and takes partials only at
symbols and function nodes.  The results are memoised on that instance,
so they are freed with the problem; this module keeps no cache of its
own.  Web fields stay partials first: their coefficients are quotients
(dw_j)^-1, and pushing such a field through a sum copies them into every
term, which made the web reports twice as large.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .expr import (
    ADD,
    MUL,
    ONE,
    POW,
    RAT,
    Expr,
    ZERO,
    _leibniz_terms,
    add_iter,
    differentiate,
    mul,
    pow_int,
    rational,
    sub,
    sym,
)
from .parser import Context, parse_expr

__all__ = [
    "FrameError",
    "VectorField",
    "OneForm",
    "OdeProblem",
    "TotalDerivative",
    "lie_bracket",
]


class FrameError(ValueError):
    pass


def _clean(comps: dict) -> dict:
    return {k: v for k, v in comps.items() if v is not ZERO}


@dataclass(frozen=True)
class VectorField:
    """Sparse vector field: coordinate name -> coefficient expression."""

    frame: tuple[str, ...]
    comps: dict[str, Expr]

    def __post_init__(self):
        object.__setattr__(self, "comps", _clean(self.comps))
        for c in self.comps:
            if c not in self.frame:
                raise FrameError(f"component {c!r} outside frame")

    def comp(self, c: str) -> Expr:
        return self.comps.get(c, ZERO)

    def apply(self, e: Expr) -> Expr:
        """Directional derivative of a scalar."""
        return self._partials(e)

    def _partials(self, e: Expr) -> Expr:
        # Partials first: sum_c X^c * de/dc, over the nonzero partials;
        # X^c * 1 is X^c itself, and a constant has no nonzero partial.
        if e.kind == RAT:
            return ZERO
        terms = []
        for c, v in self.comps.items():
            d = differentiate(e, c)
            if d is ONE:
                terms.append(v)
            elif d is not ZERO:
                terms.append(mul(v, d))
        return add_iter(terms)

    def plus(self, other: "VectorField") -> "VectorField":
        self._check(other)
        keys = set(self.comps) | set(other.comps)
        return VectorField(self.frame, {c: self.comp(c) + other.comp(c) for c in keys})

    def scaled(self, s: Expr) -> "VectorField":
        return VectorField(self.frame, {c: mul(s, v) for c, v in self.comps.items()})

    def _check(self, other):
        if self.frame != other.frame:
            raise FrameError("vector fields live over different frames")


@dataclass(frozen=True)
class OneForm:
    frame: tuple[str, ...]
    comps: dict[str, Expr]

    def __post_init__(self):
        object.__setattr__(self, "comps", _clean(self.comps))
        for c in self.comps:
            if c not in self.frame:
                raise FrameError(f"component {c!r} outside frame")

    def comp(self, c: str) -> Expr:
        return self.comps.get(c, ZERO)

    def __call__(self, v: VectorField) -> Expr:
        # v keeps no zero component, so a term without one is zero
        return add_iter(mul(w, v.comps[c]) for c, w in self.comps.items() if c in v.comps)

    def plus(self, other: "OneForm") -> "OneForm":
        keys = set(self.comps) | set(other.comps)
        return OneForm(self.frame, {c: self.comp(c) + other.comp(c) for c in keys})

    def scaled(self, s: Expr) -> "OneForm":
        return OneForm(self.frame, {c: mul(s, v) for c, v in self.comps.items()})


# ---------------------------------------------------------------------------
# ODE problems on jet space

@dataclass(frozen=True)
class OdeProblem:
    """An ODE x^(k+1) = F(t, x, x', ..., x^(k)) presented on the k-jet space.

    ``rhs`` is a canonical expression; an undetermined right-hand side is
    simply the bare opaque symbol F.
    """

    order: int
    context: Context
    rhs: Expr

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("ODE order must be at least 2")

    @property
    def k(self) -> int:
        return self.order - 1

    @property
    def coords(self) -> tuple[str, ...]:
        return self.context.coords

    @staticmethod
    def jet_context(order: int, extra_functions: dict[str, tuple[str, ...]] | None = None) -> Context:
        if order < 2:
            raise ValueError("ODE order must be at least 2")
        if order > 10:
            raise ValueError("orders beyond 10 exceed the coordinate alphabet x0..x9")
        coords = ("t",) + tuple(f"x{i}" for i in range(order))
        functions = {"F": coords}
        if extra_functions:
            functions.update(extra_functions)
        return Context(coords=coords, functions=functions)

    @classmethod
    def abstract(cls, order: int) -> "OdeProblem":
        ctx = cls.jet_context(order)
        return cls(order, ctx, ctx.opaque_symbol("F"))

    @classmethod
    def from_rhs(cls, order: int, rhs: str | Expr) -> "OdeProblem":
        ctx = cls.jet_context(order)
        if isinstance(rhs, str):
            rhs = ctx.opaque_symbol("F") if rhs.strip() == "abstract" else parse_expr(rhs, ctx)
        return cls(order, ctx, rhs)


    @cached_property
    def total_derivative(self) -> "TotalDerivative":
        """The total derivative X = d/dt + x1 d/dx0 + ... + F d/dxk.

        Built once per problem, so every object derived from the problem
        shares its memo, and the memo is freed with the problem.
        """
        k = self.k
        comps: dict[str, Expr] = {"t": rational(1)}
        for i in range(k):
            comps[f"x{i}"] = sym(f"x{i + 1}")
        comps[f"x{k}"] = self.rhs
        return TotalDerivative(self.coords, comps)


class TotalDerivative(VectorField):
    """The total derivative of an ODE, applied as a derivation.

    ``apply`` pushes X through a sum term by term, through a product by
    the Leibniz rule and through an integer power by the chain rule.
    Only at symbols and function nodes does it take the partials-first
    sum of ``VectorField.apply``.  A large node so costs one pass, not
    one derivative per coordinate, and the result keeps the sharing of
    its argument.  Results are memoised per node on the instance.  A
    product inside a sum hands its Leibniz terms to the sum, which
    collects them with its other terms once; collection is confluent, so
    the node is the one a collected Leibniz sum per product would give.
    """

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_memo", {})
        # product -> its Leibniz terms, which a sum containing the product
        # collects along with its other terms
        object.__setattr__(self, "_leibniz_memo", {})

    def apply(self, e: Expr) -> Expr:
        """X(e), equal to ``VectorField.apply`` but built node by node."""
        # The recursion runs in ``_derive``, so one call of ``apply`` (the
        # name an instrumented run wraps) stays one application of X.
        return self._derive(e)

    def _derive(self, e: Expr) -> Expr:
        out = self._memo.get(e)
        if out is not None:
            return out
        kind = e.kind
        if kind == RAT:
            out = ZERO
        elif kind == ADD:
            # Collecting once gives the node that collecting each product's
            # Leibniz sum first would, without building that sum.
            terms = []
            for c in e.children:
                if c.kind == MUL:
                    terms.extend(self._leibniz(c))
                else:
                    terms.append(self._derive(c))
            out = add_iter(terms)
        elif kind == MUL:
            out = add_iter(self._leibniz(e))
        elif kind == POW:
            base, n = e.children[0], e.payload
            db = self._derive(base)
            out = ZERO if db is ZERO else mul(rational(n), pow_int(base, n - 1), db)
        else:
            out = self._partials(e)
        self._memo[e] = out
        return out

    def _leibniz(self, e: Expr) -> list[Expr]:
        """The terms X(c_i) * prod_{j != i} c_j of a product, X(c_i) nonzero."""
        terms = self._leibniz_memo.get(e)
        if terms is None:
            terms = self._leibniz_memo[e] = _leibniz_terms(e, self._derive)
        return terms


# ---------------------------------------------------------------------------
# Brackets

def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    """[a, b], coefficient-wise a(b^i) - b(a^i)."""
    a._check(b)
    keys = set(a.comps) | set(b.comps)
    comps = {c: sub(a.apply(b.comp(c)), b.apply(a.comp(c))) for c in keys}
    return VectorField(a.frame, comps)
