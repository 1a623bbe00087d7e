"""Immutable symbolic expression kernel with exact rational arithmetic.

Expressions are trees over jet coordinates, exact rationals, a small set
of elementary functions and "opaque" derivative symbols of undetermined
functions (a right-hand side F, a web function w, ...).  Every node is
hash-consed: building the same canonical expression twice yields the same
Python object, so equality is identity and large expression DAGs share
structure.  Canonical form flattens and sorts sums and products, folds
rational constants, collects like terms and merges integer powers.  It
never expands products over sums; deciding whether a non-obvious
expression vanishes is the job of randomized identity testing (see
``paraweb.zerotest``).

A node holds its sort key, a structural hash that is stable across
processes and its serial number.  A sum's or product's key is the flat
tuple (kind, *child keys), and a product is interned under its children
tuple, any other node under (kind, payload, children), so a product
keeps no tuple besides its children and its key (and its split, below,
when it has a rational factor).

All values are immutable and all operations are pure, so expressions can
be shared and evaluated from multiple threads; the intern table is only
mutated through atomic ``dict.setdefault`` calls.  The one field filled
after construction, a product's (coefficient, monomial) ``split``, is
written with a single attribute store of a finished pair: threads that
race to fill it compute equal pairs with the same interned monomial, and
a reader sees either None or one of them.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

__all__ = [
    "Expr",
    "ExprError",
    "EvaluationError",
    "UnassignedSymbolError",
    "EvalDomainError",
    "SubstitutionError",
    "BudgetError",
    "MAX_CONSTANT_DIGITS",
    "ELEMENTARY_FUNCTIONS",
    "rational",
    "integer",
    "sym",
    "opaque",
    "fun",
    "add",
    "mul",
    "pow_int",
    "neg",
    "sub",
    "div",
    "ZERO",
    "ONE",
    "differentiate",
    "eval_numeric",
    "free_symbols",
    "substitute",
    "symbol_name",
    "to_string",
    "DEF_MIN_CHARS",
    "Printer",
]

Number = Union[int, Fraction, float]

# Node kinds; the integer doubles as the major rank of the canonical order.
RAT, SYM, OPAQUE, FUN, POW, MUL, ADD = range(7)

ELEMENTARY_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


class ExprError(Exception):
    pass


class EvaluationError(ExprError):
    pass


class UnassignedSymbolError(EvaluationError):
    pass


class EvalDomainError(EvaluationError):
    """Evaluation hit a pole or left the domain of an elementary function."""


class SubstitutionError(ExprError):
    pass


class BudgetError(ExprError):
    """A constant outgrew ``MAX_CONSTANT_DIGITS``."""


# Digits of the numerator or denominator of one rational constant.  The
# printer converts constants with ``str``, which refuses more than 4,300
# digits by default; bounding every constant node keeps each report
# printable and stops a nested power of a literal before it is built.
MAX_CONSTANT_DIGITS = 4000
_CONSTANT_LIMIT = 10 ** MAX_CONSTANT_DIGITS


def _too_large() -> BudgetError:
    return BudgetError(f"budget exceeded: constants have at most {MAX_CONSTANT_DIGITS} digits")


class Expr:
    """A canonical, interned expression node.  Use the module-level
    constructors; never instantiate directly."""

    # ``split`` is the (coefficient, monomial) pair of a product with a
    # rational factor, filled by ``_coeff_mono`` on first use; it is None
    # until then and on every other node.
    __slots__ = ("kind", "payload", "children", "key", "shash", "has_fun", "uid", "split")

    kind: int
    children: tuple["Expr", ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Expr({to_string(self)})"

    def __str__(self) -> str:
        return to_string(self)

    # Identity semantics: interning guarantees canonical-equal expressions
    # are the same object.
    __hash__ = object.__hash__

    def __eq__(self, other: object) -> bool:
        return self is other

    # Small operator sugar, handy in tests and notebooks.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, n: int):
        return pow_int(self, n)

    def __neg__(self):
        return neg(self)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    raise TypeError(f"cannot coerce {x!r} to Expr")


# ---------------------------------------------------------------------------
# Interning

_INTERN: dict = {}
_RAT_INTERN: dict = {}
_UID = itertools.count()

_MASK = (1 << 64) - 1
_FNV_PRIME = 0x100000001B3
_FNV_BASIS = 0xCBF29CE484222325
_STR_HASH_CACHE: dict[str, int] = {}


def _mix(h: int, v: int) -> int:
    return ((h ^ (v & _MASK)) * _FNV_PRIME) & _MASK


def _str_hash(s: str) -> int:
    # Stable across processes, unlike the interpreter's salted str hash.
    got = _STR_HASH_CACHE.get(s)
    if got is None:
        got = _FNV_BASIS
        for b in s.encode():
            got = _mix(got, b)
        _STR_HASH_CACHE[s] = got
    return got


def _structural_hash(kind: int, payload, children: tuple[Expr, ...]) -> int:
    h = _mix(_FNV_BASIS, kind)
    if kind == RAT:
        h = _mix(h, payload.numerator)
        h = _mix(h, payload.denominator)
    elif kind in (SYM, FUN):
        h = _mix(h, _str_hash(payload))
    elif kind == OPAQUE:
        name, deps, orders = payload
        h = _mix(h, _str_hash(name))
        for d in deps:
            h = _mix(h, _str_hash(d))
        for o in orders:
            h = _mix(h, o)
    elif kind == POW:
        h = _mix(h, payload)
    for c in children:
        h = _mix(h, c.shash)
    return h


def _plain(q: Fraction) -> Number:
    """``q`` as an int when it is integral, else ``q`` itself."""
    return q.numerator if q.denominator == 1 else q


_key = operator.attrgetter("key")


def _sort_key(kind: int, payload, children: tuple[Expr, ...]):
    """The sort key of a node of any kind but a sum or product."""
    if kind == RAT:
        # An int orders like the equal Fraction but compares much faster.
        return (RAT, _plain(payload))
    if kind == SYM:
        return (SYM, payload)
    if kind == OPAQUE:
        name, deps, orders = payload
        return (OPAQUE, name, orders, deps)
    if kind == FUN:
        return (FUN, payload, children[0].key)
    return (POW, children[0].key, payload)


def _make(kind: int, payload, children: tuple[Expr, ...]) -> Expr:
    # A product is interned under its children tuple, any other node under
    # (kind, payload, children).  The first item of the one is a node and of
    # the other an int, so the two never compare equal.  Children hash and
    # compare by identity, so each key is as exact as one built from ids.
    ident = children if kind == MUL else (kind, payload, children)
    node = _INTERN.get(ident)
    if node is not None:
        return node
    node = object.__new__(Expr)
    node.kind = kind
    node.payload = payload
    node.children = children
    if kind < MUL:
        node.key = _sort_key(kind, payload, children)
        node.shash = _structural_hash(kind, payload, children)
        node.has_fun = kind == FUN or any(c.has_fun for c in children)
    else:
        # _structural_hash, a flat key (kind, *child keys) that orders like
        # (kind, child keys) and has_fun, in one pass over the children
        h = _mix(_FNV_BASIS, kind)
        key = [kind]
        has_fun = False
        for c in children:
            h = (h ^ c.shash) * _FNV_PRIME & _MASK
            key.append(c.key)
            has_fun = has_fun or c.has_fun
        node.key = tuple(key)
        node.shash = h
        node.has_fun = has_fun
    node.uid = next(_UID)
    node.split = None
    return _INTERN.setdefault(ident, node)


# ---------------------------------------------------------------------------
# Constructors

def rational(p: Union[int, Fraction], q: int = 1) -> Expr:
    """Exact rational constant p/q; ``BudgetError`` past ``MAX_CONSTANT_DIGITS``."""
    if q != 1:
        p = Fraction(p, q)
    elif type(p) is not int and not isinstance(p, Fraction):
        p = Fraction(p)
    # an int, the usual argument, is looked up without making a Fraction
    ident = (p, 1) if type(p) is int else (p.numerator, p.denominator)
    node = _RAT_INTERN.get(ident)
    if node is not None:
        return node
    if not -_CONSTANT_LIMIT < ident[0] < _CONSTANT_LIMIT or ident[1] >= _CONSTANT_LIMIT:
        raise _too_large()
    node = _make(RAT, Fraction(p), ())
    return _RAT_INTERN.setdefault(ident, node)


def integer(n: int) -> Expr:
    return rational(n)


ZERO = rational(0)
ONE = rational(1)
MINUS_ONE = rational(-1)


def sym(name: str) -> Expr:
    """A coordinate symbol."""
    return _make(SYM, name, ())


def opaque(name: str, deps: tuple[str, ...], orders: tuple[int, ...] | None = None) -> Expr:
    """Derivative symbol of an undetermined function.

    ``deps`` lists the coordinates the function depends on, in a fixed
    order; ``orders`` gives the number of partial derivatives taken in
    each of them.  The all-zero multi-index is the bare function symbol.
    Two symbols are equal iff name and multi-index agree; mixed partials
    commute by construction because only the counts are stored.
    """
    if orders is None:
        orders = (0,) * len(deps)
    if len(orders) != len(deps):
        raise ValueError("orders must align with deps")
    if any(o < 0 for o in orders):
        raise ValueError("derivative orders must be non-negative")
    return _make(OPAQUE, (name, tuple(deps), tuple(orders)), ())


def fun(name: str, arg: Expr) -> Expr:
    """Elementary function application exp/log/sin/cos/sqrt."""
    if name not in ELEMENTARY_FUNCTIONS:
        raise ValueError(f"unknown elementary function {name!r}")
    if arg.kind == RAT:
        v = arg.payload
        if name == "exp" and v == 0:
            return ONE
        if name == "log" and v == 1:
            return ZERO
        if name == "sin" and v == 0:
            return ZERO
        if name == "cos" and v == 0:
            return ONE
        if name == "sqrt":
            if v < 0:
                raise ValueError("sqrt of a negative rational")
            rn, rd = _isqrt_exact(v.numerator), _isqrt_exact(v.denominator)
            if rn is not None and rd is not None:
                return rational(Fraction(rn, rd))
    return _make(FUN, name, (arg,))


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


def _coeff_mono(t: Expr) -> tuple[Number, Expr]:
    """Split a non-rational canonical term into (rational coefficient, monomial).

    The coefficient is an int when integral (see ``_plain``).  A product
    with a rational factor keeps its split in ``t.split``, so its
    monomial is interned once.
    """
    if t.kind != MUL or t.children[0].kind != RAT:
        return 1, t
    split = t.split
    if split is None:
        first, rest = t.children[0], t.children[1:]
        split = _plain(first.payload), (rest[0] if len(rest) == 1 else _make(MUL, None, rest))
        t.split = split
    return split


def _scale_mono(c: Number, m: Expr) -> Expr:
    """Attach a nonzero, non-unit rational coefficient to a coefficient-free monomial."""
    coeff = rational(c)
    if m.kind == MUL:
        return _make(MUL, None, (coeff,) + m.children)
    return _make(MUL, None, (coeff, m))


def add(*terms: Expr) -> Expr:
    return add_iter(terms)


def add_iter(terms: Iterable[Expr], minus: Iterable[Expr] = ()) -> Expr:
    """The canonical sum of ``terms`` minus the sum of ``minus``.

    Sums are flattened, rationals fold into one constant and a term
    c * m (c its rational coefficient, m its monomial) adds c to the
    entry of m.  A rational multiple c * S of a sum and each term of
    ``minus`` (with c = -1) are collected as coefficients: each term
    c' * m' of S, or of the subtrahend, adds c * c' to the entry of m',
    and no product c * c' * m' is built for it.  Only an entry's final
    term is built, once: a term that is alone with its monomial is kept
    as it is, and any other entry with a nonzero coefficient becomes
    that coefficient times its monomial.
    """
    const = 0
    # monomial -> [coefficient, the term itself while it is the only one]
    by_mono: dict[Expr, list] = {}
    # (coefficient, term) pairs: the terms of a scaled sum and of ``minus``
    pairs = [(-1, t) for t in minus]
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        if t.kind == ADD:
            stack.extend(reversed(t.children))
            continue
        if t.kind == RAT:
            const += _plain(t.payload)
            continue
        c, m = _coeff_mono(t)
        if m.kind == ADD:
            pairs.extend((c, ch) for ch in m.children)
            continue
        acc = by_mono.get(m)
        if acc is None:
            by_mono[m] = [c, t]
        else:
            acc[0] += c
            acc[1] = None
    while pairs:
        k, t = pairs.pop()
        if t.kind == ADD:
            pairs.extend((k, ch) for ch in t.children)
            continue
        if t.kind == RAT:
            const += k * _plain(t.payload)
            continue
        c, m = _coeff_mono(t)
        c *= k
        if m.kind == ADD:
            pairs.extend((c, ch) for ch in m.children)
            continue
        acc = by_mono.get(m)
        if acc is None:
            by_mono[m] = [c, None]
        else:
            acc[0] += c
            acc[1] = None
    out: list[Expr] = []
    for m, (c, t) in by_mono.items():
        if t is not None:
            out.append(t)
        elif c:
            out.append(m if c == 1 else _scale_mono(c, m))
    if const:
        out.append(rational(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_key)
    return _make(ADD, None, tuple(out))


def mul(*factors: Expr) -> Expr:
    return mul_iter(factors)


def mul_iter(factors: Iterable[Expr]) -> Expr:
    coeff = 1
    # the rational factor, while it is the only one
    coeff_node = None
    # base -> [exponent, the factor itself while it is the only one]
    by_base: dict[Expr, list] = {}
    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        kind = f.kind
        if kind == MUL:
            stack.extend(reversed(f.children))
            continue
        if kind == RAT:
            if coeff_node is None and coeff == 1:
                coeff_node, coeff = f, _plain(f.payload)
            else:
                coeff_node, coeff = None, coeff * _plain(f.payload)
            if not coeff:
                return ZERO
            continue
        if kind == POW:
            base, n = f.children[0], f.payload
        else:
            base, n = f, 1
        acc = by_base.get(base)
        if acc is None:
            by_base[base] = [n, f]
        else:
            acc[0] += n
            acc[1] = None
    # A base is never a rational, product or power, so each collected
    # power is one POW node (or the base itself, or gone).
    out: list[Expr] = []
    for base, (n, f) in by_base.items():
        if f is not None:
            out.append(f)
        elif n:
            out.append(base if n == 1 else _make(POW, n, (base,)))
    if not out:
        return coeff_node or rational(coeff)
    if coeff != 1:
        out.insert(0, coeff_node or rational(coeff))
    if len(out) == 1:
        return out[0]
    out.sort(key=_key)
    return _make(MUL, None, tuple(out))


def pow_int(base: Expr, n: int) -> Expr:
    """Integer power.  Negative exponents are how quotients are stored."""
    if not isinstance(n, int):
        raise TypeError("exponent must be an integer")
    if n == 0:
        return ONE
    if n == 1:
        return base
    if base.kind == RAT:
        q = base.payload
        if q == 0 and n < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        # q^n has a part of at least |n| (bits - 1) + 1 bits: a power that
        # must pass the limit is refused before it is computed
        bits = max(abs(q.numerator).bit_length(), q.denominator.bit_length())
        if abs(n) * (bits - 1) >= _CONSTANT_LIMIT.bit_length():
            raise _too_large()
        return rational(q ** n)
    if base.kind == MUL:
        return mul_iter(pow_int(c, n) for c in base.children)
    if base.kind == POW:
        return pow_int(base.children[0], base.payload * n)
    return _make(POW, n, (base,))


def neg(e: Expr) -> Expr:
    return mul(MINUS_ONE, e)


def sub(a: Expr, b: Expr) -> Expr:
    return add_iter((a,), (b,))


def div(a: Expr, b: Expr) -> Expr:
    return mul(a, pow_int(b, -1))


# ---------------------------------------------------------------------------
# Differentiation

_DIFF_CACHE: dict[tuple[int, str], Expr] = {}


def differentiate(e: Expr, v: str) -> Expr:
    """Partial derivative with respect to the coordinate named ``v``.

    Linear, satisfies the Leibniz rule, and on an opaque symbol either
    increments the matching multi-index entry or returns zero when the
    underlying function does not depend on ``v``.
    """
    cached = _DIFF_CACHE.get((e.uid, v))
    if cached is not None:
        return cached
    k = e.kind
    if k == RAT:
        out = ZERO
    elif k == SYM:
        out = ONE if e.payload == v else ZERO
    elif k == OPAQUE:
        name, deps, orders = e.payload
        if v in deps:
            i = deps.index(v)
            bumped = orders[:i] + (orders[i] + 1,) + orders[i + 1:]
            out = opaque(name, deps, bumped)
        else:
            out = ZERO
    elif k == ADD:
        # A product whose derivative is not cached gives its Leibniz terms
        # straight to this sum, which collects them once: collection is
        # confluent, so the node is the one collecting each product's
        # derivative first would give.
        terms = []
        for c in e.children:
            if c.kind == MUL and (c.uid, v) not in _DIFF_CACHE:
                terms.extend(_leibniz_terms(c, lambda f: differentiate(f, v)))
            else:
                terms.append(differentiate(c, v))
        out = add_iter(terms)
    elif k == MUL:
        out = add_iter(_leibniz_terms(e, lambda f: differentiate(f, v)))
    elif k == POW:
        base, n = e.children[0], e.payload
        db = differentiate(base, v)
        out = ZERO if db is ZERO else mul(rational(n), pow_int(base, n - 1), db)
    else:  # FUN
        arg = e.children[0]
        da = differentiate(arg, v)
        if da is ZERO:
            out = ZERO
        else:
            name = e.payload
            if name == "exp":
                outer = e
            elif name == "log":
                outer = pow_int(arg, -1)
            elif name == "sin":
                outer = fun("cos", arg)
            elif name == "cos":
                outer = neg(fun("sin", arg))
            else:  # sqrt
                outer = mul(rational(Fraction(1, 2)), pow_int(e, -1))
            out = mul(outer, da)
    _DIFF_CACHE[(e.uid, v)] = out
    return out


def _leibniz_terms(e: Expr, derive: Callable[[Expr], Expr]) -> list[Expr]:
    """The terms derive(c_i) * prod_{j != i} c_j of the product ``e``
    whose derive(c_i) is nonzero."""
    terms = []
    cs = e.children
    for i, c in enumerate(cs):
        dc = derive(c)
        if dc is not ZERO:
            terms.append(mul_iter(cs[:i] + (dc,) + cs[i + 1:]))
    return terms


# ---------------------------------------------------------------------------
# Evaluation

def symbol_name(e: Expr) -> str:
    """Printable name of a coordinate or opaque-derivative symbol."""
    if e.kind == SYM:
        return e.payload
    if e.kind == OPAQUE:
        name, deps, orders = e.payload
        tail = "".join("_" + d for d, o in zip(deps, orders) for _ in range(o))
        return name + tail
    raise ValueError("not a symbol node")


def _lookup(e: Expr, env: Mapping) -> Number:
    if e in env:
        return env[e]
    name = symbol_name(e)
    if name in env:
        return env[name]
    raise UnassignedSymbolError(f"no value assigned to symbol {name!r}")


def eval_numeric(e: Expr, env: Mapping, memo: dict | None = None) -> Number:
    """Evaluate at an assignment of symbols to numbers.

    ``env`` maps symbol nodes (or their printed names) to numbers.  The
    result is an exact ``Fraction`` whenever every assigned value is
    rational and no elementary function occurs; otherwise it is a float.
    Division by zero at the assignment raises ``EvalDomainError`` so
    callers can resample.
    """
    return _evaluate(e, env, {} if memo is None else memo, _EXACT)


def _evaluate(e: Expr, env: Mapping, memo: dict, arithmetic: tuple):
    """``e`` at an assignment, in one of the arithmetics below.

    An arithmetic is five rules: the value of a constant (a rational
    node's payload or a symbol's assigned value), of a sum and of a
    product, of an integer power, and of an elementary function.  Each
    node is evaluated once per ``memo``, which maps node uids to values;
    a value the caller put there (the zero test seeds exp nodes) is that
    node's value.  The sum and product rules call ``value`` on each
    child themselves: given a list of child values instead, mod-p walks
    measured about 20% slower.
    """
    const, add, mul, power, fun = arithmetic

    def value(e: Expr):
        got = memo.get(e.uid)
        if got is not None:
            return got
        k = e.kind
        if k == ADD:
            val = add(value, e.children)
        elif k == MUL:
            val = mul(value, e.children)
        elif k == POW:
            val = power(value(e.children[0]), e.payload)
        elif k == RAT:
            val = const(e.payload)
        elif k == FUN:
            val = fun(e.payload, value(e.children[0]))
        else:
            val = const(_lookup(e, env))
        memo[e.uid] = val
        return val

    # ``value`` refers to itself, and that cycle would keep a memo the
    # caller dropped alive until the cycle collector runs.
    try:
        return value(e)
    finally:
        del value


def _finite(x: Number) -> Number:
    if isinstance(x, float) and not math.isfinite(x):
        raise EvalDomainError("non-finite value")
    return x


def _power(b: Number, n: int) -> Number:
    if b == 0 and n < 0:
        raise EvalDomainError("division by zero at assignment")
    try:
        return b ** n
    except OverflowError as exc:
        raise EvalDomainError("overflow in power") from exc


def _eval_fun(name: str, x: float) -> float:
    try:
        if name == "exp":
            return math.exp(x)
        if name == "log":
            if x <= 0.0:
                raise EvalDomainError("log of a non-positive value")
            return math.log(x)
        if name == "sin":
            return math.sin(x)
        if name == "cos":
            return math.cos(x)
        if x < 0.0:
            raise EvalDomainError("sqrt of a negative value")
        return math.sqrt(x)
    except OverflowError as exc:
        raise EvalDomainError("overflow in elementary function") from exc


def _exact_product(value: Callable, children: tuple[Expr, ...]) -> Number:
    val = 1
    for c in children:
        val = val * value(c)
    return _finite(val)


# Exact numbers: int or Fraction, or float once a value is.  Sums are the
# builtin ``sum`` (it compensates floats from Python 3.12).  Of finite
# values only a sum or a product can be infinite or NaN.
_EXACT = (
    _finite,
    lambda value, children: _finite(sum([value(c) for c in children])),
    _exact_product,
    _power,
    lambda name, a: _eval_fun(name, float(a)),
)


# The prime of the zero test's exact samples (see ``paraweb.zerotest``).
_P = (1 << 61) - 1


class _PrimeInDenominator(EvaluationError):
    """A constant has no residue mod ``_P``: ``_P`` divides its denominator."""


def _residue(q: Number) -> int:
    """``q`` mod ``_P``."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return num % _P
    if den % _P == 0:
        raise _PrimeInDenominator(f"{_P} divides the denominator of {q}")
    return num * pow(den, -1, _P) % _P


def _residue_sum(value: Callable, children: tuple[Expr, ...]) -> int:
    val = 0
    for c in children:
        val += value(c)
    return val % _P


def _residue_product(value: Callable, children: tuple[Expr, ...]) -> int:
    val = 1
    for c in children:
        val = val * value(c) % _P
    return val


def _residue_power(b: int, n: int) -> int:
    if b == 0 and n < 0:
        raise EvalDomainError("division by zero at assignment")
    return pow(b, n, _P)


def _no_residue(name: str, a: int):
    raise EvaluationError("elementary functions have no value mod p")


# Residues mod ``_P``.  A negative power of a base that is 0 mod ``_P`` is
# a pole, so the result is the residue of the rational value.
_RESIDUES = (_residue, _residue_sum, _residue_product, _residue_power, _no_residue)


def _pairwise(fold: Callable) -> Callable:
    """The rule that folds the values and the magnitudes apart."""
    def rule(value: Callable, children: tuple[Expr, ...]) -> tuple[Number, float]:
        values, magnitudes = zip(*[value(c) for c in children])
        return _finite(fold(values)), _finite(fold(magnitudes))
    return rule


def _pair_fun(name: str, a: tuple[Number, float]) -> tuple[float, float]:
    val = _eval_fun(name, float(a[0]))
    return val, abs(val)


# (value, magnitude) pairs: the value as in ``_EXACT``; the magnitude adds
# absolute values over sums and multiplies them over products, the size of
# the terms that may cancel.  A pair is never 0: a power checks each half.
_FLOAT_PAIRS = (
    lambda q: (_finite(q), abs(float(q))),
    _pairwise(sum),
    _pairwise(math.prod),
    lambda b, n: (_power(b[0], n), _power(b[1], n)),
    _pair_fun,
)


def free_symbols(e: Expr) -> tuple[Expr, ...]:
    """All coordinate and opaque symbols occurring in ``e``, in canonical order."""
    seen: dict[Expr, None] = {}
    stack = [e]
    visited: set[int] = set()
    while stack:
        n = stack.pop()
        if n.uid in visited:
            continue
        visited.add(n.uid)
        if n.kind in (SYM, OPAQUE):
            seen[n] = None
        else:
            stack.extend(n.children)
    return tuple(sorted(seen, key=lambda s: s.key))


def substitute(e: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Replace coordinate/opaque symbol nodes by expressions.

    Refuses to substitute a coordinate on which some opaque symbol in
    ``e`` depends: that would silently change the meaning of the opaque
    function's arguments.
    """
    coord_names = {s.payload for s in mapping if s.kind == SYM}
    for s in mapping:
        if s.kind not in (SYM, OPAQUE):
            raise SubstitutionError("substitution keys must be symbols")
    memo: dict[int, Expr] = {}

    def walk(n: Expr) -> Expr:
        got = memo.get(n.uid)
        if got is not None:
            return got
        if n in mapping:
            out = mapping[n]
        elif n.kind == OPAQUE:
            _, deps, _ = n.payload
            hit = coord_names.intersection(deps)
            if hit:
                raise SubstitutionError(
                    f"cannot substitute coordinate(s) {sorted(hit)} under opaque symbol {symbol_name(n)!r}"
                )
            out = n
        elif n.kind in (RAT, SYM):
            out = n
        elif n.kind == ADD:
            out = add_iter(walk(c) for c in n.children)
        elif n.kind == MUL:
            out = mul_iter(walk(c) for c in n.children)
        elif n.kind == POW:
            out = pow_int(walk(n.children[0]), n.payload)
        else:
            out = fun(n.payload, walk(n.children[0]))
        memo[n.uid] = out
        return out

    return walk(e)


# ---------------------------------------------------------------------------
# Printing.  The output is valid input for paraweb.parser and printing a
# canonical expression then reparsing it is a fixed point.
#
# Within one call, or across the calls of one ``Printer``, each distinct node
# is rendered once: a first pass counts how often its text will be asked
# for, and the text is kept only until its last request.  What is kept per
# node is its signed form (sign, body), whose text is body, or "-" + body
# for a negative sign; a sum pulls that sign out as " - ".  A ``Printer``
# also moves each long node that is asked for more than once into its def
# table; the signed form of such a node is (0, "@n"), an atom.

# A node that a ``Printer`` asks for twice or more is printed once, as a
# def, when its text has at least this many characters.  Printing an
# n-character node asked for u >= 2 times as a def saves (u - 1) * n bytes
# and costs about 11 bytes of JSON list overhead plus u references of a
# few bytes each, so every def made at n >= 128 makes the report smaller.
# Shorter shared nodes stay inline: the longest text the golden batch asks
# for twice has 87 characters, so small reports remain plain trees.
DEF_MIN_CHARS = 128


class Printer:
    """Renders a group of expressions that share one def table.

    A node whose text (with the defs inside it printed as references) has
    at least ``DEF_MIN_CHARS`` characters and that rendering the group asks
    for at least twice is printed once, as ``defs[n-1]``, and every use of
    it prints ``@n``; each such def makes the group's text shorter.
    Numbers follow the order in which texts are rendered, so a def refers
    only to lower-numbered defs.
    """

    __slots__ = ("roots", "counts", "memo", "defs")

    def __init__(self, roots: Iterable[Expr]):
        self.roots = tuple(roots)
        # counted on first use, so that all of the rendering is done
        # inside ``to_string`` calls
        self.counts: dict[int, int] | None = None
        self.memo: dict = {}
        self.defs: list[str] = []


def to_string(e: Expr, printer: Printer | None = None) -> str:
    """Render ``e`` in the grammar of ``paraweb.parser``.

    With a ``printer``, ``e`` must be one of the expressions it was made
    for, and a long shared subexpression prints as ``@n``, which stands
    for ``printer.defs[n-1]``.
    """
    if printer is None:
        return _text(e, _request_counts((e,)), {}, None)
    if printer.counts is None:
        printer.counts = _request_counts(printer.roots)
    return _text(e, printer.counts, printer.memo, printer.defs)


def _request_counts(roots: Iterable[Expr]) -> dict[int, int]:
    """How many times rendering ``roots`` asks for each node's signed form.

    Follows the printer: a product folds in its rational coefficient and
    renders the base of each negative power directly.
    """
    counts: dict[int, int] = {}
    stack = list(roots)
    while stack:
        e = stack.pop()
        seen = counts.get(e.uid, 0)
        counts[e.uid] = seen + 1
        if seen:
            continue
        k = e.kind
        if k == MUL:
            for c in e.children:
                if c.kind == POW and c.payload < 0:
                    stack.append(c.children[0])
                elif c.kind != RAT:
                    stack.append(c)
        elif k != RAT:
            stack.extend(e.children)
    return counts


def _signed(e: Expr, counts: dict[int, int], memo: dict, defs: list[str] | None) -> tuple[int, str]:
    uid = e.uid
    out = memo.get(uid)
    if out is None:
        k = e.kind
        if k == RAT:
            num, den = e.payload.numerator, e.payload.denominator
            n = abs(num)
            out = (-1 if num < 0 else 1), (str(n) if den == 1 else f"{n}/{den}")
        elif k == SYM:
            out = 1, e.payload
        elif k == OPAQUE:
            out = 1, symbol_name(e)
        elif k == FUN:
            out = 1, f"{e.payload}({_text(e.children[0], counts, memo, defs)})"
        elif k == POW:
            n = e.payload
            base = _atom(e.children[0], counts, memo, defs)
            if n > 0:
                out = 1, f"{base}^{n}"
            else:
                # a bare negative power prints as a quotient
                out = 1, ("1/" + base if n == -1 else f"1/{base}^{-n}")
        elif k == MUL:
            out = _signed_product(e, counts, memo, defs)
        else:  # ADD
            parts: list[str] = []
            for t in e.children:
                s, body = _signed(t, counts, memo, defs)
                if parts:
                    parts.append(" - " if s < 0 else " + ")
                elif s < 0:
                    parts.append("-")
                parts.append(body)
            out = 1, "".join(parts)
        if defs is not None and counts[uid] > 1 and len(out[1]) + (out[0] < 0) >= DEF_MIN_CHARS:
            defs.append("-" + out[1] if out[0] < 0 else out[1])
            out = 0, f"@{len(defs)}"
    left = counts[uid] - 1
    if left:
        counts[uid] = left
        memo[uid] = out
    else:
        memo.pop(uid, None)
    return out


def _text(e: Expr, counts: dict[int, int], memo: dict, defs: list[str] | None) -> str:
    sign, body = _signed(e, counts, memo, defs)
    return "-" + body if sign < 0 else body


def _atom(e: Expr, counts: dict[int, int], memo: dict, defs: list[str] | None) -> str:
    """The text of ``e``, parenthesised unless it binds tighter than ``^``."""
    sign, body = _signed(e, counts, memo, defs)
    if sign == 0:
        return body
    text = "-" + body if sign < 0 else body
    if e.kind in (ADD, MUL, POW) or (e.kind == RAT and (sign < 0 or e.payload.denominator != 1)):
        return "(" + text + ")"
    return text


def _signed_product(e: Expr, counts: dict[int, int], memo: dict, defs: list[str] | None) -> tuple[int, str]:
    # the rational factor's numerator and denominator, as ints
    cnum = cden = 1
    num: list[str] = []
    den: list[str] = []
    for c in e.children:
        if c.kind == RAT:
            # a canonical product has at most one rational factor
            cnum, cden = c.payload.numerator, c.payload.denominator
        elif c.kind == POW and c.payload < 0:
            b = _atom(c.children[0], counts, memo, defs)
            den.append(b if c.payload == -1 else f"{b}^{-c.payload}")
        elif c.kind == ADD:
            num.append(_atom(c, counts, memo, defs))
        else:
            num.append(_text(c, counts, memo, defs))
    sign = -1 if cnum < 0 else 1
    cnum = abs(cnum)
    if cnum != 1 or not num:
        num.insert(0, str(cnum))
    if cden != 1:
        den.insert(0, str(cden))
    body = "*".join(num)
    if len(den) == 1:
        body = f"{body}/{den[0]}"
    elif den:
        body = f"{body}/({'*'.join(den)})"
    return sign, body
