"""The expression kernel's constructors against reference versions.

``add_iter`` and ``mul_iter`` keep coefficients as ints while they are
integral, reuse a term that is alone with its monomial, keep a product's
(coefficient, monomial) split on the node, and key integral rationals by
their int value.  ``add_iter`` collects a rational multiple of a sum and
each term of its ``minus`` list as coefficients: it builds no product
for a term of that sum or of the subtrahend, only the final term of an
entry.  The reference versions below do none of that: they are the
constructors as first written, with Fraction arithmetic throughout, a
fresh split per call, a product built for every term of a scaled sum,
a difference taken as a sum with a (-1) * b term, and a rebuild of
every collected term.  Both intern through the same table, so a
canonical result is the same node (``is``) on both sides, and the sort
keys must order nodes alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from hypothesis import given, settings, strategies as st

from paraweb import expr
from paraweb.expr import (
    ADD,
    FUN,
    MUL,
    OPAQUE,
    POW,
    RAT,
    SYM,
    ZERO,
    Expr,
    _coeff_mono,
    _make,
    add,
    add_iter,
    fun,
    mul,
    mul_iter,
    neg,
    opaque,
    pow_int,
    rational,
    sub,
    sym,
)

# ---------------------------------------------------------------------------
# Reference constructors


def ref_coeff_mono(t: Expr) -> tuple[Fraction, Expr]:
    if t.kind == MUL and t.children[0].kind == RAT:
        rest = t.children[1:]
        monomial = rest[0] if len(rest) == 1 else _make(MUL, None, rest)
        return t.children[0].payload, monomial
    return Fraction(1), t


def ref_scale_mono(c: Fraction, m: Expr) -> Expr:
    coeff = rational(c)
    if m.kind == MUL:
        return _make(MUL, None, (coeff,) + m.children)
    return _make(MUL, None, (coeff, m))


def ref_add_iter(terms: Iterable[Expr]) -> Expr:
    const = Fraction(0)
    by_mono: dict[Expr, Fraction] = {}
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        if t.kind == ADD:
            stack.extend(reversed(t.children))
            continue
        if t.kind == RAT:
            const += t.payload
            continue
        c, m = ref_coeff_mono(t)
        if m.kind == ADD:
            stack.extend(ref_mul_iter((rational(c), ch)) for ch in m.children)
            continue
        acc = by_mono.get(m)
        by_mono[m] = c if acc is None else acc + c
    out: list[Expr] = []
    for m, c in by_mono.items():
        if c == 0:
            continue
        out.append(m if c == 1 else ref_scale_mono(c, m))
    if const != 0:
        out.append(rational(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=ref_key)
    return _make(ADD, None, tuple(out))


def ref_mul_iter(factors: Iterable[Expr]) -> Expr:
    coeff = Fraction(1)
    by_base: dict[Expr, int] = {}
    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        if f.kind == MUL:
            stack.extend(reversed(f.children))
        elif f.kind == RAT:
            coeff *= f.payload
        elif f.kind == POW:
            base, n = f.children[0], f.payload
            by_base[base] = by_base.get(base, 0) + n
        else:
            by_base[f] = by_base.get(f, 0) + 1
    if coeff == 0:
        return ZERO
    out: list[Expr] = []
    for base, n in by_base.items():
        if n == 0:
            continue
        p = ref_pow_int(base, n)
        if p.kind == RAT:
            coeff *= p.payload
        else:
            out.append(p)
    if not out:
        return rational(coeff)
    if coeff != 1:
        out.insert(0, rational(coeff))
    if len(out) == 1:
        return out[0]
    out.sort(key=ref_key)
    return _make(MUL, None, tuple(out))


def ref_pow_int(base: Expr, n: int) -> Expr:
    if n == 0:
        return expr.ONE
    if n == 1:
        return base
    if base.kind == RAT:
        if base.payload == 0 and n < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return rational(base.payload ** n)
    if base.kind == MUL:
        return ref_mul_iter(ref_pow_int(c, n) for c in base.children)
    if base.kind == POW:
        return ref_pow_int(base.children[0], base.payload * n)
    return _make(POW, n, (base,))


def ref_sort_key(kind: int, payload, children: tuple[Expr, ...]):
    if kind == RAT:
        return (RAT, payload)
    if kind == SYM:
        return (SYM, payload)
    if kind == OPAQUE:
        name, deps, orders = payload
        return (OPAQUE, name, orders, deps)
    if kind == FUN:
        return (FUN, payload, ref_key(children[0]))
    if kind == POW:
        return (POW, ref_key(children[0]), payload)
    return (kind, tuple(ref_key(c) for c in children))


def ref_key(e: Expr):
    return ref_sort_key(e.kind, e.payload, e.children)


# ---------------------------------------------------------------------------
# Recipes: one expression, built either with the kernel or the references

DEPS = ("x0", "x1")
NEW = (add_iter, mul_iter, pow_int)
REF = (ref_add_iter, ref_mul_iter, ref_pow_int)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, 1, 2, 3, 4]),
)
leaves = st.one_of(
    st.sampled_from(["x0", "x1", "x2"]).map(lambda n: ("sym", n)),
    st.tuples(st.integers(0, 2), st.integers(0, 1)).map(lambda o: ("opaque", o)),
    rationals.map(lambda q: ("rat", q)),
)
recipes = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, min_size=0, max_size=5).map(lambda cs: ("add", cs)),
        st.lists(inner, min_size=0, max_size=4).map(lambda cs: ("mul", cs)),
        st.tuples(inner, st.integers(-3, 3)).map(lambda a: ("pow", *a)),
        inner.map(lambda a: ("exp", a)),
    ),
    max_leaves=14,
)


def build(recipe, ops):
    add_fn, mul_fn, pow_fn = ops
    tag = recipe[0]
    if tag == "sym":
        return sym(recipe[1])
    if tag == "opaque":
        return opaque("F", DEPS, recipe[1])
    if tag == "rat":
        return rational(recipe[1])
    if tag == "add":
        return add_fn([build(r, ops) for r in recipe[1]])
    if tag == "mul":
        return mul_fn([build(r, ops) for r in recipe[1]])
    if tag == "pow":
        return pow_fn(build(recipe[1], ops), recipe[2])
    return fun("exp", build(recipe[1], ops))


def build_or_error(recipe, ops):
    try:
        return build(recipe, ops)
    except ZeroDivisionError as exc:
        return type(exc)


def built_terms(recipes_) -> list[Expr]:
    return [t for t in (build_or_error(r, NEW) for r in recipes_) if isinstance(t, Expr)]


def nodes(e: Expr) -> list[Expr]:
    seen: dict[int, Expr] = {}
    stack = [e]
    while stack:
        n = stack.pop()
        if n.uid not in seen:
            seen[n.uid] = n
            stack.extend(n.children)
    return list(seen.values())


# ---------------------------------------------------------------------------
# Tests


@settings(max_examples=300, deadline=None)
@given(recipes)
def test_constructors_build_the_reference_node(recipe):
    got = build_or_error(recipe, NEW)
    want = build_or_error(recipe, REF)
    assert got is want
    if isinstance(got, Expr):
        for n in nodes(got):
            assert _make(n.kind, n.payload, n.children) is n


def test_a_sum_and_a_product_of_the_same_children_stay_apart():
    # A product is interned under its children tuple, so a sum over the
    # same children must not find it, whichever of the two comes first.
    a, b = sym("kernel_a"), sym("kernel_b")
    p = mul(a, b)
    s = add(a, b)
    c, d = sym("kernel_c"), sym("kernel_d")
    t = add(c, d)
    q = mul(c, d)
    assert p.children == s.children and t.children == q.children
    assert (p.kind, s.kind, t.kind, q.kind) == (MUL, ADD, ADD, MUL)
    assert mul(a, b) is p and add(a, b) is s and add(c, d) is t and mul(c, d) is q


@settings(max_examples=200, deadline=None)
@given(st.lists(recipes, min_size=1, max_size=6), st.lists(rationals, max_size=4))
def test_sum_and_product_of_built_terms(recipes_, constants):
    terms = built_terms(recipes_) + [rational(q) for q in constants]
    assert add_iter(terms) is ref_add_iter(terms)
    assert mul_iter(terms) is ref_mul_iter(terms)


@settings(max_examples=200, deadline=None)
@given(st.lists(recipes, min_size=2, max_size=8))
def test_sort_keys_give_the_reference_order(recipes_):
    pool = [n for t in built_terms(recipes_) for n in nodes(t)]
    assert sorted(pool, key=lambda n: n.key) == sorted(pool, key=ref_key)


@settings(max_examples=200, deadline=None)
@given(recipes)
def test_coefficient_split_matches_the_reference(recipe):
    e = build_or_error(recipe, NEW)
    if not isinstance(e, Expr):
        return
    for n in nodes(e):
        if n.kind == RAT:
            continue
        c, m = _coeff_mono(n)
        rc, rm = ref_coeff_mono(n)
        assert c == rc and m is rm
        assert isinstance(c, int) == (rc.denominator == 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(recipes, max_size=5), st.lists(recipes, max_size=5), rationals)
def test_collecting_in_stages_gives_the_node_of_collecting_once(recipes_a, recipes_b, q):
    # The ODE path collects each sum once over all of its terms instead
    # of collecting a part of them first (a product's Leibniz terms, one
    # field's share of a chain component).  Both must give the same
    # node, also when the part is scaled or negated first.
    a, b = built_terms(recipes_a), built_terms(recipes_b)
    part = add_iter(a)
    assert add_iter(a + b) is add_iter([part] + b)
    scale = rational(q)
    assert add_iter([mul(scale, t) for t in a] + b) is add_iter([mul(scale, part)] + b)
    assert add_iter([neg(t) for t in a] + b) is add_iter([neg(part)] + b)


def ref_negated(terms: Iterable[Expr]) -> list[Expr]:
    return [ref_mul_iter((rational(-1), t)) for t in terms]


@settings(max_examples=200, deadline=None)
@given(st.lists(recipes, max_size=5), st.lists(recipes, max_size=5))
def test_minus_terms_give_the_reference_difference(recipes_a, recipes_b):
    a, b = built_terms(recipes_a), built_terms(recipes_b)
    assert add_iter(a, minus=b) is ref_add_iter(a + ref_negated(b))


@settings(max_examples=200, deadline=None)
@given(recipes, recipes)
def test_sub_gives_the_reference_difference(recipe_x, recipe_y):
    x, y = build_or_error(recipe_x, NEW), build_or_error(recipe_y, NEW)
    if isinstance(x, Expr) and isinstance(y, Expr):
        assert sub(x, y) is ref_add_iter([x] + ref_negated([y]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(rationals, st.lists(recipes, min_size=2, max_size=4)), min_size=1, max_size=3),
    st.lists(recipes, max_size=4),
    st.lists(recipes, max_size=3),
)
def test_rational_multiples_of_sums_give_the_reference_node(scaled, recipes_rest, recipes_minus):
    terms = built_terms(recipes_rest)
    for q, recipes_sum in scaled:
        terms.append(mul(rational(q), add_iter(built_terms(recipes_sum))))
    # a subtracted multiple of a sum nests one scaling in another
    minus = built_terms(recipes_minus) + [t for t in terms[-1:] if t.kind == MUL]
    assert add_iter(terms) is ref_add_iter(terms)
    assert add_iter(terms, minus) is ref_add_iter(terms + ref_negated(minus))


def interned_by(build_it) -> tuple[Expr, list[Expr]]:
    """The result of ``build_it()`` and the nodes that the call interned."""
    before = set(map(id, expr._INTERN.values()))
    got = build_it()
    return got, [n for n in expr._INTERN.values() if id(n) not in before]


def test_collecting_a_scaled_sum_interns_only_what_the_result_reaches():
    # symbols no other test uses, so every node below is fresh
    x, y, z = sym("collect_x"), sym("collect_y"), sym("collect_z")
    s = add(mul(x, y), z, mul(rational(3), x, z))
    terms = [mul(rational(2), s), mul(rational(-2), x, y)]
    # 2*x*y, the product of the distributed term that cancels, is never built
    got, new = interned_by(lambda: add_iter(terms))
    assert got.kind == ADD and new
    reached = set(map(id, nodes(got)))
    assert all(id(n) in reached for n in new)
    assert expr._INTERN.get((rational(2), x, y)) is None
    # checked last: the reference builds 2*x*y
    assert got is ref_add_iter(terms)


def test_a_rational_is_interned_once():
    # rationals no other test builds: each is new to both tables
    fresh = [Fraction(982_451_653, 57_885_161), 1_000_000_007 * 998_244_353]
    for q in fresh:
        before = len(expr._RAT_INTERN)
        node, new = interned_by(lambda: rational(q))
        assert new == [] and len(expr._RAT_INTERN) == before + 1
        assert rational(q) is node and expr._make(RAT, node.payload, ()) is node
        assert (RAT, node.payload, ()) not in expr._INTERN


def test_a_difference_builds_no_negated_subtrahend():
    x, y, w = sym("differ_x"), sym("differ_y"), sym("differ_w")
    s, xw = add(x, mul(y, w)), mul(x, w)
    got, new = interned_by(lambda: sub(xw, s))
    assert expr._INTERN.get((expr.MINUS_ONE, s)) is None
    reached = set(map(id, nodes(got)))
    assert new and all(id(n) in reached for n in new)
    # checked last: the reference builds (-1)*s
    assert got is ref_add_iter([xw] + ref_negated([s]))


def test_like_terms_whose_coefficient_changes_are_rebuilt():
    x, y = sym("x1"), sym("x2")
    half_x = mul(rational(Fraction(1, 2)), x)
    cases = [
        [x, mul(rational(2), x)],
        [half_x, half_x, y],
        [mul(rational(3), x, y), mul(rational(-3), x, y), x],
        [mul(rational(-1), x), x, rational(Fraction(1, 3)), rational(Fraction(2, 3))],
    ]
    for terms in cases:
        assert add_iter(terms) is ref_add_iter(terms)


def test_rational_keys_order_by_value():
    values = [Fraction(3, 2), Fraction(1, 3), Fraction(-1, 2), Fraction(2), Fraction(1, 2), Fraction(0)]
    nodes_ = [rational(v) for v in values]
    assert sorted(nodes_, key=lambda n: n.key) == sorted(nodes_, key=ref_key)
    x = sym("x1")
    terms = [mul(rational(v), pow_int(x, i)) for i, v in enumerate(values[:5], start=1)]
    products = [mul(rational(v), x, sym("x2")) for v in values[:5]]
    assert sorted(products, key=lambda n: n.key) == sorted(products, key=ref_key)
    assert add_iter(terms) is ref_add_iter(terms)


def test_split_slot_leaves_identity_and_hashes_unchanged():
    # symbols no other test uses, so no product below has been split yet
    x, y = sym("split_a"), sym("split_b")
    for e in (mul(rational(Fraction(-3, 4)), x, y), mul(rational(5), pow_int(x, -2)), mul(x, y)):
        before = (hash(e), e.shash, e.key)
        assert e.split is None
        first = _coeff_mono(e)
        if e.children[0].kind == RAT:
            assert _coeff_mono(e) is first and e.split is first
        else:
            # a product without a rational factor is its own monomial and
            # keeps no split
            assert first == (1, e) and _coeff_mono(e) == first and e.split is None
        assert (hash(e), e.shash, e.key) == before
        assert e == e and e is mul(e, rational(1)) and add(e, ZERO) is e


def test_hashes_and_keys_are_pinned():
    # The zero test seeds its sampling from ``shash`` and the printer
    # follows the order of ``key``, so both are pinned as literals: a
    # drift would move sample points and report bytes silently.  Kinds
    # are RAT 0, SYM 1, OPAQUE 2, POW 4, MUL 5 and ADD 6.
    x, f = sym("x1"), opaque("F", ("x0", "x1"), (1, 2))
    coeff = rational(Fraction(-3, 4))
    pins = [
        (x, 0x4B1B2EC89836066A, (1, "x1")),
        (f, 0xD3885BEA4168872C, (2, "F", (1, 2), ("x0", "x1"))),
        (coeff, 0x26B64FE793F3ACA6, (0, Fraction(-3, 4))),
        (pow_int(x, -2), 0xD09342F6AE8FA587, (4, (1, "x1"), -2)),
        (add(x, f, rational(1)), 0x0D703666C38342FE,
         (6, (0, 1), (1, "x1"), (2, "F", (1, 2), ("x0", "x1")))),
        (mul(coeff, x, pow_int(f, 3)), 0x89123B372FEBF954,
         (5, (0, Fraction(-3, 4)), (1, "x1"), (4, (2, "F", (1, 2), ("x0", "x1")), 3))),
    ]
    for e, shash, key in pins:
        assert (e.shash, e.key) == (shash, key)
        assert e.shash == expr._structural_hash(e.kind, e.payload, e.children)
