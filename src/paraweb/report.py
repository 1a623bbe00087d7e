"""Problem specifications and deterministic JSON reports.

A problem is a single JSON object, either an ODE or a web candidate;
batches carry {"problems": [...]}.  Reports echo the problem (with
defaulted options filled in), list named residuals with verdicts and
sample counts, and render every derived object in the same grammar the
parser accepts, so reports double as regression fixtures.  Identical
(problem, seed) pairs produce byte-identical reports, so a batch
analyses each distinct problem once and its repeats share that entry.

An analysis builds, then decides.  The seed only picks the zero test's
sample points, so what is built takes no tester: an ODE's problem,
curvature chain and residual expressions, or a web with its Hirota
residuals, connection and Bryant forms.  Problems that differ only in
their zero-test options share it, and the rendered texts of equal
expressions.  The decision runs every zero test with the problem's own
tester.  What a batch shares is local to ``analyze_batch`` and dropped
after the last problem that needs it; ``write_report`` encodes a
repeated entry once.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Any, NamedTuple, TextIO

from .expr import ZERO, BudgetError, Expr, Printer, mul, pow_int, rational, sub, to_string
from .invariants import (
    CurvatureChain,
    ExtractionError,
    Residual,
    beta_coefficient,
    cartan_residuals,
    coordinate_cartan_order2,
    coordinate_cartan_order3,
    coordinate_wunschmann_order3,
    curvature_chain,
    gamma_k,
    wunschmann_residuals,
)
from .jet import FrameError, OdeProblem
from .webs import (
    DegenerateWebError,
    VeroneseWeb,
    WebError,
    bryant_forms,
    canonical_connection,
    check_nondegenerate,
    conformal_metric,
    flatness_verdict,
    hirota_residuals,
    hirota_verdicts,
    make_web,
    weyl_form,
)
from .zerotest import Verdict, ZeroTester

__all__ = [
    "InputError",
    "MAX_TRIALS",
    "ProblemSpec",
    "analyze_ode",
    "analyze_web",
    "analyze_problem",
    "analyze_batch",
    "dumps_report",
    "write_report",
]

# The zero test draws up to ``trials`` points per expression, so an
# unbounded value could keep a problem running until it is killed.
MAX_TRIALS = 1000
# Digits plus the size of the decimal exponent of one spectral constant:
# unbounded, "1e-99999999" would be built as 10^99999999 before any
# check, and "1e999999" would fail when its echo is printed.
MAX_LITERAL_DIGITS = 40

CLASS_TOTALLY_GEODESIC = "totally-geodesic paraconformal"
CLASS_WUNSCHMANN_ONLY = "Wünschmann only"
CLASS_NO_STRUCTURE = "no structure"
CLASS_NECESSARY_ONLY = "necessary-conditions-only (order ≥ 5)"


class InputError(ValueError):
    pass


def _parse_fraction(text: Any) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (int, str)):
        raise InputError(f"rationals must be strings like 'p/q', got {text!r}")
    literal = str(text).strip()
    digits = sum(ch.isdigit() for ch in literal)
    exponent = literal.lower().partition("e")[2]
    try:
        if digits <= MAX_LITERAL_DIGITS and digits + abs(int(exponent or 0)) <= MAX_LITERAL_DIGITS:
            return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {text!r}") from exc
    raise InputError(f"budget exceeded: a rational literal has at most {MAX_LITERAL_DIGITS} "
                     f"digits plus the size of its exponent, got {text!r}")


def _int_option(options: dict, name: str, default: int) -> int:
    value = options.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem: an ODE (order, rhs) or a web (k, w, t_params)."""

    kind: str
    order: int | None = None
    rhs: str | None = None
    k: int | None = None
    w: str | None = None
    t_params: tuple[Fraction, ...] | None = None
    trials: int = 8
    tolerance: float = 1e-9
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict, defaults: dict | None = None) -> "ProblemSpec":
        if not isinstance(raw, dict):
            raise InputError("problem entries must be objects")
        kind = raw.get("kind")
        if kind not in ("ode", "web"):
            raise InputError(f"kind must be 'ode' or 'web', got {kind!r}")
        options = dict(defaults or {})
        raw_options = raw.get("options") or {}
        if not isinstance(raw_options, dict):
            raise InputError("options must be an object")
        options.update(raw_options)
        trials = _int_option(options, "trials", 8)
        seed = _int_option(options, "seed", 0)
        tolerance = options.get("tolerance", 1e-9)
        if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)) \
                or not 0 <= tolerance <= sys.float_info.max:
            raise InputError(f"tolerance must be a finite non-negative number, got {tolerance!r}")
        tolerance = float(tolerance)
        if trials < 1:
            raise InputError("trials must be at least 1")
        if trials > MAX_TRIALS:
            raise InputError(f"budget exceeded: trials are limited to {MAX_TRIALS}, got {trials}")
        if kind == "ode":
            order = raw.get("order")
            rhs = raw.get("rhs")
            if isinstance(order, bool) or not isinstance(order, int) or order < 2:
                raise InputError("ode problems need an integer order >= 2")
            if order > 10:
                raise InputError("orders beyond 10 are not supported")
            if not isinstance(rhs, str):
                raise InputError("ode problems need an rhs expression string")
            return cls(kind, order=order, rhs=rhs, trials=trials, tolerance=tolerance, seed=seed)
        k = raw.get("k")
        w = raw.get("w")
        if isinstance(k, bool) or not isinstance(k, int) or k < 1 or k > 8:
            raise InputError("web problems need an integer k in 1..8")
        if not isinstance(w, str):
            raise InputError("web problems need a w expression string")
        t_raw = raw.get("t_params")
        if t_raw is None:
            t_params = tuple(Fraction(n) for n in range(k + 2))
        else:
            if not isinstance(t_raw, list) or len(t_raw) != k + 2:
                raise InputError(f"t_params must list {k + 2} rationals")
            t_params = tuple(_parse_fraction(t) for t in t_raw)
        if len(set(t_params)) != len(t_params):
            raise InputError("t_params must be pairwise distinct")
        return cls(kind, k=k, w=w, t_params=t_params, trials=trials, tolerance=tolerance, seed=seed)

    def tester(self) -> ZeroTester:
        return ZeroTester(trials=self.trials, tolerance=self.tolerance, seed=self.seed)

    def echo(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind, "options": {
            "seed": self.seed, "tolerance": self.tolerance, "trials": self.trials}}
        if self.kind == "ode":
            out["order"] = self.order
            out["rhs"] = self.rhs
        else:
            out["k"] = self.k
            out["w"] = self.w
            out["t_params"] = [_frac_str(t) for t in self.t_params]
        return out


def _mapped(node: Any, leaf) -> Any:
    """``node`` with ``leaf(e)`` in place of each expression ``e``, visited
    in the order of the JSON text (sorted keys)."""
    if isinstance(node, Expr):
        return leaf(node)
    if isinstance(node, dict):
        return {key: _mapped(node[key], leaf) for key in sorted(node)}
    if isinstance(node, list):
        return [_mapped(item, leaf) for item in node]
    return node


def _render(entry: dict, rendered: dict | None = None) -> dict:
    """Render the expressions of an ok report entry with one def table.

    A subexpression the entry's texts ask for twice or more and whose text
    has at least ``expr.DEF_MIN_CHARS`` characters is printed once, in
    ``defs``; the key is left out when there is none.

    The texts and defs depend only on the tuple of expression roots, in
    the order of the JSON text.  ``rendered`` maps such tuples to their
    texts and defs, so an entry whose roots are those of an entry
    rendered before reuses them: interning makes equal expressions the
    same node.
    """
    roots: list[Expr] = []
    _mapped(entry, roots.append)
    key = tuple(roots)
    rendered = {} if rendered is None else rendered
    if key not in rendered:
        printer = Printer(key)
        rendered[key] = ([to_string(e, printer) for e in key], printer.defs)
    texts, defs = rendered[key]
    text = iter(texts)
    out = _mapped(entry, lambda e: next(text))
    if defs:
        out["defs"] = defs
    return out


def _verdict_entry(name: str, expr: Expr, verdict: Verdict, samples: int = 0, note=None) -> dict:
    return {
        "name": name,
        "expression": expr,
        "verdict": verdict.value,
        "samples": samples,
        "note": note,
    }


class _OdeObjects(NamedTuple):
    """What an ODE analysis builds: the problem (with its memo of X), the
    chain and the residual expressions."""

    ode: OdeProblem
    chain: CurvatureChain
    wunschmann: list[Residual]
    cartan: list[Residual]
    identities: list[Residual]


@dataclass
class _Shared:
    """What the analyses of specs that differ only in ``seed``, ``trials``
    and ``tolerance`` share: the objects built from the problem (an
    ``_OdeObjects`` or a web), and the texts rendered for each tuple of
    expression roots (see ``_render``)."""

    built: _OdeObjects | VeroneseWeb | None = None
    rendered: dict = field(default_factory=dict)

    def release(self) -> None:
        """Clear a web's derived objects: the null curve, connection and
        Bryant forms kept there hold the web, so left in place they would
        free it only through the cycle collector."""
        if isinstance(self.built, VeroneseWeb):
            self.built._derived.clear()


def _seed_free(spec: ProblemSpec) -> ProblemSpec:
    """The key of ``_Shared``: ``spec`` with its zero-test options fixed."""
    return replace(spec, trials=1, tolerance=0.0, seed=0)


def _ode_objects(spec: ProblemSpec) -> _OdeObjects:
    try:
        ode = OdeProblem.from_rhs(spec.order, spec.rhs)
    except Exception as exc:
        raise InputError(f"bad rhs: {exc}") from exc
    chain = curvature_chain(ode)
    wun = wunschmann_residuals(ode, chain)
    car = cartan_residuals(ode, chain)
    identities = []

    abstract = spec.rhs.strip() == "abstract"
    if abstract and ode.order == 2:
        ident = sub(car[0].expr, mul(rational(3), coordinate_cartan_order2(ode)))
        identities.append(Residual("identity[cartan-coordinate]", ident,
                                   note="engine invariant minus 3x classical coordinate form"))
    if abstract and ode.order == 3:
        v, v1 = chain.fields[0], chain.fields[1]
        k0, k1 = chain.curvatures
        wident = sub(wun[0].expr, coordinate_wunschmann_order3(ode))
        identities.append(Residual("identity[wunschmann-coordinate]", wident))
        cform = mul(rational(Fraction(-3, 2)), sub(v1.apply(k1), v.apply(k0)))
        identities.append(Residual("identity[cartan-coordinate]", sub(cform, coordinate_cartan_order3(ode))))
    return _OdeObjects(ode, chain, wun, car, identities)


def analyze_ode(spec: ProblemSpec, shared: _Shared | None = None) -> dict:
    """Run the invariant pipeline on an ODE problem.

    Build: the problem, the chain and the residual expressions, made by
    the first spec analysed with ``shared``.  Decide: each residual's zero
    test under the spec's own tester, then the classification and, when
    the verdicts call for it, beta.
    """
    shared = shared or _Shared()
    if shared.built is None:
        shared.built = _ode_objects(spec)
    ode, chain, wun, car, identities = shared.built
    zero = spec.tester()
    residuals = wun + car + identities
    stats = {r: zero.verdict_stats(r.expr) for r in residuals}

    wun_ok, car_ok = (all(stats[r][0] is Verdict.ZERO for r in group) for group in (wun, car))
    if ode.order >= 5:
        classification = CLASS_NECESSARY_ONLY if (wun_ok and car_ok) else CLASS_NO_STRUCTURE
    elif wun_ok and car_ok:
        classification = CLASS_TOTALLY_GEODESIC
    elif wun_ok and ode.order >= 3:
        classification = CLASS_WUNSCHMANN_ONLY
    else:
        classification = CLASS_NO_STRUCTURE

    derived: dict[str, Any] = {
        "curvatures": list(chain.curvatures),
        "gamma_k": _frac_str(gamma_k(ode.k)),
        "extraction_residuals": {
            "coefficient_of_v_k": chain.residual_vk,
            "dt_component": chain.residual_dt,
        },
    }
    if ode.order >= 4 and wun_ok and car_ok:
        b, beta = beta_coefficient(ode, chain)
        derived["beta_b"] = b
        derived["beta_form"] = beta.comps

    return _render({
        "problem": spec.echo(),
        "status": "ok",
        "classification": classification,
        "residuals": [_verdict_entry(r.name, r.expr, *stats[r], r.note) for r in residuals],
        "derived": derived,
    }, shared.rendered)


def _web(spec: ProblemSpec) -> VeroneseWeb:
    try:
        return make_web(spec.k, spec.w, spec.t_params)
    except WebError as exc:
        raise InputError(str(exc)) from exc
    except Exception as exc:
        raise InputError(f"bad w: {exc}") from exc


def analyze_web(spec: ProblemSpec, shared: _Shared | None = None) -> dict:
    """Run the web pipeline.

    Build: the web, made by the first spec analysed with ``shared``; what
    is derived from it is kept on it.  Decide, with the spec's own tester:
    the degeneracy check (an input error), then one verdict, from the
    Hirota triples through 0, printed as the Hirota, hierarchy, Lax and
    Zakharevich verdicts and on every residual (the hierarchy and Lax
    residuals printed as multiples of those triples), then, for solutions
    only, flatness, the connection data and the Bryant forms.
    """
    memo = shared or _Shared()
    if memo.built is None:
        memo.built = _web(spec)
    try:
        entry = _web_entry(spec, memo.built, spec.tester())
    finally:
        if shared is None:
            memo.release()
    return _render(entry, memo.rendered)


def _web_entry(spec: ProblemSpec, web: VeroneseWeb, zero: ZeroTester) -> dict:
    try:
        check_nondegenerate(web, zero)
    except DegenerateWebError as exc:
        raise InputError(str(exc)) from exc
    # One verdict decides the web, that of the Hirota triples through 0.
    # With T = t_{k+1}, every other triple, the first-order hierarchy and
    # the Lax brackets are identities in them (webs.hirota_verdicts;
    # tests/test_webs.py::TestOneVerdict):
    #     hierarchy[i,j] = H_0ij / ((T - t_i)(T - t_j)),
    #     [L_i(t), L_j(t)] = -(t - t_0)(t - T) H_0ij / ((dw/dx0)^2 (T - t_i)(T - t_j)) d/dx0,
    # so both are printed as those multiples of the node printed as
    # hirota[0,i,j]; and on every t outside the spectral set, for a < b < c,
    # with P(t) = prod_{j <= k} (t - t_j),
    #     (omega ^ d omega)_{abc}(t) = P(t)^2 (t - T) H_abc / ((t - t_a)(t - t_b)(t - t_c)).
    hr, decided = hirota_residuals(web), hirota_verdicts(web, zero)
    residuals = [_verdict_entry(f"hirota[{i},{j},{l}]", e, decided[i, j, l]) for (i, j, l), e in hr.items()]
    t, top = web.t_params, web.t_params[-1]
    lax_factor = (-t[0] * top, t[0] + top, -1)  # -(t - t_0)(t - T) by degree
    hierarchy, lax = [], []
    for i, j in combinations(range(1, web.k + 1), 2):
        h, v = hr[0, i, j], decided[0, i, j]
        e = mul(rational(1 / ((top - t[i]) * (top - t[j]))), h)
        hierarchy.append(_verdict_entry(f"hierarchy[{i},{j}]", e, v))
        for deg, c in enumerate(lax_factor):
            # a bracket coefficient that is the constant 0 is not listed
            if c and e is not ZERO:
                lax.append(_verdict_entry(f"lax[{i},{j};x0;t^{deg}]",
                                          mul(rational(c), e, pow_int(web.dw(0), -2)), v))
    residuals += hierarchy + lax

    web_ok = all(v is Verdict.ZERO for v in decided.values())
    verdicts: dict[str, Any] = {
        "hirota": web_ok,
        "hierarchy": web_ok,
        # Also the verdict on [Pi(t), Pi(t)] = 0 for every t, with Pi(t) =
        # sum_i L_i(t) ^ d/dy_i: its only components that can be nonzero are
        # (x_a, y_i, y_j) = 2 sum_d t^d lax[i,j;x_a;t^d].
        "lax": web_ok,
        "zakharevich": web_ok,
        # Pi(t) = sum_i L_i(t) ^ d/dy_i is affine in t by construction
        # (L_i(t) = base + t * direction, see lax_pencil in
        # tests/oracles.py), so this holds for every web candidate.
        "pencil_affine": True,
    }
    derived: dict[str, Any] = {
        "a_constants": [_frac_str(web.a_i(i)) for i in range(1, web.k + 1)],
        "classification": "veronese web" if web_ok else "not a web",
    }

    if web_ok:
        if web.k > 2:
            verdicts["flat"] = flatness_verdict(web, zero)
        conn = canonical_connection(web)
        if conn.kind == "diagonal":
            derived["connection"] = {
                "type": "diagonal",
                "alpha": conn.alpha.comps,
            }
        else:
            g = conformal_metric(web)
            derived["connection"] = {
                "type": "weyl",
                "f": conn.f,
                "alpha_tilde": conn.alpha_tilde.comps,
                "metric": {f"{c},{d}": v for (c, d), v in g.items()},
                "weyl_form": weyl_form(conn).comps,
            }
        if web.k == 3:
            bf = bryant_forms(web)
            derived["bryant"] = {
                name: form.comps
                for name, form in (
                    ("beta0", bf.beta0),
                    ("beta1", bf.beta1),
                    ("beta2", bf.beta2),
                    ("alpha", bf.alpha),
                )
            }
        # Ric(V(t), V(t)) = 0 for every t on every Hirota solution, so the
        # key is kept for the schema's sake only.  For a diagonal connection
        # the only nonzero symbols are Gamma(a, b, b) = d_a ln(dw/dx_b) +
        # alpha_a, so Ric_bc = d_c alpha_b - d_b alpha_c is antisymmetric.
        # At k = 2 the Weyl connection is Einstein-Weyl (Veronese webs give
        # the hyper-CR Einstein-Weyl structures) and the null vectors V(t)
        # sweep its null cone.  tests/test_webs.py::TestRicci proves both.
        derived["ricci_null_max"] = 0.0

    return {
        "problem": spec.echo(),
        "status": "ok",
        "residuals": residuals,
        "verdicts": verdicts,
        "derived": derived,
    }


def analyze_problem(spec: ProblemSpec, shared: _Shared | None = None) -> dict:
    if spec.kind == "ode":
        return analyze_ode(spec, shared)
    return analyze_web(spec, shared)


def _analysis(spec: ProblemSpec, shared: _Shared) -> dict | tuple[int, str]:
    """The ok entry of ``spec``, or (exit code, error text) when its analysis fails."""
    try:
        return analyze_problem(spec, shared)
    except (InputError, BudgetError) as exc:
        return 1, str(exc)
    except ExtractionError as exc:
        return 2, f"extraction failure: {exc}"
    except (WebError, FrameError) as exc:
        return 2, f"analysis failure: {exc}"


def analyze_batch(document: dict, defaults: dict | None = None) -> tuple[dict, int]:
    """Analyze {"problems": [...]} (or a bare problem object).

    Returns (report document, exit code): 0 clean, 1 if any problem had
    an input error or exceeded a budget (a constant of more than
    ``expr.MAX_CONSTANT_DIGITS`` digits, say), 2 if the analysis of a
    valid problem failed (an extraction failure, or a frame or web error
    raised after validation: each is an internal fault).  Each failure is
    an error entry and the rest of the batch still runs.

    A batch shares work in two ways, and keeps nothing after it returns:

    - Each distinct validated spec is analysed once.  A repeat lists the
      ok entry of the first, the same dict object, or an error entry of
      its own with the same error, echoing its own raw problem.
    - Specs that differ only in ``seed``, ``trials`` and ``tolerance`` (one
      seed-free key) share one build: the first analysed under the key
      builds the ODE's problem, chain and residual expressions, or the
      web, and each spec decides with its own tester (``analyze_ode``,
      ``analyze_web``).  A build that fails is not kept, so the next spec
      under the key tries it again.  An entry whose expressions are those
      of an entry rendered before under its key reuses their texts
      (``_render``).

    A validation pass counts the distinct specs under each seed-free key
    first, and what they share is dropped, a web's derived objects with
    it, once the last of them has been analysed.
    """
    if isinstance(document, dict) and "problems" in document:
        raw_problems = document["problems"]
        if not isinstance(raw_problems, list):
            raise InputError("'problems' must be a list")
    else:
        raw_problems = [document]
    specs: list[ProblemSpec | dict] = []  # a spec, or the error entry of an invalid problem
    for raw in raw_problems:
        try:
            specs.append(ProblemSpec.from_dict(raw, defaults))
        except (InputError, BudgetError) as exc:
            specs.append({"problem": raw, "status": "error", "error": str(exc)})
    # Keyed on the repr: equality takes tolerance -0.0 for 0.0, which
    # echo() prints apart.
    distinct = {repr(spec): spec for spec in specs if isinstance(spec, ProblemSpec)}
    runs = Counter(map(_seed_free, distinct.values()))
    shared: dict[ProblemSpec, _Shared] = {}
    outcomes: dict[str, dict | tuple[int, str]] = {}  # repr(spec) -> its ``_analysis``
    reports = []
    code = 0
    for raw, spec in zip(raw_problems, specs):
        if isinstance(spec, dict):
            reports.append(spec)
            code = max(code, 1)
            continue
        key = repr(spec)
        if key not in outcomes:
            free = _seed_free(spec)
            outcomes[key] = _analysis(spec, shared.setdefault(free, _Shared()))
            runs[free] -= 1
            if not runs[free]:
                shared.pop(free).release()
        outcome = outcomes[key]
        if isinstance(outcome, dict):
            reports.append(outcome)
        else:
            failure, error = outcome
            reports.append({"problem": raw, "status": "error", "error": error})
            code = max(code, failure)
    return {"reports": reports}, code


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, indent=2)


def dumps_report(document: dict) -> str:
    """The report text: sorted keys, two-space indent, a final newline."""
    return _ENCODER.encode(document) + "\n"


def write_report(document: dict, stream: TextIO) -> None:
    """Write the text of ``dumps_report`` to ``stream`` as it is encoded.

    An entry object that ``document["reports"]`` lists more than once is
    encoded once, and that text is written at each of its places until
    the last; entries listed once stream through ``iterencode``.  An
    entry sits two levels deep, so its text is its own encoding with
    every newline indented four more spaces (a JSON string holds no raw
    newline).
    """
    entries = document.get("reports") if list(document) == ["reports"] else None
    left = Counter(map(id, entries)) if isinstance(entries, list) else None
    if left is None or len(left) == len(entries):  # no entry is listed twice
        for chunk in _ENCODER.iterencode(document):
            stream.write(chunk)
        stream.write("\n")
        return
    texts: dict[int, str] = {}
    separator = '{\n  "reports": [\n    '
    for entry in entries:
        stream.write(separator)
        separator = ",\n    "
        key = id(entry)
        left[key] -= 1
        if key not in texts:
            if not left[key]:  # listed once
                for chunk in _ENCODER.iterencode(entry):
                    stream.write(chunk.replace("\n", "\n    "))
                continue
            texts[key] = _ENCODER.encode(entry).replace("\n", "\n    ")
        stream.write(texts[key] if left[key] else texts.pop(key))
    stream.write("\n  ]\n}\n")
