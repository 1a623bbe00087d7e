"""Problem specifications and deterministic JSON reports.

A problem is a single JSON object, either an ODE or a web candidate;
batches carry {"problems": [...]}.  Reports echo the problem (with
defaulted options filled in), list named residuals with verdicts and
sample counts, and render every derived object in the same grammar the
parser accepts, so reports double as regression fixtures.  Identical
(problem, seed) pairs produce byte-identical reports, so a batch
analyses each distinct problem once and its repeats share that entry.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, TextIO

from .expr import ZERO, BudgetError, Expr, Printer, mul, pow_int, rational, sub, to_string
from .invariants import (
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
    WebError,
    bryant_forms,
    canonical_connection,
    conformal_metric,
    flatness_verdict,
    hirota_residuals,
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


def _render(entry: dict) -> dict:
    """Render the expressions of an ok report entry with one def table.

    A subexpression the entry's texts ask for twice or more and whose text
    has at least ``expr.DEF_MIN_CHARS`` characters is printed once, in
    ``defs``; the key is left out when there is none.
    """
    roots: list[Expr] = []
    _mapped(entry, roots.append)
    printer = Printer(roots)
    out = _mapped(entry, lambda e: to_string(e, printer))
    if printer.defs:
        out["defs"] = printer.defs
    return out


def _verdict_entry(name: str, expr: Expr, verdict: Verdict, samples: int = 0, note=None) -> dict:
    return {
        "name": name,
        "expression": expr,
        "verdict": verdict.value,
        "samples": samples,
        "note": note,
    }


def analyze_ode(spec: ProblemSpec) -> dict:
    """Run the invariant pipeline on an ODE problem."""
    zero = spec.tester()
    try:
        ode = OdeProblem.from_rhs(spec.order, spec.rhs)
    except Exception as exc:
        raise InputError(f"bad rhs: {exc}") from exc
    chain = curvature_chain(ode, zero)
    wun = wunschmann_residuals(ode, chain, zero)
    car = cartan_residuals(ode, chain, zero)
    residuals = list(wun) + list(car)

    abstract = spec.rhs.strip() == "abstract"
    if abstract and ode.order == 2:
        ident = sub(car[0].expr, mul(rational(3), coordinate_cartan_order2(ode)))
        verdict, samples = zero.verdict_stats(ident)
        residuals.append(Residual("identity[cartan-coordinate]", ident, verdict, samples,
                                  note="engine invariant minus 3x classical coordinate form"))
    if abstract and ode.order == 3:
        v, v1 = chain.fields[0], chain.fields[1]
        k0, k1 = chain.curvatures
        wident = sub(wun[0].expr, coordinate_wunschmann_order3(ode))
        verdict, samples = zero.verdict_stats(wident)
        residuals.append(Residual("identity[wunschmann-coordinate]", wident, verdict, samples))
        cform = mul(rational(Fraction(-3, 2)), sub(v1.apply(k1), v.apply(k0)))
        cident = sub(cform, coordinate_cartan_order3(ode))
        verdict, samples = zero.verdict_stats(cident)
        residuals.append(Residual("identity[cartan-coordinate]", cident, verdict, samples))

    wun_ok = all(r.is_zero for r in wun)
    car_ok = all(r.is_zero for r in car)
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
        b, beta = beta_coefficient(ode, chain, zero)
        derived["beta_b"] = b
        derived["beta_form"] = beta.comps

    return _render({
        "problem": spec.echo(),
        "status": "ok",
        "classification": classification,
        "residuals": [_verdict_entry(r.name, r.expr, r.verdict, r.samples, r.note)
                      for r in residuals],
        "derived": derived,
    })


def analyze_web(spec: ProblemSpec) -> dict:
    """Run the web pipeline: one verdict, from the Hirota triples through 0,
    printed as the Hirota, hierarchy, Lax and Zakharevich verdicts and on
    every residual (the hierarchy and Lax residuals printed as multiples
    of those triples), then (for solutions) connection data and flatness."""
    zero = spec.tester()
    try:
        web = make_web(spec.k, spec.w, spec.t_params, zero)
    except WebError as exc:
        raise InputError(str(exc)) from exc
    except Exception as exc:
        raise InputError(f"bad w: {exc}") from exc

    # One verdict decides the web, that of the Hirota triples through 0.
    # With T = t_{k+1}, every other triple, the first-order hierarchy and
    # the Lax brackets are identities in them (webs._hirota_residuals;
    # tests/test_webs.py::TestOneVerdict):
    #     hierarchy[i,j] = H_0ij / ((T - t_i)(T - t_j)),
    #     [L_i(t), L_j(t)] = -(t - t_0)(t - T) H_0ij / ((dw/dx0)^2 (T - t_i)(T - t_j)) d/dx0,
    # so both are printed as those multiples of the node printed as
    # hirota[0,i,j]; and on every t outside the spectral set, for a < b < c,
    # with P(t) = prod_{j <= k} (t - t_j),
    #     (omega ^ d omega)_{abc}(t) = P(t)^2 (t - T) H_abc / ((t - t_a)(t - t_b)(t - t_c)).
    hr = hirota_residuals(web, zero)
    residuals = [_verdict_entry(f"hirota[{i},{j},{l}]", e, v) for (i, j, l), (e, v) in sorted(hr.items())]
    t, top = web.t_params, web.t_params[-1]
    lax_factor = (-t[0] * top, t[0] + top, -1)  # -(t - t_0)(t - T) by degree
    hierarchy, lax = [], []
    for i, j in combinations(range(1, web.k + 1), 2):
        h, v = hr[(0, i, j)]
        e = mul(rational(1 / ((top - t[i]) * (top - t[j]))), h)
        hierarchy.append(_verdict_entry(f"hierarchy[{i},{j}]", e, v))
        for deg, c in enumerate(lax_factor):
            # a bracket coefficient that is the constant 0 is not listed
            if c and e is not ZERO:
                lax.append(_verdict_entry(f"lax[{i},{j};x0;t^{deg}]",
                                          mul(rational(c), e, pow_int(web.dw(0), -2)), v))
    residuals += hierarchy + lax

    web_ok = all(v is Verdict.ZERO for _, v in hr.values())
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
        conn = canonical_connection(web, zero)
        if web.k > 2:
            verdicts["flat"] = flatness_verdict(web, zero)
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
            bf = bryant_forms(web, zero)
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

    return _render({
        "problem": spec.echo(),
        "status": "ok",
        "residuals": residuals,
        "verdicts": verdicts,
        "derived": derived,
    })


def analyze_problem(spec: ProblemSpec) -> dict:
    if spec.kind == "ode":
        return analyze_ode(spec)
    return analyze_web(spec)


def analyze_batch(document: dict, defaults: dict | None = None) -> tuple[dict, int]:
    """Analyze {"problems": [...]} (or a bare problem object).

    Returns (report document, exit code): 0 clean, 1 if any problem had
    an input error or exceeded a budget (a constant of more than
    ``expr.MAX_CONSTANT_DIGITS`` digits, say), 2 if the analysis of a
    valid problem failed (an extraction failure, or a web construction
    that failed after validation, such as the bracket function breaking
    its degree bound).  Each failure is an error entry
    and the rest of the batch still runs.

    A problem whose validated spec repeats one analysed earlier in the
    batch reuses that ok entry, the same dict object, and is not analysed
    again; error entries are made per occurrence and echo their own raw
    problem.  The memo is local and freed on return.
    """
    if isinstance(document, dict) and "problems" in document:
        raw_problems = document["problems"]
        if not isinstance(raw_problems, list):
            raise InputError("'problems' must be a list")
    else:
        raw_problems = [document]
    reports = []
    code = 0
    # Keyed on the repr: equality takes tolerance -0.0 for 0.0, which
    # echo() prints apart.
    ok_entries: dict[str, dict] = {}
    for raw in raw_problems:
        try:
            spec = ProblemSpec.from_dict(raw, defaults)
            key = repr(spec)
            if key not in ok_entries:
                ok_entries[key] = analyze_problem(spec)
            reports.append(ok_entries[key])
        except (InputError, BudgetError) as exc:
            reports.append({"problem": raw, "status": "error", "error": str(exc)})
            code = max(code, 1)
        except ExtractionError as exc:
            reports.append({"problem": raw, "status": "error", "error": f"extraction failure: {exc}"})
            code = 2
        except (WebError, FrameError) as exc:
            reports.append({"problem": raw, "status": "error", "error": f"analysis failure: {exc}"})
            code = 2
    return {"reports": reports}, code


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, indent=2)


def dumps_report(document: dict) -> str:
    """The report text: sorted keys, two-space indent, a final newline."""
    return _ENCODER.encode(document) + "\n"


def write_report(document: dict, stream: TextIO) -> None:
    """Write the text of ``dumps_report`` to ``stream`` as it is encoded."""
    for chunk in _ENCODER.iterencode(document):
        stream.write(chunk)
    stream.write("\n")
