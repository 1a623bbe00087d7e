"""The three benchmark workloads, generated from the benchmark seed.

Each problem carries a stable ``id`` that does not depend on the seed;
the seed only changes inputs that cannot change the right answer: the
zero-test sampling seed of each problem and the coefficients of the
separable webs (drawn as single digits, so printed sizes do not move).
The program sees only the JSON document built by ``document``; the
``id`` and ``tag`` of each problem are for checks.py.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GOLDEN_PROBLEMS = Path("tests/data/golden_problems.json")

# Two-exponential Hirota solutions, w = exp(x1+..+xk) + exp(x0 + m.x).
# With t = 0..k+1 the ansatz solves the Hirota system iff
# t_i/(t_{k+1}-t_i) * (m_i - 1) is the same for every i; these are the
# smallest integer solutions.  The second exponent is not supported on a
# single coordinate, so none of these webs is flat.
NONFLAT_M = {
    2: (5, 2),
    3: (10, 4, 2),
    4: (49, 19, 9, 4),
    5: (51, 21, 11, 6, 3),
}

# The separable and nonflat part of the seeded corpus of tests/conftest.py.
CORPUS_SEPARABLE = {
    2: ["x0+x1+x2", "x0 + x1^2/2 + x2"],
    3: ["x0+x1+x2+x3", "2*x0 + x1 + x2^2/2 + x3"],
    4: ["x0+x1+x2+x3+x4"],
}
CORPUS_SEED = 20240811

WORKLOADS = ("ode-ladder", "web-ladder", "mixed-batch")
MIXED_REPEATS = 3


def nonflat_w(k: int) -> str:
    m = NONFLAT_M[k]
    first = "+".join(f"x{i}" for i in range(1, k + 1))
    second = "+".join(["x0"] + [f"{mi}*x{i}" for i, mi in enumerate(m, start=1)])
    return f"exp({first}) + exp({second})"


def _random_polynomial_w(k: int, rng: random.Random) -> str:
    # Same draw as tests/conftest.py: a full linear part and at least one
    # cross term, which generically violates the Hirota system.
    terms = [f"x{i}" for i in range(k + 1)]
    i = rng.randint(0, k - 1)
    j = rng.randint(i + 1, k)
    terms.append(f"{rng.randint(1, 3)}*x{i}*x{j}")
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, k)
        j = rng.randint(0, k)
        terms.append(f"{rng.randint(1, 3)}*x{i}*x{j}")
    return " + ".join(terms)


def corpus() -> list[tuple[str, int, str, str]]:
    """(id, k, w, tag) for the 28 webs of the seeded test corpus."""
    out = []
    for k, ws in CORPUS_SEPARABLE.items():
        for n, w in enumerate(ws):
            out.append((f"web/corpus-separable/k{k}/{n}", k, w, "separable"))
    for k in (2, 3, 4):
        out.append((f"web/corpus-nonflat/k{k}", k, nonflat_w(k), "nonflat"))
    rng = random.Random(CORPUS_SEED)
    for k, count in ((2, 7), (3, 7), (4, 6)):
        for n in range(count):
            out.append((f"web/corpus-random/k{k}/{n}", k, _random_polynomial_w(k, rng), "random"))
    return out


def _ode(pid: str, order: int, rhs: str, seed: int) -> dict:
    return {"id": pid, "kind": "ode", "order": order, "rhs": rhs, "options": {"seed": seed}}


def _web(pid: str, k: int, w: str, seed: int, tag: str) -> dict:
    return {"id": pid, "kind": "web", "k": k, "w": w, "options": {"seed": seed}, "tag": tag}


def _concrete_odes() -> list[tuple[str, int, str]]:
    out = [
        ("ode/order3/zero", 3, "0"),
        ("ode/order3/cubic", 3, "x2^3"),
        ("ode/order3/projective", 3, "3*x2^2/(2*x1)"),
    ]
    out += [(f"ode/cubic/order{n}", n, f"x{n - 1}^3") for n in range(4, 11)]
    out += [(f"ode/exp/order{n}", n, f"exp(x{n - 1})") for n in (5, 8)]
    out.append(("ode/sin/order10", 10, "sin(x9)"))
    out += [
        (f"ode/mixed/order{n}", n, f"x{n - 1}^2*x1/(1+x0^2) + t*x{n - 2}")
        for n in (4, 5, 6)
    ]
    return out


def _separable_w(k: int, rng: random.Random, polynomial: bool) -> str:
    # Single-digit coefficients keep the printed size seed-independent.
    if polynomial:
        return " + ".join(
            f"x{i} + {rng.randint(2, 9)}*x{i}^{2 + i % 2}" for i in range(k + 1)
        )
    return " + ".join(f"{rng.randint(1, 9)}*x{i}" for i in range(k + 1))


def ode_ladder(seed: int) -> list[dict]:
    rng = random.Random(f"ode-ladder/{seed}")
    problems = [_ode(f"ode/abstract/order{n}", n, "abstract", rng.randrange(10**6)) for n in range(2, 7)]
    problems += [_ode(pid, n, rhs, rng.randrange(10**6)) for pid, n, rhs in _concrete_odes()]
    return problems


def web_ladder(seed: int) -> list[dict]:
    rng = random.Random(f"web-ladder/{seed}")
    problems = [_web(pid, k, w, rng.randrange(10**6), tag) for pid, k, w, tag in corpus()]
    for k in (1, 5, 6, 7, 8):
        for shape, poly in (("linear", False), ("polynomial", True)):
            w = _separable_w(k, rng, poly)
            problems.append(_web(f"web/separable-{shape}/k{k}", k, w, rng.randrange(10**6), "separable"))
    problems.append(_web("web/nonflat/k5", 5, nonflat_w(5), rng.randrange(10**6), "nonflat"))
    return problems


def mixed_batch(seed: int, root: Path) -> list[dict]:
    rng = random.Random(f"mixed-batch/{seed}")
    golden = json.loads((root / GOLDEN_PROBLEMS).read_text(encoding="utf-8"))["problems"]
    once = [dict(p, id=f"golden/{n}") for n, p in enumerate(golden)]
    for n in (2, 3, 4):
        for r in range(3):
            once.append(_ode(f"ode/abstract/order{n}/{r}", n, "abstract", rng.randrange(10**6)))
    for n in range(3, 11):
        pid = "ode/order3/cubic" if n == 3 else f"ode/cubic/order{n}"
        once.append(_ode(pid, n, f"x{n - 1}^3", rng.randrange(10**6)))
    once += [
        _web(pid, k, w, rng.randrange(10**6), tag)
        for pid, k, w, tag in corpus()
        if tag != "nonflat"
    ]
    once.append({"id": "error/duplicate-t", "kind": "web", "k": 2, "w": "x0+x1+x2",
                 "t_params": ["0", "1", "1", "3"], "tag": "error"})
    once.append({"id": "error/dangling-caret", "kind": "ode", "order": 3, "rhs": "x2^", "tag": "error"})
    return [dict(p) for _ in range(MIXED_REPEATS) for p in once]


def problems_for(name: str, seed: int, root: Path) -> list[dict]:
    """The annotated problem list (with ``id`` and ``tag``) of a workload."""
    if name == "ode-ladder":
        return ode_ladder(seed)
    if name == "web-ladder":
        return web_ladder(seed)
    if name == "mixed-batch":
        return mixed_batch(seed, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def document(problems: list[dict]) -> dict:
    """The CLI input: the problems without the benchmark's annotations."""
    strip = ("id", "tag")
    return {"problems": [{k: v for k, v in p.items() if k not in strip} for p in problems]}


def expected_exit_code(problems: list[dict]) -> int:
    return 1 if any(p.get("tag") == "error" for p in problems) else 0
