"""Record pins.json: the outcome of every benchmark problem at this commit.

    python3 bench/pin.py

Runs each workload in-process for every seed of ``PIN_SEEDS``, checks that the
outcomes do not depend on the seed, and writes status, classification,
verdict flags and residual verdicts per problem id.  Fields that the
construction of a problem decides (see checks.constructed) are left out,
so pins.json holds only what the seed commit says.  Run it only on the
commit whose answers the benchmark should hold later commits to.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIN_SEEDS = (1, 2, 3)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from paraweb.report import analyze_batch

    import checks
    import workloads

    pins: dict[str, dict] = {}
    for seed in PIN_SEEDS:
        for name in workloads.WORKLOADS:
            problems = workloads.problems_for(name, seed, ROOT)
            report, _ = analyze_batch(workloads.document(problems))
            for problem, entry in zip(problems, report["reports"]):
                if problem["id"].startswith("golden/"):
                    continue
                got = checks.outcome(entry)
                for key, value in checks.constructed(problem).items():
                    if key == "verdicts":
                        for flag in value:
                            got.get("verdicts", {}).pop(flag, None)
                    else:
                        got.pop(key, None)
                if pins.setdefault(problem["id"], got) != got:
                    print(f"outcome of {problem['id']} depends on the seed", file=sys.stderr)
                    return 1
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pins)} problems")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
