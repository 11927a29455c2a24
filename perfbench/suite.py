"""Run the benchmark over several seeds, interleaving the workloads, and
summarise each metric as median, quartiles and spread.

    python3 perfbench/suite.py [--seeds 10] [--seed-base 0] [--trace 0]
        [--out FILE] [--against FILE]
    python3 perfbench/suite.py --summary-only FILE [--against FILE]

Seed ``k`` runs the workloads in an order rotated by ``k``, so slow periods
of a shared machine fall on every workload rather than on one. Every run's
result line and output digest is appended to ``--out`` (default
``perfbench/results/suite-<time>.jsonl``). The summary gives, per workload and
metric, the sample count, median, first and third quartiles and the spread
(Q3 - Q1) / median, flagged when it exceeds a third of the metric's bound in
``BENCHMARK.json`` and failed when it exceeds the bound; ``setup_s`` is held
to the same rule as the other metrics. ``--against`` compares medians with an
earlier suite file, flags changes worse than the bound, and reports any seed
whose outputs differ in their bytes. Use ``--seed-base`` to re-check a claim
on seeds not used while making it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "trace": trace, "exit": done.returncode,
                "error": done.stderr.strip()[-2000:]}
    outputs = next((l.split()[1] for l in lines if l.startswith("outputs ")), None)
    return {"workload": workload, "seed": seed, "trace": trace, "exit": 0,
            "outputs": outputs, "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def summarise(runs: list[dict], spec: dict, against: list[dict] | None) -> bool:
    """Print the summary; return True when every spread and change is within bounds."""
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for r in runs:
        if r["exit"] != 0 or not r["result"]["correct"]:
            ok = False
            print(f"FAILED {r['workload']} seed {r['seed']}: {r.get('error') or r['result']}")

    def medians(rows):
        table = defaultdict(list)
        for r in rows:
            if r["exit"] == 0:
                for name, m in r["result"]["metrics"].items():
                    table[(r["workload"], name)].append(m["value"])
        return table

    now = medians(runs)
    before = medians(against) if against else {}
    print(f"{'workload':<8} {'metric':<36} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
          + ("  change" if against else ""))
    for (workload, name), values in sorted(now.items()):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        line = f"{workload:<8} {name:<36} {len(values):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}"
        metric = bounds.get(name, {})
        bound = metric.get("bound")
        if bound is not None and spread > bound / 3:
            line += "  (spread above bound/3)"
            ok = ok and spread <= bound
        if (workload, name) in before:
            old = statistics.median(before[(workload, name)])
            change = (med - old) / old if old else 0.0
            line += f"  {change:+.3f}"
            worse = change if metric.get("better") == "lower" else -change
            if bound is not None and worse > bound:
                line += "  (WORSE than bound)"
                ok = False
        print(line)
    if against:
        previous = {(r["workload"], r["seed"]): r.get("outputs") for r in against if r["exit"] == 0}
        for r in runs:
            old = previous.get((r["workload"], r["seed"]))
            if old is not None and r.get("outputs") != old:
                print(f"OUTPUTS DIFFER: {r['workload']} seed {r['seed']}")
                ok = False
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    parser.add_argument("--summary-only", type=Path, default=None, metavar="FILE",
                        help="summarise an existing suite file instead of running")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    against = load(args.against) if args.against else None
    if args.summary_only:
        return 0 if summarise(load(args.summary_only), spec, against) else 1

    names = [w["name"] for w in spec["workloads"]]
    out = args.out or HERE / "results" / time.strftime("suite-%Y%m%dT%H%M%S.jsonl", time.gmtime())
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for k in range(args.seeds):
        seed = args.seed_base + k
        for workload in names[k % len(names):] + names[: k % len(names)]:
            r = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            with open(out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(r, sort_keys=True) + "\n")
            status = "ok" if r["exit"] == 0 and r["result"]["correct"] else "FAILED"
            print(f"[{len(runs)}] {workload} seed {seed}: {status}", flush=True)
    print(f"runs written to {out}")
    return 0 if summarise(runs, spec, against) else 1


if __name__ == "__main__":
    sys.exit(main())
