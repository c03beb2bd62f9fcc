#!/usr/bin/env python3
"""Summarize and compare benchmark results.

    python3 perfbench/compare.py summary .perfbench_out/results > summary.json
    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a results directory written by run.py or a summary
written by the first form (``perfbench/baseline.json`` is one).  For every
workload and end-to-end metric the comparison prints both medians, the base
spread (quartile distance over median) and a verdict:

* ``ok`` or ``WORSE``: NEW's median is (not) worse than BASE's by more than
  the metric's bound in BENCHMARK.json, and the base spread is within it;
* where the base spread exceeds the bound, ``WORSE`` when NEW's median is
  worse than BASE's worse quartile by more than the bound, and
  ``unresolved`` otherwise: the runs cannot tell.

Exit codes: 1 if any metric is WORSE, else 3 if any is unresolved, else 0.
Results measured with different kernel backends are never compared: the
command refuses with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = ("backend", "python", "numpy", "scipy", "nproc")


def summarize(results_dir: Path) -> dict:
    """Per-workload medians and quartiles of untraced results."""
    runs: dict = {}
    stamps = set()
    for path in sorted(Path(results_dir).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        stamps.add(tuple(rec["stamp"][k] for k in STAMP_KEYS))
        runs.setdefault(rec["stamp"]["workload"], []).append(rec)
    if len(stamps) != 1:
        raise SystemExit(f"results in {results_dir} mix stamps {stamps}")
    out = {"stamp": dict(zip(STAMP_KEYS, stamps.pop())), "workloads": {}}
    for workload, recs in sorted(runs.items()):
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            q1, q2, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else (values[0],) * 3)
            metrics[name] = {"median": q2, "q1": q1, "q3": q3,
                             "spread": (quartile_spread(values)
                                        if len(values) > 1 else 0.0),
                             "unit": recs[0]["metrics"][name]["unit"],
                             "values": values}
        out["workloads"][workload] = {
            "seeds": [r["stamp"]["seed"] for r in recs],
            "failed": sum(r["failed"] for r in recs),
            "metrics": metrics}
    return out


def load(arg: str) -> dict:
    path = Path(arg)
    return summarize(path) if path.is_dir() else json.loads(path.read_text())


def compare(base: dict, new: dict) -> int:
    if base["stamp"]["backend"] != new["stamp"]["backend"]:
        print(f"refused: kernel backends differ ({base['stamp']['backend']} "
              f"vs {new['stamp']['backend']})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    verdicts = set()
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"{workload}: missing from NEW")
            verdicts.add("unresolved")
            continue
        for name, (bound, better) in bounds.items():
            bm, nm = b["metrics"][name], n["metrics"][name]
            change = (nm["median"] - bm["median"]) / bm["median"]
            spread = bm["spread"]
            if spread <= bound:
                ref = bm["median"]
            else:   # the base's worse quartile
                ref = bm["q3"] if better == "lower" else bm["q1"]
            beyond = (nm["median"] - ref) / ref
            worse = beyond > bound if better == "lower" else -beyond > bound
            verdict = ("WORSE" if worse else "unresolved" if spread > bound
                       else "ok")
            verdicts.add(verdict)
            print(f"{workload:13s} {name:12s} {bm['median']:.6g} -> "
                  f"{nm['median']:.6g} {bm['unit']:6s} ({change:+.1%}, "
                  f"base spread {spread:.1%}, bound {bound:.0%}) {verdict}")
    return 1 if "WORSE" in verdicts else 3 if "unresolved" in verdicts else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "summary":
        print(json.dumps(summarize(Path(argv[1])), indent=1))
        return 0
    if len(argv) == 2:
        return compare(load(argv[0]), load(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
