#!/usr/bin/env python3
"""Check the spread of benchmark runs, and compare two sets of runs.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

Each argument is a directory of reports written by run.py (`--out`).

With one directory: for each workload, print every end-to-end metric's
median over the trace-0 reports and its spread, the interquartile range
over the median, against the metric's bound in BENCHMARK.json.

With two directories, also:
- refuse (exit 2) when a workload and seed present in both were run on
  different inputs (the sha256 fingerprints of a and b differ);
- report every per-layer count (units count, bytes, ratio) that does not
  repeat exactly between traced runs with the same workload and seed;
- flag each end-to-end metric whose median in RUNS_B is worse than in
  RUNS_A by more than its bound.

Exit status 1 when a spread exceeds its bound, a count differs or a
median got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from layertrace import COUNT_UNITS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int, int], dict]:
    reports = {}
    for path in sorted(directory.glob("*.json")):
        r = json.loads(path.read_text())
        reports[(r["workload"]["name"], r["seed"], r["trace"])] = r
    return reports


def medians(reports: dict, metric: str) -> dict[str, list[float]]:
    out = defaultdict(list)
    for (workload, _, trace), r in reports.items():
        if trace == 0:
            out[workload].append(r["metrics"][metric]["value"])
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(Path(d)) for d in argv]
    bad = 0

    if len(sets) == 2:
        a, b = sets
        for key in sorted(a.keys() & b.keys()):
            if a[key]["fingerprint"] != b[key]["fingerprint"]:
                print(f"REFUSED {key[0]} seed {key[1]}: inputs differ between the two sets "
                      f"({a[key]['fingerprint']} vs {b[key]['fingerprint']})")
                return 2
        compared = differ = 0
        for key in sorted(k for k in a.keys() & b.keys() if k[2] == 1):
            ma, mb = a[key]["metrics"], b[key]["metrics"]
            for name, m in ma.items():
                if m["unit"] not in COUNT_UNITS:
                    continue
                compared += 1
                if m["value"] != mb.get(name, {}).get("value"):
                    differ += 1
                    print(f"COUNT DIFFERS {key[0]} seed {key[1]} {name}: "
                          f"{m['value']} vs {mb.get(name, {}).get('value')}")
        print(f"per-layer counts: {compared} compared, {differ} differ")
        bad += differ

    for label, reports in zip("AB", sets):
        for metric in spec["end_to_end"]:
            for workload, values in sorted(medians(reports, metric["name"]).items()):
                s = spread(values)
                flag = "" if s <= metric["bound"] else "  SPREAD OVER BOUND"
                bad += bool(flag)
                print(f"{label} {workload:8} {metric['name']:15} runs={len(values):2} "
                      f"median={statistics.median(values):.6g} spread={s:.4f} "
                      f"bound={metric['bound']}{flag}")

    if len(sets) == 2:
        for metric in spec["end_to_end"]:
            med_a, med_b = medians(sets[0], metric["name"]), medians(sets[1], metric["name"])
            for workload in sorted(med_a.keys() & med_b.keys()):
                x, y = statistics.median(med_a[workload]), statistics.median(med_b[workload])
                worse = (y - x) / x if metric["better"] == "lower" else (x - y) / x
                flag = "" if worse <= metric["bound"] else "  WORSE THAN BOUND"
                bad += bool(flag)
                print(f"B vs A {workload:8} {metric['name']:15} {x:.6g} -> {y:.6g} "
                      f"worse by {worse:+.4f} (bound {metric['bound']}){flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
