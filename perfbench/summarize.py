#!/usr/bin/env python3
"""Median, quartiles and spread of a set of benchmark runs.

    python3 perfbench/summarize.py RESULT_FILE...

Each RESULT_FILE holds the stdout of one `perfbench/run.py` run (the last
line is the result object; the line before it names the workload).
Prints, per workload and end-to-end metric, the median, the quartiles as
statistics.quantiles(n=4) gives them, and the inter-quartile spread as a
share of the median next to the metric's bound from BENCHMARK.json.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def main(paths):
    bounds = {m["name"]: m["bound"]
              for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = {}
    for path in paths:
        lines = Path(path).read_text().splitlines()
        if len(lines) < 2:
            print(f"{path}: not a complete run", file=sys.stderr)
            return 1
        header, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.setdefault(header["workload"], []).append(result)
    for workload, results in sorted(runs.items()):
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} failed operations")
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            median = stats.median(values)
            line = f"  {name:24s} median {median:12.6g}"
            if len(values) >= 2:
                q1, _, q3 = stats.quartiles(values)
                spread = stats.relative_spread(values)
                line += f"  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}"
                if name in bounds:
                    line += f"  bound {bounds[name]:.2f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
