"""Compare benchmark records of two commits; refuse if their environments differ.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records that ``perfbench/run.py`` appends to
``.perfbench/records.jsonl``.  Records of untraced full-size runs are grouped
by workload.  For every end-to-end metric in ``BENCHMARK.json`` the script
prints each side's run count, median and quartiles, the change of the median
(positive is worse) and a verdict:

* ``regression``: the new median is worse than the base median by more than
  the metric's bound;
* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, and not every new run beats every base run;
* ``ok``: otherwise.

Weight bytes, and so every result, depend on the BLAS kernel, so records
whose environments differ are never compared.  Exit status: 0 when nothing
regressed, 1 on a regression, 2 when the environments differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> tuple[set[str], dict[str, dict[str, list[float]]]]:
    """The environments seen, and workload -> metric -> values."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    envs = set()
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"] or record["tiny"]:
            continue
        envs.add(json.dumps(record["env"], sort_keys=True))
        for name, metric in record["result"]["metrics"].items():
            runs[record["workload"]][name].append(metric["value"])
    return envs, runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_envs, base), (new_envs, new) = load(argv[0]), load(argv[1])
    envs = base_envs | new_envs
    if len(envs) > 1:
        print("refusing to compare: the records come from different environments")
        for env in sorted(envs):
            print(f"  {env}")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':20} {'metric':12} {'n':>5} {'base median':>12} {'new median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in bench["end_to_end"]:
            b, n = base[workload][metric["name"]], new[workload][metric["name"]]
            if not b or not n:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            b_med, n_med = statistics.median(b), statistics.median(n)
            change = sign * (n_med - b_med) / b_med
            bound = metric["bound"]
            if change > bound:
                verdict, regressed = "regression", True
            elif max(spread(b), spread(n)) > bound and \
                    not max(sign * v for v in n) < min(sign * v for v in b):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:20} {metric['name']:12} {len(b):>2}/{len(n):<2} {b_med:12.5g} "
                  f"{n_med:12.5g} {change:+8.3f} {bound:6.2f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
