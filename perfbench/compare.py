"""Compare two sets of benchmark runs, or report the spread of one.

Usage::

    python3 perfbench/compare.py OLD [NEW]

``OLD`` and ``NEW`` are directories of run outputs, one file per run
named ``<workload>.<seed>.out`` holding what ``perfbench/run.py`` printed
(its last line is the result object).  For every workload and metric the
report gives each side's median and quartiles and their spread (the
distance between the quartiles as a share of the median).  With one
directory it also says whether each end-to-end spread but that of
``setup_s`` is under a third of the metric's bound in BENCHMARK.json, and
exits 1 if one is not.  With two it adds the change of the median and a
verdict:

* ``improved``   the new side wins at least 9 of 10 pairs (pairs are
  matched by seed, else by order; ties count for neither) and the
  medians differ by more than the old side's quartile distance;
* ``unresolved`` a side's spread is wider than the bound, unless every
  new run reads better than every old run;
* ``regressed``  the new median is worse by more than the bound;
* ``unchanged``  otherwise.

Per-layer metrics have no bound, so they are only ever ``improved`` or
``-``.  Runs that reported ``correct: false`` are listed and left out.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import ROOT, median


def load(directory: Path) -> dict[str, dict[str, dict[int, float]]]:
    """``workload -> metric -> seed -> value`` from a run directory."""
    runs: dict[str, dict[str, dict[int, float]]] = defaultdict(
        lambda: defaultdict(dict)
    )
    for path in sorted(directory.glob("*.out")):
        workload, seed = path.name.split(".")[:2]
        lines = path.read_text().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{path}: no result line", file=sys.stderr)
            continue
        if not result.get("correct"):
            print(f"{path}: run reported correct=false, left out",
                  file=sys.stderr)
            continue
        for name, metric in result["metrics"].items():
            runs[workload][name][int(seed)] = float(metric["value"])
    return runs


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(old: dict[int, float], new: dict[int, float], better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    common = sorted(set(old) & set(new))
    pairs = (
        [(old[s], new[s]) for s in common] if len(common) >= 2
        else list(zip(old.values(), new.values()))
    )
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    q1, med_old, q3 = quartiles(old.values())
    med_new = median(new.values())
    if pairs and wins >= 0.9 * len(pairs) and abs(med_new - med_old) > q3 - q1:
        return "improved"
    if bound is None:
        return "-"
    all_better = min(sign * v for v in new.values()) > max(
        sign * v for v in old.values()
    )
    if max(spread(old.values()), spread(new.values())) > bound and not all_better:
        return "unresolved"
    if sign * (med_new - med_old) < -bound * abs(med_old):
        return "regressed"
    return "unchanged"


def _side(values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.6g} [{q1:.6g}, {q3:.6g}] {spread(values) * 100:5.1f}%"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(Path(d)) for d in argv]
    old = sides[0]
    ok = True
    for workload in sorted(old):
        print(f"== {workload}")
        for name, values in old[workload].items():
            meta = metrics.get(name, {"better": "lower"})
            bound = meta.get("bound")
            line = f"  {name:24s} n={len(values):2d} {_side(values.values())}"
            if len(sides) == 1:
                # Set-up time is gated on its median only, not its spread.
                if bound is not None and name != "setup_s":
                    steady = spread(values.values()) < bound / 3
                    ok &= steady
                    line += f"  bound {bound:g}  {'ok' if steady else 'WIDE'}"
                print(line)
                continue
            new = sides[1].get(workload, {}).get(name)
            if not new:
                print(line + "  (no new runs)")
                continue
            med_old = median(values.values())
            delta = (median(new.values()) - med_old) / abs(med_old) * 100
            print(f"{line}\n  {'':24s} n={len(new):2d} {_side(new.values())}"
                  f"  {delta:+6.1f}%  "
                  f"{verdict(values, new, meta['better'], bound)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
