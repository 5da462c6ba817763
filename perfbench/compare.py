"""Summarize or compare benchmark results written by run.py.

    python3 perfbench/compare.py DIR              # medians and spreads
    python3 perfbench/compare.py DIR --json       # the same, as JSON
    python3 perfbench/compare.py BASE_DIR HEAD_DIR

DIR holds the ``<workload>/seed<n>-trace<t>.json`` files of ``run.py``
(``.perfbench_out`` by default).  The spread of a metric is the distance
between its first and third quartiles over the seeds, as a share of its
median.  Results made with different numeric backends (numba vs plain numpy)
are never summarized together or compared: the tool refuses and exits 2.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text()) \
    if (HERE.parent / "BENCHMARK.json").is_file() else {}


class MixedBackends(ValueError):
    pass


def load(directory):
    """{workload: [result, ...]} of the full-size results in a directory."""
    out = {}
    for path in sorted(Path(directory).glob("*/seed*-trace*.json")):
        if path.name.endswith("-spans.json"):
            continue
        res = json.loads(path.read_text())
        if not res.get("tiny"):
            out.setdefault(res["workload"], []).append(res)
    return out


def backend_of(*result_sets):
    """The one backend of all results; raises MixedBackends otherwise."""
    backends = {r["env"]["backend"] for rs in result_sets
                for results in rs.values() for r in results}
    if len(backends) > 1:
        raise MixedBackends(
            f"results come from different backends {sorted(backends)}; "
            f"numbers from different backends are not comparable")
    return backends.pop() if backends else None


def stats(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def summarize(results):
    """Per workload: stats of each metric over the untraced runs, and of
    each per-layer metric over the traced runs."""
    out = {}
    for workload, runs in sorted(results.items()):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            sel = [r for r in runs if r["trace"] == trace]
            if not sel:
                continue
            entry[key] = {
                name: dict(stats([r["metrics"][name]["value"] for r in sel]),
                           unit=sel[0]["metrics"][name]["unit"])
                for name in sel[0]["metrics"]}
            entry[f"seeds_trace{trace}"] = sorted(r["seed"] for r in sel)
            if trace == 0 and sel[0].get("uncalibrated"):
                entry["uncalibrated"] = {
                    name: stats([r["uncalibrated"][name] for r in sel])
                    for name in sel[0]["uncalibrated"]}
        out[workload] = entry
    return out


def bounds():
    return {m["name"]: m for m in SPEC.get("end_to_end", [])}


def print_summary(summary):
    spec = bounds()
    for workload, entry in summary.items():
        print(f"{workload}: seeds {entry.get('seeds_trace0', [])}")
        for name, s in entry.get("end_to_end", {}).items():
            bound = spec.get(name, {}).get("bound")
            flag = "" if bound is None or s["spread"] < bound / 3 else \
                ("  spread above bound/3" if s["spread"] <= bound
                 else "  SPREAD ABOVE BOUND")
            print(f"  {name:<16} median {s['median']:<12.6g} {s['unit']:<5} "
                  f"spread {s['spread']:.4f}"
                  f"{'' if bound is None else f' (bound {bound})'}{flag}")


def compare(base, head):
    """Per workload and end-to-end metric: both medians, the change, and
    whether the head is worse than the base by more than the bound."""
    spec = bounds()
    worse = False
    for workload in sorted(set(base) & set(head)):
        print(workload)
        b_e = base[workload].get("end_to_end", {})
        h_e = head[workload].get("end_to_end", {})
        for name in b_e:
            if name not in h_e:
                continue
            b, h = b_e[name]["median"], h_e[name]["median"]
            m = spec.get(name, {})
            sign = -1.0 if m.get("better") == "higher" else 1.0
            change = sign * (h - b) / abs(b) if b else 0.0
            verdict = "same"
            if m and change > m["bound"]:
                verdict, worse = "WORSE", True
            elif m and max(b_e[name]["spread"], h_e[name]["spread"]) > \
                    m["bound"]:
                verdict = "unresolved"
            elif change < 0:
                verdict = "better"
            print(f"  {name:<16} {b:<12.6g} -> {h:<12.6g} "
                  f"{'worse' if change > 0 else 'better'} by "
                  f"{abs(change):.3f}  {verdict}")
    return worse


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="+", type=Path, metavar="DIR")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    if len(args.dirs) > 2:
        ap.error("give one directory to summarize or two to compare")
    sets = [load(d) for d in args.dirs]
    try:
        backend = backend_of(*sets)
    except MixedBackends as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    summaries = [summarize(s) for s in sets]
    if len(sets) == 1:
        if args.json:
            env = next(r["env"] for rs in sets[0].values() for r in rs)
            print(json.dumps({"backend": backend, "env": env,
                              "workloads": summaries[0]}, indent=1))
        else:
            print_summary(summaries[0])
        return 0
    return 1 if compare(*summaries) else 0


if __name__ == "__main__":
    sys.exit(main())
