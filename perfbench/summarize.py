"""Median and quartiles of benchmark results, per workload and metric.

Usage: python3 perfbench/summarize.py RESULT.json... [--out SUMMARY.json]

Reads result files written by run.py (any mix of workloads, seeds and
trace settings) and prints, for each workload and metric, the median, the
quartiles as `statistics.quantiles(values, n=4)` gives them, and the
quartile spread as a share of the median. The JSON summary also keeps each
seed's artifact digests, so a later commit can tell whether its output
bytes changed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys


def summarize(results: list[dict]) -> dict:
    out: dict = {}
    for res in results:
        w = out.setdefault(res["workload"], {"seeds": [], "metrics": {}, "artifact_sha256": {}})
        w["seeds"].append(res["seed"])
        w["environment"] = {k: v for k, v in res["environment"].items()
                            if k not in ("seed", "elapsed_s")}
        w["artifact_sha256"][str(res["seed"])] = res["outputs"]["artifact_sha256"]
        sections = ("per_layer",) if res["trace"] else ("end_to_end", "result_only")
        for section in sections:
            for name, m in res[section].items():
                entry = w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
                entry["values"].append(m["value"])
    for w in out.values():
        for entry in w["metrics"].values():
            xs = entry["values"]
            med = statistics.median(xs)
            entry["median"] = med
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
                entry["q1"], entry["q3"] = q1, q3
                entry["spread_frac"] = (q3 - q1) / abs(med) if med else None
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("results", nargs="+")
    p.add_argument("--out", help="also write the summary as JSON")
    args = p.parse_args(argv)
    results = []
    for path in args.results:
        with open(path, "r", encoding="utf-8") as fh:
            results.append(json.load(fh))
    summary = summarize(results)
    for name, w in sorted(summary.items()):
        print(f"{name}  (seeds {sorted(w['seeds'])})")
        for metric, e in sorted(w["metrics"].items()):
            spread = e.get("spread_frac")
            spread_txt = "" if spread is None else f"  spread {spread:.3f}"
            q = f"  q1 {e['q1']:.6g} q3 {e['q3']:.6g}" if "q1" in e else ""
            print(f"  {metric:40s} {e['median']:.6g} {e['unit']}{q}{spread_txt}  n={len(e['values'])}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
