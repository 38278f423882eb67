"""surfscan benchmark driver.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan_flat --seed 1 --seconds 30 --trace 0

Writes the workload's configs from the seed, then starts fresh child
processes one at a time: set-up-only children before and after one
measuring child, which runs the workload for about --seconds seconds.
With --trace 0 the last stdout line holds the end-to-end metrics, wall_s
being the calls' quiet time (probe.py); with --trace 1 the per-layer
metrics of a traced run. The full result, with the environment stamp and
the artifact digests, goes to .perfbench/results/. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_EACH_SIDE = 5  # set-up-only children before and after the measuring child
TIME_LIMIT_S = 170.0  # every child must end within this many seconds of the start
BLAS_THREADS = min(2, os.cpu_count() or 1)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class RunError(RuntimeError):
    """The benchmark could not run: the program is missing, or a child failed."""


def _run_child(manifest: dict, work: Path, tag: str, deadline: float) -> dict:
    man_path = work / f"{tag}.manifest.json"
    res_path = work / f"{tag}.result.json"
    man_path.write_text(json.dumps(manifest, indent=1))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left for child {tag}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(man_path), str(res_path)],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child {tag} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"child {tag} exited with code {proc.returncode}")
    return json.loads(res_path.read_text())


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    """sha256 of the program's sources and shipped configs."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "configs") for p in (root / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _quartiles(xs: list) -> dict:
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "n": len(xs)}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (stdout summary, full result)."""
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    spec = WORKLOADS[workload]
    for needed in (ROOT / "src" / "surfscan" / "__init__.py", ROOT / spec.base_config):
        if not needed.is_file():
            raise RunError(f"{needed.relative_to(ROOT)} is missing; run from a surfscan checkout")
    work = ROOT / ".perfbench" / "work" / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        variants = write_configs(workload, seed, ROOT, work / "configs")
        manifest = {
            "root": str(ROOT), "stages": list(spec.stages), "variants": variants,
            "seconds": seconds, "trace": trace, "out_dir": str(work / "out"),
        }

        def setup(k):
            return _run_child(dict(manifest, mode="setup"), work, f"setup{k}", deadline)["setup_s"]

        # set-up children before and after the measuring child, so that the
        # set-up samples span the run and not one moment of the machine
        setups = [setup(k) for k in range(SETUP_EACH_SIDE)]
        res = _run_child(dict(manifest, mode="measure"), work, "measure", deadline)
        setups.append(res["setup_s"])
        setups += [setup(k) for k in range(SETUP_EACH_SIDE, 2 * SETUP_EACH_SIDE)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [it for it in res["iterations"] if not it["traced"]]
    # per call, not per iteration: contact_sweep runs one ten-call iteration.
    # A traced run has the probe off, so its "quiet" times are its raw ones;
    # they reach only its result file, not its summary line.
    calls = [t for it in plain for t in it.get("calls_raw_s", it["calls_s"])]
    quiet = [t for it in plain for t in it.get("calls_quiet_s", it["calls_s"])]
    values = {
        "wall_s": sum(quiet) / len(quiet),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    end_to_end = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    # result-file only: not gated, see README.md
    result_only = {
        "fail_frac": {"value": res["failed"] / res["attempted"], "unit": "ratio"},
        "wall_raw_s": {"value": sum(calls) / len(calls), "unit": "s"},
    }
    sim_s = sum(it["sim_s"] for it in plain)
    if sim_s > 0.0:
        result_only["sim_rtf"] = {"value": sim_s / sum(quiet), "unit": "ratio"}
    correct = res["failed"] == 0
    per_layer = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res.get("per_layer", {}).items()}
    summary = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
               "metrics": per_layer if trace else end_to_end}
    full = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "end_to_end": end_to_end,
        "result_only": result_only,
        "per_layer": per_layer,
        "spread": {"wall_s": _quartiles(quiet), "wall_raw_s": _quartiles(calls),
                   "setup_s": _quartiles(setups)},
        "samples": {"setup_s": setups, "iterations": res["iterations"]},
        "speed_probe": res.get("probe"),
        "outputs": {
            "attempted": res["attempted"],
            "failed": res["failed"],
            "errors": res["errors"],
            "report_verdicts": res["verdicts"],
            "artifact_sha256": res["digests"],
        },
        "environment": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "blas_threads": BLAS_THREADS,
            "git_commit": _git_commit(ROOT),
            "source_sha256": _source_digest(ROOT),
            "seed": seed,
            "elapsed_s": time.monotonic() - started,
        },
    }
    return summary, full


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in ("calls", "rays", "rows"):
        return "count"
    if last.endswith("frac"):
        return "ratio"
    if last.endswith("us") or last.startswith("us_"):
        return "us"
    return "s"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        summary, full = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    for err in full["outputs"]["errors"]:
        print(f"output check failed: {err}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
