"""One fresh process of the benchmark: set-up, then the measured workload.

Usage: python3 child.py MANIFEST RESULT

MANIFEST is a JSON file written by run.py naming the repository root, the
workload's stages and its generated variant configs, the mode (`setup` or
`measure`), the measuring time and whether to trace. The child writes its
numbers to RESULT as JSON. It imports nothing from surfscan before the
set-up clock starts, so set-up covers importing the package.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from probe import SpeedProbe
from tracer import Tracer, per_layer_metrics


def build_scene(cfg, api) -> None:
    """Arm, phantom mesh and BVH of one config, through public calls only.

    Mirrors how the scenario runner places the phantom: its top sits
    d_start below the probe tip at the start posture. The first
    closest-point query builds the mesh's BVH.
    """
    np = api.np
    model = api.reference_arm() if cfg.arm_model == "reference" else api.load_arm_model(cfg.arm_model)
    tip = api.arm_snapshot(model, cfg.q_start).probe.translation
    top = tip - np.array([0.0, 0.0, cfg.d_start])
    if cfg.phantom_kind == "flat":
        mesh = api.flat_phantom_mesh(top, cfg.phantom_extent, cfg.phantom_grid_n)
    elif cfg.phantom_kind == "cap":
        base = top - np.array([0.0, 0.0, cfg.cap_height])
        mesh = api.cap_phantom_mesh(
            base, cfg.sphere_radius, cfg.cap_height, cfg.phantom_extent, cfg.phantom_grid_n
        )
    else:
        raise ValueError(f"phantom kind {cfg.phantom_kind!r} is not part of any workload")
    hit = mesh.closest_point(top)
    if abs(hit.distance) > 1e-9:
        raise RuntimeError(f"scene set-up: phantom top is {hit.distance} m off the surface")


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every file under out_dir: relative path, length, bytes."""
    h = hashlib.sha256()
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            h.update(p.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


class Runner:
    """Runs iterations of a workload and checks every call's outputs.

    A call fails if it raises, if its report has a failed check, or if its
    artifact set differs from the first call of the same variant in this
    process (traced or not).
    """

    def __init__(self, api, variants, cfgs, stages, out_root: Path):
        self.api = api
        self.variants = variants
        self.cfgs = cfgs
        self.stages = tuple(stages)
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, list] = {v["name"]: [] for v in variants}

    def iteration(self, tracer=None) -> dict:
        bounds, sim_s = [], 0.0  # (start, end) of each call
        run = self.api.run_scenario
        for v, cfg in zip(self.variants, self.cfgs):
            out = self.out_root / v["name"]
            shutil.rmtree(out, ignore_errors=True)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = run(cfg, out, stages=self.stages)
                else:
                    res = tracer.call("scenario.run_scenario", run, cfg, out, stages=self.stages)
            except Exception as exc:  # a failed call is counted, not fatal
                bounds.append((t0, time.perf_counter()))
                self.failed += 1
                self.errors.append(f"{v['name']}: {type(exc).__name__}: {exc}")
                continue
            bounds.append((t0, time.perf_counter()))
            sim_s += sum(float(log.t[-1] - log.t[0]) for log in res.logs.values())
            digest = artifact_digest(out)
            first = self.digests.setdefault(v["name"], digest)
            self.verdicts[v["name"]].append(bool(res.passed))
            if not res.passed:
                self.failed += 1
                self.errors.append(f"{v['name']}: report has a failed check")
            elif digest != first:
                self.failed += 1
                self.errors.append(f"{v['name']}: artifacts differ from the first call"
                                   + (" (traced call)" if tracer is not None else ""))
        calls = [t1 - t0 for t0, t1 in bounds]
        return {"traced": tracer is not None, "wall_s": sum(calls), "calls_s": calls,
                "bounds": bounds, "sim_s": sim_s}


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Iterate until the next iteration would overrun `seconds`.

    Untraced runs iterate untraced only, under the speed probe, and give
    each call's quiet time (probe.py) besides its wall time. Traced runs
    alternate untraced and traced iterations, at least one of each, so the
    tracing overhead is measured against untraced iterations of the same
    process; they run without the probe.
    """
    tracer = Tracer() if trace else None
    probe = None if trace else SpeedProbe()
    iterations = []
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        while True:
            traced = trace and len(iterations) % 2 == 1
            if traced:
                tracer.install()
                try:
                    it = runner.iteration(tracer)
                finally:
                    tracer.uninstall()
            else:
                it = runner.iteration()
            iterations.append(it)
            elapsed = time.perf_counter() - start
            if (not trace or len(iterations) >= 2) and elapsed + it["wall_s"] > seconds:
                break
    out = {"iterations": iterations, "measure_s": time.perf_counter() - start}
    if probe is not None:
        for it in iterations:
            parts = [probe.interval(t0, t1) for t0, t1 in it["bounds"]]
            it["calls_raw_s"] = [raw for raw, _ in parts]
            it["calls_quiet_s"] = [quiet for _, quiet in parts]
        kernel = sorted(probe.kernel)
        out["probe"] = {"samples": len(kernel)}
        if kernel:
            out["probe"].update(kernel_p2_us=kernel[len(kernel) // 50] * 1e6,
                                kernel_median_us=statistics.median(kernel) * 1e6)
    if trace:
        traced = [it["wall_s"] for it in iterations if it["traced"]]
        plain = [it["wall_s"] for it in iterations if not it["traced"]]
        layer = per_layer_metrics(tracer.spans, len(traced))
        layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        out["per_layer"] = layer
        out["spans"] = len(tracer.spans)
    return out


class _Api:
    """The public surfscan names the benchmark calls."""

    def __init__(self, root: Path):
        import numpy

        import surfscan
        from surfscan.arm import arm_snapshot, load_arm_model, reference_arm
        from surfscan.scenario import load_config, run_scenario
        from surfscan.sim import cap_phantom_mesh, flat_phantom_mesh

        src = (root / "src").resolve()
        if src not in Path(surfscan.__file__).resolve().parents:
            raise RuntimeError(f"surfscan was imported from {surfscan.__file__}, not from {src}")
        self.np = numpy
        self.arm_snapshot, self.load_arm_model, self.reference_arm = (
            arm_snapshot, load_arm_model, reference_arm)
        self.load_config, self.run_scenario = load_config, run_scenario
        self.cap_phantom_mesh, self.flat_phantom_mesh = cap_phantom_mesh, flat_phantom_mesh


def main(manifest_path: str, result_path: str) -> int:
    t0 = time.perf_counter()
    man = json.loads(Path(manifest_path).read_text())
    api = _Api(Path(man["root"]))
    cfgs = [api.load_config(v["config"]) for v in man["variants"]]
    for cfg in cfgs:
        build_scene(cfg, api)
    result = {"setup_s": time.perf_counter() - t0, "numpy": api.np.__version__}
    if man["mode"] == "measure":
        runner = Runner(api, man["variants"], cfgs, man["stages"], Path(man["out_dir"]))
        result.update(measure(runner, float(man["seconds"]), bool(man["trace"])))
        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            errors=runner.errors,
            digests=runner.digests,
            verdicts=runner.verdicts,
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    Path(result_path).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
