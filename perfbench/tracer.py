"""Span tracing of surfscan's layers, applied from outside the package.

`Tracer.install()` replaces each traced function at the attribute its
callers look up (for example `surfscan.sim.arm_snapshot`, which `step`
calls, or `TriMesh.closest_point`) with a wrapper that records a span and
returns the original's result unchanged; `uninstall()` puts the originals
back. Spans stay in memory as [name, start, end, parent index, note];
`per_layer_metrics` derives every per-layer number from them.

A span's self time is its duration minus the durations of its direct
children. Nothing under `src/` knows about the tracer.
"""
from __future__ import annotations

import math
import time
import weakref


# notes recorded after a call: (args, result, before-call info) -> note
def _hinted(args, out, first):
    return (first, args[2] if len(args) > 2 else None, out.face)


def _rays(args, out, first):
    t, _ = out
    return (first, len(t), len(t) - int((t == math.inf).sum()))


def _first_only(args, out, first):
    return (first,)


def _rows(args, out, info):
    return len(args[0])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._seen_meshes: dict[int, weakref.ref] = {}

    # ---- recording ----

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            info = before(args) if before is not None else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, info])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = spans[idx]
                span[1] = t0
                span[2] = t1
            if after is not None:
                span[4] = after(args, out, info)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span named `name` (the benchmark's root spans)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _first_use(self, args) -> bool:
        """True on the first traced query of a TriMesh instance."""
        mesh = args[0]
        ref = self._seen_meshes.get(id(mesh))
        if ref is not None and ref() is mesh:
            return False
        self._seen_meshes[id(mesh)] = weakref.ref(mesh)
        return True

    # ---- patching ----

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import surfscan.scenario as scenario
        import surfscan.sim as sim
        from surfscan.chart import SurfaceChart
        from surfscan.controller import RasterPath
        from surfscan.mesh import TriMesh

        if self._undo:
            raise RuntimeError("tracer already installed")
        first = self._first_use
        # (owner, attribute its callers look up, span name, before, after)
        targets = (
            (sim, "arm_snapshot", "arm.arm_snapshot", None, None),
            (scenario, "arm_snapshot", "arm.arm_snapshot", None, None),
            (SurfaceChart, "evaluate_probe", "chart.evaluate_probe", None, None),
            (TriMesh, "closest_point", "mesh.closest_point", first, _hinted),
            (TriMesh, "raycast", "mesh.raycast", first, _first_only),
            (TriMesh, "raycast_batch", "mesh.raycast_batch", first, _rays),
            (TriMesh, "sample_surface", "mesh.sample_surface", first, _first_only),
            (scenario, "save_off", "mesh.save_off", None, None),
            (sim, "impedance_torque", "controller.impedance_torque", None, None),
            (sim, "nullspace_damping", "controller.nullspace_damping", None, None),
            (scenario, "contact_setpoints", "controller.setpoint", None, None),
            (RasterPath, "setpoint", "controller.setpoint", None, None),
            (sim, "step", "sim.step", None, None),
            (scenario, "simulate", "sim.simulate", None, None),
            (scenario, "export_log", "sim.export_log", None, _rows),
            (scenario, "render_depth", "reconstruction.render_depth", None, None),
            (scenario, "fuse_views", "reconstruction.fuse_views", None, None),
            (scenario, "extract_mesh", "reconstruction.extract_mesh", None, None),
            (scenario, "mesh_error", "reconstruction.mesh_error", None, None),
            (scenario, "save_pfm", "reconstruction.save_pfm", None, None),
            (scenario, "fit_plane", "localization.fit_plane", None, None),
        )
        for owner, attr, name, before, after in targets:
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr], before, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _quantile(xs, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def per_layer_metrics(spans: list, iterations: int) -> dict:
    """Per-layer numbers from the spans of `iterations` traced iterations.

    Counts are per iteration; times are per call unless the name says
    otherwise. A layer that a workload does not exercise reads 0.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    dur: dict[str, list] = {}
    self_t: dict[str, list] = {}
    notes: dict[str, list] = {}
    for i, (name, t0, t1, _, note) in enumerate(spans):
        dur.setdefault(name, []).append(t1 - t0)
        self_t.setdefault(name, []).append(t1 - t0 - child[i])
        notes.setdefault(name, []).append(note)

    def d(name):
        return dur.get(name, [])

    def per_iter(n):
        return n / iterations

    us, m = 1e6, {}
    m["arm.arm_snapshot.calls"] = per_iter(len(d("arm.arm_snapshot")))
    m["arm.arm_snapshot.mean_us"] = us * _mean(d("arm.arm_snapshot"))
    m["chart.evaluate_probe.calls"] = per_iter(len(d("chart.evaluate_probe")))
    m["chart.evaluate_probe.self_us"] = us * _mean(self_t.get("chart.evaluate_probe", []))

    cp = list(zip(d("mesh.closest_point"), notes.get("mesh.closest_point", [])))
    hinted = [(t, n) for t, n in cp if n[1] is not None]
    cold = [t for t, n in cp if n[1] is None]
    ht = [t for t, _ in hinted]
    m["mesh.closest_point.hinted.calls"] = per_iter(len(hinted))
    m["mesh.closest_point.hinted.mean_us"] = us * _mean(ht)
    m["mesh.closest_point.hinted.p99_us"] = us * _quantile(ht, 0.99)
    m["mesh.closest_point.hint_kept_frac"] = (
        sum(1 for _, n in hinted if n[2] == n[1]) / len(hinted) if hinted else 0.0
    )
    m["mesh.closest_point.cold.calls"] = per_iter(len(cold))
    m["mesh.closest_point.cold.mean_us"] = us * _mean(cold)

    rb = notes.get("mesh.raycast_batch", [])
    n_rays = sum(n[1] for n in rb)
    m["mesh.raycast_batch.rays"] = per_iter(n_rays)
    m["mesh.raycast_batch.us_per_ray"] = us * sum(d("mesh.raycast_batch")) / n_rays if n_rays else 0.0
    m["mesh.raycast_batch.hit_frac"] = sum(n[2] for n in rb) / n_rays if n_rays else 0.0

    first = [t for name in ("mesh.closest_point", "mesh.raycast", "mesh.raycast_batch",
                            "mesh.sample_surface")
             for t, n in zip(d(name), notes.get(name, [])) if n[0]]
    m["mesh.first_query.calls"] = per_iter(len(first))
    m["mesh.first_query.s"] = _mean(first)
    m["mesh.save_off.s"] = _mean(d("mesh.save_off"))

    m["controller.impedance_torque.mean_us"] = us * _mean(d("controller.impedance_torque"))
    m["controller.nullspace_damping.mean_us"] = us * _mean(d("controller.nullspace_damping"))
    m["controller.setpoint.mean_us"] = us * _mean(d("controller.setpoint"))

    steps = d("sim.step")
    m["sim.step.calls"] = per_iter(len(steps))
    m["sim.step.p50_us"] = us * _quantile(steps, 0.5)
    m["sim.step.p99_us"] = us * _quantile(steps, 0.99)
    m["sim.step.self_us"] = us * _mean(self_t.get("sim.step", []))
    m["sim.simulate.self_s"] = _mean(self_t.get("sim.simulate", []))
    rows = sum(notes.get("sim.export_log", []))
    m["sim.export_log.rows"] = per_iter(rows)
    m["sim.export_log.us_per_row"] = us * sum(d("sim.export_log")) / rows if rows else 0.0

    m["reconstruction.render_depth.mean_s"] = _mean(d("reconstruction.render_depth"))
    for stage in ("fuse_views", "extract_mesh", "mesh_error", "save_pfm"):
        m[f"reconstruction.{stage}.s"] = _mean(d(f"reconstruction.{stage}"))
    m["localization.fit_plane.us"] = us * _mean(d("localization.fit_plane"))

    roots = d("scenario.run_scenario")
    m["scenario.run_scenario.self_s"] = _mean(self_t.get("scenario.run_scenario", []))
    m["trace.attributed_frac"] = (
        1.0 - sum(self_t["scenario.run_scenario"]) / sum(roots) if roots else 0.0
    )
    return m
