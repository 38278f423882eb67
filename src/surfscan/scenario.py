"""Config-driven scenario runner for the scanning pipeline.

A scenario is one YAML file describing the arm, the phantom, the camera
and the controller, plus an ordered list of requested stages:

  localize     synthetic fiducials on the ground plane -> fitted plane
  reconstruct  depth-camera orbit -> fused height field -> mesh
  contact      distance-ramp contact experiment on the truth chart
  raster       coverage scan; uses the reconstructed chart when the
               reconstruct stage ran, the truth chart otherwise

Every stage writes its artifacts (marker/plane files, PFM depth maps,
OFF meshes, CSV logs) into one output directory, and a plain-text
report collects the per-stage checks. Stage failures are wrapped in
StageError carrying the stage name; artifacts written so far stay on
disk, a simulation that stopped early leaves its samples so far in
<stage>_log.partial.csv, and the report flags the failed stage.

Runs are deterministic: all randomness derives from the config seed, so
a repeated run reproduces every output file byte for byte.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .arm import ArmModel, JointLimitError, arm_snapshot, check_limits, load_arm_model, reference_arm
from .chart import SurfaceChart
from .controller import (
    ContactProfile,
    ImpedanceGains,
    RasterPath,
    Setpoint,
    check_spd,
    contact_setpoints,
    critical_damping,
    task_space_inertia,
)
from .localization import (
    MarkerObservation,
    ScenePlane,
    alignment_pose,
    fit_plane,
    orbit_trajectory,
    save_markers,
)
from .mesh import TriMesh, load_off, save_off
from .reconstruction import (
    CameraIntrinsics,
    fuse_views,
    extract_mesh,
    mesh_error,
    render_depth,
    save_pfm,
)
from .schema import (
    Bound,
    ConfigKey,
    SchemaError,
    as_float,
    as_int,
    as_str,
    as_vector,
    check_keys,
    load_yaml,
    require_mapping,
    vector,
)
from .sim import (
    MAX_DT,
    PhantomModel,
    ScanLog,
    cap_phantom_mesh,
    export_log,
    flat_phantom_mesh,
    simulate,
    steady_state_force,
    step_count,
)

STAGES = ("localize", "reconstruct", "contact", "raster")

UP = np.array([0.0, 0.0, 1.0])


class StageError(RuntimeError):
    """A scenario stage failed; artifacts written so far are kept."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {message}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


_POSITIVE = Bound("positive", lo=0.0)
_NON_NEGATIVE = Bound("non-negative", lo=0.0, lo_closed=True)
_PENETRATION = Bound("negative (command penetration)", hi=0.0)
_AT_LEAST_2 = Bound("at least 2", 2, lo_closed=True)
# 2 (n - 1)^2 faces, at most 500 000: a phantom too large to allocate is a config error
_GRID_N = Bound("at least 2 and at most 501", 2, 501, lo_closed=True, hi_closed=True)
# an image side, and an image of at most 2^21 pixels (1920 x 1080 fits): a
# camera too large to render is a config error
_IMAGE_SIDE = Bound("at least 1 and at most 8192", 1, 8192, lo_closed=True, hi_closed=True)
MAX_PIXELS = 2**21


def _spd(value: np.ndarray, name: str) -> None:
    """The bound on impedance gains: the rule ImpedanceGains applies."""
    try:
        check_spd(value, name.rpartition(".")[2])
    except ValueError as exc:
        raise SchemaError(f"{name}: {exc}") from None


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where}: expected true/false, got {value!r}")
    return value


def _gain_matrix(node, where: str) -> np.ndarray:
    """6 diagonal entries or a full 6x6 row list."""
    if not isinstance(node, (list, tuple)):
        raise SchemaError(f"{where}: expected 6 numbers or 6 rows of 6")
    if not node or not isinstance(node[0], (list, tuple)):
        if len(node) != 6:
            raise SchemaError(f"{where}: expected 6 numbers or 6 rows of 6, got a list of {len(node)}")
        return np.diag(as_vector(node, 6, where))
    if len(node) != 6:
        raise SchemaError(f"{where}: expected 6 rows of 6, got {len(node)} rows")
    return np.vstack([as_vector(row, 6, f"{where}[{k}]") for k, row in enumerate(node)])


def _damping(node, where: str) -> np.ndarray | None:
    """Explicit gains, or None for 'critical' (resolved at run time)."""
    if node == "critical":
        return None
    if isinstance(node, str):
        raise SchemaError(f"{where}: expected gains or 'critical'")
    return _gain_matrix(node, where)


def _key(name: str, default, conv, bound=None):
    """A ScenarioConfig field read from the config key `name`."""
    return field(metadata={"key": ConfigKey(name, default, conv, bound)})


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario config. Each field but `camera` is declared with
    the config key it is read from (see ConfigKey); parse_config reads
    these declarations."""

    name: str = _key("name", "scenario", as_str)
    seed: int = _key("seed", 0, as_int, _NON_NEGATIVE)
    arm_model: str = _key("arm.model", "reference", as_str)  # "reference" or a file path
    q_start: np.ndarray = _key("arm.q_start", [0.0, 0.5, 0.0, -1.0, 0.0, 0.5, 0.0], vector(7))
    phantom_kind: str = _key("phantom.kind", "flat", as_str)  # flat | cap | mesh
    phantom_mesh: str | None = _key("phantom.mesh", None, as_str)
    phantom_extent: float = _key("phantom.extent", None, as_float, _POSITIVE)  # default by kind
    phantom_grid_n: int = _key("phantom.grid_n", None, as_int, _GRID_N)  # default by kind
    sphere_radius: float = _key("phantom.sphere_radius", 0.10, as_float, _POSITIVE)
    cap_height: float = _key("phantom.cap_height", 0.04, as_float, _POSITIVE)  # also <= sphere_radius
    contact_stiffness: float = _key("phantom.contact_stiffness", 300.0, as_float, _POSITIVE)
    contact_damping: float = _key("phantom.contact_damping", 20.0, as_float, _NON_NEGATIVE)
    marker_half_extents: np.ndarray = _key("markers.half_extents", [0.10, 0.09], vector(2), _POSITIVE)
    marker_size: float = _key("markers.size", 0.02, as_float, _POSITIVE)
    marker_noise_sigma: float = _key("markers.noise_sigma", 0.0, as_float, _NON_NEGATIVE)
    fit_use_corners: bool = _key("markers.use_corners", False, _as_bool)
    camera: CameraIntrinsics  # from the _CAMERA_INTRINSICS keys
    view_angle: float = _key(  # rad; read in degrees
        "camera.view_angle_deg", 45.0, as_float, Bound("in [0, 90) deg", 0.0, 90.0, lo_closed=True))
    view_distance: float = _key("camera.view_distance", 0.30, as_float, _POSITIVE)
    n_views: int = _key("reconstruction.n_views", 8, as_int, _AT_LEAST_2)
    resolution: float = _key("reconstruction.resolution", 0.005, as_float, _POSITIVE)
    chart_margin: float = _key("reconstruction.chart_margin", 0.01, as_float, _NON_NEGATIVE)
    # vertical stiffness an order above the contact spring keeps the
    # held distance within the raster tolerance (series equilibrium);
    # orientation rows stiff enough that the D/K tracking lag stays
    # small while the surface frame rotates under a moving probe
    stiffness: np.ndarray = _key(  # (6, 6)
        "controller.stiffness", [300.0, 300.0, 3000.0, 20.0, 20.0, 4.0], _gain_matrix, _spd)
    damping: np.ndarray | None = _key("controller.damping", "critical", _damping, _spd)  # None = critical
    zeta: float = _key("controller.zeta", 0.7, as_float, _POSITIVE)
    nullspace_gain: float = _key("controller.nullspace_gain", 0.5, as_float, _NON_NEGATIVE)
    d_start: float = _key(
        "contact.d_start", 0.010, as_float, Bound("positive (start above the surface)", lo=0.0))
    d_hold: float = _key("contact.d_hold", -0.004, as_float, _PENETRATION)
    ramp_rate: float = _key("contact.ramp_rate", 0.005, as_float, _POSITIVE)
    hold_duration: float = _key("contact.hold_duration", 5.0, as_float, _NON_NEGATIVE)
    raster_half_extents: np.ndarray = _key("raster.half_extents", [0.03, 0.02], vector(2), _POSITIVE)
    line_spacing: float = _key("raster.line_spacing", 0.01, as_float, _POSITIVE)
    raster_speed: float = _key("raster.speed", 0.01, as_float, _POSITIVE)
    raster_d_hold: float = _key("raster.d_hold", -0.004, as_float, _PENETRATION)
    settle_time: float = _key("raster.settle_time", 2.0, as_float, _NON_NEGATIVE)
    dt: float = _key("sim.dt", 1e-3, as_float, Bound(f"in (0, {MAX_DT}] s", 0.0, MAX_DT, hi_closed=True))
    sample_every: int = _key("sim.sample_every", 1, as_int, Bound("at least 1", 1, lo_closed=True))


# CameraIntrinsics checks these as a group; parse_config bounds the pixel count
_CAMERA_INTRINSICS = (
    ConfigKey("camera.fx", 180.0, as_float), ConfigKey("camera.fy", 180.0, as_float),
    ConfigKey("camera.cx", 120.0, as_float), ConfigKey("camera.cy", 90.0, as_float),
    ConfigKey("camera.width", 240, as_int, _IMAGE_SIDE),
    ConfigKey("camera.height", 180, as_int, _IMAGE_SIDE),
    ConfigKey("camera.depth_noise_sigma", 0.0, as_float),
)
_FIELD_KEYS = {f.name: f.metadata["key"] for f in fields(ScenarioConfig) if f.metadata}
CONFIG_KEYS = (*_FIELD_KEYS.values(), *_CAMERA_INTRINSICS)


def _allowed_keys() -> dict[str, set]:
    """section -> the keys it may hold; the top level ("") also holds the sections."""
    allowed = {"": set()}
    for k in CONFIG_KEYS:
        section, _, key = k.name.rpartition(".")
        allowed.setdefault(section, set()).add(key)
        allowed[""].add(section or key)
    return allowed


_ALLOWED = _allowed_keys()


def parse_config(doc, where: str = "config") -> ScenarioConfig:
    nodes = {"": require_mapping(doc, where)}
    for section, allowed in _ALLOWED.items():
        here = f"{where}.{section}" if section else where
        if section:
            nodes[section] = require_mapping(nodes[""].get(section, {}), here)
        check_keys(nodes[section], allowed, here)
    values = {f: k.read(nodes[k.name.rpartition(".")[0]], where) for f, k in _FIELD_KEYS.items()}

    kind = values["phantom_kind"]
    if kind not in ("flat", "cap", "mesh"):
        raise SchemaError(f"{where}.phantom.kind: expected flat|cap|mesh, got {kind!r}")
    if kind == "mesh" and values["phantom_mesh"] is None:
        raise SchemaError(f"{where}.phantom: kind 'mesh' needs a 'mesh' file path")
    if kind != "mesh" and values["phantom_mesh"] is not None:
        raise SchemaError(f"{where}.phantom: 'mesh' is only valid with kind 'mesh'")
    if values["phantom_extent"] is None:
        values["phantom_extent"] = 0.15 if kind == "flat" else 0.12
    if values["phantom_grid_n"] is None:
        values["phantom_grid_n"] = 31 if kind == "flat" else 61
    r, h = values["sphere_radius"], values["cap_height"]
    if not h <= r:
        raise SchemaError(f"{where}.phantom.cap_height must be in (0, sphere_radius = {r}], got {h}")
    intrinsics = {k.name.partition(".")[2]: k.read(nodes["camera"], where) for k in _CAMERA_INTRINSICS}
    w, h = intrinsics["width"], intrinsics["height"]
    if w * h > MAX_PIXELS:
        raise SchemaError(f"{where}.camera.width x camera.height must be at most {MAX_PIXELS} pixels, "
                          f"got {w} x {h}")
    try:
        values["camera"] = CameraIntrinsics(**intrinsics)
    except ValueError as exc:
        raise SchemaError(f"{where}.camera: {exc}") from None
    values["view_angle"] = math.radians(values["view_angle"])
    return ScenarioConfig(**values)


def load_config(path) -> ScenarioConfig:
    return parse_config(load_yaml(path), str(path))


# ---------------------------------------------------------------------------
# synthetic fiducials
# ---------------------------------------------------------------------------


def synthetic_markers(
    plane: ScenePlane,
    camera_pose,
    half_extents,
    size: float,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[MarkerObservation]:
    """Four square markers at the corners of a plane-aligned rectangle.

    Corner observations are expressed in the camera frame (what a
    detector would output), clockwise from top-left as seen from the
    camera, with optional Gaussian noise on every coordinate.
    """
    hx, hy = float(half_extents[0]), float(half_extents[1])
    if hx <= 0.0 or hy <= 0.0 or size <= 0.0:
        raise ValueError("marker rectangle and size must be positive")
    if noise_sigma > 0.0 and rng is None:
        raise ValueError("corner noise requested but no generator supplied")
    u, v, _ = plane.frame()
    R = camera_pose.rotation
    t = camera_pose.translation
    offsets = 0.5 * size * np.array([[-1, 1], [1, 1], [1, -1], [-1, -1]], dtype=float)
    out = []
    for mid, (cx, cy) in enumerate([(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)]):
        centre = plane.centre + cx * u + cy * v
        corners_world = centre + offsets[:, 0, None] * u + offsets[:, 1, None] * v
        corners_cam = (corners_world - t) @ R
        if noise_sigma > 0.0:
            corners_cam = corners_cam + rng.normal(0.0, noise_sigma, (4, 3))
        out.append(MarkerObservation(mid, corners_cam))
    return out


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


@dataclass
class _StageReport:
    stage: str
    lines: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    ok: bool = True

    def info(self, key: str, value):
        self.values[key] = value
        self.lines.append(f"{key}: {_fmt(value)}")

    def check(self, key: str, value, op: str, limit: float):
        passed = value < limit if op == "<" else value >= limit
        self.values[key] = value
        self.ok = self.ok and passed
        verdict = "PASS" if passed else "FAIL"
        self.lines.append(f"{key}: {_fmt(value)} [{verdict}] ({op} {_fmt(limit)})")


@dataclass
class ScenarioResult:
    metrics: dict  # stage -> {key: value}
    logs: dict  # stage -> ScanLog
    passed: bool
    report_path: Path


def _write_report(path, name, seed, stages, reports, failed: str | None) -> None:
    lines = [f"scenario: {name}", f"seed: {seed}", "stages: " + ",".join(stages)]
    for rep in reports:
        lines.append("")
        lines.append(f"[{rep.stage}]")
        lines.extend(rep.lines)
    lines.append("")
    if failed is not None:
        lines.append(f"overall: FAIL (stage {failed} did not finish)")
    else:
        lines.append("overall: " + ("PASS" if all(r.ok for r in reports) else "FAIL"))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# stage implementations
# ---------------------------------------------------------------------------


class _Run:
    """Mutable state threaded through the stages of one scenario run."""

    def __init__(self, cfg: ScenarioConfig, out_dir: Path, stages: tuple):
        self.cfg = cfg
        self.out = out_dir
        self.stages = stages
        self.model = _load_model(cfg)
        self.q_start = np.asarray(cfg.q_start, dtype=float)
        try:  # the limits live in the model file, so the parse cannot check them
            check_limits(self.model, self.q_start)
        except JointLimitError as exc:
            raise SchemaError(f"arm.q_start: {exc}") from None
        self.truth_mesh, self.truth_plane = _build_phantom(cfg, self.model)
        self.phantom = PhantomModel(self.truth_mesh, cfg.contact_stiffness, cfg.contact_damping)
        self.fitted_plane: ScenePlane | None = None
        self.recon_mesh: TriMesh | None = None
        self.logs: dict[str, ScanLog] = {}
        self.approach: ScanLog | None = None  # the contact steps the raster repeats

    @functools.cached_property
    def truth(self) -> tuple[SurfaceChart, ImpedanceGains]:
        """The ground-truth chart and the gains resolved on it, one pair for
        the contact and raster stages."""
        chart = SurfaceChart(self.truth_mesh, self.truth_plane)
        return chart, _resolve_gains(self, chart)


def _load_model(cfg: ScenarioConfig) -> ArmModel:
    if cfg.arm_model == "reference":
        return reference_arm()
    return _load_file(load_arm_model, cfg.arm_model, "arm.model")


def _load_file(load, path: str, key: str):
    """load(path) for a file the config names at `key`; a file that is
    missing or does not parse is a SchemaError naming the key and the file."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        text = str(exc)
        raise SchemaError(f"{key}: {text if path in text else f'{path}: {text}'}") from None


def _build_phantom(cfg: ScenarioConfig, model: ArmModel) -> tuple[TriMesh, ScenePlane]:
    """Ground-truth mesh placed so the probe tip starts d_start above the
    surface point below it; the scene plane is the base level under that
    point (flat top and base coincide)."""
    tip = arm_snapshot(model, np.asarray(cfg.q_start, dtype=float)).tip
    top = tip - np.array([0.0, 0.0, cfg.d_start])
    try:  # each key is in bound, but a tiny extent over many grid points leaves degenerate faces
        if cfg.phantom_kind == "flat":
            return flat_phantom_mesh(top, cfg.phantom_extent, cfg.phantom_grid_n), ScenePlane(top, UP)
        if cfg.phantom_kind == "cap":
            base = top - np.array([0.0, 0.0, cfg.cap_height])
            mesh = cap_phantom_mesh(
                base, cfg.sphere_radius, cfg.cap_height, cfg.phantom_extent, cfg.phantom_grid_n
            )
            return mesh, ScenePlane(base, UP)
    except ValueError as exc:
        raise SchemaError(f"phantom.extent: {cfg.phantom_extent}: {exc}") from None
    raw = _load_file(load_off, cfg.phantom_mesh, "phantom.mesh")
    lo = raw.vertices.min(axis=0)
    hi = raw.vertices.max(axis=0)
    origin = np.array([0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]), hi[2] + 1.0])
    t, _ = raw.raycast_batch(origin, [[0.0, 0.0, -1.0]])
    if not np.isfinite(t[0]):
        raise SchemaError(f"phantom.mesh: {cfg.phantom_mesh}: no surface under the bounding-box centre")
    apex = origin + t[0] * np.array([0.0, 0.0, -1.0])
    shift = top - apex
    mesh = TriMesh(raw.vertices + shift, raw.faces)
    base = np.array([top[0], top[1], float(mesh.vertices[:, 2].min())])
    return mesh, ScenePlane(base, UP)


def _resolve_gains(run: _Run, chart: SurfaceChart) -> ImpedanceGains:
    cfg = run.cfg
    if cfg.damping is not None:
        return ImpedanceGains(cfg.stiffness, cfg.damping)
    snap = arm_snapshot(run.model, run.q_start)
    _, _, J_rho, _, _ = chart.evaluate_probe(snap.R_probe, snap.tip, snap.jacobian, np.zeros(7))
    lam = task_space_inertia(snap.mass, J_rho)
    return ImpedanceGains(cfg.stiffness, critical_damping(cfg.stiffness, lam, cfg.zeta))


def _simulate(run: _Run, chart: SurfaceChart, gains: ImpedanceGains, setpoints, duration: float,
              deadline, start: ScanLog | None = None) -> ScanLog:
    """Drive the arm from q_start, or on from the end of `start`, along setpoints(t) on `chart`."""
    cfg = run.cfg
    return simulate(run.model, chart, run.phantom, gains, setpoints, run.q_start, duration=duration,
                    dt=cfg.dt, sample_every=cfg.sample_every, nullspace_gain=cfg.nullspace_gain,
                    deadline=deadline, start=start)


def _keep(run: _Run, stage: str, log: ScanLog) -> ScanLog:
    """The stage's log, kept as run.logs[stage] and written to <stage>_log.csv."""
    run.logs[stage] = log
    export_log(log, run.out / f"{stage}_log.csv")
    return log


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    """The angle between a and b as atan2(|a x b|, a . b), exact to rounding
    near 0 and pi, where acos of the cosine loses digits."""
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(a @ b))


def _check_deadline(deadline, what: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError(f"{what} exceeded the stage deadline")


def _stage_localize(run: _Run, deadline) -> _StageReport:
    cfg = run.cfg
    rep = _StageReport("localize")
    cam_pose = alignment_pose(run.truth_plane, cfg.view_angle, cfg.view_distance)
    angle = _angle(cam_pose.rotation[:, 2], -run.truth_plane.normal)
    dist = float(np.linalg.norm(cam_pose.translation - run.truth_plane.centre))
    rep.check("alignment_angle_error_rad", abs(angle - cfg.view_angle), "<", 1e-12)
    # rounding of the pose grows with the distance, so the bound scales with it
    rep.check("alignment_distance_error_m", abs(dist - cfg.view_distance), "<",
              1e-12 * max(1.0, cfg.view_distance))

    rng = np.random.default_rng([cfg.seed, 11])
    markers = synthetic_markers(
        run.truth_plane, cam_pose, cfg.marker_half_extents, cfg.marker_size,
        cfg.marker_noise_sigma, rng,
    )
    save_markers(markers, run.out / "markers.yaml")
    fitted = fit_plane(markers, cam_pose, use_corners=cfg.fit_use_corners)
    run.fitted_plane = fitted
    with open(run.out / "plane.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(
            {
                "centre": [float(x) for x in fitted.centre],
                "normal": [float(x) for x in fitted.normal],
            },
            fh, sort_keys=False,
        )
    limit = 1e-9 if cfg.marker_noise_sigma == 0.0 else math.radians(0.5)
    rep.check("plane_normal_error_rad", _angle(fitted.normal, run.truth_plane.normal), "<", limit)
    rep.info("plane_centre_error_m", float(np.linalg.norm(fitted.centre - run.truth_plane.centre)))
    return rep


def _stage_reconstruct(run: _Run, deadline) -> _StageReport:
    cfg = run.cfg
    rep = _StageReport("reconstruct")
    rng = np.random.default_rng([cfg.seed, 23])
    poses = orbit_trajectory(run.fitted_plane, cfg.n_views, cfg.view_angle, cfg.view_distance)
    views = []
    for k, pose in enumerate(poses):
        _check_deadline(deadline, f"depth view {k}")
        img = render_depth(run.truth_mesh, cfg.camera, pose, rng)
        save_pfm(img.depths, run.out / f"depth_{k:02d}.pfm")
        views.append(img)
    _check_deadline(deadline, "view fusion")
    out_field = fuse_views(views, run.fitted_plane, cfg.resolution)
    recon = extract_mesh(out_field)
    run.recon_mesh = recon
    save_off(run.truth_mesh, run.out / "truth.off")
    save_off(recon, run.out / "recon.off")
    _check_deadline(deadline, "mesh comparison")
    err = mesh_error(recon, run.truth_mesh, seed=cfg.seed)
    rep.info("views", cfg.n_views)
    rep.info("resolution_m", cfg.resolution)
    limit = cfg.resolution if cfg.camera.depth_noise_sigma == 0.0 else 2.0 * cfg.resolution
    rep.check("rms_error_m", err["rms"], "<", limit)
    rep.info("hausdorff_m", err["hausdorff"])
    return rep


def _raster_approach(cfg: ScenarioConfig) -> ContactProfile:
    """The raster's contact ramp and settle before its path starts."""
    return ContactProfile(cfg.d_start, cfg.raster_d_hold, cfg.ramp_rate, hold_duration=cfg.settle_time)


def _shared_steps(run: _Run, profile: ContactProfile) -> int:
    """K, the first steps of the contact stage that the raster stage would
    take again, or 0. The raster repeats them when it follows with no
    reconstruction before it, so on the same truth chart, and holds the same
    d: contact_setpoints ignores hold_duration, so both schedules agree
    while t is below the raster's approach duration. One step of margin
    keeps the loop's accumulated t below it. The contact stage takes these
    steps once, as a run of their own whose log both stages resume (see
    simulate's `start`); K is a multiple of sample_every, so that log ends
    on a sampled step of both."""
    cfg, stages = run.cfg, run.stages
    if ("raster" not in stages[stages.index("contact"):] or cfg.raster_d_hold != cfg.d_hold
            or "reconstruct" in stages[:stages.index("raster")]):
        return 0
    steps = min(step_count(profile.duration, cfg.dt), _raster_approach(cfg).duration / cfg.dt - 1.0)
    return int(steps) // cfg.sample_every * cfg.sample_every


def _stage_contact(run: _Run, deadline) -> _StageReport:
    cfg = run.cfg
    rep = _StageReport("contact")
    profile = ContactProfile(cfg.d_start, cfg.d_hold, cfg.ramp_rate, cfg.hold_duration)

    def setpoints(t: float) -> Setpoint:
        return contact_setpoints(profile, t)

    shared = _shared_steps(run, profile)
    if shared > 0:  # taken once, resumed by both stages
        run.approach = _simulate(run, *run.truth, setpoints, shared * cfg.dt, deadline)
    log = _keep(run, "contact", _simulate(run, *run.truth, setpoints, profile.duration, deadline,
                                          run.approach))

    oracle = steady_state_force(float(cfg.stiffness[2, 2]), cfg.contact_stiffness, cfg.d_hold)
    rep.info("steady_state_oracle_n", oracle)
    above = log.d > 0.0
    approach_max = float(np.max(np.abs(log.force_n[above]))) if above.any() else 0.0
    rep.check("approach_max_force_n", approach_max, "<", 0.01)
    in_ramp = (log.d < 0.0) & (log.t <= profile.ramp_duration)
    f_final = float(log.force_n[-1])
    drop = settle = math.nan  # no ramp sample to judge
    if in_ramp.any() and f_final > 0.0:
        f = log.force_n[in_ramp]
        drop = float(np.max(np.maximum.accumulate(f) - f)) / f_final
        settle = abs(f_final - oracle) / oracle
    rep.check("ramp_max_drop_frac", drop, "<", 0.05)
    rep.check("settle_error_frac", settle, "<", 0.02)
    return rep


def _stage_raster(run: _Run, deadline) -> _StageReport:
    cfg = run.cfg
    rep = _StageReport("raster")
    if run.recon_mesh is not None:
        chart = SurfaceChart(run.recon_mesh, run.fitted_plane, margin=cfg.chart_margin)
        rep.info("chart", 1)  # 1 = reconstructed, 0 = ground truth
    else:
        chart = run.truth[0]
        rep.info("chart", 0)

    s_lo = np.maximum(chart.s_min, -cfg.raster_half_extents)
    s_hi = np.minimum(chart.s_max, cfg.raster_half_extents)
    if np.any(s_lo >= s_hi):
        raise ValueError("raster domain is empty after clipping to the chart")
    path = RasterPath(s_lo, s_hi, cfg.line_spacing, cfg.raster_speed, cfg.raster_d_hold)
    approach = _raster_approach(cfg)
    start = approach.duration  # the path starts where the approach ends

    def setpoints(t: float) -> Setpoint:
        if t < start:
            return contact_setpoints(approach, t)
        return path.setpoint(t - start)

    gains = run.truth[1] if run.recon_mesh is None else _resolve_gains(run, chart)
    duration = approach.duration + path.duration + 1.0
    log = _keep(run, "raster", _simulate(run, chart, gains, setpoints, duration, deadline, run.approach))

    hold = log.t >= approach.duration
    n_hold = int(np.count_nonzero(hold))
    rep.info("hold_samples", n_hold)
    d_err = np.abs(log.d[hold] - cfg.raster_d_hold)
    eps_norm = np.linalg.norm(log.eps[hold], axis=1)
    rep.check("frac_d_within_1mm", float(np.mean(d_err < 1e-3)), ">=", 0.95)
    rep.check("frac_eps_within_0.05", float(np.mean(eps_norm < 0.05)), ">=", 0.95)
    rep.info("max_abs_d_err_m", float(np.max(d_err)))
    return rep


_STAGE_FN = {
    "localize": _stage_localize,
    "reconstruct": _stage_reconstruct,
    "contact": _stage_contact,
    "raster": _stage_raster,
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_scenario(
    config,
    out_dir,
    stages: tuple = STAGES,
    seed: int | None = None,
    stage_timeout: float | None = None,
) -> ScenarioResult:
    """Execute the requested stages and write artifacts plus report.txt.

    `config` is a ScenarioConfig, a mapping, or a YAML file path. `seed`
    overrides the config seed and is read like the `seed` key. Each stage
    gets its own cooperative budget of `stage_timeout` seconds, positive and
    finite. A stage that cannot finish raises StageError naming it; the
    report still lists completed checks and flags the failure. A bad `seed`,
    a missing or malformed arm model or mesh file, an `arm.q_start` outside
    the model's limits, or a `phantom.extent` too small for its grid is a
    SchemaError, raised before `out_dir` is made.
    """
    if isinstance(config, ScenarioConfig):
        cfg = config
    elif isinstance(config, (str, Path)):
        cfg = load_config(config)
    else:
        cfg = parse_config(config)
    if seed is not None:  # errors name it "override.seed"
        key = _FIELD_KEYS["seed"]
        cfg = dataclasses.replace(cfg, seed=key.read({key.name: seed}, "override"))
    stages = tuple(stages)
    for s in stages:
        if s not in STAGES:
            raise ValueError(f"unknown stage {s!r}; expected one of {STAGES}")
    if len(set(stages)) != len(stages):
        raise ValueError("duplicate stages requested")
    if "reconstruct" in stages and "localize" not in stages[: stages.index("reconstruct")]:
        raise ValueError("reconstruct stage needs the localize stage first")
    if stage_timeout is not None and not 0.0 < stage_timeout < math.inf:
        raise ValueError(f"stage_timeout must be positive and finite, got {stage_timeout}")

    out = Path(out_dir)
    run = _Run(cfg, out, stages)  # loads the files the config names, before --out exists
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    report_path = out / "report.txt"
    for stage in stages:
        deadline = None if stage_timeout is None else time.monotonic() + stage_timeout
        try:
            reports.append(_STAGE_FN[stage](run, deadline))
        except Exception as exc:
            partial = getattr(exc, "partial_log", None)  # set by simulate
            if partial is not None:
                export_log(partial, out / f"{stage}_log.partial.csv")
            failed = _StageReport(stage)
            failed.lines.append(f"FAILED: {exc}")
            failed.ok = False
            reports.append(failed)
            _write_report(report_path, cfg.name, cfg.seed, stages, reports, stage)
            raise StageError(stage, str(exc)) from exc
    _write_report(report_path, cfg.name, cfg.seed, stages, reports, None)
    return ScenarioResult(
        metrics={r.stage: dict(r.values) for r in reports},
        logs=dict(run.logs),
        passed=all(r.ok for r in reports),
        report_path=report_path,
    )
