"""The benchmark's workloads: each turns a seed into the configs surfscan runs.

A workload is a base config from `configs/`, a set of overrides, and the
stages passed to `surfscan.scenario.run_scenario`. One *iteration* of a
workload runs every variant once, in the order the seed gives.

The physical durations (contact hold, raster rectangle, approach ramp) are
shortened from the shipped configs so that one iteration fits a run of a
few tens of seconds; the code paths, meshes, gains and time step are the
shipped ones. See README.md for why each workload exists.
"""
from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

# criterion 5's (k_d, k_t) grid, in N/m
CONTACT_GRID = (
    (100.0, 100.0), (100.0, 300.0), (2000.0, 100.0), (2000.0, 2000.0),
    (300.0, 900.0), (1000.0, 300.0), (500.0, 500.0), (1500.0, 1500.0),
    (700.0, 2000.0), (2000.0, 700.0),
)
# rank of each grid point on criterion 5's d_hold ladder (softer controllers
# hold deeper); these are the ranks the acceptance test's argsort produces
D_HOLD_RANKS = (0, 1, 8, 7, 2, 5, 3, 6, 4, 9)

# a 0.9 s approach ramp and a 1 s hold: long enough for every grid point to
# settle within the report's 2 % force check, short enough for ten variants
# to run in about 20 s
SHORT_CONTACT = {"d_start": 0.005, "ramp_rate": 0.01, "hold_duration": 1.0}
# scan_flat: a 0.5 s hold, then two 1 cm raster lines 5 mm apart at 2 cm/s,
# about 5k control steps in all
SCAN_HOLD = {"hold_duration": 0.5}
SHORT_RASTER = {"half_extents": [0.005, 0.0025], "line_spacing": 0.005, "settle_time": 0.2,
                "speed": 0.02}


@dataclass(frozen=True)
class Workload:
    base_config: str  # relative to the repository root
    stages: tuple


WORKLOADS = {
    "scan_flat": Workload("configs/scan_flat.yaml", ("contact", "raster")),
    "reconstruct_cap": Workload("configs/pipeline_cap.yaml", ("localize", "reconstruct")),
    "contact_sweep": Workload("configs/scan_flat.yaml", ("contact",)),
}


def variant_docs(name: str, seed: int, base: dict) -> list[tuple[str, dict]]:
    """(variant name, config document) pairs of one iteration, in run order."""
    doc = copy.deepcopy(base)
    doc["seed"] = int(seed)
    if name == "reconstruct_cap":
        return [("cap", doc)]
    doc.setdefault("contact", {}).update(SHORT_CONTACT)
    if name == "scan_flat":
        doc["contact"].update(SCAN_HOLD)
        doc.setdefault("raster", {}).update(SHORT_RASTER)
        return [("flat", doc)]
    if name != "contact_sweep":
        raise ValueError(f"unknown workload {name!r}")
    out = []
    for (k_d, k_t), rank in zip(CONTACT_GRID, D_HOLD_RANKS):
        v = copy.deepcopy(doc)
        stiffness = list(v["controller"]["stiffness"])
        stiffness[2] = k_d
        v["controller"]["stiffness"] = stiffness
        v["phantom"]["contact_stiffness"] = k_t
        v["contact"]["d_hold"] = -0.006 + 0.005 * rank / 9.0
        out.append((f"kd{k_d:g}-kt{k_t:g}", v))
    random.Random(seed).shuffle(out)
    return out


def write_configs(name: str, seed: int, root: Path, dest: Path) -> list[dict]:
    """Write the workload's configs under `dest`; returns the child's variant list."""
    with open(root / WORKLOADS[name].base_config, "r", encoding="utf-8") as fh:
        base = yaml.safe_load(fh)
    dest.mkdir(parents=True, exist_ok=True)
    variants = []
    for vname, doc in variant_docs(name, seed, base):
        path = dest / f"{vname}.yaml"
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        variants.append({"name": vname, "config": str(path)})
    return variants
