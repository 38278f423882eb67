"""Energy bookkeeping of the control loop, kept as a test oracle.

`audited_run` steps the loop itself, through `init_state` and `step`
exactly as `simulate` does, and records at every state the kinetic
energy, the controller and contact spring energies and the cumulative
dissipation.

The plant it audits is `sim.step`'s M(q) qdd = tau, which has no
velocity-product term C(q, qdot) qdot. So even in continuous time the
loop does not conserve kinetic + spring energy plus dissipation: the
kinetic energy also gains 1/2 qdot^T Mdot qdot, which no torque
supplies. Under a constant setpoint on a flat chart the balance error
therefore holds that term's unsupplied power as well as the integrator
error, and on a slow hold the first is the larger part: halving dt
barely moves the balance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from surfscan.controller import nullspace_damping
from surfscan.sim import init_state, step


@dataclass(frozen=True)
class EnergyTrace:
    """Energy bookkeeping along a constant-setpoint run, one entry per state."""

    t: np.ndarray
    d: np.ndarray  # signed distance rho[2]
    kinetic: np.ndarray
    controller_spring: np.ndarray
    contact_spring: np.ndarray
    dissipated: np.ndarray  # cumulative

    def total(self) -> np.ndarray:
        return self.kinetic + self.controller_spring + self.contact_spring

    def balance_error(self) -> float:
        """Max |E(t) + D(t) - E(0)| over the run, relative to peak energy."""
        e = self.total()
        drift = np.abs(e + self.dissipated - e[0])
        return float(drift.max() / max(e.max(), 1e-300))


class _EnergyAudit:
    def __init__(self, phantom, gains, nullspace_gain):
        self.phantom = phantom
        self.gains = gains
        self.nullspace_gain = nullspace_gain
        self.samples = []  # (t, d, kinetic, controller spring, contact spring, dissipated)
        self._acc = 0.0
        self._last_power = None
        self._last_t = None

    def _power(self, state, setpoint) -> float:
        ve = state.rhodot - setpoint.rhodot_d
        p = float(ve @ (self.gains.damping @ ve)) if self.gains is not None else 0.0
        ddot = float(state.rhodot[2])
        if state.rho[2] < 0.0:
            p += self.phantom.contact_damping * max(0.0, -ddot) ** 2
        if self.nullspace_gain > 0.0:
            qdot = state.qdot
            tau_null = nullspace_damping(state.J_rho, qdot, self.nullspace_gain)
            p += float(-qdot @ tau_null)
        return p

    def add(self, state, setpoint):
        qdot = state.qdot
        kin = 0.5 * float(qdot @ (state.mass @ qdot))
        if self.gains is not None:
            e = setpoint.rho_d - state.rho
            spring = 0.5 * float(e @ (self.gains.stiffness @ e))
        else:
            spring = 0.0
        pen = min(float(state.rho[2]), 0.0)
        contact = 0.5 * self.phantom.contact_stiffness * pen * pen
        power = self._power(state, setpoint)
        if self._last_power is not None:
            self._acc += 0.5 * (self._last_power + power) * (state.t - self._last_t)
        self._last_power = power
        self._last_t = state.t
        self.samples.append((state.t, float(state.rho[2]), kin, spring, contact, self._acc))

    def build(self) -> EnergyTrace:
        return EnergyTrace(*(np.array(c) for c in zip(*self.samples)))


def audited_run(model, chart, phantom, gains, setpoint, q0, duration: float,
                dt: float = 1e-3, nullspace_gain: float = 0.0) -> EnergyTrace:
    """The states `simulate` visits over `duration` under the constant
    `setpoint`, every one of them audited."""
    audit = _EnergyAudit(phantom, gains, nullspace_gain)
    state = init_state(model, chart, phantom, q0)
    audit.add(state, setpoint)
    for _ in range(max(1, int(round(duration / dt)))):
        state = step(model, chart, phantom, gains, setpoint, state, dt, nullspace_gain)
        audit.add(state, setpoint)
    return audit.build()
