"""Per-step electric-vehicle energy accounting.

Four signed components per time step, in joules:

* potential energy, ``m·g·Δh/η``: consumed uphill, recuperated downhill
  at the same rate, so a climb and the matching descent cancel;
* resistive losses, rolling plus aerodynamic drag at the step's speed,
  always consumed;
* kinetic energy, from the change ``ΔKE = ½·m·(v² − v₀²)``: speeding up
  costs ``ΔKE/η`` and braking returns ``|ΔKE|·η``, so every speed cycle
  loses energy and a trip's total converges as the step shrinks;
* on-board devices, a constant draw times the step length.

The kinetic form is the one of power-based EV consumption models (Fiori,
Ahn & Rakha 2016, *Applied Energy*).  ``EnergyLedger.add`` books one step
of one vehicle; the corridor engine calls it and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyParams:
    eta: float = 0.9  # drivetrain efficiency, (0, 1]
    mass: float = 1500.0  # kg
    gravity: float = 9.81  # m/s^2
    rolling: float = 0.01  # rolling friction coefficient
    air_density: float = 1.2  # kg/m^3
    frontal_area: float = 2.3  # m^2
    drag: float = 0.28  # air drag coefficient
    device_power_w: float = 0.0  # constant on-board device draw

    def __post_init__(self) -> None:
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        for name in ("mass", "gravity", "air_density", "frontal_area"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rolling < 0 or self.drag < 0 or self.device_power_w < 0:
            raise ValueError("coefficients must be non-negative")


def potential(params: EnergyParams, elevation_delta: float) -> float:
    """Signed potential energy for a climb (+) or descent (-), joules."""
    return params.mass * params.gravity * elevation_delta / params.eta


def loss(params: EnergyParams, speed: float, dt: float) -> float:
    """Rolling and aerodynamic losses over one step of ``dt`` seconds."""
    if speed < 0:
        raise ValueError("speed must be non-negative")
    if dt < 0:
        raise ValueError("dt must be non-negative")
    power = (
        params.rolling * params.mass * params.gravity * speed
        + 0.5 * params.air_density * params.frontal_area * params.drag * speed**3
    )
    return power * dt / params.eta


def accel_energy(params: EnergyParams, v_prev: float, v_now: float) -> float:
    """Signed kinetic energy of a speed change: drive cost (+) or regen (-)."""
    dke = 0.5 * params.mass * (v_now * v_now - v_prev * v_prev)
    return dke / params.eta if dke > 0 else dke * params.eta


@dataclass
class EnergyLedger:
    """Running totals of every component for one vehicle."""

    potential_consumed: float = 0.0  # >= 0
    potential_gained: float = 0.0  # <= 0
    loss: float = 0.0  # >= 0
    accel: float = 0.0  # >= 0
    decel: float = 0.0  # <= 0
    devices: float = 0.0  # >= 0
    total: float = 0.0

    def add(self, params: EnergyParams, v_prev: float, v_now: float, dt: float,
            rise: float = 0.0) -> float:
        """Book one step ending at ``v_now`` after climbing ``rise`` meters;
        returns the step's total."""
        pot = potential(params, rise)
        if pot >= 0:
            self.potential_consumed += pot
        else:
            self.potential_gained += pot
        res = loss(params, v_now, dt)
        self.loss += res
        acc = accel_energy(params, v_prev, v_now)
        if acc >= 0:
            self.accel += acc
        else:
            self.decel += acc
        dev = params.device_power_w * dt
        self.devices += dev
        total = pot + res + acc + dev
        self.total += total
        return total
