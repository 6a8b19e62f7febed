"""Per-step electric-vehicle energy accounting.

``energy_model(params)`` is the whole model: it returns the function the
corridor engine calls once per vehicle and step, which gives the step's
total in joules as the sum of four signed terms:

* potential energy, ``m·g·Δh/η``: consumed uphill, recuperated downhill
  at the same rate, so a climb and the matching descent cancel;
* resistive losses, rolling plus aerodynamic drag at the step's end
  speed, ``(c_r·m·g·v + ½·ρ·A·C_d·v³)·Δt/η``, always consumed;
* kinetic energy, from the change ``ΔKE = ½·m·(v² − v₀²)``: speeding up
  costs ``ΔKE/η`` and braking returns ``|ΔKE|·η``, so every speed cycle
  loses energy and a trip's total converges as the step shrinks;
* on-board devices, a constant draw times the step length.

The kinetic form is the one of power-based EV consumption models (Fiori,
Ahn & Rakha 2016, *Applied Energy*).  The products of the parameters are
taken once, when the function is built.
"""

from __future__ import annotations

from collections.abc import Callable
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


def energy_model(params: EnergyParams) -> Callable[[float, float, float, float], float]:
    """The step-energy function for ``params``.

    ``step(v_prev, v_now, dt, rise)`` is the energy, in joules, of one
    step of ``dt`` seconds that ends at ``v_now`` after starting at
    ``v_prev`` and climbing ``rise`` meters (negative downhill).
    """
    eta = params.eta
    mg = params.mass * params.gravity
    rolling_mg = params.rolling * params.mass * params.gravity
    half_rho_a_cd = 0.5 * params.air_density * params.frontal_area * params.drag
    half_m = 0.5 * params.mass
    device_w = params.device_power_w

    def step(v_prev: float, v_now: float, dt: float, rise: float) -> float:
        if v_now < 0:
            raise ValueError("speed must be non-negative")
        if dt < 0:
            raise ValueError("dt must be non-negative")
        dke = half_m * (v_now * v_now - v_prev * v_prev)
        return (
            mg * rise / eta
            + (rolling_mg * v_now + half_rho_a_cd * v_now**3) * dt / eta
            + (dke / eta if dke > 0 else dke * eta)
            + device_w * dt
        )

    return step
