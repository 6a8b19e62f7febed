"""Per-step electric-vehicle energy accounting.

``step_energy`` is the whole model.  It gives one step's total in joules
as the sum of three signed terms:

* potential energy, ``m·g·Δh/η``: consumed uphill, recuperated downhill
  at the same rate, so a climb and the matching descent cancel;
* resistive losses, rolling plus aerodynamic drag at the step's end
  speed, ``(c_r·m·g·v + ½·ρ·A·C_d·v³)·Δt/η``, always consumed;
* kinetic energy, from the change ``ΔKE = ½·m·(v² − v₀²)``: speeding up
  costs ``ΔKE/η`` and braking returns ``|ΔKE|·η``, so every speed cycle
  loses energy and a trip's total converges as the step shrinks.

The kinetic form is the one of power-based EV consumption models (Fiori,
Ahn & Rakha 2016, *Applied Energy*).  Those models describe one vehicle,
so its parameters are the constants below, the same in every scenario.

The corridor engine (``World._accrue_energy``) calls ``step_energy`` for
a step that changes speed, and for a steady step, one that keeps a
non-zero speed, at a speed other than that of the vehicle's last steady
step on its segment.  A steady step at that speed books again the float
the last one kept, and a step at rest books nothing.
"""

from __future__ import annotations

ETA = 0.9  # drivetrain efficiency
MASS_KG = 1500.0
GRAVITY = 9.81  # m/s^2
ROLLING = 0.01  # rolling friction coefficient
AIR_DENSITY = 1.2  # kg/m^3
FRONTAL_AREA_M2 = 2.3
DRAG = 0.28  # air drag coefficient

_MG = MASS_KG * GRAVITY
_ROLLING_MG = ROLLING * MASS_KG * GRAVITY
_HALF_RHO_A_CD = 0.5 * AIR_DENSITY * FRONTAL_AREA_M2 * DRAG
_HALF_M = 0.5 * MASS_KG


def step_energy(v_prev: float, v_now: float, dt: float, rise: float) -> float:
    """Energy, in joules, of one step of ``dt`` seconds that ends at
    ``v_now`` after starting at ``v_prev`` and climbing ``rise`` meters
    (negative downhill)."""
    if v_now < 0:
        raise ValueError("speed must be non-negative")
    if dt < 0:
        raise ValueError("dt must be non-negative")
    dke = _HALF_M * (v_now * v_now - v_prev * v_prev)
    return (
        _MG * rise / ETA
        + (_ROLLING_MG * v_now + _HALF_RHO_A_CD * v_now**3) * dt / ETA
        + (dke / ETA if dke > 0 else dke * ETA)
    )
