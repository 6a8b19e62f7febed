import random

import pytest

from coopspeed.energy import EnergyLedger, EnergyParams, accel_energy, loss, potential

P = EnergyParams()


def test_potential_flat_road():
    assert potential(P, 0.0) == 0.0


def test_potential_antisymmetry():
    rng = random.Random(1)
    for _ in range(100):
        u = rng.uniform(-10.0, 10.0)
        total = potential(P, u) + potential(P, -u)
        assert abs(total) <= 1e-9 * max(1.0, abs(potential(P, u)))


def test_potential_uphill_value():
    # 1500 kg * 9.81 * 2 m / 0.9
    assert potential(P, 2.0) == pytest.approx(32_700.0, abs=1.0)


def test_loss_zero_when_stationary():
    assert loss(P, 0.0, 0.1) == 0.0


def test_loss_strictly_increasing():
    rng = random.Random(2)
    for _ in range(100):
        v1 = rng.uniform(0.1, 20.0)
        v2 = v1 + rng.uniform(0.1, 10.0)
        assert loss(P, v2, 1.0) > loss(P, v1, 1.0)


def test_loss_cubic_term_scaling():
    drag_only = EnergyParams(rolling=0.0)
    assert loss(drag_only, 10.0, 1.0) * 8 == pytest.approx(loss(drag_only, 20.0, 1.0))


def test_loss_matches_hand_evaluation():
    # (1/eta) * (f_r m g v + 0.5 rho A d_r v^3) * dt at five points
    for v, dt in ((1.0, 0.1), (5.0, 0.1), (10.0, 1.0), (13.89, 0.5), (16.67, 2.0)):
        expected = (
            0.01 * 1500.0 * 9.81 * v + 0.5 * 1.2 * 2.3 * 0.28 * v**3
        ) * dt / 0.9
        got = loss(P, v, dt)
        assert abs(got - expected) <= 1e-9 * expected


def test_accel_energy_zero_at_constant_speed():
    for v in (0.0, 0.01, 10.0, 16.67):
        assert accel_energy(P, v, v) == 0.0


def test_accel_energy_value():
    # Driving 10 -> 12 m/s: 0.5 * 1500 * (144 - 100) / 0.9; braking back
    # returns the same kinetic energy times eta.
    assert accel_energy(P, 10.0, 12.0) == pytest.approx(36_666.667, abs=1e-3)
    assert accel_energy(P, 12.0, 10.0) == pytest.approx(-29_700.0, abs=1e-6)


def test_accel_energy_regen_returns_eta_squared_of_the_drive_cost():
    rng = random.Random(3)
    for _ in range(100):
        v = rng.uniform(0.0, 17.0)
        dv = rng.uniform(0.001, 5.0)
        up = accel_energy(P, v, v + dv)
        down = accel_energy(P, v + dv, v)
        assert up > 0 > down
        assert -down == pytest.approx(up * P.eta**2, rel=1e-12)


def test_accel_energy_depends_only_on_the_end_speeds():
    # Any ramp 0 -> 10 m/s in equal steps costs 0.5 * m * v^2 / eta.
    for steps in (1, 7, 100):
        speeds = [10.0 * k / steps for k in range(steps + 1)]
        total = sum(accel_energy(P, a, b) for a, b in zip(speeds, speeds[1:]))
        assert total == pytest.approx(0.5 * 1500.0 * 100.0 / 0.9, rel=1e-12)


def test_device_energy():
    ledger = EnergyLedger()
    assert ledger.add(P, 0.0, 0.0, 60.0) == 0.0
    loaded = EnergyParams(device_power_w=100.0)
    assert ledger.add(loaded, 0.0, 0.0, 60.0) == pytest.approx(6000.0)
    assert ledger.add(loaded, 0.0, 0.0, 5.0) == pytest.approx(500.0)
    assert ledger.devices == pytest.approx(6500.0)
    assert ledger.total == pytest.approx(6500.0)


def test_step_energy_zero_everything():
    ledger = EnergyLedger()
    assert ledger.add(P, 0.0, 0.0, 0.1) == 0.0
    assert ledger == EnergyLedger()


def test_step_energy_sign_split():
    up = EnergyLedger()
    up.add(P, 5.0, 7.0, 0.1, rise=0.5)
    assert up.potential_consumed > 0 and up.potential_gained == 0
    assert up.accel > 0 and up.decel == 0
    down = EnergyLedger()
    down.add(P, 7.0, 5.0, 0.1, rise=-0.5)
    assert down.potential_consumed == 0 and down.potential_gained < 0
    assert down.accel == 0 and down.decel < 0
    assert down.loss >= 0


def test_total_is_sum_of_components():
    rng = random.Random(4)
    ledger = EnergyLedger()
    params = EnergyParams(device_power_w=250.0)
    returned = 0.0
    v_prev = 0.0
    for _ in range(500):
        v_now = rng.uniform(0.0, 17.0)
        rise = rng.uniform(-0.1, 0.1)
        step = ledger.add(params, v_prev, v_now, 0.1, rise=rise)
        parts = (
            potential(params, rise) + loss(params, v_now, 0.1)
            + accel_energy(params, v_prev, v_now) + 250.0 * 0.1
        )
        assert step == pytest.approx(parts, abs=1e-9)
        returned += step
        v_prev = v_now
    audit = (
        ledger.potential_consumed + ledger.potential_gained + ledger.loss
        + ledger.accel + ledger.decel + ledger.devices
    )
    assert ledger.total == pytest.approx(audit, rel=1e-12)
    assert ledger.total == pytest.approx(returned, rel=1e-12)


def test_flat_speed_cycle_never_gains_energy():
    # Kinetic energy booked on the way up is returned only in part, and
    # losses are never negative: a flat-road trip that ends at its start
    # speed costs energy, whatever happens in between.
    rng = random.Random(5)
    for _ in range(200):
        v0 = rng.uniform(0.0, 17.0)
        speeds = [v0] + [rng.uniform(0.0, 17.0) for _ in range(rng.randint(1, 40))] + [v0]
        dt = rng.choice((0.05, 0.1, 0.2, 0.5))
        ledger = EnergyLedger()
        for a, b in zip(speeds, speeds[1:]):
            ledger.add(P, a, b, dt)
        assert ledger.total >= 0.0, speeds
        assert ledger.accel + ledger.decel >= 0.0, speeds


def test_elevation_round_trip_is_neutral():
    climbs = [0.5, -0.2, 0.7, -1.0]
    descent = -sum(climbs)
    total = sum(potential(P, u) for u in climbs) + potential(P, descent)
    assert abs(total) <= 1e-6


def test_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(eta=0.0)
    with pytest.raises(ValueError):
        EnergyParams(eta=1.5)
    with pytest.raises(ValueError):
        EnergyParams(mass=-1.0)
    with pytest.raises(ValueError):
        EnergyParams(device_power_w=-1.0)
    with pytest.raises(ValueError):
        loss(P, -1.0, 0.1)
