import random

import pytest

from coopspeed.energy import ETA, step_energy as STEP

# One term at a time: dt = 0 drops the losses, equal end speeds drop the
# kinetic term, and rise = 0 drops the potential term.


def potential(rise):
    return STEP(0.0, 0.0, 0.0, rise)


def loss(speed, dt):
    return STEP(speed, speed, dt, 0.0)


def accel_energy(v_prev, v_now):
    return STEP(v_prev, v_now, 0.0, 0.0)


def test_potential_flat_road():
    assert potential(0.0) == 0.0


def test_potential_antisymmetry():
    rng = random.Random(1)
    for _ in range(100):
        u = rng.uniform(-10.0, 10.0)
        total = potential(u) + potential(-u)
        assert abs(total) <= 1e-9 * max(1.0, abs(potential(u)))


def test_potential_uphill_value():
    # 1500 kg * 9.81 * 2 m / 0.9
    assert potential(2.0) == pytest.approx(32_700.0, abs=1.0)


def test_loss_zero_when_stationary():
    assert loss(0.0, 0.1) == 0.0


def test_loss_strictly_increasing():
    rng = random.Random(2)
    for _ in range(100):
        v1 = rng.uniform(0.1, 20.0)
        v2 = v1 + rng.uniform(0.1, 10.0)
        assert loss(v2, 1.0) > loss(v1, 1.0)


def test_loss_cubic_term_scaling():
    # loss(2v) - 2·loss(v) cancels the rolling term, which is linear in v,
    # and leaves 6 times the drag term, so it scales with v cubed.
    def drag_6x(v):
        return loss(2.0 * v, 1.0) - 2.0 * loss(v, 1.0)

    assert drag_6x(10.0) > 0.0
    assert drag_6x(10.0) * 8 == pytest.approx(drag_6x(20.0))


def test_loss_matches_hand_evaluation():
    # (1/eta) * (f_r m g v + 0.5 rho A d_r v^3) * dt at five points
    for v, dt in ((1.0, 0.1), (5.0, 0.1), (10.0, 1.0), (13.89, 0.5), (16.67, 2.0)):
        expected = (
            0.01 * 1500.0 * 9.81 * v + 0.5 * 1.2 * 2.3 * 0.28 * v**3
        ) * dt / 0.9
        got = loss(v, dt)
        assert abs(got - expected) <= 1e-9 * expected


def test_accel_energy_zero_at_constant_speed():
    for v in (0.0, 0.01, 10.0, 16.67):
        assert accel_energy(v, v) == 0.0


def test_accel_energy_value():
    # Driving 10 -> 12 m/s: 0.5 * 1500 * (144 - 100) / 0.9; braking back
    # returns the same kinetic energy times eta.
    assert accel_energy(10.0, 12.0) == pytest.approx(36_666.667, abs=1e-3)
    assert accel_energy(12.0, 10.0) == pytest.approx(-29_700.0, abs=1e-6)


def test_accel_energy_regen_returns_eta_squared_of_the_drive_cost():
    rng = random.Random(3)
    for _ in range(100):
        v = rng.uniform(0.0, 17.0)
        dv = rng.uniform(0.001, 5.0)
        up = accel_energy(v, v + dv)
        down = accel_energy(v + dv, v)
        assert up > 0 > down
        assert -down == pytest.approx(up * ETA**2, rel=1e-12)


def test_accel_energy_depends_only_on_the_end_speeds():
    # Any ramp 0 -> 10 m/s in equal steps costs 0.5 * m * v^2 / eta.
    for steps in (1, 7, 100):
        speeds = [10.0 * k / steps for k in range(steps + 1)]
        total = sum(accel_energy(a, b) for a, b in zip(speeds, speeds[1:]))
        assert total == pytest.approx(0.5 * 1500.0 * 100.0 / 0.9, rel=1e-12)


def test_step_energy_zero_everything():
    assert STEP(0.0, 0.0, 0.1, 0.0) == 0.0
    assert STEP(0.0, 0.0, 0.0, 0.0) == 0.0


def test_a_step_at_rest_books_positive_zero_on_any_grade():
    # The engine skips a step from 0.0 to 0.0 m/s on this fact: adding +0.0
    # leaves every total as it is.  The rise of a descent is -0.0, and it
    # must not leave a -0.0.
    for grade in (0.01, -0.01, 0.0):
        for dt in (0.05, 0.1, 0.2):
            assert repr(STEP(0.0, 0.0, dt, grade * 0.0 * dt)) == "0.0", (grade, dt)


def test_step_energy_sign_split():
    # Climbing while speeding up costs; descending while braking returns
    # energy, the losses of the step notwithstanding.
    assert potential(0.5) > 0 > potential(-0.5)
    assert accel_energy(5.0, 7.0) > 0 > accel_energy(7.0, 5.0)
    assert loss(5.0, 0.1) > 0
    assert STEP(5.0, 7.0, 0.1, 0.5) > 0
    assert STEP(7.0, 5.0, 0.1, -0.5) < 0


def test_total_is_sum_of_components():
    rng = random.Random(4)
    v_prev = 0.0
    for _ in range(500):
        v_now = rng.uniform(0.0, 17.0)
        rise = rng.uniform(-0.1, 0.1)
        total = STEP(v_prev, v_now, 0.1, rise)
        # Each term by hand, from the parameters.
        dke = 0.5 * 1500.0 * (v_now**2 - v_prev**2)
        by_hand = (
            1500.0 * 9.81 * rise / 0.9
            + (0.01 * 1500.0 * 9.81 * v_now + 0.5 * 1.2 * 2.3 * 0.28 * v_now**3) * 0.1 / 0.9
            + (dke / 0.9 if dke > 0 else dke * 0.9)
        )
        assert total == pytest.approx(by_hand, abs=1e-9)
        # The same terms, each isolated through the step function.
        parts = potential(rise) + loss(v_now, 0.1) + accel_energy(v_prev, v_now)
        assert total == pytest.approx(parts, abs=1e-9)
        v_prev = v_now


def test_flat_speed_cycle_never_gains_energy():
    # Kinetic energy booked on the way up is returned only in part, and
    # losses are never negative: a flat-road trip that ends at its start
    # speed costs energy, whatever happens in between.
    rng = random.Random(5)
    for _ in range(200):
        v0 = rng.uniform(0.0, 17.0)
        speeds = [v0] + [rng.uniform(0.0, 17.0) for _ in range(rng.randint(1, 40))] + [v0]
        dt = rng.choice((0.05, 0.1, 0.2, 0.5))
        pairs = list(zip(speeds, speeds[1:]))
        assert sum(STEP(a, b, dt, 0.0) for a, b in pairs) >= 0.0, speeds
        assert sum(accel_energy(a, b) for a, b in pairs) >= 0.0, speeds


def test_elevation_round_trip_is_neutral():
    climbs = [0.5, -0.2, 0.7, -1.0]
    descent = -sum(climbs)
    total = sum(potential(u) for u in climbs) + potential(descent)
    assert abs(total) <= 1e-6


def test_negative_speed_or_dt_raises():
    with pytest.raises(ValueError, match="speed"):
        STEP(0.0, -1.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="dt"):
        STEP(1.0, 1.0, -0.1, 0.0)
