from coopspeed.sim import SegmentConfig, SimConfig, World


def test_token_table_matches_tokens_at_every_step():
    # csof at 600 veh/h, seed 2: the first 120 s include losers of games
    # whose earlier claims used to linger beside their new ones.
    world = World(SimConfig(seed=2, technique="csof", arrival_rate_veh_s=600 / 3600))
    while world.t < 120.0:
        world.step()
        for light in world.lights:
            table = light.table
            requests = table.requests()
            vins = [vin for vin, _ in requests]
            slots = [slot for _, slot in requests]
            assert len(set(vins)) == len(vins), (world.t, light.idx, requests)
            assert len(set(slots)) == len(slots), (world.t, light.idx, requests)
            on_segment = {vin: v for vin, v in world.vehicles.items() if v.seg == light.idx}
            assert set(vins) <= set(on_segment), (world.t, light.idx, requests)
            for vin, v in on_segment.items():
                tau = None if v.token is None else v.token.tau
                assert tau == table.slot_of(vin), (world.t, light.idx, vin)


def test_report_counts_arrivals_waiting_to_enter():
    # 1800 veh/h into one short segment: the queue spills back to the
    # entry and arrivals pile up behind it.
    arrivals = tuple(2.0 * k for k in range(150))
    cfg = SimConfig(duration_s=300.0, technique="fixed", activation_distance_m=100.0,
                    segments=(SegmentConfig(length_m=100.0),), scripted_arrivals=arrivals)
    report = World(cfg).run()
    assert report.waiting > 0
    due = sum(1 for a in arrivals if a < cfg.duration_s)
    assert report.spawned + report.waiting == due
    assert report.spawned == report.completed + report.in_network
