import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpsim.resource_pool import ResourceQuanta
from mfpsim.scenario import (
    ChannelParams,
    ScenarioState,
    SensingGeometry,
    SensingProfile,
    channel_gain,
    global_label_distribution,
    link_budget,
    make_scenario,
    spectral_efficiency,
    status_attributes,
    step_mobility,
    target_distances,
    targets_in_domain,
)

from oracles import distance_row


def single_client_state(client_xy, target_rows, area=500.0, n_classes=10):
    """Hand-built state: one client plus targets given as (x, y, class)."""
    targets = np.array([(x, y) for x, y, _ in target_rows], dtype=float).reshape(-1, 2)
    classes = np.array([c for _, _, c in target_rows], dtype=int)
    return ScenarioState(
        area_m=area,
        client_pos=np.array([client_xy], dtype=float),
        client_vel=np.zeros((1, 2)),
        target_pos=targets,
        target_vel=np.zeros((len(target_rows), 2)),
        target_class=classes,
        server_pos=np.array([area / 2, area / 2]),
        n_classes=n_classes,
        max_speed=30.0,
    )


def _row(state, client=0):
    return target_distances(state)[client]


def test_step_mobility_zero_velocity_keeps_positions():
    state = single_client_state((100, 100), [(200, 200, 1)])
    nxt = step_mobility(state, seed=7, dt=3.0)
    assert np.allclose(nxt.client_pos, state.client_pos)
    assert np.allclose(nxt.target_pos, state.target_pos)


def test_step_mobility_reflects_at_boundary():
    state = single_client_state((499, 250), [])
    state = ScenarioState(
        **{**state.__dict__, "client_vel": np.array([[30.0, 0.0]])}
    )
    nxt = step_mobility(state, seed=0, dt=1.0)
    assert nxt.client_pos[0, 0] == pytest.approx(471.0)
    assert 0 <= nxt.client_pos[0, 0] <= 500 and 0 <= nxt.client_pos[0, 1] <= 500


def test_step_mobility_deterministic():
    state = make_scenario(seed=11, n_clients=5, n_targets=9)
    a = step_mobility(state, seed=3, dt=2.0)
    b = step_mobility(state, seed=3, dt=2.0)
    assert np.array_equal(a.client_pos, b.client_pos)
    assert np.array_equal(a.client_vel, b.client_vel)
    assert np.array_equal(a.target_pos, b.target_pos)


def test_targets_in_domain_partition():
    geom = SensingGeometry(d_vs=50, d_ws=100)
    state = single_client_state(
        (0, 0), [(30, 0, 1), (70, 0, 2), (150, 0, 3)], area=500
    )
    vsd, annulus = targets_in_domain(target_distances(state)[0], geom)
    assert list(vsd) == [0]
    assert list(annulus) == [1]


def test_channel_gain_reference_and_slope():
    params = ChannelParams(reference_loss_db=61.4, pathloss_exponent=2.0)
    g1 = channel_gain(1.0, params)
    assert 10 * math.log10(g1) == pytest.approx(-61.4)
    g2 = channel_gain(2.0, params)
    assert 10 * math.log10(g1 / g2) == pytest.approx(20 * math.log10(2), abs=1e-9)
    with pytest.raises(ValueError):
        channel_gain(0.0, params)


def test_link_budget_sensitivity_gate():
    params = ChannelParams()
    good = link_budget(10.0, tx_power_dbm=55.0, sensitivity_dbm=-115.0, params=params)
    assert good.usable
    # -115 dBm floor: a weak transmitter far away drops below it
    bad = link_budget(400.0, tx_power_dbm=-40.0, sensitivity_dbm=-115.0, params=params)
    assert not bad.usable
    assert spectral_efficiency(400.0, -40.0, -115.0, params, ResourceQuanta()) == 0.0


def test_status_attributes_visual_rate():
    # 100 targets on 500x500 m^2, disc radius 50, full efficiency, 20 fps
    geom = SensingGeometry(d_vs=50, d_ws=100)
    profile = SensingProfile(frame_rate_hz=20, visual_efficiency=1.0)
    rows = [(i % 500, (i * 7) % 500, i % 10) for i in range(100)]
    state = single_client_state((250, 250), rows)
    attrs = status_attributes(state, _row(state), geom, ChannelParams(), profile, ResourceQuanta())
    expected_a = (100 / 250_000) * math.pi * 50**2 * 1.0 * 20
    assert attrs.a == pytest.approx(expected_a)
    assert attrs.a == pytest.approx(62.83, abs=0.01)


def test_status_attributes_no_targets():
    state = single_client_state((250, 250), [])
    attrs = status_attributes(
        state, _row(state), SensingGeometry(), ChannelParams(), SensingProfile(), ResourceQuanta()
    )
    assert attrs.a == 0 and attrs.b == 0
    assert attrs.label_dist is None


def test_status_attributes_degenerate_annulus():
    geom = SensingGeometry(d_vs=50, d_ws=50.0000001)
    rows = [(260, 250, 4)] * 5
    state = single_client_state((250, 250), rows)
    attrs = status_attributes(
        state, _row(state), geom, ChannelParams(), SensingProfile(), ResourceQuanta()
    )
    assert attrs.b == pytest.approx(0.0, abs=1e-6)


def test_status_attributes_label_distribution_sums_to_one():
    rows = [(250 + i, 250, i % 3) for i in range(1, 40)]
    state = single_client_state((250, 250), rows)
    attrs = status_attributes(
        state, _row(state), SensingGeometry(), ChannelParams(), SensingProfile(), ResourceQuanta()
    )
    assert attrs.label_dist is not None
    assert attrs.label_dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_sensing_mode_restricts_modalities():
    rows = [(260, 250, 0), (330, 250, 1)]  # one in-disc, one annulus
    state = single_client_state((250, 250), rows)
    geom, ch, q = SensingGeometry(), ChannelParams(), ResourceQuanta()
    row = _row(state)
    msg = status_attributes(state, row, geom, ch, SensingProfile(mode="msg"), q)
    vsg = status_attributes(state, row, geom, ch, SensingProfile(mode="vsg"), q)
    wsg = status_attributes(state, row, geom, ch, SensingProfile(mode="wsg"), q)
    assert vsg.b == 0 and vsg.a == msg.a
    assert wsg.a == 0 and wsg.b == msg.b
    assert vsg.label_dist[0] == 1.0 and wsg.label_dist[1] == 1.0


def test_global_label_distribution_union():
    rows = [(260, 250, 0), (330, 250, 1), (10, 10, 5)]
    state = single_client_state((250, 250), rows)
    dist = global_label_distribution(state, target_distances(state), SensingGeometry())
    assert dist is not None
    assert dist[0] == pytest.approx(0.5) and dist[1] == pytest.approx(0.5)
    assert dist[5] == 0.0


# Offsets at exactly 50 m (the default d_vs) and 100 m (d_ws): integer
# Pythagorean legs, so the distance to an integer client position is exact.
BOUNDARY_OFFSETS = [(30, 40), (-40, 30), (50, 0), (0, -50), (60, 80), (-80, -60), (100, 0)]


@st.composite
def fleet_states(draw, max_clients=6, max_targets=40):
    """Several clients at integer positions; targets anywhere, or exactly on
    a client's visual or wireless disc boundary."""
    n_clients = draw(st.integers(1, max_clients))
    clients = [
        (float(draw(st.integers(0, 500))), float(draw(st.integers(0, 500))))
        for _ in range(n_clients)
    ]
    anywhere = st.tuples(st.floats(0, 500), st.floats(0, 500))
    targets = []
    for _ in range(draw(st.integers(0, max_targets))):
        if draw(st.booleans()):
            cx, cy = clients[draw(st.integers(0, n_clients - 1))]
            dx, dy = draw(st.sampled_from(BOUNDARY_OFFSETS))
            targets.append((cx + dx, cy + dy))
        else:
            targets.append(draw(anywhere))
    n_classes = draw(st.integers(1, 10))
    return ScenarioState(
        area_m=500.0,
        client_pos=np.array(clients, dtype=float),
        client_vel=np.zeros((n_clients, 2)),
        target_pos=np.array(targets, dtype=float).reshape(-1, 2),
        target_vel=np.zeros((len(targets), 2)),
        target_class=np.array(
            [draw(st.integers(0, n_classes - 1)) for _ in targets], dtype=int
        ),
        server_pos=np.array([250.0, 250.0]),
        n_classes=n_classes,
        max_speed=30.0,
    )


def test_boundary_offsets_land_exactly_on_the_discs():
    geom = SensingGeometry()
    rows = [(100 + dx, 100 + dy, 0) for dx, dy in BOUNDARY_OFFSETS]
    d = target_distances(single_client_state((100, 100), rows))[0]
    assert sorted(set(d.tolist())) == [geom.d_vs, geom.d_ws]


@settings(max_examples=200, deadline=None)
@given(fleet_states(max_clients=12, max_targets=60))
def test_target_distance_rows_match_per_client_norm_bitwise(state):
    d = target_distances(state)
    assert d.shape == (state.n_clients, state.n_targets)
    for c in range(state.n_clients):
        assert d[c].tobytes() == distance_row(state, c).tobytes()


def test_target_distance_rows_match_on_generated_scenarios():
    for seed in range(5):
        state = step_mobility(make_scenario(seed, 50, 120), seed=seed, dt=3.0)
        d = target_distances(state)
        for c in range(state.n_clients):
            assert d[c].tobytes() == distance_row(state, c).tobytes()


def _assert_same_status(x, y):
    assert x.a == y.a and x.b == y.b
    assert x.n_visual_targets == y.n_visual_targets
    assert x.n_wireless_targets == y.n_wireless_targets
    if x.label_dist is None:
        assert y.label_dist is None
    else:
        assert np.array_equal(x.label_dist, y.label_dist)


@settings(max_examples=200, deadline=None)
@given(fleet_states(), st.sampled_from(["msg", "vsg", "wsg"]))
def test_status_with_distance_row_equals_single_client_path(state, mode):
    geom, ch, q = SensingGeometry(), ChannelParams(), ResourceQuanta()
    profile = SensingProfile(mode=mode)
    d = target_distances(state)
    for c in range(state.n_clients):
        row, alone = d[c], distance_row(state, c)
        _assert_same_status(
            status_attributes(state, row, geom, ch, profile, q),
            status_attributes(state, alone, geom, ch, profile, q),
        )
        with_row = targets_in_domain(row, geom)
        without = targets_in_domain(alone, geom)
        assert all(np.array_equal(x, y) for x, y in zip(with_row, without))


def test_status_with_distance_row_and_no_targets():
    state = single_client_state((250, 250), [])
    args = (SensingGeometry(), ChannelParams(), SensingProfile(), ResourceQuanta())
    row = target_distances(state)[0]
    assert row.shape == (0,)
    _assert_same_status(
        status_attributes(state, row, *args), status_attributes(state, distance_row(state, 0), *args)
    )


def _reference_label_union(state, geometry, mode):
    """The per-client union: every client's targets_in_domain, one by one."""
    if state.n_targets == 0:
        return None
    sensed = np.zeros(state.n_targets, dtype=bool)
    for c in range(state.n_clients):
        in_vsd, in_annulus = targets_in_domain(distance_row(state, c), geometry)
        if mode in ("msg", "vsg"):
            sensed[in_vsd] = True
        if mode in ("msg", "wsg"):
            sensed[in_annulus] = True
    if not sensed.any():
        return None
    counts = np.bincount(state.target_class[sensed], minlength=state.n_classes)
    return counts / counts.sum()


@settings(max_examples=200, deadline=None)
@given(fleet_states(max_clients=12, max_targets=60), st.sampled_from(["msg", "vsg", "wsg"]))
def test_global_label_distribution_matrix_equals_per_client_union(state, mode):
    geom = SensingGeometry()
    ref = _reference_label_union(state, geom, mode)
    got = global_label_distribution(state, target_distances(state), geom, mode)
    if ref is None:
        assert got is None
    else:
        assert np.array_equal(got, ref)
