import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from mfpsim.resource_pool import ResourceQuanta
from mfpsim.scenario import (
    ChannelParams,
    ScenarioState,
    SensingGeometry,
    SensingProfile,
    global_label_distribution,
    make_scenario,
    pair_buffers,
    path_gains,
    segment_sums,
    sensing_pairs,
    server_gains,
    spectral_efficiency,
    status_attributes,
    step_mobility,
)

import mfpsim.scenario as scenario
import oracles
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


def _pairs(state, geometry=SensingGeometry()):
    """The round's `sensing_pairs`, in fresh buffers."""
    return sensing_pairs(state, geometry, pair_buffers(state))


def _assert_same_pairs(got, want):
    """Bitwise equality of two (rows, cols, dist, visual) pair lists."""
    rows, cols, dist, visual = got
    assert rows.tolist() == want[0].tolist()
    assert cols.tolist() == want[1].tolist()
    assert dist.tobytes() == want[2].tobytes()
    assert visual.tolist() == want[3].tolist()


def _columns(state, geometry, channel, profile, quanta):
    """The round-level status columns, checked for their shapes and kinds,
    and each client's `StatusAttributes` as the runner builds it from them."""
    status = status_attributes(state, _pairs(state, geometry), geometry, channel, profile, quanta)
    *columns, label_dists = status
    assert [column.shape for column in columns] == [(state.n_clients,)] * 4
    assert [column.dtype.kind for column in columns] == ["f", "f", "i", "i"]
    assert label_dists.shape == (state.n_clients, state.n_classes)
    return oracles.client_statuses(status), label_dists


def _status(state, geometry, channel, profile, quanta, client=0):
    """One client's `StatusAttributes` from the round-level status
    columns, and its row of the label matrix."""
    statuses, label_dists = _columns(state, geometry, channel, profile, quanta)
    return statuses[client], label_dists[client]


def test_step_mobility_zero_velocity_keeps_positions():
    state = single_client_state((100, 100), [(200, 200, 1)])
    nxt = step_mobility(state, seed=7, dt=3.0)
    assert np.allclose(nxt.client_pos, state.client_pos)
    assert np.allclose(nxt.target_pos, state.target_pos)


def test_step_mobility_reflects_at_boundary():
    state = single_client_state((499, 250), [])
    state = replace(state, client_vel=np.array([[30.0, 0.0]]))
    nxt = step_mobility(state, seed=0, dt=1.0)
    assert nxt.client_pos[0, 0] == pytest.approx(471.0)
    assert 0 <= nxt.client_pos[0, 0] <= 500 and 0 <= nxt.client_pos[0, 1] <= 500


@settings(max_examples=200, deadline=None)
# the defaults' 500 m square and 10 s round at 5000 m/s: up to 100 crossings
@example(seed=3, area=500.0, speed=5000.0, dt=10.0)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(1.0, 1000.0),
    st.floats(0.0, 1e6),
    st.floats(0.01, 10.0),
)
def test_step_mobility_keeps_every_entity_in_the_square(seed, area, speed, dt):
    state = make_scenario(seed, 20, 20, area_m=area, max_speed=speed)
    nxt = step_mobility(state, seed=seed, dt=dt)
    for pos, vel, got in (
        (state.client_pos, state.client_vel, nxt.client_pos),
        (state.target_pos, state.target_vel, nxt.target_pos),
    ):
        assert ((got >= 0) & (got <= area)).all()
        # where the old eight single folds landed inside, nothing moved
        folded = oracles.reflect_folds(pos + vel * dt, area)
        inside = (folded >= 0) & (folded <= area)
        assert got[inside].tobytes() == folded[inside].tobytes()


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
    args = (geom, ChannelParams(), SensingProfile(), ResourceQuanta())
    attrs, label_dist = _status(state, *args)
    assert (attrs.n_visual_targets, attrs.n_wireless_targets) == (1, 1)
    assert label_dist.tolist() == [0, 0.5, 0.5, 0, 0, 0, 0, 0, 0, 0]
    _, cols, _, visual = _pairs(state, geom)
    assert cols[visual].tolist() == [0]
    assert cols[~visual].tolist() == [1]
    vsd, annulus = oracles.targets_in_domain(distance_row(state, 0), geom)
    assert list(vsd) == [0]
    assert list(annulus) == [1]


def test_path_gain_reference_and_slope():
    params = ChannelParams(reference_loss_db=61.4, pathloss_exponent=2.0)
    g0, g1, g2 = path_gains(np.array([0.0, 1.0, 2.0]), params).tolist()
    assert 10 * math.log10(g1) == pytest.approx(-61.4)
    assert 10 * math.log10(g1 / g2) == pytest.approx(20 * math.log10(2), abs=1e-9)
    assert g0 == g1  # distances clamp to 1 m


def test_path_gain_overflow_raises_as_the_scalar_law_does():
    # a negative loss at 1 m makes 10 ** x overflow; the schema allows none
    params = ChannelParams(reference_loss_db=-4000.0)
    with pytest.raises(OverflowError):
        oracles.channel_gain(1.0, params)
    with pytest.raises(OverflowError):
        path_gains(np.array([2.0, 1.0]), params)


def test_spectral_efficiency_sensitivity_gate():
    params, q = ChannelParams(), ResourceQuanta()
    gains = path_gains(np.array([10.0, 400.0]), params)
    assert (spectral_efficiency(gains, 55.0, -115.0, params, q) > 0).all()
    # -115 dBm floor: a weak transmitter far away drops below it
    assert spectral_efficiency(gains, -40.0, -115.0, params, q).tolist() == [0.0, 0.0]


def test_status_attributes_visual_rate():
    # 100 targets on 500x500 m^2, disc radius 50, full efficiency, 20 fps
    geom = SensingGeometry(d_vs=50, d_ws=100)
    profile = SensingProfile(frame_rate_hz=20, visual_efficiency=1.0)
    rows = [(i % 500, (i * 7) % 500, i % 10) for i in range(100)]
    state = single_client_state((250, 250), rows)
    attrs, _ = _status(state, geom, ChannelParams(), profile, ResourceQuanta())
    expected_a = (100 / 250_000) * math.pi * 50**2 * 1.0 * 20
    assert attrs.a == pytest.approx(expected_a)
    assert attrs.a == pytest.approx(62.83, abs=0.01)


def test_status_attributes_no_targets():
    state = single_client_state((250, 250), [])
    attrs, label_dist = _status(
        state, SensingGeometry(), ChannelParams(), SensingProfile(), ResourceQuanta()
    )
    assert attrs.a == 0 and attrs.b == 0
    assert not label_dist.any()


def test_status_attributes_degenerate_annulus():
    geom = SensingGeometry(d_vs=50, d_ws=50.0000001)
    rows = [(260, 250, 4)] * 5
    state = single_client_state((250, 250), rows)
    attrs, _ = _status(state, geom, ChannelParams(), SensingProfile(), ResourceQuanta())
    assert attrs.b == pytest.approx(0.0, abs=1e-6)


def test_status_attributes_label_distribution_sums_to_one():
    rows = [(250 + i, 250, i % 3) for i in range(1, 40)]
    state = single_client_state((250, 250), rows)
    _, label_dist = _status(
        state, SensingGeometry(), ChannelParams(), SensingProfile(), ResourceQuanta()
    )
    assert label_dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_sensing_mode_restricts_modalities():
    rows = [(260, 250, 0), (330, 250, 1)]  # one in-disc, one annulus
    state = single_client_state((250, 250), rows)
    geom, ch, q = SensingGeometry(), ChannelParams(), ResourceQuanta()
    msg, _ = _status(state, geom, ch, SensingProfile(mode="msg"), q)
    vsg, vsg_labels = _status(state, geom, ch, SensingProfile(mode="vsg"), q)
    wsg, wsg_labels = _status(state, geom, ch, SensingProfile(mode="wsg"), q)
    assert vsg.b == 0 and vsg.a == msg.a
    assert wsg.a == 0 and wsg.b == msg.b
    assert vsg_labels[0] == 1.0 and wsg_labels[1] == 1.0


def test_global_label_distribution_union():
    rows = [(260, 250, 0), (330, 250, 1), (10, 10, 5)]
    state = single_client_state((250, 250), rows)
    dist = global_label_distribution(state, _pairs(state))
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
    _, cols, dist, visual = _pairs(single_client_state((100, 100), rows), geom)
    assert sorted(cols.tolist()) == list(range(len(rows)))
    assert set(dist[visual].tolist()) == {geom.d_vs}
    assert set(dist[~visual].tolist()) == {geom.d_ws}


# radii whose squares are subnormal or underflow to 0, and one near the
# largest the config allows (pi * r**2 must stay finite)
EXTREME_RADII = [5e-324, 1e-323, 1e-170, 5e153]


def with_ulp_targets(state, geometry, near):
    """`state` plus a client at the origin, and targets at each radius and
    one ulp inside and outside it: on the axes around the origin client,
    where the distance is the offset exactly, and beside the clients in
    `near`, where it is the rounded offset.  Also targets at (r, e) off the
    origin client, e * e about 1 to 3 ulps of r * r: their squared
    distances fall on the few floats past r * r whose roots still round to
    r, so the pairs at the disc's edge are kept."""
    radii = (geometry.d_vs, geometry.d_ws)
    offsets = [math.nextafter(r, side) for r in radii for side in (0, r, math.inf)]
    clients = np.vstack([state.client_pos, [[0.0, 0.0]]])
    added = [(d, 0.0) for d in offsets] + [(0.0, -d) for d in offsets]
    added += [(r, math.sqrt(k * math.ulp(r * r))) for r in radii for k in (1, 2, 3)]
    added += [(clients[c, 0] + d, clients[c, 1]) for c in near for d in offsets]
    targets = np.vstack([state.target_pos, np.array(added).reshape(-1, 2)])
    return replace(
        state,
        client_pos=clients,
        client_vel=np.zeros(clients.shape),
        target_pos=targets,
        target_vel=np.zeros(targets.shape),
        target_class=np.concatenate([state.target_class, np.zeros(len(added), dtype=int)]),
    )


@settings(max_examples=200, deadline=None)
@given(fleet_states(max_clients=12, max_targets=60), st.data())
def test_target_distance_rows_match_per_client_norm_bitwise(state, data):
    """The round's pairs are each client's `distance_row` cut by its discs,
    in the reference's order, bit for bit, at the radii's last bits."""
    geom = data.draw(geometries())
    near = data.draw(st.lists(st.integers(0, state.n_clients - 1), max_size=3))
    state = with_ulp_targets(state, geom, near)
    _assert_same_pairs(_pairs(state, geom), oracles.sensing_pairs(state, geom))


def test_target_distance_rows_match_on_generated_scenarios():
    """One pair of buffers over several rounds, as a run reuses it, first
    filled with garbage, NaN and the infinities included."""
    rng = np.random.default_rng(0)
    buffers = pair_buffers(make_scenario(0, 50, 120))
    for buf in buffers:
        buf[...] = rng.choice([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 7.5], buf.shape)
    for seed in range(5):
        state = step_mobility(make_scenario(seed, 50, 120), seed=seed, dt=3.0)
        for d_vs, d_ws in ((50.0, 100.0), (5e-324, 1e-323), (1.0, 5e153)):
            geom = SensingGeometry(d_vs, d_ws)
            _assert_same_pairs(sensing_pairs(state, geom, buffers), oracles.sensing_pairs(state, geom))


def _assert_same_status(got, want):
    """Bitwise equality of a client's `StatusAttributes` and row of the
    label matrix with the oracle's status and label distribution, None
    where it senses nothing."""
    (x, row), (y, label_dist) = got, want
    assert np.float64(x.a).tobytes() == np.float64(y.a).tobytes()
    assert np.float64(x.b).tobytes() == np.float64(y.b).tobytes()
    assert x.n_visual_targets == y.n_visual_targets
    assert x.n_wireless_targets == y.n_wireless_targets
    if label_dist is None:
        assert not row.any()
    else:
        assert row.tobytes() == label_dist.tobytes()


@st.composite
def geometries(draw):
    """Random radii, the defaults that the boundary offsets land on, or
    `EXTREME_RADII`: tiny visual discs, and wireless discs from tiny to
    about the largest allowed."""
    d_vs = draw(st.just(50.0) | st.floats(0.5, 300.0) | st.sampled_from(EXTREME_RADII[:3]))
    d_ws = draw(
        st.just(100.0)
        | st.floats(d_vs, 600.0, exclude_min=True)
        | st.sampled_from(EXTREME_RADII[1:])
    )
    assume(d_vs < d_ws)
    return SensingGeometry(d_vs=d_vs, d_ws=d_ws)


# A generated 200-client fleet at a 100 dB reference loss.  Its SNRs lie
# near 1, where the last bit of a gain reaches `b`: numpy's log10 in place
# of `math.log10` changes `b` on 19 of its clients, numpy's power in place
# of `pow` on 5.
FLEET_AT_100_DB = (
    step_mobility(make_scenario(0, 200, 400), seed=0, dt=3.0),
    SensingGeometry(),
    2.0,
    100.0,
    "msg",
)


@settings(max_examples=200, deadline=None)
@example(*FLEET_AT_100_DB)
@given(
    fleet_states(max_clients=12, max_targets=60),
    geometries(),
    # 150 underflows every gain to 0; 1e308 makes 10 * exponent overflow
    st.floats(0.1, 10.0) | st.sampled_from([150.0, 1e308]),
    st.floats(0.0, 200.0),
    st.sampled_from(["msg", "vsg", "wsg"]),
)
def test_round_status_equals_per_client_oracle_bitwise(state, geom, exponent, loss, mode):
    ch = ChannelParams(pathloss_exponent=exponent, reference_loss_db=loss)
    profile, q = SensingProfile(mode=mode), ResourceQuanta()
    statuses, label_dists = _columns(state, geom, ch, profile, q)
    for c, got in enumerate(zip(statuses, label_dists)):
        _assert_same_status(
            got, oracles.status_attributes(state, distance_row(state, c), geom, ch, profile, q)
        )


@settings(max_examples=100, deadline=None)
@example(*FLEET_AT_100_DB[:2])
@given(fleet_states(max_clients=12, max_targets=60), geometries())
def test_visual_sensing_takes_no_path_gains(state, geom):
    # `b` is 0 under `vsg`, so its statuses need no wireless gain; the
    # other modes do take them
    ch, q = ChannelParams(), ResourceQuanta()
    for mode in ("vsg", "msg"):
        profile = SensingProfile(mode=mode)
        with mock.patch.object(scenario, "path_gains", wraps=path_gains) as gains:
            statuses, label_dists = _columns(state, geom, ch, profile, q)
        assert gains.called == (mode == "msg" and state.n_targets > 0)
        for c, got in enumerate(zip(statuses, label_dists)):
            _assert_same_status(
                got, oracles.status_attributes(state, distance_row(state, c), geom, ch, profile, q)
            )


def test_status_with_distance_row_and_no_targets():
    state = single_client_state((250, 250), [])
    args = (SensingGeometry(), ChannelParams(), SensingProfile(), ResourceQuanta())
    assert all(column.size == 0 for column in _pairs(state))
    _assert_same_status(
        _status(state, *args), oracles.status_attributes(state, distance_row(state, 0), *args)
    )


def _reference_label_union(state, geometry, mode):
    """The per-client union: every client's `oracles.targets_in_domain`, one
    by one."""
    if state.n_targets == 0:
        return None
    sensed = np.zeros(state.n_targets, dtype=bool)
    for c in range(state.n_clients):
        in_vsd, in_annulus = oracles.targets_in_domain(distance_row(state, c), geometry)
        if mode in ("msg", "vsg"):
            sensed[in_vsd] = True
        if mode in ("msg", "wsg"):
            sensed[in_annulus] = True
    if not sensed.any():
        return None
    counts = np.bincount(state.target_class[sensed], minlength=state.n_classes)
    return counts / counts.sum()


@settings(max_examples=200, deadline=None)
@given(
    fleet_states(max_clients=12, max_targets=60), geometries(), st.sampled_from(["msg", "vsg", "wsg"])
)
def test_global_label_distribution_matrix_equals_per_client_union(state, geom, mode):
    ref = _reference_label_union(state, geom, mode)
    got = global_label_distribution(state, _pairs(state, geom), mode)
    if ref is None:
        assert got is None
    else:
        assert np.array_equal(got, ref)


@st.composite
def server_fleets(draw):
    """Clients anywhere in the 500 m square, some at the server or within
    1 m of it, where distances clamp to 1 m and log10(1) is 0, some a
    sub-metre offset from it, and some up to about 1e150 m away, where the
    squared distance nears the float range."""
    near = st.sampled_from([(250.0, 250.0), (251.0, 250.0), (250.0, 249.5)])
    offset = st.tuples(st.floats(249.0, 251.0), st.floats(249.0, 251.0))
    anywhere = st.tuples(st.floats(0, 500), st.floats(0, 500))
    far = st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150))
    return server_fleet(draw(st.lists(near | offset | anywhere | far, min_size=1, max_size=30)))


def server_fleet(clients):
    """Clients at the given (x, y) positions, the server at (250, 250), no
    targets."""
    return ScenarioState(
        area_m=500.0,
        client_pos=np.array(clients, dtype=float),
        client_vel=np.zeros((len(clients), 2)),
        target_pos=np.zeros((0, 2)),
        target_vel=np.zeros((0, 2)),
        target_class=np.zeros(0, dtype=int),
        server_pos=np.array([250.0, 250.0]),
        n_classes=1,
        max_speed=30.0,
    )


@settings(max_examples=200, deadline=None)
# at the default channel, einsum's square sum for this client misses the
# per-row dot by a bit that reaches the gain
@example(server_fleet([(2.6, 30.6)]), 2.0, 61.4, -20.4, 55.0, 26.0, None)
@given(
    server_fleets(),
    # 150 underflows every gain to 0; 1e308 makes 10 * exponent overflow,
    # so a client within 1 m of the server gets a nan gain
    st.floats(0.1, 10.0) | st.sampled_from([150.0, 1e308]),
    st.floats(0.0, 200.0),
    # log10 of the noise density: SNRs far above and below 1, and near it,
    # where a gain's last bit reaches log2(1 + snr)
    st.floats(-40.0, -5.0),
    st.floats(-50.0, 300.0),
    st.floats(-50.0, 300.0),
    st.none() | st.integers(0, 29) | st.floats(-300.0, 0.0),
)
def test_server_link_efficiencies_equal_scalar_oracle_bitwise(
    state, exponent, loss, log_noise, tx_server, tx_client, sensitivity
):
    """The round's server gains and both links' efficiencies, against the
    scalar chain per client.  An integer `sensitivity` puts the sensitivity
    exactly at that client's received downlink power."""
    ch = ChannelParams(
        pathloss_exponent=exponent,
        reference_loss_db=loss,
        noise_density_w_per_hz=10**log_noise,
        tx_power_server_dbm=tx_server,
        tx_power_client_dbm=tx_client,
    )
    q = ResourceQuanta()
    dists = [oracles.server_distance(state, c) for c in range(state.n_clients)]
    if sensitivity is None:
        sensitivity = ch.sensitivity_wc_dbm
    elif isinstance(sensitivity, int):
        gain = oracles.channel_gain(dists[sensitivity % len(dists)], ch)
        sensitivity = tx_server + 10 * math.log10(gain) if gain > 0 else ch.sensitivity_wc_dbm
    gains = server_gains(state, ch)
    assert gains.tobytes() == np.array([oracles.channel_gain(d, ch) for d in dists]).tobytes()
    for tx in (tx_server, tx_client):
        got = spectral_efficiency(gains, tx, sensitivity, ch, q)
        want = [oracles.spectral_efficiency(d, tx, sensitivity, ch, q) for d in dists]
        assert got.tobytes() == np.array(want).tobytes()


def _outcome(fn):
    """`fn()`'s bytes, or the class of the warning it raises as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn().tobytes()
        except Warning as err:
            return type(err)


# coordinates whose squares overflow, and nan and the infinities
EXTREME_COORDS = [1e160, -1e160, 1e300, math.nan, math.inf, -math.inf]


@settings(max_examples=200, deadline=None)
@example([(2.6, 30.6), (1e160, 250.0)])
@example([(math.nan, 30.6), (math.inf, -math.inf)])
@given(
    st.lists(
        st.tuples(*[st.floats(0, 500) | st.floats(-1e150, 1e150) | st.sampled_from(EXTREME_COORDS)] * 2),
        min_size=1,
        max_size=30,
    )
)
def test_server_gains_take_the_per_row_dot(clients):
    """The batched square sums against `v.dot(v)` per row, bit for bit, on
    rows whose squares overflow or that hold nan or an infinity: where a
    row's `dot` warns, the batched call warns with the same class."""
    state, ch = server_fleet(clients), ChannelParams()

    def per_row():
        diffs = state.client_pos - state.server_pos
        return path_gains(np.array([math.sqrt(v.dot(v)) for v in diffs]), ch)

    want = _outcome(per_row)
    event("warns" if want is RuntimeWarning else "runs")
    assert _outcome(lambda: server_gains(state, ch)) == want


SEGMENT_LENGTHS = [0, 1, 7, 8, 9, 127, 128, 129, 8193]  # around pairwise-sum blocks


@st.composite
def segmented_values(draw):
    """Runs of gains in [0, 1] spread over many magnitudes, of the lengths
    around numpy's 8-way unrolled, 128-element pairwise blocks or any up to
    300, with nan, inf, 0 and the least subnormal at drawn places."""
    counts = draw(
        st.lists(st.sampled_from(SEGMENT_LENGTHS) | st.integers(0, 300), min_size=1, max_size=6)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random(sum(counts)) ** draw(st.sampled_from([1, 8, 64]))
    specials = st.sampled_from([math.nan, math.inf, 0.0, 5e-324])
    for place, value in draw(st.lists(st.tuples(st.integers(0, 2**31), specials), max_size=4)):
        if values.size:
            values[place % values.size] = value
    return values, np.array(counts)


@settings(max_examples=200, deadline=None)
@example((np.random.default_rng(0).random(sum(SEGMENT_LENGTHS)), np.array(SEGMENT_LENGTHS)))
@given(segmented_values())
def test_segment_sums_equal_per_slice_reduce(case):
    values, counts = case
    ends = np.cumsum(counts)
    want = [
        np.add.reduce(values[start:end]) if end > start else 0.0
        for start, end in zip((ends - counts).tolist(), ends.tolist())
    ]
    assert segment_sums(values, counts).tobytes() == np.array(want).tobytes()
