"""Vehicular scenario: mobility, sensing geometry, channels, status attributes.

State snapshots are immutable per round; stepping returns a new snapshot, so
snapshots can be shared freely across threads.  Each round's sensing reads
only the client-target pairs within the wireless radius (`sensing_pairs`),
found in two scratch buffers that a run allocates once (`pair_buffers`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .resource_pool import ResourceQuanta


@dataclass(slots=True)
class SensingGeometry:
    """Visual and wireless sensing discs around a client (meters)."""

    d_vs: float = 50.0
    d_ws: float = 100.0

    def __post_init__(self):
        if not 0 < self.d_vs < self.d_ws:
            raise ValueError("need d_ws > d_vs > 0")

    @property
    def s_vs(self) -> float:
        return math.pi * self.d_vs**2

    @property
    def s_ws(self) -> float:
        return math.pi * self.d_ws**2


@dataclass(slots=True)
class ChannelParams:
    """Log-distance path-loss channel at a mmWave carrier.

    reference_loss_db is the loss at 1 m; free-space at 28 GHz gives ~61.4 dB.
    Only sensitivity_wc_dbm gates anything: a server link whose received
    power falls under it carries nothing.  Nothing reads sensitivity_ws_dbm
    or carrier_hz; the loss at 1 m is set directly.
    """

    carrier_hz: float = 28e9
    noise_density_w_per_hz: float = 4e-21
    tx_power_server_dbm: float = 55.0
    tx_power_client_dbm: float = 26.0
    tx_power_sensing_dbm: float = 26.0
    sensitivity_ws_dbm: float = -180.0
    sensitivity_wc_dbm: float = -115.0
    pathloss_exponent: float = 2.0
    reference_loss_db: float = 61.4


@dataclass(slots=True)
class SensingProfile:
    """Sample-generation parameters.

    visual_efficiency scales frames into labeled samples; with the default
    20 fps camera, 0.5 yields 10 samples per in-disc target per second.
    wireless_efficiency converts sensing capacity (spectral efficiency x
    frequency cells) into samples; its default is calibrated so that at the
    stock pool sizes the wireless yield matches the visual yield's order of
    magnitude.  mode restricts which modalities contribute ("msg" both,
    "vsg" visual only, "wsg" wireless only).
    """

    frame_rate_hz: float = 20.0
    visual_efficiency: float = 0.5
    wireless_efficiency: float = 1e-4
    mode: str = "msg"

    def __post_init__(self):
        if self.mode not in ("msg", "vsg", "wsg"):
            raise ValueError(f"unknown sensing mode {self.mode!r}")


@dataclass(slots=True)
class StatusAttributes:
    """Per-client, per-round sample-rate coefficients.

    a: samples per time cell of visual sensing.
    b: samples per (time cell x frequency cell) of wireless sensing.
    label_dist: empirical class distribution over sensed targets, or None
    when the client senses nothing.
    """

    a: float
    b: float
    label_dist: np.ndarray | None
    n_visual_targets: int = 0
    n_wireless_targets: int = 0


@dataclass(slots=True)
class ScenarioState:
    """Positions/velocities of clients and targets plus the server anchor."""

    area_m: float
    client_pos: np.ndarray  # (Nc, 2)
    client_vel: np.ndarray  # (Nc, 2)
    target_pos: np.ndarray  # (Nt, 2)
    target_vel: np.ndarray  # (Nt, 2)
    target_class: np.ndarray  # (Nt,) int
    server_pos: np.ndarray  # (2,)
    n_classes: int
    max_speed: float

    @property
    def n_clients(self) -> int:
        return self.client_pos.shape[0]

    @property
    def n_targets(self) -> int:
        return self.target_pos.shape[0]


def make_scenario(
    seed: int,
    n_clients: int,
    n_targets: int,
    n_classes: int = 10,
    area_m: float = 500.0,
    max_speed: float = 30.0,
) -> ScenarioState:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return ScenarioState(
        area_m=area_m,
        client_pos=rng.uniform(0, area_m, (n_clients, 2)),
        client_vel=_random_velocities(rng, n_clients, max_speed),
        target_pos=rng.uniform(0, area_m, (n_targets, 2)),
        target_vel=_random_velocities(rng, n_targets, max_speed),
        target_class=rng.integers(0, n_classes, n_targets),
        server_pos=np.array([area_m / 2, area_m / 2]),
        n_classes=n_classes,
        max_speed=max_speed,
    )


def _random_velocities(rng: np.random.Generator, n: int, max_speed: float) -> np.ndarray:
    theta = rng.uniform(0, 2 * math.pi, n)
    speed = rng.uniform(0, max_speed, n)
    return np.column_stack([speed * np.cos(theta), speed * np.sin(theta)])


def _reflect(pos: np.ndarray, area: float) -> np.ndarray:
    """Fold positions back into [0, area] as if they bounced off the edges:
    up to 8 single folds, then one fold by the period 2 * area, so the work
    is bounded at any speed (`load_config` keeps every fold finite)."""
    pos = pos.copy()
    for _ in range(8):  # at the usual speeds one or two folds suffice
        low = pos < 0
        high = pos > area
        if not (low.any() or high.any()):
            return pos
        pos[low] = -pos[low]
        pos[high] = 2 * area - pos[high]
    out = (pos < 0) | (pos > area)
    x = np.mod(pos[out], 2 * area)  # in [0, 2 * area]
    pos[out] = np.where(x > area, 2 * area - x, x)
    return pos


def step_mobility(state: ScenarioState, seed: int, dt: float) -> ScenarioState:
    """Advance every entity by its current velocity, reflect at the square's
    edges, then resample velocities for the next round (waypoint style).

    Deterministic: the same (state, seed, dt) always yields the same snapshot.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return replace(
        state,
        client_pos=_reflect(state.client_pos + state.client_vel * dt, state.area_m),
        client_vel=_random_velocities(rng, state.n_clients, state.max_speed),
        target_pos=_reflect(state.target_pos + state.target_vel * dt, state.area_m),
        target_vel=_random_velocities(rng, state.n_targets, state.max_speed),
    )


def pair_buffers(state: ScenarioState) -> tuple[np.ndarray, np.ndarray]:
    """The two (Nc, Nt) float buffers `sensing_pairs` works in.  A run
    allocates them once and every round overwrites them, as the fleet and
    the targets keep their counts."""
    shape = (state.n_clients, state.n_targets)
    return np.empty(shape), np.empty(shape)


def sensing_pairs(
    state: ScenarioState,
    geometry: SensingGeometry,
    buffers: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The round's client-target pairs within the wireless radius, as
    (rows, cols, dist, visual): client index, target index, distance, and
    whether the target is in the visual disc.  The pairs come client by
    client, each client's visual disc before its annulus, each in target
    order.  `buffers` are `pair_buffers(state)`, whatever they hold.

    Bitwise equal to taking `np.linalg.norm(target_pos - client_pos[c],
    axis=1)` per client c, keeping the targets at most d_ws away and
    marking those at most d_vs away:
    - the squared distances (tx - cx)**2 + (ty - cy)**2 are written into
      the buffers with the same elementwise ops, x added before y;
    - every square takes its correctly rounded root in place, the same op
      per element, a pair is kept when that root is at most d_ws, and
      `visual` is the kept root at most d_vs;
    - `np.flatnonzero` lists the kept pairs in (client, target) order, the
      quotient and remainder of each flat index by Nt, and a stable sort on
      (client, annulus) puts each client's visual disc first without
      reordering the targets within a disc.
    """
    cp, tp = state.client_pos, state.target_pos
    sq, dy = buffers
    np.subtract(tp[:, 0], cp[:, 0, None], out=sq)
    sq *= sq
    np.subtract(tp[:, 1], cp[:, 1, None], out=dy)
    dy *= dy
    sq += dy
    np.sqrt(sq, out=sq)
    flat = np.flatnonzero(sq <= geometry.d_ws)
    dist = sq.take(flat)
    visual = dist <= geometry.d_vs
    rows = flat // state.n_targets
    order = np.argsort(2 * rows + ~visual, kind="stable")
    flat, rows = flat[order], rows[order]
    return rows, flat - rows * state.n_targets, dist[order], visual[order]


def path_gains(distances: np.ndarray, channel: ChannelParams) -> np.ndarray:
    """Linear power gains of the log-distance path-loss law,
    10 ** (-(reference_loss_db + 10 * exponent * log10(d)) / 10), at each
    distance d clamped to at least 1 m.  In [0, 1], or nan where
    10 * exponent overflows and meets log10(1) = 0.

    Bitwise equal to the expression in Python floats: `math.log10` and
    `math.pow` stay libm calls looped by `map` (numpy's SIMD log10 and power
    differ in the last bit on a few percent of inputs, which an exponent
    amplifies), and the `* + - /` steps are numpy ops in the expression's
    order (a sum with its operands swapped is the same float), each
    correctly rounded like Python's.  `math.pow(10.0, x)` is the libm
    `pow(10.0, x)` that the expression's `10 ** x` reaches once the int 10
    becomes a float, and both handle the special exponents alike: nan gives
    nan, -inf gives 0, inf gives inf, an underflow gives 0 or a subnormal,
    and a finite x whose power overflows raises `OverflowError`.  Numpy's
    warnings are off, as Python's float `* + -` give inf or nan without one.
    """
    x = np.maximum(distances, 1.0)
    x = np.fromiter(map(math.log10, x.tolist()), float, len(x))
    with np.errstate(all="ignore"):
        x *= 10 * channel.pathloss_exponent
        x += channel.reference_loss_db
        np.negative(x, out=x)
        x /= 10
    return np.fromiter(map(math.pow, repeat(10.0), x.tolist()), float, len(x))


def server_gains(state: ScenarioState, channel: ChannelParams) -> np.ndarray:
    """Each client's path gain to the server, in client order.

    The distance is bitwise equal to `np.linalg.norm(p - server_pos)` per
    client position p: the differences are one batched subtraction, the
    same correctly rounded op per element, and each row v then takes
    `math.sqrt(v.dot(v))`, the two steps `norm` performs on a 1-D float
    vector (`x.dot(x)`, then a correctly rounded root).  The square sum stays
    one `dot` per row: batched reductions such as `einsum` or `sum(axis=1)`
    differ from it in the last bit.
    """
    diffs = state.client_pos - state.server_pos
    return path_gains(np.array([math.sqrt(v.dot(v)) for v in diffs]), channel)


def spectral_efficiency(
    gains: np.ndarray,
    tx_power_dbm: float,
    sensitivity_dbm: float,
    params: ChannelParams,
    quanta: ResourceQuanta,
) -> np.ndarray:
    """Shannon efficiency (bits/s/Hz) over one frequency cell, one per path
    gain; 0 where the received power tx_power_dbm + 10 * log10(gain) falls
    under the sensitivity, or the gain is 0 (it underflowed) or nan.
    Bitwise equal to the scalar chain per gain, as `path_gains` argues:
    `log10` and `log2` are libm calls, the `+ * /` steps numpy ops.
    """
    log_gain = np.full(len(gains), -math.inf)  # a gain of 0 or nan receives nothing
    positive = gains > 0
    log_gain[positive] = np.fromiter(map(math.log10, gains[positive].tolist()), float)
    usable = tx_power_dbm + 10 * log_gain >= sensitivity_dbm
    tx_w = 10 ** ((tx_power_dbm - 30) / 10)
    with np.errstate(all="ignore"):
        snr = tx_w * gains[usable] / (params.noise_density_w_per_hz * quanta.freq_hz)
    eff = np.zeros(len(gains))
    eff[usable] = np.fromiter(map(math.log2, (1 + snr).tolist()), float)
    return eff


def status_attributes(
    state: ScenarioState,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    geometry: SensingGeometry,
    channel: ChannelParams,
    profile: SensingProfile,
    quanta: ResourceQuanta,
) -> list[StatusAttributes]:
    """Every client's sample-rate coefficients and sensed label distribution
    for one round, in client order.

    a = rho * S_vs * visual_efficiency * frame_rate * time_quantum
    b = rho * (S_ws - S_vs) * wireless_efficiency * log2(1 + snr) * frame_rate * time_quantum

    rho is the global target density; a client's wireless SNR uses the mean
    gain over the targets currently in its wireless disc, frozen for the
    round.  `pairs` are the round's `sensing_pairs`.

    Every value is bitwise equal to evaluating the path-loss law per target
    with Python floats and `ndarray.mean` over each client's gains, visual
    disc first:
    - the gains come from `path_gains`, which carries its own exactness
      argument, over the pairs' distances, which `sensing_pairs` argues are
      the reference's;
    - a client's gains are summed by `np.add.reduce` over one contiguous
      slice, the pairwise sum `mean` takes (`np.add.reduceat` sums each
      segment in another order).  A pairwise sum depends on element order,
      so each slice keeps the reference order, which is the pairs' order:
      the visual disc's targets, then the annulus's, each in target order.
      As d_vs < d_ws, the annulus is the wireless disc minus the visual one;
    - the SNR, its log2 and `b` stay Python float ops per client, and the
      label counts are integers, whose order does not matter.
    """
    n_clients, n_targets = state.n_clients, state.n_targets
    if n_targets == 0:
        return [StatusAttributes(0.0, 0.0, None)] * n_clients

    rho = n_targets / state.area_m**2
    a = rho * geometry.s_vs * profile.visual_efficiency * profile.frame_rate_hz * quanta.time_s
    b_scale = rho * (geometry.s_ws - geometry.s_vs) * profile.wireless_efficiency
    tx_w = 10 ** ((channel.tx_power_sensing_dbm - 30) / 10)
    noise_w = channel.noise_density_w_per_hz * quanta.freq_hz

    rows, cols, dist, visual = pairs
    ends = np.cumsum(np.bincount(rows, minlength=n_clients)).tolist()
    n_visual = np.bincount(rows[visual], minlength=n_clients)

    # `vsg` reads no wireless gain
    gains = path_gains(dist, channel) if profile.mode != "vsg" else None

    if profile.mode == "vsg":
        sensed = visual
    elif profile.mode == "wsg":
        a, sensed = 0.0, ~visual
    else:
        sensed = slice(None)
    counts = np.bincount(
        rows[sensed] * state.n_classes + state.target_class[cols[sensed]],
        minlength=n_clients * state.n_classes,
    ).reshape(n_clients, state.n_classes)
    totals = counts.sum(axis=1)
    label_dists = counts / np.maximum(totals, 1)[:, None]

    out = []
    start = 0
    for c, (end, n_vis, total) in enumerate(zip(ends, n_visual.tolist(), totals.tolist())):
        b = 0.0
        if end > start and profile.mode != "vsg":
            snr = tx_w * float(np.add.reduce(gains[start:end]) / (end - start)) / noise_w
            b = b_scale * math.log2(1 + snr) * profile.frame_rate_hz * quanta.time_s
        label_dist = label_dists[c] if total else None
        out.append(StatusAttributes(a, b, label_dist, n_vis, end - start - n_vis))
        start = end
    return out


def global_label_distribution(
    state: ScenarioState,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    mode: str = "msg",
) -> np.ndarray | None:
    """Empirical class distribution over the union of all clients' sensed targets.

    `pairs` are the round's `sensing_pairs`.  A target is sensed when some
    pair puts it in a disc the mode uses, so the result is bitwise equal to
    the union of the targets each client senses.
    """
    if state.n_targets == 0:
        return None
    _, cols, _, visual = pairs
    if mode == "vsg":
        cols = cols[visual]
    elif mode == "wsg":
        cols = cols[~visual]
    if not cols.size:
        return None
    sensed = np.zeros(state.n_targets, dtype=bool)
    sensed[cols] = True
    counts = np.bincount(state.target_class[sensed], minlength=state.n_classes)
    return counts / counts.sum()
