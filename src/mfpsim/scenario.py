"""Vehicular scenario: mobility, sensing geometry, channels, status attributes.

State snapshots are immutable per round; stepping returns a new snapshot, so
snapshots can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .resource_pool import ResourceQuanta


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ChannelParams:
    """Log-distance path-loss channel at a mmWave carrier.

    reference_loss_db is the loss at 1 m; free-space at 28 GHz gives ~61.4 dB.
    Sensitivities gate link usability on received power.
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _reflect(pos: np.ndarray, vel: np.ndarray, area: float) -> tuple[np.ndarray, np.ndarray]:
    pos = pos.copy()
    vel = vel.copy()
    for _ in range(8):  # speeds are bounded, a couple of folds suffice
        low = pos < 0
        high = pos > area
        if not (low.any() or high.any()):
            break
        pos[low] = -pos[low]
        pos[high] = 2 * area - pos[high]
        vel[low | high] *= -1
    return pos, vel


def step_mobility(state: ScenarioState, seed: int, dt: float) -> ScenarioState:
    """Advance every entity by its current velocity, reflect at the square's
    edges, then resample velocities for the next round (waypoint style).

    Deterministic: the same (state, seed, dt) always yields the same snapshot.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cp, cv = _reflect(state.client_pos + state.client_vel * dt, state.client_vel, state.area_m)
    tp, tv = _reflect(state.target_pos + state.target_vel * dt, state.target_vel, state.area_m)
    cv = _random_velocities(rng, state.n_clients, state.max_speed)
    tv = _random_velocities(rng, state.n_targets, state.max_speed)
    return replace(
        state,
        client_pos=cp,
        client_vel=cv,
        target_pos=tp,
        target_vel=tv,
    )


def target_distances(state: ScenarioState) -> np.ndarray:
    """(Nc, Nt) client-to-target distances for one round.

    Row c is bitwise equal to `np.linalg.norm(target_pos - client_pos[c],
    axis=1)`: both square the per-axis differences and add x before y, then
    take the root.  The matrix is built in place from the two axis
    differences, so the only temporaries are two (Nc, Nt) buffers.
    """
    cp, tp = state.client_pos, state.target_pos
    d = tp[:, 0] - cp[:, 0, None]
    d *= d
    dy = tp[:, 1] - cp[:, 1, None]
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)


def targets_in_domain(
    distances: np.ndarray, geometry: SensingGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of targets inside the visual disc and in the wireless-only
    annulus, from one client's row of `target_distances`."""
    in_vsd = np.flatnonzero(distances <= geometry.d_vs)
    in_wsd_only = np.flatnonzero((distances > geometry.d_vs) & (distances <= geometry.d_ws))
    return in_vsd, in_wsd_only


def channel_gain(distance_m: float, params: ChannelParams) -> float:
    """Linear power gain of the log-distance path-loss model."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    gain_db = -(params.reference_loss_db + 10 * params.pathloss_exponent * math.log10(distance_m))
    return 10 ** (gain_db / 10)


@dataclass(frozen=True)
class LinkBudget:
    gain_linear: float
    gain_db: float
    rx_power_dbm: float
    usable: bool


def link_budget(
    distance_m: float, tx_power_dbm: float, sensitivity_dbm: float, params: ChannelParams
) -> LinkBudget:
    gain = channel_gain(distance_m, params)
    gain_db = 10 * math.log10(gain) if gain > 0 else -math.inf  # 0: the gain underflowed
    rx = tx_power_dbm + gain_db
    return LinkBudget(gain, gain_db, rx, rx >= sensitivity_dbm)


def spectral_efficiency(
    distance_m: float,
    tx_power_dbm: float,
    sensitivity_dbm: float,
    params: ChannelParams,
    quanta: ResourceQuanta,
) -> float:
    """Shannon efficiency (bits/s/Hz) over one frequency cell; 0 when the
    received power falls under the receiver sensitivity."""
    budget = link_budget(distance_m, tx_power_dbm, sensitivity_dbm, params)
    if not budget.usable:
        return 0.0
    tx_w = 10 ** ((tx_power_dbm - 30) / 10)
    snr = tx_w * budget.gain_linear / (params.noise_density_w_per_hz * quanta.freq_hz)
    return math.log2(1 + snr)


def status_attributes(
    state: ScenarioState,
    distances: np.ndarray,
    geometry: SensingGeometry,
    channel: ChannelParams,
    profile: SensingProfile,
    quanta: ResourceQuanta,
) -> StatusAttributes:
    """Per-round sample-rate coefficients and sensed label distribution.

    a = rho * S_vs * visual_efficiency * frame_rate * time_quantum
    b = rho * (S_ws - S_vs) * wireless_efficiency * log2(1 + snr) * frame_rate * time_quantum

    rho is the global target density; the wireless SNR uses the mean gain over
    targets currently in the wireless disc, frozen for the round.

    `distances` is the client's row of `target_distances`.  The per-target
    gains stay scalar `channel_gain` calls: numpy's log10 and power differ
    from `math.log10` and `**` in the last bit on a few percent of inputs,
    which would move `b` and every output derived from it.
    """
    n_targets = state.n_targets
    if n_targets == 0:
        return StatusAttributes(0.0, 0.0, None)

    rho = n_targets / state.area_m**2
    in_vsd, in_annulus = targets_in_domain(distances, geometry)

    a = rho * geometry.s_vs * profile.visual_efficiency * profile.frame_rate_hz * quanta.time_s
    b = 0.0
    wireless_idx = np.concatenate([in_vsd, in_annulus])
    if wireless_idx.size:
        d = np.maximum(distances[wireless_idx], 1.0)
        gains = np.array([channel_gain(x, channel) for x in d.tolist()])
        tx_w = 10 ** ((channel.tx_power_sensing_dbm - 30) / 10)
        snr = tx_w * float(gains.mean()) / (channel.noise_density_w_per_hz * quanta.freq_hz)
        b = (
            rho
            * (geometry.s_ws - geometry.s_vs)
            * profile.wireless_efficiency
            * math.log2(1 + snr)
            * profile.frame_rate_hz
            * quanta.time_s
        )

    if profile.mode == "vsg":
        b = 0.0
        sensed = in_vsd
    elif profile.mode == "wsg":
        a = 0.0
        sensed = in_annulus
    else:
        sensed = wireless_idx

    label_dist = None
    if sensed.size:
        counts = np.bincount(state.target_class[sensed], minlength=state.n_classes)
        label_dist = counts / counts.sum()

    return StatusAttributes(
        a=a,
        b=b,
        label_dist=label_dist,
        n_visual_targets=int(in_vsd.size),
        n_wireless_targets=int(in_annulus.size),
    )


def global_label_distribution(
    state: ScenarioState,
    distances: np.ndarray,
    geometry: SensingGeometry,
    mode: str = "msg",
) -> np.ndarray | None:
    """Empirical class distribution over the union of all clients' sensed targets.

    `distances` is the round's `target_distances` matrix.  A target is sensed
    when any client's row puts it in a disc the mode uses, so the result is
    bitwise equal to the union of every client's `targets_in_domain`.
    """
    if state.n_targets == 0:
        return None
    sensed = np.zeros(state.n_targets, dtype=bool)
    if mode in ("msg", "vsg"):
        sensed |= (distances <= geometry.d_vs).any(axis=0)
    if mode in ("msg", "wsg"):
        sensed |= ((distances > geometry.d_vs) & (distances <= geometry.d_ws)).any(axis=0)
    if not sensed.any():
        return None
    counts = np.bincount(state.target_class[sensed], minlength=state.n_classes)
    return counts / counts.sum()
