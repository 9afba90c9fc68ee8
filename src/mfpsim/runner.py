"""Seeded multi-round simulation loop and result records.

`run()` builds one per-run context, which no stage writes to, and runs each
round as five stages over it:

- scenario and quotes: the scenario steps, each client's targets in range
  are found in two buffers the run allocates once, the window's cycle is
  fixed, and the fleet's status columns become quotes (capacity bounds,
  gain rate, and a min-cost curve under the active policy, except a
  saturating one, which quotes no curve);
- selection and allocation: workloads toward the gain target;
- solve and quantize: the winners' schedules, in whole cells;
- placement: into the shared per-window pools, next to the previous round's
  transfer chain when pipelined;
- settlement: payments on what actually fit, and the round's rows.

The fleet stays in columns (`_Fleet`).  A client's round state
(`_ClientRound`) is built when a stage first reads the client (`_entry`):
every quoted client's under a curve or ranked policy, only the workload
holders' under a saturating one.  It is built, and the stages iterate, in
client order, as that order reaches the output: the report's float sums,
the timeline's rows and the chains handed on.

The stages call the engine through this module's globals, which is where
the benchmark's tracer wraps them.  Summary and timeline rows are plain
dicts and clients.jsonl is kept as each round's columns, so the writers
stay trivial and byte-reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from itertools import count
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .baselines import (
    POLICIES,
    WIDTH_TIME_PRICE,
    Policy,
    SelectionMetrics,
    realize_with_policy,
    schedule_with_policy,
    select_clients,
)
from .config import QUOTE_CAP, ExperimentConfig, config_hash, load_config
from .costs import ConsumptionTask, PriceVector, ScheduleDecision
from .errors import GainShortfallError
from .market import ClientQuote, CostCurve, allocate_workloads, build_report, loses, saturated_load
from .resource_pool import ResourceQuanta, new_pool
from .rounds import cycle_length, plan_round, rounds_to_complete
from .scenario import (
    StatusAttributes,
    global_label_distribution,
    make_scenario,
    pair_buffers,
    sensing_pairs,
    server_gains,
    spectral_efficiency,
    status_attributes,
    step_mobility,
)
from .sensing import qod
from .solver import (
    Budgets,
    OutcomeKind,
    SolveInput,
    fleet_bounds,
    mtv,
    mutv,
)

# summary.csv's columns in order, each with the reader that loads it back
_SUMMARY_READERS = {
    "round": int,
    "gain": float,
    "app_payment": float,
    "payments_total": float,
    "costs_total": float,
    "server_profit": float,
    "client_profits_total": float,
    "welfare": float,
    "active_count": int,
    "t_delta_cells": int,
    "shortfall": lambda text: bool(int(text)),
}
SUMMARY_COLUMNS = list(_SUMMARY_READERS)

# json's names for the floats whose repr is no JSON number
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values) -> list[str]:
    """Each value as json writes a float; anything but a float raises."""
    texts = list(map(float.__repr__, values))
    return list(map(_NONFINITE.get, texts, texts))


def _json_ints(values) -> list[str]:
    """Each value as json writes an int; anything but an int raises, and so
    does a bool, which json writes as true or false."""
    if bool in set(map(type, values)):
        raise TypeError("expected ints, got a bool")
    return list(map(int.__repr__, values))


def _json_strs(values) -> list[str]:
    """Each value as json writes a str; anything but a str raises."""
    return list(map(encode_basestring_ascii, values))


# clients.jsonl's keys, sorted as json.dumps(row, sort_keys=True) writes them,
# each with the encoder of its column's kind
_CLIENT_ENCODERS = {
    "client": _json_strs, "cost": _json_floats, "gain_rate": _json_floats, "mtv": _json_ints,
    "mutv": _json_ints, "n": _json_ints, "note": _json_strs, "payment": _json_floats,
    "profit": _json_floats, "qod": _json_floats, "round": _json_ints,
}
CLIENT_COLUMNS = tuple(_CLIENT_ENCODERS)

TIMELINE_COLUMNS = ["round", "client", "process", "start_cell", "end_cell", "b_cells", "f_cells"]

TRAJECTORY_COLUMNS = ["round", "id", "kind", "x", "y", "class"]


@dataclass(slots=True)
class RunRecord:
    """Everything one simulation produced, reproducible byte-for-byte."""

    config_hash: str
    seed: int
    summary_rows: list[dict] = field(default_factory=list)
    # each round's clients.jsonl columns: CLIENT_COLUMNS -> a list in client order
    client_columns: list[dict[str, list]] = field(default_factory=list)
    timeline_rows: list[dict] = field(default_factory=list)
    trajectory_rows: list[dict] = field(default_factory=list)
    audit_violations: list[str] = field(default_factory=list)
    cr_count: int = 0

    def run_json(self) -> str:
        return json.dumps(
            {
                "config_hash": self.config_hash,
                "seed": self.seed,
                "rounds": len(self.summary_rows),
                "cr_count": self.cr_count,
                "audit_violations": self.audit_violations,
                "total_welfare": self.total_welfare,
                "total_gain": self.total_gain,
            },
            indent=2,
            sort_keys=True,
        )

    def output_texts(self) -> dict[str, str]:
        out = {
            "summary.csv": _csv_text(SUMMARY_COLUMNS, self.summary_rows),
            "clients.jsonl": _clients_jsonl(self.client_columns),
            "timeline.csv": _csv_text(TIMELINE_COLUMNS, self.timeline_rows),
            "run.json": self.run_json(),
        }
        if self.trajectory_rows:
            out["trajectories.csv"] = _csv_text(TRAJECTORY_COLUMNS, self.trajectory_rows)
        return out

    def write(self, outdir: str | Path) -> list[Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, text in self.output_texts().items():
            path = outdir / name
            path.write_bytes(text.encode("utf-8"))
            written.append(path)
        return written

    @property
    def total_welfare(self) -> float:
        return sum(r["welfare"] for r in self.summary_rows)

    @property
    def total_gain(self) -> float:
        return sum(r["gain"] for r in self.summary_rows)


# one clients.jsonl line, a %s slot per column in CLIENT_COLUMNS' order
_CLIENT_LINE = (
    "{" + ", ".join(f"{encode_basestring_ascii(k)}: %s" for k in CLIENT_COLUMNS) + "}\n"
)


def _clients_jsonl(rounds: list[dict[str, list]]) -> str:
    """The clients.jsonl text of each round's columns: per client, the text
    of `json.dumps(row, sort_keys=True)` plus a newline, where the row maps
    each column's name to the client's entry, for rounds whose columns are
    exactly CLIENT_COLUMNS, all of one length.

    Each column is encoded in one pass, as json's encoder writes its kind:
    a str by `encode_basestring_ascii`, the escaper `json.dumps` uses under
    its default ensure_ascii; an int by `int.__repr__`; a float by
    `float.__repr__`, with nan and the infinities spelled NaN, Infinity and
    -Infinity.  The keys are fixed ASCII names, and the separators json's
    defaults ", " and ": ".  A round with another column, columns of
    unequal length, or a value of another kind than its column's, raises
    instead of writing other bytes.
    """
    lines = []
    for columns in rounds:
        if len(columns) != len(CLIENT_COLUMNS):
            raise ValueError(f"a round's clients.jsonl columns are {CLIENT_COLUMNS}")
        texts = [encode(columns[k]) for k, encode in _CLIENT_ENCODERS.items()]
        lines += map(_CLIENT_LINE.__mod__, zip(*texts, strict=True))
    return "".join(lines)


def _csv_text(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([[_fmt(row[k]) for k in columns] for row in rows])
    return buf.getvalue()


def _fmt(value):
    if isinstance(value, bool):
        return int(value)
    return value


def validate_summary_rows(rows: list[dict]) -> list[str]:
    """Re-check the bookkeeping identities on loaded/emitted summary rows.
    A residual that is not within 1e-6 of 0, NaN included, is a finding."""
    bad = []
    for row in rows:
        if not abs(row["server_profit"] - (row["app_payment"] - row["payments_total"])) <= 1e-6:
            bad.append(f"round{row['round']}:server_profit_identity")
        if (
            not abs(
                row["client_profits_total"]
                - (row["payments_total"] - row["costs_total"])
            )
            <= 1e-6
        ):
            bad.append(f"round{row['round']}:client_profit_identity")
    return bad


def load_summary_csv(text: str) -> list[dict]:
    """The rows of a summary.csv text, each value read back to its type."""
    return [
        {column: read(raw[column]) for column, read in _SUMMARY_READERS.items()}
        for raw in csv.DictReader(io.StringIO(text))
    ]


@dataclass(slots=True)
class _ClientRound:
    """Working state for one client inside one round, with its transfer and
    training task, built when a stage first reads the client (`_entry`), in
    client order: by its cost curve, which a ranked policy's selection
    reads too, or by the workload a saturating policy gives it.  Most of a
    large fleet quotes under a saturating policy and is never traded, so
    most clients never get one."""

    cid: str
    attrs: StatusAttributes
    quote: ClientQuote | None
    budgets: Budgets
    task: ConsumptionTask
    n: int = 0
    quantized: ScheduleDecision | None = None
    note: str = ""

    def drop(self, note: str) -> None:
        """Take the client out of the round, saying why."""
        self.note = note
        self.n = 0
        self.quantized = None


@dataclass(slots=True)
class _RunContext:
    """What every stage of one run reads; fixed for the whole run."""

    config: ExperimentConfig
    policy: Policy
    prices: PriceVector
    quanta: ResourceQuanta
    cells: tuple[int, int, int]  # (time, freq, compute) pool cells after scaling
    pipelined: bool
    client_ids: tuple[str, ...]
    positions: dict[str, int]  # each client's index in client_ids


@dataclass(slots=True)
class _Fleet:
    """One round's fleet as columns in client order: the status columns
    (a, b, n_visual, n_wireless) and link efficiencies the quotes were taken
    from, the quotes of the clients that quote, clients.jsonl's quote
    columns, and the `_ClientRound` of each client a stage has read so far,
    in client order."""

    budgets: Budgets
    narrowed: dict[str, Budgets]  # the budgets of a client carrying last round's chain
    status: tuple[list, list, list, list]
    eff_down: list[float]
    eff_up: list[float]
    quotes: dict[str, ClientQuote]
    columns: dict[str, list]  # qod, gain_rate, mtv, mutv, note
    entries: dict[str, _ClientRound]


def _entry(ctx, fleet, cid) -> _ClientRound:
    """Client `cid`'s round state, with its `StatusAttributes`, built from
    the fleet's columns on the first read."""
    c = fleet.entries.get(cid)
    if c is None:
        i = ctx.positions[cid]
        a, b, n_visual, n_wireless = fleet.status
        c = fleet.entries[cid] = _ClientRound(
            cid, StatusAttributes(a[i], b[i], n_visual[i], n_wireless[i]),
            fleet.quotes.get(cid), fleet.narrowed.get(cid, fleet.budgets),
            ctx.config.task_for(fleet.eff_down[i], fleet.eff_up[i]), note=fleet.columns["note"][i],
        )
    return c


def _policy_solve(ctx, n, at, task, budgets, bounds):
    """Policy solve with the spectrum split internalized.

    In pipelined mode a client's transfer chain shares its window with the
    client's sensing of the following round, so after the plain solve the
    transfers are re-solved with their bandwidth capped beside the sensing
    block.  A cap no tighter than the budgets (visual-only sensing, or a
    one-row grid) leaves the plain solve as it is.  When the plain solve's
    transfer widths already fit under the cap, the re-solve is skipped: the
    plain optimum is feasible under the tighter box, and the problem is
    convex, so a box that does not bind leaves the optimum unchanged.  The
    capped budgets are still returned, because the integer realization
    works against them.  When the capped chain cannot carry the workload,
    the uncapped schedule stands (a fallback).  Both
    solves are `solver.solved` outcomes, Optimal only with a schedule of
    finite cost, so a capped chain whose cost leaves the float range is a
    fallback too.  The capped mtv decides the fallback before any re-solve:
    n above it falls back at once, with no capped mutv and no second solve.
    `bounds` is (mtv, mutv) under `budgets`; the re-solve takes its own,
    under the capped budgets.  Returns (outcome, budgets_used, fell_back).

    The market reads n -> this cost as a curve (`_curve_fn`) whose
    segments are (n > mutv, fell_back).  It dips, by several cost units,
    where the capped chain stops fitting and the uncapped schedule takes
    over; within a segment it does not decrease, as `CostCurve`'s contract
    asks.  The cost objective:

    * The sensing width does not decrease in n.  The generation side is
      solved apart from the chain.  At n <= mutv its bandwidth is
      max(0, (sqrt(n*b*time/freq) - a)/b) (0 when b <= 0), rounded
      operations each monotone in n.  Above mutv `_solve_generation` picks
      among points of a*x + b*x*y = n (box-free, bandwidth box, time box,
      vision only), where less time means more bandwidth, and its tie rule
      prefers less time among costs within 1e-9.  The cost
      time*n/(a + b*y) + freq*y is convex in y and its cross-derivative in
      (n, y) is negative, so as n grows the cheapest width and the widest
      width within the tie window both move up, and so does every
      candidate's width (b_max and 0 stay, the other two are monotone closed
      forms).  mutv is rounded up by up to 1e-9 of itself, so the closed
      form's width can pass the box by a hair at mutv; the segment keeps
      the two sides apart.  So the sensing cells ceil(b_ws - 1e-9) only
      grow, and the cap only shrinks: the box B(n) the chain is priced in
      (the full budgets while the cap does not bind) only tightens.
    * Without a fallback the cost is the minimum over B(n): the re-solve's,
      or the plain optimum when it already fits.  A schedule for n+1
      samples in B(n+1) shrinks to one for n in B(n), which contains
      B(n+1), so that minimum does not decrease.
    * A fallback is for good: had the capped chain, or the plain optimum
      under the cap, carried n+1 in B(n+1), the capped chain would carry n
      in B(n).  Past it the cost is the plain minimum over the fixed
      budgets, which does not decrease either.
    * Computed minima miss the exact ones by the solver's tie windows (1e-9
      per comparison, a few comparisons) and tolerance boxes (1e-9
      relative), well inside the contract's slack of 1e-7 * (1 + |c|).

    The other objectives (`solver.RACED`):

    * `time` and `sensing` sense at full bandwidth, so the cap and B(n) do
      not move with n.  `sensing` prices the chain as the cost objective
      does; `time` puts each leg at its box, costing width_price*box +
      time*volume/box, and the capped chain's time grows with n too.
    * `comp` senses as the cost objective does, and its training width
      sits at the same box in every B(n), so the argument above holds.
    * `width` senses at x = n/a, y = 0 up to n = a*T (T the window), then
      at x = T: its sensing cells and cost grow with n.  Its chain minimizes
      g = WIDTH_TIME_PRICE*t + width spend over B(n), t its total time,
      which does not decrease as above, and costs g + (time -
      WIDTH_TIME_PRICE)*t.  Each leg takes the longer of its free time and
      its time at the box, both growing with n, until the budget binds and
      t stays T.  So the label needs time >= WIDTH_TIME_PRICE.
    * `comm` pins its transfers at the cap's box, where a looser box costs
      more: its chain dips each time the cap shrinks by a cell, so its
      points get no segment and are never granted in runs.
    """
    policy, prices, quanta = ctx.policy, ctx.prices, ctx.quanta
    out = schedule_with_policy(
        policy, SolveInput(n, at, task, prices, budgets, quanta), bounds=bounds
    )
    if not ctx.pipelined or out.kind != OutcomeKind.OPTIMAL:
        return out, budgets, False
    sensing_width = math.ceil(out.decision.gen.b_ws - 1e-9)
    cap = max(1.0, budgets.freq_cells - sensing_width)
    if cap >= budgets.cons_bandwidth:
        return out, budgets, False
    capped = replace(budgets, cons_freq_cells=cap)
    if max(out.decision.comm_down.b, out.decision.comm_up.b) <= cap:
        return out, capped, False
    n_max = mtv(at, task, capped, quanta)
    if n > n_max:  # the re-solve would be Infeasible
        return out, budgets, True
    capped_bounds = (n_max, mutv(at, task, prices, capped, quanta))
    out2 = schedule_with_policy(
        policy, SolveInput(n, at, task, prices, capped, quanta), bounds=capped_bounds
    )
    if out2.kind != OutcomeKind.OPTIMAL:
        return out, budgets, True
    return out2, capped, False


def _curve_fn(ctx, at, task, budgets, bounds):
    """A client's cost function for its `CostCurve`: n -> (cost, segment)
    of the policy solve, infinite where no schedule carries n.  Segments
    only where `_policy_solve` vouches for them: not under `comm`, nor
    under `width` where time costs less than WIDTH_TIME_PRICE."""
    objective = POLICIES[ctx.policy].schedule
    segmented = objective != "comm" and (objective != "width" or ctx.prices.time >= WIDTH_TIME_PRICE)

    def cost_fn(n):
        out, _, fell_back = _policy_solve(ctx, n, at, task, budgets, bounds)
        if out.kind != OutcomeKind.OPTIMAL:
            return math.inf, None
        return out.cost, (n > bounds[1], fell_back) if segmented else None

    return cost_fn


def run(config: ExperimentConfig) -> RunRecord:
    """Execute the configured simulation; deterministic in (config, seed)."""
    record = RunRecord(config_hash=config_hash(config), seed=config.seed)
    sc = config.scenario
    # the scenario's arrays first: numpy sizes a huge fleet at once and fails fast
    state = make_scenario(
        seed=config.seed,
        n_clients=sc["n_clients"],
        n_targets=sc["n_targets"],
        n_classes=sc["n_classes"],
        area_m=sc["area_m"],
        max_speed=sc["max_speed_mps"],
    )
    buffers = pair_buffers(state)
    ids = tuple(f"c{i:03d}" for i in range(sc["n_clients"]))
    ctx = _RunContext(
        config, config.policy, config.prices(), config.quanta(), config.scaled_cells(),
        config.mode != "serial", ids, {cid: i for i, cid in enumerate(ids)},
    )
    step_seeds = np.random.SeedSequence(config.seed).generate_state(max(config.rounds, 1) + 1)
    prev_cons: dict[str, ScheduleDecision] = {}
    cumulative_gain = 0.0

    for r in range(1, config.rounds + 1):
        state = step_mobility(state, int(step_seeds[r - 1]), dt=ctx.cells[0] * ctx.quanta.time_s)
        if config.output["trajectories"]:
            record.trajectory_rows += _trajectory_rows(state, ctx.client_ids, r)
        budgets, fleet = _scenario_and_quotes(ctx, state, buffers, prev_cons)
        floor, ceiling = _round_targets(config.market, cumulative_gain)
        shortfall = _select_and_allocate(ctx, fleet, budgets, floor, ceiling)
        _solve_and_quantize(ctx, fleet.entries)
        _place_round(ctx, record, r, fleet.entries, prev_cons, int(budgets.time_cells))
        gain, prev_cons = _settle(ctx, record, r, fleet, budgets, floor, shortfall)
        cumulative_gain += gain

    # trailing window for the last round's transfer chain, as long as the
    # slowest of them: no sensing shares it
    if ctx.pipelined and config.rounds >= 1:
        t_delta = cycle_length([int(d.consumption_time) for d in prev_cons.values()], ctx.cells[0])
        _place_round(ctx, record, config.rounds + 1, {}, prev_cons, t_delta)
    if config.rounds:
        record.cr_count = rounds_to_complete(config.rounds, config.mode)

    record.audit_violations += validate_summary_rows(record.summary_rows)
    return record


def _round_targets(market: dict, cumulative_gain: float) -> tuple[float, float]:
    floor = market["gain_floor"]
    ceiling = floor + market["gain_window"]
    if market["gain_target_mode"] == "cumulative":
        floor = max(0.0, floor - cumulative_gain)
        ceiling = ceiling - cumulative_gain
    return floor, ceiling


def _trajectory_rows(state, client_ids, r):
    rows = []
    for i, cid in enumerate(client_ids):
        rows.append(
            {
                "round": r, "id": cid, "kind": "client",
                "x": float(state.client_pos[i, 0]), "y": float(state.client_pos[i, 1]),
                "class": -1,
            }
        )
    for j in range(state.n_targets):
        rows.append(
            {
                "round": r, "id": f"t{j:03d}", "kind": "target",
                "x": float(state.target_pos[j, 0]), "y": float(state.target_pos[j, 1]),
                "class": int(state.target_class[j]),
            }
        )
    return rows


def _scenario_and_quotes(ctx, state, buffers, prev_cons) -> tuple[Budgets, _Fleet]:
    """The round's budgets, and a quote for every client (`_quote_fleet`).
    The round's sensing pairs are found in `buffers`, the run's
    `pair_buffers`; `prev_cons` are the chains last round handed on.

    The budgets' time is the round's window, the cycle: the last window's
    critical path, the chains due now plus the sensing spans that just ran,
    or the whole window when none is due (a serial run hands none on).
    """
    config, quanta = ctx.config, ctx.quanta
    t_cells, b_cells, f_cells = ctx.cells
    durations = [int(d.consumption_time) for d in prev_cons.values()] + [
        int(d.gen.t_vs) for d in prev_cons.values()
    ]
    t_delta = cycle_length(durations, t_cells)
    budgets = Budgets(float(t_delta), float(b_cells), float(f_cells))

    geometry, channel, profile = config.geometry(), config.channel(), config.profile()
    pairs = sensing_pairs(state, geometry, buffers)
    global_dist = global_label_distribution(state, pairs, profile.mode)
    status = status_attributes(state, pairs, geometry, channel, profile, quanta)
    gains, wc = server_gains(state, channel), channel.sensitivity_wc_dbm
    down = spectral_efficiency(gains, channel.tx_power_server_dbm, wc, channel, quanta)
    up = spectral_efficiency(gains, channel.tx_power_client_dbm, wc, channel, quanta)
    return budgets, _quote_fleet(ctx, budgets, status, down, up, global_dist, prev_cons)


def _quote_fleet(ctx, budgets, status, eff_down, eff_up, global_dist, prev_cons) -> _Fleet:
    """The round's `_Fleet`: a quote for every client whose mtv is at least
    1, with capacity bounds, gain rate (`gain_factor` times its quality,
    which only the `qod` column keeps) and, under the market's policies, a
    lazy cost curve, from `status`, the round's `status_attributes`.  A
    saturating policy's quotes carry no curve, as its allocation and
    settlement never read one, so no round state is built here; a curve
    reads its client's, so every quoted client's is, in client order.

    A client sharing its window with last round's transfer chain quotes
    with the sensing bandwidth already reduced by that chain's peak, so the
    market never allocates a workload the spectrum cannot host: it
    overrides its entry of the band column.

    The bounds and qualities come from one batched pass over the fleet:
    `fleet_bounds` gives the mtv and mutv columns, and one `qod` call over
    the (clients x classes) label matrix the quality of every client whose
    row is not 0, that is, that senses a target; the others' quality is 0.
    Both are bitwise equal to calling `mtv`, `mutv` and `qod` client by
    client, as their docstrings argue: numpy's `+ - * /`, `sqrt` and
    comparisons round as Python's float ops do, the squares stay libm
    `pow`, Python's `min` and `max` keep their first argument on ties and
    nan, and `qod` sums each row as it sums a 1-D pair.  `fleet_bounds`
    takes no mutv where the mtv is below 1, as the per-client loop did not,
    so the quotes, and what raises, are the per-client loop's.
    """
    config = ctx.config
    a, b, n_visual, n_wireless, label_dists = status
    band = np.full(len(a), budgets.gen_bandwidth, dtype=float)
    narrowed = {}
    for cid, prev in prev_cons.items():
        peak = max(prev.comm_down.b, prev.comm_up.b)
        if peak > 0:
            bg = narrowed[cid] = replace(budgets, gen_freq_cells=max(0.0, budgets.freq_cells - peak))
            band[ctx.positions[cid]] = bg.gen_bandwidth
    caps, n_uncs = fleet_bounds(
        a, b, band, eff_down, eff_up,
        config.task_for(1.0, 1.0),  # the sizes: the efficiencies are per client
        ctx.prices, budgets, ctx.quanta,
    )
    size = len(caps)
    quality = [0.0] * size
    if global_dist is not None:  # else no client senses a target
        sensed = label_dists.any(axis=1)
        quality = np.where(sensed, qod(label_dists, global_dist), 0.0).tolist()

    columns = {"qod": [0.0] * size, "gain_rate": [0.0] * size, "mtv": [-1] * size,
               "mutv": [-1] * size, "note": ["no feasible workload"] * size}
    fleet = _Fleet(
        budgets, narrowed, (a.tolist(), b.tolist(), n_visual.tolist(), n_wireless.tolist()),
        eff_down.tolist(), eff_up.tolist(), {}, columns, {},
    )
    qods, rates, mtvs, mutvs, notes = columns.values()
    saturate = POLICIES[ctx.policy].saturate
    gain_factor = config.market["gain_factor"]
    for i, cid, cap, n_unc, q in zip(count(), ctx.client_ids, caps, n_uncs, quality):
        if cap < 1:
            continue
        # every workload is 1 <= n <= cap_i, so the solves compare it with
        # the quote's ints as they would with the pair
        cap_i = int(min(cap, QUOTE_CAP))
        n_unc = int(n_unc) if math.isfinite(n_unc) else cap_i
        qods[i], rates[i], mtvs[i], mutvs[i], notes[i] = q, gain_factor * q, cap_i, n_unc, ""
        if saturate:
            fleet.quotes[cid] = ClientQuote(cid, cap_i, n_unc, rates[i], None)
            continue
        c = _entry(ctx, fleet, cid)
        curve = CostCurve(_curve_fn(ctx, c.attrs, c.task, c.budgets, (cap_i, n_unc)), cap_i)
        c.quote = fleet.quotes[cid] = ClientQuote(cid, cap_i, n_unc, rates[i], curve)
    return fleet


def _selection_metrics(quoted, budgets, quanta) -> dict[str, SelectionMetrics]:
    caps = sorted(c.quote.mtv for c in quoted)
    n_ref = max(1, caps[len(caps) // 2] if caps else 1)
    metrics = {}
    for c in quoted:
        at, task = c.attrs, c.task
        cell_bits = quanta.time_s * quanta.freq_hz
        comm = 0.0
        for bits, eff in ((task.d_down_bits, task.eff_down), (task.d_up_bits, task.eff_up)):
            if bits > 0:
                comm += bits / (eff * cell_bits * budgets.freq_cells) if eff > 0 else math.inf
        comp = (
            n_ref * task.cycles_per_sample
            / (quanta.compute_cycles_per_s * quanta.time_s * budgets.compute_cells)
        )
        rate = at.a + at.b * budgets.gen_bandwidth
        sense = n_ref / rate if rate > 0 else math.inf
        metrics[c.cid] = SelectionMetrics(
            comm_latency=comm,
            comp_latency=comp,
            sensing_latency=sense,
            sensed_targets=at.n_visual_targets + at.n_wireless_targets,
            peak_sample_rate=rate,
        )
    return metrics


def _select_and_allocate(ctx, fleet, budgets, floor, ceiling) -> bool:
    """Set the workloads toward the gain window [floor, ceiling), each on
    its client's round state, which a saturating policy builds here.
    Returns True when the market cannot reach the floor and the saturated
    fallback allocates instead."""
    spec = POLICIES[ctx.policy]
    market = ctx.config.market
    quotes = list(fleet.quotes.values())
    if spec.rank is not None:
        quoted = [_entry(ctx, fleet, cid) for cid in fleet.quotes]
        metrics = _selection_metrics(quoted, budgets, ctx.quanta)
        k = min(market["max_active_clients"], len(quotes))
        chosen = set(select_clients(ctx.policy, quotes, metrics, k))
        quotes = [q for q in quotes if q.client_id in chosen]

    shortfall = False
    if ceiling <= 0:  # cumulative target already met in earlier rounds
        workloads: dict[str, int] = {}
    elif spec.saturate:
        workloads = saturated_load(quotes, ceiling, market["max_active_clients"])
    else:
        alloc_quotes = quotes
        if spec.mean_rate and quotes:
            mean_rate = sum(q.gain_rate for q in quotes) / len(quotes)
            alloc_quotes = [replace(q, gain_rate=mean_rate) for q in quotes]
        try:
            allocation, _ = allocate_workloads(
                alloc_quotes, ctx.prices, floor, ceiling - floor,
                market["max_active_clients"], market["alpha"], market["beta"],
            )
            workloads = dict(allocation.workloads)
        except GainShortfallError:
            shortfall = True
            workloads = saturated_load(quotes, ceiling, market["max_active_clients"])

    # in client order, not `saturated_load`'s grant order: the entries built
    # here stay in client order
    for cid in sorted(workloads, key=ctx.positions.__getitem__):
        _entry(ctx, fleet, cid).n = workloads[cid]
    return shortfall


def _solve_and_quantize(ctx, clients) -> None:
    """A whole-cell schedule for every client holding a workload: the policy
    solve (with the spectrum-split cap when pipelined), then realization in
    whole cells.  A realization that fails under the cap is retried at full
    grid width."""
    for cid in sorted(clients):
        c = clients[cid]
        if c.n <= 0:
            continue
        bounds = c.quote.mtv, c.quote.mutv
        out, used, _ = _policy_solve(ctx, c.n, c.attrs, c.task, c.budgets, bounds)
        if out.kind != OutcomeKind.OPTIMAL:
            c.drop("workload infeasible at solve time")
            continue
        for grid in (used,) if used is c.budgets else (used, c.budgets):
            c.quantized = realize_with_policy(
                ctx.policy, SolveInput(c.n, c.attrs, c.task, ctx.prices, grid, ctx.quanta)
            )
            if c.quantized is not None:
                break
        else:
            c.drop("no integral schedule fits the window")


def _place_round(ctx, record, r, clients, carried, t_delta) -> None:
    """Place window `r` of `t_delta` cells: the `carried` chains beside the
    sensing of the clients with a workload, whose chains a serial run then
    places in a window of their own.  A client that does not fit is dropped;
    the trailing window (chains alone, as long as the longest) drops none."""
    generation = {cid: c.quantized for cid, c in clients.items() if c.n > 0}
    windows = [(carried, generation)]
    if not ctx.pipelined:
        windows.append((generation, {}))
    for chains, sensing in windows:
        pools = {cid: new_pool(*ctx.cells) for cid in sorted(set(chains) | set(sensing))}
        plan = plan_round(r, pools, chains, sensing, t_delta)
        record.timeline_rows += plan.placements
        for cid, reason in plan.dropped.items():
            c = clients.get(cid)  # a carried chain's client may have no entry
            if c is not None and c.n > 0:
                c.drop(reason)


def _settle(ctx, record, r, fleet, budgets, floor, shortfall):
    """Pay for what actually fit, at the quantized schedules' costs, and
    record the round.  Returns the round's gain and the transfer chains the
    next window carries: none when serial, as `_place_round` ran them."""
    prices, market = ctx.prices, ctx.config.market
    active = {cid: c for cid, c in fleet.entries.items() if c.n > 0}
    costs = {cid: c.quantized.cost(prices) for cid, c in active.items()}
    if not POLICIES[ctx.policy].saturate:
        for cid in sorted(active):
            if loses(active[cid].n, costs[cid], prices):
                active.pop(cid).drop("unprofitable after quantization")
                del costs[cid]
    # the report reads the quotes of the clients with a workload alone
    report = build_report(
        {cid: c.quote for cid, c in active.items()}, {cid: c.n for cid, c in active.items()},
        costs, prices, market["alpha"], market["beta"],
    )

    gain = report.gain
    record.summary_rows.append(
        {
            "round": r,
            "gain": gain,
            "app_payment": report.app_payment,
            "payments_total": report.payments_total,
            "costs_total": report.costs_total,
            "server_profit": report.server_profit,
            "client_profits_total": report.payments_total - report.costs_total,
            "welfare": report.welfare,
            "active_count": len(active),
            "t_delta_cells": int(budgets.time_cells),
            "shortfall": shortfall or gain < floor - 1e-9,
        }
    )
    size = len(ctx.client_ids)
    n, payment, cost, profit = [0] * size, [0.0] * size, [0.0] * size, [0.0] * size
    note = fleet.columns["note"]
    for cid, c in fleet.entries.items():
        i = ctx.positions[cid]
        n[i], note[i] = c.n, c.note
    for cid in active:
        i = ctx.positions[cid]
        payment[i] = report.client_payments[cid]
        cost[i] = report.client_costs[cid]
        profit[i] = report.client_profits[cid]
    record.client_columns.append({
        "round": [r] * size, "client": list(ctx.client_ids), "n": n, "payment": payment,
        "cost": cost, "profit": profit, **fleet.columns,
    })
    return gain, {cid: c.quantized for cid, c in active.items()} if ctx.pipelined else {}


def sweep(config: ExperimentConfig, axis: str, values: list) -> tuple[list[RunRecord], list[dict]]:
    """One run per value of a dotted config path, shared seed; returns the
    records plus merged per-round summary rows keyed by the swept value."""
    records = []
    merged = []
    *parents, leaf = axis.split(".")
    for value in values:
        override = {leaf: value}
        for part in reversed(parents):
            override = {part: override}
        rec = run(load_config(config.raw, override))
        records.append(rec)
        for row in rec.summary_rows:
            merged.append({"swept_value": value, **row})
    return records, merged
