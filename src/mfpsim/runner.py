"""Seeded multi-round simulation loop and result records.

`run()` builds one frozen per-run context and runs each round as five
stages over it:

- scenario and quotes: the scenario steps, the window's cycle is fixed, and
  each client's state becomes a quote (capacity bounds, quality, min-cost
  curve under the active policy);
- selection and allocation: workloads toward the gain target;
- solve and quantize: the winners' schedules, in whole cells;
- placement: into the shared per-window pools, next to the previous round's
  transfer chain when pipelined;
- settlement: payments on what actually fit, and the round's rows.

The stages call the engine through this module's globals, which is where
the benchmark's tracer wraps them.  Output rows are plain dicts so the
CSV/JSONL writers stay trivial and byte-reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines import (
    POLICIES,
    Policy,
    SelectionMetrics,
    realize_with_policy,
    schedule_with_policy,
    select_clients,
)
from .config import ExperimentConfig, config_hash, load_config
from .costs import PriceVector, ScheduleDecision
from .errors import GainShortfallError
from .market import ClientQuote, CostCurve, allocate_workloads, build_report, saturated_load
from .resource_pool import ResourceQuanta, new_pool
from .rounds import cycle_length, plan_round, rounds_to_complete
from .scenario import (
    global_label_distribution,
    make_scenario,
    spectral_efficiency,
    status_attributes,
    step_mobility,
    target_distances,
)
from .sensing import qod
from .solver import (
    Budgets,
    OutcomeKind,
    SolveInput,
    mtv,
    mutv,
)

SUMMARY_COLUMNS = [
    "round",
    "gain",
    "app_payment",
    "payments_total",
    "costs_total",
    "server_profit",
    "client_profits_total",
    "welfare",
    "active_count",
    "t_delta_cells",
    "shortfall",
]

TIMELINE_COLUMNS = ["round", "client", "process", "start_cell", "end_cell", "b_cells", "f_cells"]

TRAJECTORY_COLUMNS = ["round", "id", "kind", "x", "y", "class"]


@dataclass
class RunRecord:
    """Everything one simulation produced, reproducible byte-for-byte."""

    config: dict
    config_hash: str
    seed: int
    summary_rows: list[dict] = field(default_factory=list)
    client_rows: list[dict] = field(default_factory=list)
    timeline_rows: list[dict] = field(default_factory=list)
    trajectory_rows: list[dict] = field(default_factory=list)
    audit_violations: list[str] = field(default_factory=list)
    cr_count: int = 0

    def summary_csv(self) -> str:
        return _csv_text(SUMMARY_COLUMNS, self.summary_rows)

    def timeline_csv(self) -> str:
        return _csv_text(TIMELINE_COLUMNS, self.timeline_rows)

    def trajectories_csv(self) -> str:
        return _csv_text(TRAJECTORY_COLUMNS, self.trajectory_rows)

    def clients_jsonl(self) -> str:
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in self.client_rows)

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
            "summary.csv": self.summary_csv(),
            "clients.jsonl": self.clients_jsonl(),
            "timeline.csv": self.timeline_csv(),
            "run.json": self.run_json(),
        }
        if self.trajectory_rows:
            out["trajectories.csv"] = self.trajectories_csv()
        return out

    def write(self, outdir: str | Path) -> list[Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, text in self.output_texts().items():
            path = outdir / name
            path.write_text(text)
            written.append(path)
        return written

    @property
    def total_welfare(self) -> float:
        return sum(r["welfare"] for r in self.summary_rows)

    @property
    def total_gain(self) -> float:
        return sum(r["gain"] for r in self.summary_rows)


def _csv_text(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row[k]) for k in columns})
    return buf.getvalue()


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return int(value)
    return value


def validate_summary_rows(rows: list[dict]) -> list[str]:
    """Re-check the bookkeeping identities on loaded/emitted summary rows."""
    bad = []
    for row in rows:
        if abs(row["server_profit"] - (row["app_payment"] - row["payments_total"])) > 1e-6:
            bad.append(f"round{row['round']}:server_profit_identity")
        if (
            abs(
                row["client_profits_total"]
                - (row["payments_total"] - row["costs_total"])
            )
            > 1e-6
        ):
            bad.append(f"round{row['round']}:client_profit_identity")
    return bad


def load_summary_csv(text: str) -> list[dict]:
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        rows.append(
            {
                "round": int(raw["round"]),
                "gain": float(raw["gain"]),
                "app_payment": float(raw["app_payment"]),
                "payments_total": float(raw["payments_total"]),
                "costs_total": float(raw["costs_total"]),
                "server_profit": float(raw["server_profit"]),
                "client_profits_total": float(raw["client_profits_total"]),
                "welfare": float(raw["welfare"]),
                "active_count": int(raw["active_count"]),
                "t_delta_cells": int(raw["t_delta_cells"]),
                "shortfall": bool(int(raw["shortfall"])),
            }
        )
    return rows


@dataclass
class _ClientRound:
    """Working state for one client inside one round."""

    cid: str
    attrs: object
    quote: ClientQuote | None
    task: object
    budgets: Budgets
    n: int = 0
    bounds: tuple[float, float] | None = None  # (mtv, mutv) under `budgets`
    quantized: ScheduleDecision | None = None
    note: str = ""

    def drop(self, note: str) -> None:
        """Take the client out of the round, saying why."""
        self.note = note
        self.n = 0
        self.quantized = None


@dataclass(frozen=True)
class _RunContext:
    """What every stage of one run reads; fixed for the whole run."""

    config: ExperimentConfig
    policy: Policy
    prices: PriceVector
    quanta: ResourceQuanta
    cells: tuple[int, int, int]  # (time, freq, compute) pool cells after scaling
    pipelined: bool
    client_ids: tuple[str, ...]


def _policy_solve(ctx, n, at, task, budgets, bounds=None):
    """Policy solve with the spectrum split internalized.

    In pipelined mode a client's transfer chain shares its window with the
    client's sensing of the following round, so after the plain solve the
    transfers are re-solved with their bandwidth capped beside the sensing
    block.  When the plain solve's transfer widths already fit under the cap,
    the re-solve is skipped: the plain optimum is feasible under the tighter
    box, and the problem is convex, so a box that does not bind leaves the
    optimum unchanged.  The capped budgets are still returned, because the
    integer realization works against them.  When the capped chain cannot
    carry the workload, the uncapped schedule stands.  `bounds` is (mtv, mutv)
    under `budgets`; it does not hold under the capped budgets.  Returns
    (outcome, budgets_used).
    """
    policy, prices, quanta = ctx.policy, ctx.prices, ctx.quanta
    out = schedule_with_policy(
        policy, SolveInput(n, at, task, prices, budgets, quanta), bounds=bounds
    )
    if not ctx.pipelined or out.kind != OutcomeKind.OPTIMAL or out.decision is None:
        return out, budgets
    sensing_width = math.ceil(out.decision.gen.b_ws - 1e-9)
    if sensing_width <= 0:
        return out, budgets
    cap = max(1.0, budgets.freq_cells - sensing_width)
    if cap >= budgets.cons_bandwidth:
        return out, budgets
    capped = replace(budgets, cons_freq_cells=cap)
    if max(out.decision.comm_down.b, out.decision.comm_up.b) <= cap:
        return out, capped
    out2 = schedule_with_policy(policy, SolveInput(n, at, task, prices, capped, quanta))
    if out2.kind != OutcomeKind.OPTIMAL:
        return out, budgets
    return out2, capped


def run(config: ExperimentConfig) -> RunRecord:
    """Execute the configured simulation; deterministic in (config, seed)."""
    record = RunRecord(config=config.raw, config_hash=config_hash(config), seed=config.seed)
    sc = config.scenario
    ctx = _RunContext(
        config, config.policy, config.prices(), config.quanta(), config.scaled_cells(),
        config.mode != "serial", tuple(f"c{i:03d}" for i in range(sc["n_clients"])),
    )
    state = make_scenario(
        seed=config.seed,
        n_clients=sc["n_clients"],
        n_targets=sc["n_targets"],
        n_classes=sc["n_classes"],
        area_m=sc["area_m"],
        max_speed=sc["max_speed_mps"],
    )
    step_seeds = np.random.SeedSequence(config.seed).generate_state(max(config.rounds, 1) + 1)
    prev_cons: dict[str, ScheduleDecision] = {}
    cumulative_gain = 0.0

    for r in range(1, config.rounds + 1):
        state = step_mobility(state, int(step_seeds[r - 1]), dt=ctx.cells[0] * ctx.quanta.time_s)
        if config.output["trajectories"]:
            record.trajectory_rows += _trajectory_rows(state, ctx.client_ids, r)
        budgets, clients = _scenario_and_quotes(ctx, state, prev_cons)
        floor, ceiling = _round_targets(config.market, cumulative_gain)
        shortfall = _select_and_allocate(ctx, clients, budgets, floor, ceiling)
        _solve_and_quantize(ctx, clients)
        _place_round(ctx, record, r, clients, prev_cons, budgets)
        gain, prev_cons = _settle(ctx, record, r, clients, budgets, floor, shortfall)
        cumulative_gain += gain

    # trailing window for the last round's transfer chain
    if ctx.pipelined and config.rounds >= 1:
        pools = {cid: new_pool(*ctx.cells) for cid in prev_cons}
        plan = plan_round(config.rounds + 1, ctx.cells[0], pools, prev_cons, {})
        record.timeline_rows += plan.timeline_rows()
        record.audit_violations += plan.audit_violations
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


def _scenario_and_quotes(ctx, state, prev_cons) -> tuple[Budgets, dict[str, _ClientRound]]:
    """The round's budgets, and a quote for every client: capacity bounds,
    quality and a lazy cost curve.

    Pipelined, the cycle is the last window's critical path (the transfer
    chains due now plus the sensing spans that just ran), and a client
    sharing its window with last round's transfer chain quotes with the
    sensing bandwidth already reduced by that chain's peak, so the market
    never allocates a workload the spectrum cannot host.
    """
    config, quanta = ctx.config, ctx.quanta
    t_cells, b_cells, f_cells = ctx.cells
    durations = [int(d.consumption_time) for d in prev_cons.values()] + [
        int(d.gen.t_vs) for d in prev_cons.values()
    ]
    t_delta = cycle_length(durations, t_cells) if ctx.pipelined else t_cells
    budgets = Budgets(float(t_cells), float(b_cells), float(f_cells), cycle_cells=float(t_delta))

    geometry, channel, profile = config.geometry(), config.channel(), config.profile()
    distances = target_distances(state)
    global_dist = global_label_distribution(state, distances, geometry, profile.mode)
    clients: dict[str, _ClientRound] = {}
    for i, cid in enumerate(ctx.client_ids):
        at = status_attributes(state, distances[i], geometry, channel, profile, quanta)
        dist = float(np.linalg.norm(state.client_pos[i] - state.server_pos))
        dist = max(dist, 1.0)
        eff_down = spectral_efficiency(
            dist, channel.tx_power_server_dbm, channel.sensitivity_wc_dbm, channel, quanta
        )
        eff_up = spectral_efficiency(
            dist, channel.tx_power_client_dbm, channel.sensitivity_wc_dbm, channel, quanta
        )
        task = config.task_for(eff_down, eff_up)
        my_budgets = budgets
        prev = prev_cons.get(cid) if ctx.pipelined else None
        if prev is not None:
            peak = max(prev.comm_down.b, prev.comm_up.b)
            if peak > 0:
                my_budgets = replace(budgets, gen_freq_cells=max(0.0, budgets.freq_cells - peak))
        cap = mtv(at, task, my_budgets, quanta)
        entry = _ClientRound(cid=cid, attrs=at, quote=None, task=task, budgets=my_budgets)
        clients[cid] = entry
        if cap < 1:
            entry.note = "no feasible workload"
            continue
        q = 0.0
        if at.label_dist is not None and global_dist is not None:
            q = max(0.0, qod(at.label_dist, global_dist))
        n_unc = mutv(at, task, ctx.prices, my_budgets, quanta)
        entry.bounds = (cap, n_unc)
        cap_i = int(min(cap, 10**7))

        def cost_fn(n, _at=at, _task=task, _budgets=my_budgets, _bounds=entry.bounds):
            out, _ = _policy_solve(ctx, n, _at, _task, _budgets, _bounds)
            if out.kind != OutcomeKind.OPTIMAL:
                return math.inf
            return out.cost

        entry.quote = ClientQuote(
            client_id=cid,
            qod=q,
            mtv=cap_i,
            mutv=int(n_unc) if math.isfinite(n_unc) else cap_i,
            gain_rate=config.market["gain_factor"] * q,
            curve=CostCurve(cost_fn, cap_i),
        )
    return budgets, clients


def _selection_metrics(clients, budgets, quanta) -> dict[str, SelectionMetrics]:
    quoted = [c for c in clients.values() if c.quote is not None]
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


def _select_and_allocate(ctx, clients, budgets, floor, ceiling) -> bool:
    """Set every client's workload toward the gain window [floor, ceiling).
    Returns True when the market cannot reach the floor and the saturated
    fallback allocates instead."""
    spec = POLICIES[ctx.policy]
    market = ctx.config.market
    quotes = [c.quote for c in clients.values() if c.quote is not None]
    if spec.rank is not None:
        metrics = _selection_metrics(clients, budgets, ctx.quanta)
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
            alloc_quotes = [
                ClientQuote(q.client_id, q.qod, q.mtv, q.mutv, mean_rate, q.curve)
                for q in quotes
            ]
        try:
            allocation, _ = allocate_workloads(
                alloc_quotes, ctx.prices, floor, ceiling - floor,
                market["max_active_clients"], market["alpha"], market["beta"],
            )
            workloads = dict(allocation.workloads)
        except GainShortfallError:
            shortfall = True
            workloads = saturated_load(quotes, ceiling, market["max_active_clients"])

    for cid, n in workloads.items():
        clients[cid].n = n
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
        out, used = _policy_solve(ctx, c.n, c.attrs, c.task, c.budgets, c.bounds)
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


def _place_round(ctx, record, r, clients, prev_cons, budgets) -> None:
    """Reserve this round's sensing next to the previous chain (pipelined) or
    in separate windows (serial); a client whose sensing or chain does not
    fit is dropped."""
    generation = {cid: c.quantized for cid, c in clients.items() if c.n > 0}
    chains = prev_cons if ctx.pipelined else {}
    pools = {cid: new_pool(*ctx.cells) for cid in sorted(set(chains) | set(generation))}
    t_cells, t_delta = ctx.cells[0], int(budgets.t_budget)
    plans = [plan_round(r, t_cells, pools, chains, generation, t_delta=t_delta)]
    if not ctx.pipelined:  # the chains run in a window of their own
        cons = {cid: c.quantized for cid, c in clients.items() if c.n > 0 and c.quantized}
        cons_pools = {cid: new_pool(*ctx.cells) for cid in sorted(cons)}
        plans.append(plan_round(r, t_cells, cons_pools, cons, {}, t_delta=t_delta))

    for plan in plans:
        record.timeline_rows += plan.timeline_rows()
        record.audit_violations += plan.audit_violations
        for cid, reason in plan.dropped.items():
            if clients[cid].n > 0:
                clients[cid].drop(reason)


def _settle(ctx, record, r, clients, budgets, floor, shortfall):
    """Pay for what actually fit, at the quantized schedules' costs, and
    record the round.  Returns the round's gain and the transfer chains that
    run in the next window."""
    prices, market = ctx.prices, ctx.config.market
    active = {cid: c for cid, c in clients.items() if c.n > 0 and c.quantized is not None}
    costs = {cid: c.quantized.cost(prices) for cid, c in active.items()}
    if not POLICIES[ctx.policy].saturate:
        for cid in sorted(active):
            if prices.sample * active[cid].n - costs[cid] < -1e-9:
                active.pop(cid).drop("unprofitable after quantization")
                del costs[cid]
    by_id = {c.quote.client_id: c.quote for c in clients.values() if c.quote}
    report = build_report(
        by_id, {cid: c.n for cid, c in active.items()}, costs, prices,
        market["alpha"], market["beta"],
    )

    gain = report.gain
    payments_total = sum(report.client_payments.values())
    costs_total = sum(report.client_costs.values())
    record.summary_rows.append(
        {
            "round": r,
            "gain": gain,
            "app_payment": report.app_payment,
            "payments_total": payments_total,
            "costs_total": costs_total,
            "server_profit": report.server_profit,
            "client_profits_total": payments_total - costs_total,
            "welfare": report.welfare,
            "active_count": len(active),
            "t_delta_cells": int(budgets.cycle_cells),
            "shortfall": shortfall or gain < floor - 1e-9,
        }
    )
    for cid in ctx.client_ids:
        c = clients[cid]
        record.client_rows.append(
            {
                "round": r,
                "client": cid,
                "n": c.n,
                "qod": c.quote.qod if c.quote else 0.0,
                "gain_rate": c.quote.gain_rate if c.quote else 0.0,
                "payment": report.client_payments.get(cid, 0.0),
                "cost": report.client_costs.get(cid, 0.0),
                "profit": report.client_profits.get(cid, 0.0),
                "mtv": c.quote.mtv if c.quote else -1,
                "mutv": c.quote.mutv if c.quote else -1,
                "note": c.note,
            }
        )
    return gain, {cid: c.quantized for cid, c in active.items()}


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
