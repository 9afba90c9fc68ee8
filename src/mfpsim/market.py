"""Service market: payments, profits, social welfare, workload allocation.

The platform buys learning gain from an application at a posted unit price and
pays clients a posted price per delivered sample; clients carry their own
resource costs.  Workloads are assigned by a greedy marginal-welfare auction:
one sample at a time to whichever client currently adds the most weighted
welfare, driving the aggregate gain into the requested target window.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .costs import PriceVector
from .errors import GainShortfallError

_TOL = 1e-9


class CostCurve:
    """Lazily sampled minimum-cost curve c(n), n = 0..mtv, with memoization."""

    def __init__(self, cost_fn, mtv: int):
        self._fn = cost_fn
        self.mtv = int(mtv)
        self._cache: dict[int, float] = {0: 0.0}

    def cost(self, n: int) -> float:
        if not 0 <= n <= self.mtv:
            raise ValueError(f"workload {n} outside [0, {self.mtv}]")
        if n not in self._cache:
            self._cache[n] = float(self._fn(n))
        return self._cache[n]

    def marginal(self, n: int) -> float:
        """Cost of the (n+1)-th sample."""
        return self.cost(n + 1) - self.cost(n)


@dataclass(frozen=True)
class ClientQuote:
    """One client's offer for the round: data quality, capacity bounds,
    min-cost curve, and the gain each of its samples contributes."""

    client_id: str
    qod: float
    mtv: int
    mutv: int
    gain_rate: float
    curve: CostCurve

    def __post_init__(self):
        if self.mtv < 0:
            raise ValueError("quotes require a nonnegative capacity")


@dataclass(frozen=True)
class Allocation:
    workloads: dict[str, int]

    @property
    def total_samples(self) -> int:
        return sum(self.workloads.values())


@dataclass(frozen=True)
class WelfareReport:
    gain: float
    app_payment: float
    client_payments: dict[str, float]
    client_costs: dict[str, float]
    client_profits: dict[str, float]
    server_profit: float
    welfare: float
    alpha: float
    beta: float

    def audit(self) -> list[str]:
        """Bookkeeping identities and rationality; returns violated rule names."""
        bad = []
        if abs(self.server_profit - (self.app_payment - sum(self.client_payments.values()))) > 1e-6:
            bad.append("server_profit_identity")
        for cid, pay in self.client_payments.items():
            expect = pay - self.client_costs[cid]
            if abs(self.client_profits[cid] - expect) > 1e-6:
                bad.append(f"client_profit_identity:{cid}")
        expect_welfare = self.alpha * self.server_profit + self.beta * sum(
            self.client_profits.values()
        )
        if abs(self.welfare - expect_welfare) > 1e-6:
            bad.append("welfare_identity")
        if self.server_profit < -_TOL:
            bad.append("server_rationality")
        for cid, profit in self.client_profits.items():
            if profit < -_TOL:
                bad.append(f"client_rationality:{cid}")
        return bad


def app_payment(gain: float, price_gain: float) -> float:
    """What the application pays the platform for one round's learning gain."""
    if gain < 0:
        raise ValueError("gain must be nonnegative")
    return price_gain * gain


def client_payment(n_samples: int, price_sample: float) -> float:
    """What the platform pays a client for its delivered samples."""
    if n_samples < 0:
        raise ValueError("sample count must be nonnegative")
    return price_sample * n_samples


def social_welfare(server_profit: float, client_profit_sum: float, alpha: float, beta: float) -> float:
    if alpha < 0 or beta < 0:
        raise ValueError("welfare weights must be nonnegative")
    return alpha * server_profit + beta * client_profit_sum


def build_report(
    quotes: dict[str, ClientQuote],
    workloads: dict[str, int],
    costs: dict[str, float],
    prices: PriceVector,
    alpha: float,
    beta: float,
) -> WelfareReport:
    """Settle one round: payments, profits and welfare of `workloads`.

    `costs` holds the resource cost of each client with a nonzero workload:
    its curve cost while the market allocates, its quantized schedule's cost
    at settlement.  Welfare takes the clients' side as total payment minus
    total cost.
    """
    gain = sum(quotes[cid].gain_rate * n for cid, n in workloads.items())
    payments = {cid: client_payment(n, prices.sample) for cid, n in workloads.items() if n > 0}
    profits = {cid: payments[cid] - costs[cid] for cid in payments}
    p_app = app_payment(gain, prices.gain)
    paid = sum(payments.values())
    server = p_app - paid
    return WelfareReport(
        gain=gain,
        app_payment=p_app,
        client_payments=payments,
        client_costs=costs,
        client_profits=profits,
        server_profit=server,
        welfare=social_welfare(server, paid - sum(costs.values()), alpha, beta),
        alpha=alpha,
        beta=beta,
    )


def _marginal_welfare(quote: ClientQuote, n: int, prices: PriceVector, alpha: float, beta: float) -> float:
    return alpha * (prices.gain * quote.gain_rate - prices.sample) + beta * (
        prices.sample - quote.curve.marginal(n)
    )


def _block_polish(quotes, load, prices, gain_floor, ceiling, max_active, alpha, beta, excluded):
    """Coordinate-ascent improvement over whole client loads.

    Per-round schedule costs carry a fixed activation part (the model must
    move regardless of volume), so a client's welfare contribution
    v*N - beta*c(N) is maximized at an endpoint: zero or the largest load the
    gain window leaves room for.  Unit-by-unit granting cannot see past the
    activation cost; this pass re-optimizes one client at a time, holding the
    others, until no single-client move helps.
    """
    by_id = {q.client_id: q for q in quotes}
    gain = sum(by_id[cid].gain_rate * n for cid, n in load.items())

    def contribution(q, n):
        if n == 0:
            return 0.0
        value = alpha * (prices.gain * q.gain_rate - prices.sample) + beta * prices.sample
        return value * n - beta * q.curve.cost(n)

    for _ in range(2 * len(quotes) + 2):
        improved = False
        for q in quotes:
            cid = q.client_id
            if cid in excluded or q.gain_rate <= 0:
                continue
            current = load[cid]
            active_others = sum(1 for k, n in load.items() if n > 0 and k != cid)
            gain_others = gain - q.gain_rate * current
            room = ceiling - gain_others
            hi = int(min(q.mtv, (room - _TOL) // q.gain_rate))
            candidates = {0, current}
            if hi >= 1 and (current > 0 or active_others < max_active):
                candidates.add(hi)
            best_n, best_w = current, contribution(q, current)
            for n in sorted(candidates):
                if n == current:
                    continue
                if gain_others + q.gain_rate * n < gain_floor - _TOL:
                    continue
                if n > 0 and prices.sample * n - q.curve.cost(n) < -_TOL:
                    continue
                w = contribution(q, n)
                if w > best_w + 1e-9:
                    best_n, best_w = n, w
            if best_n != current:
                load[cid] = best_n
                gain = gain_others + q.gain_rate * best_n
                improved = True
        if not improved:
            break
    return load


def saturated_load(
    quotes: list[ClientQuote],
    ceiling: float,
    max_active: int,
    excluded: set[str] | frozenset[str] = frozenset(),
) -> dict[str, int]:
    """Gain-greedy load: the strongest earners (gain rate x capacity, ties by
    id) to capacity, the last one partly, so the gain stays under `ceiling`.

    At most `max_active` clients, none of `excluded`.  Returns the nonzero
    loads in grant order.  An infinite ceiling (`gain_floor + gain_window`
    can overflow) loads every client to capacity.
    """
    load: dict[str, int] = {}
    gain = 0.0
    for q in sorted(quotes, key=lambda q: (-q.gain_rate * q.mtv, q.client_id)):
        if len(load) >= max_active:
            break
        if q.client_id in excluded or q.gain_rate <= 0:
            continue
        n = int(min(q.mtv, (ceiling - gain - _TOL) // q.gain_rate)) if math.isfinite(ceiling) else q.mtv
        if n >= 1:
            load[q.client_id] = n
            gain += q.gain_rate * n
    return load


def allocate_workloads(
    quotes: list[ClientQuote],
    prices: PriceVector,
    gain_floor: float,
    gain_window: float,
    max_active: int,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> tuple[Allocation, WelfareReport]:
    """Greedy marginal-welfare workload assignment with block improvement.

    Samples are granted one at a time to the highest-marginal client until
    the aggregate gain reaches gain_floor, then only while marginals stay
    positive and the gain stays under gain_floor + gain_window.  A
    whole-load coordinate-ascent pass then lifts profitable clients over
    their fixed activation costs (seeded both from the greedy result and from
    a gain-saturated start; the better outcome wins).  Clients that would end
    up with a negative profit are removed and their load re-auctioned.
    Raises GainShortfallError when the floor is unreachable within capacity,
    the cap, the window ceiling, or rationality.

    Each grant goes to the client an id-ordered scan picks: the scan keeps
    the first open client unless a later one beats the current best by more
    than 1e-9.  That tie rule is not a total order, but the scan's pick lies
    within 1e-9 of the largest marginal M (on reaching M's client it either
    takes it or already holds a best >= M - 1e-9, and the best only rises),
    so when every other marginal is below M - 1e-9 it picks M's client
    whatever the id order.  The marginals sit in a max-heap with lazy
    deletion, keyed (-marginal, id rank, load it was computed at); an entry
    goes when its client has been granted since or has closed, and within a
    pass a client closes for good, since loads, the open-client count and the
    gain only grow.  A grant takes the heap top when it clears the runner-up
    by more than 1e-9 and runs the scan otherwise (for the rest of the pass
    once a marginal is NaN, which orders nothing).  A client's marginal
    depends only on its own load, so it is computed once per load, for the
    clients and at the grants where a scan alone would compute it, and the
    open-client count is a running counter: a greedy pass costs
    O(grants + clients) curve lookups.

    A rationality pass does not rerun the greedy from scratch.  The previous
    pass's grants are kept in order, with the first grant at which each
    client led: became the scan's running best, or was a heap grant's pick.
    Excluding clients that never led leaves every grant's pick unchanged: a
    scan's pick never depended on them, and a heap pick stays clear of the
    clients that remain.  So the next pass replays the grants before the
    earliest one any excluded client led (all of them when none did) and
    resumes from there.  Replaying the same grants in the same order rebuilds
    the same loads, open count and gain, the gain by the same float
    additions in the same order.
    """
    if gain_window <= 0:
        raise ValueError("gain window must be positive")
    if max_active < 1:
        raise ValueError("need at least one admissible client")
    quotes = sorted(quotes, key=lambda q: q.client_id)
    by_id = {q.client_id: q for q in quotes}
    ceiling = gain_floor + gain_window
    excluded: set[str] = set()

    def max_achievable(blocked: set[str]) -> float:
        rates = sorted(
            (q.gain_rate * q.mtv for q in quotes if q.client_id not in blocked and q.mtv > 0),
            reverse=True,
        )
        return sum(rates[:max_active])

    def report_of(load: dict[str, int]) -> WelfareReport:
        costs = {cid: by_id[cid].curve.cost(n) for cid, n in load.items() if n > 0}
        return build_report(by_id, load, costs, prices, alpha, beta)

    picks: list[str] = []  # the greedy's grants, in order
    first_led: dict[str, int] = {}  # grant (index into picks) a client first led
    for _ in range(len(quotes) + 1):
        load = {q.client_id: 0 for q in quotes}
        gain = 0.0
        opened = 0
        bidders = [q for q in quotes if q.client_id not in excluded and q.gain_rate > 0]
        rank = {q.client_id: i for i, q in enumerate(bidders)}
        # marginal welfare of each open client's next sample at its current
        # load; only a grant changes a load, so a client is priced again only
        # at the first grant after its own
        marginal: dict[str, float] = {}
        unpriced = set(range(len(bidders)))  # ranks whose marginal is due
        heap: list[tuple[float, int, int]] = []  # (-marginal, rank, load)
        ordered = True  # False once a NaN marginal has broken the heap order

        def closed(q) -> bool:
            n = load[q.client_id]
            return (
                n >= q.mtv
                or (n == 0 and opened >= max_active)
                or gain + q.gain_rate >= ceiling - _TOL
            )

        def heap_top(require_positive: bool):
            while heap:
                neg, i, n = heap[0]
                q = bidders[i]
                if n == load[q.client_id] and not closed(q) and not (
                    require_positive and -neg <= _TOL
                ):
                    return heap[0]
                heapq.heappop(heap)
            return None

        def grantable(require_positive: bool):
            nonlocal ordered
            step = len(picks)
            for i in sorted(unpriced):
                q = bidders[i]
                if not closed(q):
                    n = load[q.client_id]
                    delta = marginal[q.client_id] = _marginal_welfare(q, n, prices, alpha, beta)
                    ordered = ordered and delta == delta
                    heapq.heappush(heap, (-delta, i, n))
            unpriced.clear()
            if ordered:
                top = heap_top(require_positive)
                if top is None:
                    return None
                heapq.heappop(heap)
                runner_up = heap_top(require_positive)
                if runner_up is None or -top[0] > -runner_up[0] + _TOL:
                    cid = bidders[top[1]].client_id
                    first_led.setdefault(cid, step)
                    return -top[0], cid
                heapq.heappush(heap, top)
            best = None
            for q in bidders:
                if closed(q):
                    continue
                delta = marginal[q.client_id]
                if require_positive and delta <= _TOL:
                    continue
                if best is None or delta > best[0] + _TOL:
                    best = (delta, q.client_id)
                    first_led.setdefault(q.client_id, step)
            return best

        def grant(cid: str) -> None:
            nonlocal gain, opened
            if load[cid] == 0:
                opened += 1
            load[cid] += 1
            gain += by_id[cid].gain_rate
            unpriced.add(rank[cid])

        for cid in picks:
            grant(cid)
        while gain < gain_floor - _TOL:
            pick = grantable(require_positive=False)
            if pick is None:
                reason = (
                    "gain step overshoots the window"
                    if max_achievable(excluded) + _TOL >= gain_floor
                    else "capacity exhausted"
                )
                raise GainShortfallError(reason, max_achievable(excluded))
            picks.append(pick[1])
            grant(pick[1])
        while (pick := grantable(require_positive=True)) is not None:
            picks.append(pick[1])
            grant(pick[1])

        load = _block_polish(
            quotes, load, prices, gain_floor, ceiling, max_active, alpha, beta, excluded
        )
        report = report_of(load)
        alt = {q.client_id: 0 for q in quotes} | saturated_load(
            quotes, ceiling, max_active, excluded
        )
        if sum(by_id[c].gain_rate * n for c, n in alt.items()) >= gain_floor - _TOL:
            alt = _block_polish(
                quotes, alt, prices, gain_floor, ceiling, max_active, alpha, beta, excluded
            )
            alt_report = report_of(alt)
            if alt_report.welfare > report.welfare + _TOL:
                load, report = alt, alt_report

        losers = sorted(cid for cid, p in report.client_profits.items() if p < -_TOL)
        if not losers:
            if report.server_profit < -_TOL:
                raise GainShortfallError("server rationality", max_achievable(excluded))
            workloads = {cid: n for cid, n in load.items() if n > 0}
            allocation = Allocation(workloads=workloads)
            return allocation, report
        excluded.update(losers)
        keep = min((first_led[c] for c in losers if c in first_led), default=len(picks))
        del picks[keep:]
        first_led = {c: s for c, s in first_led.items() if s < keep}
    raise GainShortfallError("rationality loop failed to settle", max_achievable(excluded))
