"""Service market: payments, profits, social welfare, workload allocation.

The platform buys learning gain from an application at a posted unit price and
pays clients a posted price per delivered sample; clients carry their own
resource costs.  Workloads are assigned by a greedy marginal-welfare auction:
each sample goes to whichever client currently adds the most weighted
welfare, driving the aggregate gain into the requested target window.  A
client that leads clearly keeps the grant without a new scan: a run of
samples at once when one probe of its cost curve certifies that the
sample-by-sample greedy would have granted it every one of them, each run
sized from the cost rise its certificate can still accept, and one sample
at a time while it still leads.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, repeat

from .costs import PriceVector
from .errors import GainShortfallError

_TOL = 1e-9
# largest streak batch: bounds the gains one probe holds
_CHUNK = 4096
# relative amount by which a computed cost curve may dip (CostCurve's
# contract): far above the solver's tie windows and tolerance boxes, far
# below the welfare leads a streak grant needs
_DIP_SLACK = 1e-7

_log = logging.getLogger(__name__)


class CostCurve:
    """Lazily sampled minimum-cost curve c(n), n = 0..mtv, with memoization.

    `cost_fn(n)` returns the pair (c(n), segment).  The market's
    streak grants assume this contract: c does not decrease, but for the
    slack,

        c(i) <= c(j) + _DIP_SLACK * (1 + |c(j)|)   for i < j, c(j) finite,

    over each segment: the workloads whose cost came with one segment value
    other than None, which must form one interval.  A schedule for j samples
    shrinks to one for i < j, so an exact minimum-cost curve keeps the
    contract; the slack covers the tie windows and tolerance boxes by which
    a computed minimum can miss the exact one, and segments cut the curve
    where the caller cannot vouch for that argument.  The segment None
    vouches for nothing, and no streak is granted there.
    """

    def __init__(self, cost_fn, mtv: int):
        self._fn = cost_fn
        self.mtv = int(mtv)
        self._cache: dict[int, float] = {0: 0.0}
        self._segments: dict[int, object] = {}

    def cost(self, n: int) -> float:
        if not 0 <= n <= self.mtv:
            raise ValueError(f"workload {n} outside [0, {self.mtv}]")
        if n not in self._cache:
            cost, self._segments[n] = self._fn(n)
            self._cache[n] = float(cost)
        return self._cache[n]

    def in_segment(self, n: int) -> bool:
        """Whether the contract covers the sampled workload n: its cost
        came with a segment."""
        return self._segments.get(n) is not None

    def rise_bound(self, n: int, m: int) -> float | None:
        """A float no smaller than any computed marginal c(j+1) - c(j),
        n <= j < m, from c(n) and one probe of c(m); None when the contract
        does not cover [n, m]: a cost that is not finite, or n and m in
        different segments (or in none).

        With A = 1 + |c(n)| + |c(m)| and e = _DIP_SLACK, the contract gives
        c(j+1) <= c(m) + e*(1 + |c(m)|) and c(j) >= c(n) - e*(1 + |c(j)|),
        and the two together keep |c(j)| <= (1 + 2e)*A.  So every exact
        c(j+1) - c(j) is at most c(m) - c(n) + (3 + 2e)*e*A.  The bound adds
        4*e*A: the surplus, about e*A = 1e-7*A, dwarfs the few ulps of A by
        which the three rounded operations can fall short.  Rounding is
        monotone, so the computed marginal, the rounded exact difference,
        is no larger than that float.
        """
        lo, hi = self.cost(n), self.cost(m)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return None
        seg = self._segments
        if seg.get(n) is None or seg.get(n) != seg.get(m):
            return None
        return (hi - lo) + 4 * _DIP_SLACK * (1 + abs(lo) + abs(hi))


@dataclass(slots=True)
class ClientQuote:
    """One client's offer for the round: capacity bounds, min-cost curve,
    and the gain each of its samples contributes (its data quality, the
    `qod` column of clients.jsonl, enters only through that rate).

    `curve` is None under a saturating policy: `saturated_load` loads by gain
    rate and capacity, and settlement pays the quantized schedules, so no
    stage reads a curve, and the market's allocation, which does, never
    sees such a quote.
    """

    client_id: str
    mtv: int
    mutv: int
    gain_rate: float
    curve: CostCurve | None

    def __post_init__(self):
        if self.mtv < 0:
            raise ValueError("quotes require a nonnegative capacity")


@dataclass(slots=True)
class Allocation:
    workloads: dict[str, int]

    @property
    def total_samples(self) -> int:
        return sum(self.workloads.values())


@dataclass(slots=True)
class WelfareReport:
    gain: float
    app_payment: float
    client_payments: dict[str, float]
    client_costs: dict[str, float]
    client_profits: dict[str, float]
    server_profit: float
    welfare: float
    # the sums of client_payments and client_costs, in their order
    payments_total: float
    costs_total: float


def loses(n: int, cost: float, prices: PriceVector) -> bool:
    """Client rationality: whether `n` samples at resource cost `cost` leave
    their client at a loss, beyond the tolerance.  The allocation's polish
    and rationality pass and the settlement of the quantized schedules all
    apply this one rule."""
    return prices.sample * n - cost < -_TOL


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
    at settlement.  The application pays `prices.gain` per unit of gain,
    each client earns `prices.sample` per sample, and welfare weighs the
    platform's profit by `alpha` and the clients' side, total payment minus
    total cost, by `beta`.
    """
    gain = sum(quotes[cid].gain_rate * n for cid, n in workloads.items())
    payments = {cid: prices.sample * n for cid, n in workloads.items() if n > 0}
    profits = {cid: payments[cid] - costs[cid] for cid in payments}
    p_app = prices.gain * gain
    paid, spent = sum(payments.values()), sum(costs.values())
    server = p_app - paid
    return WelfareReport(
        gain=gain,
        app_payment=p_app,
        client_payments=payments,
        client_costs=costs,
        client_profits=profits,
        server_profit=server,
        welfare=alpha * server + beta * (paid - spent),
        payments_total=paid,
        costs_total=spent,
    )


def _welfare_of(quote: ClientQuote, marginal_cost: float, prices: PriceVector, alpha: float, beta: float) -> float:
    """Weighted welfare of one more sample at the given marginal cost.
    Rounded `-`, `*` by a weight >= 0 and `+` are monotone, so a larger
    marginal cost never gives a larger value."""
    return alpha * (prices.gain * quote.gain_rate - prices.sample) + beta * (
        prices.sample - marginal_cost
    )


def _span(gain: float, rate: float, size: int, ceiling: float, floor: float):
    """Where up to `size` more grants of `rate` > 0 from `gain` cross the
    thresholds: (steps, floor_at, gain after steps, gain after floor_at).

    With G[0] = `gain` and G[j+1] = G[j] + rate, `steps` is the number of
    grants before the first G[j] >= `ceiling` (j >= 1), at most `size`, and
    `floor_at` the first j < steps with G[j] >= `floor` (None when there is
    none; the gain after it None too).  `accumulate` applies the same float
    additions in the same order as `gain += rate` one grant at a time, and
    the gains never decrease (rate > 0 and rounding is monotone), so each
    bisection finds the first crossing.
    """
    gains = list(accumulate(repeat(rate, size), initial=gain))
    end = bisect_left(gains, ceiling, 1) - 1
    i = bisect_left(gains, floor, 0, end)
    return (end, i, gains[end], gains[i]) if i < end else (end, None, gains[end], None)


def _block_polish(
    quotes, load, prices, gain_floor, ceiling, max_active, alpha, beta, excluded, side
):
    """Coordinate-ascent improvement over whole client loads.

    Per-round schedule costs carry a fixed activation part (the model must
    move regardless of volume), so a client's welfare contribution
    v*N - beta*c(N) is maximized at an endpoint: zero or the largest load the
    gain window leaves room for.  Unit-by-unit granting cannot see past the
    activation cost; this pass re-optimizes one client at a time, holding the
    others, until no single-client move helps.  `side` names the start
    ("greedy" or "saturated") in each move's DEBUG line.
    """
    by_id = {q.client_id: q for q in quotes}
    gain = sum(by_id[cid].gain_rate * n for cid, n in load.items())

    def contribution(q, n):
        if n == 0:
            return 0.0
        return _welfare_of(q, 0.0, prices, alpha, beta) * n - beta * q.curve.cost(n)

    active = sum(1 for n in load.values() if n > 0)
    for _ in range(2 * len(quotes) + 2):
        improved = False
        for q in quotes:
            cid = q.client_id
            if cid in excluded or q.gain_rate <= 0:
                continue
            current = load[cid]
            active_others = active - (current > 0)
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
                if n > 0 and loses(n, q.curve.cost(n), prices):
                    continue
                w = contribution(q, n)
                if w > best_w + 1e-9:
                    best_n, best_w = n, w
            if best_n != current:
                _log.debug("%s polish %s from load %d to %d", side, cid, current, best_n)
                load[cid] = best_n
                active += (best_n > 0) - (current > 0)
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

    The greedy grants each sample to the highest-marginal client until the
    aggregate gain reaches gain_floor, then only while marginals stay
    positive and the gain stays under gain_floor + gain_window.  A
    whole-load coordinate-ascent pass then lifts profitable clients over
    their fixed activation costs (seeded both from the greedy result and from
    a gain-saturated start; the better outcome wins).  Clients that would end
    up with a negative profit are removed and their load re-auctioned.
    Raises GainShortfallError when the floor is unreachable within capacity,
    the cap, the window ceiling, or rationality (`loses`).

    Each grant goes to the client an id-ordered scan picks: the scan keeps
    the first open client unless a later one beats the current best by more
    than 1e-9.  That tie rule is not a total order, but the scan's pick lies
    within 1e-9 of the largest marginal M (on reaching M's client it either
    takes it or already holds a best >= M - 1e-9, and the best only rises),
    so when every other marginal is below M - 1e-9 it picks M's client
    whatever the id order.  The scan skips closed clients: within a pass a
    client closes for good, since loads, the open-client count and the gain
    only grow.  A client's marginal depends only on its own load, so it is
    cached with the load it was priced at.
    A pick is clear when no marginal is NaN and it beats every other one by
    more than 1e-9; the scan then also returns the runner-up's marginal.

    Streaks.  After a clear pick the leader keeps the grant without a new
    scan for as long as it stays the clear pick: the other marginals do not
    move, and they can only close, so the runner-up's marginal recorded at
    the pick is never below an open client's.  A streak is one loop.  Where
    the curve vouches for the leader's load n (`CostCurve.in_segment`) and
    a batch of at least two fits, a pass offers k more samples at once, and
    one probe of c(n+k) decides.  Otherwise the pass grants one sample
    while the leader is open and its freshly priced marginal still beats
    the recorded runner-up by more than 1e-9 (and exceeds 1e-9 past the
    floor): that grant is the clear pick a scan would make.
    `CostCurve.rise_bound` turns c(n) and c(n+k) into a float R no smaller
    than any of the leader's computed marginal costs at loads n..n+k-1, and
    `_welfare_of(R)` is then no larger than any of its computed marginal
    welfares there (the same float expression, monotone in the cost).  So
    when that bound beats the runner-up's marginal by more than 1e-9 (any
    finite value does when there is none), every one of the k grants would
    have been a clear pick of the leader; past the floor it must also
    exceed 1e-9, or the batch stops at the floor switch.  A finite bound
    also rules out a NaN marginal in the run.  k is clipped at _CHUNK, and
    where the leader closes: at mtv, and before the grant whose gain would
    reach the ceiling.  `_span` finds that grant and the floor switch with
    the float additions of `gain += gain_rate` one grant at a time, and a
    batch takes its gain from it, so loads, gain and open count are the
    sample-by-sample greedy's, bit for bit.  k comes from the rise budget:
    the room, the largest rise R whose bound still beats the runner-up (and
    0 past the floor), is (`_welfare_of(0)` - runner-up) / beta, and k is
    95% of it over the rise per sample of the last batch probed (at first,
    of the sample just granted); below the floor without a runner-up the
    room is infinite.  After a failed batch k is also at most half that
    batch, and after a probe with no bound it halves; a batch that fails
    at k = 2 leaves the pass to the one-sample grant.  While the load is at
    most the quote's mutv a batch ends there, where the runner's segments
    change, so no probe spans them.  These sizes only choose which
    certified runs are offered, never what certifies, so every grant stays
    one the sample-by-sample greedy makes.  A streak ends, and the next
    grant is a scan's, when the leader closes or no longer leads clearly
    enough, when a probe is infinite, or at the floor switch.  A pick that
    is not clear never starts a streak.  Each streak logs one DEBUG line:
    its samples, its probes and why it stopped.

    A rationality pass does not rerun the greedy from scratch.  The greedy
    remembers its state, (grants so far, gain, the nonzero loads), where a
    scan first makes each client its running best, except that a clear
    scan remembers only its pick (before the pick's grant and streak), and
    once where it ends, before the polish.  Excluding clients it never
    remembered leaves every grant unchanged: a scan that is not clear never
    led with them, and a clear pick beats every other open marginal by more
    than 1e-9, with none NaN, so without them it stays clear, its runner-up
    only lower, and so does each grant of its streak.  So the next pass
    restores the state at which the earliest excluded client was remembered
    (the end state when none was), opens one client per nonzero load,
    forgets the states remembered at or after that grant and resumes, and
    logs one DEBUG line: the clients it excludes and that grant count.  A
    state holds at most max_active loads.
    """
    if gain_window <= 0:
        raise ValueError("gain window must be positive")
    if max_active < 1:
        raise ValueError("need at least one admissible client")
    quotes = sorted(quotes, key=lambda q: q.client_id)
    by_id = {q.client_id: q for q in quotes}
    ceiling = gain_floor + gain_window
    excluded: set[str] = set()

    def report_of(load: dict[str, int]) -> WelfareReport:
        costs = {cid: by_id[cid].curve.cost(n) for cid, n in load.items() if n > 0}
        return build_report(by_id, load, costs, prices, alpha, beta)

    # marginal welfare of each client's next sample, with the load it was
    # priced at: only a grant changes a load
    marginal: dict[str, tuple[int, float]] = {}
    # the greedy's state (grants so far, gain, nonzero loads) where a scan
    # first made each client its running best (only the pick, if clear)
    first_led: dict[str, tuple[int, float, dict[str, int]]] = {}
    resume = (0, 0.0, {})  # the state the next pass starts from
    debug = _log.isEnabledFor(logging.DEBUG)
    for _ in range(len(quotes) + 1):
        granted, gain, held = resume
        load = {q.client_id: 0 for q in quotes} | held
        opened = len(held)
        bidders = [q for q in quotes if q.client_id not in excluded and q.gain_rate > 0]

        def closed(q) -> bool:
            n = load[q.client_id]
            return (
                n >= q.mtv
                or (n == 0 and opened >= max_active)
                or gain + q.gain_rate >= ceiling - _TOL
            )

        def state():
            return granted, gain, {cid: n for cid, n in load.items() if n}

        def priced(q) -> float:
            n = load[q.client_id]
            at, delta = marginal.get(q.client_id, (None, 0.0))
            if at != n:
                # the cost of the (n+1)-th sample
                rise = q.curve.cost(n + 1) - q.curve.cost(n)
                delta = _welfare_of(q, rise, prices, alpha, beta)
                marginal[q.client_id] = (n, delta)
            return delta

        def grantable(require_positive: bool):
            """(marginal, client, runner-up's marginal) of the next grant:
            the runner-up is -inf when there is none and None when the pick
            is not clear; None when no client can take a grant."""
            best, top, second, clear, leaders = None, -math.inf, -math.inf, True, []
            for q in bidders:
                if closed(q):
                    continue
                delta = priced(q)
                if require_positive and delta <= _TOL:
                    continue
                if delta != delta:
                    clear = False
                elif delta > top:
                    top, second = delta, top
                elif delta > second:
                    second = delta
                if best is None or delta > best[0] + _TOL:
                    best = (delta, q.client_id)
                    leaders.append(q.client_id)
            if best is None:
                return None
            delta, cid = best
            rival = second if clear and delta == top and top > second + _TOL else None
            for c in leaders if rival is None else [cid]:
                if c not in first_led:
                    first_led[c] = state()
            if debug:
                _log.debug(
                    "scan grant %s at load %d: marginal welfare %.9g, %s",
                    cid, load[cid], delta, "no clear lead" if rival is None else "clear lead",
                )
            return delta, cid, rival

        def take(cid: str, count: int, after: float) -> None:
            """Grant `count` samples to `cid`, after which the gain is `after`."""
            nonlocal gain, opened, granted
            if load[cid] == 0:
                opened += 1
            load[cid] += count
            gain = after
            granted += count

        def streak(delta: float, cid: str, rival: float) -> None:
            """The grants the leader of a clear pick at marginal welfare
            `delta`, whose runner-up's was `rival`, keeps: each pass a
            certified batch where one fits, else one sample (see above)."""
            q, first, probes = by_id[cid], load[cid], 0
            rate, most = q.gain_rate, _welfare_of(q, 0.0, prices, alpha, beta)

            def fit(bound: float, steps: int, cap: int) -> int:
                """The next batch size, 2 to `cap`: 95% of the room over the
                welfare drop per sample of `steps` samples whose bound was
                `bound` (`cap` when the drop is not positive or is NaN)."""
                room = most - (rival if gain < gain_floor - _TOL else max(rival, 0.0))
                drop = most - bound
                return int(max(2, min(cap, 0.95 * room * steps / drop if drop > 0 else cap)))

            size = fit(delta, 1, _CHUNK)
            while True:
                n = load[cid]
                steps = 0
                if q.curve.in_segment(n):
                    # the runner's segments change past mutv
                    last = q.mtv if n > q.mutv else min(q.mtv, q.mutv)
                    # the leader stays open for `steps` grants, and the floor
                    # switch comes before grant `floor_at` (0: already past it)
                    steps, floor_at, after, at_floor = _span(
                        gain, rate, min(size, last - n), ceiling - _TOL, gain_floor - _TOL
                    )
                if steps >= 2:
                    probes += 1
                    rise = q.curve.rise_bound(n, n + steps)
                    if rise is None and not math.isfinite(q.curve.cost(n + steps)):
                        why = "infinite probe"
                        break
                    bound = math.nan if rise is None else _welfare_of(q, rise, prices, alpha, beta)
                    if math.isfinite(bound) and bound > rival + _TOL:
                        if floor_at is None or bound > _TOL:
                            take(cid, steps, after)
                            size = fit(bound, steps, _CHUNK)
                            continue
                        if floor_at:
                            take(cid, floor_at, at_floor)
                            why = "floor switch"
                            break
                    size = fit(bound, steps, steps // 2)
                    if steps > 2:
                        continue
                if closed(q):
                    why = "capacity" if n >= q.mtv else "ceiling"
                    break
                delta = priced(q)
                if not (delta > rival + _TOL and (gain < gain_floor - _TOL or delta > _TOL)):
                    why = "marginal"
                    break
                take(cid, 1, gain + rate)
            if debug:
                _log.debug(
                    "streak %s from load %d: %d samples, %d probes, stopped at %s",
                    cid, first, load[cid] - first, probes, why,
                )

        while (pick := grantable(require_positive=gain >= gain_floor - _TOL)) is not None:
            take(pick[1], 1, gain + by_id[pick[1]].gain_rate)
            if pick[2] is not None:
                streak(*pick)
        if gain < gain_floor - _TOL:
            raise GainShortfallError("floor out of reach")

        greedy_end = state()
        load = _block_polish(
            quotes, load, prices, gain_floor, ceiling, max_active, alpha, beta, excluded, "greedy"
        )
        report = report_of(load)
        start = saturated_load(quotes, ceiling, max_active, excluded)
        if debug:
            loads = ", ".join(f"{cid} {n}" for cid, n in start.items())
            _log.debug("saturated start: %s", loads or "no load")
        alt = {q.client_id: 0 for q in quotes} | start
        side, rival = "greedy", None  # the losing side's welfare
        if sum(by_id[c].gain_rate * n for c, n in alt.items()) >= gain_floor - _TOL:
            alt = _block_polish(
                quotes, alt, prices, gain_floor, ceiling, max_active, alpha, beta, excluded,
                "saturated",
            )
            alt_report = report_of(alt)
            rival = alt_report.welfare
            if alt_report.welfare > report.welfare + _TOL:
                side, rival = "saturated", report.welfare
                load, report = alt, alt_report
        if debug and rival is None:
            _log.debug("%s side decides: the saturated start misses the floor", side)
        elif debug:
            _log.debug("%s side decides: welfare %r against %r", side, report.welfare, rival)

        losers = sorted(c for c, cost in report.client_costs.items() if loses(load[c], cost, prices))
        if not losers:
            if report.server_profit < -_TOL:
                raise GainShortfallError("server rationality")
            workloads = {cid: n for cid, n in load.items() if n > 0}
            allocation = Allocation(workloads=workloads)
            return allocation, report
        excluded.update(losers)
        led = [first_led[c] for c in losers if c in first_led]
        resume = min(led, key=lambda s: s[0], default=greedy_end)
        if debug:
            _log.debug("rationality pass excludes %s: resumes from grant %d", ", ".join(losers), resume[0])
        first_led = {c: s for c, s in first_led.items() if s[0] < resume[0]}
    raise GainShortfallError("rationality loop failed to settle")
