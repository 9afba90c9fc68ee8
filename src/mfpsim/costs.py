"""Resource cost functions and their unconstrained closed-form minimizers.

All schedules are expressed in grid cells.  A sensing schedule produces
n = a*x + b*z*y samples from x visual time cells, y wireless frequency cells
and z <= x wireless time cells; only x and y are billed because wireless
sensing shares the visual window.  Transfers obey bits = t * b * eff * scaling
and compute obeys cycles = t * f * rate * scaling, so each sub-process trades
time against width along a hyperbola and the cheapest point balances the two
unit prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InfeasibleError, LinkUnusableError
from .resource_pool import ResourceQuanta
from .scenario import StatusAttributes


@dataclass(slots=True)
class PriceVector:
    """Unit prices: time cell, frequency cell, compute cell, data sample, unit gain."""

    time: float = 1.0
    freq: float = 1.0
    compute: float = 1.0
    sample: float = 1.0
    gain: float = 1.0

    def __post_init__(self):
        if min(self.time, self.freq, self.compute, self.sample, self.gain) <= 0:
            raise ValueError("all prices must be strictly positive")


def over_product(num: float, b: float, factor: float) -> float:
    """num / (b * factor) for a wireless coefficient b > 0.

    When the product underflows to 0 (a subnormal b such as 5e-324 times a
    price below 1/2), the quotient is taken in two steps: it may overflow
    to inf, the value of a useless wireless link, but it never raises
    ZeroDivisionError.  A product that does not underflow gives the
    one-step quotient, so results for normal b are unchanged.
    """
    prod = b * factor
    return num / prod if prod else num / factor / b


@dataclass(slots=True)
class GenSchedule:
    """Sensing allocation: visual time, wireless bandwidth, wireless time (cells)."""

    t_vs: float = 0.0
    b_ws: float = 0.0
    t_ws: float = 0.0

    def __post_init__(self):
        if min(self.t_vs, self.b_ws, self.t_ws) < 0:
            raise ValueError("sensing cells must be nonnegative")
        if self.t_ws > self.t_vs + 1e-9:
            raise ValueError("wireless sensing time cannot exceed visual time")


@dataclass(slots=True)
class TransferSchedule:
    """Model transfer allocation: time cells x frequency cells."""

    t: float = 0.0
    b: float = 0.0


@dataclass(slots=True)
class ComputeSchedule:
    """Training allocation: time cells x compute-rate cells."""

    t: float = 0.0
    f: float = 0.0


@dataclass(slots=True)
class ScheduleDecision:
    """Full per-round schedule: sensing in one round, the download/compute/upload
    chain in the next."""

    gen: GenSchedule = field(default_factory=GenSchedule)
    comm_down: TransferSchedule = field(default_factory=TransferSchedule)
    comp: ComputeSchedule = field(default_factory=ComputeSchedule)
    comm_up: TransferSchedule = field(default_factory=TransferSchedule)

    @property
    def time_cells(self) -> float:
        return self.gen.t_vs + self.comm_down.t + self.comp.t + self.comm_up.t

    @property
    def freq_cells(self) -> float:
        return self.gen.b_ws + self.comm_down.b + self.comm_up.b

    @property
    def compute_cells(self) -> float:
        return self.comp.f

    @property
    def consumption_time(self) -> float:
        """Duration of the download -> compute -> upload chain."""
        return self.comm_down.t + self.comp.t + self.comm_up.t

    def cost_components(self, prices: PriceVector) -> tuple[float, float, float]:
        return (
            prices.time * self.time_cells,
            prices.freq * self.freq_cells,
            prices.compute * self.compute_cells,
        )

    def cost(self, prices: PriceVector) -> float:
        return sum(self.cost_components(prices))


@dataclass(slots=True)
class ConsumptionTask:
    """Fixed per-round transfer/training load: model bits each way, compute
    cycles per sample, and the spectral efficiencies of the two links."""

    d_down_bits: float = 0.0
    d_up_bits: float = 0.0
    cycles_per_sample: float = 0.0
    eff_down: float = 1.0
    eff_up: float = 1.0

    def __post_init__(self):
        if min(self.d_down_bits, self.d_up_bits, self.cycles_per_sample) < 0:
            raise ValueError("task sizes must be nonnegative")


def gen_cost(gen: GenSchedule, prices: PriceVector) -> float:
    """Billed sensing cost: visual time plus wireless bandwidth (wireless time
    shares the visual window and is free)."""
    return gen.t_vs * prices.time + gen.b_ws * prices.freq


def unconstrained_gen_schedule(
    n: float, attrs: StatusAttributes, prices: PriceVector
) -> tuple[GenSchedule, float]:
    """Cheapest sensing schedule producing n samples with unlimited cells.

    With both modalities the optimum balances time against bandwidth at
    x = sqrt(n*freq_price / (b*time_price)); when that would require negative
    bandwidth (small n) the pure-visual schedule x = n/a takes over.
    """
    if n < 0:
        raise ValueError("workload must be nonnegative")
    if n == 0:
        return GenSchedule(), 0.0
    a, b = attrs.a, attrs.b
    if a <= 0 and b <= 0:
        raise InfeasibleError("client has zero sensing capability but nonzero workload")
    if b > 0:
        x0 = math.sqrt(over_product(n * prices.freq, b, prices.time))
        y0 = (math.sqrt(n * b * prices.time / prices.freq) - a) / b
        if y0 >= 0:
            sched = GenSchedule(x0, y0, x0)
            return sched, gen_cost(sched, prices)
    sched = GenSchedule(n / a, 0.0, 0.0)
    return sched, gen_cost(sched, prices)


def unconstrained_comm_schedule(
    bits: float, eff: float, prices: PriceVector, quanta: ResourceQuanta = ResourceQuanta()
) -> tuple[TransferSchedule, float]:
    """Cheapest (time, bandwidth) pair moving `bits` at spectral efficiency `eff`."""
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    if bits == 0:
        return TransferSchedule(), 0.0
    if eff <= 0:
        raise LinkUnusableError("spectral efficiency must be positive to transfer data")
    vol = bits / (eff * quanta.time_s * quanta.freq_hz)
    t = math.sqrt(vol * prices.freq / prices.time)
    b = math.sqrt(vol * prices.time / prices.freq)
    return TransferSchedule(t, b), t * prices.time + b * prices.freq


def unconstrained_comp_schedule(
    cycles: float, prices: PriceVector, quanta: ResourceQuanta = ResourceQuanta()
) -> tuple[ComputeSchedule, float]:
    """Cheapest (time, compute-rate) pair executing `cycles`."""
    if cycles < 0:
        raise ValueError("cycles must be nonnegative")
    if cycles == 0:
        return ComputeSchedule(), 0.0
    vol = cycles / (quanta.compute_cycles_per_s * quanta.time_s)
    t = math.sqrt(vol * prices.compute / prices.time)
    f = math.sqrt(vol * prices.time / prices.compute)
    return ComputeSchedule(t, f), t * prices.time + f * prices.compute

