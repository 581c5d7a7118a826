"""Burstable instances (t2/t3 family) — the BurScale alternative (§2).

BurScale provisions *standby burstable VMs* to absorb transient overload
while regular VMs boot. A burstable instance runs at full speed while it
holds CPU credits and collapses to a baseline fraction when they run
out; credits accrue while the instance idles below baseline. The paper
positions this as complementary to SplitServe — burstables still pay the
~2 minute provisioning delay when procured fresh, and standby ones cost
money around the clock; the credit mechanics are what
``bench_ablation_burstable.py`` explores.

Specs follow the 2020 t2 family: credits are measured in vCPU-minutes
(one credit = one vCPU at 100 % for one minute); we store them as
full-speed CPU-seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.cloud.constants import GB, MBPS
from repro.cloud.vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.instance_types import InstanceType
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams
    from repro.simulation.tracing import TraceRecorder


@dataclass(frozen=True)
class BurstableSpec:
    """Credit mechanics of one burstable type."""

    baseline_fraction: float  # per-vCPU sustained fraction
    launch_credits: int  # initial CPU credits (vCPU-minutes)
    earn_credits_per_hour: float  # accrual rate while idle
    max_credits: int  # accrual cap

    def __post_init__(self) -> None:
        if not 0 < self.baseline_fraction <= 1:
            raise ValueError("baseline_fraction must be in (0, 1]")


def _t2(name, vcpus, mem_gib, net_mbps, price, baseline, launch, earn, cap):
    from repro.cloud.instance_types import InstanceType

    itype = InstanceType(
        name=name, vcpus=vcpus, memory_bytes=int(mem_gib * GB),
        ebs_bandwidth_bytes_per_s=500 * MBPS,
        network_bandwidth_bytes_per_s=net_mbps * MBPS,
        price_per_hour=price)
    spec = BurstableSpec(baseline_fraction=baseline, launch_credits=launch,
                         earn_credits_per_hour=earn, max_credits=cap)
    return itype, spec


#: The t2 types BurScale-style standby pools use (2020 us-east-1).
BURSTABLE_CATALOGUE: Dict[str, tuple] = {
    "t2.medium": _t2("t2.medium", 2, 4, 300, 0.0464, 0.20, 60, 24, 576),
    "t2.large": _t2("t2.large", 2, 8, 300, 0.0928, 0.30, 60, 36, 864),
    "t2.xlarge": _t2("t2.xlarge", 4, 16, 500, 0.1856, 0.225, 120, 54, 1296),
}


class BurstableVM(VirtualMachine):
    """A t2-style VM with a CPU-credit balance.

    :meth:`consume_cpu` converts full-speed CPU-seconds of demand into
    wall-clock time: full speed while credits last, the baseline fraction
    after. Executors on burstable hosts route their compute through it.
    """

    def __init__(self, env: "Environment", name: str, itype: "InstanceType",
                 spec: BurstableSpec, rng: "RandomStreams",
                 trace: Optional["TraceRecorder"] = None,
                 boot_delay_s: Optional[float] = None,
                 already_running: bool = False,
                 initial_credits: Optional[float] = None) -> None:
        super().__init__(env, name, itype, rng, trace=trace,
                         boot_delay_s=boot_delay_s,
                         already_running=already_running)
        self.spec = spec
        credits = (initial_credits if initial_credits is not None
                   else spec.launch_credits)
        #: Balance in full-speed CPU-seconds (1 credit = 60 s).
        self._credit_seconds = float(credits) * 60.0
        self._last_accrual = env.now

    @classmethod
    def launch(cls, env: "Environment", name: str, type_name: str,
               rng: "RandomStreams", **kwargs) -> "BurstableVM":
        try:
            itype, spec = BURSTABLE_CATALOGUE[type_name]
        except KeyError:
            known = ", ".join(sorted(BURSTABLE_CATALOGUE))
            raise KeyError(f"unknown burstable type {type_name!r}; "
                           f"known: {known}") from None
        return cls(env, name, itype, spec, rng, **kwargs)

    # ------------------------------------------------------------------

    @property
    def credit_seconds(self) -> float:
        """Current balance in full-speed CPU-seconds."""
        self._accrue()
        return self._credit_seconds

    @property
    def credits(self) -> float:
        """Current balance in vCPU-minutes (AWS's unit)."""
        return self.credit_seconds / 60.0

    def _accrue(self) -> None:
        """Earn credits for idle time since the last accounting moment.

        A deliberately favourable model: we accrue at the full earn rate
        whenever the instance is up, which overstates a busy instance's
        credits — the BurScale comparison stays conservative *against*
        SplitServe."""
        now = self.env.now
        elapsed = max(0.0, now - self._last_accrual)
        self._last_accrual = now
        if not self.is_running or elapsed == 0:
            return
        earned = self.spec.earn_credits_per_hour * 60.0 * (elapsed / 3600.0)
        cap = self.spec.max_credits * 60.0
        self._credit_seconds = min(cap, self._credit_seconds + earned)

    def consume_cpu(self, cpu_seconds: float) -> float:
        """Burn ``cpu_seconds`` of full-speed demand; returns wall time.

        Full speed while the balance lasts; the remainder limps at the
        baseline fraction (and nets out baseline-rate earning)."""
        if cpu_seconds < 0:
            raise ValueError(f"cpu_seconds must be non-negative, got {cpu_seconds}")
        self._accrue()
        if self._credit_seconds >= cpu_seconds:
            self._credit_seconds -= cpu_seconds
            return cpu_seconds
        burst = self._credit_seconds
        self._credit_seconds = 0.0
        remainder = cpu_seconds - burst
        throttled = remainder / self.spec.baseline_fraction
        return burst + throttled
