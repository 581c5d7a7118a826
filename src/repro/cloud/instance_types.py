"""The EC2 instance-type catalogue used by the paper (m4 family).

Specs are the 2020 us-east-1 values: vCPUs, memory, *dedicated* EBS
bandwidth (the paper leans on this: the m4.xlarge hosting HDFS gets
750 Mbps while m4.4xlarge workers get 2,000 Mbps), and on-demand price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cloud.constants import GB, MBPS


@dataclass(frozen=True)
class InstanceType:
    """Immutable spec of one VM type."""

    name: str
    vcpus: int
    memory_bytes: int
    ebs_bandwidth_bytes_per_s: float
    network_bandwidth_bytes_per_s: float
    price_per_hour: float

    @property
    def price_per_vcpu_hour(self) -> float:
        """Hourly price of a single core — Figure 1's VM curve uses this."""
        return self.price_per_hour / self.vcpus

    def __str__(self) -> str:
        return self.name


def _m4(name: str, vcpus: int, mem_gib: int, ebs_mbps: float,
        net_mbps: float, price: float) -> InstanceType:
    return InstanceType(
        name=name,
        vcpus=vcpus,
        memory_bytes=int(mem_gib * GB),
        ebs_bandwidth_bytes_per_s=ebs_mbps * MBPS,
        network_bandwidth_bytes_per_s=net_mbps * MBPS,
        price_per_hour=price,
    )


#: The m4 family (2020 us-east-1 on-demand). Network bandwidth figures are
#: the sustained rates AWS documented for the family ("moderate"/"high"
#: tiers mapped to measured throughput).
INSTANCE_CATALOGUE: Dict[str, InstanceType] = {
    t.name: t
    for t in [
        _m4("m4.large", 2, 8, 450, 450, 0.10),
        _m4("m4.xlarge", 4, 16, 750, 750, 0.20),
        _m4("m4.2xlarge", 8, 32, 1000, 1000, 0.40),
        _m4("m4.4xlarge", 16, 64, 2000, 2000, 0.80),
        _m4("m4.10xlarge", 40, 160, 4000, 10000, 2.00),
        _m4("m4.16xlarge", 64, 256, 10000, 25000, 3.20),
    ]
}

#: Paper §5.1: "we use the fewest number of instances that provide the
#: required number of cores": m4.large, m4.xlarge, m4.2xlarge, m4.4xlarge,
#: m4.8xlarge*, m4.16xlarge, 2x m4.16xlarge for 1-2/4/8/16/32/64/128.
#: (*m4.8xlarge does not exist in the 2020 catalogue; the paper's list is
#: approximate — we map 32 cores to m4.10xlarge, the smallest m4 with
#: >= 32 vCPUs, and note the substitution in EXPERIMENTS.md.)
_PROFILING_LADDER = [
    (2, "m4.large"),
    (4, "m4.xlarge"),
    (8, "m4.2xlarge"),
    (16, "m4.4xlarge"),
    (40, "m4.10xlarge"),
    (64, "m4.16xlarge"),
]


def instance_type(name: str) -> InstanceType:
    """Look up a type by name, with a helpful error on typos."""
    try:
        return INSTANCE_CATALOGUE[name]
    except KeyError:
        known = ", ".join(sorted(INSTANCE_CATALOGUE))
        raise KeyError(f"unknown instance type {name!r}; known: {known}") from None


def fewest_instances_for_cores(cores: int) -> List[InstanceType]:
    """Pick the fewest m4 instances that together provide ``cores`` vCPUs.

    Mirrors the paper's profiling methodology (§5.1): prefer one instance
    that covers the whole requirement; for requirements beyond the largest
    type, take as many m4.16xlarge as needed plus a minimal remainder.
    """
    if cores <= 0:
        raise ValueError(f"cores must be positive, got {cores}")
    for capacity, name in _PROFILING_LADDER:
        if cores <= capacity:
            return [INSTANCE_CATALOGUE[name]]
    largest = INSTANCE_CATALOGUE["m4.16xlarge"]
    result = []
    remaining = cores
    while remaining > largest.vcpus:
        result.append(largest)
        remaining -= largest.vcpus
    result.extend(fewest_instances_for_cores(remaining))
    return result
