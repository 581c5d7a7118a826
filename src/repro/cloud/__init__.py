"""Cloud substrate: simulated IaaS VMs, FaaS functions, network, billing.

This package models exactly the AWS properties the SplitServe evaluation
depends on:

- EC2 m4-family instances with per-type vCPU/memory/dedicated-EBS
  bandwidth, a ~2 minute provisioning delay, and per-second billing with a
  60 s minimum charge (:mod:`repro.cloud.vm`,
  :mod:`repro.cloud.instance_types`, :mod:`repro.cloud.pricing`).
- Lambda-style cloud functions with 1 vCPU per 1.5 GB, warm/cold start
  paths, a 15 minute lifetime cap, memory-proportional network
  bandwidth, and 100 ms-granularity GB-second billing
  (:mod:`repro.cloud.lambda_fn`; the 512 MB /tmp limit is not
  modelled).
- Fair-share bandwidth links used for both EBS and network contention
  (:mod:`repro.cloud.network`).
- A :class:`~repro.cloud.provisioner.CloudProvider` facade that owns the
  warm pool, the fleet, and the billing meter. It alone bills a Lambda
  container: once, invocation → stop, when its function returns
  (``LambdaInstance.finish()``) or the provider reaps it.
"""

from repro.cloud.burstable import BURSTABLE_CATALOGUE, BurstableSpec, BurstableVM
from repro.cloud.instance_types import (
    INSTANCE_CATALOGUE,
    InstanceType,
    fewest_instances_for_cores,
    instance_type,
)
from repro.cloud.lambda_fn import LambdaConfig, LambdaInstance, LambdaState
from repro.cloud.network import FairShareLink
from repro.cloud.pricing import BillingMeter, LambdaPricing, VMPricing
from repro.cloud.provisioner import CloudProvider
from repro.cloud.spot import SpotVM
from repro.cloud.vm import VirtualMachine, VMState

__all__ = [
    "BURSTABLE_CATALOGUE",
    "BillingMeter",
    "BurstableSpec",
    "BurstableVM",
    "CloudProvider",
    "FairShareLink",
    "INSTANCE_CATALOGUE",
    "InstanceType",
    "LambdaConfig",
    "LambdaInstance",
    "LambdaPricing",
    "LambdaState",
    "SpotVM",
    "VMPricing",
    "VMState",
    "VirtualMachine",
    "fewest_instances_for_cores",
    "instance_type",
]
