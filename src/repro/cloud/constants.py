"""Calibrated constants for the cloud substrate.

Single source of truth for every number the simulation borrows from AWS
circa 2020 (the paper's setting). DESIGN.md §4 documents the calibration;
values that the paper states explicitly are cited inline.
"""

# ---------------------------------------------------------------------------
# Unit helpers
# ---------------------------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Megabits/s -> bytes/s (EBS bandwidth is quoted in Mbps by AWS).
MBPS = 1e6 / 8.0

SECONDS_PER_HOUR = 3600.0

# ---------------------------------------------------------------------------
# EC2 (IaaS) — §3 "an AWS VM may take up to 2 minutes or more"
# ---------------------------------------------------------------------------

#: Mean provisioning delay for a freshly requested VM, seconds.
VM_STARTUP_MEAN_S = 120.0
#: Coefficient of variation of the (lognormal) provisioning delay.
VM_STARTUP_CV = 0.15

#: Minimum billed duration per VM (AWS bills at least 1 minute).
VM_MIN_BILL_S = 60.0
#: Billing granularity after the minimum (1 second increments).
VM_BILL_INCREMENT_S = 1.0

# ---------------------------------------------------------------------------
# Lambda (FaaS) — §3 limits and §3 "Why Combine VMs and Lambdas?"
# ---------------------------------------------------------------------------

#: Maximum Lambda memory (paper: "at most 3GB main memory").
LAMBDA_MAX_MEMORY_MB = 3008
#: Memory that buys one full vCPU (paper: "one vCPU per 1.5GB").
LAMBDA_MB_PER_VCPU = 1536
#: Warm-start latency (paper: "about 100ms when warm").
LAMBDA_WARM_START_MEAN_S = 0.100
LAMBDA_WARM_START_CV = 0.25
#: Cold-start latency (fresh Firecracker microVM + runtime + code fetch).
LAMBDA_COLD_START_MEAN_S = 8.0
LAMBDA_COLD_START_CV = 0.30
#: Hard lifetime cap (paper: "terminated after 15 minutes").
LAMBDA_LIFETIME_S = 900.0
#: How long the provider keeps an idle container warm (paper footnote:
#: "AWS keeps dormant Lambda alive for ~90 minutes").
LAMBDA_WARM_KEEPALIVE_S = 90 * 60.0

#: Lambda network bandwidth scales roughly linearly with allocated memory
#: (measured by Wang et al., USENIX ATC'18, cited by the paper). At the
#: 1536 MB allocation SplitServe uses, ~40 MB/s.
LAMBDA_NET_BYTES_PER_S_PER_MB = 40.0 * MB / 1536.0

#: Price per GB-second of Lambda execution (us-east-1, 2020).
LAMBDA_PRICE_PER_GB_S = 0.0000166667
#: Price per million invocations.
LAMBDA_PRICE_PER_1M_INVOCATIONS = 0.20
#: Billing granularity: duration rounded UP to the nearest 100 ms.
LAMBDA_BILL_INCREMENT_S = 0.100

# ---------------------------------------------------------------------------
# S3 — the Qubole baseline's shuffle substrate (§2, §3)
# ---------------------------------------------------------------------------

#: Mean per-request latency (first byte), seconds.
S3_REQUEST_LATENCY_MEAN_S = 0.030
S3_REQUEST_LATENCY_CV = 0.40
#: Per-stream throughput to/from S3 (bytes/s) once the request is open.
S3_STREAM_BYTES_PER_S = 55.0 * MB
#: Per-bucket sustained request-rate ceilings before throttling kicks in
#: (AWS: 3,500 PUT/s, 5,500 GET/s per prefix; the paper: "throttle when
#: the aggregate throughput reaches a few thousands of requests/s").
S3_PUT_RATE_LIMIT = 3500.0
S3_GET_RATE_LIMIT = 5500.0
#: Request prices (us-east-1, 2020): $0.005 / 1000 PUT, $0.0004 / 1000 GET.
S3_PRICE_PER_PUT = 5.0e-6
S3_PRICE_PER_GET = 4.0e-7

# ---------------------------------------------------------------------------
# SQS — Flint's shuffle substrate (§2)
# ---------------------------------------------------------------------------

SQS_REQUEST_LATENCY_MEAN_S = 0.010
SQS_REQUEST_LATENCY_CV = 0.40
#: SQS messages carry at most 256 KB; larger payloads must be chunked.
SQS_MAX_MESSAGE_BYTES = 256 * KB
#: $0.40 per million requests (standard queue, 2020).
SQS_PRICE_PER_REQUEST = 4.0e-7

# ---------------------------------------------------------------------------
# Redis / ElastiCache — Locus's shuffle substrate (§2)
# ---------------------------------------------------------------------------

REDIS_REQUEST_LATENCY_MEAN_S = 0.0005
REDIS_REQUEST_LATENCY_CV = 0.30
#: Hourly price of the cache.r4.2xlarge-class node Locus uses.
REDIS_NODE_PRICE_PER_HOUR = 1.82
#: Aggregate throughput of one in-memory cache node.
REDIS_NODE_BYTES_PER_S = 400.0 * MB

# ---------------------------------------------------------------------------
# HDFS — SplitServe's shuffle substrate (§4.3)
# ---------------------------------------------------------------------------

#: Software overhead per HDFS RPC (open/create + pipeline setup).
HDFS_REQUEST_LATENCY_MEAN_S = 0.004
HDFS_REQUEST_LATENCY_CV = 0.30

# ---------------------------------------------------------------------------
# JVM / executor model (§4.2 "smaller memory on Lambdas results in more
# frequent invocations of the JVM garbage collector")
# ---------------------------------------------------------------------------

#: Fraction of executor memory available for task working sets after the
#: Spark runtime's own footprint.
EXECUTOR_USABLE_MEMORY_FRACTION = 0.60
#: GC slowdown model: slowdown = 1 + GC_PRESSURE_COEFF * pressure^GC_EXP
#: where pressure = working_set / usable_heap, applied when pressure > 1.
GC_PRESSURE_COEFF = 0.9
GC_PRESSURE_EXPONENT = 2.0
#: Additional slowdown accrued per minute of continuous execution on a
#: memory-tight (Lambda-sized) heap: heap fragmentation + promotion churn.
GC_AGING_PER_MINUTE = 0.05
