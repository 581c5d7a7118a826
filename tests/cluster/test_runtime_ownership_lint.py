"""Ownership lint: simulation substrate is constructed by the cluster
runtime, nowhere else.

The ClusterRuntime refactor gives every run one owner for the
:class:`~repro.simulation.kernel.Environment` and
:class:`~repro.cloud.billing.BillingMeter` pair (plus rng, provider,
trace, metrics). Code that builds its own copies silently forks the
simulation world — separate clocks, separate bills — which is exactly
the drift this package removed from the scenario drivers. New code must
take a :class:`~repro.cluster.runtime.ClusterRuntime` (or receive
env/meter from one) instead of constructing the substrate directly.

The ``GRANDFATHERED`` set pins the owner plus the provisioner's
default-meter fallback for bare ``CloudProvider(env, rng)`` callers; it
may only shrink.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Constructors only the cluster runtime may call.
OWNED_CONSTRUCTORS = {"Environment", "BillingMeter"}

#: Modules (relative to src/repro) allowed to construct the substrate:
#: the owner itself, plus the provisioner's fallback meter. This list
#: may shrink but must never grow.
GRANDFATHERED = {
    "cluster/runtime.py",   # the owner
    "cloud/provisioner.py",  # default-meter fallback for bare providers
}


def _constructions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in OWNED_CONSTRUCTORS:
            found.append((node.lineno, name))
    return found


def test_only_the_cluster_runtime_builds_env_and_meter():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources found under {SRC}"
    offenders = []
    for path in files:
        rel = path.relative_to(SRC).as_posix()
        if rel in GRANDFATHERED or rel.startswith("simulation/") \
                or rel == "cloud/billing.py":
            continue
        for lineno, name in _constructions(path):
            offenders.append(f"repro/{rel}:{lineno}: {name}(...)")
    assert not offenders, (
        "direct Environment/BillingMeter construction outside "
        "repro.cluster (take a ClusterRuntime instead — see DESIGN.md, "
        "\"Cluster runtime\"):\n" + "\n".join(offenders))


def test_grandfather_list_is_tight():
    """Every grandfathered module still exists and still constructs the
    substrate — entries must be removed once a module is migrated."""
    for rel in GRANDFATHERED:
        path = SRC / rel
        assert path.exists(), f"grandfathered module vanished: {rel}"
        assert _constructions(path), (
            f"{rel} no longer constructs Environment/BillingMeter; "
            "remove it from GRANDFATHERED")
