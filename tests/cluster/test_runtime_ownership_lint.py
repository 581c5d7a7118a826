"""Ownership lint: a simulated world is constructed by the cluster
runtime, nowhere else, and no module keeps run state of its own.

The ClusterRuntime refactor gives every run one owner for its world:
the :class:`~repro.simulation.kernel.Environment`, its
:class:`~repro.simulation.rng.RandomStreams`, the
:class:`~repro.cloud.pricing.BillingMeter` and
:class:`~repro.observability.metrics.MetricsRegistry`, the
:class:`~repro.cloud.provisioner.CloudProvider` and the
:class:`~repro.spark.rdd.RDDBuilder` that numbers its RDDs and
shuffles. Code that builds its own copies silently forks the world —
separate clocks, separate bills, ids that depend on what ran before —
which is exactly the drift this package removed. New code must take a
:class:`~repro.cluster.runtime.ClusterRuntime` (or receive these from
one) instead of constructing them directly.

State that outlives a world breaks the same promise from the other
side: an ``itertools.count()`` bound when a module or class body runs,
or a name rebound with ``global``, carries over from one run to the
next in the same process. ``GLOBAL_MEMOS`` lists the one rebinding that
holds no run state.

The ``GRANDFATHERED`` set pins the owner; it may only shrink.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Constructors only the cluster runtime may call.
OWNED_CONSTRUCTORS = {"Environment", "RandomStreams", "BillingMeter",
                      "MetricsRegistry", "CloudProvider", "RDDBuilder"}

#: Modules (relative to src/repro) allowed to construct a world: the
#: owner itself. This list may shrink but must never grow.
GRANDFATHERED = {
    "cluster/runtime.py",   # the owner
}

#: (module, name) pairs allowed a ``global`` rebinding: the per-process
#: digest of the package sources, which no run reads or changes.
GLOBAL_MEMOS = {("experiments/cache.py", "_code_version")}


def _sources():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources found under {SRC}"
    return [(path.relative_to(SRC).as_posix(),
             ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in files]


def _constructions(tree):
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


def _import_time_counters(tree):
    """Lines of ``itertools.count()`` calls that run when the module is
    imported (module and class bodies; function bodies run per call)."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if ((isinstance(func, ast.Attribute) and func.attr == "count"
                 and isinstance(func.value, ast.Name)
                 and func.value.id == "itertools")
                    or (isinstance(func, ast.Name) and func.id == "count")):
                found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_only_the_cluster_runtime_builds_a_world():
    offenders = []
    for rel, tree in _sources():
        if rel in GRANDFATHERED:
            continue
        for lineno, name in _constructions(tree):
            offenders.append(f"repro/{rel}:{lineno}: {name}(...)")
    assert not offenders, (
        "world construction outside repro.cluster.runtime (take a "
        "ClusterRuntime instead — see DESIGN.md, \"Cluster runtime\"):\n"
        + "\n".join(offenders))


def test_grandfather_list_is_tight():
    """Every grandfathered module still exists and still constructs a
    world — entries must be removed once a module is migrated."""
    trees = dict(_sources())
    for rel in GRANDFATHERED:
        assert rel in trees, f"grandfathered module vanished: {rel}"
        assert _constructions(trees[rel]), (
            f"{rel} no longer constructs any of {sorted(OWNED_CONSTRUCTORS)}; "
            "remove it from GRANDFATHERED")


def test_no_module_keeps_run_state():
    offenders = []
    for rel, tree in _sources():
        for lineno in _import_time_counters(tree):
            offenders.append(f"repro/{rel}:{lineno}: itertools.count() "
                             "bound at import time")
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                offenders.extend(
                    f"repro/{rel}:{node.lineno}: global {name}"
                    for name in node.names
                    if (rel, name) not in GLOBAL_MEMOS)
    assert not offenders, (
        "process-wide state outlives a world (keep counters on the "
        "object that owns them, e.g. the ClusterRuntime):\n"
        + "\n".join(offenders))


def test_global_memos_are_still_used():
    trees = dict(_sources())
    for rel, name in GLOBAL_MEMOS:
        assert rel in trees, f"memo module vanished: {rel}"
        assert any(isinstance(node, ast.Global) and name in node.names
                   for node in ast.walk(trees[rel])), (
            f"{rel} no longer rebinds {name}; remove it from GLOBAL_MEMOS")
