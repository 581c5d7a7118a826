"""Static lint over the innermost hot loops.

``EventBus.record_packed`` and the kernel's dispatch loop run once per
simulated event (tens of thousands of times per run). The refactor
moved every per-event string build and dict comprehension out of them
— payloads are precomputed by emitters, plans are compiled once. The
pooled scheduler's FAIR order and the slot-count updates that keep it
run once per task launch or finish, and the shuffle tracker's
registration and a reducer's completeness check and fetch once per map
or reduce task. This lint keeps it that way: a
regression that reintroduces an f-string or a comprehension inside these
bodies fails here with a file:line, long before it shows up as a
throughput loss on the benchmark.

Allowed and deliberately not flagged: ``{**a, **b}`` merges (an
``ast.Dict`` literal, one C-level opcode per key — how the ambient
context is applied) and f-strings inside ``raise`` statements (error
paths run zero times per healthy event).
"""

import ast
import inspect
import textwrap

import pytest

from repro.cluster import pools as pools_mod
from repro.observability import bus as bus_mod
from repro.simulation import kernel as kernel_mod
from repro.spark import shuffle as shuffle_mod

HOT_FUNCTIONS = [
    (bus_mod.EventBus, "record"),
    (bus_mod.EventBus, "record_packed"),
    (bus_mod.EventBus, "set_context"),
    (kernel_mod.Environment, "run"),
    (kernel_mod.Environment, "step_until"),
    (kernel_mod.Environment, "_drain"),
    (kernel_mod.Environment, "schedule"),
    (pools_mod.SchedulerPools, "ordered_tasksets"),
    (pools_mod.SchedulerPools, "occupy"),
    (pools_mod.SchedulerPools, "_place"),
    (pools_mod.SchedulerPools, "_unplace"),
    (pools_mod.SchedulerPools, "add_taskset"),
    (pools_mod.SchedulerPools, "drop_taskset"),
    (shuffle_mod.LocalShuffleBackend, "fetch"),
    (shuffle_mod.MapOutputTracker, "register"),
    (shuffle_mod.MapOutputTracker, "first_missing_partition"),
]


def _function_tree(owner, name):
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    return ast.parse(source).body[0]


def _raise_subtree_nodes(tree):
    """Every node under a ``raise`` statement (error paths are exempt)."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            for child in ast.walk(node):
                exempt.add(id(child))
    return exempt


def _offenders(tree):
    exempt = _raise_subtree_nodes(tree)
    bad = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.JoinedStr):
            bad.append((node.lineno, "f-string"))
        elif isinstance(node, (ast.DictComp, ast.SetComp, ast.ListComp,
                               ast.GeneratorExp)):
            bad.append((node.lineno, type(node).__name__))
    return bad


@pytest.mark.parametrize("owner,name", HOT_FUNCTIONS,
                         ids=[f"{o.__name__}.{n}" for o, n in HOT_FUNCTIONS])
def test_no_per_event_field_construction(owner, name):
    tree = _function_tree(owner, name)
    bad = _offenders(tree)
    assert not bad, (
        f"{owner.__name__}.{name} builds strings/containers per event: "
        + ", ".join(f"line {line}: {what}" for line, what in bad))


def test_lint_catches_a_planted_offender():
    """The lint itself must not be vacuous."""
    planted = ast.parse(textwrap.dedent("""
        def hot(self, name, fields):
            fields = {k: v for k, v in fields.items()}
            label = f"ev:{name}"
            return label
    """)).body[0]
    kinds = {what for _line, what in _offenders(planted)}
    assert kinds == {"DictComp", "f-string"}


def test_raise_paths_are_exempt():
    planted = ast.parse(textwrap.dedent("""
        def hot(self, name):
            if name is None:
                raise ValueError(f"bad {name}")
            return name
    """)).body[0]
    assert _offenders(planted) == []
