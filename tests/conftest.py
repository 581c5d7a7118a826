"""Shared test fixtures."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_experiment_cache(tmp_path, monkeypatch):
    """Point the experiment result cache at a per-test tmp dir so test
    runs never write ``.repro_cache`` into the repository or leak
    cached results across tests, and clear the ``REPRO_CACHE=0`` kill
    switch a bench run may have left in the environment (a test that
    needs the cache off sets it itself)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "experiment-cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
