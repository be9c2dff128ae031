"""Shared pytest fixtures for the FIGLUT reproduction test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Trained-weight cache for the session testbed: training the small LM
# dominates suite runtime, so the weights are cached on disk keyed by a
# config hash (see repro.eval.accuracy.build_testbed).  Lives at the repo
# root so the tests/ and benchmarks/ suites share one cache location.
TESTBED_CACHE_DIR = Path(__file__).resolve().parent.parent / ".testbed_cache"


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator shared by the tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_weight(rng) -> np.ndarray:
    """A small weight matrix with a realistic (roughly Gaussian) distribution."""
    return rng.standard_normal((24, 32)) * 0.1


@pytest.fixture
def small_activations(rng) -> np.ndarray:
    """A small activation matrix (in_features, batch)."""
    return rng.standard_normal((32, 5))


@pytest.fixture(autouse=True)
def _audit_scheduler_pools(monkeypatch):
    """Audit every scheduler's page pool when its test ends.

    Each ``DecodeScheduler`` constructed during a test is recorded; at
    teardown the :mod:`repro.analysis.pool_audit` invariants (refcount
    conservation, registry bijection, free-list consistency) are asserted
    against the scheduler's pool and live cache — so *any* serving test
    that leaks, double-frees, or corrupts a page fails itself, not some
    later test that inherits the pool.  Tests that never import the
    scheduler pay nothing.
    """
    mod = sys.modules.get("repro.serve.scheduler")
    if mod is None:
        yield
        return
    instances: list = []
    orig_init = mod.DecodeScheduler.__init__

    def recording_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        instances.append(self)

    monkeypatch.setattr(mod.DecodeScheduler, "__init__", recording_init)
    yield
    from repro.analysis.pool_audit import assert_pool_consistent

    for sched in instances:
        caches = [sched._cache] if sched._cache is not None else []
        assert_pool_consistent(sched.pool, caches)


@pytest.fixture(scope="session")
def trained_testbed():
    """A small trained LM shared by the accuracy-oriented tests (built once,
    trained weights cached on disk across sessions)."""
    from repro.eval.accuracy import build_testbed

    return build_testbed(epochs=2, num_paragraphs=80, max_batches=2,
                         cache_dir=TESTBED_CACHE_DIR)
