"""Tests for the workload DAG builders."""

import pytest

from repro.spark.rdd import RDDBuilder
from repro.workloads import (
    KMeansWorkload,
    PageRankWorkload,
    SparkPiWorkload,
    SyntheticWorkload,
    TPCDSWorkload,
    TPCDS_QUERIES,
)
from repro.workloads.base import WorkloadSpec
from repro.workloads.pagerank import skewed_compute
from repro.workloads.tpcds import PRESENTED_QUERIES


def count_stages(final_rdd):
    """Count stages by walking the lineage (shuffle deps + result)."""
    seen = set()

    def visit(rdd):
        for node in rdd.narrow_ancestry():
            for dep in node.shuffle_deps:
                if dep.shuffle_id not in seen:
                    seen.add(dep.shuffle_id)
                    visit(dep.parent)

    visit(final_rdd)
    return len(seen) + 1


# ---------------------------------------------------------------------------
# WorkloadSpec
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec("x", required_cores=0, available_cores=1,
                     worker_itype="m4.large")
    with pytest.raises(ValueError):
        WorkloadSpec("x", required_cores=4, available_cores=8,
                     worker_itype="m4.large")


def test_spec_shortfall():
    spec = WorkloadSpec("x", required_cores=16, available_cores=3,
                        worker_itype="m4.large")
    assert spec.shortfall_cores == 13


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------

def test_pagerank_paper_setup():
    w = PageRankWorkload()
    assert w.pages == 850_000
    assert w.spec.required_cores == 16
    assert w.spec.available_cores == 3
    assert w.spec.worker_itype == "m4.4xlarge"


def test_pagerank_has_six_stages():
    """Figure 7: PageRank has 6 execution stages."""
    w = PageRankWorkload()
    assert w.num_stages == 6
    assert count_stages(w.build(RDDBuilder(), 16)) == 6


def test_pagerank_links_cached():
    # The parsed link graph is persisted across iterations.
    final = PageRankWorkload().build(RDDBuilder(), 16)
    assert "links" in {r.name for r in _all_rdds(final) if r.cached}


def _all_rdds(final):
    out, stack, seen = [], [final], set()
    while stack:
        rdd = stack.pop()
        if rdd.rdd_id in seen:
            continue
        seen.add(rdd.rdd_id)
        out.append(rdd)
        stack.extend(d.parent for d in rdd.deps)
    return out


def test_pagerank_skew_hot_partition():
    compute = skewed_compute(160.0, 16)
    assert compute(0) > compute(1)
    total = sum(compute(p) for p in range(16))
    assert total == pytest.approx(160.0)


def test_skewed_compute_single_partition():
    compute = skewed_compute(100.0, 1)
    assert compute(0) == 100.0


def test_pagerank_profiling_sizes():
    assert PageRankWorkload.small().pages == 25_000
    assert PageRankWorkload.medium().pages == 50_000
    assert PageRankWorkload.large().pages == 100_000


def test_pagerank_validation():
    with pytest.raises(ValueError):
        PageRankWorkload(pages=0)
    with pytest.raises(ValueError):
        PageRankWorkload(iterations=0)
    with pytest.raises(ValueError):
        PageRankWorkload().build(RDDBuilder(), 0)


def test_pagerank_shuffle_scales_with_pages():
    small = PageRankWorkload.small().build(RDDBuilder(), 8)
    large = PageRankWorkload.large().build(RDDBuilder(), 8)

    def total_shuffle(rdd):
        return sum(d.total_bytes for r in _all_rdds(rdd)
                   for d in r.shuffle_deps)

    assert total_shuffle(large) == pytest.approx(4 * total_shuffle(small))


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------

def test_kmeans_paper_setup():
    w = KMeansWorkload()
    assert w.points == 3_000_000
    assert w.dims == 20
    assert w.k == 10
    assert w.iterations == 5
    assert w.spec.required_cores == 16
    assert w.spec.available_cores == 4
    assert w.spec.vm_ready_delay_s == 60.0


def test_kmeans_stage_count():
    w = KMeansWorkload()
    assert count_stages(w.build(RDDBuilder(), 16)) == w.num_stages == 6


def test_kmeans_points_cached_and_sized_for_one_lambda():
    """The partition size is the linchpin of the memory story: one
    partition must fit a 1536 MB Lambda's storage region but two must
    overflow a 4 GB VM executor's."""
    from repro.spark.memory import usable_heap_bytes

    w = KMeansWorkload()
    per_partition = w.cached_dataset_bytes / 16
    lambda_limit = usable_heap_bytes(1536 * 1024 ** 2) * 0.5
    vm_limit = usable_heap_bytes(4 * 1024 ** 3) * 0.5
    assert per_partition < lambda_limit
    assert 2 * per_partition < vm_limit
    assert 3 * per_partition > vm_limit


def test_kmeans_validation():
    with pytest.raises(ValueError):
        KMeansWorkload(points=0)
    with pytest.raises(ValueError):
        KMeansWorkload().build(RDDBuilder(), -1)


# ---------------------------------------------------------------------------
# SparkPi
# ---------------------------------------------------------------------------

def test_sparkpi_paper_setup():
    w = SparkPiWorkload()
    assert w.darts == 1e10
    assert w.spec.required_cores == 64
    assert w.spec.worker_itype == "m4.16xlarge"


def test_sparkpi_negligible_shuffle():
    w = SparkPiWorkload()
    final = w.build(RDDBuilder(), 64)
    total = sum(d.total_bytes for r in _all_rdds(final)
                for d in r.shuffle_deps)
    assert total < 1024 * 1024  # well under a megabyte


def test_sparkpi_two_stages():
    assert count_stages(SparkPiWorkload().build(RDDBuilder(), 64)) == 2


# ---------------------------------------------------------------------------
# TPC-DS
# ---------------------------------------------------------------------------

def test_tpcds_pool_has_ten_queries():
    assert len(TPCDS_QUERIES) == 10


def test_tpcds_presented_queries():
    assert set(PRESENTED_QUERIES) == {"q5", "q16", "q94", "q95"}
    assert len(TPCDSWorkload.presented()) == 4


def test_tpcds_q5_not_qubole_supported():
    assert not TPCDSWorkload("q5").spec.qubole_supported
    assert TPCDSWorkload("q16").spec.qubole_supported


def test_tpcds_unknown_query_rejected():
    with pytest.raises(KeyError, match="unknown query"):
        TPCDSWorkload("q999")


def test_tpcds_stage_count_matches_profile():
    for name in PRESENTED_QUERIES:
        w = TPCDSWorkload(name)
        assert (count_stages(w.build(RDDBuilder(), 32))
                == w.profile.num_stages)


def test_tpcds_shuffle_stages_use_sql_partitions():
    w = TPCDSWorkload("q16")
    final = w.build(RDDBuilder(), 32)
    assert final.num_partitions == 200


def test_tpcds_scale_factor_scales_compute_and_shuffle():
    small = TPCDSWorkload("q16", scale_factor=8)
    large = TPCDSWorkload("q16", scale_factor=16)
    s_rdd = small.build(RDDBuilder(), 32)
    l_rdd = large.build(RDDBuilder(), 32)

    def totals(rdd):
        rdds = _all_rdds(rdd)
        shuffle = sum(d.total_bytes for r in rdds for d in r.shuffle_deps)
        compute = sum(r.compute_seconds(0) * r.num_partitions for r in rdds)
        return shuffle, compute

    s_shuffle, s_compute = totals(s_rdd)
    l_shuffle, l_compute = totals(l_rdd)
    assert l_shuffle == pytest.approx(2 * s_shuffle)
    assert l_compute == pytest.approx(2 * s_compute, rel=0.05)


def test_tpcds_q5_is_heaviest_shuffler():
    volumes = {name: TPCDS_QUERIES[name].total_shuffle_gb
               for name in PRESENTED_QUERIES}
    assert max(volumes, key=volumes.get) == "q5"


# ---------------------------------------------------------------------------
# Synthetic
# ---------------------------------------------------------------------------

def test_synthetic_stage_count():
    w = SyntheticWorkload(stages=4)
    assert count_stages(w.build(RDDBuilder(), 8)) == 4


def test_synthetic_validation():
    with pytest.raises(ValueError):
        SyntheticWorkload(stages=0)
    with pytest.raises(ValueError):
        SyntheticWorkload(core_seconds_per_stage=-1)
