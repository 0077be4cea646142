"""Tests for resources, nodes, and HTCondor-style matchmaking."""

import pytest

from repro.cluster import (
    CondorPool,
    MatchmakingError,
    NodeSpec,
    ResourceError,
    ResourceLedger,
    ResourceSpec,
    heterogeneous_pool,
    uniform_pool,
)


class TestResourceSpec:
    def test_fits_within(self):
        small = ResourceSpec(cores=1, memory_mb=512, disk_mb=100)
        big = ResourceSpec(cores=4, memory_mb=8192, disk_mb=1000)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_fits_is_componentwise(self):
        lots_of_cores = ResourceSpec(cores=64, memory_mb=1, disk_mb=1)
        lots_of_memory = ResourceSpec(cores=1, memory_mb=99999, disk_mb=1)
        assert not lots_of_cores.fits_within(lots_of_memory)

    def test_add_subtract(self):
        a = ResourceSpec(cores=2, memory_mb=100, disk_mb=10)
        b = ResourceSpec(cores=1, memory_mb=50, disk_mb=5)
        assert (a + b).cores == 3
        assert (a - b).memory_mb == 50

    def test_subtract_below_zero_rejected(self):
        a = ResourceSpec(cores=1, memory_mb=1, disk_mb=1)
        b = ResourceSpec(cores=2, memory_mb=1, disk_mb=1)
        with pytest.raises(ValueError):
            a - b

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceSpec(cores=-1)

    def test_scaled(self):
        spec = ResourceSpec(cores=2, memory_mb=10, disk_mb=5)
        assert spec.scaled(3).cores == 6
        with pytest.raises(ValueError):
            spec.scaled(-1)


class TestResourceLedger:
    def test_allocate_release_cycle(self):
        ledger = ResourceLedger(ResourceSpec(cores=4, memory_mb=4096, disk_mb=100))
        request = ResourceSpec(cores=2, memory_mb=1024, disk_mb=10)
        ledger.allocate(request)
        assert ledger.available.cores == 2
        ledger.release(request)
        assert ledger.available.cores == 4

    def test_over_allocation_rejected(self):
        ledger = ResourceLedger(ResourceSpec(cores=1, memory_mb=100, disk_mb=10))
        ledger.allocate(ResourceSpec(cores=1, memory_mb=50, disk_mb=5))
        with pytest.raises(ResourceError):
            ledger.allocate(ResourceSpec(cores=1, memory_mb=10, disk_mb=1))

    def test_over_release_rejected(self):
        ledger = ResourceLedger(ResourceSpec(cores=1, memory_mb=100, disk_mb=10))
        with pytest.raises(ResourceError):
            ledger.release(ResourceSpec(cores=1, memory_mb=1, disk_mb=1))


class TestNodes:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(name="")
        with pytest.raises(ValueError):
            NodeSpec(name="n", speed_factor=0.0)

    def test_heterogeneous_pool_varies(self):
        specs = heterogeneous_pool(20, rng=0)
        speeds = {spec.speed_factor for spec in specs}
        cores = {spec.capacity.cores for spec in specs}
        assert len(speeds) > 1
        assert len(cores) > 1

    def test_uniform_pool_uniform(self):
        specs = uniform_pool(5, cores=8)
        assert all(spec.capacity.cores == 8 for spec in specs)
        assert all(spec.speed_factor == 1.0 for spec in specs)

    def test_pool_size_validation(self):
        with pytest.raises(ValueError):
            uniform_pool(0)
        with pytest.raises(ValueError):
            heterogeneous_pool(0)


class TestCondorPool:
    def test_place_claims_resources(self):
        pool = CondorPool(uniform_pool(2, cores=2))
        placement = pool.place()
        assert pool.free_cores() == 3
        placement.release()
        assert pool.free_cores() == 4

    def test_place_spreads_load(self):
        pool = CondorPool(uniform_pool(2, cores=2))
        a = pool.place()
        b = pool.place()
        assert a.node.name != b.node.name

    def test_exhaustion_raises(self):
        pool = CondorPool(uniform_pool(1, cores=1))
        pool.place()
        with pytest.raises(MatchmakingError):
            pool.place()

    def test_place_many_rolls_back(self):
        pool = CondorPool(uniform_pool(1, cores=2))
        with pytest.raises(MatchmakingError):
            pool.place_many(3)
        assert pool.free_cores() == 2  # nothing leaked

    def test_duplicate_names_rejected(self):
        specs = [NodeSpec(name="x"), NodeSpec(name="x")]
        with pytest.raises(ValueError, match="duplicate"):
            CondorPool(specs)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            CondorPool([])

    def test_total_capacity(self):
        pool = CondorPool(uniform_pool(3, cores=4))
        assert pool.total_capacity().cores == 12
