"""Seeded property tests for the serialization layer (stdlib random only).

Randomly generated ``CampaignManifest``/``SystemConfig``/``FaultConfig``/
workload-spec documents must survive ``to_dict`` → JSON → ``from_dict``
unchanged, independent of JSON key order, reject unknown keys, and keep
their cache keys stable under display-name renames.  Seeds are pinned so
a failure reproduces exactly; bump ``ROUNDS`` locally to fuzz harder.
"""

import dataclasses
import json
import random

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.serialize import config_from_dict, config_to_dict
from repro.evaluation.campaign import CampaignManifest, JobSpec
from repro.evaluation.runner import TRACE_MEASUREMENTS
from repro.faults.config import FaultConfig
from repro.workloads.spec import (
    ProgramWorkload,
    TraceWorkload,
    workload_from_dict,
)

ROUNDS = 12
SEEDS = range(ROUNDS)


def shuffled_json(document, rng):
    """Re-encode a document with every object's key order randomized."""

    def shuffle(node):
        if isinstance(node, dict):
            items = [(key, shuffle(value)) for key, value in node.items()]
            rng.shuffle(items)
            return dict(items)
        if isinstance(node, list):
            return [shuffle(item) for item in node]
        return node

    return json.dumps(shuffle(document))


def random_program_workload(rng, processes=None):
    """``processes=None`` picks 1-3; manifests need exactly 1 (a JobSpec
    lowers to a single-kernel SimJob; SMP workloads don't fit one)."""
    stores = "\n".join(
        f"stx %l0, [%o1+{8 * i}]" for i in range(rng.randint(1, 4))
    )
    source = f"set {rng.randint(1, 512)}, %l0\nset 64, %o1\n{stores}\nhalt"
    if processes is None:
        processes = rng.randint(1, 3)
    return ProgramWorkload(
        name=f"prog-{rng.randint(0, 10_000)}",
        sources=tuple(
            (f"p{i}", source) for i in range(processes)
        ),
        warm=tuple(sorted(rng.sample(range(0, 4096, 64), rng.randint(0, 3)))),
    )


def random_trace_workload(rng):
    return TraceWorkload(
        name=f"trace-{rng.randint(0, 10_000)}",
        source=(
            f"synth:n={rng.randint(1, 200)},seed={rng.randint(0, 99)},"
            f"gap={rng.randint(1, 80)},devices={rng.randint(1, 4)}"
        ),
        discipline=rng.choice(("csb", "lock", "uncached")),
        window=rng.randint(1, 512),
        devices=rng.randint(0, 4),
    )


def random_fault_config(rng):
    return FaultConfig(
        seed=rng.randint(0, 2**31),
        bus_nack_rate=round(rng.random() * 0.2, 4),
        bus_stall_rate=round(rng.random() * 0.2, 4),
        bus_stall_cycles=rng.randint(1, 16),
        device_timeout_rate=round(rng.random() * 0.1, 4),
        device_timeout_cycles=rng.randint(1, 32),
        max_retries=rng.randint(1, 16),
    )


def random_system_config(rng):
    return SystemConfig(
        num_cores=rng.randint(1, 4),
        quantum=rng.choice((None, 50, 120, 500)),
        switch_penalty=rng.randint(0, 40),
        faults=random_fault_config(rng),
    )


def random_manifest(rng):
    jobs = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            workload = random_program_workload(rng, processes=1)
            measurement = "store_bandwidth"
        else:
            workload = random_trace_workload(rng)
            measurement = rng.choice(sorted(TRACE_MEASUREMENTS))
        # Per-device measurements take the device index as an argument.
        args = (
            (str(rng.randint(0, 3)),)
            if measurement in ("device_share", "mean_occupancy")
            else ()
        )
        jobs.append(
            JobSpec(
                workload=workload,
                config=random_system_config(rng),
                measurement=measurement,
                args=args,
                name=f"job-{rng.randint(0, 10_000)}",
            )
        )
    return CampaignManifest(
        name=f"campaign-{rng.randint(0, 10_000)}", jobs=tuple(jobs)
    )


@pytest.mark.parametrize("seed", SEEDS)
class TestRoundTrips:
    def test_manifest_survives_json_with_shuffled_keys(self, seed):
        rng = random.Random(seed)
        manifest = random_manifest(rng)
        revived = CampaignManifest.from_dict(
            json.loads(shuffled_json(manifest.to_dict(), rng))
        )
        assert revived == manifest
        assert revived.cache_key() == manifest.cache_key()

    def test_system_config_survives_json_with_shuffled_keys(self, seed):
        rng = random.Random(1000 + seed)
        config = random_system_config(rng)
        revived = config_from_dict(
            json.loads(shuffled_json(config_to_dict(config), rng))
        )
        assert revived == config

    def test_fault_config_survives_the_config_section(self, seed):
        rng = random.Random(2000 + seed)
        faults = random_fault_config(rng)
        config = SystemConfig(faults=faults)
        revived = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert revived.faults == faults

    def test_workloads_survive_json_with_shuffled_keys(self, seed):
        rng = random.Random(3000 + seed)
        for workload in (
            random_program_workload(rng),
            random_trace_workload(rng),
        ):
            revived = workload_from_dict(
                json.loads(shuffled_json(workload.to_dict(), rng))
            )
            assert revived == workload
            assert revived.cache_key() == workload.cache_key()


@pytest.mark.parametrize("seed", SEEDS)
class TestUnknownKeyRejection:
    def test_manifest_and_spec_reject_random_unknown_keys(self, seed):
        rng = random.Random(4000 + seed)
        manifest = random_manifest(rng)
        bogus = f"field_{rng.randint(0, 10_000)}"
        top = manifest.to_dict()
        top[bogus] = 1
        with pytest.raises(ConfigError, match=bogus):
            CampaignManifest.from_dict(top)
        nested = manifest.to_dict()
        nested["jobs"][0][bogus] = 1
        with pytest.raises(ConfigError, match=bogus):
            CampaignManifest.from_dict(nested)
        inner = manifest.to_dict()
        inner["jobs"][0]["workload"][bogus] = 1
        with pytest.raises(ConfigError, match=bogus):
            CampaignManifest.from_dict(inner)

    def test_config_rejects_random_unknown_sections_and_fields(self, seed):
        rng = random.Random(5000 + seed)
        bogus = f"field_{rng.randint(0, 10_000)}"
        document = config_to_dict(random_system_config(rng))
        document[bogus] = {}
        with pytest.raises(ConfigError):
            config_from_dict(document)
        document = config_to_dict(random_system_config(rng))
        document["faults"][bogus] = 0.5
        with pytest.raises(ConfigError):
            config_from_dict(document)


@pytest.mark.parametrize("seed", SEEDS)
class TestRenameStability:
    def test_display_renames_never_move_cache_keys(self, seed):
        rng = random.Random(6000 + seed)
        manifest = random_manifest(rng)
        renamed = CampaignManifest(
            name=manifest.name + "-renamed",
            jobs=tuple(
                dataclasses.replace(spec, name=spec.name + "-renamed")
                for spec in manifest.jobs
            ),
        )
        assert renamed.cache_key() == manifest.cache_key()
        for original, spec in zip(manifest.jobs, renamed.jobs):
            assert spec.cache_key() == original.cache_key()

    def test_workload_renames_never_move_cache_keys(self, seed):
        rng = random.Random(7000 + seed)
        program = random_program_workload(rng)
        trace = random_trace_workload(rng)
        assert (
            dataclasses.replace(program, name="other").cache_key()
            == program.cache_key()
        )
        assert (
            dataclasses.replace(trace, name="other").cache_key()
            == trace.cache_key()
        )
