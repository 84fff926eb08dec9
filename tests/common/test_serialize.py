"""Config serialization round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.common.config import (
    BusConfig,
    CSBConfig,
    MemoryHierarchyConfig,
    SystemConfig,
    UncachedBufferConfig,
)
from repro.common.errors import ConfigError
from repro.common.serialize import (
    apply_overrides,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
)


class TestRoundTrip:
    def test_default_config(self):
        config = SystemConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_json_round_trip(self):
        config = SystemConfig(
            memory=MemoryHierarchyConfig.with_line_size(128),
            bus=BusConfig(kind="split", width_bytes=16, cpu_ratio=4,
                          max_burst_bytes=128),
            uncached=UncachedBufferConfig(combine_block=16, policy="ppc620"),
            csb=CSBConfig(line_size=128, num_line_buffers=2),
        )
        assert config_from_json(config_to_json(config)) == config

    @given(
        ratio=st.integers(min_value=1, max_value=12),
        turnaround=st.integers(min_value=0, max_value=3),
        delay=st.integers(min_value=0, max_value=8),
        block=st.sampled_from([8, 16, 32, 64]),
        line=st.sampled_from([32, 64, 128]),
    )
    def test_property_any_valid_config_round_trips(
        self, ratio, turnaround, delay, block, line
    ):
        config = SystemConfig(
            memory=MemoryHierarchyConfig.with_line_size(line),
            bus=BusConfig(
                cpu_ratio=ratio,
                turnaround=turnaround,
                min_addr_delay=delay,
                max_burst_bytes=max(64, line),
            ),
            uncached=UncachedBufferConfig(combine_block=min(block, line)),
            csb=CSBConfig(line_size=line),
        )
        assert config_from_dict(config_to_dict(config)) == config


class TestValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"turbo": {}})

    def test_unknown_field_rejected(self):
        data = config_to_dict(SystemConfig())
        data["bus"]["warp_factor"] = 9
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_invalid_values_rejected_by_dataclass_validation(self):
        data = config_to_dict(SystemConfig())
        data["bus"]["cpu_ratio"] = 0
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_partial_document_uses_defaults(self):
        config = config_from_dict({"bus": {"cpu_ratio": 3}})
        assert config.bus.cpu_ratio == 3
        assert config.core.dispatch_width == 4

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            config_from_json("{not json")

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])
        with pytest.raises(ConfigError):
            config_from_dict({"bus": 7})

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"bus": {"cpu_ratio": "6"}},
             r"config\.bus\.cpu_ratio must be int, got '6'"),
            ({"memory": {"l1": 5}}, r"config\.memory\.l1 must be a mapping"),
            ({"memory": {"l1": {"hit_latency": 3}}},
             r"config\.memory\.l1\.size_bytes is required"),
            ({"num_cores": True}, r"config\.num_cores must be int, got True"),
            ({"quantum": "5"}, r"config\.quantum must be int"),
            ({"faults": {"bus_nack_rate": "0.1"}},
             r"config\.faults\.bus_nack_rate must be float"),
            ({"turbo": {}}, r"config: unknown fields \['turbo'\]"),
            ({1: 2, "turbo": {}}, r"config: unknown fields \[1, 'turbo'\]"),
        ],
    )
    def test_mistyped_values_name_their_path(self, document, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(document)


class TestCodecContracts:
    def test_numbers_are_validated_never_converted(self):
        # An int in a float field stays an int, so content keys that hash
        # the document cannot move on a round trip.
        config = config_from_dict({"faults": {"bus_nack_rate": 0}})
        assert type(config.faults.bus_nack_rate) is int
        assert config_to_dict(config)["faults"]["bus_nack_rate"] == 0
        assert config_from_dict({"quantum": None}).quantum is None

    def test_bus_kind_is_a_field_not_a_tag(self):
        document = config_to_dict(SystemConfig(bus=BusConfig(kind="split")))
        assert document["bus"]["kind"] == "split"
        assert config_from_dict(document).bus.kind == "split"

    def test_kind_tag_leads_and_selects_the_union_member(self):
        from repro.workloads.spec import TraceWorkload, workload_from_dict

        workload = TraceWorkload(name="t", source="synth:n=4,seed=1")
        document = workload.to_dict()
        assert list(document)[:2] == ["kind", "name"]
        assert workload_from_dict(document) == workload
        with pytest.raises(ConfigError, match=r"workload\.kind must be one of"):
            workload_from_dict({k: v for k, v in document.items() if k != "kind"})
        with pytest.raises(ConfigError, match="kind must be 'trace'"):
            TraceWorkload.from_dict({**document, "kind": "program"})
        with pytest.raises(ConfigError, match=r"got \['trace'\]"):
            workload_from_dict({**document, "kind": ["trace"]})

    def test_overrides_merge_recursively_and_reject_unknown_fields(self):
        merged = apply_overrides(
            SystemConfig(), {"memory": {"l2": {"hit_latency": 12}}}
        )
        assert merged.memory.l2.hit_latency == 12
        assert merged.memory.l1 == SystemConfig().memory.l1
        with pytest.raises(ConfigError, match=r"config\.memory\.l2: unknown"):
            apply_overrides(SystemConfig(), {"memory": {"l2": {"ways": 2}}})


class TestUsableInSystems:
    def test_deserialized_config_builds_a_system(self):
        from repro import System, assemble

        text = config_to_json(SystemConfig())
        system = System(config_from_json(text))
        system.add_process(assemble("set 1, %o1\nhalt"))
        system.run()
        assert system.scheduler.processes[0].registers.read("%o1") == 1
