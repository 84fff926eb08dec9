"""Finding objects: JSON contract, ordering, rendering."""

import json

import pytest

from repro.analysis import (
    RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    all_rules,
    findings_to_json,
    sort_findings,
)


def make(rule="csb.flush-empty", index=3, program="p", message="m", hint="h"):
    return Finding(
        rule=rule,
        severity=SEVERITY_ERROR,
        index=index,
        instruction="swap [%o1], %l4",
        message=message,
        hint=hint,
        program=program,
    )


class TestFinding:
    def test_to_dict_shape_is_stable(self):
        # This key set is the machine-readable contract CI consumes;
        # fields may be added, never renamed or removed.
        assert set(make().to_dict()) == {
            "rule",
            "severity",
            "index",
            "instruction",
            "message",
            "hint",
            "program",
        }

    def test_unknown_severity_is_rejected(self):
        with pytest.raises(ValueError):
            Finding(
                rule="csb.flush-empty",
                severity="fatal",
                index=0,
                instruction="halt",
                message="m",
            )

    def test_render_mentions_rule_location_and_hint(self):
        line = make().render()
        assert "p:3" in line
        assert "[csb.flush-empty]" in line
        assert "hint: h" in line

    def test_program_name_does_not_affect_equality(self):
        assert make(program="a") == make(program="b")


class TestOrdering:
    def test_sorted_by_program_then_index_then_rule(self):
        findings = [
            make(program="b", index=1),
            make(program="a", index=9),
            make(program="a", index=2, rule="lock.held-at-halt"),
            make(program="a", index=2, rule="csb.no-retry"),
        ]
        ordered = sort_findings(findings)
        assert [(f.program, f.index, f.rule) for f in ordered] == [
            ("a", 2, "csb.no-retry"),
            ("a", 2, "lock.held-at-halt"),
            ("a", 9, "csb.flush-empty"),
            ("b", 1, "csb.flush-empty"),
        ]


class TestJson:
    def test_round_trips_through_json(self):
        payload = json.loads(findings_to_json([make()]))
        assert payload == [make().to_dict()]

    def test_empty_findings_is_an_empty_array(self):
        assert json.loads(findings_to_json([])) == []


class TestRuleCatalog:
    def test_every_rule_has_a_valid_severity(self):
        assert set(RULES.values()) <= {SEVERITY_ERROR, SEVERITY_WARNING}

    def test_all_rules_is_sorted_and_complete(self):
        assert all_rules() == sorted(RULES)
        assert len(all_rules()) == 16

    def test_smp_group_rule_is_registered(self):
        assert RULES["smp.unpaired-lock"] == SEVERITY_ERROR


#: Byte-for-byte golden serialization of one finding.  If this test
#: breaks, the JSON contract changed: bump docs/static_analysis.md and the
#: consumers before touching the expectation.
GOLDEN_JSON = """\
[
  {
    "hint": "h",
    "index": 3,
    "instruction": "swap [%o1], %l4",
    "message": "m",
    "program": "p",
    "rule": "csb.flush-empty",
    "severity": "error"
  }
]"""


class TestJsonStability:
    def test_golden_serialization_is_byte_stable(self):
        assert findings_to_json([make()]) == GOLDEN_JSON

    def test_keys_are_sorted(self):
        text = findings_to_json([make()])
        keys = [line.split('"')[1] for line in text.splitlines() if '":' in line]
        assert keys == sorted(keys)

    def test_from_dict_round_trip(self):
        finding = make()
        clone = Finding.from_dict(finding.to_dict())
        assert clone == finding
        assert clone.program == finding.program

    def test_from_dict_rejects_unknown_fields(self):
        data = make().to_dict()
        data["extra"] = 1
        with pytest.raises(ValueError):
            Finding.from_dict(data)
        data = make().to_dict()
        data["index"] = "3"
        with pytest.raises(ValueError, match="index must be int"):
            Finding.from_dict(data)

    def test_severity_values_are_pinned(self):
        # The wire values are part of the contract: exactly these strings.
        assert make().to_dict()["severity"] == "error"
        warn = Finding(
            rule="cfg.unreachable",
            severity=SEVERITY_WARNING,
            index=0,
            instruction="halt",
            message="m",
        )
        assert warn.to_dict()["severity"] == "warning"
