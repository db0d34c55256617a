"""Tests for config / fault-pattern serialization."""

import dataclasses
import json

import pytest

from repro.experiments.profiles import PAPER_PROFILE
from repro.simulator.config import SimConfig
from repro.util.serialization import (
    config_from_dict,
    config_to_dict,
    pattern_from_dict,
    pattern_to_dict,
)

PAPER_CONFIG = PAPER_PROFILE.config


class TestConfigRoundTrip:
    def test_round_trip_default(self):
        cfg = SimConfig(width=8)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_paper(self):
        assert config_from_dict(config_to_dict(PAPER_CONFIG)) == PAPER_CONFIG

    def test_json_safe(self):
        payload = config_to_dict(SimConfig(width=6, injection_rate=0.0123))
        assert json.loads(json.dumps(payload)) == payload

    def test_same_bytes_as_asdict(self):
        """The field-tuple read is `dataclasses.asdict` for a flat config:
        same items in the same order (store rows and `campaign.json` are
        written unsorted), hence the same run keys."""
        cfg = SimConfig(
            width=6, height=4, injection_rate=0.0123, deadlock_timeout=300,
            on_deadlock="drain", cycles_mode="auto", cycles_window=200,
        )
        expected = {**dataclasses.asdict(cfg), "schema": 1, "kind": "sim-config"}
        assert json.dumps(config_to_dict(cfg)) == json.dumps(expected)
        assert all(
            value is None or isinstance(value, (bool, int, float, str))
            for value in dataclasses.asdict(PAPER_CONFIG).values()
        ), "a non-scalar SimConfig field needs a copying read again"

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="not a sim-config"):
            config_from_dict({"kind": "other"})

    def test_schema_checked(self):
        payload = config_to_dict(SimConfig(width=6))
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            config_from_dict(payload)

    def test_invalid_fields_rejected_on_load(self):
        payload = config_to_dict(SimConfig(width=6))
        payload["buffer_depth"] = 0
        with pytest.raises(ValueError):
            config_from_dict(payload)


class TestPatternRoundTrip:
    def test_round_trip(self, center_fault):
        restored = pattern_from_dict(pattern_to_dict(center_fault))
        assert restored.faulty == center_fault.faulty
        assert restored.mesh == center_fault.mesh
        assert restored.regions == center_fault.regions

    def test_round_trip_random(self, scattered_faults):
        restored = pattern_from_dict(pattern_to_dict(scattered_faults))
        assert restored.faulty == scattered_faults.faulty

    def test_json_safe(self, center_fault):
        payload = pattern_to_dict(center_fault)
        assert json.loads(json.dumps(payload)) == payload

    def test_validation_reruns_on_load(self, mesh8):
        # Hand-edited payload violating the block model must be rejected.
        payload = {
            "kind": "fault-pattern",
            "schema": 1,
            "width": 8,
            "height": 8,
            "faulty": [mesh8.node_id(2, 2), mesh8.node_id(3, 2), mesh8.node_id(2, 3)],
        }
        with pytest.raises(ValueError, match="block fault model"):
            pattern_from_dict(payload)

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="not a fault-pattern"):
            pattern_from_dict({"kind": "sim-config"})
