"""Tests for Message and SimConfig plus the algorithm registry."""

import pytest

from repro.routing.registry import (
    ALGORITHM_NAMES,
    DISPLAY_NAMES,
    PAPER_ORDER,
    display_name,
    make_algorithm,
)
from repro.experiments.profiles import PAPER_PROFILE, QUICK_PROFILE
from repro.simulator.config import SimConfig
from repro.simulator.message import HEAD, TAIL, Message

PAPER_CONFIG = PAPER_PROFILE.config


class TestMessage:
    def test_fields(self):
        m = Message(7, 0, 5, 100, created=12)
        assert (m.id, m.src, m.dst, m.length, m.created) == (7, 0, 5, 100, 12)
        assert m.injected == -1 and m.delivered == -1
        assert m.cls == -1 and m.cards == 0

    def test_latency_requires_delivery(self):
        m = Message(0, 0, 1, 4, created=0)
        with pytest.raises(ValueError):
            _ = m.latency
        m.delivered = 10
        assert m.latency == 10
        with pytest.raises(ValueError):
            _ = m.network_latency
        m.injected = 3
        assert m.network_latency == 7

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Message(0, 5, 5, 4, created=0)
        with pytest.raises(ValueError):
            Message(0, 0, 1, 0, created=0)

    def test_flit_kind_constants(self):
        assert HEAD == 0 and TAIL == 2


class TestSimConfig:
    def test_defaults_match_paper(self):
        assert PAPER_CONFIG.width == 10
        assert PAPER_CONFIG.vcs_per_channel == 24
        assert PAPER_CONFIG.message_length == 100
        assert PAPER_CONFIG.cycles == 30_000
        assert PAPER_CONFIG.warmup == 10_000

    def test_quick_profile_same_radix(self):
        quick = QUICK_PROFILE.config
        assert quick.width == PAPER_CONFIG.width
        assert quick.vcs_per_channel == PAPER_CONFIG.vcs_per_channel

    def test_height_defaults_to_width(self):
        cfg = SimConfig(width=6)
        assert cfg.height == 6

    def test_with_(self):
        cfg = SimConfig(width=6)
        cfg2 = cfg.with_(injection_rate=0.5, seed=7)
        assert cfg2.injection_rate == 0.5 and cfg2.seed == 7
        assert cfg.injection_rate != 0.5  # original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(vcs_per_channel=0),
            dict(buffer_depth=0),
            dict(message_length=0),
            dict(injection_rate=-1.0),
            dict(warmup=99999),
            dict(injection_vcs=0),
            dict(injection_vcs=99),
            dict(deadlock_timeout=0),
            dict(on_deadlock="nope"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(width=8, **kwargs)


class TestRegistry:
    def test_paper_algorithms_plus_baselines(self):
        # The paper's eleven curves plus the e-cube extension baseline.
        assert len(PAPER_ORDER) == 11
        assert set(PAPER_ORDER) < set(ALGORITHM_NAMES)
        assert "ecube" in ALGORITHM_NAMES and "ecube" not in PAPER_ORDER

    def test_make_algorithm_fresh_instances(self):
        a = make_algorithm("nhop")
        b = make_algorithm("nhop")
        assert a is not b
        assert a.name == "nhop"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_algorithm("xy")

    def test_display_names_cover_all(self):
        assert set(DISPLAY_NAMES) == set(ALGORITHM_NAMES)
        assert display_name("duato") == "Duato's routing"
        assert display_name("boura-ft") == "Boura (Fault-Tolerant)"
        assert display_name("something-else") == "something-else"

    def test_deadlock_free_flags(self):
        expected_unsafe = {"minimal-adaptive", "fully-adaptive"}
        for name in ALGORITHM_NAMES:
            alg = make_algorithm(name)
            assert alg.deadlock_free == (name not in expected_unsafe), name
