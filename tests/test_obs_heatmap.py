"""Spatial telemetry (`repro.obs.heatmap`): surfaces, rendering, CSV,
and the reconciliation tying `engine.node_flit_hops` back to the
Figure 6 traffic-load split from `repro.metrics.traffic_load`."""

import json

import pytest

from repro.faults.generator import figure6_fault_pattern
from repro.metrics.traffic_load import traffic_load_split
from repro.obs.cli import main as obs_main
from repro.obs.heatmap import (
    METRICS,
    heatmap_csv,
    node_surface,
    render_node_heatmap,
    surface_split,
)
from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.mesh import Mesh2D


def _fig6_run(width=10, cycles=1200, algorithm="duato-nbc"):
    """One instrumented Fig. 6-layout run; warmup=0 so the telemetry
    window and the result's measurement window coincide."""
    cfg = SimConfig(
        width=width, vcs_per_channel=24, message_length=8,
        injection_rate=0.02, cycles=cycles, warmup=0, seed=7,
        on_deadlock="drain", collect_node_stats=True,
    )
    mesh = Mesh2D(cfg.width, cfg.height)
    faults = figure6_fault_pattern(mesh)
    registry = TelemetryRegistry()
    sim = Simulation(cfg, make_algorithm(algorithm), faults=faults)
    sim.attach(EngineTelemetry(registry))
    return sim.run(), registry, faults, mesh


class TestNodeSurface:
    def test_from_registry_and_snapshot_agree(self):
        _result, registry, _faults, mesh = _fig6_run(width=8, cycles=500)
        from_registry = node_surface(registry, "hops")
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert node_surface(snapshot, "hops") == from_registry
        assert len(from_registry) == mesh.n_nodes

    def test_metric_aliases_and_full_names(self):
        _result, registry, _f, _m = _fig6_run(width=8, cycles=300)
        assert node_surface(registry, "hops") == node_surface(
            registry, METRICS["hops"]
        )
        assert sum(node_surface(registry, "blocked")) >= 0

    def test_missing_and_mistyped_metrics(self):
        registry = TelemetryRegistry()
        registry.counter("engine.node_flit_hops.wrong")
        with pytest.raises(KeyError):
            node_surface(registry, "hops")
        with pytest.raises(KeyError):
            node_surface(registry.snapshot(), "hops")
        registry.counter("scalar")
        with pytest.raises(TypeError):
            node_surface(registry, "scalar")
        with pytest.raises(TypeError):
            node_surface(registry.snapshot(), "scalar")


class TestRendering:
    def test_heatmap_marks_faults_and_title(self):
        _result, registry, faults, _mesh = _fig6_run(width=8, cycles=300)
        art = render_node_heatmap(faults, registry, title="demo")
        assert "demo" in art
        assert "X" in art  # faulty nodes

    def test_csv_has_row_per_node(self):
        _result, registry, _faults, mesh = _fig6_run(width=8, cycles=300)
        values = node_surface(registry)
        csv = heatmap_csv(mesh, values)
        lines = csv.strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == mesh.n_nodes + 1
        assert lines[1] == f"0,0,{values[0]}"

    def test_csv_length_mismatch(self):
        with pytest.raises(ValueError, match="node values"):
            heatmap_csv(Mesh2D(4), [1, 2, 3])

    def test_cli_heatmap_verb(self, tmp_path, capsys):
        csv_path = tmp_path / "surface.csv"
        code = obs_main([
            "heatmap", "--width", "8", "--vcs", "20", "--fig6",
            "--cycles", "400", "--csv", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.node_flit_hops" in out
        assert "f-ring nodes:" in out
        assert csv_path.read_text().startswith("x,y,value")

    def test_cli_heatmap_fault_free(self, capsys):
        code = obs_main([
            "heatmap", "--width", "6", "--vcs", "16", "--faults", "0",
            "--cycles", "300", "--metric", "blocked",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.node_blocked" in out
        assert "f-ring" not in out  # no rings without faults


class TestFig6Reconciliation:
    """The telemetry surface must retell Figure 6's story exactly."""

    def test_surface_equals_node_load_and_split_matches(self):
        result, registry, faults, _mesh = _fig6_run()
        surface = node_surface(registry, "hops")
        # warmup=0: the counter and the measurement window coincide.
        assert surface == result.node_load
        from_telemetry = surface_split(
            surface,
            faults.ring_nodes,
            cycles=result.measured_cycles,
            exclude=faults.faulty,
        )
        from_result = traffic_load_split(
            result, faults.ring_nodes, exclude=faults.faulty
        )
        assert from_telemetry == from_result
        # Fig. 6's claim: f-ring nodes run hotter than the rest.
        assert from_telemetry.ring_load_pct > from_telemetry.other_load_pct

    def test_split_validates_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            surface_split([], [0], cycles=10)
        with pytest.raises(ValueError, match="non-empty"):
            surface_split([1, 2], [0, 1], cycles=10)

    def test_split_zero_traffic(self):
        split = surface_split([0, 0, 0, 0], [1], cycles=10)
        assert split.ring_load_pct == 0.0
        assert split.peak_load_flits_per_cycle == 0.0
