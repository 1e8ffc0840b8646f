"""Tests for the experiment scenarios, runner helpers and the CLI."""

import pytest

from repro.baselines.lowest_id import LowestIdClustering
from repro.experiments.cli import build_parser, main
from repro.experiments.runner import ExperimentResult, attach_baseline, run_with_sampler, sweep
from repro.experiments.suite import ALL_EXPERIMENTS, run_experiment
from repro.scenarios import ScenarioSpec, build


def scenario(name, seed, **params):
    """Build the registered scenario ``name`` at ``seed``."""
    return build(ScenarioSpec.create(name, **params), seed=seed)


class TestScenarios:
    def test_static_random_builds_requested_size(self):
        deployment = build(ScenarioSpec.create("static_random", n=7, area=100.0,
                                               radio_range=40.0, dmax=2), seed=1)
        assert len(deployment.nodes) == 7
        assert deployment.config.dmax == 2

    def test_line_topology_is_a_chain(self):
        deployment = build(ScenarioSpec.create("line_topology", n=4, spacing=30.0,
                                               radio_range=35.0, dmax=2), seed=1)
        graph = deployment.topology()
        assert graph.number_of_edges() == 3

    def test_two_cluster_topology_starts_disconnected(self):
        deployment = build(ScenarioSpec.create("two_cluster_topology", cluster_size=2,
                                               gap=300.0, spacing=20.0, radio_range=50.0,
                                               dmax=2), seed=1)
        left = deployment.scenario_metadata["left"]
        right = deployment.scenario_metadata["right"]
        graph = deployment.topology()
        assert not any(graph.has_edge(a, b) for a in left for b in right)

    def test_ring_of_clusters_structure(self):
        deployment = build(ScenarioSpec.create("ring_of_clusters", cluster_count=3,
                                               cluster_size=2, ring_radius=80.0,
                                               cluster_radius=10.0, radio_range=60.0,
                                               dmax=2), seed=1)
        assert len(deployment.scenario_metadata["clusters"]) == 3
        assert len(deployment.nodes) == 6

    def test_mobile_scenarios_build_and_run(self):
        for spec in (
            ScenarioSpec.create("manet_waypoint", n=5, area=120.0, radio_range=60.0,
                                dmax=2, speed=2.0),
            ScenarioSpec.create("vanet_highway", n=5, road_length=500.0,
                                radio_range=120.0, dmax=2),
            ScenarioSpec.create("rpgm_scenario", group_sizes=[3, 2], area=200.0,
                                radio_range=80.0, dmax=2),
        ):
            deployment = build(spec, seed=1)
            deployment.run(5.0)
            assert deployment.sim.now >= 5.0

    def test_large_scale_scenarios_build_and_run(self):
        # Shrunk sizes: the defaults (1000 / 600 nodes) are exercised by the
        # spatial-index benchmark, not the unit tests.
        for spec in (
            ScenarioSpec.create("large_manet_waypoint", n=40, area=400.0,
                                radio_range=80.0, dmax=2),
            ScenarioSpec.create("dense_highway_convoy", n=30, road_length=600.0,
                                radio_range=100.0, dmax=2),
        ):
            deployment = build(spec, seed=1)
            assert not deployment.network.reference
            deployment.run(3.0)
            assert deployment.sim.now >= 3.0

    def test_large_scenario_spatial_index_toggle(self):
        spec = ScenarioSpec.create("large_manet_waypoint", n=10, area=200.0,
                                   radio_range=60.0, dmax=2)
        fast = build(spec, seed=1)
        scan = build(spec, seed=1)
        scan.network.reference = True
        fast.run(2.0)
        scan.run(2.0)
        assert scan.network._index is None and scan.network._array_ls is None
        assert fast.views() == scan.views()

    def test_deterministic_given_seed(self):
        spec = ScenarioSpec.create("static_random", n=6, area=100.0,
                                   radio_range=40.0, dmax=2)
        a = build(spec, seed=5)
        b = build(spec, seed=5)
        a.run(15.0)
        b.run(15.0)
        assert a.views() == b.views()


class TestRunner:
    def test_run_with_sampler_produces_samples(self):
        deployment = scenario("static_random", n=5, area=100.0, radio_range=60.0, dmax=2, seed=2)
        sampler = run_with_sampler(deployment, duration=10.0, sample_interval=2.0)
        assert len(sampler.samples) >= 5
        assert sampler.last.time >= 10.0

    def test_attach_baseline_views_cover_all_nodes(self):
        deployment = scenario("static_random", n=6, area=120.0, radio_range=60.0, dmax=2, seed=3)
        driver = attach_baseline(deployment, LowestIdClustering(), period=1.0)
        deployment.run(3.0)
        views = driver.views()
        assert set(views) == set(deployment.nodes)

    def test_sweep_collects_rows(self):
        rows = sweep([1, 2, 3], lambda v: {"value": v, "double": 2 * v})
        assert rows[2] == {"value": 3, "double": 6}

    def test_experiment_result_rendering(self):
        result = ExperimentResult("EX", "demo experiment")
        result.add_row(metric=1.0, ok=True)
        result.add_note("a note")
        text = result.to_text()
        assert "EX" in text and "a note" in text and "metric" in text


class TestSuiteAndCli:
    def test_registry_contains_eleven_experiments(self):
        assert len(ALL_EXPERIMENTS) == 11
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 12)}

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_cli_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out

    def test_cli_unknown_experiment_returns_error_code(self, capsys):
        assert main(["E99"]) == 2

    def test_cli_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "all"
        assert not args.full
