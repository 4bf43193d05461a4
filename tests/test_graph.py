"""Unit and property tests for the entity-site graph analysis.

Components, BFS distances, and exact diameters are cross-checked
against networkx on randomized graphs.  The BFS levels and the
robustness curve are also pinned to the straightforward kernels they
replaced: scipy's unweighted ``dijkstra``, and one graph rebuild per
number of removed sites.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.core.graph import (
    EntitySiteGraph,
    GraphMetrics,
    UnionFind,
    robustness_curve,
)
from repro.core.incidence import BipartiteIncidence
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.experiments import TABLE2_ROWS, spread_incidence


def to_networkx(inc: BipartiteIncidence) -> nx.Graph:
    graph = nx.Graph()
    for s in range(inc.n_sites):
        site_node = inc.n_entities + s
        for e in inc.site_entities(s).tolist():
            graph.add_edge(e, site_node)
    return graph


def dijkstra_levels(graph: EntitySiteGraph, source: int) -> np.ndarray:
    """Reference BFS levels: scipy's unweighted shortest paths."""
    distances = dijkstra(
        graph._sparse_adjacency(),
        directed=True,
        unweighted=True,
        indices=int(source),
    )
    levels = np.full(graph.n_nodes, -1, dtype=np.int64)
    reachable = np.isfinite(distances)
    levels[reachable] = distances[reachable].astype(np.int64)
    return levels


def robustness_reference(
    incidence: BipartiteIncidence, max_removed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference Figure 9 curve: rebuild the graph for every k."""
    original_entities = len(incidence.mentioned_entities())
    ranking = incidence.sites_by_size()
    ks = np.arange(max_removed + 1)
    fractions = np.zeros(len(ks))
    for i, k in enumerate(ks):
        remaining = incidence.drop_sites(ranking[:k]) if k else incidence
        summary = EntitySiteGraph(remaining).components()
        if original_entities:
            fractions[i] = summary.largest_component_entities / original_entities
    return ks, fractions


@pytest.fixture(scope="module")
def tiny_table2_incidences() -> list[BipartiteIncidence]:
    """The 17 Table 2 / Figure 9 corpora at ``tiny`` scale."""
    config = ExperimentConfig(scale="tiny", seed=0)
    return [
        spread_incidence(domain, attribute, config)
        for domain, attribute in TABLE2_ROWS
    ]


# -- UnionFind -------------------------------------------------------------------


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.n_components == 4
        assert uf.find(0) == uf.find(1)
        assert uf.find(2) != uf.find(0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_roots_consistent_with_find(self):
        uf = UnionFind(10)
        rng = np.random.default_rng(3)
        for _ in range(15):
            a, b = rng.integers(10, size=2)
            uf.union(int(a), int(b))
        roots = uf.roots()
        for x in range(10):
            assert roots[x] == uf.find(x)

    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=40))
    @settings(max_examples=60)
    def test_property_matches_networkx(self, unions):
        uf = UnionFind(15)
        graph = nx.Graph()
        graph.add_nodes_from(range(15))
        for a, b in unions:
            uf.union(a, b)
            graph.add_edge(a, b)
        assert uf.n_components == nx.number_connected_components(graph)


# -- components ---------------------------------------------------------------------


class TestComponents:
    def test_tiny_structure(self, tiny_incidence):
        summary = EntitySiteGraph(tiny_incidence).components()
        assert summary.n_components == 2
        assert summary.n_present_entities == 6
        assert summary.n_present_sites == 4
        assert summary.largest_component_entities == 5
        assert summary.fraction_entities_in_largest == pytest.approx(5 / 6)
        assert summary.component_entity_counts.tolist() == [5, 1]

    def test_unmentioned_entities_not_in_graph(self):
        inc = BipartiteIncidence.from_site_lists(
            n_entities=10, sites=[("a.example", [0, 1])]
        )
        summary = EntitySiteGraph(inc).components()
        assert summary.n_present_entities == 2
        assert summary.n_components == 1

    def test_empty_graph(self):
        inc = BipartiteIncidence.from_site_lists(n_entities=3, sites=[])
        summary = EntitySiteGraph(inc).components()
        assert summary.n_components == 0
        assert summary.fraction_entities_in_largest == 0.0

    def test_components_match_networkx(self, random_incidence):
        summary = EntitySiteGraph(random_incidence).components()
        reference = to_networkx(random_incidence)
        assert summary.n_components == nx.number_connected_components(reference)
        largest = max(nx.connected_components(reference), key=len)
        entities_in_largest = sum(
            1 for node in largest if node < random_incidence.n_entities
        )
        assert summary.largest_component_entities == entities_in_largest


# -- BFS / diameter ------------------------------------------------------------------


class TestDistances:
    def test_bfs_levels_tiny(self, tiny_incidence):
        graph = EntitySiteGraph(tiny_incidence)
        levels = graph.bfs_levels(0)  # entity 0
        assert levels[0] == 0
        assert levels[6] == 1  # big.example (node n_entities + 0)
        assert levels[1] == 2  # sibling entity via big.example
        assert levels[4] == 4  # entity 4 via mid.example
        assert levels[5] == -1  # island unreachable

    def test_eccentricity(self, tiny_incidence):
        graph = EntitySiteGraph(tiny_incidence)
        assert graph.eccentricity(0) == 5  # entity0 ... small.example

    def test_degree_and_neighbors(self, tiny_incidence):
        graph = EntitySiteGraph(tiny_incidence)
        assert graph.degree(0) == 1
        assert graph.degree(6) == 4
        assert set(graph.neighbors(6).tolist()) == {0, 1, 2, 3}

    def test_diameter_tiny(self, tiny_incidence):
        # Largest component: path small.example-4-mid-{2,3}-big-{0,1}
        assert EntitySiteGraph(tiny_incidence).diameter() == 5

    def test_diameter_single_node_component(self):
        inc = BipartiteIncidence.from_site_lists(
            n_entities=1, sites=[("solo.example", [0])]
        )
        assert EntitySiteGraph(inc).diameter() == 1

    def test_diameter_empty(self):
        inc = BipartiteIncidence.from_site_lists(n_entities=2, sites=[])
        assert EntitySiteGraph(inc).diameter() == 0

    def test_bfs_matches_networkx(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        reference = to_networkx(random_incidence)
        source = int(random_incidence.site_entities(0)[0])
        expected = nx.single_source_shortest_path_length(reference, source)
        levels = graph.bfs_levels(source)
        for node, distance in expected.items():
            assert levels[node] == distance

    def test_diameter_matches_networkx(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        reference = to_networkx(random_incidence)
        largest = max(nx.connected_components(reference), key=len)
        expected = nx.diameter(reference.subgraph(largest))
        assert graph.diameter() == expected

    def test_double_sweep_lower_bound(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        start = int(graph.present_nodes()[0])
        lower, root, __ = graph.double_sweep(start)
        assert lower <= graph.diameter()
        assert graph.bfs_levels(start)[root] >= 0  # root in same component

    def test_capped_diameter_keeps_bfs_sequence(
        self, tiny_table2_incidences, monkeypatch
    ):
        """``max_bfs`` binds on most rows, so the answer depends on the
        exact BFS sources: both BFS kernels must be fed the same ones."""

        def traced_diameters(bfs):
            sources = []

            def traced(graph, source):
                sources.append(int(source))
                return bfs(graph, source)

            monkeypatch.setattr(EntitySiteGraph, "bfs_levels", traced)
            diameters = [
                EntitySiteGraph(inc).diameter(max_bfs=64)
                for inc in tiny_table2_incidences
            ]
            return diameters, sources

        fast = traced_diameters(EntitySiteGraph.bfs_levels)
        reference = traced_diameters(dijkstra_levels)
        assert fast == reference


@st.composite
def bfs_cases(draw):
    """An incidence whose last entity is unmentioned, and any source."""
    n_entities = draw(st.integers(min_value=1, max_value=14))
    sites = draw(
        st.lists(
            st.lists(st.integers(0, n_entities - 1), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    inc = BipartiteIncidence.from_site_lists(
        n_entities=n_entities + 1,
        sites=[(f"s{s}", entities) for s, entities in enumerate(sites)],
    )
    source = draw(st.integers(0, inc.n_entities + inc.n_sites - 1))
    return inc, source


@given(bfs_cases())
@example(
    (
        # Entity 2 is unmentioned: 0 at the source, -1 everywhere else.
        BipartiteIncidence.from_site_lists(
            n_entities=3, sites=[("s0", [0, 1])]
        ),
        2,
    )
)
@settings(max_examples=100, deadline=None)
def test_property_bfs_levels_match_dijkstra(case):
    inc, source = case
    graph = EntitySiteGraph(inc)
    levels = graph.bfs_levels(source)
    assert levels.dtype == np.int64
    assert np.array_equal(levels, dijkstra_levels(graph, source))


@st.composite
def connected_ish_incidence(draw):
    n_entities = draw(st.integers(min_value=2, max_value=14))
    n_sites = draw(st.integers(min_value=1, max_value=6))
    sites = []
    for s in range(n_sites):
        entities = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_entities - 1),
                min_size=1,
                max_size=6,
            )
        )
        sites.append((f"s{s}", entities))
    return BipartiteIncidence.from_site_lists(n_entities=n_entities, sites=sites)


@given(connected_ish_incidence())
@settings(max_examples=50, deadline=None)
def test_property_diameter_exact(inc):
    """BoundingDiameters equals networkx's exact diameter.

    The library defines the diameter of a disconnected graph as the
    max over its components, so the reference does the same.
    """
    reference = to_networkx(inc)
    expected = max(
        (
            nx.diameter(reference.subgraph(component))
            for component in nx.connected_components(reference)
            if len(component) > 1
        ),
        default=0,
    )
    assert EntitySiteGraph(inc).diameter() == expected


@given(connected_ish_incidence())
@settings(max_examples=50, deadline=None)
def test_property_components_exact(inc):
    summary = EntitySiteGraph(inc).components()
    reference = to_networkx(inc)
    assert summary.n_components == nx.number_connected_components(reference)


# -- metrics & robustness --------------------------------------------------------------


class TestMetricsAndRobustness:
    def test_graph_metrics_row(self, tiny_incidence):
        metrics = GraphMetrics.measure(tiny_incidence, "demo", "phone")
        assert metrics.domain == "demo"
        assert metrics.diameter == 5
        assert metrics.n_components == 2
        assert metrics.avg_sites_per_entity == pytest.approx(9 / 6)
        assert metrics.pct_entities_in_largest == pytest.approx(100 * 5 / 6)

    def test_robustness_curve_tiny(self, tiny_incidence):
        ks, fractions = robustness_curve(tiny_incidence, max_removed=2)
        assert ks.tolist() == [0, 1, 2]
        assert fractions[0] == pytest.approx(5 / 6)
        # removing big.example leaves mid+small component of 3 entities
        assert fractions[1] == pytest.approx(3 / 6)

    def test_robustness_denominator_fixed(self, tiny_incidence):
        __, fractions = robustness_curve(tiny_incidence, max_removed=4)
        # with every site removed nothing is in any component
        assert fractions[-1] == pytest.approx(0.0)

    def test_robustness_rejects_negative(self, tiny_incidence):
        with pytest.raises(ValueError):
            robustness_curve(tiny_incidence, max_removed=-1)

    def test_robustness_monotone_nonincreasing(self, random_incidence):
        __, fractions = robustness_curve(random_incidence, max_removed=5)
        assert np.all(np.diff(fractions) <= 1e-12)

    def test_robustness_matches_reference_on_table2_panels(
        self, tiny_table2_incidences
    ):
        for inc in tiny_table2_incidences:
            ks, fractions = robustness_curve(inc, max_removed=10)
            expected_ks, expected = robustness_reference(inc, max_removed=10)
            assert np.array_equal(ks, expected_ks)
            assert np.array_equal(fractions, expected)


@st.composite
def robustness_cases(draw):
    """An incidence and a removal budget for the Figure 9 curve.

    Covers empty corpora, unmentioned entities, empty sites and budgets
    past the site count.  When drawn, it adds two components with the
    same node count but different entity counts: one site with three
    entities, and two sites sharing two entities.  Entity and site
    order are shuffled, so either one may hold the smallest entity.
    """
    n_entities = draw(st.integers(min_value=0, max_value=10))
    site = (
        st.lists(st.integers(0, n_entities - 1), max_size=5)
        if n_entities
        else st.just([])
    )
    sites = draw(st.lists(site, max_size=6))
    if draw(st.booleans()):
        a, b = n_entities, n_entities + 3
        sites += [[a, a + 1, a + 2], [b, b + 1], [b + 1]]
        n_entities += 5
    relabel = draw(st.permutations(range(n_entities)))
    sites = draw(st.permutations(sites))
    inc = BipartiteIncidence.from_site_lists(
        n_entities=n_entities,
        sites=[
            (f"s{s}", [relabel[e] for e in entities])
            for s, entities in enumerate(sites)
        ],
    )
    return inc, draw(st.integers(0, len(sites) + 2))


@given(robustness_cases())
@example((BipartiteIncidence.from_site_lists(n_entities=3, sites=[]), 2))
@example(
    (
        # Tied at four nodes: {a, 1, 2, 4} holds three entities,
        # {b, c, 0, 3} two, and the tie goes to the one with entity 0.
        BipartiteIncidence.from_site_lists(
            n_entities=5,
            sites=[("a", [1, 2, 4]), ("b", [0, 3]), ("c", [0])],
        ),
        5,
    )
)
@settings(max_examples=200, deadline=None)
def test_property_robustness_matches_reference(case):
    inc, max_removed = case
    ks, fractions = robustness_curve(inc, max_removed=max_removed)
    expected_ks, expected = robustness_reference(inc, max_removed)
    assert np.array_equal(ks, expected_ks)
    assert np.array_equal(fractions, expected)


class TestEccentricitySample:
    def test_bounded_by_radius_and_diameter(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        eccentricities = graph.eccentricity_sample(sample_size=32, rng=1)
        diameter = graph.diameter()
        assert len(eccentricities) > 0
        assert eccentricities.max() <= diameter
        # radius >= diameter / 2 for any graph
        assert eccentricities.min() >= (diameter + 1) // 2

    def test_sorted_output(self, random_incidence):
        graph = EntitySiteGraph(random_incidence)
        eccentricities = graph.eccentricity_sample(sample_size=16, rng=2)
        assert (np.diff(eccentricities) >= 0).all()

    def test_empty_graph(self):
        inc = BipartiteIncidence.from_site_lists(n_entities=2, sites=[])
        assert EntitySiteGraph(inc).eccentricity_sample().size == 0

    def test_validation(self, random_incidence):
        with pytest.raises(ValueError):
            EntitySiteGraph(random_incidence).eccentricity_sample(sample_size=0)
