"""Connectivity of the entity–site graph (Section 5, Table 2, Figure 9).

The paper models iterative, bootstrapping-based source discovery as
reachability in the bipartite graph whose nodes are entities and
websites, with an edge when the site mentions the entity.  The
quantities it reports are:

- the number of connected components,
- the fraction of entities in the largest component (is a random seed
  set all-but-surely inside it?),
- the diameter d (a "perfect" set-expansion algorithm needs at most
  d/2 iterations), and
- robustness: the same after deleting the top-k sites (is the graph
  held together only by a few head aggregators?).

Components are scipy's connected-component labels over a CSR
adjacency that stores both directions of every edge.  BFS is scipy's
``breadth_first_order``, with levels read off the predecessor array.
The diameter is the Takes–Kosters BoundingDiameters algorithm seeded
by a double sweep: exact, and it needs only a handful of BFS
traversals on these small-world graphs.  The robustness curve deletes
the top sites once and adds them back one at a time with a
:class:`UnionFind` over the remaining graph's components, so it builds
one graph per curve instead of one per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.incidence import BipartiteIncidence

__all__ = [
    "ComponentSummary",
    "EntitySiteGraph",
    "GraphMetrics",
    "UnionFind",
    "robustness_curve",
]


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def find(self, x: int) -> int:
        """Root of x's component (with path compression)."""
        root = x
        parent = self.parent
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the components of a and b; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True

    def roots(self) -> np.ndarray:
        """Component root per element (fully compressed)."""
        parent = self.parent
        # Iterated pointer jumping: converges in O(log n) rounds.
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                return parent
            parent[:] = grandparent


@dataclass(frozen=True)
class ComponentSummary:
    """Connected-component structure of one entity–site graph.

    Only *present* nodes participate: entities with at least one
    mention and sites with at least one entity.  Entities missing from
    the corpus entirely are not graph nodes (the paper's graphs are
    built from observed mentions).
    """

    n_components: int
    n_present_entities: int
    n_present_sites: int
    largest_component_entities: int
    largest_component_sites: int
    component_entity_counts: np.ndarray

    @property
    def fraction_entities_in_largest(self) -> float:
        """Fraction of present entities inside the largest component."""
        if self.n_present_entities == 0:
            return 0.0
        return self.largest_component_entities / self.n_present_entities


class EntitySiteGraph:
    """Bipartite entity–site graph over an incidence structure.

    Node ids: entities keep their indices ``[0, n_entities)``; site s
    becomes node ``n_entities + s``.  Only present nodes are reachable.
    """

    def __init__(self, incidence: BipartiteIncidence) -> None:
        self.incidence = incidence
        n_entities = incidence.n_entities
        n = n_entities + incidence.n_sites
        self.n_nodes = n
        sizes = incidence.site_sizes()
        edge_sites = np.repeat(np.arange(incidence.n_sites), sizes) + n_entities
        # The incidence is already CSR by site, so the site half of the
        # adjacency is a straight copy; only the entity half needs a
        # grouping pass.  A stable sort of entity_idx alone (half the
        # edge list) keeps each entity's neighbour sites ascending,
        # matching what a full stable sort of both halves would produce.
        order = np.argsort(incidence.entity_idx, kind="stable")
        self._adj_ptr = np.zeros(n + 1, dtype=np.int64)
        entity_counts = np.bincount(incidence.entity_idx, minlength=n_entities)
        np.cumsum(entity_counts, out=self._adj_ptr[1:n_entities + 1])
        self._adj_ptr[n_entities + 1:] = self._adj_ptr[n_entities] + np.cumsum(
            sizes
        )
        n_edges = len(incidence.entity_idx)
        self._adj = np.empty(2 * n_edges, dtype=np.int64)
        self._adj[:n_edges] = edge_sites[order]
        self._adj[n_edges:] = incidence.entity_idx
        self._sparse = None
        self._labels = None

    def _sparse_adjacency(self):
        """The adjacency as a scipy CSR matrix (built once, shared).

        Data is float64 so the csgraph routines do not re-convert the
        matrix on every call.
        """
        if self._sparse is None:
            from scipy.sparse import csr_matrix

            self._sparse = csr_matrix(
                (
                    np.ones(len(self._adj), dtype=np.float64),
                    self._adj,
                    self._adj_ptr,
                ),
                shape=(self.n_nodes, self.n_nodes),
            )
        return self._sparse

    # -- basic structure -------------------------------------------------------

    def degree(self, node: int) -> int:
        """Number of neighbours of a node."""
        return int(self._adj_ptr[node + 1] - self._adj_ptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour node ids."""
        return self._adj[self._adj_ptr[node]:self._adj_ptr[node + 1]]

    def present_nodes(self) -> np.ndarray:
        """Nodes with at least one edge."""
        return np.flatnonzero(np.diff(self._adj_ptr) > 0)

    # -- components -------------------------------------------------------------

    def component_labels(self) -> np.ndarray:
        """Component label per node (computed once, shared).

        The adjacency stores both directions of every edge, so *strong*
        connectivity coincides with undirected connectivity — and the
        strong variant (Tarjan's algorithm) runs directly on the CSR
        matrix, skipping the symmetrization/CSC conversion that
        ``directed=False`` would pay on every call.
        """
        if self._labels is None:
            from scipy.sparse.csgraph import connected_components

            __, self._labels = connected_components(
                self._sparse_adjacency(), directed=True, connection="strong"
            )
        return self._labels

    def components(self) -> ComponentSummary:
        """Summarize the component structure over present nodes.

        Reads the shared :meth:`component_labels`.  The largest
        component is the one with the most nodes; ties go to the lowest
        label, which scipy gives to the component holding the smallest
        node id.
        """
        inc = self.incidence
        present = np.diff(self._adj_ptr) > 0
        entity_present = present[:inc.n_entities]
        site_present = present[inc.n_entities:]
        n_present_entities = int(entity_present.sum())
        n_present_sites = int(site_present.sum())
        if n_present_entities + n_present_sites == 0:
            return ComponentSummary(0, 0, 0, 0, 0, np.empty(0, dtype=np.int64))

        labels = self.component_labels()
        present_idx = np.flatnonzero(present)
        present_labels = labels[present_idx]
        unique_labels, compact = np.unique(present_labels, return_inverse=True)
        is_entity = present_idx < inc.n_entities
        entity_counts = np.bincount(
            compact[is_entity], minlength=len(unique_labels)
        )
        site_counts = np.bincount(
            compact[~is_entity], minlength=len(unique_labels)
        )
        largest = int(np.argmax(entity_counts + site_counts))
        return ComponentSummary(
            n_components=len(unique_labels),
            n_present_entities=n_present_entities,
            n_present_sites=n_present_sites,
            largest_component_entities=int(entity_counts[largest]),
            largest_component_sites=int(site_counts[largest]),
            component_entity_counts=np.sort(entity_counts)[::-1],
        )

    # -- BFS / distances ----------------------------------------------------------

    def bfs_levels(self, source: int) -> np.ndarray:
        """BFS distance from ``source`` to every node (-1 when unreachable).

        Runs :func:`scipy.sparse.csgraph.breadth_first_order` over the
        shared CSR adjacency — a C-level BFS, which is what makes the
        hundreds of traversals behind the exact-diameter computation
        (Table 2) practical.  The adjacency already stores both edge
        directions, so the query runs in directed mode to skip
        symmetrization.

        The BFS is FIFO, so the visit order is sorted by level and the
        parents' positions in it never decrease.  Level L + 1 is then
        the run of nodes whose parent sits in level L, and each level's
        end is one binary search over the parent positions.
        """
        from scipy.sparse.csgraph import breadth_first_order

        order, predecessors = breadth_first_order(
            self._sparse_adjacency(),
            int(source),
            directed=True,
            return_predecessors=True,
        )
        position = np.empty(self.n_nodes, dtype=np.int64)
        position[order] = np.arange(len(order))
        parent_position = position[predecessors[order[1:]]]
        level_ends = [1]
        while level_ends[-1] < len(order):
            level_ends.append(
                1 + int(np.searchsorted(parent_position, level_ends[-1]))
            )
        levels = np.full(self.n_nodes, -1, dtype=np.int64)
        levels[order] = np.repeat(
            np.arange(len(level_ends)), np.diff(level_ends, prepend=0)
        )
        return levels

    def eccentricity(self, node: int) -> int:
        """Longest shortest path from ``node`` within its component."""
        levels = self.bfs_levels(node)
        return int(levels.max())

    def eccentricity_sample(
        self,
        sample_size: int = 64,
        rng: np.random.Generator | int = 0,
    ) -> np.ndarray:
        """Eccentricities of a random sample of largest-component nodes.

        The d/2 iteration bound of Section 5 is a worst case; the
        *typical* number of expansion iterations from a seed node v is
        ``ecc(v)/2``.  Sampling the eccentricity distribution shows how
        tight the worst case is: in these small-world graphs most nodes
        sit within one hop of the radius.

        Returns:
            Sorted eccentricities (ascending); empty when the graph has
            no edges.
        """
        if sample_size < 1:
            raise ValueError("sample_size must be positive")
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        present = self.present_nodes()
        if len(present) == 0:
            return np.empty(0, dtype=np.int64)
        degrees = np.diff(self._adj_ptr)
        hub = int(present[np.argmax(degrees[present])])
        component = np.flatnonzero(self.bfs_levels(hub) >= 0)
        picks = rng.choice(
            component, size=min(sample_size, len(component)), replace=False
        )
        eccentricities = np.array(
            [self.eccentricity(int(node)) for node in picks], dtype=np.int64
        )
        return np.sort(eccentricities)

    def _sweep_twice(self, start: int) -> tuple[int, np.ndarray]:
        """BFS from ``start``, then from the farthest node a it finds.

        Returns:
            ``(a, levels_a)``; ``levels_a.max()`` lower-bounds the
            diameter of start's component.
        """
        a = int(np.argmax(self.bfs_levels(start)))
        return a, self.bfs_levels(a)

    def double_sweep(self, start: int) -> tuple[int, int, int]:
        """Double-sweep heuristic: a diameter lower bound and a midpoint.

        BFS from ``start`` finds a farthest node a; BFS from a finds a
        farthest node b.  dist(a, b) lower-bounds the diameter, and a
        node halfway along is a good iFUB root.

        Returns:
            ``(lower_bound, root, a)`` where root is the halfway node.
        """
        a, levels_a = self._sweep_twice(start)
        b = int(np.argmax(levels_a))
        lower = int(levels_a[b])
        # Walk back from b towards a along BFS parents to find the middle.
        half = lower // 2
        # Any node at distance `half` from a that is on a shortest path works;
        # approximate with a node at that level closest to b's branch: use a
        # BFS from b and pick a node with d(a,.) == half and minimal d(b,.).
        levels_b = self.bfs_levels(b)
        on_path = np.flatnonzero(
            (levels_a >= 0) & (levels_b >= 0) & (levels_a + levels_b == lower)
        )
        candidates = on_path[levels_a[on_path] == half]
        root = int(candidates[0]) if len(candidates) else a
        return lower, root, a

    def diameter(self, max_bfs: int | None = None) -> int:
        """Exact diameter of the largest connected component.

        Implements the Takes–Kosters *BoundingDiameters* algorithm:
        every BFS from a node v yields its exact eccentricity and, via
        the triangle inequality, tightens per-node eccentricity bounds
        ``max(d(v,u), ecc(v) - d(v,u)) <= ecc(u) <= ecc(v) + d(v,u)``.
        Nodes whose upper bound cannot exceed the current diameter lower
        bound are pruned; the algorithm alternates between the node with
        the largest upper bound (diameter candidates) and the smallest
        lower bound (strong pruners).  On small-world graphs like these
        entity–site graphs, it terminates after a handful of BFS
        traversals — unlike iFUB, it does not degenerate when the
        diameter is close to the radius.

        For a disconnected graph the result is the maximum over the
        diameters of its components — the smallest d such that every
        *connected* pair of nodes is within d hops (the bound relevant
        to set expansion, which can never cross components anyway).
        Components are processed largest-first with a size-based prune:
        a component of n nodes cannot have diameter above n - 1, so
        once the running maximum reaches that bound the remaining
        (smaller) components are skipped.

        Args:
            max_bfs: Optional per-component safety cap; when hit, the
                current lower bound is returned (a valid diameter lower
                bound).
        """
        present = self.present_nodes()
        if len(present) == 0:
            return 0
        labels = self.component_labels()
        component_labels, counts = np.unique(labels[present], return_counts=True)
        order = np.argsort(counts)[::-1]
        best = 0
        for index in order:
            size = int(counts[index])
            if size - 1 <= best:
                break
            members = present[labels[present] == component_labels[index]]
            best = max(best, self._component_diameter(members, max_bfs))
        return best

    def _component_diameter(
        self, component: np.ndarray, max_bfs: int | None
    ) -> int:
        """BoundingDiameters within one connected component."""
        if len(component) <= 1:
            return 0
        degrees = np.diff(self._adj_ptr)
        start = int(component[np.argmax(degrees[component])])

        ecc_lower = np.zeros(self.n_nodes, dtype=np.int64)
        ecc_upper = np.full(self.n_nodes, np.iinfo(np.int64).max, dtype=np.int64)
        active = np.zeros(self.n_nodes, dtype=bool)
        active[component] = True
        # Seed the lower bound with a double sweep: it almost always
        # finds the true diameter immediately, so the main loop spends
        # its budget proving optimality rather than searching.
        diameter_lower = int(self._sweep_twice(start)[1].max())
        bfs_budget = max_bfs if max_bfs is not None else len(component)
        pick_upper = True

        for _ in range(bfs_budget):
            candidates = np.flatnonzero(active)
            if len(candidates) == 0:
                break
            if pick_upper:
                node = int(candidates[np.argmax(ecc_upper[candidates])])
            else:
                node = int(candidates[np.argmin(ecc_lower[candidates])])
            pick_upper = not pick_upper

            levels = self.bfs_levels(node)
            distances = levels[component]
            ecc = int(distances.max())
            diameter_lower = max(diameter_lower, ecc)
            ecc_lower[component] = np.maximum(
                ecc_lower[component], np.maximum(distances, ecc - distances)
            )
            ecc_upper[component] = np.minimum(
                ecc_upper[component], ecc + distances
            )
            # Nodes whose bounds met have a known eccentricity: fold it
            # into the diameter bound, then prune them along with every
            # node that can no longer raise the bound.
            settled = ecc_lower[component] == ecc_upper[component]
            if settled.any():
                diameter_lower = max(
                    diameter_lower, int(ecc_lower[component][settled].max())
                )
            done = ecc_upper[component] <= diameter_lower
            active[component[done | settled]] = False
            if not active[component].any():
                break
        return diameter_lower


@dataclass(frozen=True)
class GraphMetrics:
    """One row of the paper's Table 2."""

    domain: str
    attribute: str
    avg_sites_per_entity: float
    diameter: int
    n_components: int
    pct_entities_in_largest: float

    @classmethod
    def measure(
        cls,
        incidence: BipartiteIncidence,
        domain: str,
        attribute: str,
        max_bfs: int | None = 256,
    ) -> "GraphMetrics":
        """Measure all Table 2 quantities for one (domain, attribute)."""
        graph = EntitySiteGraph(incidence)
        summary = graph.components()
        return cls(
            domain=domain,
            attribute=attribute,
            avg_sites_per_entity=incidence.average_sites_per_entity(),
            diameter=graph.diameter(max_bfs=max_bfs),
            n_components=summary.n_components,
            pct_entities_in_largest=100.0 * summary.fraction_entities_in_largest,
        )


def robustness_curve(
    incidence: BipartiteIncidence,
    max_removed: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Largest-component entity fraction after removing top-k sites.

    Figure 9 of the paper: for k = 0..max_removed, delete the k sites
    mentioning the most entities and report the fraction of entities in
    the largest remaining component.  The denominator is fixed at the
    number of entities present in the *original* graph, so entities
    stranded by the removal count against the fraction.

    Runs offline in reverse: one graph with every removed site deleted
    gives the component labels at k = max_removed, then the sites go
    back one at a time (k = max_removed - 1 down to 0) through a
    :class:`UnionFind` over those labels.  Each root tracks its entity
    count, node count and smallest node id, so the largest component is
    the one with the most nodes, ties going to the smallest entity —
    the same pick :meth:`EntitySiteGraph.components` makes.

    Returns:
        ``(ks, fractions)`` arrays of length ``max_removed + 1``.
    """
    if max_removed < 0:
        raise ValueError("max_removed must be non-negative")
    ks = np.arange(max_removed + 1)
    fractions = np.zeros(len(ks))
    original_entities = len(incidence.mentioned_entities())
    if not original_entities:
        return ks, fractions
    removed = incidence.sites_by_size()[:max_removed]
    labels = EntitySiteGraph(incidence.drop_sites(removed)).component_labels()
    n_labels = int(labels.max()) + 1
    # Per component of the remaining graph: entity count, node count
    # and smallest node id.  Unmentioned entities and empty sites are
    # single-node components; a present one has an entity and a site.
    entity_count = np.bincount(labels[:incidence.n_entities], minlength=n_labels)
    node_count = np.bincount(labels)
    first_node = np.unique(labels, return_index=True)[1]
    tied = np.flatnonzero(node_count == node_count.max())
    best = int(tied[np.argmin(first_node[tied])])
    best_key = (int(node_count[best]), -int(first_node[best]))
    best_entities = int(entity_count[best]) if best_key[0] > 1 else 0
    # The removed sites join as singletons after the remaining graph's
    # components, with a smallest node id past every real one.
    entities = entity_count.tolist() + [0] * len(removed)
    nodes = node_count.tolist() + [1] * len(removed)
    first = first_node.tolist() + [len(labels)] * len(removed)
    uf = UnionFind(n_labels + len(removed))
    fractions[len(removed):] = best_entities / original_entities
    for k in range(len(removed) - 1, -1, -1):
        site = n_labels + k
        touched = np.unique(labels[incidence.site_entities(int(removed[k]))])
        roots = {uf.find(int(label)) for label in touched} | {site}
        for root in roots:
            uf.union(site, root)
        merged = uf.find(site)
        entities[merged] = sum(entities[root] for root in roots)
        nodes[merged] = sum(nodes[root] for root in roots)
        first[merged] = min(first[root] for root in roots)
        key = (nodes[merged], -first[merged])
        if key > best_key:
            best_key, best_entities = key, entities[merged]
        fractions[k] = best_entities / original_entities
    return ks, fractions
