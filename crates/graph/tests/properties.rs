//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use lcs_graph::{
    bfs_distances, connected_components, diameter_exact, diameter_lower_bound_double_sweep,
    generators, is_connected, kruskal_mst, mst_weight, prim_mst, EdgeWeights, Graph, NodeId,
    PartId, Partition, RootedTree, UnionFind,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BFS trees of connected random graphs are spanning and depth-consistent.
    #[test]
    fn bfs_tree_spans_random_connected_graphs(
        n in 2usize..60,
        extra in 0usize..40,
        seed in 0u64..1_000,
        root_choice in 0usize..1_000,
    ) {
        let g = generators::random_connected(n, extra, seed);
        let root = NodeId::new(root_choice % n);
        let t = RootedTree::bfs(&g, root);
        prop_assert_eq!(t.tree_edges().count(), n - 1);
        prop_assert_eq!(t.root(), root);
        // Depth equals BFS distance from the root.
        let bfs = bfs_distances(&g, root);
        for v in g.nodes() {
            prop_assert_eq!(Some(t.depth(v)), bfs.dist[v.index()]);
        }
        // Tree depth is at most the diameter of the graph.
        prop_assert!(t.depth_of_tree() <= diameter_exact(&g));
    }

    /// The double-sweep bound never exceeds the exact diameter.
    #[test]
    fn double_sweep_is_a_lower_bound(
        n in 2usize..50,
        extra in 0usize..30,
        seed in 0u64..1_000,
    ) {
        let g = generators::random_connected(n, extra, seed);
        let exact = diameter_exact(&g);
        let lb = diameter_lower_bound_double_sweep(&g, NodeId::new(0));
        prop_assert!(lb <= exact);
        // On trees the double sweep is exact.
        let t = generators::random_tree(n, seed);
        prop_assert_eq!(
            diameter_lower_bound_double_sweep(&t, NodeId::new(0)),
            diameter_exact(&t)
        );
    }

    /// Kruskal and Prim agree whenever edge weights are distinct, and the
    /// MST weight never exceeds the weight of any spanning tree we can
    /// easily exhibit (the BFS tree).
    #[test]
    fn mst_reference_algorithms_agree(
        n in 2usize..40,
        extra in 0usize..40,
        seed in 0u64..1_000,
    ) {
        let g = generators::random_connected(n, extra, seed);
        let w = EdgeWeights::random_permutation(&g, seed ^ 0xabcd);
        let k = kruskal_mst(&g, &w);
        let p = prim_mst(&g, &w, NodeId::new(0));
        prop_assert_eq!(&k, &p);
        prop_assert_eq!(k.len(), n - 1);

        let bfs_tree = RootedTree::bfs(&g, NodeId::new(0));
        let bfs_weight: u64 = bfs_tree.tree_edges().map(|e| w.weight(e)).sum();
        prop_assert!(mst_weight(&g, &w) <= bfs_weight);
    }

    /// Multi-source BFS partitions always produce connected parts covering
    /// the whole graph.
    #[test]
    fn bfs_ball_partitions_are_valid(
        n in 4usize..60,
        extra in 0usize..30,
        parts in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let g = generators::random_connected(n, extra, seed);
        let parts = parts.min(n);
        let p = generators::partitions::random_bfs_balls(&g, parts, seed);
        prop_assert_eq!(p.part_count(), parts);
        prop_assert_eq!(p.assigned_count(), n);
        prop_assert!(p.validate(&g).is_ok());
        // Part diameters never exceed the number of nodes.
        prop_assert!(p.max_part_diameter(&g) < n as u32);
    }

    /// Union-find connectivity matches the graph's connected components.
    #[test]
    fn union_find_matches_components(
        n in 1usize..50,
        edges in proptest::collection::vec((0usize..50, 0usize..50), 0..80),
    ) {
        let edge_list: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .filter(|(a, b)| a != b && *a < n && *b < n)
            .map(|(a, b)| (NodeId::new(a), NodeId::new(b)))
            .collect();
        // Deduplicate so Graph::from_edges accepts the list.
        let mut seen = std::collections::HashSet::new();
        let edge_list: Vec<_> = edge_list
            .into_iter()
            .filter(|&(a, b)| seen.insert(if a < b { (a, b) } else { (b, a) }))
            .collect();
        let g = lcs_graph::Graph::from_edges(n, &edge_list).unwrap();

        let mut uf = UnionFind::new(n);
        for (_, e) in g.edges() {
            uf.union(e.u.index(), e.v.index());
        }
        let (comp, count) = connected_components(&g);
        prop_assert_eq!(uf.set_count(), count);
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(uf.connected(a, b), comp[a] == comp[b]);
            }
        }
        prop_assert_eq!(is_connected(&g), count <= 1);
    }

    /// The singleton partition is always valid and has max part size one.
    #[test]
    fn singleton_partition_always_valid(
        n in 1usize..60,
        extra in 0usize..30,
        seed in 0u64..1_000,
    ) {
        let g = generators::random_connected(n, extra, seed);
        let p = Partition::singletons(&g);
        prop_assert!(p.validate(&g).is_ok());
        prop_assert_eq!(p.part_count(), n);
        prop_assert_eq!(p.max_part_size(), 1);
        prop_assert_eq!(p.max_part_diameter(&g), 0);
    }

    /// The CSR layout behaves identically to the adjacency-list
    /// representation it replaced: per-node neighbor/edge-id pairs in edge
    /// insertion order, parallel slices, degrees, and `edge_between` over
    /// all node pairs, checked against a naive model built from the same
    /// edge list.
    #[test]
    fn csr_matches_adjacency_list_model(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..120),
    ) {
        let mut seen = std::collections::HashSet::new();
        let edge_list: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .filter(|(a, b)| a != b && *a < n && *b < n)
            .filter(|&(a, b)| seen.insert(if a < b { (a, b) } else { (b, a) }))
            .map(|(a, b)| (NodeId::new(a), NodeId::new(b)))
            .collect();
        let g = lcs_graph::Graph::from_edges(n, &edge_list).unwrap();

        // Naive reference: exactly the old Vec<Vec<(NodeId, EdgeId)>> build.
        let mut model: Vec<Vec<(NodeId, lcs_graph::EdgeId)>> = vec![Vec::new(); n];
        for (i, &(a, b)) in edge_list.iter().enumerate() {
            let id = lcs_graph::EdgeId::new(i);
            let (u, v) = if a <= b { (a, b) } else { (b, a) };
            model[u.index()].push((v, id));
            model[v.index()].push((u, id));
        }

        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), edge_list.len());
        for v in g.nodes() {
            let pairs: Vec<_> = g.neighbors(v).collect();
            prop_assert_eq!(&pairs, &model[v.index()]);
            prop_assert_eq!(g.degree(v), model[v.index()].len());
            prop_assert_eq!(g.neighbor_ids(v).len(), g.degree(v));
            for (k, &(w, e)) in pairs.iter().enumerate() {
                prop_assert_eq!(g.neighbor_ids(v)[k], w);
                prop_assert_eq!(g.incident_edge_ids(v)[k], e);
                prop_assert_eq!(g.edge(e).other(v), w);
            }
        }
        prop_assert_eq!(
            g.max_degree(),
            model.iter().map(Vec::len).max().unwrap_or(0)
        );
        for a in g.nodes() {
            for b in g.nodes() {
                let expected = model[a.index()]
                    .iter()
                    .find(|(w, _)| *w == b)
                    .map(|&(_, e)| e);
                prop_assert_eq!(g.edge_between(a, b), expected);
                prop_assert_eq!(g.edge_between(b, a), expected);
            }
        }
    }

    /// `from_edges` rejects exactly the invalid inputs: any duplicate (in
    /// either orientation) fails, and removing the duplicates makes the
    /// same list succeed.
    #[test]
    fn from_edges_duplicate_detection_is_exact(
        n in 2usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..30), 1..60),
        dup_at in 0usize..60,
    ) {
        let valid: Vec<(NodeId, NodeId)> = {
            let mut seen = std::collections::HashSet::new();
            edges
                .iter()
                .filter(|(a, b)| a != b && *a < n && *b < n)
                .filter(|&&(a, b)| seen.insert(if a < b { (a, b) } else { (b, a) }))
                .map(|&(a, b)| (NodeId::new(a), NodeId::new(b)))
                .collect()
        };
        prop_assert!(lcs_graph::Graph::from_edges(n, &valid).is_ok());
        if !valid.is_empty() {
            // Re-adding any edge (flipped, to exercise normalization) fails.
            let (a, b) = valid[dup_at % valid.len()];
            let mut with_dup = valid.clone();
            with_dup.push((b, a));
            prop_assert!(lcs_graph::Graph::from_edges(n, &with_dup).is_err());
        }
    }

    /// Generator invariants for grid-family graphs.
    #[test]
    fn grid_family_invariants(rows in 1usize..12, cols in 1usize..12, g_param in 0usize..6) {
        let grid = generators::grid(rows, cols);
        prop_assert_eq!(grid.node_count(), rows * cols);
        prop_assert!(is_connected(&grid));
        prop_assert_eq!(diameter_exact(&grid) as usize, rows - 1 + cols - 1);

        if g_param < cols {
            let handled = generators::genus_handles(rows, cols, g_param);
            prop_assert!(is_connected(&handled));
            prop_assert!(handled.edge_count() <= grid.edge_count() + g_param);
        }
        if rows >= 3 && cols >= 3 {
            let torus = generators::torus(rows, cols);
            prop_assert_eq!(torus.edge_count(), 2 * rows * cols);
            prop_assert_eq!(diameter_exact(&torus) as usize, rows / 2 + cols / 2);
        }
    }
}

/// One graph per generator family, about `size²` nodes (`size ≥ 3`).
fn family_graph(family: usize, size: usize, seed: u64) -> Graph {
    match family {
        0 => generators::grid(size, size),
        1 => generators::torus(size, size),
        2 => generators::random_connected(size * size, 2 * size, seed),
        3 => generators::wheel(size * size + 1),
        4 => generators::path(size * size),
        5 => generators::caterpillar(3 * size, 2),
        _ => generators::lower_bound_graph(4, 2 * size).0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A BFS tree's parents, parent edges, depths and tree-edge flags are
    /// those of the reference BFS, its children lists are every node's
    /// children in ascending order, and its bottom-up order is deepest
    /// first with ascending ids within a depth.
    #[test]
    fn rooted_tree_matches_a_brute_force_reference(
        family in 0usize..7,
        size in 3usize..9,
        seed in 0u64..1_000,
        root_choice in 0usize..1_000,
    ) {
        let g = family_graph(family, size, seed);
        let n = g.node_count();
        let root = NodeId::new(root_choice % n);
        let t = RootedTree::bfs(&g, root);
        let bfs = bfs_distances(&g, root);
        for v in g.nodes() {
            prop_assert_eq!(t.parent(v), bfs.parent[v.index()]);
            prop_assert_eq!(Some(t.depth(v)), bfs.dist[v.index()]);
            let edge = t.parent(v).map(|p| g.edge_between(p, v).expect("parents are adjacent"));
            prop_assert_eq!(t.parent_edge(v), edge);
            let children: Vec<NodeId> = g.nodes().filter(|&u| t.parent(u) == Some(v)).collect();
            prop_assert_eq!(t.children(v), &children[..]);
        }
        for (e, _) in g.edges() {
            let lower = g.nodes().any(|v| t.parent_edge(v) == Some(e));
            prop_assert_eq!(t.is_tree_edge(e), lower);
        }
        let mut bottom_up: Vec<NodeId> = g.nodes().collect();
        bottom_up.sort_by_key(|&v| (std::cmp::Reverse(t.depth(v)), v));
        prop_assert_eq!(t.nodes_bottom_up(), &bottom_up[..]);
        prop_assert_eq!(t.depth_of_tree(), bfs.max_distance());
    }

    /// Every part's members are strictly ascending and are exactly the
    /// nodes `part_of` maps to it; rebuilding from the assignment gives an
    /// equal partition.
    #[test]
    fn partition_members_are_ascending_and_agree_with_part_of(
        family in 0usize..7,
        size in 3usize..9,
        parts in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let g = family_graph(family, size, seed);
        let n = g.node_count();
        let balls = generators::partitions::random_bfs_balls(&g, parts.min(n), seed);
        // Dropping the last part leaves its nodes unassigned.
        let assignment: Vec<Option<PartId>> = g
            .nodes()
            .map(|v| balls.part_of(v).filter(|p| p.index() + 1 < balls.part_count()))
            .collect();
        let partial = Partition::from_assignment(n, assignment.clone()).expect("dense parts");
        for p in [&balls, &partial] {
            let mut assigned = 0;
            for part in p.parts() {
                let members = p.members(part);
                prop_assert!(!members.is_empty());
                prop_assert!(members.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(members.iter().all(|&v| p.part_of(v) == Some(part)));
                assigned += members.len();
            }
            prop_assert_eq!(assigned, p.assigned_count());
            prop_assert_eq!(
                p.max_part_size(),
                p.parts().map(|part| p.members(part).len()).max().unwrap_or(0)
            );
        }
        prop_assert_eq!(partial.part_count() + 1, balls.part_count());
        prop_assert_eq!(Partition::from_assignment(n, assignment).unwrap(), partial);
    }
}
