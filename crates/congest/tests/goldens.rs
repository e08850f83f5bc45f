//! Golden simulation statistics pinning the edge-slot mailbox rewrite.
//!
//! The values were captured by running the identical protocols against the
//! pre-refactor simulator (per-recipient `Vec` mailboxes, every node polled
//! every round; the implementation the edge-slot buffers replaced, so the
//! old code itself is gone). The refactor's contract is *speed, never
//! semantics*: rounds, message counts, bit counts, and per-round traces
//! must all be byte-identical.

use lcs_congest::primitives::{tree_aggregate, AggregateOp, DistributedBfs};
use lcs_congest::{Incoming, NodeContext, NodeProtocol, Outgoing, SimConfig, Simulator};
use lcs_graph::{generators, NodeId, RootedTree};

#[test]
fn golden_bfs_flood_stats() {
    let g = generators::grid(7, 5);
    let outcome = DistributedBfs::run_on(&g, NodeId::new(17)).unwrap();
    assert_eq!(outcome.stats.rounds, 6);
    assert_eq!(outcome.stats.messages, 82);
    assert_eq!(outcome.stats.total_bits, 2624);
    assert_eq!(outcome.stats.max_message_bits, 32);
}

#[test]
fn golden_tree_convergecast_stats() {
    let g = generators::grid(6, 6);
    let t = RootedTree::bfs(&g, NodeId::new(0));
    let values: Vec<u64> = (0..g.node_count() as u64).collect();
    let agg = tree_aggregate(&g, &t, &values, AggregateOp::Sum).unwrap();
    assert_eq!(agg.value, 630);
    assert_eq!(agg.stats.rounds, 10);
    assert_eq!(agg.stats.messages, 35);
    assert_eq!(agg.stats.total_bits, 2240);
    assert_eq!(agg.stats.max_message_bits, 64);
}

/// A level-announcing flood over a path, with per-round tracing enabled:
/// the full trace is pinned, entry by entry.
#[test]
fn golden_traced_flood_on_path() {
    #[derive(Debug)]
    struct Flood {
        root: NodeId,
        level: Option<u32>,
        announce: bool,
    }
    impl NodeProtocol for Flood {
        type Message = u32;
        fn init(&mut self, ctx: &NodeContext<'_>, out: &mut Vec<Outgoing<u32>>) {
            if ctx.node == self.root {
                out.extend(ctx.neighbor_ids().iter().map(|&v| Outgoing::new(v, 0)));
            }
        }
        fn on_round(
            &mut self,
            ctx: &NodeContext<'_>,
            _round: u64,
            incoming: &[Incoming<u32>],
            out: &mut Vec<Outgoing<u32>>,
        ) {
            if self.level.is_none() {
                if let Some(m) = incoming.iter().min_by_key(|m| (m.msg, m.from)) {
                    self.level = Some(m.msg + 1);
                    self.announce = true;
                }
            }
            if self.announce {
                self.announce = false;
                let level = self.level.expect("announcing nodes have joined");
                out.extend(ctx.neighbor_ids().iter().map(|&v| Outgoing::new(v, level)));
            }
        }
        fn is_done(&self) -> bool {
            self.level.is_some() && !self.announce
        }
    }

    let g = generators::path(6);
    let sim = Simulator::new(&g, SimConfig::for_graph(&g).with_trace());
    let root = NodeId::new(0);
    let out = sim
        .run(|ctx| Flood {
            root,
            level: if ctx.node == root { Some(0) } else { None },
            announce: false,
        })
        .unwrap();
    assert_eq!(out.stats.rounds, 6);
    assert_eq!(out.stats.messages, 10);
    assert_eq!(out.stats.total_bits, 320);
    assert_eq!(out.stats.max_message_bits, 32);
    let expected: Vec<(u64, u64, u64)> = vec![
        (1, 1, 32),
        (2, 2, 64),
        (3, 2, 64),
        (4, 2, 64),
        (5, 2, 64),
        (6, 1, 32),
    ];
    let got: Vec<(u64, u64, u64)> = out
        .trace
        .iter()
        .map(|t| (t.round, t.messages, t.bits))
        .collect();
    assert_eq!(got, expected);
}
