//! The round engine: one loop ([`shard::run`]) that executes every
//! simulation on `S` contiguous node shards, `S` =
//! [`crate::SimConfig::threads`] capped at the node count. The calling
//! thread runs shard 0 and `S − 1` scoped workers run the rest, so `S = 1`
//! runs inline with no thread and no barrier. A fault plan adds one stage
//! to the same loop.
//!
//! **Determinism is the invariant.** Every shard count must produce
//! byte-identical [`crate::SimStats`], [`crate::RoundTrace`] sequences,
//! node states, and errors for every protocol. The loop earns this by
//! construction rather than by locking discipline:
//!
//! * each directed edge has exactly one sender, so the per-slot
//!   duplicate-send stamp can live with the *sender's* shard (indexed by
//!   sender-side CSR position, which the `mirror` array maps bijectively
//!   onto recipient-side slots) — no two shards ever contend for a slot;
//! * cross-shard messages travel through per-shard staging buffers and are
//!   merged at the next phase; since every slot is written at most once
//!   per round, the merge order cannot affect buffer contents;
//! * everything else an outside observer can see is an order-independent
//!   reduction: message/bit counters are sums, `max_message_bits` is a
//!   max, and per-round worklists are sorted before polling;
//! * errors are reported from the lowest-numbered shard of the earliest
//!   round, which (shards being contiguous, ascending node ranges) is
//!   exactly the node a single shard would have failed on first.

mod shard;

pub(crate) use shard::run;

use lcs_graph::Graph;
use lcs_obs::Obs;

use crate::{NodeContext, SimStats};

/// Emits the thread-invariant counters of one successful run: rounds,
/// messages, bits, and active-node polls, identical for every shard count
/// by the determinism invariant. (`max_message_bits` is a max, not a sum,
/// so it lives in a gauge.)
pub(crate) fn record_run(obs: &Obs, stats: &SimStats, polls: u64) {
    obs.counter_add("engine/runs", 1);
    obs.counter_add("engine/rounds", stats.rounds);
    obs.counter_add("engine/messages", stats.messages);
    obs.counter_add("engine/bits", stats.total_bits);
    obs.counter_add("engine/polls", polls);
    obs.gauge_max("engine/max_message_bits", stats.max_message_bits as u64);
}

/// The read-only message-plane topology every shard indexes into: CSR slot
/// offsets plus the sender-position → recipient-slot `mirror` map. One slot
/// per directed edge, laid out in the graph's CSR order.
pub(crate) struct Topology {
    /// CSR offsets mirroring the graph's (`offset[v]..offset[v + 1]` are
    /// node `v`'s recipient-side slots). Length `n + 1`.
    pub(crate) offset: Vec<u32>,
    /// `mirror[p]`: for the sender-side position `p` (node `v`'s adjacency
    /// entry pointing at `w`), the recipient-side slot (`w`'s entry
    /// pointing back at `v`). Posting is one indexed store.
    pub(crate) mirror: Vec<u32>,
}

impl Topology {
    pub(crate) fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut offset: Vec<u32> = Vec::with_capacity(n + 1);
        offset.push(0);
        for v in graph.nodes() {
            let last = *offset.last().expect("offset starts nonempty");
            offset.push(last + graph.degree(v) as u32);
        }
        let slots = *offset.last().expect("offset is nonempty") as usize;

        // slot_of[e] = recipient-side slot of edge e at [e.u, e.v].
        let mut slot_of = vec![[0u32; 2]; graph.edge_count()];
        for v in graph.nodes() {
            let base = offset[v.index()];
            for (k, &e) in graph.incident_edge_ids(v).iter().enumerate() {
                let side = usize::from(graph.edge(e).v == v);
                slot_of[e.index()][side] = base + k as u32;
            }
        }
        let mut mirror = vec![0u32; slots];
        for v in graph.nodes() {
            let base = offset[v.index()] as usize;
            let neighbors = graph.neighbor_ids(v);
            for (k, &e) in graph.incident_edge_ids(v).iter().enumerate() {
                let w = neighbors[k];
                mirror[base + k] = slot_of[e.index()][usize::from(graph.edge(e).v == w)];
            }
        }

        Topology { offset, mirror }
    }
}

/// Round-bucketed wake-up timers: one shard's schedule of
/// [`crate::NodeProtocol::next_wake`] requests (and fault-mode restarts).
///
/// A timing wheel of `RING` per-round buckets covers the next `RING`
/// rounds, so scheduling and firing a wake are both `O(1)`. A bucket is an
/// intrusive list threaded through one shared entry pool, and fired entries
/// go back to the pool's free list: however the wakes spread over rounds,
/// the calendar's memory is sized by the most wakes ever pending at once,
/// and once the pool has grown to that size no push allocates. Wakes beyond
/// the wheel's horizon wait in an overflow list that is swept once per
/// revolution.
///
/// [`Calendar::fire`] at round `r` hands out every entry due at or before
/// `r`, like a min-queue of `(due, node)` pairs. Entries are never
/// deduplicated or cancelled (a node woken early by a message keeps its
/// entry and takes one spurious poll, which the `next_wake` contract makes
/// harmless), and the order within one round is unobservable because every
/// shard sorts its worklist before polling.
pub(crate) struct Calendar {
    /// `head[r % RING]` is the first pool entry of round `r`'s bucket, for
    /// `r` in `next..next + RING`.
    head: Vec<u32>,
    /// The entry pool: `(node, next entry)` links of either a bucket or the
    /// free list.
    pool: Vec<(u32, u32)>,
    /// First entry of the free list.
    free: u32,
    /// First round not yet fired.
    next: u64,
    /// `(due, node)` entries at least one revolution ahead of the wheel;
    /// each sweep moves the ones entering the horizon onto the wheel.
    far: Vec<(u64, u32)>,
    /// Entries on the wheel and in `far` together.
    len: usize,
}

impl Calendar {
    /// Wheel size in rounds: a power of two comfortably above the
    /// superstep windows of the `lcs_dist` protocols, whose nodes sleep at
    /// most one window ahead.
    const RING: u64 = 1024;
    /// The end-of-list link.
    const NIL: u32 = u32::MAX;

    pub(crate) fn new() -> Self {
        Calendar {
            head: vec![Self::NIL; Self::RING as usize],
            pool: Vec::new(),
            free: Self::NIL,
            next: 0,
            far: Vec::new(),
            len: 0,
        }
    }

    /// Whether no wake is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `node` for round `due`; a round that already fired means
    /// the next one to fire.
    pub(crate) fn push(&mut self, due: u64, node: u32) {
        let due = due.max(self.next);
        self.len += 1;
        if due - self.next < Self::RING {
            self.link(due, node);
        } else {
            self.far.push((due, node));
        }
    }

    /// Hands every node due at or before `round` to `wake` and advances the
    /// wheel past `round`.
    pub(crate) fn fire(&mut self, round: u64, mut wake: impl FnMut(usize)) {
        while self.next <= round {
            let slot = (self.next % Self::RING) as usize;
            let mut entry = std::mem::replace(&mut self.head[slot], Self::NIL);
            while entry != Self::NIL {
                let (node, link) = self.pool[entry as usize];
                wake(node as usize);
                self.pool[entry as usize].1 = self.free;
                self.free = entry;
                self.len -= 1;
                entry = link;
            }
            self.next += 1;
            if self.next.is_multiple_of(Self::RING) && !self.far.is_empty() {
                self.sweep();
            }
        }
    }

    /// Links `node` into the bucket of round `due` (within the horizon).
    fn link(&mut self, due: u64, node: u32) {
        let slot = (due % Self::RING) as usize;
        let entry = if self.free == Self::NIL {
            self.pool.push((node, self.head[slot]));
            (self.pool.len() - 1) as u32
        } else {
            let entry = self.free;
            self.free = self.pool[entry as usize].1;
            self.pool[entry as usize] = (node, self.head[slot]);
            entry
        };
        self.head[slot] = entry;
    }

    /// Moves the overflow entries that now fall inside the horizon onto
    /// the wheel. Runs when `next` is a multiple of `RING`: an overflow
    /// entry was pushed at least `RING` rounds ahead of a round no earlier
    /// than the previous sweep point, so none is due before this one.
    fn sweep(&mut self) {
        let horizon = self.next + Self::RING;
        let mut i = 0;
        while i < self.far.len() {
            let (due, node) = self.far[i];
            if due < horizon {
                self.far.swap_remove(i);
                self.link(due, node);
            } else {
                i += 1;
            }
        }
    }
}

/// Builds the per-node contexts (borrowed CSR views) in node order.
pub(crate) fn build_contexts(graph: &Graph) -> Vec<NodeContext<'_>> {
    let n = graph.node_count();
    graph
        .nodes()
        .map(|v| NodeContext::new(v, graph.neighbor_ids(v), graph.incident_edge_ids(v), n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::Calendar;

    /// The calendar fires exactly what a `(due, node)` min-queue would pop
    /// at each round: wakes within the wheel, wakes parked in the overflow
    /// list up to three revolutions ahead, and wakes pushed for a round
    /// that already fired (due at the next one).
    #[test]
    fn calendar_fires_like_a_min_queue() {
        let mut calendar = Calendar::new();
        let mut pending: Vec<(u64, u32)> = Vec::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let horizon = 3 * Calendar::RING;
        let mut round = 0;
        while round < 2 * horizon || !pending.is_empty() {
            round += 1;
            let mut fired = Vec::new();
            calendar.fire(round, |node| fired.push(node as u32));
            let mut due: Vec<u32> = pending
                .iter()
                .filter(|&&(at, _)| at <= round)
                .map(|&(_, node)| node)
                .collect();
            pending.retain(|&(at, _)| at > round);
            fired.sort_unstable();
            due.sort_unstable();
            assert_eq!(fired, due, "round {round}");
            assert_eq!(calendar.is_empty(), pending.is_empty(), "round {round}");
            if round < horizon {
                for _ in 0..3 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let at = (round + x % horizon).saturating_sub(2);
                    let node = (x >> 40) as u32;
                    calendar.push(at, node);
                    pending.push((at.max(round + 1), node));
                }
            }
        }
    }
}
