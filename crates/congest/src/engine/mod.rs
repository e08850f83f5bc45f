//! The round engine: one loop ([`shard::run`]) that executes every
//! simulation on `S` contiguous node shards, `S` =
//! [`crate::SimConfig::threads`] capped at the node count. The calling
//! thread runs shard 0 and `S − 1` scoped workers run the rest, so `S = 1`
//! runs inline with no thread and no barrier. The loop reads the message
//! plane's slots straight from the graph's CSR (its offsets and its
//! reverse-slot index), so a run rebuilds no per-graph state. A fault plan
//! adds one stage to the same loop: its copies wait on a [`Wheel`], the
//! one that also holds the wake-ups, and join the same per-recipient mail
//! lists in the round they fall due, so every message reaches its
//! recipient one way.
//!
//! **Determinism is the invariant.** Every shard count must produce
//! byte-identical [`crate::SimStats`], [`crate::RoundTrace`] sequences,
//! node states, and errors for every protocol. The loop earns this by
//! construction rather than by locking discipline:
//!
//! * each directed edge has exactly one sender, so the per-slot
//!   duplicate-send stamp can live with the *sender's* shard (indexed by
//!   sender-side CSR slot, which the graph's reverse-slot index maps
//!   bijectively onto recipient-side slots) — no two shards ever contend
//!   for a slot;
//! * cross-shard messages wait in an exchange buffer per shard pair and
//!   phase parity, which the recipient drains at the next phase; since
//!   every slot is written at most once per round, the drain order cannot
//!   affect the mail lists' contents;
//! * a recipient's messages are handed to it in slot order (its CSR
//!   neighbor order), whatever order they were posted and drained in, and
//!   under faults one slot's copies in posting order;
//! * everything else an outside observer can see is an order-independent
//!   reduction: message/bit counters are sums, `max_message_bits` is a
//!   max, and per-round worklists come out of a bitset in ascending node
//!   order;
//! * errors are reported from the lowest-numbered shard of the earliest
//!   round, which (shards being contiguous, ascending node ranges) is
//!   exactly the node a single shard would have failed on first.

mod shard;

pub(crate) use shard::run;

use lcs_obs::Obs;

use crate::SimStats;

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

/// Round-bucketed timers, a timing wheel (Varghese and Lauck, SOSP 1987):
/// each shard keeps one of [`crate::NodeProtocol::next_wake`] requests and
/// fault-mode restarts, and one of faulty copies waiting for their due
/// rounds.
///
/// `RING` per-round buckets cover the next `RING` rounds, so filing and
/// firing an item are both `O(1)`. A bucket is a list threaded through one
/// entry pool, and fired entries go back to the pool's free list: however
/// the items spread over rounds, the wheel's memory is sized by the most
/// items ever pending at once, and once the pool has grown to that size no
/// push allocates. Items beyond the horizon wait in an overflow list that
/// is swept once per revolution.
///
/// Firing round `r` hands out every item due at or before `r`, like a
/// min-queue of `(due, item)` pairs, and one round's items in push order.
/// An overflow item was pushed while its round lay a revolution or more
/// ahead, so before every item that went straight into its bucket: the
/// sweep puts it in front of them. (Wake order within a round is
/// unobservable, since every shard polls a round's nodes in ascending
/// order; copy order is what puts one slot's copies in posting order.)
pub(crate) struct Wheel<T> {
    /// `head[r % RING]` and `tail[r % RING]` are the first and last pool
    /// entries of round `r`'s bucket (`NIL` when empty), for `r` in
    /// `next..next + RING`.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// The entry pool: items and links of either a bucket or the free list.
    pool: Vec<(Option<T>, u32)>,
    /// First entry of the free list.
    free: u32,
    /// First round not yet fired.
    next: u64,
    /// `(due, item)` pairs at least one revolution ahead, in push order.
    far: Vec<(u64, T)>,
    /// Items on the ring and in `far` together.
    len: usize,
}

impl<T> Wheel<T> {
    /// Wheel size in rounds: a power of two comfortably above the
    /// superstep windows of the `lcs_dist` protocols, whose nodes sleep at
    /// most one window ahead, and above twice the round stretch of the
    /// usual fault plans.
    pub(crate) const RING: u64 = 1024;
    /// The end-of-list link.
    const NIL: u32 = u32::MAX;

    pub(crate) fn new() -> Self {
        Wheel {
            head: vec![Self::NIL; Self::RING as usize],
            tail: vec![Self::NIL; Self::RING as usize],
            pool: Vec::new(),
            free: Self::NIL,
            next: 0,
            far: Vec::new(),
            len: 0,
        }
    }

    /// The number of items pending.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no item is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files `item` under round `due`, at the back of its bucket; a round
    /// that already fired means the next one to fire. Forced inline with
    /// [`Wheel::alloc`]: the engine pushes once per sleeping poll.
    #[inline(always)]
    pub(crate) fn push(&mut self, due: u64, item: T) {
        let due = due.max(self.next);
        self.len += 1;
        if due - self.next >= Self::RING {
            self.far.push((due, item));
            return;
        }
        let bucket = (due % Self::RING) as usize;
        let entry = self.alloc(item, Self::NIL);
        match std::mem::replace(&mut self.tail[bucket], entry) {
            Self::NIL => self.head[bucket] = entry,
            last => self.pool[last as usize].1 = entry,
        }
    }

    /// Hands every item due at or before `round` to `f`, round by round
    /// and each round's in push order, and advances the wheel past
    /// `round`. A fired bucket goes back to the free list whole.
    #[inline]
    pub(crate) fn fire(&mut self, round: u64, mut f: impl FnMut(T)) {
        while self.next <= round {
            let bucket = (self.next % Self::RING) as usize;
            let first = std::mem::replace(&mut self.head[bucket], Self::NIL);
            if first != Self::NIL {
                let mut entry = first;
                while entry != Self::NIL {
                    let (item, link) = &mut self.pool[entry as usize];
                    entry = *link;
                    f(item.take().expect("a bucket entry holds its item"));
                    self.len -= 1;
                }
                let last = std::mem::replace(&mut self.tail[bucket], Self::NIL);
                self.pool[last as usize].1 = std::mem::replace(&mut self.free, first);
            }
            self.next += 1;
            if self.next.is_multiple_of(Self::RING) && !self.far.is_empty() {
                self.sweep();
            }
        }
    }

    /// Takes a pool entry for `item` linked to `link`, from the free list
    /// when it has one.
    #[inline(always)]
    fn alloc(&mut self, item: T, link: u32) -> u32 {
        if self.free == Self::NIL {
            self.pool.push((Some(item), link));
            (self.pool.len() - 1) as u32
        } else {
            let entry = self.free;
            self.free = self.pool[entry as usize].1;
            self.pool[entry as usize] = (Some(item), link);
            entry
        }
    }

    /// Moves the overflow items that now fall inside the horizon to the
    /// front of their buckets, keeping their push order. Runs when `next`
    /// is a multiple of `RING`: an overflow item was pushed at least `RING`
    /// rounds ahead of a round no earlier than the previous sweep point, so
    /// none is due before this one.
    #[cold]
    #[inline(never)]
    fn sweep(&mut self) {
        let horizon = self.next + Self::RING;
        let near: Vec<(u64, T)> = self.far.extract_if(.., |(due, _)| *due < horizon).collect();
        for (due, item) in near.into_iter().rev() {
            let bucket = (due % Self::RING) as usize;
            let entry = self.alloc(item, self.head[bucket]);
            self.head[bucket] = entry;
            if self.tail[bucket] == Self::NIL {
                self.tail[bucket] = entry;
            }
        }
    }
}

/// The nodes one shard polls next round: a bitset over its local node
/// range with a summary level (one bit per nonzero word).
///
/// Inserting is idempotent and `O(1)`. [`NodeSet::drain_into`] walks the
/// summary's set bits, then each word's, so the worklist comes out in
/// ascending node order without a sort, and clears each word as it goes,
/// so nothing is reset per entry afterwards. A round costs one pass over
/// the summary (`n / 4096` words) plus one visit per nonzero word.
pub(crate) struct NodeSet {
    /// Bit `i % 64` of word `i / 64`: local node `i` is queued.
    words: Vec<u64>,
    /// Bit `w % 64` of word `w / 64`: `words[w]` is nonzero.
    summary: Vec<u64>,
}

impl NodeSet {
    /// An empty set over local nodes `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        NodeSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    /// Adds local node `i` (forced inline: it runs once per message and
    /// once per poll).
    #[inline(always)]
    pub(crate) fn insert(&mut self, i: usize) {
        let w = i / 64;
        if self.words[w] == 0 {
            self.summary[w / 64] |= 1 << (w % 64);
        }
        self.words[w] |= 1 << (i % 64);
    }

    /// Whether no node is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.summary.iter().all(|&bits| bits == 0)
    }

    /// Appends every member plus `base` to `out` in ascending order and
    /// empties the set.
    pub(crate) fn drain_into(&mut self, base: usize, out: &mut Vec<u32>) {
        for (s, summary) in self.summary.iter_mut().enumerate() {
            let mut nonzero = std::mem::take(summary);
            while nonzero != 0 {
                let w = s * 64 + nonzero.trailing_zeros() as usize;
                nonzero &= nonzero - 1;
                let mut bits = std::mem::take(&mut self.words[w]);
                while bits != 0 {
                    out.push((base + w * 64 + bits.trailing_zeros() as usize) as u32);
                    bits &= bits - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{NodeSet, Wheel};

    /// The set drains exactly its members, ascending and offset by the
    /// base, across word and summary-word boundaries, and is empty after.
    #[test]
    fn node_set_drains_ascending() {
        let len = 64 * 64 * 2 + 5;
        let mut set = NodeSet::new(len);
        assert!(set.is_empty());
        let mut members = vec![len - 1, 0, 4096, 63, 64, 4095, 700, 63, 8191];
        for &i in &members {
            set.insert(i);
        }
        assert!(!set.is_empty());
        let mut out = vec![7];
        set.drain_into(10, &mut out);
        members.sort_unstable();
        members.dedup();
        let expected: Vec<u32> = std::iter::once(7)
            .chain(members.iter().map(|&i| (i + 10) as u32))
            .collect();
        assert_eq!(out, expected);
        assert!(set.is_empty());
        out.clear();
        set.drain_into(0, &mut out);
        assert!(out.is_empty());
    }

    /// As a shard's wake calendar, every round the wheel fires exactly what
    /// a `(due, item)` min-queue would pop, and one round's items in push
    /// order: items on the ring, items parked in the overflow list up to
    /// three revolutions ahead, and items pushed for a round that already
    /// fired (due at the next one).
    #[test]
    fn calendar_fires_like_a_min_queue() {
        let mut wheel = Wheel::new();
        let mut pending: Vec<(u64, u32)> = Vec::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let horizon = 3 * Wheel::<u32>::RING;
        let mut id = 0;
        let mut round = 0;
        while round < 2 * horizon || !pending.is_empty() {
            round += 1;
            let mut fired = Vec::new();
            wheel.fire(round, |item| fired.push(item));
            // Every earlier round ran dry, so what is due now is due at
            // exactly this round; `pending` is in push order.
            let due: Vec<u32> = pending
                .iter()
                .filter(|&&(at, _)| at <= round)
                .map(|&(_, item)| item)
                .collect();
            pending.retain(|&(at, _)| at > round);
            assert_eq!(fired, due, "round {round}");
            assert_eq!(wheel.len(), pending.len(), "round {round}");
            assert_eq!(wheel.is_empty(), pending.is_empty(), "round {round}");
            if round < horizon {
                for _ in 0..3 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let at = (round + x % horizon).saturating_sub(2);
                    wheel.push(at, id);
                    pending.push((at.max(round + 1), id));
                    id += 1;
                }
            }
        }
    }
}
