//! Deterministic fault injection for the round loop.
//!
//! A [`FaultPlan`] is a small `Copy` description of a faulty network:
//! per-edge extra latency, per-delivery loss and duplication
//! probabilities, straggler nodes that only poll every `k`-th round, and
//! a crash schedule. Every fault decision is a **pure function of the
//! plan and of stable coordinates** (edge id, recipient-side slot, node
//! id, global round number) — never of RNG call order — so every shard
//! count takes byte-identical decisions regardless of how work is
//! scheduled across threads. The draws go through the vendored
//! `ChaCha8Rng`: one seeded generator per decision, keyed by
//! `(seed, tag, coordinates)`.
//!
//! Rounds are counted on two clocks. The *local* round is the engine's
//! round counter for one run; the *global* round adds the plan's
//! [`round_offset`](FaultPlan::with_round_offset). A retrying caller (the
//! verification epoch loop) advances the offset between epochs, so a
//! re-run experiences a different fault timeline from the same plan
//! without reseeding — and a crash window that has passed on the global
//! clock stays healed in later epochs.

use lcs_graph::Graph;
use lcs_obs::Obs;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const TAG_DELAY: u64 = 0x9e37_79b9_7f4a_7c15;
const TAG_LOSS: u64 = 0xbf58_476d_1ce4_e5b9;
const TAG_DUP: u64 = 0x94d0_49bb_1331_11eb;
const TAG_STRAGGLER: u64 = 0x2545_f491_4f6c_dd1d;
const TAG_PHASE: u64 = 0x9e6c_63d0_876a_68e5;
const TAG_CRASH: u64 = 0xd6e8_feb8_6659_fd93;

/// One pure 64-bit draw, keyed by `(seed, tag, a, b)`.
fn word(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let mixed =
        seed ^ tag ^ a.wrapping_mul(0xa24b_aed4_963e_e407) ^ b.wrapping_mul(0x9fb2_1c65_1e98_df25);
    ChaCha8Rng::seed_from_u64(mixed).next_u64()
}

/// Probability check in parts per million.
fn hits_ppm(word: u64, ppm: u32) -> bool {
    word % 1_000_000 < u64::from(ppm)
}

/// A deterministic fault schedule for one simulation.
///
/// Attach a plan to a [`crate::SimConfig`] via
/// [`SimConfig::with_fault`](crate::SimConfig::with_fault). A plan with
/// every knob at zero is *inactive*: the round loop skips its fault stage,
/// so results are byte-identical to running with no plan at all. All knobs
/// compose; every decision is a pure function of `(seed, coordinates,
/// global round)`, so reruns at any thread count inject exactly the same
/// faults.
///
/// Semantics:
///
/// * **Latency** — every undirected edge gets a fixed extra delay
///   `ℓ ∈ [0, max_extra_latency]`; a message posted in round `r`
///   becomes deliverable in round `r + 1 + ℓ` (fault-free delivery is
///   `r + 1`) through the fault stage's wheel of due copies.
/// * **Loss / duplication** — each delivery is dropped with probability
///   `loss_ppm / 10^6`, or duplicated (second copy arrives at the
///   recipient's next poll round after the original) with probability
///   `dup_ppm / 10^6`, drawn per (directed edge, global round).
/// * **Stragglers** — each node is a straggler with probability
///   `straggler_ppm / 10^6`; a straggler is only polled on global rounds
///   `≡ phase (mod period)`, and deliveries to it land on its poll
///   rounds.
/// * **Crashes** — the `crash_count` nodes with the smallest seeded draw
///   die at global round `crash_round`: they are not polled and every
///   delivery to them is dropped. With `restart_after > 0` each crashed
///   node restarts at `crash_round + restart_after` with *cleared state*
///   (a fresh protocol instance whose `init` runs at the restart round);
///   with `restart_after = 0` the crash is permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    round_offset: u64,
    max_extra_latency: u32,
    loss_ppm: u32,
    dup_ppm: u32,
    straggler_ppm: u32,
    straggler_period: u32,
    crash_count: u32,
    crash_round: u64,
    restart_after: u64,
}

impl FaultPlan {
    /// A plan with the given seed and every fault knob at zero
    /// (inactive until a knob is raised).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            round_offset: 0,
            max_extra_latency: 0,
            loss_ppm: 0,
            dup_ppm: 0,
            straggler_ppm: 0,
            straggler_period: 0,
            crash_count: 0,
            crash_round: 0,
            restart_after: 0,
        }
    }

    /// Sets the per-edge extra latency bound (each undirected edge draws a
    /// fixed delay in `[0, max]`).
    pub fn with_latency(mut self, max: u32) -> Self {
        self.max_extra_latency = max;
        self
    }

    /// Sets the per-delivery loss probability in parts per million.
    pub fn with_loss_ppm(mut self, ppm: u32) -> Self {
        self.loss_ppm = ppm;
        self
    }

    /// Sets the per-delivery duplication probability in parts per million.
    pub fn with_dup_ppm(mut self, ppm: u32) -> Self {
        self.dup_ppm = ppm;
        self
    }

    /// Makes each node a straggler with probability `ppm / 10^6`;
    /// stragglers poll only every `period`-th round. A period of 0 or 1
    /// disables straggling.
    pub fn with_stragglers(mut self, ppm: u32, period: u32) -> Self {
        self.straggler_ppm = ppm;
        self.straggler_period = period;
        self
    }

    /// Crashes the `count` (seeded) nodes at global round `round`; each
    /// restarts with cleared state after `restart_after` more rounds
    /// (0 = never restart).
    pub fn with_crashes(mut self, count: u32, round: u64, restart_after: u64) -> Self {
        self.crash_count = count;
        self.crash_round = round;
        self.restart_after = restart_after;
        self
    }

    /// Shifts the plan's global clock: local round `r` of the run maps to
    /// global round `r + offset`. A retrying caller advances this between
    /// epochs so each epoch sees a fresh fault timeline from one plan.
    pub fn with_round_offset(mut self, offset: u64) -> Self {
        self.round_offset = offset;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The global-clock offset (see [`FaultPlan::with_round_offset`]).
    pub fn round_offset(&self) -> u64 {
        self.round_offset
    }

    /// The per-edge extra latency bound.
    pub fn max_extra_latency(&self) -> u32 {
        self.max_extra_latency
    }

    /// The per-delivery loss probability in parts per million.
    pub fn loss_ppm(&self) -> u32 {
        self.loss_ppm
    }

    /// The per-delivery duplication probability in parts per million.
    pub fn dup_ppm(&self) -> u32 {
        self.dup_ppm
    }

    /// The straggler poll period (0 or 1 = stragglers disabled).
    pub fn straggler_period(&self) -> u32 {
        self.straggler_period
    }

    /// The number of crashing nodes.
    pub fn crash_count(&self) -> u32 {
        self.crash_count
    }

    /// The global round at which the crash set dies.
    pub fn crash_round(&self) -> u64 {
        self.crash_round
    }

    /// Rounds after the crash at which crashed nodes restart (0 = never).
    pub fn restart_after(&self) -> u64 {
        self.restart_after
    }

    /// Whether stragglers are actually enabled.
    fn stragglers_on(&self) -> bool {
        self.straggler_ppm > 0 && self.straggler_period > 1
    }

    /// Whether any fault knob is raised. An inactive plan runs the round
    /// loop without its fault stage.
    pub fn active(&self) -> bool {
        self.max_extra_latency > 0
            || self.loss_ppm > 0
            || self.dup_ppm > 0
            || self.stragglers_on()
            || self.crash_count > 0
    }

    /// The worst-case factor by which one fault-free round stretches:
    /// `(1 + max latency) · straggler period`. Protocol layers scale
    /// their round windows (and callers their round budgets) by this.
    pub fn round_stretch(&self) -> u64 {
        let period = if self.stragglers_on() {
            u64::from(self.straggler_period)
        } else {
            1
        };
        (1 + u64::from(self.max_extra_latency)) * period
    }
}

/// The precomputed, per-run expansion of a [`FaultPlan`] on one graph:
/// per-edge delays, the straggler phases, and the sorted crash set, shared
/// read-only by every shard (it is a pure function of plan + graph).
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Fixed extra delay per undirected edge; empty when latency is off.
    delays: Vec<u32>,
    /// Straggler phase per node (`u32::MAX` = not a straggler); empty
    /// when straggling is off.
    straggler: Vec<u32>,
    /// Crashing node ids, ascending.
    crashed: Vec<u32>,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan, graph: &Graph) -> Self {
        let delays = if plan.max_extra_latency > 0 {
            let span = u64::from(plan.max_extra_latency) + 1;
            (0..graph.edge_count())
                .map(|e| (word(plan.seed, TAG_DELAY, e as u64, 0) % span) as u32)
                .collect()
        } else {
            Vec::new()
        };
        let straggler = if plan.stragglers_on() {
            let period = u64::from(plan.straggler_period);
            (0..graph.node_count())
                .map(|v| {
                    if hits_ppm(
                        word(plan.seed, TAG_STRAGGLER, v as u64, 0),
                        plan.straggler_ppm,
                    ) {
                        (word(plan.seed, TAG_PHASE, v as u64, 0) % period) as u32
                    } else {
                        u32::MAX
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let crashed = if plan.crash_count > 0 {
            let mut ranked: Vec<(u64, u32)> = (0..graph.node_count())
                .map(|v| (word(plan.seed, TAG_CRASH, v as u64, 0), v as u32))
                .collect();
            ranked.sort_unstable();
            let mut picked: Vec<u32> = ranked
                .into_iter()
                .take(plan.crash_count as usize)
                .map(|(_, v)| v)
                .collect();
            picked.sort_unstable();
            picked
        } else {
            Vec::new()
        };
        FaultState {
            plan: *plan,
            delays,
            straggler,
            crashed,
        }
    }

    /// The fixed extra latency of an undirected edge.
    pub(crate) fn delay_of(&self, edge: usize) -> u64 {
        if self.delays.is_empty() {
            0
        } else {
            u64::from(self.delays[edge])
        }
    }

    /// The first local round `≥ round` at which `node` polls. Identity for
    /// non-stragglers; stragglers poll on global rounds `≡ phase (mod
    /// period)`.
    pub(crate) fn next_poll(&self, node: usize, round: u64) -> u64 {
        let phase = self.straggler.get(node).copied().unwrap_or(u32::MAX);
        if phase == u32::MAX {
            return round;
        }
        let period = u64::from(self.plan.straggler_period);
        let global = round + self.plan.round_offset;
        let rem = (global + period - u64::from(phase) % period) % period;
        if rem == 0 {
            round
        } else {
            round + period - rem
        }
    }

    /// The round at which a node that is not done must next be polled,
    /// having just been polled at `round`: its `next_wake` answer (`None`
    /// meaning the next round) aligned to its poll schedule. Stragglers can
    /// only be polled on their poll rounds, so a late wake is exactly the
    /// straggler fault; the protocol layer budgets for it.
    pub(crate) fn wake_round(&self, node: usize, wake: Option<u64>, round: u64) -> u64 {
        let target = wake.map_or(round + 1, |r| r.max(round + 1));
        self.next_poll(node, target)
    }

    /// Whether the delivery into `slot` (recipient-side directed-edge
    /// index) during local round `round` is lost.
    pub(crate) fn lose(&self, slot: u64, round: u64) -> bool {
        self.hits(TAG_LOSS, self.plan.loss_ppm, slot, round)
    }

    /// Whether the delivery into `slot` during local round `round` is
    /// duplicated.
    pub(crate) fn duplicate(&self, slot: u64, round: u64) -> bool {
        self.hits(TAG_DUP, self.plan.dup_ppm, slot, round)
    }

    /// One per-delivery draw of probability `ppm / 10^6`, keyed by `tag`,
    /// `slot` and the global round.
    fn hits(&self, tag: u64, ppm: u32, slot: u64, round: u64) -> bool {
        let global = round + self.plan.round_offset;
        ppm > 0 && hits_ppm(word(self.plan.seed, tag, slot, global), ppm)
    }

    /// The crashing node ids, ascending.
    pub(crate) fn crash_nodes(&self) -> &[u32] {
        &self.crashed
    }

    pub(crate) fn is_crash_node(&self, node: usize) -> bool {
        self.crashed.binary_search(&(node as u32)).is_ok()
    }

    /// Whether `node` is dead during local round `round`.
    pub(crate) fn crashed_at(&self, node: usize, round: u64) -> bool {
        if self.crashed.is_empty() || !self.is_crash_node(node) {
            return false;
        }
        let global = round + self.plan.round_offset;
        if global < self.plan.crash_round {
            return false;
        }
        self.plan.restart_after == 0 || global < self.plan.crash_round + self.plan.restart_after
    }

    /// The local round at which crashed nodes restart, if that round lies
    /// in this run's future (`None` for permanent crashes and for crash
    /// windows that closed before this run's global clock started).
    pub(crate) fn restart_local_round(&self) -> Option<u64> {
        if self.crashed.is_empty() || self.plan.restart_after == 0 {
            return None;
        }
        let global = self.plan.crash_round + self.plan.restart_after;
        global
            .checked_sub(self.plan.round_offset)
            .filter(|&r| r > 0)
    }
}

/// Fault-event tallies of one run (or one shard of a run). The event
/// counts are thread-invariant facts — pure functions of the plan and the
/// protocol's sends — and fold into `lcs_obs` counters; the queue peak is
/// schedule-shaped and goes to a gauge.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FaultCounters {
    pub(crate) drops: u64,
    pub(crate) dups: u64,
    pub(crate) delays: u64,
    pub(crate) crash_drops: u64,
    pub(crate) restarts: u64,
    pub(crate) queue_peak: u64,
}

impl FaultCounters {
    /// Folds another shard's tallies in (sums; peak by max).
    pub(crate) fn absorb(&mut self, other: &FaultCounters) {
        self.drops += other.drops;
        self.dups += other.dups;
        self.delays += other.delays;
        self.crash_drops += other.crash_drops;
        self.restarts += other.restarts;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
    }

    /// Records the tallies into the obs registry (no-op when off).
    pub(crate) fn record(&self, obs: &Obs) {
        if !obs.is_on() {
            return;
        }
        obs.counter_add("fault/drops", self.drops);
        obs.counter_add("fault/dups", self.dups);
        obs.counter_add("fault/delays", self.delays);
        obs.counter_add("fault/crash_drops", self.crash_drops);
        obs.counter_add("fault/restarts", self.restarts);
        obs.gauge_max("fault/queue_depth", self.queue_peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Wheel;
    use lcs_graph::generators;

    #[test]
    fn zero_knob_plan_is_inactive() {
        let plan = FaultPlan::new(7).with_round_offset(55);
        assert!(!plan.active());
        assert_eq!(plan.round_stretch(), 1);
        // Degenerate straggler periods keep the plan inactive.
        assert!(!FaultPlan::new(7).with_stragglers(500_000, 1).active());
        assert!(FaultPlan::new(7).with_stragglers(500_000, 3).active());
        assert!(FaultPlan::new(7).with_latency(1).active());
        assert!(FaultPlan::new(7).with_loss_ppm(1).active());
        assert!(FaultPlan::new(7).with_dup_ppm(1).active());
        assert!(FaultPlan::new(7).with_crashes(1, 5, 0).active());
    }

    #[test]
    fn round_stretch_multiplies_latency_and_period() {
        let plan = FaultPlan::new(1)
            .with_latency(2)
            .with_stragglers(1_000_000, 4);
        assert_eq!(plan.round_stretch(), 12);
        assert_eq!(FaultPlan::new(1).with_latency(3).round_stretch(), 4);
    }

    #[test]
    fn state_is_a_pure_function_of_plan_and_graph() {
        let graph = generators::grid(6, 6);
        let plan = FaultPlan::new(42)
            .with_latency(3)
            .with_loss_ppm(100_000)
            .with_dup_ppm(50_000)
            .with_stragglers(300_000, 3)
            .with_crashes(2, 10, 5);
        let a = FaultState::new(&plan, &graph);
        let b = FaultState::new(&plan, &graph);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.straggler, b.straggler);
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(a.crashed.len(), 2);
        for slot in 0..20u64 {
            for round in 1..20u64 {
                assert_eq!(a.lose(slot, round), b.lose(slot, round));
                assert_eq!(a.duplicate(slot, round), b.duplicate(slot, round));
            }
        }
    }

    #[test]
    fn next_poll_respects_phase_and_period() {
        let graph = generators::grid(4, 4);
        let plan = FaultPlan::new(9).with_stragglers(1_000_000, 4);
        let state = FaultState::new(&plan, &graph);
        for v in 0..graph.node_count() {
            let phase = state.straggler[v];
            assert_ne!(phase, u32::MAX, "ppm=10^6 makes every node a straggler");
            for r in 1..30u64 {
                let due = state.next_poll(v, r);
                assert!(due >= r && due < r + 4);
                assert_eq!(due % 4, u64::from(phase) % 4);
            }
        }
    }

    #[test]
    fn crash_window_and_restart_round() {
        let graph = generators::grid(4, 4);
        let plan = FaultPlan::new(3).with_crashes(1, 10, 5);
        let state = FaultState::new(&plan, &graph);
        let v = state.crash_nodes()[0] as usize;
        assert!(!state.crashed_at(v, 9));
        assert!(state.crashed_at(v, 10));
        assert!(state.crashed_at(v, 14));
        assert!(!state.crashed_at(v, 15));
        assert_eq!(state.restart_local_round(), Some(15));

        // Permanent crash: dead forever, no restart round.
        let forever = FaultState::new(&FaultPlan::new(3).with_crashes(1, 10, 0), &graph);
        let v = forever.crash_nodes()[0] as usize;
        assert!(forever.crashed_at(v, 1_000_000));
        assert_eq!(forever.restart_local_round(), None);

        // An offset past the crash window heals the node for the epoch.
        let healed = FaultState::new(
            &FaultPlan::new(3)
                .with_crashes(1, 10, 5)
                .with_round_offset(20),
            &graph,
        );
        let v = healed.crash_nodes()[0] as usize;
        assert!(!healed.crashed_at(v, 1));
        assert_eq!(healed.restart_local_round(), None);
    }

    /// At every round a shard's wheel of delayed copies pops exactly the
    /// copies due then, in push order, with dues set by the plans' edge
    /// latencies and straggler phases: local copies pushed as they are
    /// posted, copies another shard staged and pushed at the next round
    /// (some due in that very round), and copies whose latency parks them
    /// in the overflow list for up to three revolutions.
    #[test]
    fn due_wheel_pops_copies_in_push_order() {
        let graph = generators::grid(4, 4);
        let ring = Wheel::<(u64, u32)>::RING;
        let near = FaultState::new(
            &FaultPlan::new(11)
                .with_latency(2)
                .with_stragglers(500_000, 3),
            &graph,
        );
        let far = FaultState::new(&FaultPlan::new(12).with_latency(3 * ring as u32), &graph);
        let mut wheel = Wheel::new();
        let mut pending: Vec<(u64, u32)> = Vec::new();
        let mut staged: Vec<(u64, u32)> = Vec::new();
        let (mut same_round, mut longest) = (0, 0);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut id = 0;
        let mut round = 0;
        while round < 200 || !pending.is_empty() || !staged.is_empty() {
            round += 1;
            for copy in staged.drain(..) {
                same_round += usize::from(copy.0 == round);
                wheel.push(copy.0, copy);
                pending.push(copy);
            }
            assert_eq!(wheel.len(), pending.len(), "round {round}");
            let mut popped = Vec::new();
            wheel.fire(round, |copy| popped.push(copy));
            let due: Vec<(u64, u32)> = pending.iter().filter(|c| c.0 == round).copied().collect();
            pending.retain(|c| c.0 != round);
            assert_eq!(popped, due, "round {round}");
            if round < 200 {
                for _ in 0..4 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let state = if x & 1 == 0 { &near } else { &far };
                    let edge = ((x >> 8) % graph.edge_count() as u64) as usize;
                    let to = ((x >> 32) % graph.node_count() as u64) as usize;
                    let copy = (state.next_poll(to, round + 1 + state.delay_of(edge)), id);
                    id += 1;
                    longest = longest.max(copy.0 - round);
                    if x >> 63 == 0 {
                        wheel.push(copy.0, copy);
                        pending.push(copy);
                    } else {
                        staged.push(copy);
                    }
                }
            }
        }
        assert!(wheel.is_empty());
        assert!(same_round > 0, "no staged copy fell due at its push");
        assert!(longest > 2 * ring, "no copy waited two revolutions");
    }
}
