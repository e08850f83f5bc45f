//! The traffic knobs: query-mix weights, open/closed-loop mode, and the
//! full [`WorkloadSpec`] a driver run is a pure function of.

use lcs_api::{ExecutionMode, LcsError, Result, Threads};

/// Integer weights of the five query kinds in a trace. The trace
/// generator apportions the total query count *exactly* (largest-remainder
/// rounding), so a 1000-query trace with weights 10/55/30/5 contains
/// exactly 100 constructs — never 99 or 101.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMix {
    /// Weight of shortcut-construction queries.
    pub construct: u32,
    /// Weight of verification queries against the prebuilt decomposition.
    pub verify: u32,
    /// Weight of quality-measurement queries.
    pub quality: u32,
    /// Weight of MST queries.
    pub mst: u32,
    /// Weight of partition-churn repair queries (each replays the entry's
    /// pre-generated delta against its tracked baseline). Requires a
    /// corpus built with repair cases when nonzero.
    pub repair: u32,
}

impl QueryMix {
    /// The "consume" mix: pure read traffic against prebuilt
    /// decompositions — 60% verify, 40% quality. This is the
    /// one-decomposition-many-consumers serving shape E11 measured.
    pub fn consume() -> Self {
        QueryMix {
            construct: 0,
            verify: 60,
            quality: 40,
            mst: 0,
            repair: 0,
        }
    }

    /// The "mixed" mix: mostly reads with a construction and MST
    /// minority — 10% construct, 55% verify, 30% quality, 5% MST. The
    /// expensive minority is what pushes the open-loop tail out.
    pub fn mixed() -> Self {
        QueryMix {
            construct: 10,
            verify: 55,
            quality: 30,
            mst: 5,
            repair: 0,
        }
    }

    /// Sum of the five weights.
    pub fn total(&self) -> u64 {
        u64::from(self.construct)
            + u64::from(self.verify)
            + u64::from(self.quality)
            + u64::from(self.mst)
            + u64::from(self.repair)
    }

    /// A short label: `"consume"` / `"mixed"` for the named presets,
    /// otherwise the raw weights as `c10/v55/q30/m5` (with a trailing
    /// `/r{n}` only when the repair weight is nonzero, so pre-churn labels
    /// are unchanged).
    pub fn label(&self) -> String {
        if *self == QueryMix::consume() {
            "consume".to_string()
        } else if *self == QueryMix::mixed() {
            "mixed".to_string()
        } else {
            let mut label = format!(
                "c{}/v{}/q{}/m{}",
                self.construct, self.verify, self.quality, self.mst
            );
            if self.repair > 0 {
                label.push_str(&format!("/r{}", self.repair));
            }
            label
        }
    }

    /// Apportions `queries` over the four kinds exactly, by largest
    /// remainder: each kind gets `⌊queries·w/total⌋`, and the leftover
    /// queries go to the kinds with the largest fractional remainders
    /// (ties broken in construct, verify, quality, mst order). The result
    /// always sums to `queries`, and a zero-weight kind always gets zero.
    ///
    /// Returns `[construct, verify, quality, mst, repair]` counts.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero — specs are validated by the trace
    /// generator before reaching this point.
    pub fn counts(&self, queries: usize) -> [usize; 5] {
        let total = self.total();
        assert!(total > 0, "query mix must have a nonzero weight");
        let weights = [
            u64::from(self.construct),
            u64::from(self.verify),
            u64::from(self.quality),
            u64::from(self.mst),
            u64::from(self.repair),
        ];
        let mut counts = [0usize; 5];
        let mut remainders = [0u64; 5];
        let q = queries as u64;
        for k in 0..5 {
            counts[k] = ((q * weights[k]) / total) as usize;
            remainders[k] = (q * weights[k]) % total;
        }
        let mut leftover = queries - counts.iter().sum::<usize>();
        // Stable selection: largest remainder first, kind order on ties.
        let mut order = [0usize, 1, 2, 3, 4];
        order.sort_by(|&a, &b| remainders[b].cmp(&remainders[a]).then(a.cmp(&b)));
        for &k in &order {
            if leftover == 0 {
                break;
            }
            // sum(remainders) == leftover * total with each remainder
            // < total, so at least `leftover` kinds have a nonzero
            // remainder — zero-weight kinds are never reached.
            if remainders[k] > 0 {
                counts[k] += 1;
                leftover -= 1;
            }
        }
        debug_assert_eq!(counts.iter().sum::<usize>(), queries);
        counts
    }
}

/// How the driver paces queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Open loop: queries arrive on a fixed schedule (Poisson
    /// interarrivals with the given mean), independent of completions.
    /// One client serves them in order; latency is completion −
    /// *scheduled* arrival, so queueing delay counts and slow queries
    /// cannot hide the backlog they cause (no coordinated omission).
    Open {
        /// Mean interarrival gap in nanoseconds (0 = maximal pressure:
        /// every query is due at t=0).
        mean_interarrival_nanos: u64,
    },
    /// Closed loop: `clients` concurrent clients, each with its own
    /// connection (in process, its own warm session), each issuing its
    /// next query only after the previous one completes plus an optional
    /// think-time. Latency is per-query service time as the client sees
    /// it.
    Closed {
        /// Number of concurrent clients (threads). Must be ≥ 1.
        clients: usize,
        /// Think-time between a client's queries, in nanoseconds.
        think_nanos: u64,
    },
}

impl Mode {
    /// `"open"` or `"closed"`, for table rows.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Open { .. } => "open",
            Mode::Closed { .. } => "closed",
        }
    }

    /// The client count: 1 for open loop, `clients` for closed loop.
    pub fn clients(&self) -> usize {
        match self {
            Mode::Open { .. } => 1,
            Mode::Closed { clients, .. } => *clients,
        }
    }
}

/// The one zero-client check of trace generation and of every transport's
/// replay: a closed loop needs at least one client.
pub(crate) fn check_clients(mode: Mode) -> Result<()> {
    if let Mode::Closed { clients: 0, .. } = mode {
        return Err(LcsError::Config {
            reason: "closed-loop workload needs at least one client".to_string(),
        });
    }
    Ok(())
}

/// Everything a workload run is a pure function of (plus the corpus).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Open- or closed-loop pacing.
    pub mode: Mode,
    /// Total number of queries in the trace.
    pub queries: usize,
    /// Zipf skew over corpus entries: 0 = uniform, 1 = head-heavy.
    pub theta: f64,
    /// Query-kind mix.
    pub mix: QueryMix,
    /// Seed of the trace and of every session the driver builds.
    pub seed: u64,
    /// Execution mode of the serving sessions.
    pub execution: ExecutionMode,
    /// Engine thread count of the serving sessions. Result values are
    /// identical at any setting; only timings move.
    pub threads: Threads,
    /// Collect every query's result values into the outcome (for
    /// equivalence tests; in process only, since the TCP transport carries
    /// digests). Off by default: the hot path records only latencies and
    /// digests.
    pub keep_results: bool,
}

impl WorkloadSpec {
    /// A spec with the given traffic shape and the serving defaults:
    /// `Scheduled` execution, automatic thread count, results not kept.
    pub fn new(mode: Mode, queries: usize, theta: f64, mix: QueryMix, seed: u64) -> Self {
        WorkloadSpec {
            mode,
            queries,
            theta,
            mix,
            seed,
            execution: ExecutionMode::Scheduled,
            threads: Threads::Auto,
            keep_results: false,
        }
    }

    /// Replaces the execution mode.
    pub fn execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Replaces the engine thread count.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Enables collection of per-query result values.
    pub fn keep_results(mut self, keep: bool) -> Self {
        self.keep_results = keep;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_for_the_presets() {
        assert_eq!(QueryMix::consume().counts(100), [0, 60, 40, 0, 0]);
        assert_eq!(QueryMix::mixed().counts(100), [10, 55, 30, 5, 0]);
        assert_eq!(QueryMix::mixed().counts(0), [0, 0, 0, 0, 0]);
    }

    #[test]
    fn counts_always_sum_and_respect_zero_weights() {
        let mixes = [
            QueryMix::consume(),
            QueryMix::mixed(),
            QueryMix {
                construct: 1,
                verify: 1,
                quality: 1,
                mst: 0,
                repair: 0,
            },
            QueryMix {
                construct: 0,
                verify: 0,
                quality: 7,
                mst: 3,
                repair: 0,
            },
            QueryMix {
                construct: 0,
                verify: 3,
                quality: 0,
                mst: 0,
                repair: 2,
            },
        ];
        for mix in mixes {
            for queries in [1usize, 2, 3, 7, 99, 1000] {
                let counts = mix.counts(queries);
                assert_eq!(counts.iter().sum::<usize>(), queries, "{mix:?}");
                if mix.construct == 0 {
                    assert_eq!(counts[0], 0, "zero weight must stay zero: {mix:?}");
                }
                if mix.mst == 0 {
                    assert_eq!(counts[3], 0, "zero weight must stay zero: {mix:?}");
                }
                if mix.repair == 0 {
                    assert_eq!(counts[4], 0, "zero weight must stay zero: {mix:?}");
                }
            }
        }
    }

    #[test]
    fn labels_name_the_presets() {
        assert_eq!(QueryMix::consume().label(), "consume");
        assert_eq!(QueryMix::mixed().label(), "mixed");
        assert_eq!(
            QueryMix {
                construct: 1,
                verify: 2,
                quality: 3,
                mst: 4,
                repair: 0,
            }
            .label(),
            "c1/v2/q3/m4"
        );
        assert_eq!(
            QueryMix {
                construct: 1,
                verify: 2,
                quality: 3,
                mst: 4,
                repair: 5,
            }
            .label(),
            "c1/v2/q3/m4/r5"
        );
        assert_eq!(
            Mode::Open {
                mean_interarrival_nanos: 5
            }
            .label(),
            "open"
        );
        assert_eq!(
            Mode::Closed {
                clients: 3,
                think_nanos: 0
            }
            .clients(),
            3
        );
    }
}
