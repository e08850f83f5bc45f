//! The seeded trace generator: same [`WorkloadSpec`] ⇒ byte-identical
//! event sequence, always.
//!
//! A trace is generated in three fixed RNG phases from one
//! `ChaCha8Rng::seed_from_u64(spec.seed)` stream:
//!
//! 1. **Kinds** — the exact per-kind counts from
//!    [`QueryMix::counts`](crate::QueryMix::counts), laid out in kind
//!    order and Fisher–Yates-shuffled.
//! 2. **Entries** — one Zipf(θ) draw per query (rank = corpus entry, so
//!    entry 0 is the hottest under skew).
//! 3. **Arrivals** — open loop only: cumulative exponential gaps
//!    (inverse-CDF from one uniform draw each), giving Poisson arrivals
//!    at the spec's mean rate. Closed loop records 0 — clients pace
//!    themselves.
//!
//! The phases draw in a fixed order and each consumes a fixed number of
//! RNG words per query, which is the entire determinism argument: no
//! data-dependent draw counts, no platform floats beyond IEEE-754
//! `powf`/`ln` on fixed inputs.

use lcs_api::{LcsError, LcsResult};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::spec::{check_clients, Mode, WorkloadSpec};
use crate::zipf::{unit_f64, ZipfSampler};

/// The five query kinds a trace event can carry, mirroring
/// [`lcs_api::Query`]'s variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Construct a shortcut for the entry's partition.
    Construct,
    /// Verify the entry's prebuilt shortcut against its threshold.
    Verify,
    /// Measure the entry's prebuilt shortcut quality.
    Quality,
    /// Run MST with the entry's weight permutation.
    Mst,
    /// Replay the entry's pre-generated partition delta against its
    /// tracked repair baseline.
    Repair,
}

impl QueryKind {
    /// All kinds, in mix-weight order (construct, verify, quality, mst,
    /// repair).
    pub const ALL: [QueryKind; 5] = [
        QueryKind::Construct,
        QueryKind::Verify,
        QueryKind::Quality,
        QueryKind::Mst,
        QueryKind::Repair,
    ];

    /// Index into mix-order arrays
    /// (`[construct, verify, quality, mst, repair]`).
    pub fn index(self) -> usize {
        match self {
            QueryKind::Construct => 0,
            QueryKind::Verify => 1,
            QueryKind::Quality => 2,
            QueryKind::Mst => 3,
            QueryKind::Repair => 4,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Construct => "construct",
            QueryKind::Verify => "verify",
            QueryKind::Quality => "quality",
            QueryKind::Mst => "mst",
            QueryKind::Repair => "repair",
        }
    }
}

/// One query in a trace: what to run, against which corpus entry, and —
/// open loop only — when it is scheduled to arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryEvent {
    /// The query kind.
    pub kind: QueryKind,
    /// Index of the corpus entry this query targets.
    pub entry: usize,
    /// Scheduled arrival offset from workload start, in nanoseconds.
    /// Always 0 in closed-loop traces.
    pub arrival_nanos: u64,
}

/// Generates the full deterministic trace for `spec` over a corpus of
/// `corpus_entries` entries.
///
/// # Errors
///
/// [`LcsError::Config`] when the workload cannot possibly run: an empty
/// corpus, zero queries, an all-zero query mix, a bad Zipf θ, or a
/// closed-loop client count of zero.
pub fn generate_trace(spec: &WorkloadSpec, corpus_entries: usize) -> LcsResult<Vec<QueryEvent>> {
    if corpus_entries == 0 {
        return Err(LcsError::Config {
            reason: "workload needs a nonempty corpus".to_string(),
        });
    }
    if spec.queries == 0 {
        return Err(LcsError::Config {
            reason: "workload needs at least one query (spec.queries = 0)".to_string(),
        });
    }
    if spec.mix.total() == 0 {
        return Err(LcsError::Config {
            reason: "query mix has all-zero weights; nothing to serve".to_string(),
        });
    }
    check_clients(spec.mode)?;
    let sampler = ZipfSampler::new(corpus_entries, spec.theta)?;

    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);

    // Phase 1: exact kind counts, shuffled.
    let counts = spec.mix.counts(spec.queries);
    let mut kinds = Vec::with_capacity(spec.queries);
    for (kind, &count) in QueryKind::ALL.iter().zip(&counts) {
        kinds.extend(std::iter::repeat_n(*kind, count));
    }
    kinds.shuffle(&mut rng);

    // Phase 2: one Zipf draw per query.
    let entries: Vec<usize> = (0..spec.queries)
        .map(|_| sampler.sample(&mut rng))
        .collect();

    // Phase 3: arrival schedule (open loop only).
    let mut events = Vec::with_capacity(spec.queries);
    let mut clock = 0u64;
    for (kind, entry) in kinds.into_iter().zip(entries) {
        let arrival_nanos = match spec.mode {
            Mode::Open {
                mean_interarrival_nanos,
            } => {
                // Inverse-CDF exponential gap: -ln(1-u) * mean. u < 1 by
                // construction, so the log argument is strictly positive.
                let u = unit_f64(&mut rng);
                let gap = (-(1.0 - u).ln()) * mean_interarrival_nanos as f64;
                clock = clock.saturating_add(gap as u64);
                clock
            }
            Mode::Closed { .. } => 0,
        };
        events.push(QueryEvent {
            kind,
            entry,
            arrival_nanos,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QueryMix;

    fn spec(mode: Mode) -> WorkloadSpec {
        WorkloadSpec::new(mode, 50, 1.0, QueryMix::mixed(), 11)
    }

    #[test]
    fn same_seed_identical_trace() {
        let s = spec(Mode::Open {
            mean_interarrival_nanos: 1000,
        });
        assert_eq!(
            generate_trace(&s, 5).unwrap(),
            generate_trace(&s, 5).unwrap()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = spec(Mode::Closed {
            clients: 2,
            think_nanos: 0,
        });
        let mut b = a;
        b.seed = a.seed + 1;
        assert_ne!(
            generate_trace(&a, 5).unwrap(),
            generate_trace(&b, 5).unwrap()
        );
    }

    #[test]
    fn open_arrivals_are_nondecreasing_and_closed_are_zero() {
        let open = generate_trace(
            &spec(Mode::Open {
                mean_interarrival_nanos: 500,
            }),
            4,
        )
        .unwrap();
        let mut last = 0;
        for e in &open {
            assert!(e.arrival_nanos >= last);
            last = e.arrival_nanos;
        }
        let closed = generate_trace(
            &spec(Mode::Closed {
                clients: 3,
                think_nanos: 10,
            }),
            4,
        )
        .unwrap();
        assert!(closed.iter().all(|e| e.arrival_nanos == 0));
    }

    #[test]
    fn kind_counts_match_the_mix_exactly() {
        let s = spec(Mode::Closed {
            clients: 1,
            think_nanos: 0,
        });
        let trace = generate_trace(&s, 3).unwrap();
        let expected = s.mix.counts(s.queries);
        let mut got = [0usize; 5];
        for e in &trace {
            got[e.kind.index()] += 1;
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn bad_specs_are_typed_config_errors() {
        let s = spec(Mode::Open {
            mean_interarrival_nanos: 0,
        });
        assert!(matches!(
            generate_trace(&s, 0),
            Err(LcsError::Config { .. })
        ));
        let mut zero_queries = s;
        zero_queries.queries = 0;
        assert!(matches!(
            generate_trace(&zero_queries, 4),
            Err(LcsError::Config { .. })
        ));
        let mut zero_mix = s;
        zero_mix.mix = QueryMix {
            construct: 0,
            verify: 0,
            quality: 0,
            mst: 0,
            repair: 0,
        };
        assert!(matches!(
            generate_trace(&zero_mix, 4),
            Err(LcsError::Config { .. })
        ));
        let zero_clients = spec(Mode::Closed {
            clients: 0,
            think_nanos: 0,
        });
        assert!(matches!(
            generate_trace(&zero_clients, 4),
            Err(LcsError::Config { .. })
        ));
    }

    #[test]
    fn entries_stay_in_corpus_range() {
        let s = spec(Mode::Closed {
            clients: 2,
            think_nanos: 0,
        });
        for e in generate_trace(&s, 3).unwrap() {
            assert!(e.entry < 3);
        }
    }
}
