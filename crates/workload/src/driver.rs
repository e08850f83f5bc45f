//! The open- and closed-loop workload drivers.
//!
//! Both drivers replay one deterministic trace against warm
//! [`Session`]s and record into [`LatencyHistogram`]s; they differ only
//! in pacing and in what "latency" means:
//!
//! * **Open loop** — one warm session, queries served in trace order, and
//!   each query's latency is *completion − scheduled arrival*. A query
//!   that arrives while the previous one is still running pays the
//!   queueing delay, so expensive minorities (constructs in a mixed
//!   trace) push the measured tail out — this is the
//!   coordinated-omission-free measurement the E13 tier reads.
//! * **Closed loop** — `k` client threads, each with its own warm session
//!   seeded identically, serving the trace round-robin (client `i` takes
//!   events `i, i+k, i+2k, …`) with optional think-time; latency is
//!   per-query service time.
//!
//! Determinism: result *values* are pure functions of (graph, partition,
//! strategy, session seed), so each client's digest chain — and the
//! outcome digest, which folds per-client digests in client order — is
//! reproducible at any `LCS_THREADS`, on any machine, under any
//! interleaving. Timings vary; values and digests do not.

use std::time::{Duration, Instant};

use lcs_api::{
    Query, QueryValue, Result, Served, Session, ShortcutStrategy, Strategy, ValueDigest,
};
use lcs_obs::Obs;

use crate::corpus::Corpus;
use crate::histogram::LatencyHistogram;
use crate::spec::{Mode, WorkloadSpec};
use crate::trace::{generate_trace, QueryEvent, QueryKind};

/// What one client measured: its sub-histogram, query count, and the
/// FNV-1a chain over its served-result digests (in its serving order).
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Client index (0 for the open-loop driver).
    pub client: usize,
    /// Number of queries this client served.
    pub queries: u64,
    /// This client's latency sub-histogram.
    pub histogram: LatencyHistogram,
    /// FNV-1a chain over this client's per-query result digests.
    pub digest: u64,
}

/// The merged result of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// All clients' histograms merged.
    pub histogram: LatencyHistogram,
    /// Per-client sub-outcomes, in client-index order.
    pub per_client: Vec<ClientOutcome>,
    /// Total queries served (the trace length).
    pub queries: u64,
    /// Per-kind served counts, in
    /// `[construct, verify, quality, mst, repair]` order.
    pub kind_counts: [u64; 5],
    /// Wall-clock nanoseconds of the whole run.
    pub wall_nanos: u64,
    /// FNV-1a fold of the per-client digests in client order — the
    /// one-number determinism check: same spec + corpus ⇒ same digest.
    pub digest: u64,
    /// Every query's result values in trace order, when
    /// [`WorkloadSpec::keep_results`] asked for them.
    pub results: Option<Vec<QueryValue>>,
}

impl WorkloadOutcome {
    /// Served queries per second of wall-clock time.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.queries as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

/// Maps a trace event to the [`Query`] it stands for, borrowing the
/// entry's prebuilt inputs from the corpus. Public so equivalence tests
/// can replay a trace through [`Session`] directly.
///
/// # Panics
///
/// Panics if `event.entry` is out of the corpus's range — traces are
/// generated against the same corpus length, so this is a caller bug.
/// Likewise panics on a [`QueryKind::Repair`] event against an entry with
/// no pre-generated repair case — [`run_workload`] rejects that
/// combination with [`lcs_api::LcsError::Config`] before serving starts,
/// so reaching the panic means the trace bypassed validation.
pub fn query_of<'a>(corpus: &'a Corpus, event: &QueryEvent) -> Query<'a> {
    let entry = &corpus.entries()[event.entry];
    match event.kind {
        QueryKind::Construct => Query::Construct {
            partition: &entry.partition,
            strategy: Strategy::doubling(),
        },
        QueryKind::Verify => Query::Verify {
            shortcut: &entry.shortcut,
            partition: &entry.partition,
            threshold: entry.threshold,
        },
        QueryKind::Quality => Query::Quality {
            shortcut: &entry.shortcut,
            partition: &entry.partition,
        },
        QueryKind::Mst => Query::Mst {
            weights: &entry.weights,
            strategy: ShortcutStrategy::Doubling,
        },
        QueryKind::Repair => {
            let case = entry
                .repair
                .as_ref()
                .expect("repair event against a corpus built without repair cases");
            Query::Repair {
                baseline: &case.baseline,
                delta: &case.delta,
            }
        }
    }
}

/// Builds one warm serving session over the corpus graph; both drivers
/// (and every closed-loop client) go through here so their sessions are
/// configured identically. The shared recorder handle makes every served
/// query report its `serve/{kind}/*` probes (counter adds commute, so the
/// snapshot's counters stay client-order independent).
fn warm_session<'g>(corpus: &'g Corpus, spec: &WorkloadSpec, obs: &Obs) -> Result<Session<'g>> {
    lcs_api::Pipeline::on(corpus.graph())
        .seed(spec.seed)
        .execution(spec.execution)
        .threads(spec.threads)
        .recorder(obs.clone())
        .build()
}

/// Runs the workload described by `spec` against `corpus` and returns the
/// merged outcome. Dispatches on [`WorkloadSpec::mode`].
///
/// # Errors
///
/// [`lcs_api::LcsError::Config`] for degenerate specs (empty corpus, zero
/// queries, all-zero mix, zero clients — see
/// [`generate_trace`]); otherwise the first
/// query error a session reports.
pub fn run_workload(corpus: &Corpus, spec: &WorkloadSpec) -> Result<WorkloadOutcome> {
    run_workload_obs(corpus, spec, &Obs::off())
}

/// [`run_workload`] with an instrumentation handle. On top of the
/// per-query `serve/{kind}/*` probes every session reports, the drivers
/// add their own: `workload/runs` / `workload/queries` counters, the
/// merged latency distribution (`workload/latency` timer), and — open
/// loop only — the scheduled-vs-start lag timer (`workload/open/lag`)
/// and the high-water queue depth (`workload/open/max_queue_depth`
/// gauge). Counters are trace facts, identical for every thread and
/// client count; timers and the queue-depth gauge are measurements.
pub fn run_workload_obs(
    corpus: &Corpus,
    spec: &WorkloadSpec,
    obs: &Obs,
) -> Result<WorkloadOutcome> {
    let trace = generate_trace(spec, corpus.len())?;
    let kind_counts = count_kinds(&trace);
    if kind_counts[QueryKind::Repair.index()] > 0
        && corpus.entries().iter().any(|e| e.repair.is_none())
    {
        return Err(lcs_api::LcsError::Config {
            reason: "query mix has a repair weight but the corpus has no pre-generated \
                     repair cases; build it with Corpus::build_with_repair"
                .to_string(),
        });
    }
    if obs.is_on() {
        obs.counter_add("workload/runs", 1);
        obs.counter_add("workload/queries", trace.len() as u64);
    }
    let outcome = match spec.mode {
        Mode::Open { .. } => run_open(corpus, spec, &trace, kind_counts, obs),
        Mode::Closed {
            clients,
            think_nanos,
        } => run_closed(corpus, spec, &trace, kind_counts, clients, think_nanos, obs),
    }?;
    if obs.is_on() {
        obs.timer_merge("workload/latency", &outcome.histogram);
    }
    Ok(outcome)
}

fn count_kinds(trace: &[QueryEvent]) -> [u64; 5] {
    let mut counts = [0u64; 5];
    for e in trace {
        counts[e.kind.index()] += 1;
    }
    counts
}

/// What one client's serving loop produces: its histogram, the number of
/// queries it served, its digest chain, and (when kept) its result values.
type ClientRun = (LatencyHistogram, u64, u64, Vec<QueryValue>);

/// One client's serving loop over `events`, shared by both drivers.
/// `latency_of` chooses the measurement (service time vs. schedule-based).
fn serve_events<'a>(
    session: &Session<'_>,
    corpus: &Corpus,
    events: impl Iterator<Item = &'a QueryEvent>,
    keep_results: bool,
    mut before: impl FnMut(&QueryEvent),
    mut latency_of: impl FnMut(&QueryEvent, &Served) -> u64,
    think_nanos: u64,
) -> Result<ClientRun> {
    let mut histogram = LatencyHistogram::new();
    let mut digest = ValueDigest::new();
    let mut served_count = 0u64;
    let mut values = Vec::new();
    for event in events {
        before(event);
        let query = query_of(corpus, event);
        let served = if keep_results {
            let (served, value) = session.serve_shared_full(query)?;
            values.push(value);
            served
        } else {
            session.serve_shared(query)?
        };
        histogram.record(latency_of(event, &served));
        digest.push(served.digest);
        served_count += 1;
        if think_nanos > 0 {
            std::thread::sleep(Duration::from_nanos(think_nanos));
        }
    }
    Ok((histogram, served_count, digest.value(), values))
}

fn finish(
    per_client: Vec<ClientOutcome>,
    kind_counts: [u64; 5],
    wall_nanos: u64,
    results: Option<Vec<QueryValue>>,
) -> WorkloadOutcome {
    let mut histogram = LatencyHistogram::new();
    let mut digest = ValueDigest::new();
    let mut queries = 0u64;
    for client in &per_client {
        histogram.merge(&client.histogram);
        digest.push(client.digest);
        queries += client.queries;
    }
    WorkloadOutcome {
        histogram,
        per_client,
        queries,
        kind_counts,
        wall_nanos,
        digest: digest.value(),
        results,
    }
}

fn run_open(
    corpus: &Corpus,
    spec: &WorkloadSpec,
    trace: &[QueryEvent],
    kind_counts: [u64; 5],
    obs: &Obs,
) -> Result<WorkloadOutcome> {
    let session = warm_session(corpus, spec, obs)?;
    // Driver probes accumulate into plain locals on the serving path (a
    // histogram of start lags and a queue-depth high-water mark) and hit
    // the registry once, after the loop — the hot path stays lock-free.
    let probe_on = obs.is_on();
    let mut lag_hist = probe_on.then(LatencyHistogram::new);
    let mut max_depth = 0u64;
    let mut next_index = 0usize;
    let start = Instant::now();
    let (histogram, served, digest, values) = serve_events(
        &session,
        corpus,
        trace.iter(),
        spec.keep_results,
        // Hold each query until its scheduled arrival. If the schedule
        // has fallen behind (the previous query overran), fire at once —
        // the latency measurement below charges the backlog.
        |event| {
            while (start.elapsed().as_nanos() as u64) < event.arrival_nanos {
                std::hint::spin_loop();
            }
            if let Some(hist) = &mut lag_hist {
                let now = start.elapsed().as_nanos() as u64;
                // How late the query actually starts relative to its
                // scheduled arrival: ~0 when the loop keeps up, the
                // accumulated backlog when it doesn't.
                hist.record(now.saturating_sub(event.arrival_nanos));
                // Queue depth at start of service: this event plus every
                // later one already due (the trace is arrival-sorted).
                let depth = trace[next_index..]
                    .iter()
                    .take_while(|e| e.arrival_nanos <= now)
                    .count() as u64;
                max_depth = max_depth.max(depth);
            }
            next_index += 1;
        },
        // Completion minus *scheduled* arrival: queueing delay included.
        |event, _| (start.elapsed().as_nanos() as u64).saturating_sub(event.arrival_nanos),
        0,
    )?;
    let wall_nanos = start.elapsed().as_nanos() as u64;
    if let Some(hist) = &lag_hist {
        obs.timer_merge("workload/open/lag", hist);
        obs.gauge_max("workload/open/max_queue_depth", max_depth);
    }
    let client = ClientOutcome {
        client: 0,
        queries: served,
        histogram,
        digest,
    };
    Ok(finish(
        vec![client],
        kind_counts,
        wall_nanos,
        spec.keep_results.then_some(values),
    ))
}

fn run_closed(
    corpus: &Corpus,
    spec: &WorkloadSpec,
    trace: &[QueryEvent],
    kind_counts: [u64; 5],
    clients: usize,
    think_nanos: u64,
    obs: &Obs,
) -> Result<WorkloadOutcome> {
    if obs.is_on() {
        obs.gauge_set("workload/clients", clients as u64);
    }
    let start = Instant::now();
    // Each client serves its round-robin share on its own warm session.
    // `thread::scope` lets every client borrow the corpus and the trace
    // (and share the recorder handle — the registry is behind a mutex the
    // serving loop only touches at query granularity).
    let client_runs: Vec<Result<ClientRun>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let obs = &*obs;
                scope.spawn(move || {
                    let session = warm_session(corpus, spec, obs)?;
                    serve_events(
                        &session,
                        corpus,
                        trace.iter().skip(c).step_by(clients),
                        spec.keep_results,
                        |_| {},
                        |_, served| served.wall_nanos,
                        think_nanos,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload client thread panicked"))
            .collect()
    });
    let wall_nanos = start.elapsed().as_nanos() as u64;

    let mut per_client = Vec::with_capacity(clients);
    let mut slots: Vec<Option<QueryValue>> = if spec.keep_results {
        std::iter::repeat_with(|| None).take(trace.len()).collect()
    } else {
        Vec::new()
    };
    for (c, run) in client_runs.into_iter().enumerate() {
        let (histogram, served, digest, values) = run?;
        if spec.keep_results {
            // Client c served events c, c+k, …: reassemble trace order.
            for (value, slot) in values
                .into_iter()
                .zip(slots.iter_mut().skip(c).step_by(clients))
            {
                *slot = Some(value);
            }
        }
        per_client.push(ClientOutcome {
            client: c,
            queries: served,
            histogram,
            digest,
        });
    }
    let results = spec.keep_results.then(|| {
        slots
            .into_iter()
            .map(|slot| slot.expect("every trace slot served exactly once"))
            .collect()
    });
    Ok(finish(per_client, kind_counts, wall_nanos, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusSpec, Family};
    use crate::spec::QueryMix;

    fn small_corpus() -> Corpus {
        Corpus::build(&CorpusSpec {
            family: Family::Grid,
            size: 4,
            entries: 2,
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn open_and_closed_runs_complete_and_agree_on_values() {
        let corpus = small_corpus();
        let open = WorkloadSpec::new(
            Mode::Open {
                mean_interarrival_nanos: 0,
            },
            12,
            1.0,
            QueryMix::mixed(),
            5,
        )
        .keep_results(true);
        let closed = WorkloadSpec {
            mode: Mode::Closed {
                clients: 2,
                think_nanos: 0,
            },
            ..open
        };
        let a = run_workload(&corpus, &open).unwrap();
        let b = run_workload(&corpus, &closed).unwrap();
        assert_eq!(a.queries, 12);
        assert_eq!(b.queries, 12);
        assert_eq!(a.kind_counts.iter().sum::<u64>(), 12);
        // Same spec modulo pacing ⇒ same trace ⇒ same values.
        assert_eq!(a.results, b.results);
        assert_eq!(a.histogram.count(), 12);
        assert_eq!(b.per_client.len(), 2);
        assert!(a.throughput_qps() > 0.0);
    }

    #[test]
    fn reruns_have_identical_digests() {
        let corpus = small_corpus();
        let spec = WorkloadSpec::new(
            Mode::Closed {
                clients: 3,
                think_nanos: 0,
            },
            15,
            0.0,
            QueryMix::consume(),
            8,
        );
        let a = run_workload(&corpus, &spec).unwrap();
        let b = run_workload(&corpus, &spec).unwrap();
        assert_eq!(a.digest, b.digest);
        for (ca, cb) in a.per_client.iter().zip(&b.per_client) {
            assert_eq!(ca.digest, cb.digest);
            assert_eq!(ca.queries, cb.queries);
        }
    }

    #[test]
    fn degenerate_specs_are_config_errors() {
        let corpus = small_corpus();
        let zero_queries = WorkloadSpec::new(
            Mode::Open {
                mean_interarrival_nanos: 0,
            },
            0,
            0.0,
            QueryMix::consume(),
            1,
        );
        assert!(matches!(
            run_workload(&corpus, &zero_queries),
            Err(lcs_api::LcsError::Config { .. })
        ));
        let zero_clients = WorkloadSpec::new(
            Mode::Closed {
                clients: 0,
                think_nanos: 0,
            },
            5,
            0.0,
            QueryMix::consume(),
            1,
        );
        assert!(matches!(
            run_workload(&corpus, &zero_clients),
            Err(lcs_api::LcsError::Config { .. })
        ));
    }

    #[test]
    fn repair_mix_serves_and_agrees_across_drivers() {
        let corpus = Corpus::build_with_repair(&CorpusSpec {
            family: Family::Grid,
            size: 4,
            entries: 2,
            seed: 3,
        })
        .unwrap();
        let mix = QueryMix {
            construct: 0,
            verify: 2,
            quality: 1,
            mst: 0,
            repair: 2,
        };
        let open = WorkloadSpec::new(
            Mode::Open {
                mean_interarrival_nanos: 0,
            },
            10,
            1.0,
            mix,
            7,
        )
        .keep_results(true);
        let closed = WorkloadSpec {
            mode: Mode::Closed {
                clients: 2,
                think_nanos: 0,
            },
            ..open
        };
        let a = run_workload(&corpus, &open).unwrap();
        let b = run_workload(&corpus, &closed).unwrap();
        assert_eq!(a.kind_counts[QueryKind::Repair.index()], 4);
        assert_eq!(a.results, b.results);
        assert_eq!(a.digest, run_workload(&corpus, &open).unwrap().digest);
    }

    #[test]
    fn repair_weight_without_repair_cases_is_a_config_error() {
        let corpus = small_corpus();
        let spec = WorkloadSpec::new(
            Mode::Open {
                mean_interarrival_nanos: 0,
            },
            5,
            0.0,
            QueryMix {
                construct: 0,
                verify: 1,
                quality: 0,
                mst: 0,
                repair: 1,
            },
            4,
        );
        assert!(matches!(
            run_workload(&corpus, &spec),
            Err(lcs_api::LcsError::Config { .. })
        ));
    }

    #[test]
    fn more_clients_than_queries_is_fine() {
        let corpus = small_corpus();
        let spec = WorkloadSpec::new(
            Mode::Closed {
                clients: 7,
                think_nanos: 0,
            },
            3,
            0.0,
            QueryMix::consume(),
            2,
        );
        let outcome = run_workload(&corpus, &spec).unwrap();
        assert_eq!(outcome.queries, 3);
        assert_eq!(outcome.per_client.len(), 7);
        assert!(outcome.per_client.iter().skip(3).all(|c| c.queries == 0));
    }
}
