//! The workload driver: open- and closed-loop pacing over a
//! [`Transport`].
//!
//! One driver replays a deterministic trace and records what it measured;
//! a transport turns one trace event into one served result. Two
//! transports exist: a warm [`Session`] per client, behind
//! [`run_workload`], and a line-JSON TCP connection per client
//! (`lcs_server::client::Tcp`). The pacing modes differ only in how they
//! schedule queries and in what "latency" means:
//!
//! * **Open loop** — one client, queries served in trace order, each held
//!   until its scheduled arrival by spinning; latency is *completion −
//!   scheduled arrival*. A query that arrives while the previous one is
//!   still running pays the queueing delay, so expensive minorities
//!   (constructs in a mixed trace) push the measured tail out — this is
//!   the coordinated-omission-free measurement the E13 tier reads.
//! * **Closed loop** — `k` clients, each on its own thread with its own
//!   connection (in process: its own warm session, seeded identically),
//!   serving the trace round-robin (client `i` takes events
//!   `i, i+k, i+2k, …`) with optional think-time; latency is the service
//!   time the transport's client sees — the session's own service time in
//!   process, the round trip over TCP.
//!
//! Determinism: result *values* are pure functions of (graph, partition,
//! strategy, session seed), so the trace-order digest sequence, each
//! client's digest chain, and the outcome digest (which folds per-client
//! chains in client order) are reproducible at any `LCS_THREADS`, on any
//! machine, under any interleaving, and over either transport. Timings
//! vary; values and digests do not.

use std::time::{Duration, Instant};

use lcs_api::{
    LcsError, Query, QueryValue, Result, Served, Session, ShortcutStrategy, Strategy, ValueDigest,
};
use lcs_obs::{LatencyHistogram, Obs};

use crate::corpus::Corpus;
use crate::spec::{check_clients, Mode, WorkloadSpec};
use crate::trace::{generate_trace, QueryEvent, QueryKind};

/// The seam between the driver's pacing and whatever serves the trace:
/// the driver opens one client per pacing thread and hands it events; the
/// transport hides how an event reaches a server and what the wire looks
/// like.
pub trait Transport: Sync {
    /// One client's connection: a warm session in process, a socket over
    /// TCP. Each client is opened, used and dropped on one thread.
    type Client;
    /// What connecting or serving fails with. A run the driver rejects
    /// before connecting (zero clients) is an [`LcsError::Config`]
    /// converted into it.
    type Error: From<LcsError> + Send;

    /// Opens one client's connection.
    ///
    /// # Errors
    ///
    /// Whatever opening the connection fails with.
    fn connect(&self) -> std::result::Result<Self::Client, Self::Error>;

    /// Serves one trace event on `client`. The returned
    /// [`Served::wall_nanos`] is the service time this transport's client
    /// sees; the value is `Some` only where the transport carries values
    /// and was asked to keep them.
    ///
    /// # Errors
    ///
    /// Whatever serving the event fails with, including a server-side
    /// error answer.
    fn serve(
        &self,
        client: &mut Self::Client,
        event: &QueryEvent,
    ) -> std::result::Result<(Served, Option<QueryValue>), Self::Error>;
}

/// What one client measured: its sub-histogram, query count, and the
/// FNV-1a chain over its served-result digests (in its serving order).
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Client index (0 for the open loop).
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
    /// Latency histograms per query kind, in
    /// `[construct, verify, quality, mst, repair]` order.
    pub kind_histograms: [LatencyHistogram; 5],
    /// Per-client sub-outcomes, in client-index order.
    pub per_client: Vec<ClientOutcome>,
    /// Total queries served (the trace length).
    pub queries: u64,
    /// Per-kind served counts, in
    /// `[construct, verify, quality, mst, repair]` order.
    pub kind_counts: [u64; 5],
    /// Wall-clock nanoseconds of the whole run.
    pub wall_nanos: u64,
    /// Every query's result digest, in trace order.
    pub digests: Vec<u64>,
    /// FNV-1a fold of the per-client digests in client order — the
    /// one-number determinism check: same spec + corpus ⇒ same digest.
    pub digest: u64,
    /// Every query's result values in trace order, when
    /// [`WorkloadSpec::keep_results`] asked for them (in process only: the
    /// TCP transport carries digests, not values).
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

/// The in-process transport: every client is its own warm serving session
/// over the corpus graph, configured from the spec. The shared recorder
/// handle makes every served query report its `serve/{kind}/*` probes
/// (counter adds commute, so the snapshot's counters stay client-order
/// independent).
struct InProcess<'c> {
    corpus: &'c Corpus,
    spec: &'c WorkloadSpec,
    obs: &'c Obs,
}

impl<'c> Transport for InProcess<'c> {
    type Client = Session<'c>;
    type Error = LcsError;

    fn connect(&self) -> Result<Session<'c>> {
        lcs_api::Pipeline::on(self.corpus.graph())
            .seed(self.spec.seed)
            .execution(self.spec.execution)
            .threads(self.spec.threads)
            .recorder(self.obs.clone())
            .build()
    }

    fn serve(
        &self,
        session: &mut Session<'c>,
        event: &QueryEvent,
    ) -> Result<(Served, Option<QueryValue>)> {
        let query = query_of(self.corpus, event);
        if self.spec.keep_results {
            let (served, value) = session.serve_shared_full(query)?;
            Ok((served, Some(value)))
        } else {
            Ok((session.serve_shared(query)?, None))
        }
    }
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
/// per-query `serve/{kind}/*` probes every session reports, the driver
/// adds its own (see [`replay`]).
pub fn run_workload_obs(
    corpus: &Corpus,
    spec: &WorkloadSpec,
    obs: &Obs,
) -> Result<WorkloadOutcome> {
    let trace = generate_trace(spec, corpus.len())?;
    if trace.iter().any(|e| e.kind == QueryKind::Repair)
        && corpus.entries().iter().any(|e| e.repair.is_none())
    {
        return Err(LcsError::Config {
            reason: "query mix has a repair weight but the corpus has no pre-generated \
                     repair cases; build it with Corpus::build_with_repair"
                .to_string(),
        });
    }
    replay(&InProcess { corpus, spec, obs }, &trace, spec.mode, obs)
}

/// Replays `trace` over `transport`, paced by `mode`, and returns the
/// merged outcome.
///
/// Besides whatever the transport reports, the driver records its own
/// probes: `workload/runs` / `workload/queries` counters, the merged
/// latency distribution (`workload/latency` timer), the closed loop's
/// `workload/clients` gauge, and — open loop only — the
/// scheduled-vs-start lag timer (`workload/open/lag`) and the high-water
/// queue depth (`workload/open/max_queue_depth` gauge). Counters are
/// trace facts, identical for every thread and client count; timers and
/// the queue-depth gauge are measurements.
///
/// # Errors
///
/// [`LcsError::Config`] for a closed loop of zero clients, before any
/// connection opens; otherwise the first error a client's connection or
/// query reports.
pub fn replay<T: Transport>(
    transport: &T,
    trace: &[QueryEvent],
    mode: Mode,
    obs: &Obs,
) -> std::result::Result<WorkloadOutcome, T::Error> {
    check_clients(mode)?;
    if obs.is_on() {
        obs.counter_add("workload/runs", 1);
        obs.counter_add("workload/queries", trace.len() as u64);
    }
    let outcome = match mode {
        Mode::Open { .. } => open_loop(transport, trace, obs),
        Mode::Closed {
            clients,
            think_nanos,
        } => closed_loop(transport, trace, clients, think_nanos, obs),
    }?;
    if obs.is_on() {
        obs.timer_merge("workload/latency", &outcome.histogram);
    }
    Ok(outcome)
}

/// What one client's serving loop produces.
#[derive(Default)]
struct ClientRun {
    histogram: LatencyHistogram,
    kind_histograms: [LatencyHistogram; 5],
    chain: ValueDigest,
    /// `(trace slot, digest, value)` per served event, in serving order.
    served: Vec<(usize, u64, Option<QueryValue>)>,
}

/// One client's serving loop over `(trace slot, event)` pairs, shared by
/// both pacing modes. `pace` runs before each event; `latency_of` chooses
/// the measurement (service time vs. schedule-based).
fn serve_events<'t, T: Transport>(
    transport: &T,
    client: &mut T::Client,
    events: impl Iterator<Item = (usize, &'t QueryEvent)>,
    mut pace: impl FnMut(usize, &QueryEvent),
    mut latency_of: impl FnMut(&QueryEvent, &Served) -> u64,
    think_nanos: u64,
) -> std::result::Result<ClientRun, T::Error> {
    let mut run = ClientRun::default();
    for (slot, event) in events {
        pace(slot, event);
        let (served, value) = transport.serve(client, event)?;
        let latency = latency_of(event, &served);
        run.histogram.record(latency);
        run.kind_histograms[event.kind.index()].record(latency);
        run.chain.push(served.digest);
        run.served.push((slot, served.digest, value));
        if think_nanos > 0 {
            std::thread::sleep(Duration::from_nanos(think_nanos));
        }
    }
    Ok(run)
}

/// Merges the client runs (in client order) into one outcome, with digests
/// and values back in trace order.
fn finish(runs: Vec<ClientRun>, trace: &[QueryEvent], wall_nanos: u64) -> WorkloadOutcome {
    let mut histogram = LatencyHistogram::new();
    let mut kind_histograms: [LatencyHistogram; 5] = Default::default();
    let mut per_client = Vec::with_capacity(runs.len());
    let mut digests = vec![0u64; trace.len()];
    let mut values: Vec<Option<QueryValue>> = Vec::new();
    values.resize_with(trace.len(), || None);
    let mut fold = ValueDigest::new();
    for (client, run) in runs.into_iter().enumerate() {
        histogram.merge(&run.histogram);
        for (all, one) in kind_histograms.iter_mut().zip(&run.kind_histograms) {
            all.merge(one);
        }
        fold.push(run.chain.value());
        per_client.push(ClientOutcome {
            client,
            queries: run.served.len() as u64,
            histogram: run.histogram,
            digest: run.chain.value(),
        });
        for (slot, digest, value) in run.served {
            digests[slot] = digest;
            values[slot] = value;
        }
    }
    let mut kind_counts = [0u64; 5];
    for event in trace {
        kind_counts[event.kind.index()] += 1;
    }
    WorkloadOutcome {
        histogram,
        kind_histograms,
        per_client,
        queries: trace.len() as u64,
        kind_counts,
        wall_nanos,
        digests,
        digest: fold.value(),
        results: values.into_iter().collect(),
    }
}

fn open_loop<T: Transport>(
    transport: &T,
    trace: &[QueryEvent],
    obs: &Obs,
) -> std::result::Result<WorkloadOutcome, T::Error> {
    let mut client = transport.connect()?;
    // Driver probes accumulate into plain locals on the serving path (a
    // histogram of start lags and a queue-depth high-water mark) and hit
    // the registry once, after the loop — the hot path stays lock-free.
    let mut lag_hist = obs.is_on().then(LatencyHistogram::new);
    let mut max_depth = 0u64;
    let start = Instant::now();
    let nanos = || start.elapsed().as_nanos() as u64;
    let run = serve_events(
        transport,
        &mut client,
        trace.iter().enumerate(),
        // Hold each query until its scheduled arrival. If the schedule
        // has fallen behind (the previous query overran), fire at once —
        // the latency measurement below charges the backlog.
        |slot, event| {
            while nanos() < event.arrival_nanos {
                std::hint::spin_loop();
            }
            if let Some(hist) = &mut lag_hist {
                let now = nanos();
                // How late the query actually starts relative to its
                // scheduled arrival: ~0 when the loop keeps up, the
                // accumulated backlog when it doesn't.
                hist.record(now.saturating_sub(event.arrival_nanos));
                // Queue depth at start of service: this event plus every
                // later one already due (the trace is arrival-sorted).
                let depth = trace[slot..]
                    .iter()
                    .take_while(|e| e.arrival_nanos <= now)
                    .count() as u64;
                max_depth = max_depth.max(depth);
            }
        },
        // Completion minus *scheduled* arrival: queueing delay included.
        |event, _| nanos().saturating_sub(event.arrival_nanos),
        0,
    )?;
    let wall_nanos = nanos();
    if let Some(hist) = &lag_hist {
        obs.timer_merge("workload/open/lag", hist);
        obs.gauge_max("workload/open/max_queue_depth", max_depth);
    }
    Ok(finish(vec![run], trace, wall_nanos))
}

fn closed_loop<T: Transport>(
    transport: &T,
    trace: &[QueryEvent],
    clients: usize,
    think_nanos: u64,
    obs: &Obs,
) -> std::result::Result<WorkloadOutcome, T::Error> {
    if obs.is_on() {
        obs.gauge_set("workload/clients", clients as u64);
    }
    let start = Instant::now();
    // Each client serves its round-robin share on its own connection.
    // `thread::scope` lets every client borrow the transport and the
    // trace.
    let runs: Vec<std::result::Result<ClientRun, T::Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = transport.connect()?;
                    serve_events(
                        transport,
                        &mut client,
                        trace.iter().enumerate().skip(c).step_by(clients),
                        |_, _| {},
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
    let runs = runs
        .into_iter()
        .collect::<std::result::Result<Vec<_>, _>>()?;
    Ok(finish(runs, trace, wall_nanos))
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
        // Same spec modulo pacing ⇒ same trace ⇒ same values and digests.
        assert_eq!(a.results, b.results);
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.digests.len(), 12);
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
