//! The serve workloads: `lcs_server` in this process (spawned through
//! `ServerHandle::spawn`), driven over loopback TCP by the benchmark's own
//! client in a closed loop of fixed-length request lists.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

use lcs_api::graph::{generators, Graph};
use lcs_api::{Pipeline, Query, Session, ShortcutStrategy, Strategy, Threads};
use lcs_obs::Obs;
use lcs_server::{Response, ServerConfig, ServerHandle, ServerStats};
use lcs_workload::{Corpus, CorpusEntry, CorpusSpec, Family};

use crate::client::Conn;
use crate::report::Report;
use crate::requests::{request_list, Kind, ListSpec, Request};
use crate::spans::{Span, Trace};
use crate::{host, stats, Args};

pub struct ServeWorkload {
    pub list: ListSpec,
    pub family: Family,
    pub size: usize,
    /// Corpus and session seed at `--seed 0`; a run uses `base_seed + seed`.
    pub base_seed: u64,
    pub with_repair: bool,
    /// Client connections; the server gets one worker per connection.
    pub connections: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Lists in the traced phase of a `--trace 1` run. A fixed number, so
    /// the counts read from the program repeat exactly.
    pub traced_lists: u64,
}

/// Cheapest served requests on a small grid: the wire is about a fifth of
/// each round trip, and two connections exercise concurrent serving.
pub const SERVE_READ: ServeWorkload = ServeWorkload {
    list: ListSpec {
        workload: "serve-read",
        len: 2000,
        mix: &[(Kind::Verify, 60), (Kind::Quality, 40)],
        entries: 8,
        theta: 1.0,
    },
    family: Family::Grid,
    size: 10,
    base_seed: 23,
    with_repair: false,
    connections: 2,
    setups: 25,
    traced_lists: 8,
};

/// Build traffic beside reads on a torus (genus 1, the case without an
/// embedding): construction and MST take most of the service time.
pub const SERVE_BUILD: ServeWorkload = ServeWorkload {
    list: ListSpec {
        workload: "serve-build",
        len: 100,
        mix: &[
            (Kind::Construct, 20),
            (Kind::Repair, 20),
            (Kind::Mst, 2),
            (Kind::Verify, 38),
            (Kind::Quality, 20),
        ],
        entries: 32,
        theta: 0.0,
    },
    family: Family::Torus,
    size: 16,
    base_seed: 31,
    with_repair: true,
    connections: 1,
    setups: 5,
    traced_lists: 12,
};

/// At least this many timed requests per run, so at least ten lie beyond
/// the exact p99.
const MIN_TIMED_REQUESTS: usize = 1000;

impl ServeWorkload {
    fn corpus_spec(&self, seed: u64) -> CorpusSpec {
        CorpusSpec {
            family: self.family,
            size: self.size,
            entries: self.list.entries,
            seed: self.base_seed.wrapping_add(seed),
        }
    }

    fn graph_label(&self) -> &'static str {
        self.family.label()
    }

    fn min_lists(&self) -> usize {
        MIN_TIMED_REQUESTS.div_ceil(self.list.len)
    }
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
pub struct Answer {
    pub request: Request,
    pub rtt_ns: u64,
    pub outcome: Outcome,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Served { digest: u64, wall_nanos: u64 },
    Failed(String),
}

/// Reads a reply line: a served response must echo the request's kind and
/// entry; anything else is a failed request.
pub fn parse_reply(request: Request, line: &str) -> Outcome {
    match Response::parse(line) {
        Ok(Response::Served {
            kind,
            entry,
            digest,
            wall_nanos,
            ..
        }) if kind.label() == request.kind.label() && entry == request.entry => {
            Outcome::Served { digest, wall_nanos }
        }
        Ok(Response::Error { message }) => Outcome::Failed(message),
        Ok(other) => Outcome::Failed(format!("unexpected reply {other:?}")),
        Err(err) => Outcome::Failed(format!("unparseable reply `{line}`: {err}")),
    }
}

/// Output check: every served digest must equal the in-process reference
/// for its `(kind, entry)`. Each answer is one op of the tally.
pub fn check_answers(answers: &[Answer], references: &BTreeMap<Request, u64>, report: &mut Report) {
    for answer in answers {
        let ok = match &answer.outcome {
            Outcome::Served { digest, .. } => match references.get(&answer.request) {
                Some(want) if want == digest => true,
                Some(want) => {
                    report.note_mismatch(format!(
                        "{} entry {}: served digest {digest}, in-process {want}",
                        answer.request.kind, answer.request.entry
                    ));
                    false
                }
                None => {
                    report.note_mismatch(format!(
                        "{} entry {}: no in-process reference",
                        answer.request.kind, answer.request.entry
                    ));
                    false
                }
            },
            Outcome::Failed(message) => {
                report.note_mismatch(format!(
                    "{} entry {}: {message}",
                    answer.request.kind, answer.request.entry
                ));
                false
            }
        };
        report.tally.op(ok);
    }
}

/// A spawned server with the benchmark's connections to it.
struct Running {
    handle: ServerHandle,
    conns: Vec<Conn>,
}

fn start_server(w: &ServeWorkload, seed: u64, obs: Obs) -> Result<Running, String> {
    let spec = w.corpus_spec(seed);
    let mut config = ServerConfig::new(vec![spec])
        .workers(w.connections)
        .seed(spec.seed)
        .threads(Threads::Fixed(1))
        .recorder(obs);
    if w.with_repair {
        config = config.with_repair();
    }
    let handle = ServerHandle::spawn(config).map_err(|e| format!("server spawn: {e}"))?;
    let conns = (0..w.connections)
        .map(|_| Conn::open(handle.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut running = Running { handle, conns };
    let mut reply = String::new();
    running.conns[0]
        .call("{\"op\":\"ping\"}\n", &mut reply)
        .map_err(|e| format!("ping: {e}"))?;
    match Response::parse(&reply) {
        Ok(Response::Pong) => Ok(running),
        _ => Err(format!("ping answered `{reply}`")),
    }
}

fn stop(mut running: Running) -> Result<ServerStats, String> {
    let mut reply = String::new();
    running.conns[0]
        .call("{\"op\":\"shutdown\"}\n", &mut reply)
        .map_err(|e| format!("shutdown: {e}"))?;
    if !matches!(Response::parse(&reply), Ok(Response::Draining)) {
        return Err(format!("shutdown answered `{reply}`"));
    }
    // Closing the connections lets every worker reach end-of-stream.
    drop(running.conns);
    running.handle.join().map_err(|e| format!("server: {e}"))
}

/// One connection's share of a list: request `i` goes to connection
/// `i % connections`. Replies are kept raw in one buffer and parsed after
/// the list, outside the timed section.
struct ConnLog {
    rtts: Vec<(usize, u64)>,
    replies: String,
    ends: Vec<usize>,
    spans: Vec<Span>,
    /// The I/O error that ended the connection's share early.
    error: Option<String>,
}

/// Span context for a traced list: the run's origin, the list span, and
/// the id of the list's first request.
#[derive(Clone, Copy)]
struct SpanCtx {
    origin: Instant,
    parent: usize,
    first_request: u64,
}

fn drive(
    conn: &mut Conn,
    lines: &[String],
    offset: usize,
    stride: usize,
    spans: Option<SpanCtx>,
) -> ConnLog {
    let share = lines.len().div_ceil(stride);
    let mut log = ConnLog {
        rtts: Vec::with_capacity(share),
        replies: String::with_capacity(share * 160),
        ends: Vec::with_capacity(share),
        spans: Vec::with_capacity(if spans.is_some() { share } else { 0 }),
        error: None,
    };
    let mut reply = String::with_capacity(256);
    for i in (offset..lines.len()).step_by(stride) {
        let start = Instant::now();
        if let Err(err) = conn.call(&lines[i], &mut reply) {
            log.error = Some(format!("I/O error: {err}"));
            break;
        }
        let rtt = start.elapsed().as_nanos() as u64;
        if let Some(ctx) = spans {
            let begin = start.duration_since(ctx.origin).as_nanos() as u64;
            log.spans.push(Span {
                name: "client.request",
                start: begin,
                end: begin + rtt,
                parent: Some(ctx.parent),
                request: ctx.first_request + i as u64,
            });
        }
        log.rtts.push((i, rtt));
        log.replies.push_str(&reply);
        log.ends.push(log.replies.len());
    }
    log
}

/// One list's result: its wall time and an answer per request, in list
/// order. The raw reply lines are kept when asked for. After an I/O error
/// the unanswered requests are failed answers and the connections are
/// `broken`: no further list can run on them.
struct ListRun {
    wall_ns: u64,
    answers: Vec<Answer>,
    raw: Vec<String>,
    broken: bool,
}

fn run_list(
    running: &mut Running,
    requests: &[Request],
    graph: &str,
    trace: Option<(&mut Trace, u64)>,
    keep_raw: bool,
) -> Result<ListRun, String> {
    let lines: Vec<String> = requests.iter().map(|r| r.line(graph)).collect();
    let stride = running.conns.len();
    let mut trace = trace;
    let (ctx, list_span) = match trace.as_mut() {
        Some((t, index)) => {
            let span = t.open("list", None, *index);
            (
                Some(SpanCtx {
                    origin: t.origin(),
                    parent: span,
                    first_request: *index * requests.len() as u64,
                }),
                Some(span),
            )
        }
        None => (None, None),
    };
    let start = Instant::now();
    let logs: Vec<ConnLog> = thread::scope(|scope| {
        let handles: Vec<_> = running
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let lines = &lines;
                scope.spawn(move || drive(conn, lines, c, stride, ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    if let (Some((t, _)), Some(span)) = (trace, list_span) {
        t.close(span);
        for log in &logs {
            t.extend(log.spans.clone());
        }
    }
    let mut slots: Vec<Option<Answer>> = vec![None; requests.len()];
    let mut raw = vec![String::new(); if keep_raw { requests.len() } else { 0 }];
    let mut error = None;
    for log in logs {
        error = error.or(log.error);
        let mut begin = 0;
        for (&(i, rtt), &end) in log.rtts.iter().zip(&log.ends) {
            let line = &log.replies[begin..end];
            begin = end;
            slots[i] = Some(Answer {
                request: requests[i],
                rtt_ns: rtt,
                outcome: parse_reply(requests[i], line),
            });
            if keep_raw {
                raw[i] = line.to_string();
            }
        }
    }
    let answers = slots
        .into_iter()
        .zip(requests)
        .map(|(answer, &request)| {
            answer.unwrap_or_else(|| Answer {
                request,
                rtt_ns: 0,
                outcome: Outcome::Failed(error.clone().unwrap_or_default()),
            })
        })
        .collect();
    Ok(ListRun {
        wall_ns,
        answers,
        raw,
        broken: error.is_some(),
    })
}

/// The timed lists of one phase.
#[derive(Default)]
struct Phase {
    list_walls_ns: Vec<u64>,
    answers: Vec<Answer>,
    /// A list ended on an I/O error; the phase stopped there.
    broken: bool,
    /// Raw replies of the phase's first list (for the encode probe).
    first_raw: Vec<String>,
    first_requests: Vec<Request>,
}

impl Phase {
    fn throughput_qps(&self, len: usize) -> f64 {
        let per_list: Vec<f64> = self
            .list_walls_ns
            .iter()
            .map(|&ns| len as f64 / (ns as f64 / 1e9))
            .collect();
        stats::median(&per_list)
    }

    /// Round trips of the answered requests.
    fn rtts_sorted(&self) -> Vec<u64> {
        let mut rtts: Vec<u64> = self
            .answers
            .iter()
            .filter(|a| matches!(a.outcome, Outcome::Served { .. }))
            .map(|a| a.rtt_ns)
            .collect();
        rtts.sort_unstable();
        rtts
    }
}

/// Runs lists `first..` until `seconds` have passed and at least
/// `min_lists` ran, or exactly `lists` lists when given.
fn run_phase(
    w: &ServeWorkload,
    seed: u64,
    running: &mut Running,
    until: Until,
    mut trace: Option<&mut Trace>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let start = Instant::now();
    for index in 1u64.. {
        let done = match until {
            Until::Seconds(s) => {
                phase.list_walls_ns.len() >= w.min_lists() && start.elapsed().as_secs_f64() >= s
            }
            Until::Lists(n) => index > n,
        };
        if done {
            break;
        }
        let requests = request_list(&w.list, seed, index);
        let first = index == 1;
        let run = run_list(
            running,
            &requests,
            w.graph_label(),
            trace.as_deref_mut().map(|t| (t, index)),
            first,
        )?;
        phase.answers.extend(run.answers);
        if run.broken {
            phase.broken = true;
            break;
        }
        phase.list_walls_ns.push(run.wall_ns);
        if first {
            phase.first_raw = run.raw;
            phase.first_requests = requests;
        }
    }
    Ok(phase)
}

#[derive(Clone, Copy)]
enum Until {
    Seconds(f64),
    Lists(u64),
}

/// The untimed warm-up list (index 0): the first concurrent quality pair
/// allocates a second pooled workspace, which timed lists must not pay.
fn warm_up(w: &ServeWorkload, seed: u64, running: &mut Running) -> Result<Vec<Answer>, String> {
    let requests = request_list(&w.list, seed, 0);
    let run = run_list(running, &requests, w.graph_label(), None, false)?;
    if run.broken {
        return Err("the warm-up list lost its connection".to_string());
    }
    Ok(run.answers)
}

/// Builds `setups` servers in turn, timing each from spawn to the first
/// pong, and keeps the last one running.
fn timed_setups(w: &ServeWorkload, seed: u64) -> Result<(Vec<f64>, Running), String> {
    let mut times = Vec::with_capacity(w.setups);
    let mut last = None;
    for i in 0..w.setups {
        let start = Instant::now();
        let running = start_server(w, seed, Obs::off())?;
        times.push(start.elapsed().as_secs_f64());
        if i + 1 < w.setups {
            stop(running)?;
        } else {
            last = Some(running);
        }
    }
    Ok((times, last.expect("at least one set-up")))
}

fn query_for(entry: &CorpusEntry, kind: Kind) -> Option<Query<'_>> {
    Some(match kind {
        Kind::Construct => Query::Construct {
            partition: &entry.partition,
            strategy: Strategy::doubling(),
        },
        Kind::Verify => Query::Verify {
            shortcut: &entry.shortcut,
            partition: &entry.partition,
            threshold: entry.threshold,
        },
        Kind::Quality => Query::Quality {
            shortcut: &entry.shortcut,
            partition: &entry.partition,
        },
        Kind::Mst => Query::Mst {
            weights: &entry.weights,
            strategy: ShortcutStrategy::Doubling,
        },
        Kind::Repair => {
            let case = entry.repair.as_ref()?;
            Query::Repair {
                baseline: &case.baseline,
                delta: &case.delta,
            }
        }
    })
}

/// The in-process side: the same corpus and a session configured like the
/// server's, built after the timed section.
struct InProcess {
    corpus: Corpus,
    corpus_s: f64,
}

impl InProcess {
    fn build(w: &ServeWorkload, seed: u64) -> Result<InProcess, String> {
        let spec = w.corpus_spec(seed);
        let start = Instant::now();
        let corpus = if w.with_repair {
            Corpus::build_with_repair(&spec)
        } else {
            Corpus::build(&spec)
        }
        .map_err(|e| format!("in-process corpus: {e}"))?;
        Ok(InProcess {
            corpus,
            corpus_s: start.elapsed().as_secs_f64(),
        })
    }

    fn session(&self, w: &ServeWorkload, seed: u64) -> Result<Session<'_>, String> {
        Pipeline::on(self.corpus.graph())
            .seed(w.corpus_spec(seed).seed)
            .threads(Threads::Fixed(1))
            .build()
            .map_err(|e| format!("in-process session: {e}"))
    }

    /// One `serve_shared` digest per distinct request.
    fn references<'a>(
        &self,
        session: &Session<'_>,
        answers: impl Iterator<Item = &'a Answer>,
    ) -> Result<BTreeMap<Request, u64>, String> {
        let mut refs = BTreeMap::new();
        for answer in answers {
            let request = answer.request;
            if refs.contains_key(&request) {
                continue;
            }
            let entry = self
                .corpus
                .entries()
                .get(request.entry)
                .ok_or_else(|| format!("entry {} outside the corpus", request.entry))?;
            let Some(query) = query_for(entry, request.kind) else {
                continue; // no reference: the answer fails the check
            };
            let served = session
                .serve_shared(query)
                .map_err(|e| format!("in-process {} entry {}: {e}", request.kind, request.entry))?;
            refs.insert(request, served.digest);
        }
        Ok(refs)
    }
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Runs one serve workload and fills `report`.
pub fn run(w: &ServeWorkload, args: &Args, report: &mut Report) -> Result<(), String> {
    let seed = args.seed;
    let (setups, mut running) = timed_setups(w, seed)?;
    let warm = warm_up(w, seed, &mut running)?;
    // Read after the warm-up has exercised every query path, and before
    // the timed lists, whose sample buffers are the benchmark's own.
    let peak_rss = host::peak_rss_anon_mb().ok_or("cannot read VmHWM and RssFile")?;
    let measure_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_phase(w, seed, &mut running, Until::Seconds(measure_s), None)?;
    let traced = if untraced.broken {
        // The connections are gone: no further list can run, but every
        // answer, failed ones included, is still checked below.
        drop(running);
        None
    } else {
        stop(running)?;
        if args.trace {
            Some(traced_phase(w, seed)?)
        } else {
            None
        }
    };

    // Output checks, after everything timed.
    let inproc = InProcess::build(w, seed)?;
    let session_start = Instant::now();
    let session = inproc.session(w, seed)?;
    let session_s = session_start.elapsed().as_secs_f64();
    let mut all: Vec<&Answer> = warm.iter().chain(&untraced.answers).collect();
    if let Some((phase, ..)) = &traced {
        all.extend(&phase.answers);
    }
    let refs = inproc.references(&session, all.iter().copied())?;
    check_answers(&warm, &refs, report);
    check_answers(&untraced.answers, &refs, report);
    if let Some((phase, ..)) = &traced {
        check_answers(&phase.answers, &refs, report);
    }
    if untraced.broken {
        return Ok(());
    }

    let rtts = untraced.rtts_sorted();
    if !stats::supported(rtts.len(), 99) {
        report.mismatch(format!(
            "{} timed requests cannot support a p99",
            rtts.len()
        ));
    }
    let p50 = micros(stats::percentile(&rtts, 50));
    let p99 = micros(stats::percentile(&rtts, 99));
    let qps = untraced.throughput_qps(w.list.len);
    println!(
        "client  lists {} x {} requests over {} connection(s); latency p50 {p50:.1} us, p99 {p99:.1} us ({} samples, {} beyond p99); throughput {qps:.1} 1/s",
        untraced.list_walls_ns.len(),
        w.list.len,
        w.connections,
        rtts.len(),
        stats::beyond(rtts.len(), 99),
    );

    match traced {
        None => {
            report.metric("setup_s", stats::median(&setups), "s");
            report.metric("peak_rss_anon_mb", peak_rss, "MiB");
            report.metric("throughput_qps", qps, "1/s");
            report.metric("latency_p50_us", p50, "us");
            let sorted = stats::sorted_f64(setups.clone());
            println!(
                "setup   median of {} set-ups (spawn to first pong): {:.4} s (min {:.4}, max {:.4})",
                setups.len(),
                stats::median(&setups),
                sorted[0],
                sorted[sorted.len() - 1]
            );
        }
        Some((phase, snapshot, trace)) => {
            let layers = Layers {
                w,
                untraced: &untraced,
                traced: &phase,
                snapshot: &snapshot,
                inproc: &inproc,
                session: &session,
                session_s,
            };
            let mut trace = trace;
            layers.report(report, &mut trace)?;
            crate::write_trace(&trace, w.list.workload, seed);
        }
    }
    Ok(())
}

/// The traced phase: a second server with `Obs::recording()` attached,
/// the same warm-up, then a fixed number of lists with a span per request.
fn traced_phase(
    w: &ServeWorkload,
    seed: u64,
) -> Result<(Phase, lcs_obs::MetricsSnapshot, Trace), String> {
    let obs = Obs::recording();
    let mut running = start_server(w, seed, obs.clone())?;
    warm_up(w, seed, &mut running)?;
    let mut trace = Trace::new();
    let phase = run_phase(
        w,
        seed,
        &mut running,
        Until::Lists(w.traced_lists),
        Some(&mut trace),
    )?;
    if phase.broken {
        return Err("the traced phase lost its connection".to_string());
    }
    let stats = stop(running)?;
    let snapshot = obs.snapshot();
    if snapshot.counter("server/requests") != Some(stats.requests) {
        return Err(format!(
            "server/requests counter {:?} disagrees with the server's own count {}",
            snapshot.counter("server/requests"),
            stats.requests
        ));
    }
    Ok((phase, snapshot, trace))
}

/// Everything the per-layer metrics of a serve workload are computed from.
struct Layers<'a> {
    w: &'a ServeWorkload,
    untraced: &'a Phase,
    traced: &'a Phase,
    snapshot: &'a lcs_obs::MetricsSnapshot,
    inproc: &'a InProcess,
    session: &'a Session<'a>,
    session_s: f64,
}

/// Static metric names per kind (metric names must be `'static`).
fn kind_names(kind: Kind) -> (&'static str, &'static str, &'static str, &'static str) {
    match kind {
        Kind::Verify => (
            "lcs_api.serve_us_p50.verify",
            "lcs_api.busy_share.verify",
            "lcs_core.rounds_charged.verify",
            "session.verify",
        ),
        Kind::Quality => (
            "lcs_api.serve_us_p50.quality",
            "lcs_api.busy_share.quality",
            "lcs_core.rounds_charged.quality",
            "session.quality",
        ),
        Kind::Construct => (
            "lcs_api.serve_us_p50.construct",
            "lcs_api.busy_share.construct",
            "lcs_core.rounds_charged.construct",
            "session.shortcut",
        ),
        Kind::Repair => (
            "lcs_api.serve_us_p50.repair",
            "lcs_api.busy_share.repair",
            "lcs_core.rounds_charged.repair",
            "session.repair_from",
        ),
        Kind::Mst => (
            "lcs_api.serve_us_p50.mst",
            "lcs_api.busy_share.mst",
            "lcs_core.rounds_charged.mst",
            "session.mst",
        ),
    }
}

/// Counts from in-process `Session` calls, weighted by how often each
/// distinct request occurs in the traced lists.
#[derive(Default)]
struct CoreCounts {
    requests: BTreeMap<Kind, u64>,
    rounds: BTreeMap<Kind, u64>,
    attempts: u64,
    repaired: u64,
    reused: u64,
    mst_phases: u64,
    mst_ns: u64,
    mst_calls_phases: u64,
}

impl Layers<'_> {
    fn core_counts(&self, trace: &mut Trace) -> Result<CoreCounts, String> {
        let mut occurrences: BTreeMap<Request, u64> = BTreeMap::new();
        for answer in &self.traced.answers {
            *occurrences.entry(answer.request).or_default() += 1;
        }
        let mut c = CoreCounts::default();
        for (ordinal, (request, n)) in occurrences.into_iter().enumerate() {
            let entry = &self.inproc.corpus.entries()[request.entry];
            let span = trace.open(kind_names(request.kind).3, None, ordinal as u64);
            let call = |e: lcs_api::LcsError| format!("in-process {}: {e}", request.kind);
            let start = Instant::now();
            let rounds = match request.kind {
                Kind::Construct => {
                    let run = self
                        .session
                        .shortcut(&entry.partition, Strategy::doubling())
                        .map_err(call)?;
                    c.attempts += n * run.report.attempts.len() as u64;
                    run.report.rounds_charged
                }
                Kind::Verify => {
                    self.session
                        .verify(&entry.shortcut, &entry.partition, entry.threshold)
                        .map_err(call)?
                        .report
                        .rounds_charged
                }
                Kind::Quality => {
                    black_box(
                        self.session
                            .quality(&entry.shortcut, &entry.partition)
                            .map_err(call)?,
                    );
                    0
                }
                Kind::Repair => {
                    let case = entry.repair.as_ref().ok_or("repair without a case")?;
                    let run = self
                        .session
                        .repair_from(&case.baseline, &case.delta)
                        .map_err(call)?;
                    c.repaired += n * run.repaired_parts as u64;
                    c.reused += n * run.reused_parts as u64;
                    run.report.rounds_charged
                }
                Kind::Mst => {
                    let run = self
                        .session
                        .mst(&entry.weights, ShortcutStrategy::Doubling)
                        .map_err(call)?;
                    c.mst_ns += start.elapsed().as_nanos() as u64;
                    c.mst_calls_phases += run.phases as u64;
                    c.mst_phases += n * run.phases as u64;
                    run.report.rounds_charged
                }
            };
            trace.close(span);
            *c.requests.entry(request.kind).or_default() += n;
            *c.rounds.entry(request.kind).or_default() += n * rounds;
        }
        Ok(c)
    }

    /// Mean ns per call of `f` over `items`, repeated until 20 ms passed.
    fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
        let start = Instant::now();
        let mut calls = 0u64;
        while calls == 0 || start.elapsed().as_millis() < 20 {
            for item in items {
                f(item);
            }
            calls += items.len() as u64;
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    }

    fn report(&self, report: &mut Report, trace: &mut Trace) -> Result<(), String> {
        let w = self.w;
        // Client and wire, from the untraced phase.
        let rtts = self.untraced.rtts_sorted();
        report.metric(
            "client.latency_p99_us",
            micros(stats::percentile(&rtts, 99)),
            "us",
        );
        let mut overhead: Vec<u64> = Vec::new();
        let mut by_kind: BTreeMap<Kind, Vec<u64>> = BTreeMap::new();
        for answer in &self.untraced.answers {
            if let Outcome::Served { wall_nanos, .. } = answer.outcome {
                overhead.push(answer.rtt_ns.saturating_sub(wall_nanos));
                by_kind
                    .entry(answer.request.kind)
                    .or_default()
                    .push(wall_nanos);
            }
        }
        overhead.sort_unstable();
        if overhead.is_empty() {
            return Err("no request was served".to_string());
        }
        report.metric(
            "lcs_server.overhead_us_p50",
            micros(stats::percentile(&overhead, 50)),
            "us",
        );
        report.metric(
            "lcs_server.overhead_us_p99",
            micros(stats::percentile(&overhead, 99)),
            "us",
        );
        let graph = w.graph_label();
        let lines: Vec<String> = self
            .untraced
            .first_requests
            .iter()
            .map(|r| r.line(graph))
            .collect();
        let decode = Self::ns_per_call(&lines, |line| {
            black_box(lcs_server::Request::parse(black_box(line)).ok());
        });
        let responses: Vec<Response> = self
            .untraced
            .first_raw
            .iter()
            .filter_map(|line| Response::parse(line).ok())
            .collect();
        let encode = Self::ns_per_call(&responses, |response| {
            black_box(black_box(response).to_line());
        });
        report.metric("lcs_server.decode_ns", decode, "ns");
        report.metric("lcs_server.encode_ns", encode, "ns");
        report.metric(
            "lcs_server.requests",
            self.snapshot.counter("server/requests").unwrap_or(0) as f64,
            "count",
        );

        // Session dispatch, from the server-reported service times.
        let busy_total: u64 = by_kind.values().flatten().sum();
        for kind in Kind::ALL {
            let (p50_name, share_name, ..) = kind_names(kind);
            let (p50, share) = match by_kind.get_mut(&kind) {
                Some(walls) => {
                    walls.sort_unstable();
                    let sum: u64 = walls.iter().sum();
                    (
                        micros(stats::percentile(walls, 50)),
                        100.0 * sum as f64 / busy_total as f64,
                    )
                }
                None => (0.0, 0.0),
            };
            report.metric(p50_name, p50, "us");
            report.metric(share_name, share, "%");
        }
        report.metric("lcs_api.session_build_s", self.session_s, "s");

        // Construction, verification, quality, repair and MST counts.
        let c = self.core_counts(trace)?;
        let per = |total: u64, kind: Kind| match c.requests.get(&kind) {
            Some(&n) if n > 0 => total as f64 / n as f64,
            _ => 0.0,
        };
        report.metric(
            "lcs_core.attempts_per_construct",
            per(c.attempts, Kind::Construct),
            "count",
        );
        for kind in Kind::ALL {
            let rounds = c.rounds.get(&kind).copied().unwrap_or(0);
            report.metric(kind_names(kind).2, per(rounds, kind), "rounds");
        }
        report.metric(
            "lcs_core.repaired_parts",
            per(c.repaired, Kind::Repair),
            "count",
        );
        report.metric(
            "lcs_core.reused_parts",
            per(c.reused, Kind::Repair),
            "count",
        );
        report.metric("lcs_mst.phases", per(c.mst_phases, Kind::Mst), "count");
        report.metric(
            "lcs_mst.ms_per_phase",
            if c.mst_calls_phases > 0 {
                c.mst_ns as f64 / 1e6 / c.mst_calls_phases as f64
            } else {
                0.0
            },
            "ms",
        );

        // Set-up split.
        report.metric("lcs_workload.corpus_build_s", self.inproc.corpus_s, "s");
        let generate: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                black_box(family_graph(w));
                start.elapsed().as_secs_f64()
            })
            .collect();
        report.metric("lcs_graph.generate_s", stats::median(&generate), "s");

        // Tracing cost and the trace's own coverage.
        let traced_p50 = micros(stats::percentile(&self.traced.rtts_sorted(), 50));
        let untraced_p50 = micros(stats::percentile(&rtts, 50));
        report.metric(
            "lcs_obs.trace_overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
            "%",
        );
        report.metric("bench.unattributed_pct", trace.unattributed_pct(), "%");
        println!(
            "trace   untraced p50 {untraced_p50:.1} us, traced p50 {traced_p50:.1} us over {} traced lists",
            w.traced_lists
        );
        Ok(())
    }
}

fn family_graph(w: &ServeWorkload) -> Graph {
    match w.family {
        Family::Grid => generators::grid(w.size, w.size),
        Family::Torus => generators::torus(w.size, w.size),
        other => unreachable!("no serve workload over {}", other.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Tally;

    fn served(kind: Kind, entry: usize, digest: u64) -> Answer {
        Answer {
            request: Request { kind, entry },
            rtt_ns: 1_000,
            outcome: Outcome::Served {
                digest,
                wall_nanos: 500,
            },
        }
    }

    #[test]
    fn an_injected_wrong_digest_is_a_failed_op_and_fails_the_run() {
        let references = BTreeMap::from([
            (
                Request {
                    kind: Kind::Verify,
                    entry: 0,
                },
                11,
            ),
            (
                Request {
                    kind: Kind::Quality,
                    entry: 3,
                },
                22,
            ),
        ]);
        let good = [served(Kind::Verify, 0, 11), served(Kind::Quality, 3, 22)];
        let mut report = Report::default();
        check_answers(&good, &references, &mut report);
        assert_eq!(
            report.tally,
            Tally {
                attempted: 2,
                failed: 0
            }
        );
        assert_eq!(report.tally.exit_code(), 0);

        let mut injected = good.to_vec();
        injected[1] = served(Kind::Quality, 3, 23);
        let mut report = Report::default();
        check_answers(&injected, &references, &mut report);
        assert_eq!(
            report.tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        assert_ne!(report.tally.exit_code(), 0);
        assert!(report
            .json()
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
        assert!(report.mismatches[0].contains("served digest 23, in-process 22"));
    }

    #[test]
    fn error_replies_and_echo_mismatches_are_failed_ops() {
        let request = Request {
            kind: Kind::Verify,
            entry: 2,
        };
        assert!(matches!(
            parse_reply(request, "{\"ok\":false,\"error\":\"boom\"}"),
            Outcome::Failed(m) if m == "boom"
        ));
        let line = "{\"ok\":true,\"op\":\"query\",\"kind\":\"verify\",\"entry\":3,\"digest\":5,\"wall_nanos\":7,\"rounds_charged\":0,\"all_good\":true}";
        assert!(matches!(parse_reply(request, line), Outcome::Failed(_)));
        let line = line.replace("\"entry\":3", "\"entry\":2");
        assert_eq!(
            parse_reply(request, &line),
            Outcome::Served {
                digest: 5,
                wall_nanos: 7
            }
        );
        assert!(matches!(
            parse_reply(request, "garbage"),
            Outcome::Failed(_)
        ));
    }
}
