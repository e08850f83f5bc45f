//! Loopback replay clients: drive a running server with a
//! [`lcs_workload`] trace and measure what the wire adds.
//!
//! The two drivers mirror `lcs_workload::run_workload`'s pacing models,
//! but over TCP instead of in-process calls:
//!
//! * **Closed loop** — `k` client threads, each with its own connection,
//!   serving the trace round-robin (client `i` takes events
//!   `i, i+k, i+2k, …`); latency is per-request round-trip time.
//! * **Open loop** — one connection replaying the trace's arrival
//!   schedule; latency is completion − scheduled arrival, so queueing
//!   delay counts (no coordinated omission).
//!
//! Digests follow the same determinism contract as the in-process
//! drivers: [`ReplayOutcome::digests`] is the per-query digest sequence
//! *in trace order* (reassembled from the round-robin split), and
//! [`ReplayOutcome::digest`] folds per-client chains in client order —
//! so a TCP replay is digest-comparable against a direct
//! `Session::serve_shared` replay of the same trace.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use lcs_api::ValueDigest;
use lcs_workload::{LatencyHistogram, QueryEvent};

use crate::protocol::{Request, Response};
use crate::ServeError;

/// What a replay measured and observed.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// All clients' latency sub-histograms merged.
    pub histogram: LatencyHistogram,
    /// Per-kind latency histograms, in
    /// `[construct, verify, quality, mst, repair]` order.
    pub kind_histograms: [LatencyHistogram; 5],
    /// Every response's value digest, in trace order.
    pub digests: Vec<u64>,
    /// FNV-1a fold of per-client digest chains, in client order — the
    /// one-number determinism check.
    pub digest: u64,
    /// Requests answered (equals the trace length on success).
    pub queries: u64,
    /// Wall-clock nanoseconds for the whole replay.
    pub wall_nanos: u64,
}

impl ReplayOutcome {
    /// Served queries per second of wall-clock time.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.queries as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

/// One blocking request/response exchange on an open connection.
fn exchange(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Request,
) -> Result<Response, ServeError> {
    let mut wire = request.to_line();
    wire.push('\n');
    writer.write_all(wire.as_bytes())?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ServeError::Protocol(
            "server closed the connection mid-replay".to_string(),
        ));
    }
    Response::parse(&line).map_err(ServeError::Protocol)
}

/// Opens a connection as a (writer, reader) pair.
fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), ServeError> {
    let stream = TcpStream::connect(addr)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// What one client thread brings back: (slot, digest, latency) per
/// request in its serving order, plus its chain digest.
struct ClientRun {
    client: usize,
    samples: Vec<(usize, u64, u64, usize)>, // (trace slot, digest, latency nanos, kind index)
    chain: u64,
}

fn serve_slice(
    client: usize,
    addr: SocketAddr,
    graph: &str,
    events: &[(usize, QueryEvent)],
    think_nanos: u64,
) -> Result<ClientRun, ServeError> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut samples = Vec::with_capacity(events.len());
    let mut chain = ValueDigest::new();
    for &(slot, event) in events {
        let request = Request::Query {
            graph: graph.to_string(),
            kind: event.kind,
            entry: event.entry,
        };
        let started = Instant::now();
        let response = exchange(&mut writer, &mut reader, &request)?;
        let latency = started.elapsed().as_nanos() as u64;
        match response {
            Response::Served { digest, .. } => {
                chain.push(digest);
                samples.push((slot, digest, latency, event.kind.index()));
            }
            Response::Error { message } => return Err(ServeError::Protocol(message)),
            other => {
                return Err(ServeError::Protocol(format!(
                    "expected a served response, got {other:?}"
                )))
            }
        }
        if think_nanos > 0 {
            thread::sleep(Duration::from_nanos(think_nanos));
        }
    }
    Ok(ClientRun {
        client,
        samples,
        chain: chain.value(),
    })
}

fn assemble(mut runs: Vec<ClientRun>, trace_len: usize, wall_nanos: u64) -> ReplayOutcome {
    runs.sort_by_key(|run| run.client);
    let mut histogram = LatencyHistogram::new();
    let mut kind_histograms: [LatencyHistogram; 5] = Default::default();
    let mut digests = vec![0u64; trace_len];
    let mut fold = ValueDigest::new();
    let mut queries = 0u64;
    for run in &runs {
        for &(slot, digest, latency, kind) in &run.samples {
            digests[slot] = digest;
            histogram.record(latency);
            kind_histograms[kind].record(latency);
            queries += 1;
        }
        fold.push(run.chain);
    }
    ReplayOutcome {
        histogram,
        kind_histograms,
        digests,
        digest: fold.value(),
        queries,
        wall_nanos,
    }
}

/// Closed-loop replay: `clients` threads round-robin the trace against
/// `graph` on the server at `addr`, each measuring per-request
/// round-trip time, with optional per-request think time.
///
/// # Errors
///
/// The first I/O or protocol error any client hits (a server-side
/// `Error` response is a [`ServeError::Protocol`]).
pub fn replay_closed(
    addr: SocketAddr,
    graph: &str,
    trace: &[QueryEvent],
    clients: usize,
    think_nanos: u64,
) -> Result<ReplayOutcome, ServeError> {
    let clients = clients.max(1);
    let started = Instant::now();
    let runs: Vec<Result<ClientRun, ServeError>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let slice: Vec<(usize, QueryEvent)> = trace
                    .iter()
                    .enumerate()
                    .skip(client)
                    .step_by(clients)
                    .map(|(slot, &event)| (slot, event))
                    .collect();
                scope.spawn(move || serve_slice(client, addr, graph, &slice, think_nanos))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("replay client panicked"))
            .collect()
    });
    let runs: Result<Vec<ClientRun>, ServeError> = runs.into_iter().collect();
    Ok(assemble(
        runs?,
        trace.len(),
        started.elapsed().as_nanos() as u64,
    ))
}

/// Open-loop replay: one connection paces the trace's arrival schedule
/// and charges completion − scheduled arrival to latency, so a request
/// that queues behind a slow one pays its queueing delay.
///
/// # Errors
///
/// The first I/O or protocol error (a server-side `Error` response is a
/// [`ServeError::Protocol`]).
pub fn replay_open(
    addr: SocketAddr,
    graph: &str,
    trace: &[QueryEvent],
) -> Result<ReplayOutcome, ServeError> {
    let (mut writer, mut reader) = connect(addr)?;
    let started = Instant::now();
    let mut samples = Vec::with_capacity(trace.len());
    let mut chain = ValueDigest::new();
    for (slot, event) in trace.iter().enumerate() {
        let scheduled = Duration::from_nanos(event.arrival_nanos);
        if let Some(wait) = scheduled.checked_sub(started.elapsed()) {
            if !wait.is_zero() {
                thread::sleep(wait);
            }
        }
        let request = Request::Query {
            graph: graph.to_string(),
            kind: event.kind,
            entry: event.entry,
        };
        let response = exchange(&mut writer, &mut reader, &request)?;
        let latency = started.elapsed().saturating_sub(scheduled).as_nanos() as u64;
        match response {
            Response::Served { digest, .. } => {
                chain.push(digest);
                samples.push((slot, digest, latency, event.kind.index()));
            }
            Response::Error { message } => return Err(ServeError::Protocol(message)),
            other => {
                return Err(ServeError::Protocol(format!(
                    "expected a served response, got {other:?}"
                )))
            }
        }
    }
    let wall_nanos = started.elapsed().as_nanos() as u64;
    let run = ClientRun {
        client: 0,
        samples,
        chain: chain.value(),
    };
    Ok(assemble(vec![run], trace.len(), wall_nanos))
}

/// Sends `{"op":"shutdown"}` and waits for the draining acknowledgment.
///
/// # Errors
///
/// I/O errors, or a protocol error if the server answers anything but
/// `draining`.
pub fn shutdown(addr: SocketAddr) -> Result<(), ServeError> {
    let (mut writer, mut reader) = connect(addr)?;
    match exchange(&mut writer, &mut reader, &Request::Shutdown)? {
        Response::Draining => Ok(()),
        other => Err(ServeError::Protocol(format!(
            "expected draining, got {other:?}"
        ))),
    }
}

/// Sends `{"op":"ping"}` and checks for the pong.
///
/// # Errors
///
/// I/O errors, or a protocol error on any non-pong answer.
pub fn ping(addr: SocketAddr) -> Result<(), ServeError> {
    let (mut writer, mut reader) = connect(addr)?;
    match exchange(&mut writer, &mut reader, &Request::Ping)? {
        Response::Pong => Ok(()),
        other => Err(ServeError::Protocol(format!(
            "expected pong, got {other:?}"
        ))),
    }
}

/// Fetches the server's Prometheus metrics snapshot.
///
/// # Errors
///
/// I/O errors, or a protocol error on any non-metrics answer.
pub fn fetch_metrics(addr: SocketAddr) -> Result<String, ServeError> {
    let (mut writer, mut reader) = connect(addr)?;
    match exchange(&mut writer, &mut reader, &Request::Metrics)? {
        Response::Metrics { prometheus } => Ok(prometheus),
        other => Err(ServeError::Protocol(format!(
            "expected metrics, got {other:?}"
        ))),
    }
}
