//! The serving loop: a bound listener, one warm [`Session`] per corpus,
//! and N worker threads sharing both.
//!
//! # Ownership
//!
//! The spawned server thread owns its corpora and sessions on its own
//! stack; workers are *scoped* threads borrowing `&Session` — the
//! checkout-pool refactor made [`Session::serve_shared`] take `&self`,
//! so no locking wraps the hot path. One worker handles one connection
//! at a time; extra connections wait in the kernel accept backlog until
//! a worker frees up.
//!
//! # Drain semantics
//!
//! Shutdown is a protocol line, not a signal. On `{"op":"shutdown"}` the
//! handling worker acknowledges with a `draining` response, raises the
//! shared shutdown flag, and pokes every sibling worker awake with
//! loopback self-connects. From that point no *new* connection is
//! served — wakeup (and unlucky late) connections are dropped unread —
//! but every connection already being served runs to client-side EOF.
//! When the last worker returns, the server thread reports its
//! [`ServerStats`] and exits.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use lcs_api::{Pipeline, Session, Threads};
use lcs_obs::Obs;
use lcs_workload::{query_of, Corpus, CorpusSpec, QueryEvent, QueryKind};

use crate::protocol::{Request, Response};
use crate::ServeError;

/// Everything the server needs to start: where to bind, how many
/// workers, which corpora to build, and the session knobs every warm
/// session shares.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral port (the bound
    /// address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker thread count (clamped to at least 1).
    pub workers: usize,
    /// One corpus per graph the server answers for; the corpus label
    /// (its family label) is the protocol's `"graph"` key.
    pub corpora: Vec<CorpusSpec>,
    /// Build corpora with pre-generated repair cases so `"repair"`
    /// queries are servable (costs extra build time; default off).
    pub with_repair: bool,
    /// Session seed shared by every warm session.
    pub seed: u64,
    /// Engine selection shared by every warm session
    /// ([`Threads::Auto`] reads `LCS_THREADS`).
    pub threads: Threads,
    /// Instrumentation handle; [`Obs::off`] keeps serving probe-free.
    pub obs: Obs,
}

impl ServerConfig {
    /// A loopback-ephemeral config over `corpora` with 2 workers,
    /// seed 7, `Threads::Auto`, no repair cases, and probes off.
    pub fn new(corpora: Vec<CorpusSpec>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            corpora,
            with_repair: false,
            seed: 7,
            threads: Threads::Auto,
            obs: Obs::off(),
        }
    }

    /// Sets the worker thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the shared session seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the engine thread knob for every warm session.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Builds corpora with repair cases so `"repair"` queries work.
    pub fn with_repair(mut self) -> Self {
        self.with_repair = true;
        self
    }

    /// Attaches an instrumentation handle (server probes + per-session
    /// serve probes report into it).
    pub fn recorder(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

/// What the server counted over its lifetime (exact, from atomics — not
/// a sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections served to EOF (wakeup/dropped connections excluded).
    pub connections: u64,
    /// Requests answered (including error responses).
    pub requests: u64,
}

/// A running server: the bound address plus the join handle of the
/// serving thread.
pub struct ServerHandle {
    addr: SocketAddr,
    join: thread::JoinHandle<Result<ServerStats, ServeError>>,
}

impl ServerHandle {
    /// Binds `config.addr`, then starts the serving thread (corpus and
    /// session builds happen there — binding first means an ephemeral
    /// port is known immediately and bind errors surface synchronously).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the bind fails.
    pub fn spawn(config: ServerConfig) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let join = thread::spawn(move || run_on(listener, addr, &config));
        Ok(ServerHandle { addr, join })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to drain and returns its lifetime stats.
    ///
    /// # Errors
    ///
    /// Whatever the serving thread failed with — corpus build errors,
    /// session build errors, or listener I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the serving thread itself panicked.
    pub fn join(self) -> Result<ServerStats, ServeError> {
        self.join.join().expect("server thread panicked")
    }
}

/// Shared per-server state the workers borrow.
struct Shared<'g> {
    sessions: HashMap<&'g str, (&'g Corpus, Session<'g>)>,
    shutdown: AtomicBool,
    in_flight: AtomicU64,
    connections: AtomicU64,
    requests: AtomicU64,
    obs: Obs,
    addr: SocketAddr,
    workers: usize,
}

fn run_on(
    listener: TcpListener,
    addr: SocketAddr,
    config: &ServerConfig,
) -> Result<ServerStats, ServeError> {
    let mut corpora = Vec::with_capacity(config.corpora.len());
    for spec in &config.corpora {
        let corpus = if config.with_repair {
            Corpus::build_with_repair(spec)?
        } else {
            Corpus::build(spec)?
        };
        corpora.push(corpus);
    }
    let mut sessions = HashMap::new();
    for (spec, corpus) in config.corpora.iter().zip(&corpora) {
        let session = Pipeline::on(corpus.graph())
            .seed(config.seed)
            .threads(config.threads)
            .recorder(config.obs.clone())
            .build()?;
        let label = spec.family.label();
        if sessions.insert(label, (corpus, session)).is_some() {
            return Err(ServeError::Protocol(format!(
                "duplicate graph label `{label}` — one corpus per family"
            )));
        }
    }
    let shared = Shared {
        sessions,
        shutdown: AtomicBool::new(false),
        in_flight: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        obs: config.obs.clone(),
        addr,
        workers: config.workers.max(1),
    };
    thread::scope(|scope| {
        for _ in 0..shared.workers {
            scope.spawn(|| worker_loop(&listener, &shared));
        }
    });
    Ok(ServerStats {
        connections: shared.connections.load(Ordering::SeqCst),
        requests: shared.requests.load(Ordering::SeqCst),
    })
}

fn worker_loop(listener: &TcpListener, shared: &Shared<'_>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        // A connection accepted after the flag went up is a shutdown
        // wakeup (or an unlucky late client): drop it unread.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        serve_connection(stream, shared);
    }
}

/// The longest request line the server reads, in bytes (the `\n`
/// excluded). Protocol requests are well under 100 bytes.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Serves one connection to EOF: read a line, answer a line. Returns
/// when the client closes (or on an unrecoverable socket error). Lines are
/// read into one reused buffer, at most [`MAX_LINE_BYTES`] at a time: a
/// longer line is answered with one error line, and then the connection
/// closes without reading the rest.
fn serve_connection(stream: TcpStream, shared: &Shared<'_>) {
    shared.connections.fetch_add(1, Ordering::SeqCst);
    if shared.obs.is_on() {
        shared.obs.counter_add("server/connections", 1);
    }
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) => return, // client EOF
            Ok(_) => {}
            Err(_) => return, // client went away mid-line
        }
        let too_long = buf.last() != Some(&b'\n') && buf.len() > MAX_LINE_BYTES;
        let response = if too_long {
            Response::Error {
                message: format!("request line longer than {MAX_LINE_BYTES} bytes"),
            }
        } else {
            // Invalid UTF-8 becomes U+FFFD, then a typed error line.
            let line = String::from_utf8_lossy(&buf);
            if line.trim().is_empty() {
                continue;
            }
            let depth = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            if shared.obs.is_on() {
                shared.obs.gauge_max("server/queue_depth", depth);
            }
            let response = answer(&line, shared);
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            response
        };
        shared.requests.fetch_add(1, Ordering::SeqCst);
        if shared.obs.is_on() {
            shared.obs.counter_add("server/requests", 1);
        }
        let mut wire = response.to_line();
        wire.push('\n');
        if writer.write_all(wire.as_bytes()).is_err() || too_long {
            // Half-close first, so the error line reaches the client
            // ahead of the close.
            let _ = writer.shutdown(Shutdown::Write);
            return;
        }
        // `shutdown` keeps this connection alive for the client to close,
        // but stops every other worker from taking new ones.
        if matches!(response, Response::Draining) {
            begin_drain(shared);
        }
    }
}

/// Raises the shutdown flag and self-connects once per worker so no
/// sibling stays parked in `accept()` forever.
fn begin_drain(shared: &Shared<'_>) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // someone else already started the drain
    }
    if shared.obs.is_on() {
        shared.obs.counter_add("server/shutdowns", 1);
    }
    for _ in 0..shared.workers {
        drop(TcpStream::connect(shared.addr));
    }
}

fn answer(line: &str, shared: &Shared<'_>) -> Response {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(message) => return Response::Error { message },
    };
    match request {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::Draining,
        Request::Metrics => Response::Metrics {
            prometheus: shared.obs.snapshot().to_prometheus(),
        },
        Request::Query { graph, kind, entry } => serve_query(&graph, kind, entry, shared),
    }
}

/// Timer path for one query kind — static so recording never allocates.
fn kind_timer(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Construct => "server/query/construct",
        QueryKind::Verify => "server/query/verify",
        QueryKind::Quality => "server/query/quality",
        QueryKind::Mst => "server/query/mst",
        QueryKind::Repair => "server/query/repair",
    }
}

fn serve_query(graph: &str, kind: QueryKind, entry: usize, shared: &Shared<'_>) -> Response {
    let Some((corpus, session)) = shared.sessions.get(graph) else {
        let known: Vec<&str> = shared.sessions.keys().copied().collect();
        return Response::Error {
            message: format!("unknown graph `{graph}`; serving {known:?}"),
        };
    };
    if entry >= corpus.len() {
        return Response::Error {
            message: format!(
                "entry {entry} out of range for `{graph}` ({} entries)",
                corpus.len()
            ),
        };
    }
    if kind == QueryKind::Repair && corpus.entries()[entry].repair.is_none() {
        return Response::Error {
            message: format!(
                "`{graph}` was built without repair cases; start the server with with_repair"
            ),
        };
    }
    let event = QueryEvent {
        kind,
        entry,
        arrival_nanos: 0,
    };
    match session.serve_shared(query_of(corpus, &event)) {
        Ok(served) => {
            if shared.obs.is_on() {
                shared.obs.timer_record(kind_timer(kind), served.wall_nanos);
            }
            Response::Served {
                kind,
                entry,
                digest: served.digest,
                wall_nanos: served.wall_nanos,
                rounds_charged: served.rounds_charged,
                all_good: served.all_good,
            }
        }
        Err(err) => Response::Error {
            message: format!("query failed: {err}"),
        },
    }
}
