//! Serving over TCP: spawn the line-JSON server in-process, replay a
//! deterministic workload trace against it over loopback, and check that
//! the wire changed nothing but latency.
//!
//! The server builds a grid corpus, warms one shared session, and four
//! worker threads answer four closed-loop client connections through
//! `Session::serve_shared` (`&self` — no session lock). The workload
//! driver replays the trace over the TCP transport and reports per-kind
//! round-trip latencies; the example then replays the same trace with the
//! same driver in process and asserts the trace-order digests are
//! identical — the server's determinism contract in one assert.
//!
//! Run with: `cargo run --release --example serve_tcp`

use low_congestion_shortcuts::obs::Obs;
use low_congestion_shortcuts::server::{client, ServerConfig, ServerHandle};
use low_congestion_shortcuts::workload::{
    generate_trace, replay, run_workload, Corpus, CorpusSpec, Family, Mode, QueryKind, QueryMix,
    WorkloadSpec,
};

fn main() {
    const CLIENTS: usize = 4;
    const QUERIES: usize = 48;
    const SEED: u64 = 31;

    let corpus_spec = CorpusSpec {
        family: Family::Grid,
        size: 8,
        entries: 4,
        seed: SEED,
    };

    // The server thread owns its own corpus + warm session; workers must
    // cover the concurrent connection count (connection-per-worker).
    let server = ServerHandle::spawn(
        ServerConfig::new(vec![corpus_spec])
            .workers(CLIENTS)
            .seed(SEED),
    )
    .expect("server spawns");
    println!("serving on {}", server.addr());

    let spec = WorkloadSpec::new(
        Mode::Closed {
            clients: CLIENTS,
            think_nanos: 0,
        },
        QUERIES,
        1.0,
        QueryMix::mixed(),
        SEED,
    );
    let corpus = Corpus::build(&corpus_spec).expect("corpus builds");
    let trace = generate_trace(&spec, corpus.len()).expect("trace generates");

    let tcp = client::Tcp::new(server.addr(), "grid");
    let outcome = replay(&tcp, &trace, spec.mode, &Obs::off()).expect("replay runs");
    println!(
        "{} queries over {} connections: {:.0} req/s, p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us",
        outcome.queries,
        CLIENTS,
        outcome.throughput_qps(),
        outcome.histogram.quantile(0.50) as f64 / 1e3,
        outcome.histogram.quantile(0.99) as f64 / 1e3,
        outcome.histogram.p999() as f64 / 1e3,
    );
    for kind in QueryKind::ALL {
        let h = &outcome.kind_histograms[kind.index()];
        if h.is_empty() {
            continue;
        }
        println!(
            "  {:<9} {:>3} served  p50 {:>8.1} us  p99 {:>8.1} us",
            kind.label(),
            h.count(),
            h.quantile(0.50) as f64 / 1e3,
            h.quantile(0.99) as f64 / 1e3,
        );
    }

    // The determinism contract: the wire adds latency, never values.
    let direct = run_workload(&corpus, &spec).expect("in-process replay runs");
    assert_eq!(
        outcome.digests, direct.digests,
        "server digests must equal an in-process replay of the same trace"
    );
    assert_eq!(outcome.digest, direct.digest);
    println!(
        "digest check: {} server responses == direct serve replay",
        direct.digests.len()
    );

    client::shutdown(server.addr()).expect("shutdown acknowledged");
    let stats = server.join().expect("server drains");
    println!(
        "drained: {} connections, {} requests",
        stats.connections, stats.requests
    );
}
