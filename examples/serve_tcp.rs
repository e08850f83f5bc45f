//! Serving over TCP: spawn the line-JSON server in-process, replay a
//! deterministic workload trace against it over loopback, and check that
//! the wire changed nothing but latency.
//!
//! The server builds a grid corpus, warms one shared session, and four
//! worker threads answer four closed-loop client connections through
//! `Session::serve_shared` (`&self` — no session lock). The client
//! replay reports per-kind round-trip latencies; the example then
//! replays the same trace directly through `Session::serve_shared` and
//! asserts the digest sequences are identical — the server's determinism
//! contract in one assert.
//!
//! Run with: `cargo run --release --example serve_tcp`

use low_congestion_shortcuts::api::Pipeline;
use low_congestion_shortcuts::server::{client, ServerConfig, ServerHandle};
use low_congestion_shortcuts::workload::{
    generate_trace, query_of, Corpus, CorpusSpec, Family, Mode, QueryKind, QueryMix, WorkloadSpec,
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

    let outcome =
        client::replay_closed(server.addr(), "grid", &trace, CLIENTS, 0).expect("replay runs");
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
    let session = Pipeline::on(corpus.graph())
        .seed(SEED)
        .build()
        .expect("session builds");
    let direct: Vec<u64> = trace
        .iter()
        .map(|event| {
            session
                .serve_shared(query_of(&corpus, event))
                .expect("direct serve succeeds")
                .digest
        })
        .collect();
    assert_eq!(
        outcome.digests, direct,
        "server digests must equal a direct Session::serve_shared replay"
    );
    println!(
        "digest check: {} server responses == direct serve replay",
        direct.len()
    );

    client::shutdown(server.addr()).expect("shutdown acknowledged");
    let stats = server.join().expect("server drains");
    println!(
        "drained: {} connections, {} requests",
        stats.connections, stats.requests
    );
}
