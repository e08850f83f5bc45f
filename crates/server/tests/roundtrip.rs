//! End-to-end server tests on loopback: the workload driver's TCP replays
//! must be digest-identical to its in-process replays of the same trace,
//! shutdown must drain gracefully, and the metrics op must export the
//! serving probes.

use lcs_api::LcsError;
use lcs_obs::Obs;
use lcs_server::client::{self, Tcp};
use lcs_server::{ServeError, ServerConfig, ServerHandle};
use lcs_workload::{
    generate_trace, replay, run_workload, Corpus, CorpusSpec, Family, Mode, QueryMix, WorkloadSpec,
};

fn spec_for(family: Family) -> CorpusSpec {
    CorpusSpec {
        family,
        size: 5,
        entries: 3,
        seed: 11,
    }
}

fn closed(clients: usize) -> Mode {
    Mode::Closed {
        clients,
        think_nanos: 0,
    }
}

fn trace_spec(queries: usize, mode: Mode) -> WorkloadSpec {
    WorkloadSpec::new(mode, queries, 1.0, QueryMix::mixed(), 11)
}

#[test]
fn tcp_replay_is_digest_identical_to_direct_serving() {
    let corpus_spec = spec_for(Family::Grid);
    let corpus = Corpus::build(&corpus_spec).expect("corpus builds");
    let server = ServerHandle::spawn(ServerConfig::new(vec![corpus_spec]).workers(3).seed(11))
        .expect("server spawns");
    let tcp = Tcp::new(server.addr(), "grid");

    // One driver over both transports: the open loop (paced 20 us apart)
    // and the closed loop at 1 and 3 clients must give the in-process
    // run's trace-order digests and its client-order fold.
    let modes = [
        Mode::Open {
            mean_interarrival_nanos: 20_000,
        },
        closed(1),
        closed(3),
    ];
    for mode in modes {
        let spec = trace_spec(24, mode);
        let direct = run_workload(&corpus, &spec).expect("in-process replay runs");
        let trace = generate_trace(&spec, corpus.len()).expect("trace generates");
        let wire = replay(&tcp, &trace, mode, &Obs::off()).expect("tcp replay runs");
        assert_eq!(wire.queries, 24);
        assert_eq!(wire.kind_counts, direct.kind_counts);
        assert_eq!(
            wire.digests, direct.digests,
            "wire must add latency, not values ({mode:?})"
        );
        assert_eq!(wire.digest, direct.digest, "client folds differ ({mode:?})");
        assert_eq!(wire.per_client.len(), mode.clients());
        assert!(wire.results.is_none(), "the wire carries digests only");
    }

    client::shutdown(server.addr()).expect("shutdown acknowledged");
    let stats = server.join().expect("server drains");
    // 1 open-loop + 1 + 3 closed-loop clients + 1 shutdown connection.
    assert_eq!(stats.connections, 6);
    assert_eq!(stats.requests, 3 * 24 + 1);
}

#[test]
fn a_zero_client_replay_is_a_config_error_and_opens_no_connection() {
    let corpus_spec = spec_for(Family::Grid);
    let corpus = Corpus::build(&corpus_spec).expect("corpus builds");
    let server =
        ServerHandle::spawn(ServerConfig::new(vec![corpus_spec]).seed(11)).expect("server spawns");
    let trace = generate_trace(&trace_spec(4, closed(1)), corpus.len()).expect("trace generates");

    let err = replay(
        &Tcp::new(server.addr(), "grid"),
        &trace,
        closed(0),
        &Obs::off(),
    )
    .unwrap_err();
    assert!(
        matches!(err, ServeError::Lcs(LcsError::Config { .. })),
        "got: {err}"
    );
    // In process, the same spec is rejected the same way.
    assert!(matches!(
        run_workload(&corpus, &trace_spec(4, closed(0))),
        Err(LcsError::Config { .. })
    ));

    client::shutdown(server.addr()).expect("shutdown acknowledged");
    let stats = server.join().expect("server drains");
    assert_eq!(stats.connections, 1, "only the shutdown connection opened");
    assert_eq!(stats.requests, 1);
}

#[test]
fn scripted_session_pings_queries_and_shuts_down() {
    let server = ServerHandle::spawn(
        ServerConfig::new(vec![spec_for(Family::Wheel)])
            .workers(2)
            .seed(11)
            .recorder(Obs::recording()),
    )
    .expect("server spawns");
    let addr = server.addr();
    client::ping(addr).expect("ping answers");

    let spec = trace_spec(8, closed(1));
    let corpus = Corpus::build(&spec_for(Family::Wheel)).expect("corpus builds");
    let trace = generate_trace(&spec, corpus.len()).expect("trace generates");
    let outcome =
        replay(&Tcp::new(addr, "wheel"), &trace, spec.mode, &Obs::off()).expect("replay runs");
    assert_eq!(
        outcome.digests,
        run_workload(&corpus, &spec).unwrap().digests
    );

    let prometheus = client::fetch_metrics(addr).expect("metrics export");
    assert!(
        prometheus.contains("lcs_server_requests_total"),
        "export should carry the server request counter:\n{prometheus}"
    );
    assert!(
        prometheus.contains("lcs_server_query_"),
        "export should carry per-kind latency summaries:\n{prometheus}"
    );

    client::shutdown(addr).expect("shutdown acknowledged");
    server.join().expect("server drains");
    // After the drain, new connections must be refused or dropped unread.
    assert!(client::ping(addr).is_err(), "drained server must not serve");
}

#[test]
fn unknown_graphs_kinds_and_entries_are_typed_errors() {
    let server = ServerHandle::spawn(ServerConfig::new(vec![spec_for(Family::Torus)]).seed(11))
        .expect("server spawns");
    let addr = server.addr();
    let torus = Tcp::new(addr, "torus");
    let one = closed(1);

    let corpus = Corpus::build(&spec_for(Family::Torus)).expect("corpus builds");
    let spec = trace_spec(4, one);
    let trace = generate_trace(&spec, corpus.len()).expect("trace generates");

    // Wrong graph label → protocol error naming the known graphs.
    let err = replay(&Tcp::new(addr, "grid"), &trace[..1], one, &Obs::off()).unwrap_err();
    assert!(err.to_string().contains("unknown graph"), "got: {err}");

    // Out-of-range entry → protocol error, connection stays serviceable.
    let mut event = trace[0];
    event.entry = 99;
    let err = replay(&torus, &[event], one, &Obs::off()).unwrap_err();
    assert!(err.to_string().contains("out of range"), "got: {err}");

    // Repair against a corpus built without repair cases.
    let mut repair = trace[0];
    repair.kind = lcs_workload::QueryKind::Repair;
    repair.entry = 0;
    let err = replay(&torus, &[repair], one, &Obs::off()).unwrap_err();
    assert!(err.to_string().contains("repair"), "got: {err}");

    // The server survives all of that and still answers.
    let outcome = replay(&torus, &trace, one, &Obs::off()).expect("replay runs");
    assert_eq!(outcome.queries, 4);

    client::shutdown(addr).expect("shutdown acknowledged");
    server.join().expect("server drains");
}
