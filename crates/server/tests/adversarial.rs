//! Hostile request lines on loopback: an over-long line and deeply nested
//! JSON must each end in one typed error line, never a dead server. Before
//! the line cap and the parser's depth cap, one line of 200,000 `[`
//! overflowed a worker's stack and aborted the whole process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use lcs_api::Pipeline;
use lcs_server::{client, Response, ServerConfig, ServerHandle};
use lcs_workload::{query_of, Corpus, CorpusSpec, Family, QueryEvent, QueryKind};

fn spec() -> CorpusSpec {
    CorpusSpec {
        family: Family::Grid,
        size: 5,
        entries: 3,
        seed: 11,
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("server accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout sets");
    stream
}

/// Sends `payload` from a helper thread (the server may close before it
/// has read everything, so write errors are expected and ignored) and
/// returns the first response line together with the reader.
fn send_and_read_line(addr: SocketAddr, payload: Vec<u8>) -> (Response, BufReader<TcpStream>) {
    let stream = connect(addr);
    let mut writer = stream.try_clone().expect("stream clones");
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&payload);
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("an answer line arrives");
    sender.join().expect("sender thread finishes");
    let response = Response::parse(&line).expect("the answer is a protocol line");
    (response, reader)
}

fn expect_error(response: &Response, needle: &str) {
    match response {
        Response::Error { message } => {
            assert!(message.contains(needle), "unexpected error: {message}")
        }
        other => panic!("expected an error line, got {other:?}"),
    }
}

/// After an over-cap line the server closes the connection: the next read
/// ends (EOF, or a reset if the rest of the line was still unread).
fn expect_closed(mut reader: BufReader<TcpStream>) {
    let mut rest = Vec::new();
    if let Ok(n) = reader.read_to_end(&mut rest) {
        assert_eq!(n, 0, "no further answers after an over-cap line");
    }
}

#[test]
fn hostile_lines_get_one_error_line_and_the_server_keeps_serving() {
    let server = ServerHandle::spawn(ServerConfig::new(vec![spec()]).workers(2).seed(11))
        .expect("server spawns");
    let addr = server.addr();

    // 200,000 open brackets: over the line cap, so the line is never parsed.
    let mut deep = vec![b'['; 200_000];
    deep.push(b'\n');
    let (response, reader) = send_and_read_line(addr, deep);
    expect_error(&response, "longer than");
    expect_closed(reader);

    // A 1 MiB line.
    let mut long = b"{\"op\":\"ping\",\"pad\":\"".to_vec();
    long.resize(1 << 20, b'x');
    long.extend_from_slice(b"\"}\n");
    let (response, reader) = send_and_read_line(addr, long);
    expect_error(&response, "longer than");
    expect_closed(reader);

    // 60,000 open brackets fit under the line cap and reach the parser,
    // whose depth cap answers; the connection stays open for the next line.
    let mut nested = vec![b'['; 60_000];
    nested.push(b'\n');
    let (response, mut reader) = send_and_read_line(addr, nested);
    expect_error(&response, "nesting deeper than");
    reader
        .get_mut()
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("ping sends");
    let mut line = String::new();
    reader.read_line(&mut line).expect("pong arrives");
    assert_eq!(Response::parse(&line), Ok(Response::Pong));
    drop(reader);

    // A fresh connection still gets a digest-correct quality answer.
    let corpus = Corpus::build(&spec()).expect("corpus builds");
    let session = Pipeline::on(corpus.graph())
        .seed(11)
        .build()
        .expect("session builds");
    let event = QueryEvent {
        kind: QueryKind::Quality,
        entry: 1,
        arrival_nanos: 0,
    };
    let want = session
        .serve_shared(query_of(&corpus, &event))
        .expect("query serves")
        .digest;
    let query = b"{\"op\":\"query\",\"graph\":\"grid\",\"kind\":\"quality\",\"entry\":1}\n";
    let (response, _) = send_and_read_line(addr, query.to_vec());
    match response {
        Response::Served { digest, kind, .. } => {
            assert_eq!(kind, QueryKind::Quality);
            assert_eq!(digest, want, "served digest must equal serve_shared");
        }
        other => panic!("expected a served answer, got {other:?}"),
    }

    client::shutdown(addr).expect("shutdown acknowledged");
    let stats = server.join().expect("server drains");
    // Three hostile lines, one ping, one query, one shutdown.
    assert_eq!(stats.requests, 6);
}
