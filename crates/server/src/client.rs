//! Loopback clients: the line-JSON TCP [`Transport`] the workload driver
//! replays traces over, plus one-shot `ping`, `metrics` and `shutdown`
//! requests.
//!
//! [`Tcp`] is the wire half of `lcs_workload`'s one driver: a client is
//! one connection, and serving an event is one request line and one
//! response line. Pacing, round-robin slicing, histograms and digests are
//! the driver's ([`lcs_workload::replay`]), so a TCP replay is
//! digest-comparable against an in-process `run_workload` of the same
//! trace: the trace-order digests and the per-client fold are the same
//! numbers.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use lcs_api::{QueryValue, Served};
use lcs_workload::{QueryEvent, Transport};

use crate::protocol::{Request, Response};
use crate::ServeError;

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

/// The TCP transport of the workload driver: every client is one
/// connection to the server at `addr`, querying the corpus graph named
/// `graph`. A served event's [`Served::wall_nanos`] is the request's round
/// trip as the client measures it; results carry digests, not values.
#[derive(Debug, Clone)]
pub struct Tcp {
    addr: SocketAddr,
    graph: String,
}

impl Tcp {
    /// A transport to the server at `addr`, querying `graph`.
    pub fn new(addr: SocketAddr, graph: &str) -> Self {
        Tcp {
            addr,
            graph: graph.to_string(),
        }
    }
}

impl Transport for Tcp {
    type Client = (TcpStream, BufReader<TcpStream>);
    type Error = ServeError;

    fn connect(&self) -> Result<Self::Client, ServeError> {
        connect(self.addr)
    }

    fn serve(
        &self,
        (writer, reader): &mut Self::Client,
        event: &QueryEvent,
    ) -> Result<(Served, Option<QueryValue>), ServeError> {
        let request = Request::Query {
            graph: self.graph.clone(),
            kind: event.kind,
            entry: event.entry,
        };
        let started = Instant::now();
        match exchange(writer, reader, &request)? {
            Response::Served {
                digest,
                rounds_charged,
                all_good,
                ..
            } => Ok((
                Served {
                    wall_nanos: started.elapsed().as_nanos() as u64,
                    digest,
                    rounds_charged,
                    all_good,
                },
                None,
            )),
            Response::Error { message } => Err(ServeError::Protocol(message)),
            other => Err(ServeError::Protocol(format!(
                "expected a served response, got {other:?}"
            ))),
        }
    }
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
