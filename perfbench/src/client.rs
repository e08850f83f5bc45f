//! The benchmark's own line-protocol client: std `TcpStream` with
//! `TCP_NODELAY`, one write per request line, one request in flight.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Sends `line` (which ends in a newline) and reads the reply line
    /// into `reply`, without its newline.
    pub fn call(&mut self, line: &str, reply: &mut String) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let trimmed = reply.trim_end_matches(['\r', '\n']).len();
        reply.truncate(trimmed);
        Ok(())
    }
}
