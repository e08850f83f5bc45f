//! The `lcs_server` binary end to end: it must bind the address `--addr`
//! names, report that address on its `listening on` line, and exit 0 after
//! a `shutdown` drains it.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lcs_server::client;

/// A loopback port that was free a moment ago: bind port 0, read the port
/// the system picked, release it.
fn free_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
    listener.local_addr().expect("bound address").port()
}

/// Waits for `child` to exit, killing it after `limit`.
fn wait_with_limit(child: &mut Child, limit: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("child status reads") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("lcs_server did not exit within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn server_binds_the_chosen_port_and_drains_on_shutdown() {
    let port = free_port();
    let addr = format!("127.0.0.1:{port}");
    let mut child = Command::new(env!("CARGO_BIN_EXE_lcs_server"))
        .args(["--addr", &addr, "--workers", "1"])
        .args(["--family", "grid", "--size", "4", "--entries", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("lcs_server starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("a listening line arrives");
    let named = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next());
    if named != Some(addr.as_str()) {
        let _ = child.kill();
        panic!("expected `listening on {addr} ...`, got {line:?}");
    }

    let bound: SocketAddr = addr.parse().expect("a socket address");
    client::ping(bound).expect("the chosen port answers");
    client::shutdown(bound).expect("shutdown is acknowledged");
    let status = wait_with_limit(&mut child, Duration::from_secs(60));
    assert!(status.success(), "lcs_server exited with {status}");
    let mut rest = String::new();
    stdout.read_line(&mut rest).expect("the drain line arrives");
    assert!(
        rest.starts_with("drained: "),
        "unexpected drain line {rest:?}"
    );
}
