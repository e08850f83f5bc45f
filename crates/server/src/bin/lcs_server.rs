//! The `lcs_server` binary: build a corpus per requested graph family,
//! warm one session per graph, and serve line-JSON queries over TCP
//! until a client sends `{"op":"shutdown"}`.
//!
//! ```text
//! lcs_server [--addr 127.0.0.1:0] [--workers N] [--family grid]...
//!            [--size N] [--entries K] [--seed S] [--with-repair]
//! ```
//!
//! `--family` may repeat (one corpus per family; default `grid`). The
//! bound address is printed as `listening on <addr>` once serving is
//! ready — with `--addr 127.0.0.1:0` that line is how scripts learn the
//! ephemeral port. Engine selection follows `LCS_THREADS` as everywhere
//! else. Exits 0 after a graceful drain, printing lifetime stats.

use std::process::ExitCode;

use lcs_obs::Obs;
use lcs_server::{ServeError, ServerConfig, ServerHandle};
use lcs_workload::{CorpusSpec, Family};

struct Args {
    addr: String,
    workers: usize,
    families: Vec<Family>,
    size: usize,
    entries: usize,
    seed: u64,
    with_repair: bool,
}

fn family_from_label(label: &str) -> Result<Family, String> {
    Family::ALL
        .into_iter()
        .find(|f| f.label() == label)
        .ok_or_else(|| {
            let known: Vec<&str> = Family::ALL.iter().map(|f| f.label()).collect();
            format!("unknown family `{label}`; expected one of {known:?}")
        })
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        families: Vec::new(),
        size: 8,
        entries: 4,
        seed: 7,
        with_repair: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--family" => args.families.push(family_from_label(&value("--family")?)?),
            "--size" => {
                args.size = value("--size")?
                    .parse()
                    .map_err(|e| format!("--size: {e}"))?
            }
            "--entries" => {
                args.entries = value("--entries")?
                    .parse()
                    .map_err(|e| format!("--entries: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--with-repair" => args.with_repair = true,
            "--help" | "-h" => {
                return Err(
                    "usage: lcs_server [--addr A] [--workers N] [--family F]... \
                            [--size N] [--entries K] [--seed S] [--with-repair]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    if args.families.is_empty() {
        args.families.push(Family::Grid);
    }
    Ok(args)
}

fn serve(args: Args) -> Result<(), ServeError> {
    let corpora: Vec<CorpusSpec> = args
        .families
        .iter()
        .map(|&family| CorpusSpec {
            family,
            size: args.size,
            entries: args.entries,
            seed: args.seed,
        })
        .collect();
    let labels: Vec<&str> = args.families.iter().map(|f| f.label()).collect();
    let mut config = ServerConfig {
        addr: args.addr,
        ..ServerConfig::new(corpora)
    }
    .workers(args.workers)
    .seed(args.seed)
    .recorder(Obs::recording());
    if args.with_repair {
        config = config.with_repair();
    }
    let server = ServerHandle::spawn(config)?;
    // Corpora build on the server thread; wait for readiness so the
    // printed address means "connect now works".
    lcs_server::client::ping(server.addr())?;
    println!(
        "listening on {} ({:?}, {} workers)",
        server.addr(),
        labels,
        args.workers
    );
    let stats = server.join()?;
    println!(
        "drained: {} connections, {} requests",
        stats.connections, stats.requests
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match serve(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("lcs_server: {err}");
            ExitCode::FAILURE
        }
    }
}
