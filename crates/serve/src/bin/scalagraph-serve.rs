//! `scalagraph-serve` — the simulation-as-a-service daemon.
//!
//! ```text
//! scalagraph-serve [options]
//!   --addr <host:port>        bind address                     [127.0.0.1:7451]
//!   --workers <n>             simulation worker threads        [4]
//!   --queue-cap <n>           admission queue capacity         [256]
//!   --deadline-ms <ms>        per-job deadline, 0=none         [10000]
//!   --max-body-bytes <n>      request body ceiling             [1048576]
//!   --graph-cache <n>         graph cache capacity (specs)     [64]
//!   --graph-cache-bytes <n>   graph cache byte budget, 0=off   [2147483648]
//!   --memo-cap <n>            memo capacity (fingerprints)     [1024]
//!   --summary-secs <n>        stderr metrics cadence, 0=off    [10]
//! ```
//!
//! The port speaks HTTP/1.1, one request per connection: `POST /run` with
//! a bare scenario body, `GET /metrics` (text), `POST /shutdown`.
//!
//! The daemon exits after a graceful drain triggered by `POST /shutdown`;
//! its exit code reports the final ledger (0 balanced, 1 unbalanced).

use std::process::exit;
use std::time::Duration;

use scalagraph_serve::ServeConfig;

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!(
        "{}",
        include_str!("scalagraph-serve.rs")
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with("//!"))
            .map(|l| l.trim_start_matches("//! ").trim_start_matches("//!"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    exit(2)
}

fn parse_config() -> ServeConfig {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7451".into(),
        summary_every: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_and_exit(&format!("{a} needs a value")))
        };
        let parse_u64 = |flag: &str, v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage_and_exit(&format!("{flag} needs a non-negative integer")))
        };
        match a.as_str() {
            "--addr" => config.addr = value(),
            "--workers" => config.workers = parse_u64("--workers", value()).max(1) as usize,
            "--queue-cap" => {
                config.queue_capacity = parse_u64("--queue-cap", value()).max(1) as usize
            }
            "--deadline-ms" => config.default_deadline_ms = parse_u64("--deadline-ms", value()),
            "--max-body-bytes" => {
                config.max_body_bytes = parse_u64("--max-body-bytes", value()).max(1024) as usize
            }
            "--graph-cache" => {
                config.graph_cache_capacity = parse_u64("--graph-cache", value()).max(1) as usize
            }
            "--graph-cache-bytes" => {
                config.graph_cache_bytes = parse_u64("--graph-cache-bytes", value())
            }
            "--memo-cap" => config.memo_capacity = parse_u64("--memo-cap", value()).max(1) as usize,
            "--summary-secs" => {
                let secs = parse_u64("--summary-secs", value());
                config.summary_every = (secs > 0).then(|| Duration::from_secs(secs));
            }
            other => usage_and_exit(&format!("unknown flag `{other}`")),
        }
    }
    config
}

fn main() {
    let config = parse_config();
    let server = match scalagraph_serve::Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: could not start: {e}");
            exit(2)
        }
    };
    println!("scalagraph-serve listening on {}", server.local_addr());
    let summary = server.summarizer();
    let counters = server.join();
    eprintln!("[scalagraph-serve] final ledger\n{}", summary());
    exit(if counters.balanced() { 0 } else { 1 })
}
