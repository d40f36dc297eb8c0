//! End-to-end acceptance tests for the `scalagraph-serve` daemon, pinned
//! across the crate boundary on real sockets (ephemeral ports):
//!
//! 1. Identical concurrent HTTP `POST /run` requests produce byte-identical
//!    result JSON from exactly one graph build, with at least one memo hit.
//! 2. Malformed JSON, oversized bodies, unknown fields, and
//!    `validate()`-rejected scenarios all come back as typed protocol
//!    errors with the right HTTP status — never a dropped connection or a
//!    daemon panic — and the daemon keeps serving afterwards.
//! 3. A replayed run is a memo hit that `/metrics` counts, and a
//!    `POST /shutdown` leaves a balanced ledger that counts every client
//!    connection and not the stop's wake-up connection.
//! 4. A body nested deeper than the JSON parser's bound is a typed
//!    `malformed_json` refusal, not a stack overflow that aborts the
//!    daemon.
//! 5. Dynamic corpus scenarios (with a `mutations` schedule) run over HTTP.
//! 6. A scenario that still carries the retired `modes.event_driven` key
//!    parses to its migrated form, shares its fingerprint, and is served.
//! 7. A client that pauses longer than the daemon's read timeout inside
//!    its request still gets its reply.
//! 8. Every stop path wakes the blocking accept loop: `join` returns
//!    within 10 s of `POST /shutdown` or [`Server::stop`], for a listener
//!    bound to loopback or to every interface, and the wake-up connection
//!    is not counted.
//! 9. Mutated corpus scenarios, framed as HTTP requests and read in short
//!    pieces, get `Ok` or a typed error from the wire parser, never a
//!    panic.
//! 10. A memo hit answers with its own request's name: two scenarios that
//!     differ only in name get their own result bytes.
//! 11. Oversized graph families neither wrap past `validate()` nor slip
//!     under the graph cache's byte budget, and nothing is built for them.
//! 12. `workers_busy` on `/metrics` counts the jobs the executor is running.
//! 13. A graph too large to hold is one typed `failed` outcome, not an
//!     abort or a panic, and the daemon keeps serving and still joins.
//! 14. A daemon on default settings refuses a graph past its default byte
//!     budget before building anything.
//! 15. A repeated member name, an unknown key inside a scenario member and
//!     an empty fault window are each refused with a typed 400 before a
//!     job is submitted.
//! 16. A run the shutdown drains from the queue answers 503.
//! 17. A first line that is not an HTTP request line, from a client that
//!     keeps its connection open, is answered `400 bad_request` at once,
//!     and the daemon keeps serving.
//! 18. A scenario whose PE queues exceed the engine's bound (2^40
//!     aggregation registers) is a typed 400 naming the key, and the
//!     daemon then serves a healthy run.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use scalagraph_suite::conformance::json;
use scalagraph_suite::conformance::scenario::{
    AlgoSpec, ConfigSpec, Expectation, Family, ModeMatrix,
};
use scalagraph_suite::conformance::{GraphSource, GraphSpec, Scenario};
use scalagraph_suite::scalagraph::fault::{Fault, FaultKind};
use scalagraph_suite::serve::http::{read_request, HttpError};
use scalagraph_suite::serve::protocol::{extract_result, parse_scenario_strict};
use scalagraph_suite::serve::{ErrorReply, ServeConfig, Server};
use scalagraph_suite::telemetry::ServiceCounters;

use common::{int, SplitMix64};

fn healthy(name: &str) -> Scenario {
    Scenario {
        name: name.into(),
        graph: GraphSpec {
            family: Family::Uniform {
                vertices: 64,
                edges: 256,
                seed: 7,
            },
            symmetrize: false,
            max_weight: 0,
            weight_seed: 0,
            source: GraphSource::Generate,
        },
        algo: AlgoSpec::Bfs { root: 0 },
        config: ConfigSpec::small(),
        fault_seed: 0,
        faults: Vec::new(),
        modes: ModeMatrix::sim_only(),
        expect: Expectation::Converge,
        strict_frontier: None,
        synthetic_bug: false,
        mutations: None,
    }
}

/// A scenario that can only end by a deadline or a cancellation: the
/// watchdog is off and an HBM channel is pinned forever.
fn wedge(name: &str) -> Scenario {
    let mut wedge = healthy(name);
    wedge.graph.family = Family::Uniform {
        vertices: 400,
        edges: 3000,
        seed: 4,
    };
    wedge.config.watchdog_stall_cycles = 0;
    wedge.modes.fast_forward = false;
    wedge.faults = vec![Fault::new(FaultKind::HbmStall {
        tile: 0,
        channel: 0,
        cycles: u64::MAX,
    })
    .window(20, 21)];
    wedge.fault_seed = 1;
    wedge
}

fn start_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Joins the daemon on a helper thread, failing instead of hanging the
/// suite when a stop did not wake its accept loop.
fn join_within_10s(server: Server) -> ServiceCounters {
    let (tx, rx) = std::sync::mpsc::channel();
    let joiner = std::thread::spawn(move || {
        // The receiver is gone only when the wait below has already failed.
        let _ = tx.send(server.join());
    });
    let counters = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("join() returns within 10 s of a stop");
    joiner.join().expect("join thread");
    counters
}

/// One HTTP exchange on a fresh connection; returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    http_with_pause(addr, method, path, body, Duration::ZERO)
}

/// [`http`], with the client pausing for `pause` between head and body.
fn http_with_pause(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    pause: Duration,
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    std::thread::sleep(pause);
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header separator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, payload.to_string())
}

fn post_run(addr: &str, scenario_json: &str) -> (u16, String) {
    http(addr, "POST", "/run", scenario_json)
}

/// Scrapes one counter from `GET /metrics` text.
fn metric(addr: &str, name: &str) -> u64 {
    let (status, text) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "metrics endpoint must answer");
    let key = format!("scalagraph_serve_{name} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&key))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
}

#[test]
fn identical_concurrent_http_runs_share_one_build_and_replay_bytes() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    let body = healthy("serve-e2e-shared").to_json_string();

    let clients: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let body = body.clone();
            std::thread::spawn(move || post_run(&addr, &body))
        })
        .collect();
    let responses: Vec<(u16, String)> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();

    let mut results = Vec::new();
    for (status, response) in &responses {
        assert_eq!(*status, 200, "run must succeed: {response}");
        assert!(
            response.starts_with("{\"ok\":true"),
            "protocol-level ok: {response}"
        );
        assert!(
            response.contains("\"status\":\"completed\""),
            "simulation completed: {response}"
        );
        results.push(
            extract_result(response)
                .expect("result payload")
                .to_string(),
        );
    }
    assert_eq!(
        results[0], results[1],
        "identical scenarios must replay byte-identical result JSON"
    );

    assert_eq!(
        metric(&addr, "graph_cache_builds"),
        1,
        "one CSR build total"
    );
    assert!(metric(&addr, "memo_hits") >= 1, "second request memoized");
    assert_eq!(metric(&addr, "jobs_completed"), 2);

    let (status, response) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200, "shutdown acknowledged: {response}");
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
}

#[test]
fn wire_errors_are_typed_and_never_kill_the_daemon() {
    let server = start_server();
    let addr = server.local_addr().to_string();

    // Malformed JSON.
    let (status, body) = post_run(&addr, "{not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"malformed_json\""), "{body}");

    // Unknown field at the scenario level (strict parsing).
    let mut with_extra = healthy("serve-e2e-extra").to_json_string();
    with_extra = with_extra.replacen('{', "{\n  \"surprise\": 1,", 1);
    let (status, body) = post_run(&addr, &with_extra);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"unknown_field\""), "{body}");
    assert!(body.contains("surprise"), "{body}");

    // Scenario that parses but fails validate(): a 1-vertex graph.
    let mut tiny = healthy("serve-e2e-tiny");
    tiny.graph.family = Family::Uniform {
        vertices: 1,
        edges: 0,
        seed: 7,
    };
    let (status, body) = post_run(&addr, &tiny.to_json_string());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"invalid_scenario\""), "{body}");

    // Oversized body (limit shrunk via config is overkill; the default is
    // 1 MiB, so send 1 MiB + slack of padding).
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat((1 << 20) + 1024));
    let (status, body) = post_run(&addr, &huge);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"kind\":\"oversized\""), "{body}");

    // Unknown path and wrong method.
    let (status, body) = http(&addr, "GET", "/nope", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"kind\":\"not_found\""), "{body}");
    let (status, body) = http(&addr, "DELETE", "/run", "");
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("\"kind\":\"method_not_allowed\""), "{body}");

    // After all of that abuse the daemon still completes a healthy run.
    let (status, body) = post_run(&addr, &healthy("serve-e2e-after").to_json_string());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"completed\""), "{body}");

    assert!(metric(&addr, "requests_error") >= 6);
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
}

#[test]
fn deep_nesting_is_refused_and_the_daemon_keeps_serving() {
    let server = start_server();
    let addr = server.local_addr().to_string();

    // The parser recurses once per level: without its depth bound, 10,000
    // levels overflow the connection thread's stack and abort the process.
    let (status, body) = post_run(&addr, &"[".repeat(10_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"malformed_json\""), "{body}");

    let (status, body) = post_run(&addr, &healthy("serve-e2e-nesting").to_json_string());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"completed\""), "{body}");
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
}

#[test]
fn a_dynamic_corpus_scenario_runs_over_http() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/corpus/dynamic-churn-bfs-repair.json"
    );
    let scenario = std::fs::read_to_string(path).expect("read corpus scenario");
    assert!(scenario.contains("\"mutations\""));

    let (status, body) = post_run(&addr, &scenario);
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"ok\":true"), "{body}");
    assert!(body.contains("\"status\":\"completed\""), "{body}");
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
}

#[test]
fn a_scenario_with_the_retired_event_driven_key_is_served_as_its_migrated_form() {
    let migrated = healthy("serve-retired-event-driven");
    let text = migrated.to_json_string();
    let current = "\"fast_forward\": true,";
    assert!(text.contains(current), "{text}");
    // Scenarios written before the event-driven core became the only
    // loop: the old canonical form, and one that asked for the core
    // through `event_driven` alone.
    let old_forms = [
        text.replacen(
            current,
            "\"fast_forward\": true,\n    \"event_driven\": true,",
            1,
        ),
        text.replacen(
            current,
            "\"fast_forward\": false,\n    \"event_driven\": true,",
            1,
        ),
    ];
    for old in &old_forms {
        let parsed = Scenario::from_json_str(old).expect("the old form parses");
        assert_eq!(parsed, migrated, "{old}");
        assert_eq!(parsed.fingerprint(), migrated.fingerprint());
    }

    let server = start_server();
    let addr = server.local_addr().to_string();
    let mut results = Vec::new();
    for body in old_forms.iter().chain([&text]) {
        let (status, response) = post_run(&addr, body);
        assert_eq!(status, 200, "{response}");
        assert!(response.starts_with("{\"ok\":true"), "{response}");
        assert!(response.contains("\"status\":\"completed\""), "{response}");
        results.push(
            extract_result(&response)
                .expect("result payload")
                .to_string(),
        );
    }
    assert!(
        results.iter().all(|r| *r == results[0]),
        "one fingerprint, one result: {results:?}"
    );
    assert_eq!(metric(&addr, "memo_hits"), 2, "later forms hit the memo");
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
}

#[test]
fn a_replayed_run_shows_on_metrics_and_post_shutdown_closes_the_ledger() {
    let server = start_server();
    let addr = server.local_addr().to_string();

    // Two identical runs: the second is a memo hit with the same bytes.
    let body = healthy("serve-e2e-replay").to_json_string();
    let (status, first) = post_run(&addr, &body);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"memo_hit\":false"), "{first}");
    assert!(first.contains("\"status\":\"completed\""), "{first}");
    let (status, second) = post_run(&addr, &body);
    assert_eq!(status, 200, "{second}");
    assert!(second.contains("\"memo_hit\":true"), "{second}");
    assert_eq!(
        extract_result(&first).expect("first result"),
        extract_result(&second).expect("second result"),
        "memoized replay must be byte-identical"
    );

    // Metrics, counting the memo's one replay.
    let (status, text) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("scalagraph_serve_memo_hits 1\n"), "{text}");

    // Shutdown: acknowledged, then the daemon drains and the ledger closes.
    let (status, response) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200, "{response}");
    assert_eq!(response, "{\"ok\":true,\"control\":\"shutdown\"}");
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
    assert_eq!(
        counters.connections, 4,
        "two runs, one scrape and one shutdown; the wake-up connection is not counted"
    );
    assert_eq!(counters.submitted, 2, "two runs were admitted");
    assert_eq!(counters.completed, 2);
}

#[test]
fn a_first_line_that_is_not_an_http_request_line_is_refused_at_once() {
    let server = start_server();
    let addr = server.local_addr().to_string();

    // A client of a line protocol: it sends one line, then waits for an
    // answer with its connection open.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let sent = Instant::now();
    stream
        .write_all(b"{\"control\":\"ping\"}\n")
        .expect("write line");
    // Ends at the daemon's close, or with an error after 5 s of silence;
    // what arrived before either stays in `raw`.
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw:?}");
    assert!(raw.contains("\"kind\":\"bad_request\""), "{raw}");
    assert!(
        sent.elapsed() < Duration::from_secs(5),
        "{:?}",
        sent.elapsed()
    );

    let (status, body) = post_run(&addr, &healthy("serve-e2e-after-line").to_json_string());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"completed\""), "{body}");
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
    assert_eq!(counters.requests_error, 1, "{counters}");
}

#[test]
fn a_client_that_pauses_between_head_and_body_still_gets_its_reply() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    // Three times the daemon's 100 ms read timeout.
    let (status, body) = http_with_pause(
        &addr,
        "POST",
        "/run",
        &healthy("serve-e2e-slow-client").to_json_string(),
        Duration::from_millis(300),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"completed\""), "{body}");
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
}

#[test]
fn stop_wakes_a_listener_bound_to_every_interface() {
    let server = Server::start(ServeConfig {
        addr: "0.0.0.0:0".into(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind every interface");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    assert_eq!(metric(&addr, "connections"), 1);
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
    assert_eq!(
        counters.connections, 1,
        "the wake-up connection is not counted"
    );
}

#[test]
fn a_memo_hit_answers_with_its_own_requests_name() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    let mut results = Vec::new();
    for name in ["alpha", "beta", "alpha"] {
        let (status, body) = post_run(&addr, &healthy(name).to_json_string());
        assert_eq!(status, 200, "{body}");
        let result = extract_result(&body).expect("result payload").to_string();
        assert!(
            result.contains(&format!("\"name\":\"{name}\"")),
            "{name}: {result}"
        );
        results.push(result);
    }
    assert_eq!(results[0], results[2], "a replay is byte-identical");
    assert_eq!(
        results[0].replace("alpha", "beta"),
        results[1],
        "one behaviour, two names"
    );
    assert_eq!(
        metric(&addr, "memo_hits"),
        1,
        "only the second alpha replays"
    );
    assert_eq!(metric(&addr, "graph_cache_builds"), 1);
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
}

#[test]
fn oversized_families_are_refused_before_anything_is_built() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        graph_cache_bytes: 1 << 20,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    // (2^62 + 1) x 4 wraps to 4 vertices in unchecked arithmetic.
    let mut grid = healthy("serve-oversized-grid");
    grid.graph.family = Family::Grid {
        rows: (1 << 62) + 1,
        cols: 4,
    };
    let (status, body) = post_run(&addr, &grid.to_json_string());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"invalid_scenario\""), "{body}");

    // 2^63 edges, doubled by symmetrization, wrap to 0 bytes of edges; and
    // a graph that fits a host but not the daemon's 1 MiB budget.
    let mut wrapping = healthy("serve-oversized-uniform");
    wrapping.graph.family = Family::Uniform {
        vertices: 2,
        edges: 1 << 63,
        seed: 7,
    };
    wrapping.graph.symmetrize = true;
    let mut large = healthy("serve-over-budget");
    large.graph.family = Family::Uniform {
        vertices: 100_000,
        edges: 400_000,
        seed: 7,
    };
    for scenario in [wrapping, large] {
        let (status, body) = post_run(&addr, &scenario.to_json_string());
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"failed\""), "{body}");
        assert!(body.contains("over budget"), "{body}");
    }
    assert_eq!(metric(&addr, "graph_cache_builds"), 0);
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
    assert_eq!(counters.failed, 2);
}

#[test]
fn workers_busy_counts_the_running_job() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        default_deadline_ms: 2000,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    assert_eq!(metric(&addr, "workers_busy"), 0);

    // A wedge with the watchdog off runs until its deadline.
    let (tx, rx) = std::sync::mpsc::channel();
    let client = {
        let addr = addr.clone();
        let body = wedge("serve-busy-wedge").to_json_string();
        std::thread::spawn(move || {
            let _ = tx.send(post_run(&addr, &body));
        })
    };
    let waited = Instant::now();
    while metric(&addr, "workers_busy") == 0 {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the wedge never showed as running"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metric(&addr, "workers_busy"), 1);
    let (status, body) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the wedge is answered within 10 s");
    client.join().expect("client thread");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"deadline-exceeded\""), "{body}");
    assert_eq!(metric(&addr, "workers_busy"), 0);
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
}

fn http_frame(body: &str) -> Vec<u8> {
    format!(
        "POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One seeded mutation: a byte flip, a digit rewritten (which keeps the
/// JSON well formed, so the scenario's own checks see it), a truncation, a
/// splice from `donor`, or a repeated or bogus `Content-Length` header.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>, donor: &[u8]) {
    let at = |rng: &mut SplitMix64, len: usize| int(rng, 0..len + 1);
    let value = |rng: &mut SplitMix64| match int(rng, 0..3) {
        0 => ["-1", "+12", " 7 ", "1e3", "0x10", "", "x"][int(rng, 0..7)].to_string(),
        1 => int(rng, 0u64..2048).to_string(),
        _ => u128::MAX.to_string(),
    };
    let digits: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit())
        .collect();
    match int(rng, 0..6) {
        0 if !bytes.is_empty() => {
            let i = int(rng, 0..bytes.len());
            bytes[i] ^= int(rng, 1u8..255);
        }
        1 if !digits.is_empty() => {
            let i = digits[int(rng, 0..digits.len())];
            bytes[i] = b'0' + int(rng, 0u8..10);
        }
        2 => bytes.truncate(at(rng, bytes.len())),
        3 => {
            let (from, to) = (at(rng, donor.len()), at(rng, donor.len()));
            let i = at(rng, bytes.len());
            let j = int(rng, i..bytes.len() + 1);
            bytes.splice(i..j, donor[from.min(to)..from.max(to)].iter().copied());
        }
        4 => {
            // A second header, behind the request line.
            if let Some(i) = find(bytes, b"\r\n").map(|i| i + 2) {
                let header = format!("Content-Length: {}\r\n", value(rng));
                bytes.splice(i..i, header.into_bytes());
            }
        }
        5 => {
            // A bogus value in place of the declared one.
            let key = b"Content-Length: ";
            if let Some(i) = find(bytes, key).map(|i| i + key.len()) {
                let j = find(&bytes[i..], b"\r\n").map_or(bytes.len(), |p| i + p);
                bytes.splice(i..j, value(rng).into_bytes());
            }
        }
        _ => {}
    }
}

/// Hands out its bytes in pieces of at most `piece`, as a socket would.
struct Pieces<'a> {
    rest: &'a [u8],
    piece: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.piece).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

fn assert_typed(refusal: &ErrorReply) {
    let response = json::parse(&refusal.to_response()).expect("the refusal is JSON");
    assert!(!refusal.kind.is_empty() && !refusal.message.is_empty());
    assert_eq!(
        response.get("error").and_then(|e| e.get("kind")),
        Some(&json::Json::Str(refusal.kind.to_string()))
    );
}

/// What the daemon accepted has a canonical form that parses back to it.
fn assert_round_trips(scenario: &Scenario) {
    let canonical = scenario.to_json_string();
    let reparsed = Scenario::from_json_str(&canonical).expect("the canonical form parses");
    assert_eq!(&reparsed, scenario, "{canonical}");
}

/// The wire fuzz: corpus requests, damaged by up to three mutations and
/// read in short pieces, get a request or a typed refusal, never a panic.
/// `run` is the case runner the property goes through.
fn wire_fuzz(run: impl FnOnce(&dyn Fn(&mut SplitMix64))) {
    let texts: Vec<String> = common::corpus_files()
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    let frames: Vec<Vec<u8>> = texts.iter().map(|t| http_frame(t)).collect();
    run(&|rng| {
        let seed = int(rng, 0..frames.len());
        let donor = &frames[int(rng, 0..frames.len())];
        let mutations = int(rng, 0..4);
        let mut bytes = frames[seed].clone();
        for _ in 0..mutations {
            mutate(rng, &mut bytes, donor);
        }
        let max_body = [64, 1024, 1 << 20][int(rng, 0..3)];
        // A socket's short reads.
        let mut reader = Pieces {
            rest: &bytes,
            piece: int(rng, 1..2048),
        };
        match read_request(&mut reader, max_body) {
            Ok(request) => {
                assert!(request.body.len() <= max_body);
                if mutations == 0 {
                    assert_eq!(request.body, texts[seed], "an intact request parses");
                }
                // What `POST /run` does with the body.
                let scenario = json::parse(&request.body)
                    .map_err(ErrorReply::malformed_json)
                    .and_then(|v| parse_scenario_strict(&v));
                match scenario {
                    Ok(scenario) => assert_round_trips(&scenario),
                    Err(refusal) => {
                        assert!(mutations > 0, "an intact scenario is served");
                        assert_typed(&refusal);
                    }
                }
            }
            Err(HttpError::Malformed(message)) => {
                assert!(mutations > 0 && !message.is_empty(), "{message}");
            }
            Err(HttpError::Oversized { .. }) => {
                assert!(mutations > 0 || max_body < texts[seed].len());
            }
            Err(HttpError::Io(e)) => {
                // The peer closed before sending a byte.
                assert!(
                    bytes.is_empty(),
                    "an in-memory reader fails only empty: {e}"
                );
            }
        }
    });
}

#[test]
fn mutated_wire_input_gets_a_typed_answer_and_never_a_panic() {
    wire_fuzz(|property| common::check(1000, property));
}

/// The wire fuzz at the case count and seed of `common::sweep`.
#[test]
#[ignore = "long sweep; tier-1 runs 1,000 cases"]
fn mutated_wire_input_long_sweep() {
    wire_fuzz(|property| common::sweep(property));
}

/// The pagerank corpus scenario under `name`, with `edges` uniform edges.
fn pagerank_with_edges(name: &str, edges: u64) -> String {
    let (_, text) = common::corpus_files()
        .into_iter()
        .find(|(path, _)| path.ends_with("/converge-pagerank-dense.json"))
        .expect("the pagerank corpus scenario");
    text.replace("\"edges\": 900", &format!("\"edges\": {edges}"))
        .replace("\"converge-pagerank-dense\"", &format!("\"{name}\""))
}

/// 2^62 edges: the estimate saturates to `u64::MAX`, and the build cannot
/// reserve storage for them.
const OVERFLOWING_EDGES: u64 = 1 << 62;

#[test]
fn an_unholdable_graph_build_fails_typed_and_cannot_wedge_the_daemon() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        graph_cache_bytes: 0,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    for name in ["overflow-1", "overflow-2"] {
        let (status, body) = post_run(&addr, &pagerank_with_edges(name, OVERFLOWING_EDGES));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"failed\""), "{body}");
        assert!(body.contains("malformed scenario: cannot hold"), "{body}");
    }
    let (status, body) = post_run(&addr, &pagerank_with_edges("converge-pagerank-dense", 900));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"completed\""), "{body}");
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
    assert_eq!(counters.panics_contained, 0, "{counters}");
    assert_eq!((counters.failed, counters.completed), (2, 1), "{counters}");
}

#[test]
fn a_repeated_member_name_is_malformed_json() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    let text = healthy("first").to_json().compact();
    for repeated in [
        text.replacen(
            "\"name\":\"first\"",
            "\"name\":\"first\",\"name\":\"second\"",
            1,
        ),
        text.replacen("\"pes\":32", "\"pes\":32,\"pes\":64", 1),
    ] {
        let (status, body) = post_run(&addr, &repeated);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"kind\":\"malformed_json\""), "{body}");
    }
    assert_eq!(metric(&addr, "jobs_submitted"), 0);
    server.stop();
    assert!(join_within_10s(server).balanced());
}

#[test]
fn an_unknown_key_inside_a_scenario_member_is_a_bad_request() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    let mut faulty = wedge("nested-keys");
    faulty.expect = Expectation::Converge;
    let text = faulty.to_json().compact();
    // One member of each nested object, preceded by a misspelt key.
    for member in [
        "\"family\":",
        "\"kind\":\"bfs\"",
        "\"pes\":",
        "\"preset\":",
        "\"tile\":",
        "\"recording\":",
        "\"verdict\":",
    ] {
        assert!(text.contains(member), "{member}");
        let typo = text.replacen(member, &format!("\"tpyo\":1,{member}"), 1);
        let (status, body) = post_run(&addr, &typo);
        assert_eq!(status, 400, "{member}: {body}");
        assert!(body.contains("\"kind\":\"bad_request\""), "{body}");
        assert!(body.contains("key `tpyo`"), "{body}");
    }
    // The misspelt watchdog key is refused rather than run on the default.
    let misspelt = text.replacen("watchdog_stall_cycles", "watchdog_stall_cycle", 1);
    let (status, body) = post_run(&addr, &misspelt);
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("unknown config key `watchdog_stall_cycle`"),
        "{body}"
    );
    // A top-level key keeps its own kind.
    let top = text.replacen('{', "{\"tpyo\":1,", 1);
    let (status, body) = post_run(&addr, &top);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"unknown_field\""), "{body}");
    assert_eq!(metric(&addr, "jobs_submitted"), 0);
    server.stop();
    assert!(join_within_10s(server).balanced());
}

#[test]
fn an_empty_fault_window_is_an_invalid_scenario() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    let mut empty = wedge("empty-window");
    empty.faults[0] = empty.faults[0].window(10, 5);
    let (status, body) = post_run(&addr, &empty.to_json_string());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"invalid_scenario\""), "{body}");
    assert!(body.contains("[10, 5) is empty"), "{body}");
    assert_eq!(metric(&addr, "jobs_submitted"), 0);
    server.stop();
    assert!(join_within_10s(server).balanced());
}

#[test]
fn pe_queues_past_the_engine_bound_are_a_typed_400_and_the_daemon_keeps_serving() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    // 2^40 registers per port would ask the engine for terabytes.
    let mut huge = healthy("huge-registers");
    huge.config.aggregation_registers = 1 << 40;
    let (status, body) = post_run(&addr, &huge.to_json_string());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"invalid_scenario\""), "{body}");
    assert!(
        body.contains("`aggregation_registers` 1099511627776"),
        "{body}"
    );
    assert_eq!(metric(&addr, "jobs_submitted"), 0);
    let (status, body) = post_run(&addr, &healthy("after-huge").to_json_string());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"completed\""), "{body}");
    server.stop();
    assert!(join_within_10s(server).balanced());
}

#[test]
fn a_run_drained_by_shutdown_answers_503() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        default_deadline_ms: 0,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let spawn_run = |body: String| {
        let addr = addr.clone();
        std::thread::spawn(move || post_run(&addr, &body))
    };
    let wait_for = |name: &str, value: u64| {
        let waited = Instant::now();
        while metric(&addr, name) != value {
            assert!(waited.elapsed() < Duration::from_secs(10), "{name}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    // The wedge holds the only worker; the next run waits in the queue.
    let running = spawn_run(wedge("drain-wedge").to_json_string());
    wait_for("workers_busy", 1);
    let queued = spawn_run(healthy("drain-queued").to_json_string());
    wait_for("queue_depth", 1);
    server.stop();
    let counters = join_within_10s(server);
    let (status, body) = queued.join().expect("queued client");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"kind\":\"shutting_down\""), "{body}");
    let (status, body) = running.join().expect("running client");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"cancelled\""), "{body}");
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
    assert_eq!(counters.requests_error, 1, "{counters}");
}

#[test]
fn the_default_byte_budget_refuses_an_overflowing_graph_unbuilt() {
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let (status, body) = post_run(&addr, &pagerank_with_edges("overflow", OVERFLOWING_EDGES));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"failed\""), "{body}");
    assert!(body.contains("over budget"), "{body}");
    assert_eq!(metric(&addr, "graph_cache_builds"), 0);
    server.stop();
    let counters = join_within_10s(server);
    assert!(counters.balanced(), "final ledger unbalanced: {counters}");
    assert_eq!(counters.panics_contained, 0, "{counters}");
}
