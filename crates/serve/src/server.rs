//! The daemon: a TCP listener and a result memo in front of the runtime's
//! [`Executor`].
//!
//! One port speaks both transports. The first bytes of a connection are
//! sniffed: an HTTP method verb (`POST `, `GET `, ...) selects the
//! one-request HTTP/1.1 handler; anything else (in practice a `{`) selects
//! the line-delimited JSON session, where each line is one request and each
//! response is one line. Every connection gets a thread — connection counts
//! here are bounded by the admission queue behind them, not by the
//! listener.
//!
//! Shutdown is cooperative and total: a `shutdown` control request (either
//! transport) or [`Server::stop`] flips one flag and wakes the accept
//! thread, which blocks in `accept()`, with a connection of its own; run
//! requests are refused from then on, memo hits included; the accept loop
//! closes, the executor drains its queue into typed refusals and cancels
//! in-flight simulations through their
//! [`CancelToken`](scalagraph::CancelToken)s, connection threads flush
//! their last responses, and [`Server::join`] returns the final counters —
//! whose ledger must balance, exactly as in the batch runtime.

use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scalagraph_conformance::json::{parse, Json};
use scalagraph_conformance::Scenario;
use scalagraph_runtime::{
    Executor, GraphCache, GraphCacheStats, JobSpec, JobStatus, Priority, RuntimeConfig,
    DEFAULT_GRAPH_CACHE_BYTES,
};
use scalagraph_telemetry::{ServiceCounters, ServiceMetrics};

use crate::http;
use crate::memo::{memo_key, Memo, MemoCache, MemoStats};
use crate::protocol::{
    control_response, ok_response, parse_jsonl_request, parse_scenario_strict, result_json,
    Control, ErrorReply, Request,
};

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Default per-job wall-clock deadline in milliseconds (applied when a
    /// request carries none); 0 disables the default.
    pub default_deadline_ms: u64,
    /// Request body / line ceiling in bytes.
    pub max_body_bytes: usize,
    /// Graph cache capacity (distinct graph specs).
    pub graph_cache_capacity: usize,
    /// Graph cache resident-byte budget, 2 GiB by default; 0 disables the
    /// byte bound (the entry-count capacity still applies). A job whose
    /// estimated graph exceeds it is refused before anything is built.
    pub graph_cache_bytes: u64,
    /// Memo capacity (distinct results).
    pub memo_capacity: usize,
    /// Emit a metrics summary to stderr on this cadence.
    pub summary_every: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 256,
            default_deadline_ms: 10_000,
            max_body_bytes: 1 << 20,
            graph_cache_capacity: 64,
            graph_cache_bytes: DEFAULT_GRAPH_CACHE_BYTES,
            memo_capacity: 1024,
            summary_every: None,
        }
    }
}

/// The metrics text rendering served by `GET /metrics` and the `metrics`
/// control verb: one `name value` pair per line, stable names.
pub fn render_metrics_text(
    counters: &ServiceCounters,
    graphs: &GraphCacheStats,
    memo: &MemoStats,
) -> String {
    let pairs: [(&str, u64); 27] = [
        ("connections", counters.connections),
        ("requests_ok", counters.requests_ok),
        ("requests_error", counters.requests_error),
        ("jobs_submitted", counters.submitted),
        ("jobs_completed", counters.completed),
        ("jobs_failed", counters.failed),
        ("jobs_cancelled", counters.cancelled),
        ("jobs_rejected", counters.rejected),
        ("deadline_kills", counters.deadline_kills),
        ("panics_contained", counters.panics_contained),
        ("queue_depth", counters.queue_depth),
        ("queue_peak", counters.queue_peak),
        ("graph_cache_hits", graphs.hits),
        ("graph_cache_misses", graphs.misses),
        ("graph_cache_builds", graphs.builds),
        ("graph_cache_evictions", graphs.evictions),
        ("graph_cache_resident_bytes", graphs.resident_bytes),
        ("graph_cache_byte_budget", graphs.byte_budget),
        ("memo_hits", memo.hits),
        ("memo_misses", memo.misses),
        ("memo_inserted", memo.inserted),
        ("memo_evictions", memo.evictions),
        ("memo_abandoned", memo.abandoned),
        ("bytes_in", counters.bytes_in),
        ("bytes_out", counters.bytes_out),
        ("ledger_balanced", u64::from(counters.balanced())),
        ("workers_busy", counters.workers_busy),
    ];
    let mut out = String::new();
    for (name, value) in pairs {
        out.push_str("scalagraph_serve_");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

/// How long a connection read blocks before its handler re-checks the stop
/// flag.
const READ_TIMEOUT: Duration = Duration::from_millis(100);
/// How long a wake-up connect may take, and how long [`Server::join`] waits
/// for the accept thread before waking it again.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

struct Shared {
    metrics: Arc<ServiceMetrics>,
    memo: MemoCache,
    executor: Executor,
    /// Deadline of a run request that names none.
    default_deadline: Option<Duration>,
    stop: AtomicBool,
    /// Where a wake-up connection reaches the listener.
    wake_addr: SocketAddr,
    max_body_bytes: usize,
}

impl Shared {
    /// Flips the stop flag, then wakes the accept thread out of `accept()`.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.wake_listener();
    }

    /// Opens, and at once drops, one connection to the listener; the accept
    /// loop checks the stop flag after every accept. A failed connect is
    /// left to [`Server::join`], which wakes the listener until its thread
    /// has exited.
    fn wake_listener(&self) {
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }

    fn reader<'a>(&'a self, stream: &'a TcpStream) -> ConnReader<'a> {
        ConnReader {
            stream,
            stop: &self.stop,
        }
    }

    fn metrics_text(&self) -> String {
        render_metrics_text(
            &self.metrics.snapshot(),
            &self.executor.graph_cache().stats(),
            &self.memo.stats(),
        )
    }

    /// The stderr summary: the counters, then the caches' hits.
    fn summary(&self) -> String {
        let (graphs, memo) = (self.executor.graph_cache().stats(), self.memo.stats());
        format!(
            "{}\ncaches: graph {}/{} hit, memo {}/{} hit",
            self.metrics.snapshot(),
            graphs.hits,
            graphs.hits + graphs.misses,
            memo.hits,
            memo.hits + memo.misses
        )
    }

    /// Handles one parsed request and returns the single-line response
    /// body, or the typed refusal. Blocking: a `run` request waits for its
    /// terminal reply.
    fn answer(&self, request: Request) -> Result<String, ErrorReply> {
        match request {
            Request::Control(Control::Ping) => Ok(control_response("pong", None)),
            Request::Control(Control::Metrics) => Ok(control_response(
                "metrics",
                Some(("text", Json::Str(self.metrics_text()))),
            )),
            Request::Control(Control::Shutdown) => {
                self.request_stop();
                Ok(control_response("shutdown", None))
            }
            Request::Run {
                scenario,
                priority,
                deadline_ms,
            } => self.run(*scenario, priority, deadline_ms),
        }
    }

    /// Runs one scenario to its response body. The memo answers first, so
    /// a completed identical request (same behaviour, same name) is
    /// replayed without passing admission; a replay still counts as one
    /// submitted and one completed job. Once the daemon is stopping every
    /// run is refused, memo hits included.
    fn run(
        &self,
        scenario: Scenario,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> Result<String, ErrorReply> {
        let arrived = Instant::now();
        if self.stop.load(Ordering::Acquire) {
            self.metrics.job_submitted();
            self.metrics.job_rejected();
            return Err(ErrorReply::shutting_down());
        }
        let fingerprint = scenario.fingerprint();
        // `begin` blocks while an identical request is in flight and
        // returns its published result.
        let flight = match self.memo.begin(memo_key(fingerprint, &scenario.name)) {
            Memo::Hit(result) => {
                self.metrics.job_submitted();
                self.metrics.job_completed();
                let wall_ms = arrived.elapsed().as_millis() as u64;
                return Ok(ok_response(&result, true, wall_ms));
            }
            Memo::Miss(flight) => flight,
        };
        let mut spec = JobSpec::new(scenario).with_priority(priority);
        spec.deadline = match deadline_ms {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => self.default_deadline,
        };
        let (tx, rx) = channel();
        self.executor.submit(spec, tx)?;
        // Contained panics still reply, so a lost reply is a runtime bug,
        // answered as a typed error rather than a dropped connection.
        let outcome = rx
            .recv()
            .map_err(|_| ErrorReply::internal("job reply channel lost"))?;
        let rendered = result_json(&outcome.name, fingerprint, &outcome.status);
        let result = match outcome.status {
            // Only a completed result is a pure function of the request.
            JobStatus::Completed { .. } => flight.publish(rendered),
            // Drained from the queue unrun: the daemon is stopping.
            JobStatus::Cancelled { at_cycle: None } => return Err(ErrorReply::shutting_down()),
            // Dropping the flight abandons it; a waiter runs the job anew.
            _ => Arc::new(rendered),
        };
        Ok(ok_response(&result, false, outcome.wall_ms))
    }

    /// Counts one answered request, then renders its body.
    fn respond(&self, answer: Result<String, ErrorReply>) -> String {
        match answer {
            Ok(body) => {
                self.metrics.request_ok();
                body
            }
            Err(refusal) => {
                self.metrics.request_error();
                refusal.to_response()
            }
        }
    }
}

/// A connection's read side. A read waits out any number of
/// [`READ_TIMEOUT`]s while the daemon runs, so a slow peer is waited for;
/// once the daemon is stopping, a timeout ends the read with its error.
struct ConnReader<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) && !self.stop.load(Ordering::Acquire) => {}
                done => return done,
            }
        }
    }
}

enum LineRead {
    Line(Vec<u8>),
    /// The peer closed, the socket failed, or the daemon is stopping.
    End,
    Oversized,
}

/// Reads one `\n`-terminated line, refusing lines over `cap` bytes.
/// `pending` carries bytes already read (sniffing, previous line
/// overshoot) across calls.
fn read_line(reader: &mut ConnReader<'_>, pending: &mut Vec<u8>, cap: usize) -> LineRead {
    loop {
        if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = pending.drain(..=pos).collect();
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return LineRead::Line(line);
        }
        if pending.len() > cap {
            return LineRead::Oversized;
        }
        // A session ends at a stop even while its peer keeps sending.
        if reader.stop.load(Ordering::Acquire) {
            return LineRead::End;
        }
        let mut chunk = [0u8; 4096];
        match reader.read(&mut chunk) {
            Ok(0) => {
                return if pending.iter().any(|b| !b.is_ascii_whitespace()) {
                    // A final unterminated line still counts as a request.
                    LineRead::Line(std::mem::take(pending))
                } else {
                    LineRead::End
                };
            }
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(_) => return LineRead::End,
        }
    }
}

/// One jsonl session: every line in, one response line out.
fn serve_jsonl(shared: &Shared, mut stream: TcpStream, mut pending: Vec<u8>) {
    use std::io::Write as _;
    let write_line = |stream: &mut TcpStream, answer: Result<String, ErrorReply>| -> bool {
        let framed = format!("{}\n", shared.respond(answer));
        shared.metrics.add_bytes_out(framed.len() as u64);
        stream.write_all(framed.as_bytes()).is_ok() && stream.flush().is_ok()
    };
    loop {
        match read_line(
            &mut shared.reader(&stream),
            &mut pending,
            shared.max_body_bytes,
        ) {
            LineRead::End => return,
            LineRead::Oversized => {
                // Framing is lost past an oversized line: answer, then close.
                let _ = write_line(
                    &mut stream,
                    Err(ErrorReply::oversized(shared.max_body_bytes)),
                );
                return;
            }
            LineRead::Line(raw) => {
                if raw.iter().all(|b| b.is_ascii_whitespace()) {
                    continue;
                }
                shared.metrics.add_bytes_in(raw.len() as u64);
                let request = parse_jsonl_request(&String::from_utf8_lossy(&raw));
                let is_shutdown = matches!(request, Ok(Request::Control(Control::Shutdown)));
                let answer = request.and_then(|request| shared.answer(request));
                if !write_line(&mut stream, answer) || is_shutdown {
                    return;
                }
            }
        }
    }
}

/// One HTTP exchange: route, answer, close.
fn serve_http(shared: &Shared, mut stream: TcpStream, pending: Vec<u8>) {
    let mut reader = shared.reader(&stream);
    let request = match http::read_request(&pending, &mut reader, shared.max_body_bytes) {
        Ok(request) => request,
        Err(http::HttpError::Oversized { unread }) => {
            respond_http(
                shared,
                &mut stream,
                Err(ErrorReply::oversized(shared.max_body_bytes)),
            );
            http::drain(&mut stream, unread);
            return;
        }
        Err(http::HttpError::Malformed(message)) => {
            respond_http(shared, &mut stream, Err(ErrorReply::bad_request(message)));
            return;
        }
        Err(http::HttpError::Io(_)) => return,
    };
    shared.metrics.add_bytes_in(request.body.len() as u64);
    let answer = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/run") => parse(&request.body)
            .map_err(ErrorReply::malformed_json)
            .and_then(|v| parse_scenario_strict(&v))
            .and_then(|scenario| {
                shared.answer(Request::Run {
                    scenario: Box::new(scenario),
                    priority: Priority::Normal,
                    deadline_ms: None,
                })
            }),
        ("GET", "/metrics") => {
            let text = shared.metrics_text();
            shared.metrics.request_ok();
            let written =
                http::write_response(&mut stream, 200, "OK", "text/plain; charset=utf-8", &text);
            if let Ok(n) = written {
                shared.metrics.add_bytes_out(n);
            }
            return;
        }
        ("POST", "/shutdown") => shared.answer(Request::Control(Control::Shutdown)),
        (method, path @ ("/run" | "/metrics" | "/shutdown")) => {
            Err(ErrorReply::method_not_allowed(method, path))
        }
        (_, path) => Err(ErrorReply::not_found(path)),
    };
    respond_http(shared, &mut stream, answer);
}

/// Counts an answer and writes it with the status line its outcome maps
/// to: 200, or the refusal's own [`ErrorReply::http_status`].
fn respond_http(shared: &Shared, stream: &mut TcpStream, answer: Result<String, ErrorReply>) {
    let (status, reason) = match &answer {
        Ok(_) => (200, "OK"),
        Err(refusal) => refusal.http_status(),
    };
    let body = shared.respond(answer);
    if let Ok(n) = http::write_response(stream, status, reason, "application/json", &body) {
        shared.metrics.add_bytes_out(n);
    }
}

/// Sniffs the transport and dispatches the connection.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    // Read until the first bytes disambiguate the transport.
    let mut pending: Vec<u8> = Vec::new();
    while pending.len() < 8 && !pending.contains(&b'\n') {
        let mut chunk = [0u8; 1024];
        match shared.reader(&stream).read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
    }
    let is_http = [
        &b"GET "[..],
        b"POST ",
        b"PUT ",
        b"HEAD ",
        b"DELETE ",
        b"PATCH ",
    ]
    .iter()
    .any(|verb| pending.starts_with(verb));
    if is_http {
        serve_http(shared, stream, pending);
    } else if !pending.is_empty() {
        serve_jsonl(shared, stream, pending);
    }
}

/// A running daemon. Start with [`Server::start`], end with a `shutdown`
/// request or [`Server::stop`], then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
    /// Disconnects when the accept thread exits.
    accept_exited: Receiver<()>,
    summary: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds the listener and spawns the accept loop and the executor.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let metrics = Arc::new(ServiceMetrics::new());
        let executor = Executor::start(
            RuntimeConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
                ..RuntimeConfig::default()
            },
            Arc::clone(&metrics),
            Arc::new(GraphCache::with_byte_budget(
                config.graph_cache_capacity,
                config.graph_cache_bytes,
            )),
        );
        let shared = Arc::new(Shared {
            metrics,
            memo: MemoCache::new(config.memo_capacity),
            executor,
            default_deadline: (config.default_deadline_ms > 0)
                .then(|| Duration::from_millis(config.default_deadline_ms)),
            stop: AtomicBool::new(false),
            wake_addr: wake_addr(local_addr),
            max_body_bytes: config.max_body_bytes,
        });

        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (exited, accept_exited) = channel::<()>();
        let accept = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                // A stop's wake-up connection, or a client that raced the
                // stop, is dropped here uncounted. Dropping `exited` tells
                // `join` the loop is gone.
                if shared.stop.load(Ordering::Acquire) {
                    drop(exited);
                    return;
                }
                match accepted {
                    Ok((stream, _)) => {
                        shared.metrics.conn_opened();
                        let shared = Arc::clone(&shared);
                        let handle = std::thread::spawn(move || serve_connection(&shared, stream));
                        if let Ok(mut conns) = connections.lock() {
                            conns.push(handle);
                            // Opportunistically reap finished handlers so a
                            // long-lived daemon doesn't accumulate them.
                            let mut alive = Vec::new();
                            for h in conns.drain(..) {
                                if h.is_finished() {
                                    let _ = h.join();
                                } else {
                                    alive.push(h);
                                }
                            }
                            *conns = alive;
                        }
                    }
                    // A failed accept (the peer reset, descriptors ran out):
                    // back off instead of spinning on it.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            })
        };

        // Periodic stderr summary, built from short sleeps so shutdown
        // stays prompt.
        let summary = config.summary_every.map(|every| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let step = Duration::from_millis(100);
                let mut elapsed = Duration::ZERO;
                while !shared.stop.load(Ordering::Acquire) {
                    std::thread::sleep(step);
                    elapsed += step;
                    if elapsed >= every {
                        elapsed = Duration::ZERO;
                        eprintln!("[scalagraph-serve] {}", shared.summary());
                    }
                }
            })
        });

        Ok(Server {
            shared,
            local_addr,
            accept,
            accept_exited,
            summary,
            connections,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Renders the daemon's stderr summary (counters and cache hits) on
    /// each call, also after [`Server::join`].
    pub fn summarizer(&self) -> impl Fn() -> String {
        let shared = Arc::clone(&self.shared);
        move || shared.summary()
    }

    /// Whether a shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Requests a graceful shutdown (same effect as a `shutdown` control
    /// request over either transport).
    pub fn stop(&self) {
        self.shared.request_stop();
    }

    /// Blocks until a shutdown is requested, then drains everything in
    /// dependency order and returns the final counters: accept loop first
    /// (no new connections), then the executor (queued jobs refused,
    /// in-flight jobs cancelled — which unblocks connection handlers
    /// waiting on replies), then the connection threads.
    pub fn join(self) -> ServiceCounters {
        // Every stop path wakes the accept thread once; should that connect
        // have failed, wake it again until the thread has exited.
        while let Err(RecvTimeoutError::Timeout) = self.accept_exited.recv_timeout(WAKE_TIMEOUT) {
            if self.stopping() {
                self.shared.wake_listener();
            }
        }
        let _ = self.accept.join();
        // Executor teardown releases every connection handler blocked on a
        // job reply, so it must run before joining connection threads.
        self.shared.executor.shutdown();
        let handles: Vec<JoinHandle<()>> = match self.connections.lock() {
            Ok(mut conns) => conns.drain(..).collect(),
            Err(poisoned) => poisoned.into_inner().drain(..).collect(),
        };
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(summary) = self.summary {
            let _ = summary.join();
        }
        self.shared.metrics.snapshot()
    }
}

/// The address a wake-up connection dials: the listener's own, or loopback
/// when it is bound to every interface.
fn wake_addr(mut local: SocketAddr) -> SocketAddr {
    match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => local.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => local.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::extract_result;
    use crate::test_support::healthy_scenario;
    use scalagraph_conformance::scenario::Family;

    fn start(workers: usize) -> Server {
        Server::start(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port")
    }

    /// One run request through the daemon's answer path: the result
    /// bytes, and whether the memo replayed them.
    fn run(shared: &Shared, scenario: Scenario, deadline_ms: Option<u64>) -> (String, bool) {
        let response = shared
            .answer(Request::Run {
                scenario: Box::new(scenario),
                priority: Priority::Normal,
                deadline_ms,
            })
            .unwrap_or_else(|refusal| panic!("refused: {refusal:?}"));
        let result = extract_result(&response)
            .unwrap_or_else(|| panic!("not a result: {response}"))
            .to_string();
        (
            result,
            response.starts_with("{\"ok\":true,\"memo_hit\":true"),
        )
    }

    fn builds(server: &Server) -> u64 {
        server.shared.executor.graph_cache().stats().builds
    }

    #[test]
    fn identical_concurrent_requests_share_one_simulation() {
        let server = start(4);
        let shared = &*server.shared;
        let replies: Vec<(String, bool)> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| run(shared, healthy_scenario("same"), None)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        assert!(replies.iter().all(|(result, _)| *result == replies[0].0));
        assert!(replies[0].0.contains("\"status\":\"completed\""));
        let memo_hits = replies.iter().filter(|(_, hit)| *hit).count();
        assert_eq!(memo_hits, 7, "one flight, seven memo replays");
        assert_eq!(builds(&server), 1);
        let memo = server.shared.memo.stats();
        server.stop();
        let counters = server.join();
        assert!(counters.balanced(), "{counters}");
        assert_eq!(counters.submitted, 8);
        assert_eq!(counters.completed, 8);
        assert_eq!(memo.hits, 7);
        assert_eq!(memo.misses, 1);
    }

    #[test]
    fn mutation_schedules_memoize_per_schedule_but_share_the_base_graph() {
        use scalagraph_conformance::MutationSpec;
        let with_schedule = |seed: u64| {
            let mut s = healthy_scenario("dynamic-memo");
            s.mutations = Some(MutationSpec {
                batches: 2,
                insert_edges: 4,
                remove_edges: 4,
                add_vertices: 0,
                isolate_vertices: 0,
                seed,
            });
            s
        };
        let server = start(4);
        // Identical scenario + schedule: second run replays the memo.
        let (first, hit_first) = run(&server.shared, with_schedule(11), None);
        let (replay, hit_replay) = run(&server.shared, with_schedule(11), None);
        assert!(!hit_first);
        assert!(hit_replay, "identical schedule must memo-hit");
        assert_eq!(first, replay, "replayed bytes are identical");
        // Same base graph, different schedule: distinct fingerprint, so a
        // fresh flight — a stale replay here would be unsound.
        let (other, hit_other) = run(&server.shared, with_schedule(12), None);
        assert!(!hit_other, "a different schedule must not memo-hit");
        assert_ne!(first, other, "different schedule, different result");
        // All three runs resolved one shared base CSR from the cache; the
        // schedule is applied per attempt, never to the cached graph.
        assert_eq!(builds(&server), 1);
        let memo = server.shared.memo.stats();
        server.stop();
        let counters = server.join();
        assert!(counters.balanced(), "{counters}");
        assert_eq!(memo.hits, 1);
        assert_eq!(memo.misses, 2);
    }

    #[test]
    fn a_deadline_kill_is_not_memoized_but_a_completion_is() {
        let server = start(2);
        let mut s = healthy_scenario("dl");
        s.graph.family = Family::Uniform {
            vertices: 2048,
            edges: 16_384,
            seed: 5,
        };
        // First: an impossible 1 ms deadline, which usually kills the run.
        let (first, first_hit) = run(&server.shared, s.clone(), Some(1));
        assert!(!first_hit);
        // Timing decides whether the tiny deadline actually fired; either
        // way the second, undeadlined run must simulate (no memo of a
        // killed result) unless the first genuinely completed.
        let (second, second_hit) = run(&server.shared, s, Some(0));
        assert!(second.contains("\"status\":\"completed\""), "{second}");
        if first.contains("\"status\":\"completed\"") {
            assert!(second_hit, "a completed first run memoizes");
        } else {
            assert!(!second_hit, "a killed first run must not memoize");
        }
        server.stop();
        assert!(server.join().balanced());
    }

    #[test]
    fn a_stopping_daemon_refuses_runs_even_when_the_memo_would_hit() {
        let server = start(1);
        let (result, _) = run(&server.shared, healthy_scenario("late"), None);
        assert!(result.contains("\"status\":\"completed\""), "{result}");
        server.stop();
        let refusal = server.shared.answer(Request::Run {
            scenario: Box::new(healthy_scenario("late")),
            priority: Priority::Normal,
            deadline_ms: None,
        });
        assert_eq!(refusal, Err(ErrorReply::shutting_down()));
        let memo = server.shared.memo.stats();
        let counters = server.join();
        assert!(counters.balanced(), "{counters}");
        assert_eq!((counters.submitted, counters.rejected), (2, 1));
        assert_eq!(memo.hits, 0);
    }

    #[test]
    fn a_wildcard_listener_is_woken_over_loopback() {
        let wake = |addr: &str| wake_addr(addr.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:7451"), "127.0.0.1:7451");
        assert_eq!(wake("[::]:7451"), "[::1]:7451");
        assert_eq!(wake("127.0.0.1:7451"), "127.0.0.1:7451");
        assert_eq!(wake("10.1.2.3:7451"), "10.1.2.3:7451");
    }
}
