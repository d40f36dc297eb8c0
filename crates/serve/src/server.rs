//! The daemon: a TCP listener and a result memo in front of the runtime's
//! [`Executor`].
//!
//! The port speaks HTTP/1.1 only ([`http`]): every connection gets a
//! thread and carries one request; one the OS refuses a thread is closed
//! unanswered, and the listener keeps accepting. Runs are bounded by the admission queue
//! behind them; a connection still sending its request holds its thread
//! until the request arrives, the peer closes or the daemon stops, but for
//! no more than 10 s from accept (`REQUEST_DEADLINE`): past that, the
//! connection is closed unanswered. The same deadline ends the drain of a
//! body refused as too large.
//!
//! Shutdown is cooperative and total: `POST /shutdown` or [`Server::stop`]
//! flips one flag and wakes the accept thread, which blocks in `accept()`,
//! with a connection of its own; run requests are refused from then on,
//! memo hits included; the accept loop closes, the executor drains its
//! queue into typed refusals and cancels in-flight simulations through
//! their [`CancelToken`](scalagraph::CancelToken)s, connection threads
//! flush their last responses, and [`Server::join`] returns the final
//! counters — whose ledger must balance, exactly as in the batch runtime.

use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};

use scalagraph_conformance::json::parse;
use scalagraph_conformance::Scenario;
use scalagraph_runtime::{
    Executor, GraphCache, GraphCacheStats, JobSpec, JobStatus, RuntimeConfig,
    DEFAULT_GRAPH_CACHE_BYTES,
};
use scalagraph_telemetry::{ServiceCounters, ServiceMetrics};

use crate::http;
use crate::memo::{memo_key, Memo, MemoCache, MemoStats};
use crate::protocol::{ok_response, parse_scenario_strict, result_json, ErrorReply, SHUTDOWN_ACK};

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Wall-clock deadline of every run's simulation in milliseconds, the
    /// executor's [`RuntimeConfig::default_deadline`]; 0 for none.
    pub default_deadline_ms: u64,
    /// Request body ceiling in bytes.
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

/// The metrics text rendering served by `GET /metrics`: one `name value`
/// pair per line, stable names.
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
/// flag and the request deadline.
const READ_TIMEOUT: Duration = Duration::from_millis(100);
/// How long a connection may take, from accept, to send its whole request.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
/// How long a wake-up connect may take, and how long [`Server::join`] waits
/// for the accept thread before waking it again.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

struct Shared {
    metrics: Arc<ServiceMetrics>,
    memo: MemoCache,
    executor: Executor,
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

    /// Runs one scenario to its response body. The memo answers first, so
    /// a completed identical request (same behaviour, same name) is
    /// replayed without passing admission; a replay still counts as one
    /// submitted and one completed job. Once the daemon is stopping every
    /// run is refused, memo hits included.
    fn run(&self, scenario: Scenario) -> Result<String, ErrorReply> {
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
        let (tx, rx) = channel();
        self.executor.submit(JobSpec::new(scenario), tx)?;
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
}

/// A connection's read side. A read waits out any number of
/// [`READ_TIMEOUT`]s while the daemon runs, so a slow peer is waited for,
/// but not past the deadline: from then on every read fails with
/// `TimedOut`. Once the daemon is stopping, a timeout ends the read with
/// its error.
struct ConnReader<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    deadline: Instant,
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if Instant::now() >= self.deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request deadline passed",
                ));
            }
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

/// One HTTP exchange: read, route, answer, close. Every read ends by
/// `deadline`, the drain after a 413 included: a request not read by then
/// fails as an I/O error, and the connection closes unanswered.
fn serve_connection(shared: &Shared, stream: TcpStream, deadline: Instant) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = ConnReader {
        stream: &stream,
        stop: &shared.stop,
        deadline,
    };
    let request = match http::read_request(&mut reader, shared.max_body_bytes) {
        Ok(request) => request,
        Err(http::HttpError::Oversized { unread }) => {
            respond(
                shared,
                &stream,
                Err(ErrorReply::oversized(shared.max_body_bytes)),
            );
            http::drain(&mut reader, unread);
            return;
        }
        Err(http::HttpError::Malformed(message)) => {
            respond(shared, &stream, Err(ErrorReply::bad_request(message)));
            return;
        }
        Err(http::HttpError::Io(_)) => return,
    };
    shared.metrics.add_bytes_in(request.body.len() as u64);
    let answer = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/run") => parse(&request.body)
            .map_err(ErrorReply::malformed_json)
            .and_then(|v| parse_scenario_strict(&v))
            .and_then(|scenario| shared.run(scenario)),
        ("GET", "/metrics") => {
            let text = shared.metrics_text();
            shared.metrics.request_ok();
            let written =
                http::write_response(&mut &stream, 200, "OK", "text/plain; charset=utf-8", &text);
            if let Ok(n) = written {
                shared.metrics.add_bytes_out(n);
            }
            return;
        }
        ("POST", "/shutdown") => {
            shared.request_stop();
            Ok(SHUTDOWN_ACK.to_string())
        }
        (method, path @ ("/run" | "/metrics" | "/shutdown")) => {
            Err(ErrorReply::method_not_allowed(method, path))
        }
        (_, path) => Err(ErrorReply::not_found(path)),
    };
    respond(shared, &stream, answer);
}

/// Counts an answer and writes it with the status line its outcome maps
/// to: 200, or the refusal's own [`ErrorReply::http_status`].
fn respond(shared: &Shared, mut stream: &TcpStream, answer: Result<String, ErrorReply>) {
    let (status, reason, body) = match answer {
        Ok(body) => {
            shared.metrics.request_ok();
            (200, "OK", body)
        }
        Err(refusal) => {
            shared.metrics.request_error();
            let (status, reason) = refusal.http_status();
            (status, reason, refusal.to_response())
        }
    };
    if let Ok(n) = http::write_response(&mut stream, status, reason, "application/json", &body) {
        shared.metrics.add_bytes_out(n);
    }
}

/// A running daemon. Start with [`Server::start`], end with
/// `POST /shutdown` or [`Server::stop`], then [`Server::join`].
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
    /// Binds the listener and spawns the accept loop, the executor and,
    /// with [`summary_every`](ServeConfig::summary_every), the summary
    /// thread.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim, or the OS refusing the accept or the
    /// summary thread. A refused thread leaves nothing running.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        Self::start_with(config, |_| Builder::new(), Builder::new)
    }

    /// [`Server::start`], building the `n`-th connection's handler thread
    /// with `handler_thread(n)` and the summary thread with
    /// `summary_thread()`.
    fn start_with(
        config: ServeConfig,
        handler_thread: fn(u64) -> Builder,
        summary_thread: fn() -> Builder,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let metrics = Arc::new(ServiceMetrics::new());
        let executor = Executor::start(
            RuntimeConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
                default_deadline: (config.default_deadline_ms > 0)
                    .then(|| Duration::from_millis(config.default_deadline_ms)),
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
            stop: AtomicBool::new(false),
            wake_addr: wake_addr(local_addr),
            max_body_bytes: config.max_body_bytes,
        });

        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (exited, accept_exited) = channel::<()>();
        let accept = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            let mut accepted_count = 0u64;
            Builder::new().spawn(move || loop {
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
                        let deadline = Instant::now() + REQUEST_DEADLINE;
                        let handler = Arc::clone(&shared);
                        let spawned = handler_thread(accepted_count).spawn(move || {
                            handler.metrics.conn_opened();
                            serve_connection(&handler, stream, deadline);
                        });
                        accepted_count += 1;
                        // The OS refused a thread: the closure is dropped
                        // with its stream, which closes this connection
                        // uncounted, and the loop keeps accepting.
                        let Ok(handle) = spawned else {
                            continue;
                        };
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
        let accept = match accept {
            Ok(accept) => accept,
            Err(e) => {
                shared.executor.shutdown();
                return Err(e);
            }
        };

        let mut server = Server {
            shared,
            local_addr,
            accept,
            accept_exited,
            summary: None,
            connections,
        };
        // Periodic stderr summary, built from short sleeps so shutdown
        // stays prompt.
        if let Some(every) = config.summary_every {
            let shared = Arc::clone(&server.shared);
            let spawned = summary_thread().spawn(move || {
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
            });
            match spawned {
                Ok(summary) => server.summary = Some(summary),
                Err(e) => {
                    // Stop the accept loop and the executor started above.
                    server.stop();
                    server.join();
                    return Err(e);
                }
            }
        }
        Ok(server)
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

    /// Requests a graceful shutdown (same effect as `POST /shutdown`).
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
    use crate::test_support::{healthy_scenario, wedge_scenario};

    fn start(workers: usize) -> Server {
        Server::start(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port")
    }

    /// One run request through the daemon's run path: the result bytes,
    /// and whether the memo replayed them.
    fn run(shared: &Shared, scenario: Scenario) -> (String, bool) {
        let response = shared
            .run(scenario)
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
                .map(|_| scope.spawn(|| run(shared, healthy_scenario("same"))))
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
        let (first, hit_first) = run(&server.shared, with_schedule(11));
        let (replay, hit_replay) = run(&server.shared, with_schedule(11));
        assert!(!hit_first);
        assert!(hit_replay, "identical schedule must memo-hit");
        assert_eq!(first, replay, "replayed bytes are identical");
        // Same base graph, different schedule: distinct fingerprint, so a
        // fresh flight — a stale replay here would be unsound.
        let (other, hit_other) = run(&server.shared, with_schedule(12));
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
        // The wedge can never converge, so the deadline kills it every time.
        let server = Server::start(ServeConfig {
            workers: 2,
            default_deadline_ms: 200,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        for _ in 0..2 {
            let (killed, hit) = run(&server.shared, wedge_scenario("dl-wedge"));
            assert!(
                killed.contains("\"status\":\"deadline-exceeded\""),
                "{killed}"
            );
            assert!(!hit, "a killed run must not memoize");
        }
        let (first, first_hit) = run(&server.shared, healthy_scenario("dl-healthy"));
        let (second, second_hit) = run(&server.shared, healthy_scenario("dl-healthy"));
        assert!(first.contains("\"status\":\"completed\""), "{first}");
        assert!(!first_hit);
        assert!(second_hit, "a completed run memoizes");
        assert_eq!(first, second);
        let memo = server.shared.memo.stats();
        server.stop();
        let counters = server.join();
        assert!(counters.balanced(), "{counters}");
        assert_eq!(counters.deadline_kills, 2, "{counters}");
        assert_eq!((memo.hits, memo.misses, memo.inserted), (1, 3, 1));
    }

    #[test]
    fn a_stopping_daemon_refuses_runs_even_when_the_memo_would_hit() {
        let server = start(1);
        let (result, _) = run(&server.shared, healthy_scenario("late"));
        assert!(result.contains("\"status\":\"completed\""), "{result}");
        server.stop();
        let refusal = server.shared.run(healthy_scenario("late"));
        assert_eq!(refusal, Err(ErrorReply::shutting_down()));
        let memo = server.shared.memo.stats();
        let counters = server.join();
        assert!(counters.balanced(), "{counters}");
        assert_eq!((counters.submitted, counters.rejected), (2, 1));
        assert_eq!(memo.hits, 0);
    }

    #[test]
    fn a_request_not_sent_by_its_deadline_fails_as_io_while_the_daemon_runs() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("bound address"))
            .expect("connect over loopback");
        let (conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(READ_TIMEOUT))
            .expect("set the read timeout");
        let within = Duration::from_millis(300);
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            let stop = AtomicBool::new(false);
            let started = Instant::now();
            let mut reader = ConnReader {
                stream: &conn,
                stop: &stop,
                deadline: started + within,
            };
            let read = match http::read_request(&mut reader, 1024) {
                Err(http::HttpError::Io(e)) => Ok(e.kind()),
                other => Err(format!("{other:?}")),
            };
            let _ = tx.send((read, started.elapsed()));
        });
        // The client stays connected and silent throughout.
        let (read, took) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the read ends at its deadline, not when the client closes");
        reader.join().expect("the reader thread");
        assert_eq!(read, Ok(std::io::ErrorKind::TimedOut));
        assert!(took >= within, "ended after {took:?}");
        drop(client);
    }

    #[test]
    fn a_client_that_trickles_an_oversized_body_is_cut_off_at_the_deadline() {
        use std::io::Write;
        let server = start(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = TcpStream::connect(listener.local_addr().expect("bound address"))
            .expect("connect over loopback");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set the read timeout");
        let (conn, _) = listener.accept().expect("accept");
        client
            .write_all(b"POST /run HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n")
            .expect("send the head");
        let within = Duration::from_millis(500);
        let (tx, rx) = channel();
        let shared = Arc::clone(&server.shared);
        let handler = std::thread::spawn(move || {
            let started = Instant::now();
            serve_connection(&shared, conn, started + within);
            let _ = tx.send(started.elapsed());
        });
        let mut status = [0u8; 12];
        client
            .read_exact(&mut status)
            .expect("read the status line");
        assert_eq!(&status, b"HTTP/1.1 413");
        // A byte every 20 ms: no read of the drain ever times out, so only
        // the deadline can end it.
        let trickling = Instant::now();
        let took = loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(took) => break took,
                Err(RecvTimeoutError::Timeout) => {
                    assert!(
                        trickling.elapsed() < Duration::from_secs(5),
                        "the drain outlived its deadline"
                    );
                    let _ = client.write(b"x");
                }
                Err(RecvTimeoutError::Disconnected) => panic!("the handler panicked"),
            }
        };
        handler.join().expect("the handler thread");
        assert!(took >= within, "ended after {took:?}");
        server.stop();
        server.join();
    }

    #[test]
    fn a_wildcard_listener_is_woken_over_loopback() {
        let wake = |addr: &str| wake_addr(addr.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:7451"), "127.0.0.1:7451");
        assert_eq!(wake("[::]:7451"), "[::1]:7451");
        assert_eq!(wake("127.0.0.1:7451"), "127.0.0.1:7451");
        assert_eq!(wake("10.1.2.3:7451"), "10.1.2.3:7451");
    }

    /// One `GET /metrics` on a fresh connection: the raw response, empty
    /// when the daemon closed the connection unanswered.
    fn get_metrics(addr: SocketAddr) -> String {
        use std::io::Write;
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        // A refused connection may already be closed: the write or the
        // read fails, and the reply stays empty.
        let _ = stream.write_all(b"GET /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        String::from_utf8_lossy(&reply).into_owned()
    }

    #[test]
    fn a_refused_handler_thread_drops_one_connection_and_accepting_goes_on() {
        // The first handler asks for a stack no `mmap` can hold, so the OS
        // refuses the thread without starting one.
        let server = Server::start_with(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            |n| match n {
                0 => Builder::new().stack_size(1 << 60),
                _ => Builder::new(),
            },
            Builder::new,
        )
        .expect("bind an ephemeral port");
        let addr = server.local_addr();
        assert_eq!(get_metrics(addr), "", "the refused connection is closed");
        let served = get_metrics(addr);
        assert!(served.starts_with("HTTP/1.1 200 "), "{served}");
        assert!(
            served.contains("scalagraph_serve_connections 1\n"),
            "{served}"
        );
        server.stop();
        let counters = server.join();
        assert_eq!(counters.connections, 1, "{counters}");
        assert!(counters.balanced(), "{counters}");
    }

    #[test]
    fn a_refused_summary_thread_fails_the_start_and_leaves_nothing_running() {
        // An address the OS has just handed out, free again.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|probe| probe.local_addr())
            .expect("bind an ephemeral port");
        // The summary thread asks for a stack no `mmap` can hold, so the OS
        // refuses it without starting one.
        let started = Server::start_with(
            ServeConfig {
                addr: addr.to_string(),
                workers: 1,
                summary_every: Some(Duration::from_secs(1)),
                ..ServeConfig::default()
            },
            |_| Builder::new(),
            || Builder::new().stack_size(1 << 60),
        );
        assert!(
            started.is_err(),
            "the refused summary thread fails the start"
        );
        // The accept thread owned the listener: the address binds again
        // only once that thread has exited.
        TcpListener::bind(addr).expect("the failed start closed its listener");
    }
}
