//! Wire protocol: requests in, typed responses out.
//!
//! Both transports (line-delimited JSON and HTTP) speak the same
//! vocabulary. A *request* is either a scenario to run or a control verb;
//! a *response* is a single-line JSON object that always says whether it
//! is `ok` and, when it is not, carries a typed error — malformed input
//! never drops a connection silently and never panics the server.
//!
//! The success response splices the memoized result JSON **verbatim**:
//!
//! ```text
//! {"ok":true,"memo_hit":true,"wall_ms":3,"result":{...stored bytes...}}
//! ```
//!
//! so a memo hit is byte-identical to the original run's `result` object by
//! construction — the serialized form is what the memo stores, not a
//! re-rendering of a parsed structure.

use scalagraph_conformance::json::{obj, parse, Json};
use scalagraph_conformance::Scenario;
use scalagraph_runtime::{JobMetrics, JobStatus, Priority, Rejection};

/// Envelope keys the jsonl transport accepts.
const ENVELOPE_KEYS: [&str; 4] = ["run", "control", "priority", "deadline_ms"];

/// A typed refusal. `kind` is a stable machine-readable label; `message`
/// says what was wrong with *this* request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Stable error label (`malformed_json`, `oversized`, ...).
    pub kind: &'static str,
    /// Human-readable cause.
    pub message: String,
}

impl ErrorReply {
    /// The request body was not valid JSON.
    pub fn malformed_json(message: impl Into<String>) -> Self {
        ErrorReply {
            kind: "malformed_json",
            message: message.into(),
        }
    }

    /// The JSON was well-formed but not a valid request shape.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ErrorReply {
            kind: "bad_request",
            message: message.into(),
        }
    }

    /// The request carried a key the protocol does not define.
    pub fn unknown_field(key: &str, context: &str) -> Self {
        ErrorReply {
            kind: "unknown_field",
            message: format!("unknown {context} key `{key}`"),
        }
    }

    /// The scenario parsed but failed [`Scenario::validate`].
    pub fn invalid_scenario(message: impl Into<String>) -> Self {
        ErrorReply {
            kind: "invalid_scenario",
            message: message.into(),
        }
    }

    /// The request body exceeded the configured size ceiling.
    pub fn oversized(limit: usize) -> Self {
        ErrorReply {
            kind: "oversized",
            message: format!("request exceeds the {limit}-byte body limit"),
        }
    }

    /// Admission control refused the job: the bounded queue is full.
    pub fn queue_full(capacity: usize) -> Self {
        ErrorReply {
            kind: "queue_full",
            message: format!("admission queue full (capacity {capacity})"),
        }
    }

    /// The daemon is draining and accepts no new work.
    pub fn shutting_down() -> Self {
        ErrorReply {
            kind: "shutting_down",
            message: "server is shutting down".into(),
        }
    }

    /// No such HTTP route.
    pub fn not_found(path: &str) -> Self {
        ErrorReply {
            kind: "not_found",
            message: format!("no route {path}"),
        }
    }

    /// The HTTP route exists but not for this method.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        ErrorReply {
            kind: "method_not_allowed",
            message: format!("{method} not allowed on {path}"),
        }
    }

    /// The server lost the job (worker died, channel dropped). Always a
    /// bug, but still a typed response rather than a dropped connection.
    pub fn internal(message: impl Into<String>) -> Self {
        ErrorReply {
            kind: "internal",
            message: message.into(),
        }
    }

    /// The HTTP status line this error maps to.
    pub fn http_status(&self) -> (u16, &'static str) {
        match self.kind {
            "malformed_json" | "bad_request" | "unknown_field" | "invalid_scenario" => {
                (400, "Bad Request")
            }
            "oversized" => (413, "Payload Too Large"),
            "not_found" => (404, "Not Found"),
            "method_not_allowed" => (405, "Method Not Allowed"),
            "queue_full" => (429, "Too Many Requests"),
            "shutting_down" => (503, "Service Unavailable"),
            _ => (500, "Internal Server Error"),
        }
    }

    /// The single-line JSON response body for this error.
    pub fn to_response(&self) -> String {
        obj(vec![
            ("ok", Json::Bool(false)),
            (
                "error",
                obj(vec![
                    ("kind", Json::Str(self.kind.to_string())),
                    ("message", Json::Str(self.message.clone())),
                ]),
            ),
        ])
        .compact()
    }
}

impl From<Rejection> for ErrorReply {
    fn from(rejection: Rejection) -> Self {
        match rejection {
            Rejection::QueueFull { capacity } => ErrorReply::queue_full(capacity),
            Rejection::ShuttingDown => ErrorReply::shutting_down(),
        }
    }
}

/// A control verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Liveness probe; answers `{"ok":true,"control":"pong"}`.
    Ping,
    /// Answers the metrics text rendering inside a JSON string.
    Metrics,
    /// Starts a graceful drain: queued jobs cancel, in-flight jobs are
    /// cooperatively cancelled, the listener closes.
    Shutdown,
}

/// One parsed request.
#[derive(Debug)]
pub enum Request {
    /// Run a scenario.
    Run {
        /// The (validated) scenario.
        scenario: Box<Scenario>,
        /// Admission lane.
        priority: Priority,
        /// Per-job wall-clock deadline in milliseconds; `None` uses the
        /// server default, `Some(0)` means no deadline.
        deadline_ms: Option<u64>,
    },
    /// A control verb.
    Control(Control),
}

/// Parses a scenario object, refusing unknown top-level keys and
/// scenarios that fail [`Scenario::validate`].
///
/// # Errors
///
/// `unknown_field`, `bad_request`, or `invalid_scenario`.
pub fn parse_scenario_strict(v: &Json) -> Result<Scenario, ErrorReply> {
    let members = match v {
        Json::Obj(members) => members,
        _ => return Err(ErrorReply::bad_request("scenario must be a JSON object")),
    };
    for (key, _) in members {
        if !Scenario::KEYS.contains(&key.as_str()) {
            return Err(ErrorReply::unknown_field(key, "scenario"));
        }
    }
    let scenario = Scenario::from_json(v).map_err(ErrorReply::bad_request)?;
    scenario.validate().map_err(ErrorReply::invalid_scenario)?;
    Ok(scenario)
}

/// Parses one jsonl request line: either
/// `{"run": {...scenario...}, "priority"?: "high"|"normal", "deadline_ms"?: n}`
/// or `{"control": "ping"|"metrics"|"shutdown"}`.
///
/// # Errors
///
/// A typed [`ErrorReply`] for every way the line can be wrong.
pub fn parse_jsonl_request(line: &str) -> Result<Request, ErrorReply> {
    let v = parse(line).map_err(ErrorReply::malformed_json)?;
    let members = match &v {
        Json::Obj(members) => members,
        _ => return Err(ErrorReply::bad_request("request must be a JSON object")),
    };
    for (key, _) in members {
        if !ENVELOPE_KEYS.contains(&key.as_str()) {
            return Err(ErrorReply::unknown_field(key, "request"));
        }
    }
    match (v.get("run"), v.get("control")) {
        (Some(_), Some(_)) => Err(ErrorReply::bad_request(
            "request carries both `run` and `control`",
        )),
        (None, None) => Err(ErrorReply::bad_request(
            "request needs a `run` scenario or a `control` verb",
        )),
        (None, Some(c)) => {
            let verb = c
                .as_str()
                .ok_or_else(|| ErrorReply::bad_request("`control` must be a string"))?;
            match verb {
                "ping" => Ok(Request::Control(Control::Ping)),
                "metrics" => Ok(Request::Control(Control::Metrics)),
                "shutdown" => Ok(Request::Control(Control::Shutdown)),
                other => Err(ErrorReply::bad_request(format!(
                    "unknown control verb `{other}`"
                ))),
            }
        }
        (Some(run), None) => {
            let scenario = parse_scenario_strict(run)?;
            let priority = match v.get("priority") {
                None => Priority::Normal,
                Some(p) => match p.as_str() {
                    Some("normal") => Priority::Normal,
                    Some("high") => Priority::High,
                    _ => {
                        return Err(ErrorReply::bad_request(
                            "`priority` must be \"normal\" or \"high\"",
                        ))
                    }
                },
            };
            let deadline_ms = match v.get("deadline_ms") {
                None => None,
                Some(d) => Some(d.as_u64().ok_or_else(|| {
                    ErrorReply::bad_request("`deadline_ms` must be a non-negative integer")
                })?),
            };
            Ok(Request::Run {
                scenario: Box::new(scenario),
                priority,
                deadline_ms,
            })
        }
    }
}

/// The deterministic `result` object for a terminal job status, serialized
/// compactly. For completed runs this string is what the memo stores and
/// replays; everything in it is a pure function of the scenario, so two
/// identical requests produce identical bytes.
pub fn result_json(name: &str, fingerprint: u64, status: &JobStatus) -> String {
    let mut members = vec![
        ("name", Json::Str(name.to_string())),
        ("fingerprint", Json::Str(format!("{fingerprint:#018x}"))),
        ("status", Json::Str(status.label().to_string())),
    ];
    match status {
        JobStatus::Completed {
            metrics:
                JobMetrics {
                    iterations,
                    cycles,
                    traversed_edges,
                },
        } => {
            members.push(("iterations", Json::Int(*iterations)));
            members.push(("cycles", Json::Int(*cycles)));
            members.push(("traversed_edges", Json::Int(*traversed_edges)));
        }
        JobStatus::Failed { reason } => {
            members.push(("reason", Json::Str(reason.to_string())));
        }
        JobStatus::Cancelled { at_cycle } | JobStatus::DeadlineExceeded { at_cycle } => {
            if let Some(cycle) = at_cycle {
                members.push(("at_cycle", Json::Int(*cycle)));
            }
        }
        JobStatus::Rejected { rejection } => {
            members.push(("reason", Json::Str(rejection.to_string())));
        }
    }
    obj(members).compact()
}

/// The success response: splices the stored result bytes verbatim.
pub fn ok_response(result: &str, memo_hit: bool, wall_ms: u64) -> String {
    format!("{{\"ok\":true,\"memo_hit\":{memo_hit},\"wall_ms\":{wall_ms},\"result\":{result}}}")
}

/// A control acknowledgement: `{"ok":true,"control":"<word>"}` with an
/// optional extra payload member.
pub fn control_response(word: &str, extra: Option<(&str, Json)>) -> String {
    let mut members = vec![
        ("ok", Json::Bool(true)),
        ("control", Json::Str(word.to_string())),
    ];
    if let Some((key, value)) = extra {
        members.push((key, value));
    }
    obj(members).compact()
}

/// Extracts the verbatim `result` object bytes from an [`ok_response`]
/// line. Used by tests and the load generator to compare results
/// byte-for-byte without re-serializing.
pub fn extract_result(response: &str) -> Option<&str> {
    response
        .split_once("\"result\":")
        .and_then(|(_, rest)| rest.strip_suffix('}'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalagraph_runtime::FailureReason;

    fn scenario_json() -> String {
        let s = crate::test_support::healthy_scenario("proto-test");
        s.to_json().compact()
    }

    #[test]
    fn a_run_envelope_parses_with_priority_and_deadline() {
        let line = format!(
            "{{\"run\":{},\"priority\":\"high\",\"deadline_ms\":250}}",
            scenario_json()
        );
        match parse_jsonl_request(&line) {
            Ok(Request::Run {
                scenario,
                priority,
                deadline_ms,
            }) => {
                assert_eq!(scenario.name, "proto-test");
                assert_eq!(priority, Priority::High);
                assert_eq!(deadline_ms, Some(250));
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn every_malformed_shape_maps_to_a_typed_error() {
        let cases = [
            ("{not json", "malformed_json"),
            ("[1,2,3]", "bad_request"),
            ("{\"control\":\"reboot\"}", "bad_request"),
            ("{\"bogus\":1}", "unknown_field"),
            ("{}", "bad_request"),
        ];
        for (line, kind) in cases {
            let err = parse_jsonl_request(line).unwrap_err();
            assert_eq!(err.kind, kind, "line {line:?} -> {err:?}");
        }
    }

    #[test]
    fn unknown_scenario_fields_are_refused_not_ignored() {
        let mut body = scenario_json();
        body.insert_str(body.len() - 1, ",\"turbo\":true");
        let line = format!("{{\"run\":{body}}}");
        let err = parse_jsonl_request(&line).unwrap_err();
        assert_eq!(err.kind, "unknown_field");
        assert!(err.message.contains("turbo"), "{}", err.message);
    }

    #[test]
    fn invalid_scenarios_fail_validation_with_the_defect_named() {
        let mut s = crate::test_support::healthy_scenario("bad-root");
        s.algo = scalagraph_conformance::scenario::AlgoSpec::Bfs { root: 9_999 };
        let line = format!("{{\"run\":{}}}", s.to_json().compact());
        let err = parse_jsonl_request(&line).unwrap_err();
        assert_eq!(err.kind, "invalid_scenario");
        assert!(err.message.contains("out of range"), "{}", err.message);
    }

    #[test]
    fn error_kinds_map_to_the_right_http_status() {
        assert_eq!(ErrorReply::malformed_json("x").http_status().0, 400);
        assert_eq!(ErrorReply::oversized(10).http_status().0, 413);
        assert_eq!(ErrorReply::queue_full(4).http_status().0, 429);
        assert_eq!(ErrorReply::shutting_down().http_status().0, 503);
        assert_eq!(ErrorReply::not_found("/x").http_status().0, 404);
        assert_eq!(
            ErrorReply::method_not_allowed("PUT", "/run")
                .http_status()
                .0,
            405
        );
        assert_eq!(ErrorReply::internal("x").http_status().0, 500);
    }

    #[test]
    fn ok_responses_splice_the_result_verbatim_and_round_trip() {
        let status = JobStatus::Completed {
            metrics: JobMetrics {
                iterations: 3,
                cycles: 120,
                traversed_edges: 456,
            },
        };
        let result = result_json("r1", 0xabcd, &status);
        let response = ok_response(&result, true, 7);
        assert_eq!(extract_result(&response), Some(result.as_str()));
        let parsed = parse(&response).expect("response is valid JSON");
        assert_eq!(parsed.req_bool("memo_hit"), Ok(true));
        assert_eq!(
            parsed.req("result").and_then(|r| r.req_u64("cycles")),
            Ok(120)
        );
    }

    #[test]
    fn failed_results_carry_the_reason() {
        let status = JobStatus::Failed {
            reason: FailureReason::Malformed {
                message: "boom".into(),
            },
        };
        let result = result_json("r2", 1, &status);
        let parsed = parse(&result).unwrap();
        assert_eq!(parsed.req_str("status"), Ok("failed"));
        assert!(parsed.req_str("reason").unwrap().contains("boom"));
    }

    #[test]
    fn error_responses_are_single_line_typed_json() {
        let response = ErrorReply::queue_full(16).to_response();
        assert!(!response.contains('\n'));
        let parsed = parse(&response).unwrap();
        assert_eq!(parsed.req_bool("ok"), Ok(false));
        assert_eq!(
            parsed.req("error").and_then(|e| e.req_str("kind")),
            Ok("queue_full")
        );
    }
}
