//! Wire protocol: request schema validation and reply rendering.
//!
//! One JSON object per line in each direction (see DESIGN.md §10). The
//! parsing here is the admission-control boundary: every way a client
//! can get the schema wrong maps to a structured `status: "error"` reply
//! with a machine-readable `code`, never to a disconnect or a panic.
//! Unknown request types and unknown fields are rejected (they are
//! almost always client typos, and silently ignoring a misspelled
//! `deadline_ms` would drop the one robustness control the client asked
//! for).

use crate::json::{self, Value};

/// Upper bound on the aggressor-name filter; anything longer is not a
/// net name from a real deck.
const MAX_NAME_BYTES: usize = 4096;

/// Input waveform shape for the switching aggressor (the `shape` field),
/// shared with the CLI `--shape` flag.
pub use xtalk_circuit::signal::Shape;

/// A validated `analyze` request.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// Inline SPICE deck source (`spice::parse_deck` format).
    pub deck: String,
    /// Aggressor input slew, seconds.
    pub slew: f64,
    /// Aggressor switching time, seconds.
    pub arrival: f64,
    /// Input edge shape.
    pub shape: Shape,
    /// Optional noise budget (× `Vdd`); rows above it are flagged.
    pub threshold: Option<f64>,
    /// Optional aggressor net-name filter.
    pub aggressor: Option<String>,
    /// Cross-check each estimate against the golden transient simulator
    /// (expensive; subject to the deadline budget).
    pub golden: bool,
    /// Refuse degradation instead of falling down the chain.
    pub strict: bool,
    /// Per-request deadline budget in milliseconds. `None` means the
    /// server default (possibly unlimited).
    pub deadline_ms: Option<f64>,
}

/// A validated request of any type.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a full noise analysis on an inline deck.
    Analyze(Box<AnalyzeRequest>),
    /// Liveness probe; replies immediately (in order).
    Ping,
    /// Live registry snapshot: queue depth, rung counters, panic count.
    Stats,
    /// Deliberate worker panic, for fault-isolation testing. Only
    /// honored when the server runs with test faults enabled; otherwise
    /// rejected as an unknown type.
    Boom,
}

/// A structured request rejection (rendered as a `status: "error"` reply).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Stable machine-readable code (`bad_json`, `schema`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl RequestError {
    fn schema(detail: impl Into<String>) -> Self {
        RequestError {
            code: "schema",
            detail: detail.into(),
        }
    }
}

/// The client-chosen request id, echoed verbatim into the reply. Kept as
/// pre-rendered JSON text so `"42"`, `42` and `null` stay distinct.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestId(String);

impl RequestId {
    /// The id used when none could be extracted from the request.
    pub fn null() -> Self {
        RequestId("null".to_string())
    }

    /// The id as JSON text (already escaped/quoted as needed).
    pub fn as_json(&self) -> &str {
        &self.0
    }
}

fn render_id(v: &Value) -> Option<RequestId> {
    let mut out = String::new();
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => json::write_number(&mut out, *n),
        Value::Str(s) => {
            if s.len() > MAX_NAME_BYTES {
                return None;
            }
            json::write_escaped(&mut out, s);
        }
        Value::Arr(_) | Value::Obj(_) => return None,
    }
    Some(RequestId(out))
}

/// Parses and validates one request line.
///
/// The id rides along in both directions so even a rejected request gets
/// a correlatable reply; when the line is not valid JSON (or the id
/// itself is malformed) the reply id is `null`.
///
/// # Errors
///
/// A [`RequestError`] describing the first schema violation found.
pub fn parse_request(line: &str) -> (RequestId, Result<Request, RequestError>) {
    let mut value = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                RequestId::null(),
                Err(RequestError {
                    code: "bad_json",
                    detail: e.to_string(),
                }),
            )
        }
    };
    let Value::Obj(fields) = &value else {
        return (
            RequestId::null(),
            Err(RequestError::schema(format!(
                "request must be a JSON object, got {}",
                value.type_name()
            ))),
        );
    };
    let id = match value.get("id") {
        None => RequestId::null(),
        Some(v) => match render_id(v) {
            Some(id) => id,
            None => {
                return (
                    RequestId::null(),
                    Err(RequestError::schema(
                        "\"id\" must be a string, number, boolean or null",
                    )),
                )
            }
        },
    };
    let mut req = validate(fields, &value);
    // The deck is the bulk of an analyze request: move it out of the
    // parsed value rather than copy it.
    if let (Ok(Request::Analyze(analyze)), Value::Obj(fields)) = (&mut req, &mut value) {
        if let Some((_, Value::Str(deck))) = fields.iter_mut().find(|(k, _)| k == "deck") {
            analyze.deck = std::mem::take(deck);
        }
    }
    (id, req)
}

fn validate(fields: &[(String, Value)], value: &Value) -> Result<Request, RequestError> {
    let Some(kind) = value.get("type") else {
        return Err(RequestError::schema("missing \"type\" field"));
    };
    let Some(kind) = kind.as_str() else {
        return Err(RequestError::schema(format!(
            "\"type\" must be a string, got {}",
            kind.type_name()
        )));
    };
    let allowed: &[&str] = match kind {
        "analyze" => &[
            "id",
            "type",
            "deck",
            "slew",
            "arrival",
            "shape",
            "threshold",
            "aggressor",
            "golden",
            "strict",
            "deadline_ms",
        ],
        "ping" | "stats" | "boom" => &["id", "type"],
        other => {
            return Err(RequestError::schema(format!(
                "unknown request type {other:?} (expected \"analyze\", \"ping\" or \"stats\")"
            )))
        }
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(RequestError::schema(format!(
                "unknown field {key:?} for type {kind:?}"
            )));
        }
    }
    match kind {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "boom" => Ok(Request::Boom),
        _ => validate_analyze(value).map(|r| Request::Analyze(Box::new(r))),
    }
}

fn finite_field(
    value: &Value,
    name: &str,
    default: f64,
    check: impl Fn(f64) -> Result<(), &'static str>,
) -> Result<f64, RequestError> {
    match value.get(name) {
        None => Ok(default),
        Some(v) => {
            let n = v.as_f64().ok_or_else(|| {
                RequestError::schema(format!(
                    "{name:?} must be a number, got {}",
                    v.type_name()
                ))
            })?;
            check(n).map_err(|why| RequestError::schema(format!("{name:?} {why}, got {n}")))?;
            Ok(n)
        }
    }
}

fn bool_field(value: &Value, name: &str) -> Result<bool, RequestError> {
    match value.get(name) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| {
            RequestError::schema(format!(
                "{name:?} must be a boolean, got {}",
                v.type_name()
            ))
        }),
    }
}

fn validate_analyze(value: &Value) -> Result<AnalyzeRequest, RequestError> {
    let deck = match value.get("deck") {
        None => return Err(RequestError::schema("missing \"deck\" field")),
        Some(Value::Str(s)) if s.trim().is_empty() => {
            return Err(RequestError::schema("\"deck\" is empty"))
        }
        // Moved in by `parse_request`, which owns the parsed value.
        Some(Value::Str(_)) => String::new(),
        Some(v) => {
            return Err(RequestError::schema(format!(
                "\"deck\" must be a string of SPICE source, got {}",
                v.type_name()
            )))
        }
    };
    let positive = |n: f64| {
        if n > 0.0 {
            Ok(())
        } else {
            Err("must be positive")
        }
    };
    let non_negative = |n: f64| {
        if n >= 0.0 {
            Ok(())
        } else {
            Err("must be non-negative")
        }
    };
    let slew = finite_field(value, "slew", 100e-12, positive)?;
    let arrival = finite_field(value, "arrival", 0.0, non_negative)?;
    let shape = match value.get("shape") {
        None => Shape::Ramp,
        Some(v) => match v.as_str() {
            Some(name) => Shape::parse(name).ok_or_else(|| {
                RequestError::schema(format!(
                    "\"shape\" must be \"ramp\", \"exp\" or \"step\", got {name:?}"
                ))
            })?,
            None => {
                return Err(RequestError::schema(format!(
                    "\"shape\" must be a string, got {}",
                    v.type_name()
                )))
            }
        },
    };
    let threshold = match value.get("threshold") {
        None => None,
        Some(_) => Some(finite_field(value, "threshold", 0.0, positive)?),
    };
    let aggressor = match value.get("aggressor") {
        None => None,
        Some(Value::Str(s)) if s.len() <= MAX_NAME_BYTES => Some(s.clone()),
        Some(Value::Str(_)) => {
            return Err(RequestError::schema("\"aggressor\" name is absurdly long"))
        }
        Some(v) => {
            return Err(RequestError::schema(format!(
                "\"aggressor\" must be a string, got {}",
                v.type_name()
            )))
        }
    };
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(_) => Some(finite_field(value, "deadline_ms", 0.0, positive)?),
    };
    Ok(AnalyzeRequest {
        deck,
        slew,
        arrival,
        shape,
        threshold,
        aggressor,
        golden: bool_field(value, "golden")?,
        strict: bool_field(value, "strict")?,
        deadline_ms,
    })
}

// ---------------------------------------------------------------------
// Reply rendering. Replies are built as strings (never parsed back), so
// a tiny push-style builder is enough.

/// Appends `"key":` to a reply under construction.
pub fn push_key(out: &mut String, key: &str) {
    json::write_escaped(out, key);
    out.push(':');
}

/// Opens a reply object with the echoed id and a status.
pub fn open_reply(id: &RequestId, status: &str) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"id\":");
    out.push_str(id.as_json());
    out.push_str(",\"status\":");
    json::write_escaped(&mut out, status);
    out
}

/// A complete `status: "error"` reply. `position` is a `(line, col)`
/// into the submitted deck for deck-parse errors.
pub fn error_reply(
    id: &RequestId,
    code: &str,
    detail: &str,
    position: Option<(usize, usize)>,
) -> String {
    let mut out = open_reply(id, "error");
    out.push_str(",\"code\":");
    json::write_escaped(&mut out, code);
    out.push_str(",\"detail\":");
    json::write_escaped(&mut out, detail);
    if let Some((line, col)) = position {
        out.push_str(&format!(",\"line\":{line},\"col\":{col}"));
    }
    out.push('}');
    out
}

/// A backpressure (load-shed) reply: the queue is full; try again in
/// roughly `retry_after_ms`.
pub fn overloaded_reply(id: &RequestId, retry_after_ms: u64, depth: usize, capacity: usize) -> String {
    let mut out = open_reply(id, "overloaded");
    out.push_str(&format!(
        ",\"code\":\"queue_full\",\"retry_after_ms\":{retry_after_ms},\
         \"queue\":{{\"depth\":{depth},\"capacity\":{capacity}}}}}"
    ));
    out
}

/// The reply to a `ping`.
pub fn pong_reply(id: &RequestId) -> String {
    let mut out = open_reply(id, "ok");
    out.push_str(",\"type\":\"pong\"}");
    out
}

/// The rejection sent for requests that arrive after shutdown began.
pub fn shutting_down_reply(id: &RequestId) -> String {
    error_reply(
        id,
        "shutting_down",
        "server is draining and no longer accepts requests",
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(line: &str) -> Request {
        let (_, r) = parse_request(line);
        r.expect("request should validate")
    }

    fn err(line: &str) -> RequestError {
        let (_, r) = parse_request(line);
        r.expect_err("request should be rejected")
    }

    #[test]
    fn minimal_analyze_gets_defaults() {
        let req = ok(r#"{"type":"analyze","deck":"* d\n.END"}"#);
        let Request::Analyze(a) = req else {
            panic!("wrong type")
        };
        assert_eq!(a.slew, 100e-12);
        assert_eq!(a.arrival, 0.0);
        assert_eq!(a.shape, Shape::Ramp);
        assert!(!a.golden && !a.strict);
        assert_eq!(a.deadline_ms, None);
    }

    #[test]
    fn full_analyze_round_trips_every_field() {
        let req = ok(
            r#"{"id":7,"type":"analyze","deck":"x","slew":5e-11,"arrival":1e-10,
                "shape":"step","threshold":0.15,"aggressor":"agg1","golden":true,
                "strict":true,"deadline_ms":40}"#,
        );
        let Request::Analyze(a) = req else {
            panic!("wrong type")
        };
        assert_eq!(a.slew, 5e-11);
        assert_eq!(a.shape, Shape::Step);
        assert_eq!(a.threshold, Some(0.15));
        assert_eq!(a.aggressor.as_deref(), Some("agg1"));
        assert!(a.golden && a.strict);
        assert_eq!(a.deadline_ms, Some(40.0));
    }

    #[test]
    fn ids_echo_verbatim_with_type_preserved() {
        for (line, want) in [
            (r#"{"id":"r-1","type":"ping"}"#, "\"r-1\""),
            (r#"{"id":42,"type":"ping"}"#, "42"),
            (r#"{"id":null,"type":"ping"}"#, "null"),
            (r#"{"type":"ping"}"#, "null"),
        ] {
            let (id, r) = parse_request(line);
            assert!(r.is_ok());
            assert_eq!(id.as_json(), want, "{line}");
        }
        // A structured id is rejected, and the reply id degrades to null.
        let (id, r) = parse_request(r#"{"id":[1],"type":"ping"}"#);
        assert_eq!(id.as_json(), "null");
        assert_eq!(r.unwrap_err().code, "schema");
    }

    #[test]
    fn schema_violations_each_get_a_structured_error() {
        for (line, code, needle) in [
            ("not json at all", "bad_json", "expected"),
            ("[1,2]", "schema", "must be a JSON object"),
            (r#"{"deck":"x"}"#, "schema", "missing \"type\""),
            (r#"{"type":"frobnicate"}"#, "schema", "unknown request type"),
            (r#"{"type":"analyze"}"#, "schema", "missing \"deck\""),
            (r#"{"type":"analyze","deck":42}"#, "schema", "\"deck\" must be a string"),
            (r#"{"type":"analyze","deck":"  "}"#, "schema", "empty"),
            (r#"{"type":"analyze","deck":"x","slew":-1}"#, "schema", "positive"),
            (r#"{"type":"analyze","deck":"x","slew":"fast"}"#, "schema", "number"),
            (r#"{"type":"analyze","deck":"x","arrival":-2}"#, "schema", "non-negative"),
            (r#"{"type":"analyze","deck":"x","shape":"sine"}"#, "schema", "shape"),
            (r#"{"type":"analyze","deck":"x","deadline_ms":0}"#, "schema", "positive"),
            (r#"{"type":"analyze","deck":"x","golden":1}"#, "schema", "boolean"),
            (r#"{"type":"analyze","deck":"x","decc":"y"}"#, "schema", "unknown field"),
            (r#"{"type":"ping","deck":"x"}"#, "schema", "unknown field"),
        ] {
            let e = err(line);
            assert_eq!(e.code, code, "{line}: {}", e.detail);
            assert!(
                e.detail.contains(needle),
                "{line}: detail {:?} lacks {needle:?}",
                e.detail
            );
        }
    }

    #[test]
    fn reply_builders_emit_parseable_json() {
        let id = RequestId("\"r1\"".to_string());
        for reply in [
            error_reply(&id, "deck", "bad R card", Some((3, 17))),
            overloaded_reply(&id, 55, 64, 64),
            pong_reply(&id),
            shutting_down_reply(&id),
        ] {
            let v = crate::json::parse(&reply).expect(&reply);
            assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
            assert!(v.get("status").is_some());
        }
        let v = crate::json::parse(&error_reply(&id, "deck", "bad", Some((3, 17)))).unwrap();
        assert_eq!(v.get("line").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("col").and_then(Value::as_f64), Some(17.0));
        let v = crate::json::parse(&overloaded_reply(&id, 55, 10, 64)).unwrap();
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_f64), Some(55.0));
    }
}
