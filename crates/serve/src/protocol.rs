//! Request parsing and response-record rendering.
//!
//! One protocol message is one line of JSON in each direction; the full
//! schema — field tables, ordering and caching guarantees, the error
//! taxonomy — is documented in `docs/SERVICE.md`. This module owns the
//! exact bytes: requests are decoded from [`crate::json::Value`]s, and
//! responses are rendered by *splicing an envelope onto the existing
//! report records* from [`hrms_modsched::report_line`] /
//! [`hrms_modsched::error_line`], so a service result carries exactly the
//! same fields, bytes and digests as `hrms schedule --emit json` on the
//! same input — the envelope (`type`, `id`, `index`) is prepended, nothing
//! else changes.

use std::fmt::Write as _;

use hrms_ddg::{dot, parse_loops, Ddg, ParseError};
use hrms_engine::CacheStats;
use hrms_modsched::{push_json_str, FeedbackConfig, RegisterBudget};

use crate::json::{self, Value};

/// Whether `text` looks like Graphviz DOT rather than the `.loop` format:
/// the first line that is neither blank nor a `#` comment starts a DOT
/// construct.
pub fn looks_like_dot(text: &str) -> bool {
    for line in text.lines() {
        let t = line.trim_start();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        return t.starts_with("digraph")
            || t.starts_with("strict")
            || t.starts_with("//")
            || t.starts_with("/*");
    }
    false
}

/// Reads one loop source, `.loop` or DOT as [`looks_like_dot`] tells them
/// apart, into its loops in order: a `.loop` text may hold several loops,
/// and a DOT text one per digraph, back to back. `hrms schedule` reads
/// each input file through it, and `hrms serve` each `loops` entry.
///
/// # Errors
///
/// The first parse error of the text.
pub fn parse_loop_source(text: &str) -> Result<Vec<Ddg>, ParseError> {
    if looks_like_dot(text) {
        dot::from_dot_graphs(text)
    } else {
        parse_loops(text)
    }
}

/// Whether `text` looks like a `.machine` description: the first line that
/// is neither blank nor a `#` comment starts with the `machine` keyword.
pub fn looks_like_machine(text: &str) -> bool {
    for line in text.lines() {
        let t = line.trim_start();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        return t == "machine" || t.starts_with("machine ");
    }
    false
}

/// A decoded `schedule` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// Client-chosen id, echoed verbatim on every response record.
    pub id: Value,
    /// Scheduler slug (`crate::registry::scheduler_by_slug`).
    pub scheduler: String,
    /// Machine references — preset names and/or inline `.machine` text —
    /// from the singular `machine` field (one entry) or the `machines`
    /// array (one result record per loop × machine cell). Never empty.
    pub machines: Vec<String>,
    /// Loop entries: `.loop` text (possibly multi-loop) or DOT,
    /// auto-detected per entry.
    pub loops: Vec<String>,
    /// Whether this request may read from and populate the result cache.
    pub cache: bool,
    /// Include wall-clock timing fields; implies a cache bypass (cached
    /// records deliberately carry no timing).
    pub timing: bool,
    /// Feedback-guided rescheduling options (`"feedback":true` or
    /// `"feedback":{...}`): the named scheduler is wrapped in the
    /// iterative rescheduler under this configuration, and every result
    /// record embeds the per-iteration [`hrms_modsched::FeedbackTrace`].
    /// The configuration is part of the scheduler's display name, so cache
    /// keys distinguish feedback configurations.
    pub feedback: Option<FeedbackConfig>,
}

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Schedule a batch of loops.
    Schedule(ScheduleRequest),
    /// Report cache and service counters.
    Stats {
        /// Echoed id.
        id: Value,
    },
    /// Drain and exit.
    Shutdown {
        /// Echoed id.
        id: Value,
    },
}

/// A request that could not be decoded or validated; rendered as a
/// `stage:"request"` error record.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The request id when it could be recovered, `null` otherwise.
    pub id: Value,
    /// What went wrong.
    pub message: String,
    /// Pre-rendered diagnostic JSON objects
    /// ([`hrms_verify::Diagnostic::render_json`]) locating the problem in
    /// the offending source text, when the span machinery applies.
    pub diagnostics: Vec<String>,
}

impl RequestError {
    /// An error with no source diagnostics.
    pub fn new(id: Value, message: impl Into<String>) -> Self {
        RequestError {
            id,
            message: message.into(),
            diagnostics: Vec::new(),
        }
    }
}

fn string_field(obj: &Value, id: &Value, key: &str, default: &str) -> Result<String, RequestError> {
    match obj.get(key) {
        None => Ok(default.to_string()),
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(RequestError::new(
            id.clone(),
            format!("`{key}` must be a string"),
        )),
    }
}

fn bool_field(obj: &Value, id: &Value, key: &str, default: bool) -> Result<bool, RequestError> {
    match obj.get(key) {
        None => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(RequestError::new(
            id.clone(),
            format!("`{key}` must be a boolean"),
        )),
    }
}

/// Caps on the per-request feedback knobs: a remote client must not be
/// able to demand unbounded rescheduling work out of one request.
const MAX_FEEDBACK_ITERATIONS: usize = 32;
const MAX_FEEDBACK_SPILL_ROUNDS: usize = 64;

/// Parses a non-negative integer field value (the JSON layer keeps numbers
/// as raw tokens, so `7.5` and `-1` simply fail to parse as `u64`).
fn count_value(value: &Value) -> Option<u64> {
    match value {
        Value::Num(token) => token.parse().ok(),
        _ => None,
    }
}

/// Decodes the `feedback` field of a schedule request: absent or `false`
/// disables feedback, `true` enables it with defaults, an object overrides
/// `registers` (number, or `null` for no register budget), `iterations`
/// and `spill_rounds` individually.
fn feedback_field(obj: &Value, id: &Value) -> Result<Option<FeedbackConfig>, RequestError> {
    let value = match obj.get("feedback") {
        None => return Ok(None),
        Some(v) => v,
    };
    match value {
        Value::Bool(false) => Ok(None),
        Value::Bool(true) => Ok(Some(FeedbackConfig::default())),
        Value::Obj(_) => {
            let mut config = FeedbackConfig::default();
            match value.get("registers") {
                None => {}
                Some(Value::Null) => config.budget = None,
                Some(v) => match count_value(v) {
                    Some(registers) => config.budget = Some(RegisterBudget { registers }),
                    None => {
                        return Err(RequestError::new(
                            id.clone(),
                            "`feedback.registers` must be a non-negative integer or null",
                        ));
                    }
                },
            }
            if let Some(v) = value.get("iterations") {
                match count_value(v) {
                    Some(n) if n >= 1 && n <= MAX_FEEDBACK_ITERATIONS as u64 => {
                        config.max_iterations = n as usize;
                    }
                    _ => {
                        return Err(RequestError::new(
                            id.clone(),
                            format!(
                                "`feedback.iterations` must be an integer in 1..={MAX_FEEDBACK_ITERATIONS}"
                            ),
                        ));
                    }
                }
            }
            if let Some(v) = value.get("spill_rounds") {
                match count_value(v) {
                    Some(n) if n >= 1 && n <= MAX_FEEDBACK_SPILL_ROUNDS as u64 => {
                        config.max_spill_rounds = n as usize;
                    }
                    _ => {
                        return Err(RequestError::new(
                            id.clone(),
                            format!(
                                "`feedback.spill_rounds` must be an integer in 1..={MAX_FEEDBACK_SPILL_ROUNDS}"
                            ),
                        ));
                    }
                }
            }
            Ok(Some(config))
        }
        _ => Err(RequestError::new(
            id.clone(),
            "`feedback` must be a boolean or an object",
        )),
    }
}

/// Moves the first `key` field out of an object, leaving `null` in its
/// place, so a request owns its loop and machine texts without a copy.
fn take_field(obj: &mut Value, key: &str) -> Option<Value> {
    match obj {
        Value::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Value::Null)),
        _ => None,
    }
}

/// Moves the strings out of an array's `items`; the first element that is
/// not a string is an error, described by `what(index)`.
fn string_items(
    items: Vec<Value>,
    id: &Value,
    what: impl Fn(usize) -> String,
) -> Result<Vec<String>, RequestError> {
    items
        .into_iter()
        .enumerate()
        .map(|(i, item)| match item {
            Value::Str(s) => Ok(s),
            _ => Err(RequestError::new(id.clone(), what(i))),
        })
        .collect()
}

/// Decodes one request line.
///
/// Unknown *fields* are ignored (forward compatibility); an unknown *`req`
/// verb*, a JSON syntax error or a wrongly-typed field is a
/// [`RequestError`].
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let mut value = json::parse(line)
        .map_err(|e| RequestError::new(Value::Null, format!("request is not valid JSON: {e}")))?;
    if !matches!(value, Value::Obj(_)) {
        return Err(RequestError::new(
            Value::Null,
            "request must be a JSON object",
        ));
    }
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    match value.get("req") {
        Some(Value::Str(s)) => match s.as_str() {
            "stats" => return Ok(Request::Stats { id }),
            "shutdown" => return Ok(Request::Shutdown { id }),
            "schedule" => {}
            other => {
                return Err(RequestError::new(
                    id,
                    format!("unknown request `{other}` (schedule, stats or shutdown)"),
                ));
            }
        },
        Some(_) => {
            return Err(RequestError::new(id, "`req` must be a string"));
        }
        None => {
            return Err(RequestError::new(
                id,
                "missing `req` field (schedule, stats or shutdown)",
            ));
        }
    }
    let scheduler = string_field(&value, &id, "scheduler", "hrms")?;
    let machines = match take_field(&mut value, "machines") {
        Some(Value::Arr(items)) => {
            if value.get("machine").is_some() {
                return Err(RequestError::new(
                    id,
                    "give either `machine` or `machines`, not both",
                ));
            }
            if items.is_empty() {
                return Err(RequestError::new(id, "`machines` must not be empty"));
            }
            string_items(items, &id, |i| {
                format!("machines[{i}] must be a string (preset name or `.machine` text)")
            })?
        }
        Some(_) => {
            return Err(RequestError::new(
                id,
                "`machines` must be an array of strings",
            ));
        }
        None => vec![string_field(&value, &id, "machine", "govindarajan")?],
    };
    let cache = bool_field(&value, &id, "cache", true)?;
    let timing = bool_field(&value, &id, "timing", false)?;
    let feedback = feedback_field(&value, &id)?;
    let loops = match take_field(&mut value, "loops") {
        Some(Value::Arr(items)) if !items.is_empty() => string_items(items, &id, |i| {
            format!("loops[{i}] must be a string of `.loop` or DOT text")
        })?,
        Some(Value::Arr(_)) => {
            return Err(RequestError::new(id, "`loops` must not be empty"));
        }
        Some(_) | None => {
            return Err(RequestError::new(
                id,
                "missing `loops` field (array of `.loop` or DOT strings)",
            ));
        }
    };
    Ok(Request::Schedule(ScheduleRequest {
        id,
        scheduler,
        machines,
        loops,
        cache,
        timing,
        feedback,
    }))
}

/// `{"type":"result","id":...,"index":N,` + the report line's own fields.
pub fn result_record(id: &Value, index: usize, report_line: &str) -> String {
    cell_record_for(&id.to_json(), index, Ok(report_line))
}

/// `{"type":"error","id":...,"index":N,"stage":"schedule",` + the error
/// line's own fields.
pub fn cell_error_record(id: &Value, index: usize, error_line: &str) -> String {
    cell_record_for(&id.to_json(), index, Err(error_line))
}

/// The record of one cell, for an id rendered once per request: a
/// [`result_record`] around a report line, or a [`cell_error_record`]
/// around an error line.
pub(crate) fn cell_record_for(id_json: &str, index: usize, line: Result<&str, &str>) -> String {
    let (kind, stage, line) = match line {
        Ok(line) => ("result", "", line),
        Err(line) => ("error", "\"stage\":\"schedule\",", line),
    };
    debug_assert!(line.starts_with('{'));
    let mut out = String::with_capacity(64 + id_json.len() + line.len());
    let _ = write!(
        out,
        "{{\"type\":\"{kind}\",\"id\":{id_json},\"index\":{index},{stage}"
    );
    out.push_str(&line[1..]);
    out
}

/// A request-stage error record, with optional embedded diagnostics.
pub fn request_error_record(err: &RequestError) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"type\":\"error\",\"id\":{},\"stage\":\"request\",\"error\":",
        err.id.to_json()
    );
    push_json_str(&mut out, &err.message);
    if !err.diagnostics.is_empty() {
        out.push_str(",\"diagnostics\":[");
        for (i, d) in err.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(d);
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// The batch terminator record.
pub fn done_record(id: &Value, results: usize, errors: usize) -> String {
    done_record_for(&id.to_json(), results, errors)
}

/// [`done_record`] for an id rendered once per request.
pub(crate) fn done_record_for(id_json: &str, results: usize, errors: usize) -> String {
    format!("{{\"type\":\"done\",\"id\":{id_json},\"results\":{results},\"errors\":{errors}}}")
}

/// The `stats` response record.
///
/// `cores` counts the distinct loop (core) fingerprints ever scheduled;
/// `core_machine_keys` counts the distinct (core fingerprint, machine
/// digest) pairs. Their ratio makes multi-machine batches observable: a
/// batch of one loop against four machines moves `cores` by one and
/// `core_machine_keys` by four.
pub fn stats_record(
    id: &Value,
    cache: CacheStats,
    cores: usize,
    core_machine_keys: usize,
    requests: u64,
    results: u64,
    errors: u64,
) -> String {
    format!(
        "{{\"type\":\"stats\",\"id\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\
         \"entries\":{},\"capacity\":{},\"cores\":{cores},\
         \"core_machine_keys\":{core_machine_keys},\"requests\":{requests},\
         \"results\":{results},\"errors\":{errors}}}",
        id.to_json(),
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.entries,
        cache.capacity
    )
}

/// The shutdown acknowledgement record.
pub fn bye_record(id: &Value) -> String {
    format!("{{\"type\":\"bye\",\"id\":{}}}", id.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_requests_parse_with_defaults() {
        let r = parse_request(r#"{"req":"schedule","loops":["loop l\nnode a op latency=1\nend"]}"#)
            .unwrap();
        match r {
            Request::Schedule(s) => {
                assert_eq!(s.id, Value::Null);
                assert_eq!(s.scheduler, "hrms");
                assert_eq!(s.machines, vec!["govindarajan".to_string()]);
                assert!(s.cache);
                assert!(!s.timing);
                assert_eq!(s.loops.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn machines_arrays_parse_and_misuses_are_named() {
        let r = parse_request(
            r#"{"req":"schedule","machines":["govindarajan","perfect-club"],"loops":["x"]}"#,
        )
        .unwrap();
        match r {
            Request::Schedule(s) => {
                assert_eq!(
                    s.machines,
                    vec!["govindarajan".to_string(), "perfect-club".to_string()]
                );
            }
            other => panic!("{other:?}"),
        }
        let e = parse_request(r#"{"req":"schedule","machine":"a","machines":["b"],"loops":["x"]}"#)
            .unwrap_err();
        assert!(e.message.contains("not both"), "{}", e.message);
        let e = parse_request(r#"{"req":"schedule","machines":[],"loops":["x"]}"#).unwrap_err();
        assert!(e.message.contains("must not be empty"), "{}", e.message);
        let e = parse_request(r#"{"req":"schedule","machines":[7],"loops":["x"]}"#).unwrap_err();
        assert!(e.message.contains("machines[0]"), "{}", e.message);
        let e = parse_request(r#"{"req":"schedule","machines":"a","loops":["x"]}"#).unwrap_err();
        assert!(e.message.contains("array of strings"), "{}", e.message);
    }

    #[test]
    fn ids_are_preserved_verbatim() {
        let r = parse_request(r#"{"req":"stats","id":1e2}"#).unwrap();
        match r {
            Request::Stats { id } => assert_eq!(id.to_json(), "1e2"),
            other => panic!("{other:?}"),
        }
        let r = parse_request(r#"{"req":"shutdown","id":"x-1"}"#).unwrap();
        match r {
            Request::Shutdown { id } => assert_eq!(id.to_json(), "\"x-1\""),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        let e = parse_request("{").unwrap_err();
        assert!(e.message.contains("not valid JSON"), "{}", e.message);
        let e = parse_request("[1]").unwrap_err();
        assert!(e.message.contains("JSON object"), "{}", e.message);
        let e = parse_request(r#"{"id":"k"}"#).unwrap_err();
        assert_eq!(e.id.to_json(), "\"k\"", "id recovered before the error");
        assert!(e.message.contains("missing `req`"), "{}", e.message);
        let e = parse_request(r#"{"req":"frobnicate"}"#).unwrap_err();
        assert!(e.message.contains("unknown request"), "{}", e.message);
        let e = parse_request(r#"{"req":"schedule"}"#).unwrap_err();
        assert!(e.message.contains("missing `loops`"), "{}", e.message);
        let e = parse_request(r#"{"req":"schedule","loops":[]}"#).unwrap_err();
        assert!(e.message.contains("must not be empty"), "{}", e.message);
        let e = parse_request(r#"{"req":"schedule","loops":[7]}"#).unwrap_err();
        assert!(e.message.contains("loops[0]"), "{}", e.message);
        let e = parse_request(r#"{"req":"schedule","loops":["x"],"cache":"yes"}"#).unwrap_err();
        assert!(e.message.contains("`cache` must be"), "{}", e.message);
    }

    #[test]
    fn feedback_options_parse_with_defaults_and_overrides() {
        let r = parse_request(r#"{"req":"schedule","loops":["x"]}"#).unwrap();
        match r {
            Request::Schedule(s) => assert_eq!(s.feedback, None),
            other => panic!("{other:?}"),
        }
        let r = parse_request(r#"{"req":"schedule","loops":["x"],"feedback":true}"#).unwrap();
        match r {
            Request::Schedule(s) => assert_eq!(s.feedback, Some(FeedbackConfig::default())),
            other => panic!("{other:?}"),
        }
        let r = parse_request(r#"{"req":"schedule","loops":["x"],"feedback":false}"#).unwrap();
        match r {
            Request::Schedule(s) => assert_eq!(s.feedback, None),
            other => panic!("{other:?}"),
        }
        let r = parse_request(
            r#"{"req":"schedule","loops":["x"],
                "feedback":{"registers":16,"iterations":4,"spill_rounds":8}}"#,
        )
        .unwrap();
        match r {
            Request::Schedule(s) => {
                let config = s.feedback.unwrap();
                assert_eq!(config.budget, Some(RegisterBudget { registers: 16 }));
                assert_eq!(config.max_iterations, 4);
                assert_eq!(config.max_spill_rounds, 8);
            }
            other => panic!("{other:?}"),
        }
        let r = parse_request(r#"{"req":"schedule","loops":["x"],"feedback":{"registers":null}}"#)
            .unwrap();
        match r {
            Request::Schedule(s) => assert_eq!(s.feedback.unwrap().budget, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn feedback_misuses_are_named() {
        let e = parse_request(r#"{"req":"schedule","loops":["x"],"feedback":7}"#).unwrap_err();
        assert!(e.message.contains("`feedback` must be"), "{}", e.message);
        let e = parse_request(r#"{"req":"schedule","loops":["x"],"feedback":{"registers":-1}}"#)
            .unwrap_err();
        assert!(e.message.contains("`feedback.registers`"), "{}", e.message);
        let e = parse_request(r#"{"req":"schedule","loops":["x"],"feedback":{"iterations":0}}"#)
            .unwrap_err();
        assert!(e.message.contains("`feedback.iterations`"), "{}", e.message);
        let e =
            parse_request(r#"{"req":"schedule","loops":["x"],"feedback":{"spill_rounds":999}}"#)
                .unwrap_err();
        assert!(
            e.message.contains("`feedback.spill_rounds`"),
            "{}",
            e.message
        );
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let r = parse_request(r#"{"req":"stats","future":"field"}"#).unwrap();
        assert!(matches!(r, Request::Stats { .. }));
    }

    #[test]
    fn envelope_splicing_preserves_the_inner_fields() {
        let inner = "{\"loop\":\"l\",\"x\":1}";
        let rec = result_record(&Value::Str("r1".into()), 3, inner);
        assert_eq!(
            rec,
            "{\"type\":\"result\",\"id\":\"r1\",\"index\":3,\"loop\":\"l\",\"x\":1}"
        );
        assert!(rec.ends_with(&inner[1..]), "inner record embedded verbatim");
        let rec = cell_error_record(&Value::Null, 0, "{\"loop\":\"l\",\"error\":\"e\"}");
        assert_eq!(
            rec,
            "{\"type\":\"error\",\"id\":null,\"index\":0,\"stage\":\"schedule\",\
             \"loop\":\"l\",\"error\":\"e\"}"
        );
    }

    #[test]
    fn detectors_classify_the_three_formats() {
        assert!(looks_like_dot("# comment\ndigraph g {}"));
        assert!(looks_like_dot("strict digraph g {}"));
        assert!(!looks_like_dot("loop l\nend"));
        assert!(looks_like_machine("\nmachine m\nend"));
        assert!(!looks_like_machine("loop l\nend"));
        assert!(!looks_like_machine("machinery"));
    }
}
