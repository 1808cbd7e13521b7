//! The long-running batch scheduling service.
//!
//! [`Service`] is transport-agnostic: [`Service::handle_line`] maps one
//! request line to its response lines, and [`Service::run`] drives that
//! over any `BufRead`/`Write` pair — the CLI's stdin/stdout pipe, a Unix
//! socket connection ([`Service::serve_unix`]), or an in-process string
//! for tests ([`Service::process`]). The protocol itself is specified in
//! `docs/SERVICE.md`.
//!
//! Guarantees (all tested by `tests/serve_protocol.rs` and the soak
//! suite):
//!
//! * **Input-order streaming.** A `schedule` batch answers with exactly
//!   one record per loop × machine cell, loop-major in input order, no
//!   matter how the cells were interleaved across the worker pool.
//! * **Each loop is analysed once per request.** A request's cells go to
//!   the engine in one [`BatchEngine::schedule_cells`] call, loop-major,
//!   so all machines a request names share one [`hrms_ddg::LoopCore`] per
//!   loop; only the resource-dependent placement differs between cells.
//! * **Each distinct cell is paid for once.** Within a request, a cell
//!   whose key repeats an earlier cell's replays that cell's record, with
//!   or without the cache. Across requests, results are cached under the
//!   content-addressed [`hrms_ddg::cache_key`], and the
//!   hit/miss/eviction counters are observable via `stats`.
//! * **Cached and cold results are byte-identical.** The cache stores the
//!   rendered report record; a hit replays exactly the bytes a cold run
//!   would produce.
//! * **Failure containment.** A malformed request — a line that is not
//!   UTF-8 included — is answered with a structured error record (with
//!   source-span diagnostics where they apply) and the connection lives
//!   on; a panicking scheduler cell is contained by the engine and becomes
//!   a per-cell error record carrying the panic message and location.
//! * **Clean shutdown.** A `shutdown` request (or EOF) drains in-flight
//!   work — requests are handled to completion in arrival order — then
//!   closes.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use hrms_ddg::{cache_key, ddg_fingerprint, Ddg};
use hrms_engine::{BatchEngine, CacheStats, Cell, ResultCache};
use hrms_machine::{machine_fingerprint, Machine};
use hrms_modsched::{error_line, report_line_with_digests, ReportDigests, ReportOptions};
use hrms_verify::{lint_dot_source, lint_loop_source, lint_machine_source};

use crate::protocol::{
    bye_record, cell_record_for, done_record_for, looks_like_dot, parse_loop_source, parse_request,
    request_error_record, stats_record, Request, RequestError, ScheduleRequest,
};
use crate::registry::{resolve_machine, scheduler_by_slug, MachineError, MachineFiles};

/// Configuration of a [`Service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads for the scheduling pool (`None`: one per available
    /// core).
    pub workers: Option<usize>,
    /// Capacity of the content-addressed result cache, in entries.
    pub cache_capacity: usize,
    /// Whether the cache is enabled at all (individual requests can also
    /// opt out with `"cache":false`).
    pub cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: None,
            cache_capacity: 4096,
            cache: true,
        }
    }
}

/// Resolves one machine entry of a schedule request through the shared
/// [`resolve_machine`] registry under the service policy
/// ([`MachineFiles::Deny`] — a remote client must not be able to read
/// server-side files), attaching span diagnostics when inline `.machine`
/// text fails to parse.
fn resolve_machine_request(id: &Value, text: &str) -> Result<Machine, RequestError> {
    resolve_machine(text, MachineFiles::Deny).map_err(|e| match e {
        MachineError::InlineParse { .. } => RequestError {
            id: id.clone(),
            message: e.to_string(),
            diagnostics: lint_machine_source(text)
                .iter()
                .map(|d| d.render_json("machine"))
                .collect(),
        },
        other => RequestError::new(id.clone(), other.to_string()),
    })
}

use crate::json::Value;

/// The most bytes a request line may hold before its newline (16 MiB):
/// far above any real request, and a bound on what one client can make
/// the service buffer.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// Reads the next line of `reader` into `line`, without its newline.
/// Returns `None` at the end of the input, `Some(true)` for a line that
/// fits [`MAX_REQUEST_LINE`] and `Some(false)` for one that does not; the
/// rest of an over-long line is consumed but not kept.
fn read_request_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
    line.clear();
    let (mut read_any, mut fits) = (false, true);
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(read_any.then_some(fits));
        }
        read_any = true;
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = &available[..newline.unwrap_or(available.len())];
        if fits && line.len() + chunk.len() <= MAX_REQUEST_LINE {
            line.extend_from_slice(chunk);
        } else if fits {
            fits = false;
            line.clear();
        }
        let used = chunk.len() + usize::from(newline.is_some());
        reader.consume(used);
        if newline.is_some() {
            return Ok(Some(fits));
        }
    }
}

/// The batch scheduling service. See the module docs for the guarantees.
#[derive(Debug)]
pub struct Service {
    engine: BatchEngine,
    cache: ResultCache<String>,
    cache_enabled: bool,
    /// Distinct machine digests seen per loop-core fingerprint over every
    /// schedule request, cold or cached — the `stats` breakdown that makes
    /// multi-machine batches observable (one core amortised across N
    /// machine keys).
    seen: HashMap<u64, HashSet<u64>>,
    requests: u64,
    results: u64,
    errors: u64,
}

impl Service {
    /// A service with the given configuration.
    pub fn new(config: &ServeConfig) -> Self {
        Service {
            engine: match config.workers {
                Some(n) => BatchEngine::with_workers(n),
                None => BatchEngine::new(),
            },
            cache: ResultCache::with_capacity(config.cache_capacity),
            cache_enabled: config.cache,
            seen: HashMap::new(),
            requests: 0,
            results: 0,
            errors: 0,
        }
    }

    /// The cache counters (also exposed to clients via the `stats`
    /// request).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Handles one request line, passing each response line (without the
    /// trailing newline) to `emit`. Returns `true` when the line was a
    /// `shutdown` request and the service should close.
    ///
    /// Blank lines are ignored. Every failure mode — bad JSON, unknown
    /// verbs, unresolvable schedulers/machines, unparsable loops — is
    /// answered with a `stage:"request"` error record; the connection is
    /// never the casualty of a bad request.
    pub fn handle_line(&mut self, line: &str, emit: &mut dyn FnMut(&str)) -> bool {
        if line.trim().is_empty() {
            return false;
        }
        match parse_request(line) {
            Err(e) => {
                emit(&request_error_record(&e));
                false
            }
            Ok(Request::Stats { id }) => {
                emit(&stats_record(
                    &id,
                    self.cache.stats(),
                    self.seen.len(),
                    self.seen.values().map(HashSet::len).sum(),
                    self.requests,
                    self.results,
                    self.errors,
                ));
                false
            }
            Ok(Request::Shutdown { id }) => {
                emit(&bye_record(&id));
                true
            }
            Ok(Request::Schedule(request)) => {
                match self.handle_schedule(&request) {
                    Ok(records) => {
                        for record in &records {
                            emit(record);
                        }
                    }
                    Err(e) => emit(&request_error_record(&e)),
                }
                false
            }
        }
    }

    /// Parses every loop entry, flattening multi-loop `.loop` entries and
    /// multi-digraph DOT entries in order. A parse failure rejects the whole request (the index ↔ loop
    /// correspondence would otherwise be ambiguous) with span diagnostics
    /// for the offending entry.
    fn parse_request_loops(id: &Value, entries: &[String]) -> Result<Vec<Ddg>, Box<RequestError>> {
        let mut loops = Vec::new();
        for (i, text) in entries.iter().enumerate() {
            let path = || format!("loops[{i}]");
            match parse_loop_source(text) {
                Ok(parsed) if parsed.is_empty() => {
                    return Err(Box::new(RequestError::new(
                        id.clone(),
                        format!("{} contains no loops", path()),
                    )));
                }
                Ok(parsed) => loops.extend(parsed),
                Err(e) => {
                    let path = path();
                    let lints = if looks_like_dot(text) {
                        lint_dot_source(text, None)
                    } else {
                        lint_loop_source(text, None)
                    };
                    return Err(Box::new(RequestError {
                        id: id.clone(),
                        message: format!("{path} does not parse: {e}"),
                        diagnostics: lints.iter().map(|d| d.render_json(&path)).collect(),
                    }));
                }
            }
        }
        Ok(loops)
    }

    fn handle_schedule(&mut self, request: &ScheduleRequest) -> Result<Vec<String>, RequestError> {
        let ScheduleRequest { id, .. } = request;
        let scheduler = scheduler_by_slug(&request.scheduler).ok_or_else(|| {
            RequestError::new(
                id.clone(),
                format!(
                    "unknown scheduler `{}` (known: {}, or `feedback:<slug>`)",
                    request.scheduler,
                    crate::registry::SCHEDULER_SLUGS.join(", ")
                ),
            )
        })?;
        // A `"feedback":{...}` option wraps the named scheduler in the
        // iterative rescheduler. The wrapper's display name embeds the
        // feedback configuration, so the cache keys derived from
        // `scheduler.name()` below keep differently-configured feedback
        // results apart (and apart from one-shot results).
        let scheduler = match request.feedback {
            Some(config) => crate::registry::wrap_feedback(scheduler, config),
            None => scheduler,
        };
        let machines = request
            .machines
            .iter()
            .map(|text| resolve_machine_request(id, text))
            .collect::<Result<Vec<Machine>, RequestError>>()?;
        let loops = Self::parse_request_loops(id, &request.loops).map_err(|e| *e)?;

        self.requests += 1;
        let scheduler_name = scheduler.name().to_string();
        let core_fps: Vec<u64> = loops.iter().map(ddg_fingerprint).collect();
        let machine_digests: Vec<u64> = machines.iter().map(machine_fingerprint).collect();
        // Cells are loop-major: the record for loop `l` on machine `m` has
        // index `l * machines.len() + m`, so single-machine requests keep
        // their historical loop-per-record indexing.
        let mut keys = Vec::with_capacity(core_fps.len() * machine_digests.len());
        for &fp in &core_fps {
            for &digest in &machine_digests {
                keys.push(cache_key(fp, digest, &scheduler_name));
            }
        }
        for &fp in &core_fps {
            let digests = self.seen.entry(fp).or_default();
            digests.extend(machine_digests.iter().copied());
        }

        // One pass over the cells, in order: a key already seen in this
        // request is a duplicate (a reuse hit when caching), a new key is
        // looked up only when caching, and the rest are queued for one
        // engine call. A cold request (`"cache":false`, `"timing":true` or
        // `--no-cache`) reads, writes and counts nothing; either way each
        // distinct cell is scheduled once. All lookups come before all
        // inserts.
        let use_cache = self.cache_enabled && request.cache && !request.timing;
        let columns = machines.len();
        let mut seen_keys = HashSet::with_capacity(keys.len());
        let mut queued: Vec<usize> = Vec::new();
        for (cell, &key) in keys.iter().enumerate() {
            if !seen_keys.insert(key) {
                if use_cache {
                    self.cache.count_reuse_hit();
                }
            } else if !(use_cache && self.cache.get(key).is_some()) {
                queued.push(cell);
            }
        }
        let cells: Vec<Cell<'_>> = queued
            .iter()
            .map(|&cell| -> Cell<'_> {
                (
                    &*scheduler,
                    &loops[cell / columns],
                    &machines[cell % columns],
                )
            })
            .collect();
        let outcomes = self.engine.schedule_cells(&cells);
        let options = ReportOptions {
            timing: request.timing,
        };
        // One body per scheduled key: the rendered report line on success,
        // the rendered error line on failure. A cache hit has none here; its
        // records splice the cached line.
        let mut bodies: HashMap<u64, Result<String, String>> = HashMap::with_capacity(queued.len());
        for (&cell, outcome) in queued.iter().zip(outcomes) {
            let (l, m) = (cell / columns, cell % columns);
            let (ddg, machine) = (&loops[l], &machines[m]);
            let body = match outcome {
                Ok(outcome) => {
                    let digests = ReportDigests {
                        loop_digest: core_fps[l],
                        machine_digest: machine_digests[m],
                        cache_key: keys[cell],
                    };
                    Ok(report_line_with_digests(
                        ddg,
                        machine,
                        &scheduler_name,
                        &outcome,
                        options,
                        &digests,
                    ))
                }
                Err(e) => Err(error_line(
                    ddg.name(),
                    &scheduler_name,
                    machine.name(),
                    &e.to_string(),
                )),
            };
            bodies.insert(keys[cell], body);
        }

        let id_json = id.to_json();
        let mut records = Vec::with_capacity(keys.len() + 1);
        let mut errors = 0usize;
        for (index, key) in keys.iter().enumerate() {
            let line = match bodies.get(key) {
                Some(body) => body.as_deref().map_err(String::as_str),
                None => Ok(self
                    .cache
                    .peek(*key)
                    .expect("a hit stays cached until this request's inserts")
                    .as_str()),
            };
            errors += usize::from(line.is_err());
            records.push(cell_record_for(&id_json, index, line));
        }
        // The new lines go into the cache last, in scheduling order, so no
        // hit of this request is evicted before its records are written.
        // Errors are answered but not cached: a transient failure (e.g. a
        // contained panic) must not poison future requests for the same key.
        if use_cache {
            for &cell in &queued {
                if let Some(Ok(line)) = bodies.remove(&keys[cell]) {
                    self.cache.insert(keys[cell], line);
                }
            }
        }
        let results = keys.len() - errors;
        self.results += results as u64;
        self.errors += errors as u64;
        records.push(done_record_for(&id_json, results, errors));
        Ok(records)
    }

    /// Drives the service over a reader/writer pair: one request per line
    /// in, the response lines out, flushed after every request so pipe and
    /// socket clients see results as soon as they exist.
    ///
    /// Lines are read as bytes: a line that is not valid UTF-8, or that
    /// holds more than [`MAX_REQUEST_LINE`] bytes before its newline, is
    /// answered with a `stage:"request"` error record with a `null` id,
    /// like any other malformed request, and reading goes on after it. An
    /// over-long line is skipped without being buffered.
    ///
    /// Returns `Ok(true)` when the stream ended with a `shutdown` request,
    /// `Ok(false)` on EOF. Either way all received requests were answered
    /// in full before returning (drain semantics).
    pub fn run<R: BufRead, W: Write>(&mut self, mut reader: R, mut writer: W) -> io::Result<bool> {
        let mut line = Vec::new();
        let mut responses = String::new();
        while let Some(fits) = read_request_line(&mut reader, &mut line)? {
            responses.clear();
            let mut respond = |record: &str| {
                responses.push_str(record);
                responses.push('\n');
            };
            let line = line.strip_suffix(b"\r").unwrap_or(&line);
            let text = if fits {
                std::str::from_utf8(line).map_err(|e| format!("request is not valid UTF-8: {e}"))
            } else {
                Err(format!(
                    "request line is longer than the limit of {MAX_REQUEST_LINE} bytes"
                ))
            };
            let shutdown = match text {
                Ok(text) => self.handle_line(text, &mut respond),
                Err(message) => {
                    respond(&request_error_record(&RequestError::new(
                        Value::Null,
                        message,
                    )));
                    false
                }
            };
            writer.write_all(responses.as_bytes())?;
            writer.flush()?;
            if shutdown {
                return Ok(true);
            }
        }
        writer.flush()?;
        Ok(false)
    }

    /// Convenience for in-process use (tests, the CLI's string-driven pipe
    /// mode): processes every request line of `input` and returns the full
    /// response text plus whether a `shutdown` request was seen.
    pub fn process(&mut self, input: &str) -> (String, bool) {
        let mut out = Vec::new();
        let shutdown = self
            .run(io::Cursor::new(input), &mut out)
            .expect("in-memory I/O cannot fail");
        (
            String::from_utf8(out).expect("responses are UTF-8"),
            shutdown,
        )
    }

    /// Binds a Unix socket at `path` and serves connections until one of
    /// them sends a `shutdown` request.
    ///
    /// Connections are accepted one at a time — the parallelism of this
    /// service lives in the scheduling pool, and a single reader keeps the
    /// result cache lock-free. A connection that breaks mid-request (I/O
    /// error) is dropped and the next one is accepted; only `shutdown`
    /// (from any client) stops the service. A stale socket file from a
    /// previous run is replaced; the file is removed on clean shutdown.
    pub fn serve_unix(&mut self, path: &Path) -> io::Result<()> {
        use std::os::unix::fs::FileTypeExt;
        use std::os::unix::net::UnixListener;
        // Re-binding over a dead service's socket must work; refuse only
        // if the path exists and is not a socket.
        match std::fs::symlink_metadata(path) {
            Ok(meta) if !meta.file_type().is_socket() => {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("`{}` exists and is not a socket", path.display()),
                ));
            }
            Ok(_) => std::fs::remove_file(path)?,
            Err(_) => {}
        }
        let listener = UnixListener::bind(path)?;
        for stream in listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let reader = match stream.try_clone() {
                Ok(clone) => BufReader::new(clone),
                Err(_) => continue,
            };
            // EOF and broken connections keep serving; only shutdown stops.
            if let Ok(true) = self.run(reader, &stream) {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

impl Default for Service {
    fn default() -> Self {
        Service::new(&ServeConfig::default())
    }
}
