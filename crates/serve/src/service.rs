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
//! * **Each loop is analysed once per request.** All machines a request
//!   names share one [`hrms_ddg::LoopCore`] per loop; only the
//!   resource-dependent placement differs between cells.
//! * **Each distinct loop is paid for once.** Results are cached under
//!   the content-addressed [`hrms_ddg::cache_key`]; duplicate entries —
//!   within one batch or across requests — are served from cache, and
//!   the hit/miss/eviction counters are observable via `stats`.
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
use std::sync::Arc;

use hrms_ddg::{cache_key, ddg_fingerprint, dot, parse_loops, Ddg, LoopCore};
use hrms_engine::{schedule_cell_with_core, BatchEngine, CacheStats, ResultCache};
use hrms_machine::{machine_fingerprint, Machine};
use hrms_modsched::{error_line, report_line, ReportOptions};
use hrms_verify::{lint_dot_source, lint_loop_source, lint_machine_source};

use crate::protocol::{
    bye_record, cell_error_record, done_record, looks_like_dot, parse_request,
    request_error_record, result_record, stats_record, Request, RequestError, ScheduleRequest,
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
pub fn resolve_machine_request(id: &Value, text: &str) -> Result<Machine, RequestError> {
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

/// One record body for a scheduled cell: the rendered report line on
/// success, the rendered error line on failure.
#[derive(Debug, Clone)]
enum CellBody {
    Ok(String),
    Err(String),
}

/// The batch scheduling service. See the module docs for the guarantees.
#[derive(Debug)]
pub struct Service {
    engine: BatchEngine,
    cache: ResultCache<String>,
    cache_enabled: bool,
    /// Distinct machine digests seen per loop-core fingerprint on the
    /// caching path — the `stats` breakdown that makes multi-machine
    /// batches observable (one core amortised across N machine keys).
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

    /// Parses every loop entry, flattening multi-loop `.loop` entries in
    /// order. A parse failure rejects the whole request (the index ↔ loop
    /// correspondence would otherwise be ambiguous) with span diagnostics
    /// for the offending entry.
    fn parse_request_loops(id: &Value, entries: &[String]) -> Result<Vec<Ddg>, Box<RequestError>> {
        let mut loops = Vec::new();
        for (i, text) in entries.iter().enumerate() {
            let path = format!("loops[{i}]");
            let parsed = if looks_like_dot(text) {
                dot::from_dot(text).map(|g| vec![g]).map_err(|e| (e, true))
            } else {
                parse_loops(text).map_err(|e| (e, false))
            };
            match parsed {
                Ok(parsed) if parsed.is_empty() => {
                    return Err(Box::new(RequestError::new(
                        id.clone(),
                        format!("{path} contains no loops"),
                    )));
                }
                Ok(parsed) => loops.extend(parsed),
                Err((e, is_dot)) => {
                    let lints = if is_dot {
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

        let use_cache = self.cache_enabled && request.cache && !request.timing;
        let bodies: HashMap<u64, CellBody> = if use_cache {
            self.cached_bodies(&scheduler_name, &*scheduler, &loops, &machines, &keys)
        } else {
            // A cold run: every cell is scheduled independently — no
            // dedup, no cache reads or writes, no counter movement (one
            // analysis core per loop is still shared across machines).
            // This is the baseline the cache contract is tested against.
            let matrix = self
                .engine
                .schedule_matrix(&[&*scheduler], &loops, &machines);
            let options = ReportOptions {
                timing: request.timing,
            };
            // Later duplicates overwrite earlier ones with identical
            // bytes (deterministic schedulers), so the map is still one
            // body per key.
            let mut bodies = HashMap::new();
            let per_loop = matrix.into_iter().next().expect("one scheduler");
            for (l, per_machine) in per_loop.into_iter().enumerate() {
                for (m, outcome) in per_machine.into_iter().enumerate() {
                    let body = match outcome {
                        Ok(outcome) => CellBody::Ok(report_line(
                            &loops[l],
                            &machines[m],
                            &scheduler_name,
                            &outcome,
                            options,
                        )),
                        Err(e) => CellBody::Err(error_line(
                            loops[l].name(),
                            &scheduler_name,
                            machines[m].name(),
                            &e.to_string(),
                        )),
                    };
                    bodies.insert(keys[l * machines.len() + m], body);
                }
            }
            bodies
        };

        let cells = keys.len();
        let mut records = Vec::with_capacity(cells + 1);
        let mut errors = 0usize;
        for (index, &key) in keys.iter().enumerate() {
            match &bodies[&key] {
                CellBody::Ok(body) => records.push(result_record(id, index, body)),
                CellBody::Err(body) => {
                    errors += 1;
                    records.push(cell_error_record(id, index, body));
                }
            }
        }
        self.results += (cells - errors) as u64;
        self.errors += errors as u64;
        records.push(done_record(id, cells - errors, errors));
        Ok(records)
    }

    /// The caching path: consult the cache per distinct key, schedule each
    /// distinct miss exactly once across the pool, and populate the cache
    /// with the successful records. Every cell counts as exactly one hit
    /// or miss: the first occurrence of a key is a real lookup, batch-local
    /// duplicates count as hits (they are served from the in-flight
    /// result). Misses that share a loop share one analysis core, so the
    /// machine-independent analysis is paid once per loop however many
    /// machines the request names.
    fn cached_bodies(
        &mut self,
        scheduler_name: &str,
        scheduler: &(dyn hrms_modsched::ModuloScheduler + Sync),
        loops: &[Ddg],
        machines: &[Machine],
        keys: &[u64],
    ) -> HashMap<u64, CellBody> {
        let mut bodies: HashMap<u64, CellBody> = HashMap::new();
        let mut to_schedule: Vec<usize> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            if bodies.contains_key(&key) || to_schedule.iter().any(|&j| keys[j] == key) {
                self.cache.count_reuse_hit();
            } else if let Some(cached) = self.cache.get(key) {
                bodies.insert(key, CellBody::Ok(cached.clone()));
            } else {
                to_schedule.push(i);
            }
        }

        let cores: Vec<Arc<LoopCore>> = loops.iter().map(|_| Arc::new(LoopCore::new())).collect();
        let outcomes = self.engine.map(&to_schedule, |_, &cell| {
            let (l, m) = (cell / machines.len(), cell % machines.len());
            schedule_cell_with_core(scheduler, &loops[l], &machines[m], &cores[l])
        });
        for (&cell, outcome) in to_schedule.iter().zip(outcomes) {
            let (l, m) = (cell / machines.len(), cell % machines.len());
            let key = keys[cell];
            match outcome {
                Ok(outcome) => {
                    let body = report_line(
                        &loops[l],
                        &machines[m],
                        scheduler_name,
                        &outcome,
                        ReportOptions { timing: false },
                    );
                    self.cache.insert(key, body.clone());
                    bodies.insert(key, CellBody::Ok(body));
                }
                Err(e) => {
                    // Errors are answered but not cached: a transient
                    // failure (e.g. a contained panic) must not poison
                    // future requests for the same key.
                    bodies.insert(
                        key,
                        CellBody::Err(error_line(
                            loops[l].name(),
                            scheduler_name,
                            machines[m].name(),
                            &e.to_string(),
                        )),
                    );
                }
            }
        }
        bodies
    }

    /// Drives the service over a reader/writer pair: one request per line
    /// in, the response lines out, flushed after every request so pipe and
    /// socket clients see results as soon as they exist.
    ///
    /// Lines are read as bytes: a line that is not valid UTF-8 is answered
    /// with a `stage:"request"` error record with a `null` id, like any
    /// other malformed request, and reading goes on.
    ///
    /// Returns `Ok(true)` when the stream ended with a `shutdown` request,
    /// `Ok(false)` on EOF. Either way all received requests were answered
    /// in full before returning (drain semantics).
    pub fn run<R: BufRead, W: Write>(&mut self, reader: R, mut writer: W) -> io::Result<bool> {
        for line in reader.split(b'\n') {
            let line = line?;
            let line = line.strip_suffix(b"\r").unwrap_or(&line);
            let mut responses: Vec<String> = Vec::new();
            let shutdown = match std::str::from_utf8(line) {
                Ok(line) => self.handle_line(line, &mut |record| responses.push(record.into())),
                Err(e) => {
                    let message = format!("request is not valid UTF-8: {e}");
                    responses.push(request_error_record(&RequestError::new(
                        Value::Null,
                        message,
                    )));
                    false
                }
            };
            for record in &responses {
                writer.write_all(record.as_bytes())?;
                writer.write_all(b"\n")?;
            }
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
