//! Protocol-level tests of the batch scheduling service, driven entirely
//! in-process through [`Service::process`] — the same code path the `hrms
//! serve` binary streams, byte for byte.
//!
//! Covered here: the happy path, input-order streaming under the worker
//! pool, malformed-request diagnostics, per-cell failure containment
//! (scheduling errors and contained panics), cache behaviour visible at
//! the protocol level, and shutdown/drain semantics including the Unix
//! socket transport. The cache *contract* at scale has its own suite in
//! `tests/serve_soak.rs`.

use hrms_repro::serve::json::{self, Value};
use hrms_repro::serve::{ServeConfig, Service, MAX_REQUEST_LINE};

mod corpus;

use corpus::quoted;

/// A tiny distinct `.loop` source: the name alone changes the fingerprint.
fn loop_text(name: &str) -> String {
    format!("loop {name}\nnode a load latency=2\nnode b fadd latency=1\nedge a -> b flow\nend\n")
}

fn schedule_request(id: &str, loops: &[String]) -> String {
    let entries: Vec<String> = loops.iter().map(|l| quoted(l)).collect();
    format!(
        "{{\"req\":\"schedule\",\"id\":{id},\"loops\":[{}]}}\n",
        entries.join(",")
    )
}

/// Parses a response line and returns the object's fields by key.
fn fields(line: &str) -> Value {
    json::parse(line).unwrap_or_else(|e| panic!("response is not JSON ({e}): {line}"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {v:?}"))
}

fn num_field(v: &Value, key: &str) -> i64 {
    match v.get(key) {
        Some(Value::Num(raw)) => raw.parse().unwrap_or_else(|_| panic!("`{key}`={raw}")),
        other => panic!("missing number `{key}`: {other:?}"),
    }
}

#[test]
fn happy_path_streams_one_result_per_loop_plus_done() {
    let mut service = Service::default();
    let input = schedule_request("1", &[loop_text("alpha"), loop_text("beta")]);
    let (out, shutdown) = service.process(&input);
    assert!(!shutdown);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "2 results + done:\n{out}");
    for (i, name) in ["alpha", "beta"].iter().enumerate() {
        let v = fields(lines[i]);
        assert_eq!(str_field(&v, "type"), "result");
        assert_eq!(num_field(&v, "id"), 1);
        assert_eq!(num_field(&v, "index"), i as i64);
        assert_eq!(str_field(&v, "loop"), *name);
        assert_eq!(str_field(&v, "scheduler"), "HRMS");
        assert_eq!(str_field(&v, "machine"), "govindarajan-4fu");
        assert!(num_field(&v, "ii") >= 1);
    }
    let done = fields(lines[2]);
    assert_eq!(str_field(&done, "type"), "done");
    assert_eq!(num_field(&done, "results"), 2);
    assert_eq!(num_field(&done, "errors"), 0);
}

#[test]
fn results_come_back_in_input_order_under_the_pool() {
    // Many distinct loops across a small pool: whatever order the workers
    // finish in, the stream must be index 0, 1, 2, ... with each index
    // naming the loop that sat at that position in the request.
    let mut service = Service::new(&ServeConfig {
        workers: Some(4),
        ..ServeConfig::default()
    });
    let names: Vec<String> = (0..40).map(|i| format!("l{i:02}")).collect();
    let loops: Vec<String> = names.iter().map(|n| loop_text(n)).collect();
    let (out, _) = service.process(&schedule_request("7", &loops));
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), names.len() + 1);
    for (i, name) in names.iter().enumerate() {
        let v = fields(lines[i]);
        assert_eq!(num_field(&v, "index"), i as i64);
        assert_eq!(str_field(&v, "loop"), name, "line {i} out of order");
    }
}

#[test]
fn malformed_requests_answer_with_diagnostics_and_the_connection_survives() {
    let mut service = Service::default();
    let good = loop_text("ok");
    let input = [
        "{not json\n".to_string(),
        "{\"req\":\"frobnicate\",\"id\":\"f\"}\n".to_string(),
        format!(
            "{{\"req\":\"schedule\",\"id\":3,\"loops\":[{}]}}\n",
            quoted("loop broken\nnode a\nend\n")
        ),
        format!(
            "{{\"req\":\"schedule\",\"id\":4,\"scheduler\":\"nope\",\"loops\":[{}]}}\n",
            quoted(&good)
        ),
        schedule_request("5", std::slice::from_ref(&good)),
    ]
    .concat();
    let (out, shutdown) = service.process(&input);
    assert!(!shutdown);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 6, "4 errors, then a result + done:\n{out}");

    let bad_json = fields(lines[0]);
    assert_eq!(str_field(&bad_json, "type"), "error");
    assert_eq!(str_field(&bad_json, "stage"), "request");
    assert_eq!(bad_json.get("id"), Some(&Value::Null));
    assert!(str_field(&bad_json, "error").contains("not valid JSON"));

    let bad_verb = fields(lines[1]);
    assert_eq!(
        str_field(&bad_verb, "id"),
        "f",
        "id echoed when recoverable"
    );
    assert!(str_field(&bad_verb, "error").contains("unknown request"));

    // An unparsable loop entry is rejected with the lint pass's span
    // diagnostics, addressed to the entry's position in the request.
    let bad_loop = fields(lines[2]);
    assert_eq!(str_field(&bad_loop, "stage"), "request");
    assert!(
        str_field(&bad_loop, "error").contains("loops[0] does not parse"),
        "{}",
        lines[2]
    );
    let diags = bad_loop
        .get("diagnostics")
        .and_then(Value::as_array)
        .expect("diagnostics array");
    assert!(!diags.is_empty());
    assert_eq!(str_field(&diags[0], "file"), "loops[0]");
    assert!(str_field(&diags[0], "code").starts_with('L'));

    let bad_sched = fields(lines[3]);
    assert!(str_field(&bad_sched, "error").contains("unknown scheduler `nope`"));

    // And the same connection still schedules fine afterwards.
    assert_eq!(str_field(&fields(lines[4]), "type"), "result");
    assert_eq!(str_field(&fields(lines[5]), "type"), "done");
}

#[test]
fn a_non_utf8_line_is_a_request_error_and_reading_goes_on() {
    let mut service = Service::default();
    let input = b"{\"req\":\"stats\",\"id\":1}\n\xff\n{\"req\":\"stats\",\"id\":3}\n".to_vec();
    let mut out = Vec::new();
    let shutdown = service
        .run(std::io::Cursor::new(input), &mut out)
        .expect("in-memory I/O cannot fail");
    assert!(!shutdown, "EOF, not shutdown");
    let out = String::from_utf8(out).expect("responses are UTF-8");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "stats, error, stats:\n{out}");
    assert_eq!(str_field(&fields(lines[0]), "type"), "stats");
    let bad = fields(lines[1]);
    assert_eq!(str_field(&bad, "type"), "error");
    assert_eq!(str_field(&bad, "stage"), "request");
    assert_eq!(bad.get("id"), Some(&Value::Null));
    assert!(
        str_field(&bad, "error").contains("not valid UTF-8"),
        "{}",
        lines[1]
    );
    let last = fields(lines[2]);
    assert_eq!(str_field(&last, "type"), "stats");
    assert_eq!(num_field(&last, "id"), 3);
}

#[test]
fn an_over_long_line_is_a_request_error_and_reading_goes_on() {
    let mut service = Service::default();
    // A request padded with spaces to exactly the limit is read whole; a
    // line one byte longer is answered with an error and skipped.
    let request = "{\"req\":\"stats\",\"id\":2}";
    let at_limit = format!("{request}{}", " ".repeat(MAX_REQUEST_LINE - request.len()));
    assert_eq!(at_limit.len(), MAX_REQUEST_LINE);
    let mut input = b"{\"req\":\"stats\",\"id\":1}\n".to_vec();
    input.extend_from_slice(at_limit.as_bytes());
    input.extend_from_slice(b"\n");
    input.extend(std::iter::repeat_n(b'x', MAX_REQUEST_LINE + 1));
    input.extend_from_slice(b"\n{\"req\":\"stats\",\"id\":3}\n");
    let mut out = Vec::new();
    let shutdown = service
        .run(std::io::Cursor::new(input), &mut out)
        .expect("in-memory I/O cannot fail");
    assert!(!shutdown, "EOF, not shutdown");
    let out = String::from_utf8(out).expect("responses are UTF-8");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "stats, stats, error, stats:\n{out}");
    assert_eq!(num_field(&fields(lines[0]), "id"), 1);
    assert_eq!(num_field(&fields(lines[1]), "id"), 2);
    let bad = fields(lines[2]);
    assert_eq!(str_field(&bad, "type"), "error");
    assert_eq!(str_field(&bad, "stage"), "request");
    assert_eq!(bad.get("id"), Some(&Value::Null));
    assert_eq!(
        str_field(&bad, "error"),
        format!("request line is longer than the limit of {MAX_REQUEST_LINE} bytes")
    );
    let last = fields(lines[3]);
    assert_eq!(str_field(&last, "type"), "stats");
    assert_eq!(num_field(&last, "id"), 3);
}

#[test]
fn machines_resolve_as_presets_or_inline_text_but_never_files() {
    let mut service = Service::default();
    let inline = hrms_repro::machine::write_machine(&hrms_repro::machine::presets::perfect_club());
    let good = loop_text("m");
    let input = [
        format!(
            "{{\"req\":\"schedule\",\"id\":1,\"machine\":{},\"loops\":[{}]}}\n",
            quoted(&inline),
            quoted(&good)
        ),
        format!(
            "{{\"req\":\"schedule\",\"id\":2,\"machine\":{},\"loops\":[{}]}}\n",
            quoted("machine m\n  zzz\nend\n"),
            quoted(&good)
        ),
        format!(
            "{{\"req\":\"schedule\",\"id\":3,\"machine\":\"/etc/passwd\",\"loops\":[{}]}}\n",
            quoted(&good)
        ),
    ]
    .concat();
    let (out, _) = service.process(&input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "{out}");

    let v = fields(lines[0]);
    assert_eq!(str_field(&v, "type"), "result");
    assert_eq!(str_field(&v, "machine"), "perfect-club-8fu");

    // Broken inline text gets the machine lint's span diagnostics.
    let bad = fields(lines[2]);
    assert_eq!(str_field(&bad, "stage"), "request");
    assert!(str_field(&bad, "error").contains("inline machine does not parse"));
    let diags = bad.get("diagnostics").and_then(Value::as_array).unwrap();
    assert!(diags.iter().any(|d| str_field(d, "code").starts_with('M')));

    // A path is just a bad preset name: the service never reads files for
    // a client.
    let path = fields(lines[3]);
    assert!(
        str_field(&path, "error").contains("not a machine preset"),
        "{}",
        lines[3]
    );
}

#[test]
fn failing_cells_become_error_records_and_spare_the_batch() {
    let mut service = Service::default();
    // Index 1 carries a zero-distance dependence cycle: it parses, but no
    // scheduler can honour it, so the cell fails while its neighbours
    // schedule normally.
    let impossible = "loop impossible\nnode a fadd latency=1\nnode b fadd latency=1\n\
                      edge a -> b flow\nedge b -> a flow\nend\n"
        .to_string();
    let input = schedule_request("1", &[loop_text("before"), impossible, loop_text("after")]);
    let (out, _) = service.process(&input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4);
    assert_eq!(str_field(&fields(lines[0]), "type"), "result");
    let err = fields(lines[1]);
    assert_eq!(str_field(&err, "type"), "error");
    assert_eq!(str_field(&err, "stage"), "schedule");
    assert_eq!(num_field(&err, "index"), 1);
    assert_eq!(str_field(&err, "loop"), "impossible");
    assert!(!str_field(&err, "error").is_empty());
    assert_eq!(str_field(&fields(lines[2]), "type"), "result");
    let done = fields(lines[3]);
    assert_eq!(num_field(&done, "results"), 2);
    assert_eq!(num_field(&done, "errors"), 1);
}

#[test]
fn a_loop_whose_mii_exceeds_the_ii_cap_is_a_cell_error_and_serving_goes_on() {
    // RecMII 2·10⁹ fits in u32 but is above MAX_II: the cell fails before
    // any reservation table is sized, and the request after it is still
    // answered.
    let mut service = Service::default();
    let huge = corpus::repo_file("tests/fixtures/huge_ii.loop");
    let input = [
        schedule_request("1", &[loop_text("before")]),
        schedule_request("2", &[huge]),
        schedule_request("3", &[loop_text("after")]),
    ]
    .concat();
    let (out, shutdown) = service.process(&input);
    assert!(!shutdown);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 6, "a record and done per request:\n{out}");
    let err = fields(lines[2]);
    assert_eq!(str_field(&err, "type"), "error");
    assert_eq!(str_field(&err, "stage"), "schedule");
    assert_eq!(num_field(&err, "id"), 2);
    assert_eq!(str_field(&err, "loop"), "huge_ii");
    assert!(
        str_field(&err, "error").contains("no valid schedule found for any II up to 1048576"),
        "{}",
        lines[2]
    );
    let after = fields(lines[4]);
    assert_eq!(str_field(&after, "type"), "result");
    assert_eq!(num_field(&after, "id"), 3);
    assert_eq!(str_field(&after, "loop"), "after");
    for (line, id) in [(1, 1), (3, 2), (5, 3)] {
        let done = fields(lines[line]);
        assert_eq!(str_field(&done, "type"), "done");
        assert_eq!(num_field(&done, "id"), id);
    }
}

#[test]
fn a_dot_entry_with_two_digraphs_yields_a_record_per_digraph() {
    // The CLI and the service read a loop source alike: a DOT text of two
    // digraphs back to back is two loops, flattened in order.
    let text = "digraph a { x -> y; }\ndigraph b { p -> q; }\n".to_string();
    let cli_out = hrms_repro::cli::run(
        &["schedule", "-", "--emit", "json"].map(String::from),
        &text,
    )
    .expect("both digraphs schedule");
    let cli_lines: Vec<&str> = cli_out.lines().collect();
    assert_eq!(cli_lines.len(), 2, "{cli_out}");

    let (out, _) = Service::default().process(&schedule_request("1", &[text]));
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "2 results + done:\n{out}");
    for (i, (name, cli_line)) in ["a", "b"].iter().zip(&cli_lines).enumerate() {
        let v = fields(lines[i]);
        assert_eq!(str_field(&v, "type"), "result");
        assert_eq!(num_field(&v, "index"), i as i64);
        assert_eq!(str_field(&v, "loop"), *name);
        // The record is the CLI line plus the envelope, byte for byte.
        assert!(
            lines[i].ends_with(&cli_line[1..]),
            "service: {}\ncli:     {cli_line}",
            lines[i]
        );
    }
    assert_eq!(num_field(&fields(lines[2]), "results"), 2);
}

#[test]
fn panicking_cells_are_contained_with_the_payload_and_location() {
    let mut service = Service::default();
    let input = format!(
        "{{\"req\":\"schedule\",\"id\":\"boom\",\"scheduler\":\"chaos\",\"loops\":[{},{}]}}\n",
        quoted(&loop_text("v1")),
        quoted(&loop_text("v2"))
    );
    let (out, _) = service.process(&input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "2 cell errors + done:\n{out}");
    for (i, line) in lines[..2].iter().enumerate() {
        let v = fields(line);
        assert_eq!(str_field(&v, "type"), "error");
        assert_eq!(str_field(&v, "stage"), "schedule");
        assert_eq!(num_field(&v, "index"), i as i64);
        let msg = str_field(&v, "error");
        assert!(msg.contains("chaos scheduler always panics"), "{msg}");
        assert!(msg.contains("registry.rs:"), "panic location kept: {msg}");
    }
    let done = fields(lines[2]);
    assert_eq!(num_field(&done, "results"), 0);
    assert_eq!(num_field(&done, "errors"), 2);
    // Errors are not cached: nothing poisoned, nothing stored.
    assert_eq!(service.cache_stats().entries, 0);
}

#[test]
fn duplicates_are_cache_hits_and_replay_the_same_bytes() {
    let mut service = Service::default();
    let l = loop_text("dup");
    let batch = schedule_request("1", &[l.clone(), l.clone(), l.clone()]);
    let (first, _) = service.process(&batch);
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "one distinct loop scheduled once");
    assert_eq!(stats.hits, 2, "batch-local duplicates are hits");

    // A later identical batch is served from cache with identical bytes.
    let (again, _) = service.process(&schedule_request("1", &[l.clone(), l.clone(), l]));
    assert_eq!(first, again, "cached replay is byte-identical");
    assert_eq!(service.cache_stats().hits, 5);
    assert_eq!(service.cache_stats().misses, 1);
}

#[test]
fn cache_false_schedules_cold_and_touches_no_counters() {
    let mut service = Service::default();
    let l = loop_text("cold");
    let input = format!(
        "{{\"req\":\"schedule\",\"id\":1,\"cache\":false,\"loops\":[{},{}]}}\n",
        quoted(&l),
        quoted(&l)
    );
    let (out, _) = service.process(&input);
    assert_eq!(out.lines().count(), 3);
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
}

#[test]
fn a_cold_request_schedules_each_distinct_cell_once() {
    // A single inline worker keeps the scheduling on this thread, so the
    // thread-local instrumentation counters see every analysis run.
    let mut service = Service::new(&ServeConfig {
        workers: Some(1),
        ..ServeConfig::default()
    });
    let l = quoted(&loop_text("twice"));
    let request = |cache: bool| {
        format!(
            "{{\"req\":\"schedule\",\"id\":1,\"cache\":{cache},\
             \"machines\":[\"govindarajan\",\"perfect-club\"],\"loops\":[{l},{l}]}}\n"
        )
    };
    hrms_repro::ddg::instrument::reset();
    let (out, _) = service.process(&request(false));
    assert_eq!(
        hrms_repro::ddg::instrument::tarjan_runs(),
        1,
        "the repeated loop's cells are duplicates, scheduled once"
    );
    assert_eq!(
        out.lines().count(),
        5,
        "2 loops x 2 machines + done:\n{out}"
    );
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    // The same bytes as a caching request, which answers the repeat from
    // its first occurrence.
    let (cached, _) = Service::default().process(&request(true));
    assert_eq!(out, cached);
}

#[test]
fn a_partly_warm_multi_machine_request_answers_the_cold_bytes() {
    let mut service = Service::default();
    let l = quoted(&loop_text("warm"));
    let request = |id: u32, machines: &str| {
        format!("{{\"req\":\"schedule\",\"id\":{id},\"machines\":[{machines}],\"loops\":[{l}]}}\n")
    };
    service.process(&request(1, "\"perfect-club\""));
    let before = service.cache_stats();
    let three = request(2, "\"govindarajan\",\"perfect-club\",\"general-purpose\"");
    let (out, _) = service.process(&three);
    let after = service.cache_stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 2),
        "the warm machine hits, the other two miss"
    );
    let (cold, _) = Service::new(&ServeConfig {
        cache: false,
        ..ServeConfig::default()
    })
    .process(&three);
    assert_eq!(out.lines().count(), 4, "1 loop x 3 machines + done:\n{out}");
    assert_eq!(out, cold);
}

#[test]
fn timing_requests_bypass_the_cache_and_carry_timing_fields() {
    let mut service = Service::default();
    let l = loop_text("timed");
    // Warm the cache first; the timing request must not be served from it
    // (a replayed wall-clock would be a lie).
    service.process(&schedule_request("1", std::slice::from_ref(&l)));
    let input = format!(
        "{{\"req\":\"schedule\",\"id\":2,\"timing\":true,\"loops\":[{}]}}\n",
        quoted(&l)
    );
    let (out, _) = service.process(&input);
    let first = out.lines().next().unwrap();
    assert!(first.contains("\"elapsed_us\":"), "{first}");
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 0, "timing runs never read the cache");
    assert_eq!(stats.misses, 1, "only the warming request moved counters");
}

#[test]
fn the_cache_is_bounded_and_reports_evictions() {
    let mut service = Service::new(&ServeConfig {
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    let loops: Vec<String> = (0..3).map(|i| loop_text(&format!("e{i}"))).collect();
    service.process(&schedule_request("1", &loops));
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.capacity, 2);
}

#[test]
fn stats_requests_expose_the_service_counters() {
    let mut service = Service::default();
    let input = [
        schedule_request("1", &[loop_text("s1"), loop_text("s1")]),
        "{\"req\":\"stats\",\"id\":\"after\"}\n".to_string(),
    ]
    .concat();
    let (out, _) = service.process(&input);
    let stats = fields(out.lines().last().unwrap());
    assert_eq!(str_field(&stats, "type"), "stats");
    assert_eq!(str_field(&stats, "id"), "after");
    assert_eq!(num_field(&stats, "hits"), 1);
    assert_eq!(num_field(&stats, "misses"), 1);
    assert_eq!(num_field(&stats, "requests"), 1);
    assert_eq!(num_field(&stats, "results"), 2);
    assert_eq!(num_field(&stats, "errors"), 0);
}

#[test]
fn feedback_chaos_degrades_to_cell_errors_and_the_connection_survives() {
    // `"feedback": true` around the hidden always-panicking scheduler: the
    // panic unwinds through the iterative rescheduler and is contained at
    // the engine's cell boundary as a structured error record — and the
    // very same connection keeps answering requests afterwards.
    let mut service = Service::default();
    let input = format!(
        "{{\"req\":\"schedule\",\"id\":\"fb-boom\",\"scheduler\":\"chaos\",\
         \"feedback\":true,\"loops\":[{}]}}\n\
         {{\"req\":\"stats\",\"id\":\"after\"}}\n",
        quoted(&loop_text("v1"))
    );
    let (out, shutdown) = service.process(&input);
    assert!(!shutdown);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "1 cell error + done + stats:\n{out}");
    let cell = fields(lines[0]);
    assert_eq!(str_field(&cell, "type"), "error");
    assert_eq!(str_field(&cell, "stage"), "schedule");
    let msg = str_field(&cell, "error");
    assert!(msg.contains("Chaos+feedback[r32,i6,s16]"), "{msg}");
    assert!(msg.contains("chaos scheduler always panics"), "{msg}");
    let done = fields(lines[1]);
    assert_eq!(num_field(&done, "errors"), 1);
    let stats = fields(lines[2]);
    assert_eq!(str_field(&stats, "type"), "stats");
    assert_eq!(num_field(&stats, "errors"), 1);
    // Errors are never cached, feedback or not.
    assert_eq!(service.cache_stats().entries, 0);
}

#[test]
fn feedback_traces_replay_byte_stable_across_cache_miss_and_hit() {
    let mut service = Service::default();
    let l = loop_text("fb");
    // Warm the cache with the one-shot result first: the feedback request
    // must NOT be served from it — the wrapped scheduler's name (and hence
    // the content-addressed key) embeds the feedback configuration.
    service.process(&schedule_request("1", std::slice::from_ref(&l)));
    let fb = format!(
        "{{\"req\":\"schedule\",\"id\":2,\
         \"feedback\":{{\"registers\":8,\"iterations\":4}},\"loops\":[{}]}}\n",
        quoted(&l)
    );
    let (first, _) = service.process(&fb);
    let stats = service.cache_stats();
    assert_eq!(
        stats.misses, 2,
        "the feedback config is part of the cache key"
    );
    let v = fields(first.lines().next().unwrap());
    assert_eq!(str_field(&v, "type"), "result");
    assert_eq!(str_field(&v, "scheduler"), "HRMS+feedback[r8,i4,s16]");
    assert!(
        first.contains("\"feedback\":{\"selected\":"),
        "trace embedded in the report: {first}"
    );
    assert!(first.contains("\"perturbation\":\"baseline\""), "{first}");

    // Replay: the cache hit streams byte-identical records, trace included.
    let (again, _) = service.process(&fb);
    assert_eq!(first, again, "cached feedback replay is byte-identical");
    assert_eq!(service.cache_stats().hits, 1);
    assert_eq!(service.cache_stats().misses, 2);
}

#[test]
fn multi_machine_requests_stream_loop_major_cells() {
    let mut service = Service::default();
    let entries: Vec<String> = [loop_text("alpha"), loop_text("beta")]
        .iter()
        .map(|l| quoted(l))
        .collect();
    let input = format!(
        "{{\"req\":\"schedule\",\"id\":1,\"machines\":[\"govindarajan\",\"perfect-club\",\
         \"general-purpose\"],\"loops\":[{}]}}\n",
        entries.join(",")
    );
    let (out, _) = service.process(&input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 7, "2 loops x 3 machines + done:\n{out}");
    let expected_machines = ["govindarajan-4fu", "perfect-club-8fu", "general-4xL2"];
    for (i, line) in lines[..6].iter().enumerate() {
        let v = fields(line);
        assert_eq!(str_field(&v, "type"), "result");
        assert_eq!(num_field(&v, "index"), i as i64);
        assert_eq!(str_field(&v, "loop"), ["alpha", "beta"][i / 3]);
        assert_eq!(str_field(&v, "machine"), expected_machines[i % 3]);
    }
    let done = fields(lines[6]);
    assert_eq!(num_field(&done, "results"), 6);
    assert_eq!(num_field(&done, "errors"), 0);
}

#[test]
fn multi_machine_requests_pay_one_analysis_per_loop_and_show_in_stats() {
    // A single inline worker keeps the scheduling on this thread, so the
    // thread-local instrumentation counters see every analysis run.
    let mut service = Service::new(&ServeConfig {
        workers: Some(1),
        ..ServeConfig::default()
    });
    let entries: Vec<String> = [loop_text("alpha"), loop_text("beta")]
        .iter()
        .map(|l| quoted(l))
        .collect();
    let input = format!(
        "{{\"req\":\"schedule\",\"id\":1,\"machines\":[\"govindarajan\",\"perfect-club\",\
         \"general-purpose\"],\"loops\":[{}]}}\n{{\"req\":\"stats\",\"id\":2}}\n",
        entries.join(",")
    );
    hrms_repro::ddg::instrument::reset();
    let (out, _) = service.process(&input);
    assert_eq!(
        hrms_repro::ddg::instrument::tarjan_runs(),
        2,
        "one SCC analysis per loop, shared across the three machines"
    );
    let stats = fields(out.lines().last().unwrap());
    assert_eq!(num_field(&stats, "misses"), 6, "every cell is distinct");
    assert_eq!(num_field(&stats, "cores"), 2, "two distinct loop cores");
    assert_eq!(
        num_field(&stats, "core_machine_keys"),
        6,
        "each core fans out to three machine keys"
    );
}

#[test]
fn giving_machine_and_machines_together_is_rejected() {
    let mut service = Service::default();
    let input = format!(
        "{{\"req\":\"schedule\",\"id\":9,\"machine\":\"govindarajan\",\
         \"machines\":[\"perfect-club\"],\"loops\":[{}]}}\n",
        quoted(&loop_text("both"))
    );
    let (out, _) = service.process(&input);
    let v = fields(out.lines().next().unwrap());
    assert_eq!(str_field(&v, "type"), "error");
    assert_eq!(str_field(&v, "stage"), "request");
    assert!(
        str_field(&v, "error").contains("not both"),
        "got: {}",
        str_field(&v, "error")
    );
}

#[test]
fn shutdown_drains_answers_bye_and_stops_reading() {
    let mut service = Service::default();
    let input = [
        schedule_request("1", &[loop_text("drain")]),
        "{\"req\":\"shutdown\",\"id\":\"bye\"}\n".to_string(),
        // Anything after shutdown must never be read, let alone answered.
        schedule_request("99", &[loop_text("ghost")]),
    ]
    .concat();
    let (out, shutdown) = service.process(&input);
    assert!(shutdown);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "result + done + bye:\n{out}");
    assert_eq!(str_field(&fields(lines[0]), "type"), "result");
    let bye = fields(lines[2]);
    assert_eq!(str_field(&bye, "type"), "bye");
    assert_eq!(str_field(&bye, "id"), "bye");
    assert!(!out.contains("ghost"));
}

#[test]
fn eof_and_blank_lines_end_quietly() {
    let mut service = Service::default();
    let (out, shutdown) = service.process("");
    assert_eq!(out, "");
    assert!(!shutdown, "EOF is a clean stop, not a shutdown");
    let (out, shutdown) = service.process("\n   \n\n");
    assert_eq!(out, "");
    assert!(!shutdown);
}

#[test]
fn the_unix_socket_transport_speaks_the_same_protocol() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("hrms-serve-test-{}.sock", std::process::id()));
    let server = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut service = Service::default();
            service.serve_unix(&path).expect("socket serves");
        })
    };
    // The listener may not be bound yet: retry the connect briefly.
    let mut stream = None;
    for _ in 0..200 {
        match UnixStream::connect(&path) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    let mut stream = stream.expect("connected to the service socket");
    let request = [
        schedule_request("42", &[loop_text("sock")]),
        "{\"req\":\"shutdown\",\"id\":\"s\"}\n".to_string(),
    ]
    .concat();
    stream.write_all(request.as_bytes()).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 3, "result + done + bye over the socket");
    assert_eq!(str_field(&fields(&lines[0]), "loop"), "sock");
    assert_eq!(str_field(&fields(&lines[2]), "type"), "bye");
    server.join().expect("server thread exits after shutdown");
    assert!(!path.exists(), "socket file removed on clean shutdown");
}
