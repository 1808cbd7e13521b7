//! Lossless round-trip guarantees of the on-disk formats (docs/FORMATS.md).
//!
//! Every corpus the project ships — the 24 Livermore-modelled reference
//! loops, the paper's worked examples and 240 generated loops including the
//! recurrence-heavy and interleaved stress presets — must survive
//! `export → import` through both the `.loop` text format and the DOT
//! format with an identical structural fingerprint. On top of that, a
//! schedule computed from an imported loop must be byte-identical to one
//! computed from the original, for all seven schedulers: the formats are
//! only "lossless" if downstream results cannot tell the difference.

use hrms_repro::ddg::{
    ddg_fingerprint, dot, parse_loop, parse_loops, parse_loops_with_spans, write_loop, write_loops,
    Ddg, ParseError,
};
use hrms_repro::machine::{machine_fingerprint, parse_machine, presets, write_machine};
use hrms_repro::prelude::*;
use hrms_repro::registry::all_schedulers;

mod corpus;

/// All loops of every shipped corpus, with 240 generated loops:
/// 120 from the default generator, 60 recurrence-heavy, 60 interleaved.
fn corpus() -> Vec<Ddg> {
    let mut loops = corpus::loops("reference24");
    loops.push(motivating::figure1());
    loops.extend(corpus::loops("roundtrip/default"));
    loops.extend(corpus::loops("roundtrip/recurrence-heavy"));
    loops.extend(corpus::loops("roundtrip/interleaved"));
    loops
}

#[test]
fn text_format_round_trips_every_corpus_loop() {
    for ddg in corpus() {
        let text = write_loop(&ddg);
        let back = parse_loop(&text)
            .unwrap_or_else(|e| panic!("loop `{}` does not re-parse: {e}\n{text}", ddg.name()));
        assert_eq!(
            ddg_fingerprint(&back),
            ddg_fingerprint(&ddg),
            "loop `{}` changed across a text round trip",
            ddg.name()
        );
        // The writer is deterministic: re-exporting the import is identical.
        assert_eq!(write_loop(&back), text, "loop `{}`", ddg.name());
    }
}

#[test]
fn dot_format_round_trips_every_corpus_loop() {
    for ddg in corpus() {
        let rendered = dot::to_dot(&ddg);
        let back = dot::from_dot(&rendered).unwrap_or_else(|e| {
            panic!("loop `{}` does not re-import: {e}\n{rendered}", ddg.name())
        });
        assert_eq!(
            ddg_fingerprint(&back),
            ddg_fingerprint(&ddg),
            "loop `{}` changed across a DOT round trip",
            ddg.name()
        );
    }
}

#[test]
fn multi_loop_files_round_trip_in_order() {
    let loops = corpus::loops("reference24");
    let text = write_loops(&loops);
    let back = parse_loops(&text).unwrap();
    assert_eq!(back.len(), loops.len());
    for (a, b) in loops.iter().zip(&back) {
        assert_eq!(
            ddg_fingerprint(a),
            ddg_fingerprint(b),
            "loop `{}`",
            a.name()
        );
    }
}

/// Both `.loop` entry points side by side: `parse_loops` records no spans
/// and `parse_loops_with_spans` does, over one parser core, so their graphs
/// and their errors must be identical.
fn parse_both(text: &str) -> Result<Vec<Ddg>, ParseError> {
    let plain = parse_loops(text);
    let spanned = parse_loops_with_spans(text);
    match (&plain, spanned) {
        (Ok(graphs), Ok(spanned)) => {
            assert_eq!(graphs.len(), spanned.len());
            for (g, (h, spans)) in graphs.iter().zip(&spanned) {
                assert_eq!(g, h, "loop `{}`", g.name());
                assert_eq!(spans.nodes.len(), g.num_nodes(), "loop `{}`", g.name());
                assert_eq!(spans.edges.len(), g.num_edges(), "loop `{}`", g.name());
            }
        }
        (Err(a), Err(b)) => assert_eq!(*a, b, "the two entry points disagree on\n{text}"),
        (a, b) => panic!("one entry point failed: {a:?} vs {b:?}\n{text}"),
    }
    plain
}

#[test]
fn both_loop_entry_points_parse_every_registry_corpus_alike() {
    for (corpus, keyed) in corpus::built() {
        let loops: Vec<Ddg> = keyed.iter().map(|(_, g)| g.clone()).collect();
        let back = parse_both(&write_loops(&loops))
            .unwrap_or_else(|e| panic!("corpus `{}` does not re-parse: {e}", corpus.name));
        assert_eq!(back, loops, "corpus `{}`", corpus.name);
    }
}

#[test]
fn both_loop_entry_points_fail_alike_on_malformed_input() {
    let dir = format!("{}/tests/fixtures/malformed", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("the malformed corpus exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".loop"))
        .collect();
    names.sort();
    let mut failed = 0;
    for name in &names {
        let text = corpus::repo_file(&format!("tests/fixtures/malformed/{name}"));
        failed += usize::from(parse_both(&text).is_err());
    }
    // Errors at every stage of the parser: the tokenizer, a keyword, an
    // attribute, an edge endpoint and the validation at `end`.
    let inline = [
        "loop l\n  node \"a\\q\" fadd latency=1\nend\n",
        "loop l\n  node \"a fadd latency=1\nend\n",
        "loop l\n  node a fadd latency=1\n  node b fadd latency=1\n  edge a -> c flow\nend\n",
        "loop l\n  node a fadd latency=1\n  node a fmul latency=2\nend\n",
        "loop l\n  node a fadd latency=1 \"x\"\nend\n",
        "loop l\n  node a fadd latency=1\n  edge a a flow\nend\n",
        "loop l\n  node a fadd latency=1\n",
        "node a fadd latency=1\n",
    ];
    for text in inline {
        assert!(parse_both(text).is_err(), "{text}");
    }
    assert!(
        names.len() >= 5 && failed >= 2,
        "{} `.loop` fixtures, {failed} failing to parse",
        names.len()
    );
}

#[test]
fn machine_presets_round_trip_with_identical_fingerprints() {
    for machine in presets::all() {
        let text = write_machine(&machine);
        let back = parse_machine(&text).unwrap();
        assert_eq!(back, machine, "preset `{}`", machine.name());
        assert_eq!(
            machine_fingerprint(&back),
            machine_fingerprint(&machine),
            "preset `{}`",
            machine.name()
        );
    }
}

/// The acceptance criterion of the formats work: schedules computed from
/// imported loops are byte-identical to schedules computed from the
/// originals, for every scheduler. Kernels are compared in their rendered
/// (user-visible) form.
#[test]
fn imported_loops_schedule_byte_identically_for_all_schedulers() {
    let machine = presets::govindarajan();
    for ddg in corpus::loops("reference24") {
        let via_text = parse_loop(&write_loop(&ddg)).unwrap();
        let via_dot = dot::from_dot(&dot::to_dot(&ddg)).unwrap();
        for scheduler in all_schedulers() {
            let original = scheduler.schedule_loop(&ddg, &machine).unwrap();
            let reference = original.schedule.kernel().render(&ddg);
            for (label, imported) in [("text", &via_text), ("dot", &via_dot)] {
                let outcome = scheduler.schedule_loop(imported, &machine).unwrap();
                assert_eq!(
                    outcome.schedule,
                    original.schedule,
                    "scheduler `{}`, loop `{}`, via {label}",
                    scheduler.name(),
                    ddg.name()
                );
                assert_eq!(
                    outcome.schedule.kernel().render(imported),
                    reference,
                    "scheduler `{}`, loop `{}`, via {label}",
                    scheduler.name(),
                    ddg.name()
                );
            }
        }
    }
}

/// Generated loops keep scheduling identically after a text round trip
/// (HRMS only — the full 7-scheduler sweep above would be slow here).
#[test]
fn generated_loops_schedule_identically_after_import() {
    let machine = presets::perfect_club();
    let scheduler = HrmsScheduler::new();
    let loops = corpus();
    let imported: Vec<Ddg> = loops
        .iter()
        .map(|g| parse_loop(&write_loop(g)).unwrap())
        .collect();
    let engine = BatchEngine::new();
    let a = engine.map(&loops, |_, g| scheduler.schedule_loop(g, &machine));
    let b = engine.map(&imported, |_, g| scheduler.schedule_loop(g, &machine));
    for ((a, b), ddg) in a.iter().zip(&b).zip(&loops) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.schedule, b.schedule, "loop `{}`", ddg.name());
                assert_eq!(a.metrics, b.metrics, "loop `{}`", ddg.name());
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "loop `{}`", ddg.name());
            }
            (a, b) => panic!(
                "loop `{}`: original {:?} but imported {:?}",
                ddg.name(),
                a.as_ref().map(|_| ()),
                b.as_ref().map(|_| ())
            ),
        }
    }
}

/// Service result records are ordinary JSON that round-trips through the
/// service's own parser, and they carry exactly the same digests, cache
/// key and report fields as `hrms schedule --emit json` on the same input:
/// the record is the CLI report line with the `type`/`id`/`index` envelope
/// spliced on, nothing else.
#[test]
fn service_records_round_trip_and_match_the_cli_report() {
    use hrms_repro::serve::{json, Service};

    let machine = presets::govindarajan();
    let scheduler = HrmsScheduler::new();
    let loops: Vec<Ddg> = corpus()
        .into_iter()
        .filter(|g| scheduler.schedule_loop(g, &machine).is_ok())
        .take(60)
        .collect();
    let text = write_loops(&loops);

    let cli_out = hrms_repro::cli::run(
        &["schedule", "-", "--emit", "json"].map(String::from),
        &text,
    )
    .expect("every kept loop schedules");
    let cli_lines: Vec<&str> = cli_out.lines().collect();
    assert_eq!(cli_lines.len(), loops.len());

    let mut entry = String::new();
    hrms_repro::modsched::push_json_str(&mut entry, &text);
    let (serve_out, _) = Service::default().process(&format!(
        "{{\"req\":\"schedule\",\"id\":\"rt\",\"loops\":[{entry}]}}\n"
    ));
    let records: Vec<&str> = serve_out
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"result\""))
        .collect();
    assert_eq!(records.len(), loops.len());

    for ((record, cli_line), ddg) in records.iter().zip(&cli_lines).zip(&loops) {
        // The record is the CLI line plus the envelope, byte for byte.
        assert!(
            record.ends_with(&cli_line[1..]),
            "loop `{}`:\nservice: {record}\ncli:     {cli_line}",
            ddg.name()
        );
        // It parses as JSON, renders back to the identical bytes, and its
        // digest fields are the fingerprint functions' values verbatim.
        let value = json::parse(record)
            .unwrap_or_else(|e| panic!("loop `{}`: record is not JSON ({e})", ddg.name()));
        assert_eq!(value.to_json(), **record, "loop `{}`", ddg.name());
        let field = |key: &str| {
            value
                .get(key)
                .and_then(json::Value::as_str)
                .unwrap_or_else(|| panic!("loop `{}`: no `{key}`", ddg.name()))
                .to_string()
        };
        let loop_digest = ddg_fingerprint(ddg);
        let machine_digest = machine_fingerprint(&machine);
        assert_eq!(field("loop_digest"), format!("{loop_digest:016x}"));
        assert_eq!(field("machine_digest"), format!("{machine_digest:016x}"));
        assert_eq!(
            field("cache_key"),
            format!(
                "{:016x}",
                hrms_repro::ddg::cache_key(loop_digest, machine_digest, scheduler.name())
            )
        );
    }
}

/// The shipped example file stays parseable and structurally equal to the
/// reference inner-product loop shape it documents.
#[test]
fn shipped_example_loop_file_parses() {
    let loops = corpus::loops("examples");
    assert_eq!(loops.len(), 1);
    let ddg = &loops[0];
    assert_eq!(ddg.name(), "dotprod");
    assert_eq!(ddg.num_nodes(), 4);
    assert_eq!(ddg.num_edges(), 4);
    assert!(ddg.has_recurrence());
    // And it round-trips like everything else.
    let back = parse_loop(&write_loop(ddg)).unwrap();
    assert_eq!(ddg_fingerprint(&back), ddg_fingerprint(ddg));
}
