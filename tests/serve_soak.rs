//! The service cache contract under a duplicate-heavy soak load.
//!
//! Over a thousand loop entries drawn from thirty distinct loops are
//! pushed through the service, and the content-addressed cache's whole
//! contract is asserted at once:
//!
//! * each distinct `cache_key` is *scheduled* exactly once — every other
//!   occurrence is a counted cache hit;
//! * the response stream is in input order, one record per entry;
//! * the bytes are exactly what a cache-disabled cold run produces, and a
//!   warm replay reproduces them again;
//! * every cached record matches a freshly computed, independently
//!   certified schedule of its loop.

use hrms_repro::modsched::{report_line, ModuloScheduler, ReportOptions};
use hrms_repro::prelude::*;
use hrms_repro::serve::{ServeConfig, Service};

mod corpus;

use corpus::quoted;

/// The thirty distinct loops of the soak corpus: the 24-loop reference
/// suite, the paper's five motivating examples (the registry test pins
/// both sizes), and one synthetic chain.
fn distinct_corpus() -> Vec<Ddg> {
    let mut loops = corpus::loops("reference24");
    loops.extend(corpus::loops("motivating"));
    loops.push(hrms_repro::ddg::chain("soak_chain", 6, OpKind::FpMul, 2));
    loops
}

/// ≥1000 entries over the corpus in a fixed pseudo-shuffled order; the
/// stride is coprime to 30, so every distinct loop appears early and
/// often.
fn soak_indices(total: usize) -> Vec<usize> {
    (0..total).map(|i| (i * 7 + 3) % 30).collect()
}

/// The soak load as three schedule requests of 340 entries each, so the
/// cache is exercised both within one batch and across requests.
fn soak_requests(sources: &[String], indices: &[usize]) -> Vec<String> {
    indices
        .chunks(340)
        .enumerate()
        .map(|(r, chunk)| {
            let entries: Vec<String> = chunk.iter().map(|&i| quoted(&sources[i])).collect();
            format!(
                "{{\"req\":\"schedule\",\"id\":{r},\"loops\":[{}]}}\n",
                entries.join(",")
            )
        })
        .collect()
}

#[test]
fn a_thousand_entry_soak_schedules_each_distinct_loop_once() {
    let corpus = distinct_corpus();
    let machine = presets::govindarajan();
    let sources: Vec<String> = corpus
        .iter()
        .map(|l| hrms_repro::ddg::textfmt::write_loops(std::slice::from_ref(l)))
        .collect();
    let indices = soak_indices(1020);
    let input = soak_requests(&sources, &indices).concat();

    let mut warm = Service::default();
    let (warm_out, _) = warm.process(&input);

    // One result per entry, one done per request, all in input order.
    let lines: Vec<&str> = warm_out.lines().collect();
    assert_eq!(lines.len(), 1020 + 3);
    let mut cursor = 0usize;
    for line in &lines {
        if line.starts_with("{\"type\":\"done\"") {
            continue;
        }
        let expected_name = corpus[indices[cursor]].name();
        let expected_index = cursor % 340;
        assert!(
            line.starts_with(&format!(
                "{{\"type\":\"result\",\"id\":{},\"index\":{expected_index},\"loop\":\"{expected_name}\"",
                cursor / 340
            )),
            "entry {cursor} out of order: {line}"
        );
        assert!(
            !line.contains("\"error\""),
            "soak cells all schedule: {line}"
        );
        cursor += 1;
    }
    assert_eq!(cursor, 1020);

    // The cache contract: 30 distinct keys were real lookups that missed
    // once each and were scheduled exactly once; all 990 other entries
    // were counted hits. Nothing was evicted at the default capacity.
    let stats = warm.cache_stats();
    assert_eq!(stats.misses, 30, "each distinct cache_key scheduled once");
    assert_eq!(stats.hits, 1020 - 30, "every duplicate entry is a hit");
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.entries, 30);

    // Byte-identity with a pure cold run: a service with the cache
    // disabled schedules all 1020 cells from scratch and must produce the
    // same stream.
    let mut cold = Service::new(&ServeConfig {
        cache: false,
        ..ServeConfig::default()
    });
    let (cold_out, _) = cold.process(&input);
    assert_eq!(warm_out, cold_out, "cached responses match the cold bytes");
    let cold_stats = cold.cache_stats();
    assert_eq!((cold_stats.hits, cold_stats.misses), (0, 0));

    // And a warm replay serves everything from cache, identically.
    let (replay_out, _) = warm.process(&input);
    assert_eq!(warm_out, replay_out, "warm replay is byte-identical");
    let stats = warm.cache_stats();
    assert_eq!(stats.misses, 30, "the replay scheduled nothing new");
    assert_eq!(stats.hits, 2 * 1020 - 30);

    // Every cached record is exactly the report of a schedule that the
    // independent certifier accepts: recompute each distinct loop's
    // schedule in-process, certify it, and check the service's record for
    // that loop carries the same rendered body.
    let scheduler = HrmsScheduler::new();
    for (ddg, source_index) in corpus.iter().zip(0usize..) {
        let outcome = scheduler
            .schedule_loop(ddg, &machine)
            .unwrap_or_else(|e| panic!("`{}` schedules: {e}", ddg.name()));
        let cert = certify(ddg, &machine, &outcome.schedule);
        assert!(
            cert.passed(),
            "`{}` certifies: {:?}",
            ddg.name(),
            cert.diagnostics
        );
        let body = report_line(
            ddg,
            &machine,
            scheduler.name(),
            &outcome,
            ReportOptions { timing: false },
        );
        let entry = indices
            .iter()
            .position(|&i| i == source_index)
            .expect("every distinct loop appears in the soak");
        let line = lines
            .iter()
            .filter(|l| l.starts_with("{\"type\":\"result\""))
            .nth(entry)
            .unwrap();
        assert!(
            line.ends_with(&body[1..]),
            "`{}`: service record diverges from the certified report\n\
             record: {line}\nreport: {body}",
            ddg.name()
        );
    }
}
