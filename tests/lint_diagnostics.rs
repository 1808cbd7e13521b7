//! Integration tests for the `hrms-verify` static-analysis layer.
//!
//! Three layers of coverage:
//!
//! * the malformed-input corpus under `tests/fixtures/malformed/` is
//!   linted through the CLI and the full rendered output (codes, spans,
//!   excerpts, notes) is diffed byte-for-byte against
//!   `tests/golden/lint_corpus.txt`;
//! * every shipped example input lints clean (`hrms lint` exit 0, zero
//!   diagnostics) — the lint is allowed to reject user typos, never our
//!   own artefacts;
//! * every workload-generator preset lints clean, and its loops certify
//!   under all seven schedulers — the certifier is the referee for the
//!   whole scheduler zoo, so a disagreement here is a bug in a scheduler,
//!   the certifier, or both.

use hrms_repro::cli::run;
use hrms_repro::prelude::*;
use hrms_repro::registry::{all_schedulers, SCHEDULER_SLUGS};
use hrms_repro::verify::{certify, lint_ddg};

mod corpus;

use corpus::args;

fn manifest_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Lints `text` through the CLI exactly as the golden corpus was
/// generated: stdin input, text format, stderr-style rendering.
fn lint_stdin(text: &str) -> Result<String, String> {
    match run(&args(&["lint", "-"]), text) {
        Ok(out) => Ok(out),
        Err(e) => {
            assert_eq!(e.code, 1, "lint data errors exit 1: {}", e.message);
            Err(e.message)
        }
    }
}

#[test]
fn malformed_corpus_matches_the_golden_output() {
    let dir = manifest_path("tests/fixtures/malformed");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(
        names.len() >= 12,
        "the malformed corpus holds at least 12 bad inputs, found {}",
        names.len()
    );

    let mut actual = String::new();
    for name in &names {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        actual.push_str(&format!("== {name}\n"));
        match lint_stdin(&text) {
            Ok(_) => panic!("malformed fixture `{name}` linted clean"),
            Err(rendered) => actual.push_str(&rendered),
        }
    }

    let golden = corpus::repo_file("tests/golden/lint_corpus.txt");
    assert_eq!(
        actual, golden,
        "lint output drifted from tests/golden/lint_corpus.txt; \
         regenerate it with the loop in .github/workflows/ci.yml if intentional"
    );
}

#[test]
fn every_fixture_reports_its_namesake_code() {
    // The two-digit prefix encodes the scenario; the first reported code
    // must match the lint the fixture was written to trigger.
    let expected = [
        ("01", "L001"),
        ("02", "L001"),
        ("03", "L002"),
        ("04", "L003"),
        ("05", "L004"),
        ("06", "L005"),
        ("07", "L006"),
        ("08", "L006"),
        ("09", "L001"),
        ("10", "L003"),
        ("11", "M001"),
        ("12", "M002"),
        ("13", "L002"),
        ("14", "M003"),
        ("15", "M004"),
    ];
    let dir = manifest_path("tests/fixtures/malformed");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let prefix = &name[..2];
        let code = expected
            .iter()
            .find(|(p, _)| *p == prefix)
            .unwrap_or_else(|| panic!("fixture `{name}` missing from the expectation table"))
            .1;
        let text = std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        let rendered = lint_stdin(&text).expect_err(&name);
        let first = rendered.lines().next().unwrap();
        assert!(
            first.contains(&format!("[{code}]")),
            "fixture `{name}` first finding is {first}, expected {code}"
        );
    }
}

#[test]
fn shipped_examples_lint_clean() {
    let dir = manifest_path("examples/loops");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let out = lint_stdin(&text).unwrap_or_else(|rendered| {
            panic!("shipped example {path:?} has findings:\n{rendered}")
        });
        assert!(out.contains("no problems found"));
        checked += 1;
    }
    assert!(checked >= 1);
    // The machine presets also lint clean through the CLI path.
    for preset in ["general-purpose", "govindarajan", "perfect-club"] {
        let rendered = run(&args(&["machine", preset]), "").unwrap();
        lint_stdin(&rendered).unwrap_or_else(|r| panic!("preset `{preset}` has findings:\n{r}"));
    }
}

/// Every generator preset produces loops that lint clean — with the
/// machine the generator's latencies target, so `L007` stays silent —
/// and that certify under all seven schedulers.
#[test]
fn generator_presets_lint_clean_and_certify_under_all_schedulers() {
    let machine = presets::perfect_club();
    let schedulers = all_schedulers();
    assert_eq!(schedulers.len(), SCHEDULER_SLUGS.len());

    for preset in [
        "preset/suite",
        "preset/stress",
        "preset/recurrence-heavy",
        "preset/interleaved-recurrences",
    ] {
        let loops = corpus::loops(preset);
        assert!(!loops.is_empty());
        for ddg in &loops {
            let diags = lint_ddg(ddg, None, Some(&machine));
            assert!(
                diags.is_empty(),
                "preset `{preset}` loop `{}` has findings: {:?}",
                ddg.name(),
                diags
            );
            for scheduler in &schedulers {
                // The exhaustive scheduler is exercised only on small
                // loops to keep the test fast (same cut as
                // scheduler_validity.rs).
                if scheduler.name().starts_with("B&B") && ddg.num_nodes() > 12 {
                    continue;
                }
                let outcome = scheduler.schedule_loop(ddg, &machine).unwrap_or_else(|e| {
                    panic!(
                        "{} failed on `{preset}` loop `{}`: {e}",
                        scheduler.name(),
                        ddg.name()
                    )
                });
                let cert = certify(ddg, &machine, &outcome.schedule);
                assert!(
                    cert.passed(),
                    "{} on `{preset}` loop `{}` fails certification: {:#?}",
                    scheduler.name(),
                    ddg.name(),
                    cert.checks
                );
            }
        }
    }
}

/// The acceptance pin: all 24 reference loops certify under every
/// scheduler on both paper machines.
#[test]
fn reference24_certifies_under_all_schedulers() {
    let machines = [presets::govindarajan(), presets::perfect_club()];
    let schedulers = all_schedulers();
    for ddg in corpus::loops("reference24") {
        for machine in &machines {
            for scheduler in &schedulers {
                if scheduler.name().starts_with("B&B") && ddg.num_nodes() > 12 {
                    continue;
                }
                let outcome = scheduler.schedule_loop(&ddg, machine).unwrap_or_else(|e| {
                    panic!("{} failed on `{}`: {e}", scheduler.name(), ddg.name())
                });
                let cert = certify(&ddg, machine, &outcome.schedule);
                assert!(
                    cert.passed(),
                    "{} on `{}` x {} fails certification: {:#?}",
                    scheduler.name(),
                    ddg.name(),
                    machine.name(),
                    cert.checks
                );
                // The certificate's re-derived MII agrees with the
                // scheduler's own metrics.
                assert_eq!(cert.mii, Some(outcome.metrics.mii));
                assert_eq!(cert.max_live, outcome.metrics.max_live);
            }
        }
    }
}

#[test]
fn a_rec_mii_above_the_largest_ii_lints_as_two_huge_latencies() {
    // Two 3·10⁹-cycle operations on one circuit: RecMII 6·10⁹ exceeds
    // u32::MAX, the largest II. Lint computes the RecMII (for L004), so it
    // must read the bound without panicking and report only the two
    // latencies.
    let text = corpus::repo_file("tests/fixtures/recmii_overflow.loop");
    let rendered = lint_stdin(&text).expect_err("huge latencies are findings");
    let codes: Vec<&str> = rendered
        .lines()
        .filter(|line| line.starts_with("warning[") || line.starts_with("error["))
        .collect();
    assert_eq!(codes.len(), 2, "{rendered}");
    assert!(
        codes.iter().all(|line| line.starts_with("warning[L006]")),
        "{rendered}"
    );
    assert!(
        rendered.contains("2 problem(s) in 1 input(s)"),
        "{rendered}"
    );
}
