//! Golden-output tests for the `hrms` CLI.
//!
//! The same invocations the CI smoke step runs against the compiled binary
//! are driven here in-process through [`hrms_repro::cli::run`], and the
//! concatenated output is diffed byte-for-byte against
//! `tests/golden/schedule_smoke.txt`. If an intentional change alters the
//! output, regenerate the golden file with the commands listed in that
//! file's CI step (`.github/workflows/ci.yml`) and commit both.

use hrms_repro::cli::run;

mod corpus;

use corpus::args;

fn example_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/examples/loops/dotprod.loop").to_string()
}

#[test]
fn schedule_smoke_output_matches_the_golden_file() {
    let example = example_path();
    let mut actual = String::new();
    for machine in ["govindarajan", "perfect-club"] {
        actual.push_str(
            &run(
                &args(&[
                    "schedule",
                    &example,
                    "--scheduler",
                    "hrms,slack",
                    "--machine",
                    machine,
                    "--certify",
                ]),
                "",
            )
            .unwrap(),
        );
    }
    assert_eq!(
        actual,
        corpus::repo_file("tests/golden/schedule_smoke.txt"),
        "CLI output drifted from tests/golden/schedule_smoke.txt; \
         regenerate the golden file if the change is intentional"
    );
}

#[test]
fn stdin_dash_matches_the_file_path() {
    let example = example_path();
    let contents = std::fs::read_to_string(&example).unwrap();
    let via_file = run(&args(&["schedule", &example]), "").unwrap();
    let via_stdin = run(&args(&["schedule", "-"]), &contents).unwrap();
    assert_eq!(via_file, via_stdin);
}

#[test]
fn json_emission_is_stable_and_cache_keyed() {
    let example = example_path();
    let a = run(
        &args(&["schedule", &example, "--scheduler", "all", "--emit", "json"]),
        "",
    )
    .unwrap();
    let b = run(
        &args(&["schedule", &example, "--scheduler", "all", "--emit", "json"]),
        "",
    )
    .unwrap();
    assert_eq!(a, b, "reports without --timing are deterministic");
    assert_eq!(a.lines().count(), 7, "one line per scheduler");
    let keys: Vec<&str> = a
        .lines()
        .map(|l| {
            let start = l.find("\"cache_key\":\"").unwrap() + "\"cache_key\":\"".len();
            &l[start..start + 16]
        })
        .collect();
    let mut unique = keys.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), keys.len(), "scheduler name salts the key");
}

#[test]
fn convert_to_dot_and_back_preserves_the_example() {
    let example = example_path();
    let as_dot = run(&args(&["convert", &example, "--to", "dot"]), "").unwrap();
    let back = run(&args(&["convert", "-", "--to", "loop"]), &as_dot).unwrap();
    let original = hrms_repro::ddg::parse_loops(&std::fs::read_to_string(&example).unwrap())
        .unwrap()
        .remove(0);
    let reimported = hrms_repro::ddg::parse_loops(&back).unwrap().remove(0);
    assert_eq!(
        hrms_repro::ddg::ddg_fingerprint(&original),
        hrms_repro::ddg::ddg_fingerprint(&reimported)
    );
}
