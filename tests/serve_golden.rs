//! Golden-output test for the `hrms serve` protocol.
//!
//! The same scripted request file the CI smoke step pipes through the
//! compiled binary (`target/release/hrms serve <
//! tests/fixtures/serve/requests.jsonl`) is driven here in-process, and
//! the response stream is diffed byte-for-byte against
//! `tests/golden/serve_smoke.txt`. The script walks the whole protocol:
//! a cache-hitting duplicate batch, a non-default scheduler and machine,
//! a per-cell scheduling failure, an unparsable loop entry with span
//! diagnostics, an unknown verb, a multi-machine batch (one loop ×
//! three presets, hitting the cache for the machine it was already
//! scheduled on), `stats`, and `shutdown`. Timing fields
//! and contained-panic records are deliberately absent — they carry
//! wall-clock values and source line numbers, which would churn the
//! golden file.
//!
//! If an intentional change alters the protocol output, regenerate with
//! the command in the CI step and commit both files.

use hrms_repro::serve::Service;

mod corpus;

#[test]
fn serve_smoke_output_matches_the_golden_file() {
    let requests = corpus::repo_file("tests/fixtures/serve/requests.jsonl");
    let golden = corpus::repo_file("tests/golden/serve_smoke.txt");
    let (actual, shutdown) = Service::default().process(&requests);
    assert!(shutdown, "the script ends with a shutdown request");
    assert_eq!(
        actual, golden,
        "serve output drifted from tests/golden/serve_smoke.txt; \
         regenerate the golden file if the change is intentional"
    );
}
