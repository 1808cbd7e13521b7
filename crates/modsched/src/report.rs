//! JSON-lines schedule reports.
//!
//! One schedule result serialises to one line of JSON (the *JSON-lines*
//! convention: concatenating results yields a valid stream, and line-oriented
//! tools — `grep`, `sort`, `jq -c` — compose over it). The writer is
//! hand-rolled because the workspace deliberately carries no serialisation
//! dependency; the exact field set and ordering are part of the on-disk
//! format contract documented in `docs/FORMATS.md`.
//!
//! Every line embeds the structural digests of its inputs
//! ([`hrms_ddg::ddg_fingerprint`], [`hrms_machine::machine_fingerprint`])
//! and the combined [`hrms_ddg::cache_key`], so a report is
//! content-addressable: two lines with equal `cache_key` values were
//! produced from byte-identical loop/machine/scheduler inputs and can be
//! deduplicated or diffed without re-running the scheduler.

use std::fmt::Write as _;

use hrms_ddg::{cache_key, ddg_fingerprint, Ddg};
use hrms_machine::{machine_fingerprint, Machine};

use crate::scheduler::ScheduleOutcome;

/// Options controlling what a report line includes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReportOptions {
    /// Include wall-clock timing (`elapsed_us`, `ordering_us`). Off by
    /// default so that reports are deterministic and golden-diffable; the
    /// CLI turns it on with `--timing`.
    pub timing: bool,
}

/// Appends `s` as a JSON string literal (with escapes) to `out`.
///
/// Public because every hand-rolled JSON writer in the workspace (schedule
/// reports here, the service protocol in `hrms-serve`) must escape strings
/// identically for the records to stay byte-stable across layers.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs of bytes
    // between them start and end on character boundaries.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `key` (already punctuated, such as `,"ii":`) and then `value`
/// in decimal, as `Display` writes it.
fn push_field(out: &mut String, key: &str, mut value: u64) {
    out.push_str(key);
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// [`push_field`] for a signed `value`.
fn push_signed_field(out: &mut String, key: &str, value: i64) {
    let sign = if value < 0 { "-" } else { "" };
    out.push_str(key);
    push_field(out, sign, value.unsigned_abs());
}

/// The digests a report line embeds: the structural fingerprints of the
/// scheduled loop and of the machine, and the cache key over both and the
/// scheduler name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportDigests {
    /// [`hrms_ddg::ddg_fingerprint`] of the loop.
    pub loop_digest: u64,
    /// [`hrms_machine::machine_fingerprint`] of the machine.
    pub machine_digest: u64,
    /// [`hrms_ddg::cache_key`] of the two digests and the scheduler name.
    pub cache_key: u64,
}

impl ReportDigests {
    /// Computes the three digests of one cell.
    pub fn compute(ddg: &Ddg, machine: &Machine, scheduler: &str) -> Self {
        let loop_digest = ddg_fingerprint(ddg);
        let machine_digest = machine_fingerprint(machine);
        ReportDigests {
            loop_digest,
            machine_digest,
            cache_key: cache_key(loop_digest, machine_digest, scheduler),
        }
    }
}

/// Serialises one schedule result as a single JSON line (no trailing
/// newline).
///
/// `ddg` must be the graph that was scheduled (it supplies operation names
/// for the kernel table and the loop digest) and `scheduler` the
/// [`crate::ModuloScheduler::name`] of the scheduler that produced
/// `outcome`.
pub fn report_line(
    ddg: &Ddg,
    machine: &Machine,
    scheduler: &str,
    outcome: &ScheduleOutcome,
    options: ReportOptions,
) -> String {
    let digests = ReportDigests::compute(ddg, machine, scheduler);
    report_line_with_digests(ddg, machine, scheduler, outcome, options, &digests)
}

/// [`report_line`] for a caller that already holds the cell's digests, as
/// the service does: it keys its cache with them. `digests` must be
/// [`ReportDigests::compute`] of the same loop, machine and scheduler.
pub fn report_line_with_digests(
    ddg: &Ddg,
    machine: &Machine,
    scheduler: &str,
    outcome: &ScheduleOutcome,
    options: ReportOptions,
    digests: &ReportDigests,
) -> String {
    let m = &outcome.metrics;

    let mut out = String::with_capacity(384 + ddg.name().len() + 32 * ddg.num_nodes());
    out.push_str("{\"loop\":");
    push_json_str(&mut out, ddg.name());
    out.push_str(",\"scheduler\":");
    push_json_str(&mut out, scheduler);
    out.push_str(",\"machine\":");
    push_json_str(&mut out, machine.name());
    let _ = write!(
        out,
        ",\"loop_digest\":\"{:016x}\",\"machine_digest\":\"{:016x}\",\"cache_key\":\"{:016x}\"",
        digests.loop_digest, digests.machine_digest, digests.cache_key
    );
    push_field(&mut out, ",\"ii\":", m.ii.into());
    push_field(&mut out, ",\"mii\":", m.mii.into());
    push_field(&mut out, ",\"res_mii\":", m.res_mii.into());
    push_field(&mut out, ",\"rec_mii\":", m.rec_mii.into());
    out.push_str(",\"ii_optimal\":");
    out.push_str(if m.ii_is_optimal() { "true" } else { "false" });
    push_field(&mut out, ",\"stage_count\":", m.stage_count.into());
    push_signed_field(&mut out, ",\"span\":", m.span);
    push_field(&mut out, ",\"max_live\":", m.max_live);
    push_field(
        &mut out,
        ",\"max_live_with_invariants\":",
        m.max_live_with_invariants,
    );
    push_field(&mut out, ",\"buffers\":", m.buffers);
    push_signed_field(&mut out, ",\"total_lifetime\":", m.total_lifetime);
    push_field(&mut out, ",\"attempts\":", outcome.attempts.into());
    if outcome.recurrence_truncated {
        out.push_str(",\"recurrence_truncated\":true");
    }
    if let Some(trace) = &outcome.feedback {
        out.push_str(",\"feedback\":");
        out.push_str(&trace.to_json());
    }
    out.push_str(",\"kernel\":[");
    let kernel = outcome.schedule.kernel();
    for (r, row) in kernel.rows().enumerate() {
        if r > 0 {
            out.push(',');
        }
        out.push('[');
        for (i, &(node, stage)) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"op\":");
            push_json_str(&mut out, ddg.node(node).name());
            push_field(&mut out, ",\"stage\":", stage.into());
            out.push('}');
        }
        out.push(']');
    }
    out.push(']');
    if options.timing {
        let _ = write!(
            out,
            ",\"elapsed_us\":{},\"ordering_us\":{}",
            outcome.elapsed.as_micros(),
            outcome.ordering_time.as_micros()
        );
    }
    out.push('}');
    out
}

/// Serialises one *failed* schedule cell as a single JSON line (no
/// trailing newline): the identifying fields of [`report_line`] plus the
/// error text, so a stream mixing successes and failures stays
/// line-oriented and machine-splittable.
///
/// `machine` is the machine *name* rather than a [`Machine`]: some
/// failures (e.g. a panic captured at an isolation boundary) leave no
/// schedule to describe, and the caller may only have the name at hand.
pub fn error_line(loop_name: &str, scheduler: &str, machine: &str, error: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"loop\":");
    push_json_str(&mut out, loop_name);
    out.push_str(",\"scheduler\":");
    push_json_str(&mut out, scheduler);
    out.push_str(",\"machine\":");
    push_json_str(&mut out, machine);
    out.push_str(",\"error\":");
    push_json_str(&mut out, error);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mii::MiiInfo;
    use crate::schedule::Schedule;
    use hrms_ddg::{format_digest, DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;
    use std::time::Duration;

    fn sample() -> (Ddg, Machine, ScheduleOutcome) {
        let mut b = DdgBuilder::new("sample \"loop\"");
        let ld = b.node("ld", OpKind::Load, 2);
        let add = b.node("add", OpKind::FpAdd, 1);
        b.edge(ld, add, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let mii = MiiInfo::compute(&m, &hrms_ddg::LoopAnalysis::analyze(&g)).unwrap();
        let outcome = ScheduleOutcome::new(
            &g,
            Schedule::new(1, vec![0, 2]),
            mii,
            1,
            Duration::from_micros(120),
            Duration::from_micros(40),
        );
        (g, m, outcome)
    }

    #[test]
    fn line_contains_the_key_fields_in_order() {
        let (g, m, outcome) = sample();
        let line = report_line(&g, &m, "HRMS", &outcome, ReportOptions::default());
        assert!(line.starts_with("{\"loop\":\"sample \\\"loop\\\"\""));
        assert!(line.contains("\"scheduler\":\"HRMS\""));
        assert!(line.contains("\"machine\":\"govindarajan-4fu\""));
        assert!(line.contains("\"ii\":1,\"mii\":1"));
        assert!(line.contains("\"ii_optimal\":true"));
        assert!(line
            .contains("\"kernel\":[[{\"op\":\"ld\",\"stage\":0},{\"op\":\"add\",\"stage\":2}]]"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'), "one result = one line");
        assert!(!line.contains("elapsed_us"), "timing is opt-in");
    }

    #[test]
    fn timing_is_included_on_request() {
        let (g, m, outcome) = sample();
        let line = report_line(&g, &m, "HRMS", &outcome, ReportOptions { timing: true });
        assert!(line.contains("\"elapsed_us\":120"));
        assert!(line.contains("\"ordering_us\":40"));
    }

    #[test]
    fn digests_match_the_fingerprint_functions() {
        let (g, m, outcome) = sample();
        let line = report_line(&g, &m, "Slack", &outcome, ReportOptions::default());
        let lk = format_digest(ddg_fingerprint(&g));
        let mk = format_digest(machine_fingerprint(&m));
        let ck = format_digest(cache_key(
            ddg_fingerprint(&g),
            machine_fingerprint(&m),
            "Slack",
        ));
        assert!(line.contains(&format!("\"loop_digest\":\"{lk}\"")));
        assert!(line.contains(&format!("\"machine_digest\":\"{mk}\"")));
        assert!(line.contains(&format!("\"cache_key\":\"{ck}\"")));
    }

    #[test]
    fn the_digest_taking_renderer_matches_report_line() {
        let (g, m, outcome) = sample();
        let digests = ReportDigests::compute(&g, &m, "HRMS");
        for options in [ReportOptions::default(), ReportOptions { timing: true }] {
            assert_eq!(
                report_line_with_digests(&g, &m, "HRMS", &outcome, options, &digests),
                report_line(&g, &m, "HRMS", &outcome, options)
            );
        }
    }

    #[test]
    fn numbers_render_as_display_does() {
        for v in [0, 7, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            push_field(&mut out, ",\"k\":", v);
            assert_eq!(out, format!(",\"k\":{v}"));
        }
        for v in [i64::MIN, -10, -1, 0, 1, i64::MAX] {
            let mut out = String::new();
            push_signed_field(&mut out, ",\"k\":", v);
            assert_eq!(out, format!(",\"k\":{v}"));
        }
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut out = String::new();
        push_json_str(&mut out, "a\u{1}b\tc\\d");
        assert_eq!(out, "\"a\\u0001b\\tc\\\\d\"");
    }

    #[test]
    fn error_lines_are_single_escaped_json_objects() {
        let line = error_line(
            "weird \"loop\"",
            "HRMS",
            "govindarajan-4fu",
            "boom\nat line 2",
        );
        assert_eq!(
            line,
            "{\"loop\":\"weird \\\"loop\\\"\",\"scheduler\":\"HRMS\",\
             \"machine\":\"govindarajan-4fu\",\"error\":\"boom\\nat line 2\"}"
        );
        assert!(!line.contains('\n'), "one record = one line");
    }

    #[test]
    fn truncation_flag_is_surfaced() {
        let (g, m, outcome) = sample();
        let outcome = outcome.with_recurrence_truncated(true);
        let line = report_line(&g, &m, "HRMS", &outcome, ReportOptions::default());
        assert!(line.contains("\"recurrence_truncated\":true"));
    }
}
