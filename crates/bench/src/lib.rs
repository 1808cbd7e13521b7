//! Benchmark and report harness for the HRMS reproduction.
//!
//! Each module regenerates one part of the paper's evaluation:
//!
//! * [`tables`] — Table 1 (per-loop II / buffers / time for HRMS, SPILP
//!   stand-in, Slack and FRLC on the 24-loop reference suite), Table 2 (the
//!   better/equal/worse summary) and Table 3 (total scheduling time);
//! * [`figures`] — the motivating-example figures (2–4) and the register
//!   requirement / execution-time figures (11–14) on the synthetic
//!   Perfect-Club-like suite;
//! * [`section42`] — the aggregate statistics quoted in Section 4.2
//!   (fraction of loops scheduled at MII, mean II/MII ratio, phase-time
//!   split);
//! * [`ablation`] — the ablations listed under *Substitutions* in
//!   docs/ARCHITECTURE.md (initial hypernode selection, pre-ordering
//!   on/off).
//!
//! The binaries in `src/bin/` are thin wrappers that print these results;
//! the Criterion benches in `benches/` measure the compilation-time claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod figures;
pub mod section42;
pub mod tables;

use hrms_ddg::Ddg;
use hrms_machine::Machine;
use hrms_modsched::{ModuloScheduler, ScheduleOutcome};

/// Schedules one loop with one scheduler, panicking with a helpful message
/// on failure (the harness inputs are all known-schedulable).
pub fn must_schedule(
    scheduler: &dyn ModuloScheduler,
    ddg: &Ddg,
    machine: &Machine,
) -> ScheduleOutcome {
    scheduler.schedule_loop(ddg, machine).unwrap_or_else(|e| {
        panic!(
            "scheduler `{}` failed on loop `{}`: {e}",
            scheduler.name(),
            ddg.name()
        )
    })
}

/// Formats a fixed-width table from a header and rows (all pre-rendered
/// strings); used by every report binary so their output is uniform and easy
/// to diff against EXPERIMENTS.md.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&render_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_core::HrmsScheduler;
    use hrms_machine::presets;

    #[test]
    fn must_schedule_returns_an_outcome() {
        let g = hrms_workloads::motivating::figure1();
        let outcome = must_schedule(&HrmsScheduler::new(), &g, &presets::general_purpose());
        assert_eq!(outcome.metrics.ii, 2);
    }

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            &["loop", "II"],
            &[
                vec!["inner_product".to_string(), "2".to_string()],
                vec!["fir".to_string(), "17".to_string()],
            ],
        );
        assert!(table.contains("loop"));
        assert!(table.lines().count() == 4);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }
}
