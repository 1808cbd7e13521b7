//! Tables 1–3 of the paper: the 24-loop comparison of HRMS against the
//! Slack, FRLC and SPILP(-stand-in) schedulers.

use std::time::Duration;

use hrms_baselines::{BranchAndBoundScheduler, FrlcScheduler, SlackScheduler};
use hrms_core::HrmsScheduler;
use hrms_ddg::Ddg;
use hrms_engine::BatchEngine;
use hrms_machine::{presets, Machine};
use hrms_modsched::{ModuloScheduler, SchedulerConfig};

use crate::must_schedule;

/// The measurements of one scheduler on one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Buffer requirement (the Table 1 metric).
    pub buffers: u64,
    /// Wall-clock scheduling time.
    pub time: Duration,
}

/// One row of Table 1 (one loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Loop name.
    pub name: String,
    /// Number of operations.
    pub ops: usize,
    /// The loop's MII on the Table-1 machine.
    pub mii: u32,
    /// HRMS result.
    pub hrms: Cell,
    /// Branch-and-bound (SPILP stand-in) result.
    pub spilp: Cell,
    /// Slack result.
    pub slack: Cell,
    /// FRLC result.
    pub frlc: Cell,
}

/// The full Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1 {
    /// One row per loop of the reference suite.
    pub rows: Vec<Table1Row>,
}

/// Summary counts comparing HRMS against one other method (one column group
/// of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Comparison {
    /// Loops where HRMS achieves a lower II.
    pub ii_better: usize,
    /// Loops with equal II.
    pub ii_equal: usize,
    /// Loops where HRMS has a higher II.
    pub ii_worse: usize,
    /// Among equal-II loops: HRMS needs fewer buffers.
    pub buf_better: usize,
    /// Among equal-II loops: equal buffers.
    pub buf_equal: usize,
    /// Among equal-II loops: HRMS needs more buffers.
    pub buf_worse: usize,
}

/// Table 2: HRMS vs each of the other three methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2 {
    /// HRMS vs the SPILP stand-in.
    pub vs_spilp: Comparison,
    /// HRMS vs Slack.
    pub vs_slack: Comparison,
    /// HRMS vs FRLC.
    pub vs_frlc: Comparison,
}

/// Table 3: total scheduling time per method over the whole suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table3 {
    /// Total HRMS time.
    pub hrms: Duration,
    /// Total SPILP-stand-in time.
    pub spilp: Duration,
    /// Total Slack time.
    pub slack: Duration,
    /// Total FRLC time.
    pub frlc: Duration,
}

/// The machine model of Table 1 (1 FP add, 1 FP mul, 1 FP div, 1 load/store).
pub fn table1_machine() -> Machine {
    presets::govindarajan()
}

/// Runs the Table 1 experiment on the given loops (pass
/// [`hrms_workloads::reference24::all`] for the full table). `bb_budget`
/// caps the branch-and-bound search per II (the default of
/// [`SchedulerConfig::default`] is exact for all 24 loops but slow; the
/// quick harness uses a smaller cap).
///
/// The loops are scheduled in parallel through [`BatchEngine`]; rows come
/// back in input order, so the rendered table is byte-stable. Note that the
/// per-cell `time` fields are wall-clock measurements and can be mildly
/// inflated by contention when many loops are in flight.
pub fn run_table1(loops: &[Ddg], bb_budget: u64) -> Table1 {
    run_table1_on(&BatchEngine::new(), loops, bb_budget)
}

/// [`run_table1`] on a caller-provided engine (e.g. a single-worker engine
/// for contention-free timing measurements).
pub fn run_table1_on(engine: &BatchEngine, loops: &[Ddg], bb_budget: u64) -> Table1 {
    let machine = table1_machine();
    let hrms = HrmsScheduler::new();
    let spilp = BranchAndBoundScheduler {
        config: SchedulerConfig {
            budget_per_ii: bb_budget,
        },
    };
    let slack = SlackScheduler::new();
    let frlc = FrlcScheduler::new();

    let rows = engine.map(loops, |_, ddg| {
        let cell = |s: &dyn ModuloScheduler| {
            let outcome = must_schedule(s, ddg, &machine);
            Cell {
                ii: outcome.metrics.ii,
                buffers: outcome.metrics.buffers,
                time: outcome.elapsed,
            }
        };
        let hrms_outcome = must_schedule(&hrms, ddg, &machine);
        let mii = hrms_outcome.metrics.mii;
        let hrms_cell = Cell {
            ii: hrms_outcome.metrics.ii,
            buffers: hrms_outcome.metrics.buffers,
            time: hrms_outcome.elapsed,
        };
        Table1Row {
            name: ddg.name().to_string(),
            ops: ddg.num_nodes(),
            mii,
            hrms: hrms_cell,
            spilp: cell(&spilp),
            slack: cell(&slack),
            frlc: cell(&frlc),
        }
    });
    Table1 { rows }
}

impl Table1 {
    /// Derives Table 2 from the per-loop rows.
    pub fn summarize(&self) -> Table2 {
        let compare = |other: fn(&Table1Row) -> &Cell| {
            let mut c = Comparison::default();
            for row in &self.rows {
                let o = other(row);
                match row.hrms.ii.cmp(&o.ii) {
                    std::cmp::Ordering::Less => c.ii_better += 1,
                    std::cmp::Ordering::Greater => c.ii_worse += 1,
                    std::cmp::Ordering::Equal => {
                        c.ii_equal += 1;
                        match row.hrms.buffers.cmp(&o.buffers) {
                            std::cmp::Ordering::Less => c.buf_better += 1,
                            std::cmp::Ordering::Greater => c.buf_worse += 1,
                            std::cmp::Ordering::Equal => c.buf_equal += 1,
                        }
                    }
                }
            }
            c
        };
        Table2 {
            vs_spilp: compare(|r| &r.spilp),
            vs_slack: compare(|r| &r.slack),
            vs_frlc: compare(|r| &r.frlc),
        }
    }

    /// Derives Table 3 (total scheduling times).
    pub fn totals(&self) -> Table3 {
        let sum = |f: fn(&Table1Row) -> Duration| self.rows.iter().map(f).sum();
        Table3 {
            hrms: sum(|r| r.hrms.time),
            spilp: sum(|r| r.spilp.time),
            slack: sum(|r| r.slack.time),
            frlc: sum(|r| r.frlc.time),
        }
    }

    /// Renders the table as aligned text (the format printed by
    /// `cargo run -p hrms-bench --bin table1`).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.ops.to_string(),
                    r.mii.to_string(),
                    r.hrms.ii.to_string(),
                    r.hrms.buffers.to_string(),
                    r.spilp.ii.to_string(),
                    r.spilp.buffers.to_string(),
                    r.slack.ii.to_string(),
                    r.slack.buffers.to_string(),
                    r.frlc.ii.to_string(),
                    r.frlc.buffers.to_string(),
                ]
            })
            .collect();
        crate::render_table(
            &[
                "loop",
                "ops",
                "MII",
                "HRMS II",
                "buf",
                "SPILP* II",
                "buf",
                "Slack II",
                "buf",
                "FRLC II",
                "buf",
            ],
            &rows,
        )
    }
}

impl Table2 {
    /// Renders Table 2 as aligned text.
    pub fn render(&self) -> String {
        let row = |name: &str, c: &Comparison| {
            vec![
                name.to_string(),
                c.ii_better.to_string(),
                c.ii_equal.to_string(),
                c.ii_worse.to_string(),
                c.buf_better.to_string(),
                c.buf_equal.to_string(),
                c.buf_worse.to_string(),
            ]
        };
        crate::render_table(
            &["vs", "II <", "II =", "II >", "Buf <", "Buf =", "Buf >"],
            &[
                row("SPILP*", &self.vs_spilp),
                row("Slack", &self.vs_slack),
                row("FRLC", &self.vs_frlc),
            ],
        )
    }
}

impl Table3 {
    /// Renders Table 3 as aligned text.
    pub fn render(&self) -> String {
        crate::render_table(
            &["method", "total scheduling time (s)"],
            &[
                vec![
                    "HRMS".to_string(),
                    format!("{:.3}", self.hrms.as_secs_f64()),
                ],
                vec![
                    "SPILP*".to_string(),
                    format!("{:.3}", self.spilp.as_secs_f64()),
                ],
                vec![
                    "Slack".to_string(),
                    format!("{:.3}", self.slack.as_secs_f64()),
                ],
                vec![
                    "FRLC".to_string(),
                    format!("{:.3}", self.frlc.as_secs_f64()),
                ],
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_workloads::reference24;

    /// A trimmed Table 1 run (first 6 loops, small search budget) keeps the
    /// test quick while still exercising every scheduler.
    fn small_table() -> Table1 {
        let loops = reference24::all().into_iter().take(6).collect::<Vec<_>>();
        run_table1(&loops, 5_000)
    }

    #[test]
    fn every_row_achieves_at_least_the_mii() {
        let t = small_table();
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            for cell in [&row.hrms, &row.spilp, &row.slack, &row.frlc] {
                assert!(cell.ii >= row.mii, "{}: II below MII", row.name);
            }
        }
    }

    #[test]
    fn hrms_never_loses_to_the_register_insensitive_heuristic_on_buffers_at_equal_ii() {
        let t = small_table();
        for row in &t.rows {
            if row.hrms.ii == row.frlc.ii {
                assert!(
                    row.hrms.buffers <= row.frlc.buffers + 1,
                    "{}: HRMS {} buffers vs FRLC {}",
                    row.name,
                    row.hrms.buffers,
                    row.frlc.buffers
                );
            }
        }
    }

    #[test]
    fn table2_counts_sum_to_the_number_of_loops() {
        let t = small_table();
        let t2 = t.summarize();
        for c in [t2.vs_spilp, t2.vs_slack, t2.vs_frlc] {
            assert_eq!(c.ii_better + c.ii_equal + c.ii_worse, t.rows.len());
            assert_eq!(c.buf_better + c.buf_equal + c.buf_worse, c.ii_equal);
        }
    }

    #[test]
    fn renders_are_nonempty_and_contain_headers() {
        let t = small_table();
        assert!(t.render().contains("HRMS II"));
        assert!(t.summarize().render().contains("II ="));
        assert!(t.totals().render().contains("total scheduling time"));
    }
}
