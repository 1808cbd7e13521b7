//! The correctness gate, run outside every timed region: certify every
//! schedule, check every service response against the certified library
//! results, and diff the cached service against a cache-disabled replay.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use hrms_ddg::Ddg;
use hrms_engine::BatchEngine;
use hrms_machine::Machine;
use hrms_modsched::{report_line, ReportOptions, SchedError, ScheduleOutcome};
use hrms_serve::json::Value;
use hrms_serve::protocol::{done_record, result_record};
use hrms_serve::registry::feedback_scheduler;
use hrms_serve::{ServeConfig, Service};
use hrms_verify::certify;

use crate::inputs::{Expect, Workload, CACHE_CAPACITY, FEEDBACK};
use crate::timed::{send, Matrix};

/// Counts the checks made and the unexpected outcomes among them.
#[derive(Default)]
pub struct Gate {
    pub checks: u64,
    pub failures: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures += 1;
            if self.failures <= 10 {
                eprintln!("perfbench: FAILED {}", what());
            }
        }
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.check(false, what);
    }
}

/// Certifies every cell of `matrix` (`[scheduler][loop][machine]`); an
/// error on these valid inputs counts as a failure too.
pub fn certify_matrix(
    gate: &mut Gate,
    engine: &BatchEngine,
    names: &[&str],
    loops: &[Ddg],
    machines: &[Machine],
    matrix: &Matrix,
) {
    let cells: Vec<(usize, usize, usize)> = (0..matrix.len())
        .flat_map(|s| {
            (0..loops.len()).flat_map(move |l| (0..machines.len()).map(move |m| (s, l, m)))
        })
        .collect();
    let verdicts = engine.map(&cells, |_, &(s, l, m)| match &matrix[s][l][m] {
        Ok(o) => certify(&loops[l], &machines[m], &o.schedule).passed(),
        Err(_) => false,
    });
    for (&(s, l, m), ok) in cells.iter().zip(verdicts) {
        gate.check(ok, || {
            let why = match &matrix[s][l][m] {
                Ok(_) => "schedule fails certification".to_string(),
                Err(e) => format!("unexpected error: {e}"),
            };
            format!(
                "{} on `{}` × {}: {why}",
                names[s],
                loops[l].name(),
                machines[m].name()
            )
        });
    }
}

/// The feedback cells the stream names, scheduled through the library.
pub struct FeedbackRun {
    pub cell_ms: Vec<f64>,
    /// Σ `FeedbackTrace::iterations` over the cells.
    pub attempts: u64,
}

/// Report lines of every cell a request can name, keyed by
/// `(pool loop, machine, feedback)`: HRMS cells from the certified
/// `hrms` matrix (`[0][loop][machine]`), feedback cells scheduled and
/// certified here.
pub fn expected_lines(
    gate: &mut Gate,
    w: &Workload,
    hrms: &Matrix,
) -> (HashMap<(usize, usize, bool), String>, FeedbackRun) {
    let mut lines = HashMap::new();
    for (l, per_machine) in hrms[0].iter().enumerate() {
        for (m, outcome) in per_machine.iter().enumerate() {
            if let Ok(o) = outcome {
                let line = report_line(
                    &w.pool[l],
                    &w.machines[m],
                    "HRMS",
                    o,
                    ReportOptions::default(),
                );
                lines.insert((l, m, false), line);
            }
        }
    }
    let feedback_cells: BTreeSet<(usize, usize)> = w
        .requests
        .iter()
        .filter_map(|r| match &r.expect {
            Expect::Cells {
                loops,
                machines,
                feedback: true,
            } => Some(
                loops
                    .iter()
                    .flat_map(|&l| machines.iter().map(move |&m| (l, m)))
                    .collect::<Vec<_>>(),
            ),
            _ => None,
        })
        .flatten()
        .collect();
    let scheduler = feedback_scheduler("hrms", FEEDBACK).expect("hrms resolves");
    let mut run = FeedbackRun {
        cell_ms: Vec::new(),
        attempts: 0,
    };
    for (l, m) in feedback_cells {
        let (ddg, machine) = (&w.pool[l], &w.machines[m]);
        let t = Instant::now();
        let outcome: Result<ScheduleOutcome, SchedError> = scheduler.schedule_loop(ddg, machine);
        run.cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(o) => {
                run.attempts += o.feedback.as_ref().map_or(0, |f| f.iterations.len() as u64);
                gate.check(certify(ddg, machine, &o.schedule).passed(), || {
                    format!("feedback schedule of `{}` fails certification", ddg.name())
                });
                let line =
                    report_line(ddg, machine, scheduler.name(), &o, ReportOptions::default());
                lines.insert((l, m, true), line);
            }
            Err(e) => gate.fail(|| format!("feedback on `{}`: unexpected error: {e}", ddg.name())),
        }
    }
    (lines, run)
}

/// Replays one pass of the stream on `cached` (the timed service, warm)
/// and on a fresh cache-disabled service. Every response must match its
/// cold replay byte for byte (so every cache hit replays cold bytes), and
/// every cold response must be exactly the records the certified library
/// results render to; malformed requests must be rejected with a
/// diagnostic record.
pub fn check_serve(
    gate: &mut Gate,
    w: &Workload,
    workers: usize,
    expected: &HashMap<(usize, usize, bool), String>,
    cached: &mut Service,
) {
    let mut cold = Service::new(&ServeConfig {
        workers: Some(workers),
        cache_capacity: CACHE_CAPACITY,
        cache: false,
    });
    for r in &w.requests {
        let cold_out = send(&mut cold, &r.line);
        let warm_out = send(cached, &r.line);
        gate.check(warm_out == cold_out, || {
            format!(
                "request {}: cached response differs from the cold replay",
                r.id
            )
        });
        match &r.expect {
            Expect::Cells {
                loops,
                machines,
                feedback,
            } => {
                let id = Value::Num(r.id.to_string());
                let mut want = Vec::with_capacity(loops.len() * machines.len() + 1);
                for &l in loops {
                    for &m in machines {
                        match expected.get(&(l, m, *feedback)) {
                            Some(line) => want.push(result_record(&id, want.len(), line)),
                            None => want.push(String::new()),
                        }
                    }
                }
                want.push(done_record(&id, want.len(), 0));
                gate.check(cold_out == want, || {
                    format!(
                        "request {}: response differs from the certified library records",
                        r.id
                    )
                });
            }
            Expect::Rejected { id, diagnostics } => {
                let id = id.map_or("null".to_string(), |id| id.to_string());
                let prefix =
                    format!("{{\"type\":\"error\",\"id\":{id},\"stage\":\"request\",\"error\":\"");
                let ok = cold_out.len() == 1
                    && cold_out[0].starts_with(&prefix)
                    && !cold_out[0][prefix.len()..].starts_with('"')
                    && (!diagnostics || cold_out[0].contains(",\"diagnostics\":[{"));
                gate.check(ok, || {
                    format!(
                        "malformed request {} was not rejected with a diagnostic: {cold_out:?}",
                        r.id
                    )
                });
            }
        }
    }
}
