//! The traced run: replays every HRMS cell through the layers' public calls
//! in `HrmsScheduler` order, with one span around each call, and times the
//! baselines, the engine pool and the service per request class.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the durations of its direct children.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hrms_core::{pre_order_with, schedule_at_ii_with, HrmsScheduler, PreOrderOptions};
use hrms_ddg::{ddg_fingerprint, parse_loops, Ddg, LoopAnalysis, LoopCore, NodeId};
use hrms_engine::BatchEngine;
use hrms_machine::Machine;
use hrms_modsched::{
    report_line, MiiInfo, ModuloScheduler, ReportOptions, SchedError, ScheduleOutcome,
    SchedulerConfig,
};
use hrms_serve::registry::scheduler_by_slug;
use hrms_serve::Service;

use crate::gate::Gate;
use crate::inputs::{Expect, Workload};
use crate::timed::{median, Matrix};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = self.origin.elapsed();
    }

    /// Σ duration and Σ self time (seconds) per span name.
    pub fn totals(&self) -> HashMap<&'static str, (f64, f64)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: HashMap<&'static str, (f64, f64)> = HashMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end - s.start).as_secs_f64();
            e.1 += (s.end - s.start).saturating_sub(c).as_secs_f64();
        }
        out
    }

    /// The spans as tab-separated `id parent name start_ns end_ns` lines.
    pub fn render(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}

/// Per-cell counters of the replica.
#[derive(Default, Clone, Copy)]
struct Counts {
    attempts: u64,
    passes: u64,
    placed: u64,
    fallback_cells: u64,
}

/// `HrmsScheduler`'s earliest-start fallback order, rebuilt from
/// `LoopAnalysis::earliest_starts` at the MII.
fn earliest_start_order(la: &LoopAnalysis<'_>, ii: u32) -> Vec<NodeId> {
    let ddg = la.ddg();
    let est = la
        .earliest_starts(ii)
        .unwrap_or_else(|| vec![0; ddg.num_nodes()]);
    let mut order: Vec<NodeId> = ddg.node_ids().collect();
    order.sort_by_key(|n| (est[n.index()], n.index()));
    order
}

/// One HRMS cell, replayed call by call in `HrmsScheduler` order.
fn replay_cell(
    tr: &mut Tracer,
    ddg: &Ddg,
    machine: &Machine,
    core: &Arc<LoopCore>,
    counts: &mut Counts,
) -> Result<ScheduleOutcome, SchedError> {
    let start = Instant::now();
    let analysis = LoopAnalysis::with_core(ddg, Arc::clone(core));
    tr.enter("modsched.mii");
    let mii = MiiInfo::compute(machine, &analysis);
    tr.exit();
    let mii = mii?;
    let order_start = Instant::now();
    tr.enter("hrms.preorder");
    let pre = pre_order_with(&analysis, &PreOrderOptions::default());
    tr.exit();
    let ordering_time = order_start.elapsed();
    let max_ii = SchedulerConfig::default().effective_max_ii(ddg, mii.mii());
    if max_ii < mii.mii() {
        return Err(SchedError::NoValidSchedule {
            max_ii_tried: max_ii,
        });
    }
    let mut fallback: Option<Vec<NodeId>> = None;
    let mut attempts = 0;
    let mut ii = mii.mii();
    loop {
        attempts += 1;
        counts.attempts += 1;
        let mut placed = None;
        for use_fallback in [false, true] {
            if use_fallback && fallback.is_none() {
                tr.enter("hrms.fallback_order");
                fallback = Some(earliest_start_order(&analysis, mii.mii()));
                tr.exit();
                counts.fallback_cells += 1;
            }
            let order = if use_fallback {
                fallback.as_deref().expect("built above")
            } else {
                &pre.order
            };
            tr.enter("modsched.place");
            let schedule = schedule_at_ii_with(ddg, machine, analysis.placement(), order, ii);
            tr.exit();
            counts.passes += 1;
            if schedule.is_some() {
                counts.placed += 1;
                placed = schedule;
                break;
            }
        }
        if let Some(schedule) = placed {
            tr.enter("modsched.outcome");
            let outcome =
                ScheduleOutcome::new(ddg, schedule, mii, attempts, start.elapsed(), ordering_time)
                    .with_recurrence_truncated(pre.truncated);
            tr.exit();
            return Ok(outcome);
        }
        if ii >= max_ii {
            return Err(SchedError::NoValidSchedule { max_ii_tried: ii });
        }
        ii += 1;
    }
}

/// One traced replay of every HRMS cell: parse, fingerprint, the
/// `LoopCore` facts (once per loop, shared by its machines, forced in the
/// order `HrmsScheduler` first needs them), then per machine MII, pre-ordering,
/// placement per II and the outcome, and finally the report line.
fn replay(w: &Workload, tr: &mut Tracer, counts: &mut Counts) -> Vec<Vec<Option<String>>> {
    let mut lines = Vec::with_capacity(w.matrix_loops);
    for text in &w.texts[..w.matrix_loops] {
        tr.enter("ddg.parse");
        let parsed = parse_loops(text);
        tr.exit();
        let ddg = parsed.ok().and_then(|mut v| v.pop());
        let Some(ddg) = ddg else {
            lines.push(vec![None; w.machines.len()]);
            continue;
        };
        tr.enter("ddg.fingerprint");
        std::hint::black_box(ddg_fingerprint(&ddg));
        tr.exit();
        let core = Arc::new(LoopCore::new());
        tr.enter("hrms.loop");
        let la = LoopAnalysis::with_core(&ddg, Arc::clone(&core));
        tr.enter("ddg.core.sccs");
        la.sccs();
        la.backward_edges();
        tr.exit();
        tr.enter("ddg.core.csr");
        la.csr_work();
        la.csr_full();
        la.placement();
        la.dep_edges();
        tr.exit();
        tr.enter("ddg.core.recurrence");
        la.recurrence_groups();
        la.rec_mii();
        tr.exit();
        let outcomes: Vec<_> = w
            .machines
            .iter()
            .map(|m| {
                tr.enter("hrms.cell");
                let o = replay_cell(tr, &ddg, m, &core, counts);
                tr.exit();
                o
            })
            .collect();
        tr.exit();
        let per_machine = outcomes
            .iter()
            .zip(&w.machines)
            .map(|(o, m)| {
                o.as_ref().ok().map(|o| {
                    tr.enter("modsched.report");
                    let line = report_line(&ddg, m, "HRMS", o, ReportOptions::default());
                    tr.exit();
                    line
                })
            })
            .collect();
        lines.push(per_machine);
    }
    lines
}

/// The untraced reference: `HrmsScheduler` on one worker, one shared core
/// per loop as in `schedule_matrix`. Returns the outcomes and the seconds
/// spent inside the scheduler.
fn untraced(w: &Workload) -> (Matrix, f64) {
    let hrms = HrmsScheduler::new();
    let mut busy = 0.0;
    let rows = w
        .matrix()
        .iter()
        .map(|ddg| {
            let core = Arc::new(LoopCore::new());
            let t = Instant::now();
            let row: Vec<_> = w
                .machines
                .iter()
                .map(|m| hrms.schedule_loop_with_core(ddg, m, &core))
                .collect();
            busy += t.elapsed().as_secs_f64();
            row
        })
        .collect();
    (vec![rows], busy)
}

pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `HrmsScheduler`'s outcomes, for certification.
    pub hrms: Matrix,
    /// Each baseline's outcomes, for certification.
    pub baselines: Matrix,
    pub spans: String,
}

/// The traced run. `budget` bounds the number of HRMS replays (at least
/// one); every figure is the median over the replays.
pub fn run(
    w: &Workload,
    engine: &BatchEngine,
    service: &mut Service,
    gate: &mut Gate,
    budget: Duration,
) -> Traced {
    let mut samples: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut push = |k: &'static str, v: f64| samples.entry(k).or_default().push(v);
    let nodes: usize = w.matrix().iter().map(Ddg::num_nodes).sum();
    let start = Instant::now();
    let mut reference = None;
    let mut counts = Counts::default();
    let mut spans = String::new();
    let mut reps = 0;
    while reps == 0 || (start.elapsed() < budget / 2 && reps < 9) {
        reps += 1;
        let (outcomes, busy) = untraced(w);
        let mut tr = Tracer::new();
        counts = Counts::default();
        let lines = replay(w, &mut tr, &mut counts);
        let t = tr.totals();
        let get = |k: &str| t.get(k).copied().unwrap_or_default();
        let traced_cell = get("hrms.loop").0;
        push("hrms.cell_s", busy);
        push("hrms.traced_cell_s", traced_cell);
        push("trace.overhead_share", (traced_cell - busy) / busy);
        push("ddg.parse_s", get("ddg.parse").0);
        push("ddg.parse_nodes_per_s", nodes as f64 / get("ddg.parse").0);
        push("ddg.fingerprint_s", get("ddg.fingerprint").0);
        push("ddg.core.sccs_s", get("ddg.core.sccs").1);
        push("ddg.core.csr_s", get("ddg.core.csr").1);
        push("ddg.core.recurrence_s", get("ddg.core.recurrence").1);
        push("modsched.mii_s", get("modsched.mii").1);
        push("hrms.preorder_s", get("hrms.preorder").1);
        push("hrms.preorder_share", get("hrms.preorder").1 / traced_cell);
        push("modsched.place_s", get("modsched.place").1);
        push("hrms.fallback_order_s", get("hrms.fallback_order").1);
        push("modsched.outcome_s", get("modsched.outcome").1);
        push("hrms.control_s", get("hrms.loop").1 + get("hrms.cell").1);
        push("modsched.report_s", get("modsched.report").1);
        if reps == 1 {
            // The replica must be byte-identical to `HrmsScheduler`.
            for (l, row) in lines.iter().enumerate() {
                for (m, line) in row.iter().enumerate() {
                    let want = outcomes[0][l][m].as_ref().ok().map(|o| {
                        report_line(
                            &w.pool[l],
                            &w.machines[m],
                            "HRMS",
                            o,
                            ReportOptions::default(),
                        )
                    });
                    gate.check(line.is_some() && *line == want, || {
                        format!(
                            "traced replica differs from HrmsScheduler on `{}` × {}",
                            w.pool[l].name(),
                            w.machines[m].name()
                        )
                    });
                }
            }
            spans = tr.render();
            reference = Some(outcomes);
        }
    }
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let units: [(&'static str, &'static str); 17] = [
        ("ddg.parse_s", "s"),
        ("ddg.parse_nodes_per_s", "1/s"),
        ("ddg.fingerprint_s", "s"),
        ("ddg.core.sccs_s", "s"),
        ("ddg.core.csr_s", "s"),
        ("ddg.core.recurrence_s", "s"),
        ("modsched.mii_s", "s"),
        ("hrms.preorder_s", "s"),
        ("hrms.preorder_share", "ratio"),
        ("modsched.place_s", "s"),
        ("hrms.fallback_order_s", "s"),
        ("modsched.outcome_s", "s"),
        ("hrms.control_s", "s"),
        ("modsched.report_s", "s"),
        ("hrms.cell_s", "s"),
        ("hrms.traced_cell_s", "s"),
        ("trace.overhead_share", "ratio"),
    ];
    for (k, unit) in units {
        metrics.push((k, median(&samples[k]), unit));
    }
    metrics.push(("modsched.ii_attempts", counts.attempts as f64, "count"));
    metrics.push((
        "modsched.place_success_ratio",
        counts.placed as f64 / counts.passes.max(1) as f64,
        "ratio",
    ));
    metrics.push(("hrms.fallback_loops", counts.fallback_cells as f64, "count"));

    // Each baseline's cells on one worker, one fresh core per loop.
    let mut baseline_rows = Vec::new();
    for slug in ["top-down", "bottom-up", "slack", "frlc", "iterative"] {
        let name: &'static str = match slug {
            "top-down" => "baselines.top-down_s",
            "bottom-up" => "baselines.bottom-up_s",
            "slack" => "baselines.slack_s",
            "frlc" => "baselines.frlc_s",
            _ => "baselines.iterative_s",
        };
        if !w.traced_baselines.contains(&slug) {
            metrics.push((name, 0.0, "s"));
            continue;
        }
        let scheduler = scheduler_by_slug(slug).expect("baseline slugs resolve");
        let mut busy = 0.0;
        let rows: Vec<Vec<_>> = w
            .matrix()
            .iter()
            .map(|ddg| {
                let core = Arc::new(LoopCore::new());
                let t = Instant::now();
                let row = w
                    .machines
                    .iter()
                    .map(|m| scheduler.schedule_loop_with_core(ddg, m, &core))
                    .collect();
                busy += t.elapsed().as_secs_f64();
                row
            })
            .collect();
        metrics.push((name, busy, "s"));
        baseline_rows.push(rows);
    }

    // Pool efficiency of the HRMS matrix: Σ cell busy time ÷ (wall ×
    // workers), from the outcomes' own elapsed times.
    let hrms = HrmsScheduler::new();
    let mut efficiency = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let matrix = engine.schedule_matrix(&[&hrms], w.matrix(), &w.machines);
        let wall = t.elapsed().as_secs_f64();
        let busy: f64 = matrix
            .iter()
            .flatten()
            .flatten()
            .filter_map(|r| r.as_ref().ok())
            .map(|o| o.elapsed.as_secs_f64())
            .sum();
        efficiency.push(busy / (wall * engine.workers() as f64));
    }
    metrics.push(("engine.pool_efficiency", median(&efficiency), "ratio"));

    // One pass of the stream on the warm service, classified per request.
    let (mut hit, mut miss, mut error) = (Vec::new(), Vec::new(), Vec::new());
    let before = service.cache_stats();
    for r in &w.requests {
        let s0 = service.cache_stats();
        let t = Instant::now();
        service.handle_line(&r.line, &mut |_| {});
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let s1 = service.cache_stats();
        match r.expect {
            Expect::Rejected { .. } => error.push(ms),
            Expect::Cells { .. } if s1.misses == s0.misses && s1.hits > s0.hits => hit.push(ms),
            Expect::Cells { .. } => miss.push(ms),
        }
    }
    let after = service.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    metrics.push((
        "engine.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
    metrics.push((
        "engine.cache_evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    ));
    metrics.push(("serve.hit_request_ms", median(&hit), "ms"));
    metrics.push(("serve.miss_request_ms", median(&miss), "ms"));
    metrics.push(("serve.error_request_ms", median(&error), "ms"));

    Traced {
        metrics,
        hrms: reference.expect("at least one replay"),
        baselines: baseline_rows,
        spans,
    }
}
