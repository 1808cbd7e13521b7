//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <perfect_club|large_loops|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--short]
//! ```
//!
//! Generates the workload's inputs from the seed, drives the workspace
//! through its public entry points (`BatchEngine::schedule_matrix` and
//! `Service::handle_line`), checks every output, and prints one JSON object
//! as the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer split from a traced replay with `--trace 1`.
//! `NOTES.md` defines every metric and workload.

mod gate;
mod inputs;
mod timed;
mod trace;

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hrms_core::HrmsScheduler;
use hrms_engine::BatchEngine;
use hrms_modsched::ModuloScheduler;
use hrms_serve::registry::{scheduler_by_slug, BoxedScheduler};
use hrms_serve::{ServeConfig, Service};

use gate::Gate;
use inputs::{Workload, CACHE_CAPACITY};
use timed::median;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        short: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--short" {
            args.short = true;
            continue;
        }
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("`{flag} {value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !inputs::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            inputs::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: generate the inputs, start a service and warm it with one
/// pass of the request stream.
fn set_up(args: &Args, workers: usize) -> (Workload, Service) {
    let w = inputs::build(&args.workload, args.seed, args.short).expect("workload name checked");
    let mut s = Service::new(&ServeConfig {
        workers: Some(workers),
        cache_capacity: CACHE_CAPACITY,
        cache: true,
    });
    timed::warm(&mut s, &w.requests);
    (w, s)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(2);
    let engine = BatchEngine::with_workers(workers);

    // Set up several times and report the median.
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..if args.trace { 1 } else { 3 } {
        drop(state.take());
        let t = Instant::now();
        state = Some(set_up(&args, workers));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (w, mut svc) = state.expect("set up at least once");
    let mut props = inputs::properties(&w);

    let mut gate = Gate::default();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if args.trace {
        let traced = trace::run(
            &w,
            &engine,
            &mut svc,
            &mut gate,
            Duration::from_secs_f64(args.seconds),
        );
        metrics = traced.metrics;
        let fallback = metrics
            .iter()
            .find(|m| m.0 == "hrms.fallback_loops")
            .map_or(0.0, |m| m.1);
        props.push((
            "hrms_fallback_share".to_string(),
            format!(
                "{:.4}",
                fallback / (w.matrix_loops * w.machines.len()) as f64
            ),
        ));
        gate::certify_matrix(
            &mut gate,
            &engine,
            &["hrms"],
            w.matrix(),
            &w.machines,
            &traced.hrms,
        );
        gate::certify_matrix(
            &mut gate,
            &engine,
            w.traced_baselines,
            w.matrix(),
            &w.machines,
            &traced.baselines,
        );
        let (expected, feedback) = gate::expected_lines(&mut gate, &w, &traced.hrms);
        gate::check_serve(&mut gate, &w, workers, &expected, &mut svc);
        metrics.push(("regalloc.feedback_cell_ms", median(&feedback.cell_ms), "ms"));
        metrics.push((
            "modsched.feedback_attempts",
            feedback.attempts as f64,
            "count",
        ));
        let dir = std::path::Path::new(".bench_build").join("perfbench-trace");
        let path = dir.join(format!("{}-{}.tsv", w.name, args.seed));
        if std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, &traced.spans))
            .is_ok()
        {
            eprintln!("perfbench: spans written to {}", path.display());
        }
    } else {
        let hrms = HrmsScheduler::new();
        let baselines: Vec<BoxedScheduler> = inputs::MATRIX_BASELINES
            .iter()
            .map(|s| scheduler_by_slug(s).expect("baseline slugs resolve"))
            .collect();
        let baseline_refs: Vec<&(dyn ModuloScheduler + Sync)> = baselines
            .iter()
            .map(|b| &**b as &(dyn ModuloScheduler + Sync))
            .collect();
        let timed::Measured {
            hrms: h,
            baselines: b,
            serve,
        } = timed::measure(
            &engine,
            &[&hrms],
            &baseline_refs,
            w.matrix(),
            &w.machines,
            &mut svc,
            &w.requests,
            Duration::from_secs_f64(args.seconds),
        );
        let rss = peak_rss_mb();

        // Schedule quality of the HRMS cells: the paper's §4.2 dynamic
        // efficiency Σ MII·iter / Σ II·iter, and Σ MaxLive.
        let (mut weighted_mii, mut weighted_ii, mut max_live) = (0u128, 0u128, 0u64);
        for (ddg, per_machine) in w.matrix().iter().zip(&h.last[0]) {
            for o in per_machine.iter().flatten() {
                weighted_mii += u128::from(o.metrics.mii) * u128::from(ddg.iteration_count());
                weighted_ii += u128::from(o.metrics.ii) * u128::from(ddg.iteration_count());
                max_live += o.metrics.max_live;
            }
        }
        // Cells of earlier passes are not certified, but an error on any
        // timed cell is a failure.
        for _ in 0..h.errors + b.errors {
            gate.fail(|| "a timed cell returned an error".to_string());
        }
        gate::certify_matrix(
            &mut gate,
            &engine,
            &["hrms"],
            w.matrix(),
            &w.machines,
            &h.last,
        );
        gate::certify_matrix(
            &mut gate,
            &engine,
            &inputs::MATRIX_BASELINES,
            w.matrix(),
            &w.machines,
            &b.last,
        );
        let (expected, _) = gate::expected_lines(&mut gate, &w, &h.last);
        gate::check_serve(&mut gate, &w, workers, &expected, &mut svc);
        let samples = serve.latencies_ms.len();
        if samples < 1000 && !args.short {
            eprintln!(
                "perfbench: only {samples} serve samples; the p99 has fewer than 10 beyond it"
            );
        }
        metrics.extend([
            ("hrms_schedules_per_s", h.rate(), "1/s"),
            ("baseline_schedules_per_s", b.rate(), "1/s"),
            ("serve_requests_per_s", serve.rate(), "1/s"),
            ("serve_p50_ms", serve.p50_ms(), "ms"),
            ("serve_p99_ms", serve.p99_ms(), "ms"),
            (
                "dynamic_efficiency",
                weighted_mii as f64 / weighted_ii.max(1) as f64,
                "ratio",
            ),
            ("max_live_total", max_live as f64, "count"),
            (
                "ok_share",
                1.0 - gate.failures as f64 / gate.checks.max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mb", rss, "MB"),
            ("setup_s", median(&setups), "s"),
        ]);
        props.push(("hrms_passes".to_string(), h.passes.to_string()));
        props.push(("baseline_passes".to_string(), b.passes.to_string()));
        props.push(("serve_samples".to_string(), samples.to_string()));
    }

    let mut inputs_line = String::from("# inputs:");
    for (k, v) in &props {
        let _ = write!(inputs_line, " {k}={v}");
    }
    println!("{inputs_line}");
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.failures == 0,
        gate.checks.max(1),
        gate.failures
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    out.push_str("}}");
    println!("{out}");
    ExitCode::SUCCESS
}
