//! # hrms-repro — Hypernode Reduction Modulo Scheduling
//!
//! A reproduction of *"Hypernode Reduction Modulo Scheduling"* (J. Llosa,
//! M. Valero, E. Ayguadé, A. González, MICRO-28, 1995): a register-pressure-
//! aware software-pipelining scheduler, the baselines it was evaluated
//! against, the workloads, and the harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! This crate is a thin facade re-exporting the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`ddg`] | dependence graphs, recurrence circuits, path search, topological orders |
//! | [`machine`] | machine descriptions (functional units, latencies) and the paper's configurations |
//! | [`modsched`] | MII, modulo reservation tables, schedules, kernels, lifetimes, metrics |
//! | [`hrms`] | the paper's algorithm: hypernode-reduction pre-ordering + bidirectional scheduling |
//! | [`baselines`] | Top-Down, Bottom-Up, Slack, FRLC-style, iterative, and branch-and-bound schedulers |
//! | [`regalloc`] | register pressure, spill insertion, modulo variable expansion, rotating register allocation |
//! | [`workloads`] | the paper's worked examples, a 24-loop reference suite, a synthetic Perfect-Club-like suite |
//! | [`engine`] | parallel batch scheduling across a scoped worker pool with deterministic output order |
//! | [`verify`] | diagnostics engine, DDG/machine lint pass, independent schedule certifier |
//! | [`serve`] | batch scheduling service: JSON-lines protocol over pipes or a Unix socket, content-addressed result cache |
//!
//! # Quick start
//!
//! ```
//! use hrms_repro::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Describe a loop body: y[i] = a*x[i] + y[i]
//! let mut b = DdgBuilder::new("daxpy");
//! let x = b.node("load_x", OpKind::Load, 2);
//! let y = b.node("load_y", OpKind::Load, 2);
//! let ax = b.node("a_times_x", OpKind::FpMul, 2);
//! let sum = b.node("sum", OpKind::FpAdd, 1);
//! let st = b.node("store_y", OpKind::Store, 1);
//! b.edge(x, ax, DepKind::RegFlow, 0)?;
//! b.edge(ax, sum, DepKind::RegFlow, 0)?;
//! b.edge(y, sum, DepKind::RegFlow, 0)?;
//! b.edge(sum, st, DepKind::RegFlow, 0)?;
//! let ddg = b.build()?;
//!
//! // Software-pipeline it with HRMS for the paper's Table-1 machine.
//! let machine = presets::govindarajan();
//! let outcome = HrmsScheduler::new().schedule_loop(&ddg, &machine)?;
//! assert_eq!(outcome.metrics.ii, 3); // three memory ops share one unit
//! assert!(outcome.metrics.ii_is_optimal());
//!
//! // The schedule is valid and its register pressure is measured.
//! validate_schedule(&ddg, &machine, &outcome.schedule)?;
//! println!("registers needed: {}", outcome.metrics.max_live);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hrms_baselines as baselines;
pub use hrms_core as hrms;
pub use hrms_ddg as ddg;
pub use hrms_engine as engine;
pub use hrms_machine as machine;
pub use hrms_modsched as modsched;
pub use hrms_regalloc as regalloc;
pub use hrms_serve as serve;
pub use hrms_verify as verify;
pub use hrms_workloads as workloads;

pub mod cli;
pub mod registry;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use hrms_baselines::{
        BottomUpScheduler, BranchAndBoundScheduler, FrlcScheduler, IterativeScheduler,
        SlackScheduler, TopDownScheduler,
    };
    pub use hrms_core::{HrmsScheduler, PreOrderOptions};
    pub use hrms_ddg::{Ddg, DdgBuilder, DepKind, NodeId, OpKind};
    pub use hrms_engine::BatchEngine;
    pub use hrms_machine::{presets, Machine, MachineBuilder, ResourceClass};
    pub use hrms_modsched::{
        validate_schedule, Kernel, LifetimeAnalysis, MiiInfo, ModuloScheduler, Schedule,
        ScheduleMetrics, ScheduleOutcome, SchedulerConfig,
    };
    pub use hrms_regalloc::{
        allocate_rotating, schedule_with_register_budget, CumulativeDistribution, PressureKind,
        RegisterPressure, SpillConfig,
    };
    pub use hrms_verify::{
        certify, lint_loop_source, lint_machine_source, Certificate, Diagnostic, Severity,
    };
    pub use hrms_workloads::{motivating, reference24, synthetic, LoopGenerator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let ddg = motivating::figure1();
        let machine = presets::general_purpose();
        let outcome = HrmsScheduler::new().schedule_loop(&ddg, &machine).unwrap();
        validate_schedule(&ddg, &machine, &outcome.schedule).unwrap();
        assert_eq!(outcome.metrics.max_live, 6);
    }
}
