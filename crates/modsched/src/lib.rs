//! Modulo-scheduling substrate shared by HRMS and every baseline scheduler.
//!
//! Software pipelining overlaps consecutive loop iterations: a new iteration
//! is initiated every *II* cycles (the *initiation interval*). A modulo
//! schedule assigns each operation `u` a start cycle `t(u)` such that
//!
//! * every dependence `(u, v)` with distance `δ` satisfies
//!   `t(v) ≥ t(u) + λ(u) − δ·II`, and
//! * no functional unit is oversubscribed in any *modulo slot*
//!   (`t(u) mod II`), because the same slot is reused by every iteration.
//!
//! This crate provides the machinery every scheduler needs:
//!
//! * the lower bound on the II ([`mii`]): `MII = max(ResMII, RecMII)`,
//! * the modulo reservation table ([`mrt`]),
//! * partial schedules with the `Early_Start` / `Late_Start` computations of
//!   the paper ([`partial`]),
//! * finished schedules, kernels and stage counts ([`schedule`], [`kernel`]),
//! * loop-variant lifetimes, `MaxLive` and buffer requirements
//!   ([`lifetime`]),
//! * an independent schedule validator used by the test-suite
//!   ([`validate`]),
//! * feedback-guided iterative rescheduling around any scheduler
//!   ([`feedback`]),
//! * the [`ModuloScheduler`] trait implemented by HRMS and all baselines,
//!   and the II-escalation driver they all run through, [`escalate_ii`]
//!   ([`scheduler`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod feedback;
pub mod kernel;
pub mod lifetime;
pub mod mii;
pub mod mrt;
pub mod partial;
pub mod report;
pub mod schedule;
pub mod scheduler;
pub mod validate;

pub use error::SchedError;
pub use feedback::{
    FeedbackConfig, FeedbackIteration, FeedbackTrace, IterativeRescheduler, Perturbation,
    RegisterBudget, SpillEvaluator, SpillSignals, StartHint,
};
pub use kernel::Kernel;
pub use lifetime::{LifetimeAnalysis, ValueLifetime};
pub use mii::MiiInfo;
pub use mrt::ModuloReservationTable;
pub use partial::PartialSchedule;
pub use report::{
    error_line, push_json_str, report_line, report_line_with_digests, ReportDigests, ReportOptions,
};
pub use schedule::Schedule;
pub use scheduler::{
    escalate_ii, ModuloScheduler, ScheduleMetrics, ScheduleOutcome, SchedulerConfig, MAX_II,
};
pub use validate::{validate_schedule, ValidationError};
