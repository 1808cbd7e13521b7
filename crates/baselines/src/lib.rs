//! Baseline modulo schedulers for the HRMS reproduction.
//!
//! Every scheduler the paper compares HRMS against (plus one extra reference
//! point), all implementing [`hrms_modsched::ModuloScheduler`]:
//!
//! * [`TopDownScheduler`] — sources-first, as-soon-as-possible placement;
//!   the register-oblivious scheduler of the Section 4.2 comparison and of
//!   the motivating example (Figure 2).
//! * [`BottomUpScheduler`] — sinks-first, as-late-as-possible placement
//!   (Figure 3).
//! * [`SlackScheduler`] — Huff-style lifetime-sensitive slack scheduling
//!   with ejection (the paper's "Slack" column).
//! * [`FrlcScheduler`] — FRLC-style decomposed software pipelining, the
//!   register-insensitive heuristic of the "FRLC" column.
//! * [`BranchAndBoundScheduler`] — exhaustive buffer-minimising search, the
//!   stand-in for the SPILP integer-linear-programming formulation.
//! * [`IterativeScheduler`] — Rau's iterative modulo scheduling, an extra
//!   register-oblivious reference point used by the ablation benches.
//!
//! # Example
//!
//! ```
//! use hrms_baselines::all_baselines;
//! use hrms_modsched::ModuloScheduler;
//! use hrms_machine::presets;
//! use hrms_ddg::{DdgBuilder, OpKind, DepKind};
//!
//! # fn main() -> Result<(), hrms_modsched::SchedError> {
//! let mut b = DdgBuilder::new("loop");
//! let ld = b.node("ld", OpKind::Load, 2);
//! let st = b.node("st", OpKind::Store, 1);
//! b.edge(ld, st, DepKind::RegFlow, 0)?;
//! let ddg = b.build()?;
//! let machine = presets::govindarajan();
//! for scheduler in all_baselines() {
//!     let outcome = scheduler.schedule_loop(&ddg, &machine)?;
//!     assert!(outcome.metrics.ii >= outcome.metrics.mii);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backtrack;
pub mod bottomup;
pub mod common;
pub mod frlc;
pub mod iterative;
pub mod optimal;
pub mod slack;
pub mod topdown;

pub use bottomup::BottomUpScheduler;
pub use frlc::FrlcScheduler;
pub use iterative::IterativeScheduler;
pub use optimal::{BranchAndBoundScheduler, SearchStats};
pub use slack::SlackScheduler;
pub use topdown::TopDownScheduler;

use hrms_modsched::ModuloScheduler;

/// All baseline schedulers with default configuration, boxed behind the
/// common trait (handy for harnesses that iterate over schedulers).
pub fn all_baselines() -> Vec<Box<dyn ModuloScheduler>> {
    vec![
        Box::new(TopDownScheduler::new()),
        Box::new(BottomUpScheduler::new()),
        Box::new(SlackScheduler::new()),
        Box::new(FrlcScheduler::new()),
        Box::new(IterativeScheduler::new()),
        Box::new(BranchAndBoundScheduler::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_baselines_have_distinct_names() {
        let names: Vec<String> = all_baselines()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
        assert_eq!(names.len(), 6);
    }
}
