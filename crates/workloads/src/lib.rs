//! Workloads for the HRMS reproduction.
//!
//! Three families of loop bodies drive the evaluation harness:
//!
//! * [`motivating`] — the worked examples of the paper (Figures 1, 7, 8
//!   and a Figure-10-style two-recurrence graph), used by the examples and
//!   by the tests that check HRMS reproduces the paper's walk-throughs
//!   exactly;
//! * [`reference24`] — a 24-loop suite modelled on the Livermore /
//!   linear-algebra kernels used by Govindarajan et al. (the source of the
//!   paper's Table 1); the original dependence graphs were never published
//!   machine-readably, so these are reconstructions with the same structural
//!   variety (see *Substitutions* in docs/ARCHITECTURE.md);
//! * [`synthetic`] — a deterministic generator of Perfect-Club-like loop
//!   suites (1258 loops by default) with realistic size, operation-mix,
//!   recurrence and iteration-count distributions, used for the Section 4.2
//!   statistics and Figures 11–14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod motivating;
pub mod reference24;
pub mod synthetic;

pub use generator::{GeneratorConfig, LoopGenerator};
pub use synthetic::perfect_club_like_sized;
