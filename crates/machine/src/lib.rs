//! Machine descriptions for the HRMS modulo-scheduling reproduction.
//!
//! A [`Machine`] describes the execution resources of the target processor:
//! a set of [`ResourceClass`]es (functional-unit groups with a replication
//! count and a pipelining flag), a mapping from [`hrms_ddg::OpKind`] to the
//! class that executes it, and per-kind latencies.
//!
//! Three preset machines mirror the configurations used in the paper:
//!
//! * [`presets::general_purpose`] — Section 2.1's motivating-example machine:
//!   4 fully-pipelined general-purpose units, every operation has latency 2.
//! * [`presets::govindarajan`] — Section 4.1 / Table 1: 1 FP adder, 1 FP
//!   multiplier, 1 FP divider, 1 load/store unit; add/sub/store latency 1,
//!   mul/load latency 2, div latency 17.
//! * [`presets::perfect_club`] — Section 4.2: 2 load/store units, 2 adders,
//!   2 multipliers and 2 non-pipelined div/sqrt units; store latency 1, load
//!   2, add/mul 4, div 17, sqrt 30.
//!
//! # Example
//!
//! ```
//! use hrms_machine::presets;
//! use hrms_ddg::OpKind;
//!
//! let m = presets::govindarajan();
//! assert_eq!(m.latency_of(OpKind::FpDiv), 17);
//! assert_eq!(m.class_of(OpKind::Load), m.class_of(OpKind::Store));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fingerprint;
pub mod machine;
pub mod presets;
pub mod resmii;
pub mod textfmt;

pub use error::MachineError;
pub use fingerprint::machine_fingerprint;
pub use machine::{ClassId, Machine, MachineBuilder, ResourceClass};
pub use resmii::res_mii;
pub use textfmt::{parse_machine, parse_machine_with_spans, write_machine, MachineSpans};
