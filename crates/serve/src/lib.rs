//! `hrms-serve` — the batch scheduling service behind `hrms serve`.
//!
//! A long-lived service that accepts JSON-lines requests over a pipe
//! (stdin/stdout) or a Unix socket, schedules batches of loops across the
//! [`hrms_engine`] work-stealing pool, and streams one result record per
//! loop back **in input order**. Results are cached under the
//! content-addressed [`hrms_ddg::cache_key`], so a loop/machine/scheduler
//! triple is ever scheduled once; the cache's hit/miss/eviction counters
//! are observable through the `stats` request. The wire protocol is
//! specified in `docs/SERVICE.md`.
//!
//! The crate is transport-agnostic at its core: [`Service::handle_line`]
//! maps one request line to its response lines, and everything else —
//! [`Service::run`] over `BufRead`/`Write`, [`Service::process`] over
//! strings, [`Service::serve_unix`] over a socket — is plumbing around
//! it, which is what makes the protocol testable entirely in-process.
//!
//! This crate also hosts the string-driven registries ([`registry`])
//! shared with the CLI, and a small dependency-free JSON parser
//! ([`json`]) for the request side of the protocol (responses are
//! rendered with the same escaping helpers as `hrms schedule --emit
//! json`, so service records are byte-compatible with CLI records).

pub mod json;
pub mod protocol;
pub mod registry;
mod service;

pub use protocol::{looks_like_dot, looks_like_machine, parse_loop_source};
pub use service::{ServeConfig, Service, MAX_REQUEST_LINE};
