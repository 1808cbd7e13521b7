//! Thread-local instrumentation counters for the expensive one-per-loop
//! analyses.
//!
//! The shared [`crate::LoopCore`] promises that however many machines a
//! loop is scheduled against, the machine-independent passes run **once**:
//! one Tarjan SCC run and one cycle-ratio λ-search pass per loop body.
//! These counters make that promise testable from outside the crate — the
//! workspace property suite resets them, schedules a loop against every
//! preset through a shared [`crate::LoopCore`], and asserts both counts
//! are exactly 1.
//!
//! The counters are per-thread (a plain [`Cell`] bump, negligible next to
//! the passes they count, which is why they are compiled unconditionally).
//! Tests that pin counts must therefore keep the work on the calling
//! thread — e.g. run the batch engine with a single worker, which executes
//! inline.

use std::cell::Cell;

thread_local! {
    static TARJAN_RUNS: Cell<usize> = const { Cell::new(0) };
    static CYCLE_RATIO_RUNS: Cell<usize> = const { Cell::new(0) };
}

/// Records one run of [`crate::scc::strongly_connected_components`].
pub(crate) fn record_tarjan_run() {
    TARJAN_RUNS.with(|c| c.set(c.get() + 1));
}

/// Records one cycle-ratio analysis pass (the λ-search of
/// [`crate::cycle_ratio::CycleRatios`], over all SCCs of one graph).
pub(crate) fn record_cycle_ratio_run() {
    CYCLE_RATIO_RUNS.with(|c| c.set(c.get() + 1));
}

/// Number of Tarjan SCC runs on this thread since the last [`reset`].
pub fn tarjan_runs() -> usize {
    TARJAN_RUNS.with(|c| c.get())
}

/// Number of cycle-ratio analysis passes on this thread since the last
/// [`reset`].
pub fn cycle_ratio_runs() -> usize {
    CYCLE_RATIO_RUNS.with(|c| c.get())
}

/// Resets both per-thread counters to zero.
pub fn reset() {
    TARJAN_RUNS.with(|c| c.set(0));
    CYCLE_RATIO_RUNS.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_independent_and_resettable() {
        reset();
        assert_eq!(tarjan_runs(), 0);
        assert_eq!(cycle_ratio_runs(), 0);
        record_tarjan_run();
        record_tarjan_run();
        record_cycle_ratio_run();
        assert_eq!(tarjan_runs(), 2);
        assert_eq!(cycle_ratio_runs(), 1);
        reset();
        assert_eq!(tarjan_runs(), 0);
        assert_eq!(cycle_ratio_runs(), 0);
    }
}
