//! Parallel batch scheduling engine.
//!
//! The evaluation harness (and any production deployment serving many loops
//! at once) schedules hundreds to thousands of independent loop bodies per
//! run. Each loop is a self-contained unit of work — the schedulers take
//! `&Ddg` and `&Machine` and share no mutable state — so a batch
//! parallelises trivially. [`BatchEngine`] runs a batch across a
//! [`std::thread::scope`] worker pool:
//!
//! * **Deterministic output order.** Results come back in input order, no
//!   matter how the items were interleaved across workers, so reports and
//!   differential tests are byte-stable.
//! * **Work stealing via an atomic cursor.** Workers pull the next unclaimed
//!   index, so a batch of wildly different loop sizes load-balances without
//!   any up-front partitioning.
//! * **Workers claim loops.** [`BatchEngine::schedule_matrix`] hands out
//!   whole loops, not cells: the worker that claims a loop runs all of its
//!   scheduler × machine cells in order over one analysis core, so no two
//!   workers wait on each other for one loop's analysis. Several slow
//!   schedulers on a single loop no longer split its wall time across
//!   workers.
//! * **No spawn overhead for trivial batches.** Batches of one item — a
//!   one-loop matrix included — and engines configured with one worker run
//!   inline on the caller's thread.
//!
//! ```
//! use hrms_engine::BatchEngine;
//!
//! let engine = BatchEngine::with_workers(4);
//! let squares = engine.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod contain;

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hrms_ddg::{Ddg, LoopAnalysis, LoopCore};
use hrms_machine::Machine;
use hrms_modsched::{ModuloScheduler, Perturbation, SchedError, ScheduleOutcome};

pub use cache::{CacheStats, ResultCache};
pub use contain::run_contained;

/// Schedules one loop × machine cell with panic containment and a shared
/// machine-independent analysis core: a panic inside the scheduler becomes
/// a [`SchedError::Internal`] carrying the panic message and source
/// location (see [`run_contained`]) instead of unwinding into the worker
/// pool, and the scheduler reuses the loop's [`LoopCore`] (Tarjan, cycle
/// ratios, CSRs) instead of rebuilding it, so a loop scheduled against N
/// machines pays for its structural analysis once. Public so custom batch
/// drivers (the service's cache-miss path) can schedule an arbitrary
/// subset of loop × machine cells through [`BatchEngine::map`] with the
/// same containment and core-sharing as [`BatchEngine::schedule_matrix`].
pub fn schedule_cell_with_core(
    scheduler: &(dyn ModuloScheduler + Sync),
    ddg: &Ddg,
    machine: &Machine,
    core: &Arc<LoopCore>,
) -> Result<ScheduleOutcome, SchedError> {
    let analysis = LoopAnalysis::with_core(ddg, Arc::clone(core));
    run_contained(|| scheduler.schedule(&analysis, machine, &Perturbation::default()))
        .unwrap_or_else(|what| {
            Err(SchedError::Internal {
                what: format!(
                    "scheduler `{}` panicked on loop `{}`: {what}",
                    scheduler.name(),
                    ddg.name()
                ),
            })
        })
}

/// A fixed-size scoped-thread worker pool for batches of independent work
/// items. See the crate docs for the guarantees.
#[derive(Debug, Clone)]
pub struct BatchEngine {
    workers: usize,
}

impl BatchEngine {
    /// An engine sized to the machine's available parallelism (at least 1).
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        BatchEngine { workers }
    }

    /// An engine with exactly `workers` workers (0 is clamped to 1; 1 means
    /// fully sequential, inline execution).
    pub fn with_workers(workers: usize) -> Self {
        BatchEngine {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item and returns the results **in input order**.
    ///
    /// `f` receives the item's index and a reference to it. Items are
    /// claimed by workers through an atomic cursor, so the call order across
    /// workers is unspecified — `f` must not rely on it (the schedulers do
    /// not: each loop is independent).
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` after all workers have stopped.
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let buckets: Vec<Vec<(usize, O)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced: Vec<(usize, O)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            produced.push((i, f(i, &items[i])));
                        }
                        produced
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(bucket) => bucket,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        // Merge the per-worker buckets back into input order.
        let mut slots: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
        for (i, out) in buckets.into_iter().flatten() {
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index was claimed exactly once"))
            .collect()
    }

    /// Schedules the full cross product `schedulers × loops × machines` —
    /// "one loop, N machines" batch evaluation.
    ///
    /// Returns `matrix[s][l][m]`: scheduler `s` applied to loop `l` on
    /// machine `m`, in deterministic input order regardless of worker
    /// interleaving.
    ///
    /// Workers claim **loops**, not cells. The worker that claims a loop
    /// creates its one [`LoopCore`], runs all of the loop's cells on it in
    /// order (scheduler by scheduler, each over every machine, through
    /// [`schedule_cell_with_core`]) and drops the core before it claims
    /// the next loop. The machine-independent analysis (Tarjan's SCCs,
    /// backward edges, the dense CSRs, the cycle-ratio λ-search, the exact
    /// RecMII, the default HRMS order) is therefore computed once per loop
    /// and never contended for, while the per-machine resource facts
    /// (ResMII, MRT occupancy) are recomputed per cell. A one-loop batch
    /// runs inline on the caller's thread. The flip side: the cells of one
    /// loop never run in parallel, so several slow schedulers on a single
    /// loop no longer split its wall time across workers.
    ///
    /// Each cell is an isolation boundary: a panicking scheduler yields a
    /// [`SchedError::Internal`] in that cell instead of unwinding through
    /// the pool and poisoning the other results. This is the engine entry
    /// point behind `hrms schedule` and the benchmark harness.
    pub fn schedule_matrix(
        &self,
        schedulers: &[&(dyn ModuloScheduler + Sync)],
        loops: &[Ddg],
        machines: &[Machine],
    ) -> Vec<Vec<Vec<Result<ScheduleOutcome, SchedError>>>> {
        let per_loop = self.map(loops, |_, ddg| {
            let core = Arc::new(LoopCore::new());
            schedulers
                .iter()
                .map(|&scheduler| {
                    machines
                        .iter()
                        .map(|machine| schedule_cell_with_core(scheduler, ddg, machine, &core))
                        .collect()
                })
                .collect::<Vec<Vec<_>>>()
        });
        let mut matrix: Vec<Vec<_>> = schedulers
            .iter()
            .map(|_| Vec::with_capacity(loops.len()))
            .collect();
        for per_scheduler in per_loop {
            for (row, cells) in matrix.iter_mut().zip(per_scheduler) {
                row.push(cells);
            }
        }
        matrix
    }
}

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_core::HrmsScheduler;
    use hrms_machine::presets;
    use hrms_workloads::LoopGenerator;

    /// One scheduler on one machine: the single column of
    /// [`BatchEngine::schedule_matrix`], flattened to per-loop outcomes.
    fn column(
        engine: &BatchEngine,
        scheduler: &(dyn ModuloScheduler + Sync),
        loops: &[Ddg],
        machine: &Machine,
    ) -> Vec<Result<ScheduleOutcome, SchedError>> {
        let machines = std::slice::from_ref(machine);
        let mut matrix = engine.schedule_matrix(&[scheduler], loops, machines);
        matrix.remove(0).into_iter().flatten().collect()
    }

    /// Panics on every loop, naming it.
    struct PanickingScheduler;

    impl ModuloScheduler for PanickingScheduler {
        fn name(&self) -> &str {
            "panicker"
        }

        fn schedule(
            &self,
            la: &LoopAnalysis<'_>,
            _machine: &Machine,
            _perturbation: &Perturbation,
        ) -> Result<ScheduleOutcome, SchedError> {
            panic!("induced failure on `{}`", la.ddg().name())
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let engine = BatchEngine::with_workers(8);
        let items: Vec<usize> = (0..257).collect();
        let out = engine.map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_clamps_to_one_and_runs_inline() {
        let engine = BatchEngine::with_workers(0);
        assert_eq!(engine.workers(), 1);
        let out = engine.map(&[10, 20], |i, &x| x + i);
        assert_eq!(out, vec![10, 21]);
    }

    #[test]
    fn empty_and_single_batches_work() {
        let engine = BatchEngine::with_workers(4);
        let empty: Vec<u32> = Vec::new();
        assert!(engine.map(&empty, |_, &x| x).is_empty());
        assert_eq!(engine.map(&[7u32], |_, &x| x), vec![7]);
    }

    #[test]
    fn parallel_batch_equals_sequential_batch() {
        let loops = LoopGenerator::with_seed(11).generate(40);
        let machine = presets::perfect_club();
        let scheduler = HrmsScheduler::new();
        let sequential = column(&BatchEngine::with_workers(1), &scheduler, &loops, &machine);
        let parallel = column(&BatchEngine::with_workers(8), &scheduler, &loops, &machine);
        assert_eq!(sequential.len(), parallel.len());
        for ((s, p), ddg) in sequential.iter().zip(&parallel).zip(&loops) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            // Everything but the wall-clock timings must be identical.
            assert_eq!(s.metrics, p.metrics, "loop `{}`", ddg.name());
            assert_eq!(s.schedule, p.schedule, "loop `{}`", ddg.name());
        }
    }

    #[test]
    fn errors_land_in_the_right_slot() {
        use hrms_ddg::{DdgBuilder, DepKind, OpKind};
        let good = hrms_ddg::chain("good", 4, OpKind::FpAdd, 1);
        // A zero-distance cycle is rejected by the MII computation.
        let mut b = DdgBuilder::new("bad");
        let x = b.node("x", OpKind::FpAdd, 1);
        let y = b.node("y", OpKind::FpAdd, 1);
        b.edge(x, y, DepKind::RegFlow, 0).unwrap();
        b.edge(y, x, DepKind::RegFlow, 0).unwrap();
        let bad = b.build().unwrap();

        let loops = vec![good.clone(), bad, good];
        let engine = BatchEngine::with_workers(3);
        let results = column(
            &engine,
            &HrmsScheduler::new(),
            &loops,
            &presets::perfect_club(),
        );
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "the malformed loop fails");
        assert!(results[2].is_ok());
    }

    #[test]
    fn schedule_matrix_matches_from_scratch_per_machine_runs() {
        use hrms_baselines::TopDownScheduler;
        let loops = LoopGenerator::with_seed(33).generate(6);
        let machines = [
            presets::general_purpose(),
            presets::govindarajan(),
            presets::perfect_club(),
            presets::perfect_club_wide(),
        ];
        let hrms = HrmsScheduler::new();
        let top_down = TopDownScheduler::new();
        let schedulers: Vec<&(dyn ModuloScheduler + Sync)> = vec![&hrms, &top_down];

        let engine = BatchEngine::with_workers(6);
        let matrix = engine.schedule_matrix(&schedulers, &loops, &machines);
        assert_eq!(matrix.len(), schedulers.len());
        for (srow, scheduler) in matrix.iter().zip(&schedulers) {
            assert_eq!(srow.len(), loops.len());
            for (lrow, ddg) in srow.iter().zip(&loops) {
                assert_eq!(lrow.len(), machines.len());
                for (cell, machine) in lrow.iter().zip(&machines) {
                    let fresh = scheduler.schedule_loop(ddg, machine).unwrap();
                    let cell = cell.as_ref().unwrap();
                    assert_eq!(
                        cell.schedule,
                        fresh.schedule,
                        "scheduler `{}`, loop `{}`, machine `{}`",
                        scheduler.name(),
                        ddg.name(),
                        machine.name()
                    );
                    assert_eq!(cell.metrics, fresh.metrics);
                }
            }
        }
    }

    #[test]
    fn schedule_matrix_shares_one_analysis_core_per_loop() {
        // Single worker → every cell runs inline on this thread, so the
        // thread-local instrumentation counters observe the whole matrix.
        let loops = LoopGenerator::with_seed(7).generate(3);
        let machines = [
            presets::general_purpose(),
            presets::govindarajan(),
            presets::perfect_club(),
            presets::perfect_club_wide(),
        ];
        let hrms = HrmsScheduler::new();
        let schedulers: Vec<&(dyn ModuloScheduler + Sync)> = vec![&hrms];

        hrms_ddg::instrument::reset();
        let matrix = BatchEngine::with_workers(1).schedule_matrix(&schedulers, &loops, &machines);
        assert!(matrix[0].iter().flatten().all(Result::is_ok));
        assert_eq!(
            hrms_ddg::instrument::tarjan_runs(),
            loops.len(),
            "one Tarjan run per loop across {} machines",
            machines.len()
        );
        assert_eq!(
            hrms_ddg::instrument::cycle_ratio_runs(),
            loops.len(),
            "one cycle-ratio λ-search per loop across {} machines",
            machines.len()
        );
    }

    #[test]
    fn schedule_matrix_with_empty_axes_keeps_its_shape() {
        let engine = BatchEngine::with_workers(2);
        let hrms = HrmsScheduler::new();
        let schedulers: Vec<&(dyn ModuloScheduler + Sync)> = vec![&hrms];
        let loops = LoopGenerator::with_seed(2).generate(2);
        let machines = [presets::govindarajan()];

        let m = engine.schedule_matrix(&schedulers, &loops, &[]);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].len(), 2);
        assert!(m[0].iter().all(Vec::is_empty));
        let m = engine.schedule_matrix(&schedulers, &[], &machines);
        assert_eq!(m.len(), 1);
        assert!(m[0].is_empty());
        let m = engine.schedule_matrix(&[], &loops, &machines);
        assert!(m.is_empty());
    }

    #[test]
    fn a_panicking_scheduler_fails_its_cells_and_spares_the_rest() {
        // No hook juggling needed: contained panics are captured silently
        // by the engine's own panic hook, so the induced failures do not
        // spew to stderr in the first place.
        let loops = LoopGenerator::with_seed(9).generate(4);
        let machine = presets::govindarajan();
        let hrms = HrmsScheduler::new();
        let panicker = PanickingScheduler;
        let schedulers: Vec<&(dyn ModuloScheduler + Sync)> = vec![&hrms, &panicker];
        let machines = std::slice::from_ref(&machine);
        let matrix = BatchEngine::with_workers(4).schedule_matrix(&schedulers, &loops, machines);

        assert!(
            matrix[0].iter().flatten().all(Result::is_ok),
            "healthy row unaffected"
        );
        for (cell, ddg) in matrix[1].iter().flatten().zip(&loops) {
            match cell {
                Err(SchedError::Internal { what }) => {
                    assert!(what.contains("panicker"), "{what}");
                    assert!(what.contains(&format!("`{}`", ddg.name())), "{what}");
                    assert!(what.contains("induced failure"), "{what}");
                    // The capture hook preserves the panic site, so service
                    // clients can see *where* a cell died, not just that it
                    // did.
                    assert!(what.contains("engine/src/lib.rs:"), "{what}");
                }
                other => panic!("expected Internal error, got {other:?}"),
            }
        }
    }

    #[test]
    fn contained_cells_isolate_panics_loop_by_loop() {
        struct SelectivePanicker;
        impl ModuloScheduler for SelectivePanicker {
            fn name(&self) -> &str {
                "selective"
            }
            fn schedule(
                &self,
                la: &LoopAnalysis<'_>,
                machine: &Machine,
                perturbation: &Perturbation,
            ) -> Result<ScheduleOutcome, SchedError> {
                if la.ddg().name().ends_with('1') {
                    panic!("unlucky loop `{}`", la.ddg().name())
                }
                HrmsScheduler::new().schedule(la, machine, perturbation)
            }
        }

        let loops = LoopGenerator::with_seed(14).generate(8);
        let machine = presets::perfect_club();
        let results = column(
            &BatchEngine::with_workers(4),
            &SelectivePanicker,
            &loops,
            &machine,
        );
        assert_eq!(results.len(), loops.len());
        let mut panicked = 0;
        for (result, ddg) in results.iter().zip(&loops) {
            if ddg.name().ends_with('1') {
                panicked += 1;
                match result {
                    Err(SchedError::Internal { what }) => {
                        assert!(what.contains("unlucky"), "{what}");
                        assert!(what.contains("engine/src/lib.rs:"), "{what}");
                    }
                    other => panic!("expected Internal error, got {other:?}"),
                }
            } else {
                assert!(result.is_ok(), "loop `{}`", ddg.name());
            }
        }
        assert!(panicked >= 1, "the generated names include a ...1 loop");
    }

    #[test]
    fn feedback_wrapped_panics_are_contained_per_cell() {
        use hrms_modsched::{FeedbackConfig, IterativeRescheduler};

        // The iterative rescheduler adds no containment of its own: a panic
        // in the wrapped scheduler unwinds straight through `feedback` and
        // must be caught at the engine's cell boundary, exactly as for a
        // bare scheduler. This is what keeps `feedback:<anything>` requests
        // (including the hidden chaos scheduler) safe in the service.
        let wrapped =
            IterativeRescheduler::new(Box::new(PanickingScheduler), FeedbackConfig::default());
        let loops = LoopGenerator::with_seed(9).generate(3);
        let machine = presets::govindarajan();
        let results = column(&BatchEngine::with_workers(2), &wrapped, &loops, &machine);
        assert_eq!(results.len(), loops.len());
        for (cell, ddg) in results.iter().zip(&loops) {
            match cell {
                Err(SchedError::Internal { what }) => {
                    assert!(what.contains("panicker+feedback"), "{what}");
                    assert!(what.contains("induced failure"), "{what}");
                    assert!(what.contains(&format!("`{}`", ddg.name())), "{what}");
                }
                other => panic!("expected Internal error, got {other:?}"),
            }
        }
    }
}
