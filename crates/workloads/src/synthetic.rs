//! The synthetic Perfect-Club-like loop suite.
//!
//! Section 4.2 of the paper evaluates HRMS on 1258 innermost DO loops
//! extracted from the Perfect Club benchmarks with the ICTINEO compiler,
//! weighted by profiled iteration counts. Neither the benchmark suite nor
//! the compiler is available, so the reproduction uses a deterministic
//! synthetic suite whose size, operation-mix, recurrence and iteration-count
//! distributions follow the characteristics reported in the paper and its
//! companion technical reports (see *Substitutions* in
//! docs/ARCHITECTURE.md). The suite is a pure function of a fixed seed, so
//! every run of the harness sees exactly the same 1258 loops.

use hrms_ddg::Ddg;

use crate::generator::{GeneratorConfig, LoopGenerator};

/// Number of loops in the paper's Perfect-Club evaluation.
pub const PERFECT_CLUB_LOOP_COUNT: usize = 1258;

/// The fixed seed of the default suite (1995 / MICRO-28).
pub const DEFAULT_SEED: u64 = 0x1995_0028;

/// A smaller (or larger) suite with the same distributional parameters —
/// the benchmark harness uses reduced sizes for quick runs.
pub fn perfect_club_like_sized(count: usize) -> Vec<Ddg> {
    LoopGenerator::new(DEFAULT_SEED, suite_config()).generate(count)
}

/// The generator configuration of the synthetic suite.
pub fn suite_config() -> GeneratorConfig {
    GeneratorConfig {
        min_ops: 4,
        mean_ops: 15.0,
        max_ops: 72,
        recurrence_probability: 0.45,
        max_distance: 2,
        max_invariants: 6,
        iteration_range: (10, 50_000),
        ..GeneratorConfig::default()
    }
}

/// Loop sizes of the large-loop stress suite (operations per loop body).
///
/// The paper's loops top out at ~100 operations; unrolled media/HLS-style
/// kernels easily reach thousands, which is where the hash-based
/// pre-ordering representation used to fall over. The stress suite covers
/// that range.
pub const STRESS_SIZES: [usize; 6] = [200, 350, 500, 750, 1000, 2000];

/// Generator preset for one stress loop of exactly `size` operations.
///
/// Compared to [`suite_config`] the recurrence probability is kept moderate
/// and the dependence distance small — this preset measures the
/// pre-ordering and placement machinery, not the recurrence analysis. The
/// regime where recurrences dominate lives in [`recurrence_heavy_config`].
pub fn stress_config(size: usize) -> GeneratorConfig {
    GeneratorConfig {
        min_ops: size,
        mean_ops: size as f64,
        max_ops: size,
        recurrence_probability: 0.3,
        max_distance: 2,
        max_invariants: 8,
        iteration_range: (100, 1_000_000),
        ..GeneratorConfig::default()
    }
}

/// The deterministic large-loop stress suite: one loop per entry of
/// [`STRESS_SIZES`], each a pure function of the fixed seed.
pub fn stress_suite() -> Vec<Ddg> {
    STRESS_SIZES
        .iter()
        .map(|&size| {
            LoopGenerator::new(DEFAULT_SEED ^ size as u64, stress_config(size)).next_loop()
        })
        .collect()
}

/// Loop sizes of the recurrence-heavy stress suite (operations per loop).
pub const RECURRENCE_HEAVY_SIZES: [usize; 4] = [500, 750, 1000, 2000];

/// Generator preset for one *recurrence-heavy* stress loop of exactly
/// `size` operations: guaranteed recurrences plus one extra ancestor back
/// edge per eight operations, whose overlapping spans interleave into
/// large, dense strongly connected components with dozens-to-hundreds of
/// backward edges.
///
/// This is the regime the ROADMAP kept out of the classic stress preset
/// because Johnson's elementary-circuit enumeration explodes on it; the
/// SCC-derived recurrence analysis handles it in polynomial time, which is
/// exactly what the recurrence stress benchmark measures.
pub fn recurrence_heavy_config(size: usize) -> GeneratorConfig {
    GeneratorConfig {
        min_ops: size,
        mean_ops: size as f64,
        max_ops: size,
        recurrence_probability: 1.0,
        extra_backward_edges: size / 8,
        max_distance: 3,
        max_invariants: 8,
        iteration_range: (100, 1_000_000),
        ..GeneratorConfig::default()
    }
}

/// The deterministic recurrence-heavy stress suite: one loop per entry of
/// [`RECURRENCE_HEAVY_SIZES`], each a pure function of the fixed seed.
pub fn recurrence_heavy_suite() -> Vec<Ddg> {
    RECURRENCE_HEAVY_SIZES
        .iter()
        .map(|&size| {
            LoopGenerator::new(
                DEFAULT_SEED ^ 0x5EC0_0000 ^ size as u64,
                recurrence_heavy_config(size),
            )
            .next_loop()
        })
        .collect()
}

/// Loop sizes of the interleaved-recurrence suite (operations per loop).
///
/// Sized so Johnson's enumeration still completes on every loop: the suite
/// is the differential corpus pinning the cycle-ratio ranking of
/// multi-backward-edge recurrences against the enumeration oracle, so the
/// oracle must be computable.
pub const INTERLEAVED_SIZES: [usize; 6] = [12, 18, 24, 30, 40, 48];

/// Generator preset for one *interleaved-recurrence* loop of exactly
/// `size` operations: wires loop-carried edge pairs that close circuits
/// only **together** ([`GeneratorConfig::interleaved_recurrences`]) — the
/// multi-backward-edge regime where a single-edge recurrence analysis
/// must fall back to coarse per-SCC ranking and the per-node cycle-ratio
/// analysis (`hrms_ddg::cycle_ratio`) ranks exactly.
///
/// Ordinary probabilistic recurrences are disabled: an organic backward
/// edge could chain gadget windows into circuits threading three or more
/// backward edges, and this preset is the differential corpus whose
/// multi-edge subgraphs must stay in the provably-exact two-edge regime
/// (deeper interleavings are exercised — and counted — by the unit suites
/// and the moderately dense shapes instead).
pub fn interleaved_recurrence_config(size: usize) -> GeneratorConfig {
    GeneratorConfig {
        min_ops: size,
        mean_ops: size as f64,
        max_ops: size,
        recurrence_probability: 0.0,
        interleaved_recurrences: 1 + size / 16,
        max_distance: 2,
        max_invariants: 6,
        iteration_range: (10, 50_000),
        ..GeneratorConfig::default()
    }
}

/// The deterministic interleaved-recurrence suite: one loop per entry of
/// [`INTERLEAVED_SIZES`], each a pure function of the fixed seed and
/// **guaranteed** to contain a recurrence circuit threading several
/// backward edges (the generator wires the pairs structurally; the first
/// generated loop of each size that realises one is taken, so the suite
/// never silently degenerates to single-edge shapes).
pub fn interleaved_recurrence_suite() -> Vec<Ddg> {
    INTERLEAVED_SIZES
        .iter()
        .map(|&size| {
            let mut generator = LoopGenerator::new(
                DEFAULT_SEED ^ 0x17_EA0000 ^ size as u64,
                interleaved_recurrence_config(size),
            );
            for _ in 0..64 {
                let g = generator.next_loop();
                let interleaved = hrms_ddg::RecurrenceGroups::analyze(&g)
                    .groups
                    .iter()
                    .any(|gr| {
                        matches!(
                            gr.kind,
                            hrms_ddg::RecurrenceGroupKind::Interleaved
                                | hrms_ddg::RecurrenceGroupKind::Residual
                        )
                    });
                if interleaved {
                    return g;
                }
            }
            unreachable!("the interleaved gadget closes a pair circuit within 64 loops")
        })
        .collect()
}

/// Loop sizes of the register-pressure suite (operations per loop).
pub const REGISTER_PRESSURE_SIZES: [usize; 4] = [48, 64, 80, 96];

/// Loops generated per entry of [`REGISTER_PRESSURE_SIZES`].
pub const REGISTER_PRESSURE_LOOPS_PER_SIZE: usize = 3;

/// Generator preset for *register-pressure* loops of exactly `size`
/// operations: every value defined in the first two thirds of the body is
/// also consumed in the last third
/// ([`GeneratorConfig::long_lifetime_fanout`]), so dozens of lifetimes
/// overlap late in the loop no matter how the producers are placed. The
/// resulting schedules exceed the 32-register files of the paper's
/// machines outright — the regime where spilling (or feedback-guided
/// iterative rescheduling) is mandatory, which is exactly what the
/// feedback property tier and benchmark measure.
///
/// The recurrence probability is kept low so the pre-ordering is free to
/// react to start-node hints — on recurrence-dominated bodies the ordering
/// is pinned by the circuits and perturbation has nothing to move.
pub fn register_pressure_config(size: usize) -> GeneratorConfig {
    GeneratorConfig {
        min_ops: size,
        mean_ops: size as f64,
        max_ops: size,
        recurrence_probability: 0.15,
        long_lifetime_fanout: size,
        max_distance: 2,
        max_invariants: 4,
        iteration_range: (100, 100_000),
        ..GeneratorConfig::default()
    }
}

/// The deterministic register-pressure suite:
/// [`REGISTER_PRESSURE_LOOPS_PER_SIZE`] loops per entry of
/// [`REGISTER_PRESSURE_SIZES`], each a pure function of the fixed seed.
pub fn register_pressure_suite() -> Vec<Ddg> {
    REGISTER_PRESSURE_SIZES
        .iter()
        .flat_map(|&size| {
            LoopGenerator::new(
                DEFAULT_SEED ^ 0x9E55_0000 ^ size as u64,
                register_pressure_config(size),
            )
            .generate(REGISTER_PRESSURE_LOOPS_PER_SIZE)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_machine::presets;
    use hrms_modsched::MiiInfo;

    #[test]
    fn sized_suite_has_the_requested_length_and_is_deterministic() {
        let a = perfect_club_like_sized(40);
        let b = perfect_club_like_sized(40);
        assert_eq!(a.len(), 40);
        assert_eq!(a, b);
    }

    #[test]
    fn default_suite_constant_matches_the_paper() {
        assert_eq!(PERFECT_CLUB_LOOP_COUNT, 1258);
    }

    #[test]
    fn a_sample_of_the_suite_is_schedulable_on_the_section42_machine() {
        let m = presets::perfect_club();
        for g in perfect_club_like_sized(60) {
            MiiInfo::compute(&m, &hrms_ddg::LoopAnalysis::analyze(&g))
                .unwrap_or_else(|e| panic!("loop `{}` invalid: {e}", g.name()));
        }
    }

    #[test]
    fn stress_suite_is_deterministic_and_sized_as_configured() {
        let a = stress_suite();
        let b = stress_suite();
        assert_eq!(a, b);
        assert_eq!(a.len(), STRESS_SIZES.len());
        for (g, &size) in a.iter().zip(STRESS_SIZES.iter()) {
            assert_eq!(g.num_nodes(), size);
        }
    }

    #[test]
    fn recurrence_heavy_suite_is_deterministic_and_dense() {
        let suite = recurrence_heavy_suite();
        assert_eq!(suite, recurrence_heavy_suite());
        assert_eq!(suite.len(), RECURRENCE_HEAVY_SIZES.len());
        for (g, &size) in suite.iter().zip(RECURRENCE_HEAVY_SIZES.iter()) {
            assert_eq!(g.num_nodes(), size);
            // The defining property of the preset: lots of loop-carried
            // edges interleaved into large SCCs (measured: the largest SCC
            // spans 235-917 nodes across the suite).
            let carried = g
                .edges()
                .filter(|(_, e)| e.distance() > 0 && !e.is_self_loop())
                .count();
            assert!(
                carried >= size / 10,
                "`{}`: only {carried} loop-carried edges",
                g.name()
            );
            let largest = hrms_ddg::scc::strongly_connected_components(g)
                .iter()
                .map(Vec::len)
                .max()
                .unwrap();
            assert!(
                largest >= size / 4,
                "`{}`: largest SCC has only {largest} of {size} nodes",
                g.name()
            );
            // Valid loop bodies: a finite recurrence-constrained MII exists.
            assert!(hrms_ddg::LoopAnalysis::analyze(g).rec_mii().is_some());
        }
    }

    #[test]
    fn interleaved_suite_is_deterministic_and_forces_multi_edge_circuits() {
        let suite = interleaved_recurrence_suite();
        assert_eq!(suite, interleaved_recurrence_suite());
        assert_eq!(suite.len(), INTERLEAVED_SIZES.len());
        for (g, &size) in suite.iter().zip(INTERLEAVED_SIZES.iter()) {
            assert_eq!(g.num_nodes(), size);
            // The defining property: at least one recurrence circuit
            // threads several backward edges, i.e. the recurrence analysis
            // needs more than single-edge subgraphs to cover the loop.
            let groups = hrms_ddg::RecurrenceGroups::analyze(g);
            assert!(
                groups.groups.iter().any(|gr| matches!(
                    gr.kind,
                    hrms_ddg::RecurrenceGroupKind::Interleaved
                        | hrms_ddg::RecurrenceGroupKind::Residual
                )),
                "`{}` has no interleaved recurrence",
                g.name()
            );
            // Valid loop bodies: a finite recurrence-constrained MII exists.
            assert!(hrms_ddg::LoopAnalysis::analyze(g).rec_mii().is_some());
        }
    }

    #[test]
    fn interleaved_knob_zero_preserves_the_classic_random_stream() {
        let classic = LoopGenerator::new(77, GeneratorConfig::default()).generate(10);
        let zeroed = LoopGenerator::new(
            77,
            GeneratorConfig {
                interleaved_recurrences: 0,
                ..GeneratorConfig::default()
            },
        )
        .generate(10);
        assert_eq!(classic, zeroed);
    }

    #[test]
    fn long_lifetime_knob_zero_preserves_the_classic_random_stream() {
        let classic = LoopGenerator::new(77, GeneratorConfig::default()).generate(10);
        let zeroed = LoopGenerator::new(
            77,
            GeneratorConfig {
                long_lifetime_fanout: 0,
                ..GeneratorConfig::default()
            },
        )
        .generate(10);
        assert_eq!(classic, zeroed);
    }

    #[test]
    fn register_pressure_suite_is_deterministic_and_exceeds_the_paper_register_file() {
        use hrms_modsched::LifetimeAnalysis;

        let suite = register_pressure_suite();
        assert_eq!(suite, register_pressure_suite());
        assert_eq!(
            suite.len(),
            REGISTER_PRESSURE_SIZES.len() * REGISTER_PRESSURE_LOOPS_PER_SIZE
        );
        // The defining property of the preset: one-shot HRMS schedules need
        // more registers than the 32-entry files of the paper's machines on
        // most of the suite (every loop of the two larger sizes), so a
        // register budget of 32 genuinely forces spilling or rescheduling.
        let machine = presets::perfect_club();
        let scheduler = hrms_core::HrmsScheduler::new();
        let mut over_budget = 0usize;
        for g in &suite {
            let outcome = hrms_modsched::ModuloScheduler::schedule_loop(&scheduler, g, &machine)
                .unwrap_or_else(|e| panic!("`{}` failed: {e}", g.name()));
            let pressure = LifetimeAnalysis::analyze(g, &outcome.schedule).max_live();
            if pressure > 32 {
                over_budget += 1;
            }
        }
        assert!(
            over_budget * 2 >= suite.len(),
            "only {over_budget}/{} loops exceed 32 registers under one-shot HRMS",
            suite.len()
        );
    }

    #[test]
    fn suite_statistics_are_plausible() {
        let loops = perfect_club_like_sized(300);
        let mean_size: f64 =
            loops.iter().map(|g| g.num_nodes() as f64).sum::<f64>() / loops.len() as f64;
        assert!(mean_size > 8.0 && mean_size < 25.0, "mean size {mean_size}");
        let with_rec = loops.iter().filter(|g| g.has_recurrence()).count();
        assert!(
            with_rec > 60 && with_rec < 240,
            "recurrent loops {with_rec}"
        );
        let max_iter = loops.iter().map(|g| g.iteration_count()).max().unwrap();
        assert!(
            max_iter > 1_000,
            "iteration counts should have a heavy tail"
        );
    }
}
