//! The aggregate statistics of Section 4.2: how often HRMS achieves the MII,
//! the mean II/MII ratio, dynamic efficiency, and the phase-time split
//! between pre-ordering and scheduling.

use std::time::Duration;

use hrms_core::HrmsScheduler;
use hrms_ddg::Ddg;
use hrms_engine::BatchEngine;
use hrms_machine::presets;
use hrms_modsched::ModuloScheduler;

/// The Section 4.2 statistics over a loop suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Section42Stats {
    /// Number of loops scheduled.
    pub loops: usize,
    /// Loops whose II equals the MII (paper: 1227 of 1258, 97.5 %).
    pub optimal_ii: usize,
    /// Unweighted mean of II / MII (paper: 1.01).
    pub mean_ii_ratio: f64,
    /// Execution-time-weighted efficiency `Σ MII·iter / Σ II·iter`
    /// (paper: 98.4 %).
    pub dynamic_efficiency: f64,
    /// Total scheduling time (all phases).
    pub total_time: Duration,
    /// Time spent in the pre-ordering phase (paper: ≈ 9 % of the total).
    pub ordering_time: Duration,
    /// Time spent computing recurrence information and MII, approximated by
    /// everything that is neither ordering nor placement.
    pub scheduling_time: Duration,
}

impl Section42Stats {
    /// Fraction of loops scheduled at the optimal II.
    pub fn optimal_fraction(&self) -> f64 {
        self.optimal_ii as f64 / self.loops.max(1) as f64
    }

    /// Fraction of total time spent in the pre-ordering phase.
    pub fn ordering_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            0.0
        } else {
            self.ordering_time.as_secs_f64() / self.total_time.as_secs_f64()
        }
    }

    /// Renders the statistics in the order the paper quotes them.
    pub fn render(&self) -> String {
        format!(
            "loops scheduled              : {}\n\
             loops with II = MII          : {} ({:.1}%)\n\
             mean II / MII                : {:.3}\n\
             dynamic efficiency           : {:.1}%\n\
             total scheduling time        : {:.3} s\n\
             pre-ordering share of time   : {:.1}%\n",
            self.loops,
            self.optimal_ii,
            100.0 * self.optimal_fraction(),
            self.mean_ii_ratio,
            100.0 * self.dynamic_efficiency,
            self.total_time.as_secs_f64(),
            100.0 * self.ordering_fraction(),
        )
    }
}

/// Schedules every loop with HRMS on the Section 4.2 machine and collects
/// the statistics, fanning the batch out across a [`BatchEngine`] worker
/// pool.
pub fn run(loops: &[Ddg]) -> Section42Stats {
    run_on(&BatchEngine::new(), loops)
}

/// [`run`] on a caller-provided engine (e.g. a single-worker engine for
/// contention-free phase-time measurements).
pub fn run_on(engine: &BatchEngine, loops: &[Ddg]) -> Section42Stats {
    let machine = presets::perfect_club();
    let scheduler = HrmsScheduler::new();
    let mut stats = Section42Stats {
        loops: loops.len(),
        optimal_ii: 0,
        mean_ii_ratio: 0.0,
        dynamic_efficiency: 0.0,
        total_time: Duration::ZERO,
        ordering_time: Duration::ZERO,
        scheduling_time: Duration::ZERO,
    };
    let mut ratio_sum = 0.0;
    let mut weighted_mii = 0u128;
    let mut weighted_ii = 0u128;
    // Schedule in parallel; fold the per-loop outcomes sequentially in input
    // order so the floating-point accumulation is deterministic.
    let outcomes = engine.map(loops, |_, ddg| {
        scheduler
            .schedule_loop(ddg, &machine)
            .unwrap_or_else(|e| panic!("HRMS failed on loop `{}`: {e}", ddg.name()))
    });
    for (ddg, outcome) in loops.iter().zip(outcomes) {
        if outcome.metrics.ii_is_optimal() {
            stats.optimal_ii += 1;
        }
        ratio_sum += outcome.metrics.ii_ratio();
        weighted_mii += u128::from(outcome.metrics.mii) * u128::from(ddg.iteration_count());
        weighted_ii += u128::from(outcome.metrics.ii) * u128::from(ddg.iteration_count());
        stats.total_time += outcome.elapsed;
        stats.ordering_time += outcome.ordering_time;
        stats.scheduling_time += outcome.elapsed.saturating_sub(outcome.ordering_time);
    }
    stats.mean_ii_ratio = ratio_sum / loops.len().max(1) as f64;
    stats.dynamic_efficiency = if weighted_ii == 0 {
        1.0
    } else {
        weighted_mii as f64 / weighted_ii as f64
    };
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_workloads::synthetic::perfect_club_like_sized;

    #[test]
    fn statistics_match_the_papers_shape_on_a_sample() {
        let loops = perfect_club_like_sized(80);
        let stats = run(&loops);
        assert_eq!(stats.loops, 80);
        assert!(
            stats.optimal_fraction() >= 0.9,
            "paper: ≈97.5% of loops at II = MII, got {:.1}%",
            100.0 * stats.optimal_fraction()
        );
        assert!(stats.mean_ii_ratio < 1.1);
        assert!(stats.dynamic_efficiency > 0.9);
        // The paper's "pre-ordering is only 9% of the time" figure is a
        // release-mode measurement over the full suite (see EXPERIMENTS.md);
        // here we only check the accounting is consistent.
        assert!(stats.ordering_time <= stats.total_time);
        assert!((0.0..=1.0).contains(&stats.ordering_fraction()));
        assert!(stats.render().contains("II = MII"));
    }
}
