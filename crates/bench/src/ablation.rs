//! Ablations of two claims the paper makes without a measurement (listed
//! under *Substitutions* in docs/ARCHITECTURE.md):
//!
//! * the paper's footnote 1 — the ordering quality should be largely
//!   independent of the initial hypernode choice;
//! * the contribution of the pre-ordering phase — scheduling in plain
//!   program order with the same bidirectional placement rule should cost
//!   registers and/or II.

use hrms_core::{program_order_scheduler, HrmsScheduler};
use hrms_ddg::{Ddg, LoopAnalysis};
use hrms_machine::Machine;
use hrms_modsched::{ModuloScheduler, Perturbation, StartHint};

/// Aggregate results of one scheduler variant over a loop suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantResult {
    /// Sum of achieved IIs.
    pub total_ii: u64,
    /// Sum of register requirements (loop variants).
    pub total_max_live: u64,
    /// Sum of buffer requirements.
    pub total_buffers: u64,
    /// Number of loops scheduled at II = MII.
    pub optimal_ii: usize,
}

/// Runs one HRMS variant — a scheduler under a perturbation — over the
/// loops.
pub fn run_variant(
    loops: &[Ddg],
    machine: &Machine,
    scheduler: &HrmsScheduler,
    perturbation: &Perturbation,
) -> VariantResult {
    let mut result = VariantResult {
        total_ii: 0,
        total_max_live: 0,
        total_buffers: 0,
        optimal_ii: 0,
    };
    for ddg in loops {
        let outcome = scheduler
            .schedule(&LoopAnalysis::analyze(ddg), machine, perturbation)
            .unwrap_or_else(|e| {
                panic!(
                    "scheduler `{}` failed on loop `{}`: {e}",
                    scheduler.name(),
                    ddg.name()
                )
            });
        result.total_ii += u64::from(outcome.metrics.ii);
        result.total_max_live += outcome.metrics.max_live;
        result.total_buffers += outcome.metrics.buffers;
        if outcome.metrics.ii_is_optimal() {
            result.optimal_ii += 1;
        }
    }
    result
}

/// The start-node ablation (paper footnote 1): default (first node in
/// program order) vs last-node start.
pub fn start_node_ablation(loops: &[Ddg], machine: &Machine) -> (VariantResult, VariantResult) {
    let hrms = HrmsScheduler::new();
    let first = run_variant(loops, machine, &hrms, &Perturbation::default());
    let last = Perturbation {
        start: StartHint::Last,
        ..Perturbation::default()
    };
    (first, run_variant(loops, machine, &hrms, &last))
}

/// The pre-ordering ablation: hypernode reduction vs program order.
pub fn preorder_ablation(loops: &[Ddg], machine: &Machine) -> (VariantResult, VariantResult) {
    let identity = Perturbation::default();
    let hrms = run_variant(loops, machine, &HrmsScheduler::new(), &identity);
    let program_order = run_variant(loops, machine, &program_order_scheduler(), &identity);
    (hrms, program_order)
}

/// Renders an ablation pair.
pub fn render_pair(label_a: &str, a: &VariantResult, label_b: &str, b: &VariantResult) -> String {
    let row = |label: &str, r: &VariantResult| {
        vec![
            label.to_string(),
            r.total_ii.to_string(),
            r.optimal_ii.to_string(),
            r.total_max_live.to_string(),
            r.total_buffers.to_string(),
        ]
    };
    crate::render_table(
        &["variant", "Σ II", "# II=MII", "Σ MaxLive", "Σ buffers"],
        &[row(label_a, a), row(label_b, b)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_machine::presets;
    use hrms_workloads::synthetic::perfect_club_like_sized;

    #[test]
    fn start_node_choice_barely_matters() {
        let loops = perfect_club_like_sized(30);
        let m = presets::perfect_club();
        let (first, last) = start_node_ablation(&loops, &m);
        // Footnote 1 of the paper: approximately the same register
        // requirements regardless of the starting node.
        let ratio = first.total_max_live as f64 / last.total_max_live.max(1) as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "start-node choice changed registers by more than 25% (ratio {ratio})"
        );
        assert!(!render_pair("first", &first, "last", &last).is_empty());
    }

    #[test]
    fn preordering_pays_for_itself() {
        let loops = perfect_club_like_sized(30);
        let m = presets::perfect_club();
        let (hrms, program) = preorder_ablation(&loops, &m);
        // Program order is itself a reasonable data-flow order for generated
        // loops, so the gap can be small either way on a small sample; the
        // hypernode ordering must at least stay in the same ballpark while
        // matching the II quality (the decisive comparison against the
        // register-oblivious Top-Down scheduler lives in `figures`).
        assert!(
            (hrms.total_max_live as f64) <= (program.total_max_live as f64) * 1.10,
            "hypernode ordering needs far more registers ({} vs {})",
            hrms.total_max_live,
            program.total_max_live
        );
        assert!(hrms.optimal_ii >= program.optimal_ii.saturating_sub(2));
    }
}
