//! Schedules the 24-loop reference suite (modelled on the Livermore /
//! linear-algebra kernels of the paper's Table 1) with HRMS and the three
//! comparison schedulers, printing one row per loop.
//!
//! Run with `cargo run --release --example livermore_suite`.

use hrms_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = presets::govindarajan();
    let hrms = HrmsScheduler::new();
    let slack = SlackScheduler::new();
    let frlc = FrlcScheduler::new();
    // A reduced search budget keeps the optimal scheduler quick in an
    // example; the full Table 1 binary uses a larger one.
    let optimal = BranchAndBoundScheduler {
        config: SchedulerConfig {
            budget_per_ii: 20_000,
        },
    };

    println!(
        "{:<28} {:>4} {:>4} | {:>8} {:>6} | {:>8} {:>6} | {:>8} {:>6} | {:>8} {:>6}",
        "loop",
        "ops",
        "MII",
        "HRMS II",
        "buf",
        "B&B II",
        "buf",
        "Slack II",
        "buf",
        "FRLC II",
        "buf"
    );
    for ddg in reference24::all() {
        let h = hrms.schedule_loop(&ddg, &machine)?;
        let o = optimal.schedule_loop(&ddg, &machine)?;
        let s = slack.schedule_loop(&ddg, &machine)?;
        let f = frlc.schedule_loop(&ddg, &machine)?;
        println!(
            "{:<28} {:>4} {:>4} | {:>8} {:>6} | {:>8} {:>6} | {:>8} {:>6} | {:>8} {:>6}",
            ddg.name(),
            ddg.num_nodes(),
            h.metrics.mii,
            h.metrics.ii,
            h.metrics.buffers,
            o.metrics.ii,
            o.metrics.buffers,
            s.metrics.ii,
            s.metrics.buffers,
            f.metrics.ii,
            f.metrics.buffers
        );
    }
    Ok(())
}
