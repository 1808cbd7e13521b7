//! Name-based registries shared by the CLI and the batch service:
//! scheduler slugs and machine references.
//!
//! The library crates expose schedulers as concrete types; every
//! string-driven harness — the `hrms` CLI, the `hrms serve` protocol —
//! needs to go from a stable slug to a boxed [`ModuloScheduler`]. The
//! slugs here — not the display names returned by
//! [`ModuloScheduler::name`] — are the contract documented in
//! `docs/CLI.md` and `docs/SERVICE.md`. The registry lives in this crate
//! (rather than the facade) so the service can resolve schedulers without
//! a dependency cycle; the facade re-exports it unchanged.

use hrms_baselines::{
    BottomUpScheduler, BranchAndBoundScheduler, FrlcScheduler, IterativeScheduler, SlackScheduler,
    TopDownScheduler,
};
use hrms_core::HrmsScheduler;
use hrms_ddg::LoopAnalysis;
use hrms_machine::{presets, Machine};
use hrms_modsched::{
    FeedbackConfig, IterativeRescheduler, ModuloScheduler, Perturbation, SchedError,
    ScheduleOutcome,
};
use hrms_regalloc::BudgetSpillEvaluator;

/// A scheduler that can be shared across the engine's worker threads.
pub type BoxedScheduler = Box<dyn ModuloScheduler + Sync + Send>;

/// CLI slugs of every scheduler, in the fixed order used by
/// `--scheduler all`: HRMS first, then the baselines in the order the
/// paper's comparison tables list them.
pub const SCHEDULER_SLUGS: [&str; 7] = [
    "hrms",
    "top-down",
    "bottom-up",
    "slack",
    "frlc",
    "iterative",
    "bnb",
];

/// A deliberately broken scheduler for fault-injection drills: it panics
/// on every loop. Resolved by the `chaos` slug but never listed in
/// [`SCHEDULER_SLUGS`], so `--scheduler all` and `hrms list` stay clean.
/// The service tests (and operators rehearsing failure handling) use it to
/// prove that a panicking cell degrades to a structured error record
/// without terminating the batch or the connection (`docs/SERVICE.md`).
struct ChaosScheduler;

impl ModuloScheduler for ChaosScheduler {
    fn name(&self) -> &str {
        "Chaos"
    }

    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        _machine: &Machine,
        _perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        panic!(
            "chaos scheduler always panics (loop `{}`)",
            analysis.ddg().name()
        )
    }
}

/// Resolves a scheduler by its [`SCHEDULER_SLUGS`] slug (or the hidden
/// `chaos` fault-injection slug).
///
/// A `feedback:` prefix wraps the named scheduler in the feedback-guided
/// [`IterativeRescheduler`] under the default [`FeedbackConfig`] with the
/// register-allocator spill evaluator wired in — `feedback:hrms` is
/// iteratively rescheduled HRMS. The prefix composes with every slug,
/// including `chaos` (whose panics stay contained by the engine).
///
/// Every scheduler is built with its default configuration — the same
/// configuration the in-process harnesses use, so CLI and service results
/// are comparable with library results.
pub fn scheduler_by_slug(slug: &str) -> Option<BoxedScheduler> {
    if let Some(inner) = slug.strip_prefix("feedback:") {
        return feedback_scheduler(inner, FeedbackConfig::default());
    }
    Some(match slug {
        "hrms" => Box::new(HrmsScheduler::new()),
        "top-down" => Box::new(TopDownScheduler::new()),
        "bottom-up" => Box::new(BottomUpScheduler::new()),
        "slack" => Box::new(SlackScheduler::new()),
        "frlc" => Box::new(FrlcScheduler::new()),
        "iterative" => Box::new(IterativeScheduler::new()),
        "bnb" => Box::new(BranchAndBoundScheduler::new()),
        "chaos" => Box::new(ChaosScheduler),
        _ => return None,
    })
}

/// Resolves `inner_slug` and wraps it in the feedback-guided rescheduler
/// under `config` (see [`wrap_feedback`]). `None` when the inner slug is
/// unknown.
pub fn feedback_scheduler(inner_slug: &str, config: FeedbackConfig) -> Option<BoxedScheduler> {
    Some(wrap_feedback(scheduler_by_slug(inner_slug)?, config))
}

/// Wraps an already-built scheduler in the feedback-guided
/// [`IterativeRescheduler`] with the register-allocator spill evaluator
/// ([`BudgetSpillEvaluator`]) injected — the composition point where the
/// regalloc feedback signal meets the modsched feedback loop (the two
/// crates cannot depend on each other; this crate depends on both).
pub fn wrap_feedback(inner: BoxedScheduler, config: FeedbackConfig) -> BoxedScheduler {
    Box::new(
        IterativeRescheduler::new(inner, config).with_evaluator(Box::new(BudgetSpillEvaluator)),
    )
}

/// All schedulers in [`SCHEDULER_SLUGS`] order.
pub fn all_schedulers() -> Vec<BoxedScheduler> {
    SCHEDULER_SLUGS
        .iter()
        .map(|s| scheduler_by_slug(s).expect("every listed slug resolves"))
        .collect()
}

/// Whether [`resolve_machine`] may read `.machine` files from disk.
///
/// The CLI resolves on behalf of a local user and allows files; the
/// service resolves on behalf of a remote client and must never read
/// server-side files, whatever the request says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineFiles {
    /// Unresolved names may be tried as paths to `.machine` files.
    Allow,
    /// The filesystem is never touched (service policy).
    Deny,
}

/// A failed [`resolve_machine`] call, split by stage so callers can attach
/// the right context (the service adds span diagnostics to
/// [`MachineError::InlineParse`]; the CLI just formats the message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The reference was inline `.machine` text that does not parse.
    InlineParse {
        /// The parse error, already rendered.
        error: String,
    },
    /// The reference named a readable file whose contents do not parse.
    FileParse {
        /// The path that was read.
        path: String,
        /// The parse error, already rendered.
        error: String,
    },
    /// The reference is no preset, no inline text, and — under
    /// [`MachineFiles::Allow`] — no readable file either.
    Unknown {
        /// The unresolvable reference.
        name: String,
        /// The I/O error from the file attempt, when files were allowed.
        io: Option<String>,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::InlineParse { error } => {
                write!(f, "inline machine does not parse: {error}")
            }
            MachineError::FileParse { path, error } => write!(f, "{path}: {error}"),
            MachineError::Unknown { name, io: Some(io) } => write!(
                f,
                "`{name}` is not a machine preset ({}), inline `.machine` text, or a readable \
                 file: {io}",
                presets::PRESET_NAMES.join(", ")
            ),
            MachineError::Unknown { name, io: None } => write!(
                f,
                "`{name}` is not a machine preset ({}) or inline `.machine` text",
                presets::PRESET_NAMES.join(", ")
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// Resolves a machine reference — the CLI's `--machine` values and the
/// service protocol's `machine`/`machines` entries go through this one
/// function, so a reference means the same thing everywhere:
///
/// 1. inline `.machine` text (auto-detected by its `machine` header),
/// 2. a preset name ([`presets::by_name`]),
/// 3. under [`MachineFiles::Allow`] only, a path to a `.machine` file.
///
/// # Errors
///
/// Returns a [`MachineError`] naming the failing stage.
pub fn resolve_machine(reference: &str, files: MachineFiles) -> Result<Machine, MachineError> {
    if crate::protocol::looks_like_machine(reference) {
        return hrms_machine::parse_machine(reference).map_err(|e| MachineError::InlineParse {
            error: e.to_string(),
        });
    }
    if let Some(machine) = presets::by_name(reference) {
        return Ok(machine);
    }
    if files == MachineFiles::Deny {
        return Err(MachineError::Unknown {
            name: reference.to_string(),
            io: None,
        });
    }
    match std::fs::read_to_string(reference) {
        Ok(text) => hrms_machine::parse_machine(&text).map_err(|e| MachineError::FileParse {
            path: reference.to_string(),
            error: e.to_string(),
        }),
        Err(io) => Err(MachineError::Unknown {
            name: reference.to_string(),
            io: Some(io.to_string()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slug_resolves_to_a_distinct_scheduler() {
        let names: Vec<String> = all_schedulers().iter().map(|s| s.name().into()).collect();
        assert_eq!(names.len(), SCHEDULER_SLUGS.len());
        let expected = [
            "HRMS",
            "Top-Down",
            "Bottom-Up",
            "Slack",
            "FRLC",
            "Iterative",
            "B&B (SPILP stand-in)",
        ];
        assert_eq!(names, expected);
        assert!(scheduler_by_slug("HRMS").is_none(), "slugs are lowercase");
    }

    #[test]
    fn machine_presets_resolve_and_bad_names_explain_themselves() {
        for files in [MachineFiles::Allow, MachineFiles::Deny] {
            assert_eq!(
                resolve_machine("govindarajan", files).unwrap().name(),
                "govindarajan-4fu"
            );
            let err = resolve_machine("no-such-machine", files)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("perfect-club"),
                "error lists the presets: {err}"
            );
        }
    }

    #[test]
    fn inline_machine_text_resolves_under_both_policies() {
        let inline = hrms_machine::write_machine(&presets::perfect_club());
        for files in [MachineFiles::Allow, MachineFiles::Deny] {
            assert_eq!(
                resolve_machine(&inline, files).unwrap().name(),
                "perfect-club-8fu"
            );
        }
        let err = resolve_machine("machine m\n  zzz\nend\n", MachineFiles::Deny).unwrap_err();
        assert!(matches!(err, MachineError::InlineParse { .. }), "{err}");
    }

    #[test]
    fn file_resolution_is_a_policy_decision() {
        let dir = std::env::temp_dir().join("hrms-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resolve.machine");
        std::fs::write(&path, hrms_machine::write_machine(&presets::govindarajan())).unwrap();
        let path = path.to_str().unwrap();

        let m = resolve_machine(path, MachineFiles::Allow).unwrap();
        assert_eq!(m.name(), "govindarajan-4fu");
        let err = resolve_machine(path, MachineFiles::Deny).unwrap_err();
        assert!(
            matches!(err, MachineError::Unknown { io: None, .. }),
            "the service policy never reads files: {err}"
        );
    }

    #[test]
    fn chaos_resolves_but_stays_out_of_the_listing() {
        let chaos = scheduler_by_slug("chaos").expect("chaos slug resolves");
        assert_eq!(chaos.name(), "Chaos");
        assert!(!SCHEDULER_SLUGS.contains(&"chaos"));
    }

    #[test]
    fn feedback_prefix_wraps_any_slug() {
        let fb = scheduler_by_slug("feedback:hrms").expect("feedback:hrms resolves");
        assert_eq!(fb.name(), "HRMS+feedback[r32,i6,s16]");
        let fb = scheduler_by_slug("feedback:top-down").unwrap();
        assert!(fb.name().starts_with("Top-Down+feedback["));
        assert!(scheduler_by_slug("feedback:zzz").is_none());
        // The hidden chaos slug composes too (panics stay contained by the
        // engine; tests/serve_protocol.rs drills the full path).
        assert!(scheduler_by_slug("feedback:chaos").is_some());
    }

    #[test]
    fn feedback_config_is_part_of_the_scheduler_name() {
        let small = feedback_scheduler(
            "hrms",
            hrms_modsched::FeedbackConfig {
                budget: Some(hrms_modsched::RegisterBudget { registers: 16 }),
                ..hrms_modsched::FeedbackConfig::default()
            },
        )
        .unwrap();
        let default = scheduler_by_slug("feedback:hrms").unwrap();
        assert_ne!(
            small.name(),
            default.name(),
            "different configs must produce different cache keys"
        );
    }

    #[test]
    fn chaos_panics_are_contained_by_the_engine() {
        let chaos = scheduler_by_slug("chaos").unwrap();
        let loops = [hrms_ddg::chain("victim", 3, hrms_ddg::OpKind::FpAdd, 1)];
        let matrix = hrms_engine::BatchEngine::with_workers(2).schedule_matrix(
            &[&*chaos],
            &loops,
            &[presets::govindarajan()],
        );
        match &matrix[0][0][0] {
            Err(SchedError::Internal { what }) => {
                assert!(what.contains("chaos scheduler always panics"), "{what}");
                assert!(what.contains("`victim`"), "{what}");
                assert!(what.contains("registry.rs:"), "{what}");
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
    }
}
