//! The implementation of the `hrms` command-line tool.
//!
//! Everything except process concerns (argv, stdin, exit) lives here so the
//! integration tests can drive the CLI in-process: [`run`] takes the
//! argument list and the stdin contents and returns the full stdout text.
//! `src/bin/hrms.rs` is a thin wrapper around it. The user-facing
//! documentation is `docs/CLI.md`.

use std::fmt::Write as _;

use hrms_ddg::{dot, textfmt, Ddg};
use hrms_engine::BatchEngine;
use hrms_machine::{presets, write_machine, Machine};
use hrms_modsched::{report_line, FeedbackConfig, ModuloScheduler, ReportOptions, ScheduleOutcome};
use hrms_serve::{looks_like_dot, looks_like_machine, parse_loop_source, ServeConfig, Service};
use hrms_verify::{certify, lint_dot_source, lint_loop_source, lint_machine_source, Diagnostic};

use crate::registry::{
    all_schedulers, resolve_machine, scheduler_by_slug, wrap_feedback, BoxedScheduler,
    MachineFiles, SCHEDULER_SLUGS,
};

/// A CLI failure: a message for stderr and the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description, printed to stderr by the binary.
    pub message: String,
    /// Process exit code: 2 for usage errors, 1 for data errors.
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn data(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// The `--emit` mode of `hrms schedule`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Emit {
    Kernel,
    Json,
    Dot,
}

const USAGE: &str = "\
hrms — software pipelining with Hypernode Reduction Modulo Scheduling

USAGE:
    hrms schedule <FILE|->...  [--scheduler <slugs>|all] [--machine <presets|files>]
                               [--emit kernel|json|dot] [--timing] [--workers N]
                               [--certify] [--feedback]
    hrms lint     <FILE|->...  [--machine <preset|file>] [--format text|json]
    hrms convert  <FILE|->...  --to loop|dot
    hrms machine  <preset|file>
    hrms serve    [--socket PATH] [--workers N] [--cache-capacity N] [--no-cache]
    hrms list
    hrms help

Loop inputs are `.loop` files (docs/FORMATS.md) or Graphviz DOT files
(auto-detected); `-` reads from stdin. `--scheduler` takes a
comma-separated list of slugs (default: hrms); `--machine` a
comma-separated list of presets or `.machine` files (default:
govindarajan) — each loop is analysed once and scheduled on every
machine. `lint` also accepts
`.machine` inputs (auto-detected) and exits 1 when it finds anything
(docs/DIAGNOSTICS.md); `--certify` re-checks every produced schedule with
the independent certifier from hrms-verify; `--feedback` wraps every
selected scheduler in the feedback-guided iterative rescheduler (the
`feedback:<slug>` scheduler prefix does the same for one slug). `serve` runs the batch
scheduling service: JSON-lines requests on stdin (or a Unix socket),
results streamed back in input order with a content-addressed cache
(docs/SERVICE.md).
";

/// Runs the CLI with the given arguments (excluding the program name) and
/// stdin contents, returning the stdout text.
///
/// # Errors
///
/// Returns a [`CliError`] carrying the message and exit code on any usage
/// or data error.
pub fn run(args: &[String], stdin: &str) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("schedule") => cmd_schedule(&args[1..], stdin),
        Some("lint") => cmd_lint(&args[1..], stdin),
        Some("convert") => cmd_convert(&args[1..], stdin),
        Some("machine") => cmd_machine(&args[1..]),
        Some("serve") => cmd_serve(&args[1..], stdin),
        Some("list") => Ok(cmd_list()),
        Some("help") | Some("--help") | Some("-h") | None => Ok(USAGE.to_string()),
        Some(other) => Err(CliError::usage(format!(
            "unknown subcommand `{other}`\n\n{USAGE}"
        ))),
    }
}

/// Reads one input source: a path or `-` for stdin.
fn read_source(source: &str, stdin: &str) -> Result<String, CliError> {
    if source == "-" {
        return Ok(stdin.to_string());
    }
    std::fs::read_to_string(source)
        .map_err(|e| CliError::data(format!("cannot read `{source}`: {e}")))
}

/// Parses one input source into its loops: a `.loop` file may hold
/// several, and a DOT file one loop per digraph, back to back.
fn parse_source(source: &str, text: &str) -> Result<Vec<Ddg>, CliError> {
    parse_loop_source(text).map_err(|e| CliError::data(format!("{source}: {e}")))
}

/// Loads every loop from the listed sources, in argument order.
fn load_loops(sources: &[&str], stdin: &str) -> Result<Vec<Ddg>, CliError> {
    if sources.is_empty() {
        return Err(CliError::usage(
            "no input files given (use `-` to read stdin)",
        ));
    }
    let mut loops = Vec::new();
    for source in sources {
        let text = read_source(source, stdin)?;
        loops.extend(parse_source(source, &text)?);
    }
    if loops.is_empty() {
        return Err(CliError::data("the inputs contain no loops"));
    }
    Ok(loops)
}

fn flag_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("`{flag}` needs a value")))
}

fn cmd_schedule(args: &[String], stdin: &str) -> Result<String, CliError> {
    let mut sources: Vec<&str> = Vec::new();
    let mut scheduler_arg = "hrms".to_string();
    let mut machine_arg = "govindarajan".to_string();
    let mut emit = Emit::Kernel;
    let mut timing = false;
    let mut workers: Option<usize> = None;
    let mut do_certify = false;
    let mut feedback = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheduler" => scheduler_arg = flag_value(&mut it, "--scheduler")?.to_string(),
            "--machine" => machine_arg = flag_value(&mut it, "--machine")?.to_string(),
            "--certify" => do_certify = true,
            "--feedback" => feedback = true,
            "--emit" => {
                emit = match flag_value(&mut it, "--emit")? {
                    "kernel" => Emit::Kernel,
                    "json" => Emit::Json,
                    "dot" => Emit::Dot,
                    other => {
                        return Err(CliError::usage(format!(
                            "unknown emit mode `{other}` (kernel, json or dot)"
                        )))
                    }
                }
            }
            "--timing" => timing = true,
            "--workers" => {
                let v = flag_value(&mut it, "--workers")?;
                workers = Some(v.parse().map_err(|_| {
                    CliError::usage(format!("`--workers` needs a number, got `{v}`"))
                })?);
            }
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(CliError::usage(format!("unknown flag `{flag}`")));
            }
            file => sources.push(file),
        }
    }

    let loops = load_loops(&sources, stdin)?;
    let machines = machine_arg
        .split(',')
        .map(|name| {
            resolve_machine(name.trim(), MachineFiles::Allow)
                .map_err(|e| CliError::data(e.to_string()))
        })
        .collect::<Result<Vec<Machine>, CliError>>()?;

    if emit == Emit::Dot {
        // DOT output is a property of the loops alone; no scheduling runs.
        let rendered: Vec<String> = loops.iter().map(dot::to_dot).collect();
        return Ok(rendered.join("\n"));
    }

    let schedulers: Vec<BoxedScheduler> = if scheduler_arg == "all" {
        all_schedulers()
    } else {
        scheduler_arg
            .split(',')
            .map(|slug| {
                scheduler_by_slug(slug.trim()).ok_or_else(|| {
                    CliError::usage(format!(
                        "unknown scheduler `{}` (known: {}, or `all`)",
                        slug.trim(),
                        SCHEDULER_SLUGS.join(", ")
                    ))
                })
            })
            .collect::<Result<_, _>>()?
    };
    let schedulers: Vec<BoxedScheduler> = if feedback {
        schedulers
            .into_iter()
            .map(|s| wrap_feedback(s, FeedbackConfig::default()))
            .collect()
    } else {
        schedulers
    };
    let scheduler_refs: Vec<&(dyn ModuloScheduler + Sync)> = schedulers
        .iter()
        .map(|b| &**b as &(dyn ModuloScheduler + Sync))
        .collect();

    let engine = match workers {
        Some(n) => BatchEngine::with_workers(n),
        None => BatchEngine::new(),
    };
    let matrix = engine.schedule_matrix(&scheduler_refs, &loops, &machines);

    // Loop-major output: all schedulers for loop 0 (each on every machine,
    // in `--machine` order), then loop 1, ... The engine's matrix is
    // deterministic, so this stream is byte-stable — and with a single
    // machine it is byte-identical to the historical grid output.
    let mut out = String::new();
    let mut failures = 0usize;
    for (l, ddg) in loops.iter().enumerate() {
        for (s, scheduler) in scheduler_refs.iter().enumerate() {
            for (m, machine) in machines.iter().enumerate() {
                match &matrix[s][l][m] {
                    Ok(outcome) => {
                        match emit {
                            Emit::Kernel => render_kernel(
                                &mut out,
                                ddg,
                                machine,
                                scheduler.name(),
                                outcome,
                                timing,
                            ),
                            Emit::Json => {
                                out.push_str(&report_line(
                                    ddg,
                                    machine,
                                    scheduler.name(),
                                    outcome,
                                    ReportOptions { timing },
                                ));
                                out.push('\n');
                            }
                            Emit::Dot => unreachable!("handled above"),
                        }
                        if do_certify {
                            let cert = certify(ddg, machine, &outcome.schedule);
                            match emit {
                                Emit::Json => {
                                    out.push_str(&cert.to_json());
                                    out.push('\n');
                                }
                                _ => {
                                    if cert.passed() {
                                        let _ = writeln!(
                                            out,
                                            "certified: loop `{}` x {} (II={}, {} checks)",
                                            ddg.name(),
                                            scheduler.name(),
                                            cert.ii,
                                            cert.checks.len()
                                        );
                                    } else {
                                        for d in &cert.diagnostics {
                                            let _ =
                                                writeln!(out, "error[{}]: {}", d.code, d.message);
                                        }
                                    }
                                }
                            }
                            if !cert.passed() {
                                failures += 1;
                            }
                        }
                    }
                    Err(e) => {
                        failures += 1;
                        let _ = writeln!(
                            out,
                            "error: scheduler `{}` failed on loop `{}`: {e}",
                            scheduler.name(),
                            ddg.name()
                        );
                    }
                }
            }
        }
    }
    if failures > 0 {
        return Err(CliError::data(format!(
            "{failures} of {} schedule(s) failed:\n{out}",
            loops.len() * scheduler_refs.len() * machines.len()
        )));
    }
    Ok(out)
}

/// The `--format` mode of `hrms lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    Text,
    Json,
}

fn cmd_lint(args: &[String], stdin: &str) -> Result<String, CliError> {
    let mut sources: Vec<&str> = Vec::new();
    let mut machine_arg: Option<String> = None;
    let mut format = LintFormat::Text;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--machine" => machine_arg = Some(flag_value(&mut it, "--machine")?.to_string()),
            "--format" => {
                format = match flag_value(&mut it, "--format")? {
                    "text" => LintFormat::Text,
                    "json" => LintFormat::Json,
                    other => {
                        return Err(CliError::usage(format!(
                            "unknown lint format `{other}` (text or json)"
                        )))
                    }
                }
            }
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(CliError::usage(format!("unknown flag `{flag}`")));
            }
            file => sources.push(file),
        }
    }
    if sources.is_empty() {
        return Err(CliError::usage(
            "no input files given (use `-` to read stdin)",
        ));
    }
    let machine = match &machine_arg {
        Some(name) => Some(
            resolve_machine(name, MachineFiles::Allow)
                .map_err(|e| CliError::data(e.to_string()))?,
        ),
        None => None,
    };

    let mut rendered = String::new();
    let mut total = 0usize;
    let mut inputs = 0usize;
    for source in &sources {
        let text = read_source(source, stdin)?;
        let path = if *source == "-" { "<stdin>" } else { source };
        let diags: Vec<Diagnostic> = if looks_like_machine(&text) {
            lint_machine_source(&text)
        } else if looks_like_dot(&text) {
            lint_dot_source(&text, machine.as_ref())
        } else {
            lint_loop_source(&text, machine.as_ref())
        };
        inputs += 1;
        total += diags.len();
        for d in &diags {
            match format {
                LintFormat::Text => {
                    rendered.push_str(&d.render_text(path, &text));
                    rendered.push('\n');
                }
                LintFormat::Json => {
                    rendered.push_str(&d.render_json(path));
                    rendered.push('\n');
                }
            }
        }
    }

    if total > 0 {
        if format == LintFormat::Text {
            let _ = writeln!(rendered, "{total} problem(s) in {inputs} input(s)");
        }
        // A multi-line message ending in a newline is printed verbatim by
        // the binary (no `hrms:` prefix), keeping diagnostics clean.
        return Err(CliError::data(rendered));
    }
    Ok(match format {
        LintFormat::Text => format!("{inputs} input(s): no problems found\n"),
        LintFormat::Json => String::new(),
    })
}

/// Appends the human-readable kernel block for one (loop, scheduler) cell.
fn render_kernel(
    out: &mut String,
    ddg: &Ddg,
    machine: &Machine,
    scheduler: &str,
    outcome: &ScheduleOutcome,
    timing: bool,
) {
    let m = &outcome.metrics;
    let _ = writeln!(
        out,
        "== loop `{}` | scheduler {} | machine {}",
        ddg.name(),
        scheduler,
        machine.name()
    );
    let _ = writeln!(
        out,
        "II={} MII={} (res={}, rec={}) stages={} span={} max_live={} buffers={}",
        m.ii, m.mii, m.res_mii, m.rec_mii, m.stage_count, m.span, m.max_live, m.buffers
    );
    if timing {
        let _ = writeln!(
            out,
            "time={}us (ordering {}us, {} II attempt(s))",
            outcome.elapsed.as_micros(),
            outcome.ordering_time.as_micros(),
            outcome.attempts
        );
    }
    out.push_str(&outcome.schedule.kernel().render(ddg));
    out.push('\n');
}

fn cmd_convert(args: &[String], stdin: &str) -> Result<String, CliError> {
    let mut sources: Vec<&str> = Vec::new();
    let mut to: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--to" => to = Some(flag_value(&mut it, "--to")?),
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(CliError::usage(format!("unknown flag `{flag}`")));
            }
            file => sources.push(file),
        }
    }
    let loops = load_loops(&sources, stdin)?;
    match to {
        Some("loop") => Ok(textfmt::write_loops(&loops)),
        Some("dot") => {
            let rendered: Vec<String> = loops.iter().map(dot::to_dot).collect();
            Ok(rendered.join("\n"))
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown target format `{other}` (loop or dot)"
        ))),
        None => Err(CliError::usage("`convert` needs `--to loop|dot`")),
    }
}

/// The parsed options of `hrms serve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Pool size and cache settings for the [`Service`].
    pub config: ServeConfig,
    /// `--socket PATH`: serve a Unix socket instead of stdin/stdout.
    pub socket: Option<std::path::PathBuf>,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut config = ServeConfig::default();
    let mut socket = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                let v = flag_value(&mut it, "--workers")?;
                config.workers = Some(v.parse().map_err(|_| {
                    CliError::usage(format!("`--workers` needs a number, got `{v}`"))
                })?);
            }
            "--cache-capacity" => {
                let v = flag_value(&mut it, "--cache-capacity")?;
                config.cache_capacity = v.parse().map_err(|_| {
                    CliError::usage(format!("`--cache-capacity` needs a number, got `{v}`"))
                })?;
            }
            "--no-cache" => config.cache = false,
            "--socket" => socket = Some(flag_value(&mut it, "--socket")?.into()),
            other => {
                return Err(CliError::usage(format!(
                    "`serve` does not take `{other}` (flags: --socket, --workers, \
                     --cache-capacity, --no-cache)"
                )));
            }
        }
    }
    Ok(ServeArgs { config, socket })
}

/// `hrms serve` driven entirely in-process: every request line of `stdin`
/// is handled (drain semantics — a `shutdown` mid-stream stops there) and
/// the full response stream is returned. The binary uses
/// [`serve_streaming`] instead so responses are flushed per request; the
/// bytes are identical.
fn cmd_serve(args: &[String], stdin: &str) -> Result<String, CliError> {
    let parsed = parse_serve_args(args)?;
    if parsed.socket.is_some() {
        return Err(CliError::usage(
            "`--socket` mode must be run by the hrms binary, not in-process",
        ));
    }
    Ok(Service::new(&parsed.config).process(stdin).0)
}

/// `hrms serve` as the binary runs it: streams stdin→stdout (flushing after
/// every request) or serves `--socket PATH`, blocking until EOF or a
/// `shutdown` request.
///
/// This is the one subcommand that owns its own I/O instead of going
/// through [`run`]: a service must answer requests as they arrive, not
/// after stdin closes.
///
/// # Errors
///
/// Returns a [`CliError`] for bad flags (exit 2) or transport I/O failures
/// (exit 1); protocol-level problems are answered on the stream instead.
pub fn serve_streaming(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_serve_args(args)?;
    let mut service = Service::new(&parsed.config);
    match parsed.socket {
        Some(path) => service
            .serve_unix(&path)
            .map_err(|e| CliError::data(format!("serve: {}: {e}", path.display())))?,
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            service
                .run(stdin.lock(), stdout.lock())
                .map_err(|e| CliError::data(format!("serve: {e}")))?;
        }
    }
    Ok(())
}

fn cmd_machine(args: &[String]) -> Result<String, CliError> {
    match args {
        [name] => {
            let machine = resolve_machine(name, MachineFiles::Allow)
                .map_err(|e| CliError::data(e.to_string()))?;
            Ok(write_machine(&machine))
        }
        _ => Err(CliError::usage(
            "`machine` takes exactly one preset or file",
        )),
    }
}

fn cmd_list() -> String {
    let mut out = String::from("schedulers (--scheduler):\n");
    for slug in SCHEDULER_SLUGS {
        let scheduler = scheduler_by_slug(slug).expect("listed slug resolves");
        let _ = writeln!(out, "  {slug:<10} {}", scheduler.name());
    }
    out.push_str("machine presets (--machine):\n");
    for machine in presets::all() {
        let _ = writeln!(
            out,
            "  {:<18} {} units, {} classes",
            machine.name(),
            machine.total_units(),
            machine.num_classes()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_subcommands() {
        assert!(run(&[], "").unwrap().contains("USAGE"));
        assert!(run(&args(&["help"]), "").unwrap().contains("schedule"));
        let err = run(&args(&["frobnicate"]), "").unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn list_names_every_scheduler_and_preset() {
        let out = cmd_list();
        for slug in SCHEDULER_SLUGS {
            assert!(out.contains(slug), "{slug} missing from:\n{out}");
        }
        for name in presets::PRESET_NAMES {
            let machine = presets::by_name(name).unwrap();
            assert!(out.contains(machine.name()));
        }
    }

    #[test]
    fn schedule_from_stdin_produces_a_kernel() {
        let input = "loop l\nnode a load latency=1\nnode b fadd latency=1\nedge a -> b flow\nend\n";
        let out = run(
            &args(&["schedule", "-", "--machine", "general-purpose"]),
            input,
        )
        .unwrap();
        assert!(out.contains("== loop `l` | scheduler HRMS | machine general-4xL2"));
        assert!(out.contains("II=1 MII=1"));
    }

    #[test]
    fn schedule_json_is_one_line_per_result() {
        let input = "loop l\nnode a load latency=1\nend\n";
        let out = run(
            &args(&[
                "schedule",
                "-",
                "--scheduler",
                "hrms,slack",
                "--emit",
                "json",
            ]),
            input,
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"scheduler\":\"HRMS\""));
        assert!(lines[1].contains("\"scheduler\":\"Slack\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn schedule_machine_list_emits_one_result_per_machine() {
        let input = "loop l\nnode a load latency=1\nend\n";
        let out = run(
            &args(&[
                "schedule",
                "-",
                "--machine",
                "govindarajan, perfect-club",
                "--emit",
                "json",
            ]),
            input,
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains("\"machine\":\"govindarajan-4fu\""));
        assert!(lines[1].contains("\"machine\":\"perfect-club-8fu\""));
        let err = run(
            &args(&["schedule", "-", "--machine", "govindarajan,nope"]),
            input,
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("`nope` is not a machine preset"),
            "{err}"
        );
    }

    #[test]
    fn dot_input_is_autodetected() {
        let input = "digraph g { a -> b; }\n";
        let out = run(&args(&["schedule", "-", "--emit", "json"]), input).unwrap();
        assert!(out.contains("\"loop\":\"g\""), "got: {out}");
    }

    #[test]
    fn convert_round_trips_between_formats() {
        // Two loops: the DOT output holds two graphs back to back, and
        // every reader of it (convert, schedule, lint) sees both, in order.
        let input = "loop l\nnode a load latency=2\nnode b fadd latency=1\nedge a -> b flow\nend\n\
                     loop m\nnode x fmul latency=2\nedge x -> x flow dist=1\nend\n";
        let as_dot = run(&args(&["convert", "-", "--to", "dot"]), input).unwrap();
        assert_eq!(as_dot.matches("digraph").count(), 2);
        let back = run(&args(&["convert", "-", "--to", "loop"]), &as_dot).unwrap();
        let fingerprints = |text: &str| -> Vec<u64> {
            hrms_ddg::parse_loops(text)
                .unwrap()
                .iter()
                .map(hrms_ddg::ddg_fingerprint)
                .collect()
        };
        assert_eq!(fingerprints(&back), fingerprints(input));
        assert_eq!(
            back,
            run(&args(&["convert", "-", "--to", "loop"]), input).unwrap()
        );
        let scheduled = run(&args(&["schedule", "-"]), &as_dot).unwrap();
        assert!(scheduled.contains("loop `l`") && scheduled.contains("loop `m`"));
        let linted = run(&args(&["lint", "-"]), &as_dot).unwrap();
        assert!(linted.contains("no problems found"), "{linted}");
    }

    #[test]
    fn machine_subcommand_prints_the_codec_form() {
        let out = run(&args(&["machine", "perfect-club"]), "").unwrap();
        assert!(out.starts_with("machine perfect-club-8fu"));
        assert!(hrms_machine::parse_machine(&out).is_ok());
    }

    #[test]
    fn lint_clean_input_reports_no_problems() {
        let input = "loop l\nnode a load latency=2\nnode b fadd latency=1\nedge a -> b flow\nend\n";
        let out = run(&args(&["lint", "-"]), input).unwrap();
        assert!(out.contains("no problems found"));
    }

    #[test]
    fn lint_bad_input_exits_one_with_code_and_span() {
        let input = "loop l\n  node a fadd latency=1\n  edge a -> a flow\nend\n";
        let err = run(&args(&["lint", "-"]), input).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("error[L003]"), "{}", err.message);
        assert!(err.message.contains("--> <stdin>:3:3"), "{}", err.message);
        assert!(err.message.ends_with('\n'));
    }

    #[test]
    fn lint_json_format_emits_one_object_per_finding() {
        let input = "loop l\n  node a fadd latency=1\n  edge a -> a flow\nend\n";
        let err = run(&args(&["lint", "-", "--format", "json"]), input).unwrap_err();
        assert_eq!(err.code, 1);
        let lines: Vec<&str> = err.message.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"file\":\"<stdin>\",\"code\":\"L003\""));
    }

    #[test]
    fn lint_autodetects_machine_inputs() {
        let machine = run(&args(&["machine", "govindarajan"]), "").unwrap();
        let out = run(&args(&["lint", "-"]), &machine).unwrap();
        assert!(out.contains("no problems found"));
        let err = run(&args(&["lint", "-"]), "machine m\n  zzz\nend\n").unwrap_err();
        assert!(err.message.contains("error[M001]"), "{}", err.message);
    }

    #[test]
    fn lint_machine_flag_enables_latency_checks() {
        let input = "loop l\nnode a fdiv latency=3\nedge a -> a flow dist=1\nend\n";
        assert!(run(&args(&["lint", "-"]), input).is_ok());
        let err = run(&args(&["lint", "-", "--machine", "govindarajan"]), input).unwrap_err();
        assert!(err.message.contains("warning[L007]"), "{}", err.message);
    }

    #[test]
    fn schedule_certify_passes_and_emits_certificates() {
        let input = "loop l\nnode a load latency=1\nnode b fadd latency=1\nedge a -> b flow\nend\n";
        let out = run(
            &args(&["schedule", "-", "--machine", "general-purpose", "--certify"]),
            input,
        )
        .unwrap();
        assert!(out.contains("certified: loop `l` x HRMS"), "{out}");
        let out = run(
            &args(&[
                "schedule",
                "-",
                "--machine",
                "general-purpose",
                "--emit",
                "json",
                "--certify",
            ]),
            input,
        )
        .unwrap();
        let cert_line = out
            .lines()
            .find(|l| l.contains("\"checks\":"))
            .expect("certificate line");
        assert!(cert_line.contains("\"passed\":true"));
    }

    #[test]
    fn schedule_feedback_flag_wraps_every_scheduler() {
        let input = "loop l\nnode a load latency=1\nnode b fadd latency=1\nedge a -> b flow\nend\n";
        let out = run(
            &args(&["schedule", "-", "--feedback", "--emit", "json"]),
            input,
        )
        .unwrap();
        assert!(
            out.contains("\"scheduler\":\"HRMS+feedback[r32,i6,s16]\""),
            "{out}"
        );
        assert!(out.contains("\"feedback\":{"), "{out}");
        assert!(out.contains("\"converged\":true"), "{out}");
    }

    #[test]
    fn schedule_accepts_the_feedback_slug_prefix() {
        let input = "loop l\nnode a load latency=1\nend\n";
        let out = run(
            &args(&[
                "schedule",
                "-",
                "--scheduler",
                "feedback:top-down",
                "--emit",
                "json",
            ]),
            input,
        )
        .unwrap();
        assert!(
            out.contains("\"scheduler\":\"Top-Down+feedback[r32,i6,s16]\""),
            "{out}"
        );
    }

    #[test]
    fn usage_errors_have_exit_code_two() {
        for case in [
            vec!["schedule"],
            vec!["schedule", "-", "--scheduler", "nope"],
            vec!["schedule", "-", "--emit", "nope"],
            vec!["schedule", "-", "--bogus"],
            vec!["convert", "-"],
            vec!["machine"],
        ] {
            let err = run(&args(&case), "loop l\nnode a op latency=1\nend\n").unwrap_err();
            assert_eq!(err.code, 2, "case {case:?}: {err}");
        }
    }

    #[test]
    fn data_errors_have_exit_code_one() {
        let err = run(&args(&["schedule", "/no/such/file.loop"]), "").unwrap_err();
        assert_eq!(err.code, 1);
        let err = run(&args(&["schedule", "-"]), "loop broken\n").unwrap_err();
        assert_eq!(err.code, 1);
        let err = run(&args(&["machine", "no-such-preset"]), "").unwrap_err();
        assert_eq!(err.code, 1);
    }
}
