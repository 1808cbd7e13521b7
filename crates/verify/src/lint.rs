//! The lint pass: DDG well-formedness and machine-description checks.
//!
//! Lints come in two layers. The *source* entry points
//! ([`lint_loop_source`], [`lint_dot_source`], [`lint_machine_source`])
//! parse an on-disk input and report parse failures as `L001` / `M001`
//! with the parser's span; when the input parses they delegate to the
//! *semantic* entry points ([`lint_ddg`], [`lint_machine`]) with the
//! codec's span tables so every finding points at the offending line.
//!
//! The semantic lints reuse the shared per-loop analysis
//! ([`hrms_ddg::analysis::LoopAnalysis`]) rather than re-implementing the
//! graph algorithms: RecMII-undefined detection is the analysis's own
//! verdict, and the zero-distance cycle is only re-walked to find a span
//! to point at.

use std::collections::{HashMap, HashSet};

use hrms_ddg::analysis::LoopAnalysis;
use hrms_ddg::dense::Components;
use hrms_ddg::dot::from_dot_graphs_with_spans;
use hrms_ddg::textfmt::tokenize_line;
use hrms_ddg::{parse_loops_with_spans, Ddg, EdgeId, LoopSpans, OpKind, ParseError, Span};
use hrms_machine::{parse_machine_with_spans, Machine, MachineSpans};

use crate::diag::{sort_diagnostics, Code, Diagnostic};

/// Latencies and distances at or above this are almost certainly typos
/// (`L006`). The largest legitimate value in the paper's workloads is the
/// square-root latency, 30; a mistyped extra digit is still far below this.
/// The limit is the largest II any scheduler tries,
/// [`hrms_modsched::MAX_II`]: one latency above it on a circuit of
/// distance 1 already puts the RecMII beyond every II tried.
pub const MAGNITUDE_LIMIT: u32 = hrms_modsched::MAX_II;

/// Lints a `.loop` file (possibly holding several loops). Parse failures
/// become a single `L001`; otherwise every loop is linted with spans.
///
/// `machine` enables the machine-dependent lints (`L007`, `L008`); pass
/// `None` to lint the graph alone.
pub fn lint_loop_source(input: &str, machine: Option<&Machine>) -> Vec<Diagnostic> {
    match parse_loops_with_spans(input) {
        Ok(loops) => {
            let mut diags = Vec::new();
            for (ddg, spans) in &loops {
                diags.extend(lint_ddg(ddg, Some(spans), machine));
            }
            sort_diagnostics(&mut diags);
            diags
        }
        Err(e) => vec![parse_diag(Code::L001, &e)],
    }
}

/// Lints a Graphviz DOT import: one loop per digraph, with several graphs
/// allowed back to back. Parse failures become a single `L001`.
pub fn lint_dot_source(input: &str, machine: Option<&Machine>) -> Vec<Diagnostic> {
    match from_dot_graphs_with_spans(input) {
        Ok(graphs) => {
            let mut diags = Vec::new();
            for (ddg, spans) in &graphs {
                diags.extend(lint_ddg(ddg, Some(spans), machine));
            }
            sort_diagnostics(&mut diags);
            diags
        }
        Err(e) => vec![parse_diag(Code::L001, &e)],
    }
}

/// Lints a `.machine` file. Parse failures become `M001` — except that a
/// build rejection caused by zero-unit classes is reported as one `M002`
/// per offending class (located by a lenient re-scan of the raw text),
/// which is the actionable finding.
pub fn lint_machine_source(input: &str) -> Vec<Diagnostic> {
    match parse_machine_with_spans(input) {
        Ok((machine, spans)) => lint_machine(&machine, Some(&spans)),
        Err(e) => {
            if e.message.contains("has zero units") {
                let zero = scan_zero_count_classes(input);
                if !zero.is_empty() {
                    return zero
                        .into_iter()
                        .map(|(name, span)| {
                            Diagnostic::new(
                                Code::M002,
                                format!("functional-unit class `{name}` has zero units"),
                            )
                            .with_span(span)
                            .with_note("no operation mapped to this class can ever issue")
                        })
                        .collect();
                }
            }
            vec![parse_diag(Code::M001, &e)]
        }
    }
}

/// The semantic DDG lints over an already-built graph.
///
/// `spans` (from [`hrms_ddg::parse_loops_with_spans`] or
/// [`from_dot_graphs_with_spans`]) locates findings in the source; without it
/// diagnostics are emitted spanless. `machine` gates `L007`/`L008`.
pub fn lint_ddg(
    ddg: &Ddg,
    spans: Option<&LoopSpans>,
    machine: Option<&Machine>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let node_span = |id: usize| spans.map(|s| s.nodes[id]);
    let edge_span = |id: usize| spans.map(|s| s.edges[id]);

    // L002: byte-for-byte duplicate edges.
    let mut seen: HashMap<(u32, u32, &str, u32), usize> = HashMap::new();
    // L003: zero-distance self-dependences.
    let mut self_deps = 0usize;
    for (eid, e) in ddg.edges() {
        let i = eid.index();
        let key = (e.source().0, e.target().0, e.kind().label(), e.distance());
        if let Some(&first) = seen.get(&key) {
            let mut d = Diagnostic::new(
                Code::L002,
                format!(
                    "duplicate {} dependence `{}` -> `{}` (distance {})",
                    e.kind().label(),
                    ddg.node(e.source()).name(),
                    ddg.node(e.target()).name(),
                    e.distance()
                ),
            )
            .with_note("the scheduler evaluates the same constraint twice");
            if let Some(span) = edge_span(i) {
                d = d.with_span(span);
            }
            if let Some(first_span) = edge_span(first) {
                d = d.with_note(format!("first declared at line {}", first_span.line));
            }
            diags.push(d);
        } else {
            seen.insert(key, i);
        }
        if e.is_self_loop() && e.distance() == 0 {
            self_deps += 1;
            let mut d = Diagnostic::new(
                Code::L003,
                format!(
                    "zero-distance self-dependence on `{}`",
                    ddg.node(e.source()).name()
                ),
            )
            .with_note("no start time t satisfies t >= t + latency; no II admits a schedule");
            if let Some(span) = edge_span(i) {
                d = d.with_span(span);
            }
            diags.push(d);
        }
    }

    // L004: a zero-distance dependence cycle — the analysis's own verdict
    // (RecMII undefined), re-walked only to find a span. Suppressed when an
    // L003 already explains it (a δ=0 self-edge is the degenerate cycle).
    let analysis = LoopAnalysis::analyze(ddg);
    if analysis.rec_mii().is_none() && self_deps == 0 {
        let mut d = Diagnostic::new(
            Code::L004,
            format!(
                "loop `{}` has a zero-distance dependence cycle; RecMII is undefined",
                ddg.name()
            ),
        )
        .with_note("the dependence constraints are infeasible for every II");
        if let Some((cycle_names, edge)) = find_zero_distance_cycle(ddg) {
            d = d.with_note(format!("cycle through {}", cycle_names.join(" -> ")));
            if let Some(span) = edge_span(edge.index()) {
                d = d.with_span(span);
            }
        } else if let Some(s) = spans {
            d = d.with_span(s.header);
        }
        diags.push(d);
    }

    // L005: the body splits into disconnected components.
    let components = Components::of(analysis.csr_full());
    if components.len() > 1 {
        let mut d = Diagnostic::new(
            Code::L005,
            format!(
                "loop `{}` splits into {} disconnected components",
                ddg.name(),
                components.len()
            ),
        )
        .with_note("independent subloops usually indicate a merge or naming mistake");
        if let Some(first) = components.members(1).first() {
            d = d.with_note(format!(
                "`{}` is unreachable from the first component",
                ddg.node(*first).name()
            ));
        }
        if let Some(s) = spans {
            d = d.with_span(s.header);
        }
        diags.push(d);
    }

    // L006: implausibly large latencies / distances.
    for (i, id) in ddg.node_ids().enumerate() {
        let node = ddg.node(id);
        if node.latency() >= MAGNITUDE_LIMIT {
            let mut d = Diagnostic::new(
                Code::L006,
                format!(
                    "latency {} of `{}` is implausibly large",
                    node.latency(),
                    node.name()
                ),
            )
            .with_note(format!(
                "values at or above {MAGNITUDE_LIMIT} are treated as typos"
            ));
            if let Some(span) = node_span(i) {
                d = d.with_span(span);
            }
            diags.push(d);
        }
    }
    for (eid, e) in ddg.edges() {
        let i = eid.index();
        if e.distance() >= MAGNITUDE_LIMIT {
            let mut d = Diagnostic::new(
                Code::L006,
                format!(
                    "dependence distance {} on `{}` -> `{}` is implausibly large",
                    e.distance(),
                    ddg.node(e.source()).name(),
                    ddg.node(e.target()).name()
                ),
            )
            .with_note(format!(
                "values at or above {MAGNITUDE_LIMIT} are treated as typos"
            ));
            if let Some(span) = edge_span(i) {
                d = d.with_span(span);
            }
            diags.push(d);
        }
    }

    // L007 / L008: machine-gated checks.
    if let Some(machine) = machine {
        for (i, id) in ddg.node_ids().enumerate() {
            let node = ddg.node(id);
            let machine_latency = machine.latency_of(node.kind());
            if machine_latency != node.latency() {
                let mut d = Diagnostic::new(
                    Code::L007,
                    format!(
                        "`{}` declares latency {} but machine `{}` executes {} in {} cycles",
                        node.name(),
                        node.latency(),
                        machine.name(),
                        node.kind(),
                        machine_latency
                    ),
                )
                .with_note("run the scheduler with machine latencies applied, or fix the graph");
                if let Some(span) = node_span(i) {
                    d = d.with_span(span);
                }
                diags.push(d);
            }
            let class = machine.class(machine.class_of(node.kind()));
            if class.count == 0 {
                let mut d = Diagnostic::new(
                    Code::L008,
                    format!(
                        "no functional unit of machine `{}` can execute `{}` ({})",
                        machine.name(),
                        node.name(),
                        node.kind()
                    ),
                )
                .with_note(format!("class `{}` has zero units", class.name));
                if let Some(span) = node_span(i) {
                    d = d.with_span(span);
                }
                diags.push(d);
            }
        }
    }

    sort_diagnostics(&mut diags);
    diags
}

/// The semantic machine lints over an already-built description.
pub fn lint_machine(machine: &Machine, spans: Option<&MachineSpans>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let class_span = |id: usize| spans.map(|s| s.classes[id]);

    let mut names: HashMap<&str, usize> = HashMap::new();
    for (i, class) in machine.classes().iter().enumerate() {
        // M002: zero-unit classes (the builder rejects these, so this only
        // fires for descriptions constructed by other means).
        if class.count == 0 {
            let mut d = Diagnostic::new(
                Code::M002,
                format!("functional-unit class `{}` has zero units", class.name),
            )
            .with_note("no operation mapped to this class can ever issue");
            if let Some(span) = class_span(i) {
                d = d.with_span(span);
            }
            diags.push(d);
        }
        // M003: duplicate class names.
        if let Some(&first) = names.get(class.name.as_str()) {
            let mut d = Diagnostic::new(
                Code::M003,
                format!(
                    "resource classes {first} and {i} share the name `{}`",
                    class.name
                ),
            )
            .with_note("reports and blame messages cannot tell the two apart");
            if let Some(span) = class_span(i) {
                d = d.with_span(span);
            }
            diags.push(d);
        } else {
            names.insert(class.name.as_str(), i);
        }
    }

    // M004: classes no operation kind is mapped to.
    let reachable: HashSet<usize> = OpKind::ALL
        .iter()
        .map(|&k| machine.class_of(k).index())
        .collect();
    for (i, class) in machine.classes().iter().enumerate() {
        if !reachable.contains(&i) {
            let mut d = Diagnostic::new(
                Code::M004,
                format!(
                    "resource class `{}` is unreachable: no operation kind maps to it",
                    class.name
                ),
            )
            .with_note("ResMII and utilisation figures silently ignore its units");
            if let Some(span) = class_span(i) {
                d = d.with_span(span);
            }
            diags.push(d);
        }
    }

    sort_diagnostics(&mut diags);
    diags
}

/// Converts a codec [`ParseError`] into an `L001`/`M001` diagnostic,
/// preserving its span when it has one.
fn parse_diag(code: Code, e: &ParseError) -> Diagnostic {
    let mut d = Diagnostic::new(code, e.message.clone());
    if let Some(span) = e.span {
        d = d.with_span(span);
    }
    d
}

/// Leniently re-scans raw `.machine` text for `class ... count=0` lines.
/// Used to locate `M002` findings when the strict parser has already
/// rejected the input.
fn scan_zero_count_classes(input: &str) -> Vec<(String, Span)> {
    let mut found = Vec::new();
    let mut base = 0usize;
    for (i, raw) in input.split_inclusive('\n').enumerate() {
        let lineno = i + 1;
        let line = raw.strip_suffix('\n').unwrap_or(raw);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if let Ok(tokens) = tokenize_line(line, lineno, base) {
            let is_class = tokens
                .first()
                .is_some_and(|t| !t.quoted && t.text == "class");
            if is_class && tokens.len() >= 2 {
                if let Some(tok) = tokens.iter().find(|t| !t.quoted && t.text == "count=0") {
                    found.push((tokens[1].text.clone(), tok.span));
                }
            }
        }
        base += raw.len();
    }
    found
}

/// Finds one cycle made entirely of zero-distance edges (exactly the
/// zero-distance dependence cycles, since δ ≥ 0). Returns the node names
/// along the cycle and one participating edge for the span.
fn find_zero_distance_cycle(ddg: &Ddg) -> Option<(Vec<String>, EdgeId)> {
    let n = ddg.num_nodes();
    let mut adj: Vec<Vec<(usize, EdgeId)>> = vec![Vec::new(); n];
    for (eid, e) in ddg.edges() {
        if e.distance() == 0 {
            adj[e.source().index()].push((e.target().index(), eid));
        }
    }
    // Iterative DFS with an explicit path; a gray neighbour closes a cycle.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        // Stack frames: (node, next out-edge index).
        let mut stack = vec![(root, 0usize)];
        color[root] = GRAY;
        while let Some(&(u, next)) = stack.last() {
            if next < adj[u].len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let (v, edge) = adj[u][next];
                match color[v] {
                    WHITE => {
                        color[v] = GRAY;
                        stack.push((v, 0));
                    }
                    GRAY => {
                        // The path from v to u on the stack, plus (u, v).
                        let start = stack.iter().position(|&(w, _)| w == v).unwrap();
                        let mut names: Vec<String> = stack[start..]
                            .iter()
                            .map(|&(w, _)| {
                                ddg.node(hrms_ddg::NodeId::from_index(w)).name().to_string()
                            })
                            .collect();
                        names.push(ddg.node(hrms_ddg::NodeId::from_index(v)).name().to_string());
                        return Some((names, edge));
                    }
                    _ => {}
                }
            } else {
                color[u] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use hrms_ddg::{DdgBuilder, DepKind};
    use hrms_machine::presets;

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_loop_source_lints_clean() {
        let input = "\
loop dot
  node l load latency=2
  node m fmul latency=2
  node a fadd latency=1
  edge l -> m flow
  edge m -> a flow
  edge a -> a flow dist=1
end
";
        assert!(lint_loop_source(input, None).is_empty());
        assert!(lint_loop_source(input, Some(&presets::govindarajan())).is_empty());
    }

    #[test]
    fn parse_failure_is_l001_with_span() {
        let diags = lint_loop_source("loop l\n  node a zzz latency=1\nend\n", None);
        assert_eq!(codes(&diags), [Code::L001]);
        let span = diags[0].span.expect("span");
        assert_eq!((span.line, span.col), (2, 10));
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn duplicate_edges_warn_with_both_lines() {
        let input = "\
loop l
  node a load latency=2
  node b fadd latency=1
  edge a -> b flow
  edge a -> b flow
end
";
        let diags = lint_loop_source(input, None);
        assert_eq!(codes(&diags), [Code::L002]);
        assert_eq!(diags[0].span.unwrap().line, 5);
        assert!(diags[0].notes.iter().any(|n| n.contains("line 4")));
    }

    #[test]
    fn zero_distance_self_dependence_is_l003_and_suppresses_l004() {
        let input = "\
loop l
  node a fadd latency=1
  edge a -> a flow
end
";
        let diags = lint_loop_source(input, None);
        assert_eq!(codes(&diags), [Code::L003]);
        assert_eq!(diags[0].span.unwrap().line, 3);
    }

    #[test]
    fn zero_distance_cycle_is_l004_with_cycle_note() {
        let input = "\
loop l
  node a fadd latency=1
  node b fmul latency=2
  edge a -> b flow
  edge b -> a flow
end
";
        let diags = lint_loop_source(input, None);
        assert_eq!(codes(&diags), [Code::L004]);
        assert!(diags[0].notes.iter().any(|n| n.contains("a -> b -> a")));
        // The span points at an edge of the cycle.
        assert!(matches!(diags[0].span.unwrap().line, 4 | 5));
    }

    #[test]
    fn disconnected_components_warn() {
        let input = "\
loop l
  node a fadd latency=1
  node b fmul latency=2
  edge a -> a flow dist=1
  edge b -> b flow dist=1
end
";
        let diags = lint_loop_source(input, None);
        assert_eq!(codes(&diags), [Code::L005]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].span.unwrap().line, 1);
    }

    #[test]
    fn implausible_magnitudes_warn() {
        let input = format!(
            "loop l\n  node a fadd latency={}\n  node b fadd latency=1\n  edge a -> b flow dist={}\nend\n",
            MAGNITUDE_LIMIT,
            MAGNITUDE_LIMIT + 7
        );
        let diags = lint_loop_source(&input, None);
        assert_eq!(codes(&diags), [Code::L006, Code::L006]);
        assert_eq!(diags[0].span.unwrap().line, 2);
        assert_eq!(diags[1].span.unwrap().line, 4);
    }

    #[test]
    fn machine_gated_latency_mismatch_is_l007() {
        let input = "\
loop l
  node a fdiv latency=3
  edge a -> a flow dist=1
end
";
        assert!(lint_loop_source(input, None).is_empty());
        let diags = lint_loop_source(input, Some(&presets::govindarajan()));
        assert_eq!(codes(&diags), [Code::L007]);
        assert!(diags[0].message.contains("17 cycles"));
        assert_eq!(diags[0].span.unwrap().line, 2);
    }

    #[test]
    fn dot_import_is_linted_too() {
        let dot = "digraph l {\n  a -> a;\n}\n";
        let diags = lint_dot_source(dot, None);
        assert_eq!(codes(&diags), [Code::L003]);
    }

    #[test]
    fn machine_parse_failure_is_m001() {
        let diags = lint_machine_source("machine m\n  zzz\nend\n");
        assert_eq!(codes(&diags), [Code::M001]);
        assert_eq!(diags[0].span.unwrap().line, 2);
    }

    #[test]
    fn zero_count_class_is_m002_via_lenient_scan() {
        let input = "\
machine m
  class alu count=0 pipelined
  class mem count=1 pipelined
  op fadd class=alu latency=1
  op fmul class=alu latency=1
  op fdiv class=alu latency=1
  op fsqrt class=alu latency=1
  op load class=mem latency=2
  op store class=mem latency=1
  op ialu class=alu latency=1
  op copy class=alu latency=1
  op op class=alu latency=1
end
";
        let diags = lint_machine_source(input);
        assert_eq!(codes(&diags), [Code::M002]);
        assert!(diags[0].message.contains("`alu`"));
        let span = diags[0].span.unwrap();
        assert_eq!(span.line, 2);
        assert_eq!(span.len, "count=0".len());
    }

    #[test]
    fn unreachable_class_is_m004() {
        use hrms_machine::{MachineBuilder, ResourceClass};
        let m = MachineBuilder::new("m")
            .class(ResourceClass::pipelined("used", 2))
            .class(ResourceClass::pipelined("idle", 2))
            .map_all_remaining_to(0, 1)
            .build()
            .unwrap();
        let diags = lint_machine(&m, None);
        assert_eq!(codes(&diags), [Code::M004]);
        assert!(diags[0].message.contains("`idle`"));
    }

    #[test]
    fn presets_lint_clean() {
        for m in [
            presets::general_purpose(),
            presets::govindarajan(),
            presets::perfect_club(),
        ] {
            assert!(lint_machine(&m, None).is_empty(), "{}", m.name());
        }
    }

    #[test]
    fn lint_ddg_works_spanless() {
        let mut b = DdgBuilder::new("l");
        let a = b.node("a", hrms_ddg::OpKind::FpAdd, 1);
        b.edge(a, a, DepKind::RegFlow, 0).unwrap();
        let ddg = b.build().unwrap();
        let diags = lint_ddg(&ddg, None, None);
        assert_eq!(codes(&diags), [Code::L003]);
        assert!(diags[0].span.is_none());
    }
}
