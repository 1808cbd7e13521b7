//! Graphviz (DOT) export and import of dependence graphs.
//!
//! Export ([`to_dot`]) renders a graph for visualisation and additionally
//! embeds the full structure in `hrms_*` attributes so the importer
//! ([`from_dot`]) can rebuild a
//! [`crate::fingerprint::ddg_fingerprint`]-identical graph. The importer
//! also accepts plain third-party DOT digraphs (nodes default to latency-1
//! general operations, edges to intra-iteration flow dependences), which is
//! how external/real loops enter the `hrms` CLI, and
//! [`from_dot_graphs`] reads several digraphs written back to back, one
//! loop per graph. The format contract is specified in `docs/FORMATS.md`.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::builder::DdgBuilder;
use crate::edge::DepKind;
use crate::graph::Ddg;
use crate::node::{NodeId, OpKind};
use crate::textfmt::{write_quoted, LoopSpans, ParseError, Span};

/// Renders the graph in Graphviz DOT syntax (digraph).
///
/// Each node label shows the operation's name, kind and latency; each edge
/// label shows the dependence kind and, for loop-carried edges, the
/// distance, and loop-carried edges are dashed. The full graph structure is
/// also embedded in `hrms_*` attributes, which rendering tools ignore, so
/// the output round-trips losslessly through [`from_dot`]. The output is
/// deterministic (nodes in id order, edges in insertion order) so it can
/// be snapshot-tested.
pub fn to_dot(ddg: &Ddg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", quoted(ddg.name()));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    let _ = writeln!(
        out,
        "  graph [hrms_invariants={}, hrms_iterations={}];",
        ddg.num_invariants(),
        ddg.iteration_count()
    );
    for (id, node) in ddg.nodes() {
        let label = format!("{}\n{} λ={}", node.name(), node.kind(), node.latency());
        let mut attrs = vec![
            format!("label={}", quoted(&label)),
            format!("hrms_name={}", quoted(node.name())),
            format!("hrms_kind={}", node.kind().mnemonic()),
            format!("hrms_latency={}", node.latency()),
        ];
        if !node.defines_value() && node.kind().defines_value() {
            attrs.push("hrms_no_result=true".to_string());
        }
        if node.invariant_uses() > 0 {
            attrs.push(format!("hrms_invariant_uses={}", node.invariant_uses()));
        }
        let _ = writeln!(out, "  {} [{}];", id, attrs.join(", "));
    }
    for (_, e) in ddg.edges() {
        let mut attrs = if e.distance() > 0 {
            vec![format!("label=\"{} δ={}\"", e.kind(), e.distance())]
        } else {
            vec![format!("label=\"{}\"", e.kind())]
        };
        if e.is_loop_carried() {
            attrs.push("style=dashed".to_string());
        }
        attrs.push(format!("hrms_kind={}", e.kind().label()));
        attrs.push(format!("hrms_distance={}", e.distance()));
        let _ = writeln!(
            out,
            "  {} -> {} [{}];",
            e.source(),
            e.target(),
            attrs.join(", ")
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// `value` as a double-quoted DOT string, with the escapes [`from_dot`]
/// folds back.
fn quoted(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    write_quoted(&mut out, value);
    out
}

// ---------------------------------------------------------------------------
// Import
// ---------------------------------------------------------------------------

/// One token of a DOT input stream.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    /// Bare identifier or number.
    Id(String),
    /// Double-quoted string (unescaped).
    Str(String),
    /// `{`, `}`, `[`, `]`, `=`, `;`, `,`
    Punct(char),
    /// `->`
    Arrow,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Id(s) => format!("`{s}`"),
            Tok::Str(s) => format!("\"{s}\""),
            Tok::Punct(c) => format!("`{c}`"),
            Tok::Arrow => "`->`".to_string(),
        }
    }

    /// The textual value of an identifier or string token.
    fn value(&self) -> Option<&str> {
        match self {
            Tok::Id(s) | Tok::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Tracks the lexer's position: 1-based line and character column, byte
/// offset into the whole input.
#[derive(Debug, Clone, Copy)]
struct Pos {
    line: usize,
    col: usize,
    offset: usize,
}

impl Pos {
    /// The span from `self` (inclusive) to `end` (exclusive), clamped to a
    /// single line for rendering (multi-line strings point at their first
    /// line).
    fn until(self, end: Pos) -> Span {
        let len = if end.line == self.line {
            end.col.saturating_sub(self.col)
        } else {
            1
        };
        Span::new(self.line, self.col, self.offset, len.max(1))
    }
}

/// The input's lines, for attaching source excerpts to errors.
struct Src<'a> {
    lines: Vec<&'a str>,
}

impl Src<'_> {
    fn err(&self, span: Span, message: impl Into<String>) -> ParseError {
        let line = self
            .lines
            .get(span.line.wrapping_sub(1))
            .copied()
            .unwrap_or("");
        ParseError::at(span, line, message)
    }
}

/// Tokenizes the supported DOT subset, tracking line/column/offset spans.
fn lex<'a>(input: &'a str, src: &Src<'a>) -> Result<Vec<(Tok, Span)>, ParseError> {
    let mut toks = Vec::new();
    let mut chars = input.char_indices().peekable();
    let mut pos = Pos {
        line: 1,
        col: 1,
        offset: 0,
    };
    // Consumes one char, updating the position.
    macro_rules! bump {
        () => {{
            let nxt = chars.next();
            if let Some((i, c)) = nxt {
                pos.offset = i + c.len_utf8();
                if c == '\n' {
                    pos.line += 1;
                    pos.col = 1;
                } else {
                    pos.col += 1;
                }
            }
            nxt.map(|(_, c)| c)
        }};
    }
    while let Some(&(_, c)) = chars.peek() {
        let start = pos;
        match c {
            c if c.is_whitespace() => {
                bump!();
            }
            '#' => {
                // Shell-style comment (also covers C preprocessor lines).
                while let Some(&(_, c)) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    bump!();
                }
            }
            '/' => {
                bump!();
                match chars.peek().map(|&(_, c)| c) {
                    Some('/') => {
                        while let Some(&(_, c)) = chars.peek() {
                            if c == '\n' {
                                break;
                            }
                            bump!();
                        }
                    }
                    Some('*') => {
                        bump!();
                        let mut prev = ' ';
                        loop {
                            match bump!() {
                                None => {
                                    return Err(src.err(start.until(pos), "unterminated /* comment"))
                                }
                                Some('/') if prev == '*' => break,
                                Some(c) => prev = c,
                            }
                        }
                    }
                    _ => return Err(src.err(start.until(pos), "unexpected `/`")),
                }
            }
            '"' => {
                bump!();
                let mut s = String::new();
                loop {
                    match bump!() {
                        None => return Err(src.err(start.until(pos), "unterminated string")),
                        Some('"') => break,
                        Some('\\') => match bump!() {
                            Some('\\') => s.push('\\'),
                            Some('"') => s.push('"'),
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            // DOT treats unknown escapes literally; keep
                            // both characters so foreign labels survive.
                            Some(other) => {
                                s.push('\\');
                                s.push(other);
                            }
                            None => return Err(src.err(start.until(pos), "unterminated string")),
                        },
                        Some(c) => s.push(c),
                    }
                }
                toks.push((Tok::Str(s), start.until(pos)));
            }
            '{' | '}' | '[' | ']' | '=' | ';' | ',' => {
                bump!();
                toks.push((Tok::Punct(c), start.until(pos)));
            }
            '-' => {
                bump!();
                match bump!() {
                    Some('>') => toks.push((Tok::Arrow, start.until(pos))),
                    Some('-') => {
                        return Err(src.err(
                            start.until(pos),
                            "undirected edges (`--`) are not dependence edges; use a digraph",
                        ))
                    }
                    _ => return Err(src.err(start.until(pos), "unexpected `-`")),
                }
            }
            c if c.is_alphanumeric() || c == '_' || c == '.' => {
                let mut s = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '.' {
                        s.push(c);
                        bump!();
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Id(s), start.until(pos)));
            }
            other => {
                bump!();
                return Err(src.err(start.until(pos), format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(toks)
}

/// Key/value attribute list parsed from `[...]`; the span points at the
/// attribute's value token.
type Attrs = Vec<(String, String, Span)>;

fn find_attr<'a>(attrs: &'a Attrs, key: &str) -> Option<&'a str> {
    attrs
        .iter()
        .find(|(k, _, _)| k == key)
        .map(|(_, v, _)| v.as_str())
}

fn find_attr_span<'a>(attrs: &'a Attrs, key: &str) -> Option<(&'a str, Span)> {
    attrs
        .iter()
        .find(|(k, _, _)| k == key)
        .map(|(_, v, s)| (v.as_str(), *s))
}

/// Cursor over the token stream.
struct Cursor<'a> {
    toks: Vec<(Tok, Span)>,
    pos: usize,
    src: Src<'a>,
}

impl<'a> Cursor<'a> {
    /// Tokenizes `input` and places the cursor on its first token.
    fn new(input: &'a str) -> Result<Self, ParseError> {
        let src = Src {
            lines: input.lines().collect(),
        };
        let toks = lex(input, &src)?;
        Ok(Cursor { toks, pos: 0, src })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |&(_, s)| s.line)
    }

    /// Span of the current token (or of the last token at end of input).
    fn span(&self) -> Span {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(Span::new(0, 1, 0, 1), |&(_, s)| s)
    }

    fn err(&self, span: Span, message: impl Into<String>) -> ParseError {
        self.src.err(span, message)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        let span = self.span();
        let line = self.line();
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            Some(other) => {
                Err(self.err(span, format!("expected `{c}`, found {}", other.describe())))
            }
            None => Err(ParseError::new(
                line,
                format!("expected `{c}`, found end of input"),
            )),
        }
    }

    /// Parses an optional `[k=v, ...]` attribute list (possibly repeated,
    /// as DOT allows `[a=1][b=2]`).
    fn attrs(&mut self) -> Result<Attrs, ParseError> {
        let mut attrs = Vec::new();
        while self.eat_punct('[') {
            loop {
                if self.eat_punct(']') {
                    break;
                }
                let span = self.span();
                let line = self.line();
                let key = match self.next() {
                    Some(t) => t
                        .value()
                        .map(str::to_string)
                        .ok_or_else(|| self.err(span, "expected an attribute name"))?,
                    None => return Err(ParseError::new(line, "unterminated attribute list")),
                };
                self.expect_punct('=')?;
                let vspan = self.span();
                let line = self.line();
                let value = match self.next() {
                    Some(t) => t
                        .value()
                        .map(str::to_string)
                        .ok_or_else(|| self.err(vspan, "expected an attribute value"))?,
                    None => return Err(ParseError::new(line, "unterminated attribute list")),
                };
                attrs.push((key, value, vspan));
                // Separators between attributes are optional in DOT.
                let _ = self.eat_punct(',') || self.eat_punct(';');
            }
        }
        Ok(attrs)
    }
}

/// Pending node data gathered during the parse.
struct PendingNode {
    name: String,
    kind: OpKind,
    latency: u32,
    no_result: bool,
    invariant_uses: u32,
    /// Span of the statement that introduced the node.
    span: Span,
}

/// Parses the node-defining attributes (falling back to the label when the
/// `hrms_*` metadata is absent).
fn node_from_attrs(
    dot_id: &str,
    attrs: &Attrs,
    stmt_span: Span,
    src: &Src<'_>,
) -> Result<PendingNode, ParseError> {
    let label = find_attr(attrs, "label");
    // `label="name\nkind λ=N"` — the exporter's presentational encoding.
    let (label_name, label_kind, label_latency) = match label {
        Some(l) => {
            let mut parts = l.splitn(2, '\n');
            let name = parts.next().unwrap_or("");
            let mut kind = None;
            let mut latency = None;
            if let Some(rest) = parts.next() {
                for word in rest.split_whitespace() {
                    if let Some(v) = word.strip_prefix("λ=") {
                        latency = v.parse::<u32>().ok();
                    } else if kind.is_none() {
                        kind = OpKind::from_mnemonic(word);
                    }
                }
            }
            (
                if name.is_empty() {
                    None
                } else {
                    Some(name.to_string())
                },
                kind,
                latency,
            )
        }
        None => (None, None, None),
    };
    let name = find_attr(attrs, "hrms_name")
        .map(str::to_string)
        .or(label_name)
        .unwrap_or_else(|| dot_id.to_string());
    let kind = match find_attr_span(attrs, "hrms_kind") {
        Some((k, span)) => OpKind::from_mnemonic(k)
            .ok_or_else(|| src.err(span, format!("unknown operation kind `{k}`")))?,
        None => label_kind.unwrap_or(OpKind::Other),
    };
    let latency = match find_attr_span(attrs, "hrms_latency") {
        Some((v, span)) => v
            .parse()
            .map_err(|_| src.err(span, format!("invalid hrms_latency `{v}`")))?,
        None => label_latency.unwrap_or(1),
    };
    let no_result = find_attr(attrs, "hrms_no_result") == Some("true");
    let invariant_uses = match find_attr_span(attrs, "hrms_invariant_uses") {
        Some((v, span)) => v
            .parse()
            .map_err(|_| src.err(span, format!("invalid hrms_invariant_uses `{v}`")))?,
        None => 0,
    };
    Ok(PendingNode {
        name,
        kind,
        latency,
        no_result,
        invariant_uses,
        span: stmt_span,
    })
}

/// Parses one or more DOT digraphs written back to back (as `hrms convert
/// --to dot` writes a multi-loop input, and as Graphviz accepts them),
/// one loop per graph in input order, each with the source span of every
/// node- and edge-introducing statement (see
/// [`crate::textfmt::LoopSpans`]; nodes first referenced inside an edge
/// statement get that statement's span).
///
/// # Errors
///
/// Same as [`from_dot`], for the first graph that fails; an input holding
/// no graph at all is an error too.
pub fn from_dot_graphs_with_spans(input: &str) -> Result<Vec<(Ddg, LoopSpans)>, ParseError> {
    let mut cur = Cursor::new(input)?;
    let mut graphs = vec![parse_graph(&mut cur)?];
    while cur.peek().is_some() {
        graphs.push(parse_graph(&mut cur)?);
    }
    Ok(graphs)
}

/// Parses one or more DOT digraphs written back to back into their loops,
/// in input order (see [`from_dot_graphs_with_spans`]).
///
/// # Errors
///
/// Same as [`from_dot_graphs_with_spans`].
pub fn from_dot_graphs(input: &str) -> Result<Vec<Ddg>, ParseError> {
    from_dot_graphs_with_spans(input).map(|graphs| graphs.into_iter().map(|(g, _)| g).collect())
}

/// Parses one `[strict] digraph [name] { ... }` from the cursor, leaving it
/// on the token after the closing brace.
fn parse_graph(cur: &mut Cursor<'_>) -> Result<(Ddg, LoopSpans), ParseError> {
    // Header: [strict] digraph [name] {
    let header_span = cur.span();
    let line = cur.line();
    match cur.next() {
        Some(Tok::Id(id)) if id == "strict" => match cur.next() {
            Some(Tok::Id(id)) if id == "digraph" => {}
            _ => return Err(cur.err(header_span, "expected `digraph`")),
        },
        Some(Tok::Id(id)) if id == "digraph" => {}
        Some(Tok::Id(id)) if id == "graph" => {
            return Err(cur.err(
                header_span,
                "undirected `graph` inputs are not dependence graphs; use `digraph`",
            ))
        }
        Some(other) => {
            return Err(cur.err(
                header_span,
                format!("expected `digraph`, found {}", other.describe()),
            ))
        }
        None => {
            return Err(ParseError::new(
                line,
                "expected `digraph`, found end of input",
            ))
        }
    }
    let name = match cur.peek() {
        Some(Tok::Punct('{')) => "imported".to_string(),
        _ => {
            let span = cur.span();
            let line = cur.line();
            match cur.next() {
                Some(t) => t
                    .value()
                    .map(str::to_string)
                    .ok_or_else(|| cur.err(span, "expected a graph name or `{`"))?,
                None => {
                    return Err(ParseError::new(line, "expected a graph name or `{`"));
                }
            }
        }
    };
    cur.expect_punct('{')?;

    let mut nodes: Vec<PendingNode> = Vec::new();
    let mut ids: HashMap<String, usize> = HashMap::new(); // dot id -> node index
    let mut edges: Vec<(usize, usize, DepKind, u32, Span)> = Vec::new();
    let mut invariants: Option<u32> = None;
    let mut iterations: Option<u64> = None;

    // Creates-or-finds the node for a DOT id referenced by an edge.
    fn intern(
        ids: &mut HashMap<String, usize>,
        nodes: &mut Vec<PendingNode>,
        id: &str,
        span: Span,
    ) -> usize {
        if let Some(&i) = ids.get(id) {
            return i;
        }
        let i = nodes.len();
        nodes.push(PendingNode {
            name: id.to_string(),
            kind: OpKind::Other,
            latency: 1,
            no_result: false,
            invariant_uses: 0,
            span,
        });
        ids.insert(id.to_string(), i);
        i
    }

    loop {
        let stmt_span = cur.span();
        let line = cur.line();
        let tok = cur
            .next()
            .ok_or_else(|| ParseError::new(line, "unterminated digraph (missing `}`)"))?;
        match tok {
            Tok::Punct('}') => break,
            Tok::Punct(';') => continue,
            Tok::Id(ref id) if id == "subgraph" => {
                return Err(cur.err(stmt_span, "subgraphs are not supported"));
            }
            Tok::Id(ref id)
                if (id == "graph" || id == "node" || id == "edge")
                    && cur.peek() == Some(&Tok::Punct('[')) =>
            {
                let attrs = cur.attrs()?;
                if id == "graph" {
                    if let Some((v, span)) = find_attr_span(&attrs, "hrms_invariants") {
                        invariants = Some(v.parse().map_err(|_| {
                            cur.err(span, format!("invalid hrms_invariants `{v}`"))
                        })?);
                    }
                    if let Some((v, span)) = find_attr_span(&attrs, "hrms_iterations") {
                        iterations = Some(v.parse().map_err(|_| {
                            cur.err(span, format!("invalid hrms_iterations `{v}`"))
                        })?);
                    }
                }
                // Other default attributes (shape, fontname, ...) are
                // presentational; ignore them.
            }
            Tok::Id(_) | Tok::Str(_) => {
                let dot_id = tok.value().expect("id or string").to_string();
                if cur.eat_punct('=') {
                    // Top-level `key=value;` graph attribute (rankdir=TB).
                    let span = cur.span();
                    cur.next()
                        .and_then(|t| t.value().map(str::to_string))
                        .ok_or_else(|| cur.err(span, "expected an attribute value"))?;
                    continue;
                }
                if cur.peek() == Some(&Tok::Arrow) {
                    // Edge statement (possibly a chain a -> b -> c).
                    let mut chain = vec![intern(&mut ids, &mut nodes, &dot_id, stmt_span)];
                    while cur.peek() == Some(&Tok::Arrow) {
                        cur.next();
                        let span = cur.span();
                        let target = cur
                            .next()
                            .and_then(|t| t.value().map(str::to_string))
                            .ok_or_else(|| cur.err(span, "expected an edge target"))?;
                        chain.push(intern(&mut ids, &mut nodes, &target, span));
                    }
                    let attrs = cur.attrs()?;
                    let kind = match find_attr_span(&attrs, "hrms_kind") {
                        Some((k, span)) => DepKind::from_label(k).ok_or_else(|| {
                            cur.err(span, format!("unknown dependence kind `{k}`"))
                        })?,
                        None => find_attr(&attrs, "label")
                            .and_then(|l| l.split_whitespace().next().and_then(DepKind::from_label))
                            .unwrap_or(DepKind::RegFlow),
                    };
                    let distance = match find_attr_span(&attrs, "hrms_distance") {
                        Some((v, span)) => v
                            .parse()
                            .map_err(|_| cur.err(span, format!("invalid hrms_distance `{v}`")))?,
                        None => find_attr(&attrs, "label")
                            .and_then(|l| {
                                l.split_whitespace()
                                    .find_map(|w| w.strip_prefix("δ="))
                                    .and_then(|v| v.parse().ok())
                            })
                            .unwrap_or(0),
                    };
                    for pair in chain.windows(2) {
                        edges.push((pair[0], pair[1], kind, distance, stmt_span));
                    }
                } else {
                    // Node statement.
                    let attrs = cur.attrs()?;
                    let pending = node_from_attrs(&dot_id, &attrs, stmt_span, &cur.src)?;
                    let idx = intern(&mut ids, &mut nodes, &dot_id, stmt_span);
                    nodes[idx] = pending;
                }
            }
            other => {
                return Err(cur.err(stmt_span, format!("unexpected {}", other.describe())));
            }
        }
    }

    let mut b = DdgBuilder::new(name);
    let mut node_ids: Vec<NodeId> = Vec::with_capacity(nodes.len());
    let mut node_spans: Vec<Span> = Vec::with_capacity(nodes.len());
    for n in nodes {
        let id = if n.no_result {
            b.node_no_result(n.name, n.kind, n.latency)
        } else {
            b.node(n.name, n.kind, n.latency)
        };
        if n.invariant_uses > 0 {
            b.node_invariant_uses(id, n.invariant_uses);
        }
        node_ids.push(id);
        node_spans.push(n.span);
    }
    let mut edge_spans: Vec<Span> = Vec::with_capacity(edges.len());
    for &(s, t, kind, dist, span) in &edges {
        b.edge(node_ids[s], node_ids[t], kind, dist)
            .map_err(|e| cur.src.err(span, format!("invalid edge: {e}")))?;
        edge_spans.push(span);
    }
    if let Some(inv) = invariants {
        b.invariants(inv);
    }
    if let Some(it) = iterations {
        b.iteration_count(it);
    }
    let ddg = b
        .into_ddg()
        .map_err(|e| ParseError::new(0, format!("invalid graph: {e}")))?;
    Ok((
        ddg,
        LoopSpans {
            header: header_span,
            nodes: node_spans,
            edges: edge_spans,
        },
    ))
}

/// Parses a DOT digraph into a dependence graph.
///
/// Accepts the output of [`to_dot`] (lossless: re-importing yields a
/// fingerprint-identical graph) and a pragmatic
/// subset of general DOT: `digraph` with node statements, edge statements,
/// attribute lists, default `graph`/`node`/`edge` attribute statements
/// (ignored except for `hrms_*` graph metadata) and comments. Nodes that
/// first appear inside an edge statement are created with defaults
/// ([`OpKind::Other`], latency 1), so plain `a -> b; b -> c;` graphs import
/// as schedulable loops.
///
/// # Errors
///
/// Returns a [`ParseError`] — with a 1-based line number, and column plus
/// source excerpt where the error is tied to a token — on lexical or
/// syntactic errors, unsupported constructs (`graph`/`subgraph`, `--`
/// edges), invalid `hrms_*` metadata, or when the resulting graph fails
/// [`DdgBuilder::build`] validation.
pub fn from_dot(input: &str) -> Result<Ddg, ParseError> {
    let mut cur = Cursor::new(input)?;
    let (ddg, _) = parse_graph(&mut cur)?;
    if let Some(tok) = cur.next() {
        return Err(ParseError::new(
            cur.line(),
            format!("trailing {} after closing `}}`", tok.describe()),
        ));
    }
    Ok(ddg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::ddg_fingerprint;
    use crate::{DdgBuilder, DepKind, OpKind};

    fn tiny() -> Ddg {
        let mut b = DdgBuilder::new("tiny \"loop\"");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, c, DepKind::RegFlow, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let g = tiny();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("n0 ["));
        assert!(dot.contains("n1 ["));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n1 -> n1"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn loop_carried_edges_are_dashed_and_labelled() {
        let g = tiny();
        let dot = to_dot(&g);
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("δ=1"));
    }

    #[test]
    fn quotes_in_names_are_escaped() {
        let g = tiny();
        let dot = to_dot(&g);
        assert!(dot.contains("tiny \\\"loop\\\""));
    }

    #[test]
    fn backslashes_are_escaped_before_quotes() {
        // The pre-fix exporter turned a trailing `\` into `\"` (an escaped
        // quote), producing unparseable DOT.
        let mut b = DdgBuilder::new("ends with backslash \\");
        b.node("weird\\name", OpKind::FpAdd, 1);
        let g = b.build().unwrap();
        let dot = to_dot(&g);
        assert!(dot.contains("ends with backslash \\\\"));
        assert!(dot.contains("weird\\\\name"));
        let back = from_dot(&dot).unwrap();
        assert_eq!(back.name(), "ends with backslash \\");
        assert_eq!(back.node(NodeId(0)).name(), "weird\\name");
    }

    #[test]
    fn output_is_deterministic() {
        let g = tiny();
        assert_eq!(to_dot(&g), to_dot(&g));
    }

    #[test]
    fn default_export_reimports_fingerprint_identical() {
        let mut b = DdgBuilder::new("full house");
        let a = b.node("ld", OpKind::Load, 2);
        let c = b.node("acc", OpKind::FpAdd, 1);
        let s = b.node("st", OpKind::Store, 1);
        let n = b.node_no_result("cmp", OpKind::IntAlu, 1);
        b.node_invariant_uses(c, 2);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, c, DepKind::RegFlow, 1).unwrap();
        b.edge(c, s, DepKind::RegFlow, 0).unwrap();
        b.edge(s, a, DepKind::Memory, 2).unwrap();
        b.edge(n, s, DepKind::Control, 0).unwrap();
        b.invariants(3).iteration_count(777);
        let g = b.build().unwrap();

        let back = from_dot(&to_dot(&g)).unwrap();
        assert_eq!(back, g);
        assert_eq!(ddg_fingerprint(&back), ddg_fingerprint(&g));
    }

    #[test]
    fn label_fallback_reconstructs_kind_latency_and_distance() {
        // A third-party export of `tiny()` without `hrms_*` metadata, whose
        // labels still carry the kind, latency and distance.
        let dot = r#"digraph "tiny \"loop\"" {
  rankdir=TB;
  node [shape=box, fontname="monospace"];
  n0 [label="a\nload λ=2"];
  n1 [label="c\nfadd λ=1"];
  n0 -> n1 [label="flow δ=0"];
  n1 -> n1 [label="flow δ=1", style=dashed];
}
"#;
        let back = from_dot(dot).unwrap();
        assert_eq!(back.name(), tiny().name());
        assert_eq!(back.node(NodeId(0)).kind(), OpKind::Load);
        assert_eq!(back.node(NodeId(0)).latency(), 2);
        assert_eq!(back.node(NodeId(0)).name(), "a");
        let (_, e) = back.edges().nth(1).unwrap();
        assert_eq!(e.distance(), 1);
        assert_eq!(e.kind(), DepKind::RegFlow);
    }

    #[test]
    fn plain_third_party_digraphs_import_with_defaults() {
        let dot = "digraph { a -> b -> c; b -> d [label=\"x\"]; }";
        let g = from_dot(dot).unwrap();
        assert_eq!(g.name(), "imported");
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.node(NodeId(0)).name(), "a");
        assert_eq!(g.node(NodeId(0)).kind(), OpKind::Other);
        assert_eq!(g.node(NodeId(0)).latency(), 1);
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(e.kind(), DepKind::RegFlow);
        assert_eq!(e.distance(), 0);
    }

    #[test]
    fn comments_and_strict_are_accepted() {
        let dot = "// C++ comment\nstrict digraph g { /* block\ncomment */ a; # shell\n a -> a [hrms_distance=1]; }";
        let g = from_dot(dot).unwrap();
        assert_eq!(g.num_nodes(), 1);
        let (_, e) = g.edges().next().unwrap();
        assert!(e.is_self_loop());
        assert_eq!(e.distance(), 1);
    }

    #[test]
    fn import_errors_are_descriptive() {
        for (input, needle) in [
            ("graph g { a -- b; }", "digraph"),
            ("digraph g { a -- b; }", "undirected"),
            ("digraph g { subgraph s { a; } }", "subgraph"),
            ("digraph g { a -> ; }", "edge target"),
            ("digraph g { a [hrms_kind=zzz]; }", "operation kind"),
            ("digraph g { a [hrms_latency=xx]; }", "hrms_latency"),
            ("digraph g { a ", "missing `}`"),
            ("digraph g { }", "no operations"),
            ("not dot at all", "digraph"),
        ] {
            let err = from_dot(input).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{input:?}: expected {needle:?} in `{err}`"
            );
        }
    }

    #[test]
    fn import_errors_carry_spans_and_excerpts() {
        let input = "digraph g {\n  a [hrms_kind=zzz];\n}\n";
        let err = from_dot(input).unwrap_err();
        let span = err.span.expect("metadata errors carry spans");
        assert_eq!((span.line, span.col), (2, 16));
        assert_eq!(&input[span.offset..span.offset + span.len], "zzz");
        assert!(err.to_string().contains("|  "), "excerpt rendered: {err}");
    }

    #[test]
    fn with_spans_tracks_node_and_edge_statements() {
        let input = "digraph g {\n  a [hrms_kind=load, hrms_latency=2];\n  a -> b;\n}\n";
        let (g, spans) = from_dot_graphs_with_spans(input).unwrap().remove(0);
        assert_eq!(spans.header.line, 1);
        assert_eq!(spans.nodes.len(), g.num_nodes());
        assert_eq!(spans.edges.len(), g.num_edges());
        assert_eq!(spans.nodes[0].line, 2, "node a declared on line 2");
        assert_eq!(spans.nodes[1].line, 3, "node b interned by the edge");
        assert_eq!(spans.edges[0].line, 3);
    }

    #[test]
    fn back_to_back_graphs_import_in_order() {
        let mut b = DdgBuilder::new("second");
        b.node("x", OpKind::FpMul, 2);
        let second = b.build().unwrap();
        let text = format!("{}{}", to_dot(&tiny()), to_dot(&second));
        assert!(
            from_dot(&text)
                .unwrap_err()
                .to_string()
                .contains("trailing"),
            "a single-graph import still rejects a second graph"
        );
        let graphs = from_dot_graphs_with_spans(&text).unwrap();
        let digests: Vec<u64> = graphs.iter().map(|(g, _)| ddg_fingerprint(g)).collect();
        assert_eq!(
            digests,
            vec![ddg_fingerprint(&tiny()), ddg_fingerprint(&second)]
        );
        let second_header = text.lines().position(|l| l.starts_with("digraph \"second"));
        assert_eq!(Some(graphs[1].1.header.line - 1), second_header);
        assert!(from_dot_graphs("")
            .unwrap_err()
            .to_string()
            .contains("digraph"));
        let err = from_dot_graphs(&format!("{text}digraph g {{ }}")).unwrap_err();
        assert!(err.to_string().contains("no operations"), "{err}");
    }

    #[test]
    fn graph_metadata_round_trips() {
        let mut b = DdgBuilder::new("meta");
        b.node("x", OpKind::FpMul, 2);
        b.invariants(4).iteration_count(9999);
        let g = b.build().unwrap();
        let back = from_dot(&to_dot(&g)).unwrap();
        assert_eq!(back.num_invariants(), 4);
        assert_eq!(back.iteration_count(), 9999);
    }
}
