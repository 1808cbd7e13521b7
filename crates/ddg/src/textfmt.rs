//! The `.loop` text format: a hand-written, dependency-free codec for
//! dependence graphs.
//!
//! This is the primary on-disk loop format of the `hrms` CLI (the DOT
//! importer in [`crate::dot`] is the secondary one). It is line-oriented and
//! diff-friendly; the full specification with a worked example lives in
//! `docs/FORMATS.md`. In short:
//!
//! ```text
//! # comments run to end of line
//! loop "dot product"
//!   iterations 1000
//!   invariants 0
//!   node load_a load latency=2
//!   node load_b load latency=2
//!   node mul fmul latency=2
//!   node acc fadd latency=1
//!   edge load_a -> mul flow
//!   edge load_b -> mul flow
//!   edge mul -> acc flow
//!   edge acc -> acc flow dist=1
//! end
//! ```
//!
//! One file holds any number of `loop ... end` blocks. The round trip
//! `parse_loops(&write_loops(&graphs))` is lossless: every re-imported graph
//! is [`crate::fingerprint::ddg_fingerprint`]-identical to its source
//! (pinned by `tests/format_roundtrip.rs` over every corpus in the
//! workspace).
//!
//! Every parse failure carries a [`Span`] — the byte offset, line and
//! column of the offending token — and [`parse_loops_with_spans`]
//! additionally records the source span of every parsed node and edge, so
//! downstream tooling (the `hrms-verify` lint pass) can point semantic
//! diagnostics back at the input file.

use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::builder::DdgBuilder;
use crate::edge::DepKind;
use crate::graph::Ddg;
use crate::node::{NodeId, OpKind};

/// A contiguous region of an input file: where a token, line or construct
/// came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based character column of the span's first character.
    pub col: usize,
    /// Byte offset of the span's first character in the whole input.
    pub offset: usize,
    /// Length of the span in characters (for caret rendering; at least 1
    /// for non-empty spans).
    pub len: usize,
}

impl Span {
    /// A span covering `len` characters starting at `line`:`col` /
    /// byte `offset`.
    pub fn new(line: usize, col: usize, offset: usize, len: usize) -> Self {
        Span {
            line,
            col,
            offset,
            len,
        }
    }
}

/// A parse failure, with the 1-based line it occurred on and (when the
/// error is tied to a specific token or line) the [`Span`] and source
/// excerpt of the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input (0 when the error is not tied to a
    /// specific line, e.g. an unterminated block at end of input).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Precise location of the offending token, when known.
    pub span: Option<Span>,
    /// The full text of the offending line (without its trailing newline),
    /// rendered under the message with a caret marking the span.
    pub source_line: Option<String>,
}

impl ParseError {
    /// Creates a parse error pinned to a 1-based line (0 = whole input),
    /// with no span information.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
            span: None,
            source_line: None,
        }
    }

    /// Creates a parse error at `span`, carrying `source_line` (the text of
    /// the offending line) for the rendered excerpt.
    pub fn at(span: Span, source_line: &str, message: impl Into<String>) -> Self {
        ParseError {
            line: span.line,
            message: message.into(),
            span: Some(span),
            source_line: Some(source_line.trim_end().to_string()),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.span {
            None if self.line == 0 => write!(f, "{}", self.message)?,
            None => write!(f, "line {}: {}", self.line, self.message)?,
            Some(span) => write!(f, "line {}, col {}: {}", span.line, span.col, self.message)?,
        }
        if let (Some(span), Some(src)) = (&self.span, &self.source_line) {
            write!(f, "\n  |  {src}\n  |  ")?;
            for _ in 1..span.col {
                f.write_char(' ')?;
            }
            for _ in 0..span.len.max(1) {
                f.write_char('^')?;
            }
        }
        Ok(())
    }
}

impl Error for ParseError {}

/// Source spans of one parsed `loop ... end` block, indexed like the graph
/// itself: `nodes[i]` is the span of the line that declared node `i`,
/// `edges[i]` the span of the line that declared edge `i` (declaration
/// order equals [`NodeId`]/`EdgeId` order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSpans {
    /// The `loop` header line.
    pub header: Span,
    /// One span per node, in [`NodeId`] order.
    pub nodes: Vec<Span>,
    /// One span per edge, in `EdgeId` order.
    pub edges: Vec<Span>,
}

/// The keywords of the `.loop` format, which a name must not be written as
/// bare.
const KEYWORDS: [&str; 6] = ["loop", "end", "node", "edge", "iterations", "invariants"];

/// Whether a name can be written without quotes: ASCII alphanumerics plus
/// `_`, `.`, `-` and `$`, not starting with a digit or `-`, and not one of
/// the format's `keywords`.
fn is_bare(name: &str, keywords: &[&str]) -> bool {
    let mut chars = name.chars();
    let first_ok = matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_');
    first_ok
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '$'))
        && !keywords.contains(&name)
}

/// Appends `name` in double quotes, escaping backslashes (first, so a name
/// ending in `\` cannot escape the closing quote), quotes, newlines and
/// tabs. The `.loop`, `.machine` and DOT writers all quote with it, and
/// their readers fold the escapes back.
pub fn write_quoted(out: &mut String, name: &str) {
    out.push('"');
    for c in name.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `name`, bare when it is safe under the format's `keywords`,
/// quoted otherwise.
pub fn write_name(out: &mut String, name: &str, keywords: &[&str]) {
    if is_bare(name, keywords) {
        out.push_str(name);
    } else {
        write_quoted(out, name);
    }
}

/// Serialises one graph as a `loop ... end` block.
pub fn write_loop(ddg: &Ddg) -> String {
    let mut out = String::new();
    out.push_str("loop ");
    // Loop names are always quoted: they routinely contain spaces and
    // suite-prefix punctuation, and a fixed shape is easier to grep.
    write_quoted(&mut out, ddg.name());
    out.push('\n');
    let _ = writeln!(out, "  iterations {}", ddg.iteration_count());
    let _ = writeln!(out, "  invariants {}", ddg.num_invariants());
    for (_, n) in ddg.nodes() {
        out.push_str("  node ");
        write_name(&mut out, n.name(), &KEYWORDS);
        let _ = write!(out, " {} latency={}", n.kind().mnemonic(), n.latency());
        if n.invariant_uses() > 0 {
            let _ = write!(out, " invariant_uses={}", n.invariant_uses());
        }
        if !n.defines_value() && n.kind().defines_value() {
            out.push_str(" no_result");
        }
        out.push('\n');
    }
    for (_, e) in ddg.edges() {
        out.push_str("  edge ");
        write_name(&mut out, ddg.node(e.source()).name(), &KEYWORDS);
        out.push_str(" -> ");
        write_name(&mut out, ddg.node(e.target()).name(), &KEYWORDS);
        let _ = write!(out, " {}", e.kind().label());
        if e.distance() > 0 {
            let _ = write!(out, " dist={}", e.distance());
        }
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// Serialises a whole suite, one block per graph, blocks separated by a
/// blank line.
pub fn write_loops(ddgs: &[Ddg]) -> String {
    let mut out = String::new();
    for (i, g) in ddgs.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&write_loop(g));
    }
    out
}

/// One token of a line: a (possibly quoted) word or the `->` arrow.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Token<'a> {
    /// A bare or quoted word. The text borrows from the line unless it is
    /// a quoted word with escapes. The flag records whether it was quoted
    /// (quoted words are never keywords).
    Word(Cow<'a, str>, bool),
    /// The `->` edge arrow.
    Arrow,
}

impl Token<'_> {
    fn describe(&self) -> String {
        match self {
            Token::Word(w, _) => format!("`{w}`"),
            Token::Arrow => "`->`".to_string(),
        }
    }
}

/// A token plus where it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpTok<'a> {
    tok: Token<'a>,
    span: Span,
}

impl<'a> SpTok<'a> {
    /// The word's text. Only meaningful for [`Token::Word`] tokens; callers
    /// go through [`word`] first.
    fn text(&self) -> &str {
        match &self.tok {
            Token::Word(w, _) => w,
            Token::Arrow => "->",
        }
    }

    /// [`SpTok::text`], still borrowing from the line where the token does.
    fn cow(&self) -> Cow<'a, str> {
        match &self.tok {
            Token::Word(w, _) => w.clone(),
            Token::Arrow => Cow::Borrowed("->"),
        }
    }
}

/// The location context of the line being parsed: its text, 1-based number
/// and the byte offset of its first character in the whole input.
#[derive(Debug, Clone, Copy)]
struct LineCtx<'a> {
    line: &'a str,
    lineno: usize,
    base: usize,
}

impl LineCtx<'_> {
    /// A span covering the line's non-blank content.
    fn span_all(&self) -> Span {
        let lead_bytes = self.line.len() - self.line.trim_start().len();
        let lead_chars = self.line.chars().take_while(|c| c.is_whitespace()).count();
        let content = self.line.trim();
        Span {
            line: self.lineno,
            col: lead_chars + 1,
            offset: self.base + lead_bytes,
            len: content.chars().count().max(1),
        }
    }

    /// An error covering the whole line.
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::at(self.span_all(), self.line, message)
    }

    /// An error pinned to `span`.
    fn err_at(&self, span: Span, message: impl Into<String>) -> ParseError {
        ParseError::at(span, self.line, message)
    }
}

/// The character starting at byte `i` of `line`, decoded only when it is
/// not ASCII.
fn char_at(line: &str, i: usize) -> char {
    match line.as_bytes()[i] {
        b if b.is_ascii() => char::from(b),
        _ => line[i..]
            .chars()
            .next()
            .expect("`i` is a character boundary"),
    }
}

/// Splits one line into `tokens` (cleared first), honouring quotes and `#`
/// comments. Words borrow from the line; only a quoted word with escapes
/// owns its text.
fn tokenize<'a>(ctx: &LineCtx<'a>, tokens: &mut Vec<SpTok<'a>>) -> Result<(), ParseError> {
    tokens.clear();
    let line = ctx.line;
    let (mut i, mut col) = (0usize, 1usize);
    while i < line.len() {
        let c = char_at(line, i);
        if c.is_whitespace() {
            i += c.len_utf8();
            col += 1;
        } else if c == '#' {
            break;
        } else if c == '"' {
            let (start, start_col) = (i, col);
            let unterminated = |col: usize| {
                let span = Span::new(ctx.lineno, start_col, ctx.base + start, col - start_col);
                ctx.err_at(span, "unterminated string")
            };
            i += 1;
            col += 1;
            // `run` starts the text not yet copied into `owned`, which is
            // only allocated at the first escape.
            let (mut run, mut owned): (usize, Option<String>) = (i, None);
            let end = loop {
                if i == line.len() {
                    return Err(unterminated(col));
                }
                match char_at(line, i) {
                    '"' => break i,
                    '\\' => {
                        let word = owned.get_or_insert_with(String::new);
                        word.push_str(&line[run..i]);
                        i += 1;
                        col += 1;
                        if i == line.len() {
                            return Err(unterminated(col));
                        }
                        match char_at(line, i) {
                            '\\' => word.push('\\'),
                            '"' => word.push('"'),
                            'n' => word.push('\n'),
                            't' => word.push('\t'),
                            other => {
                                let span = Span::new(ctx.lineno, col - 1, ctx.base + i - 1, 2);
                                return Err(ctx.err_at(
                                    span,
                                    format!("unknown escape `\\{other}` in string"),
                                ));
                            }
                        }
                        i += 1;
                        col += 1;
                        run = i;
                    }
                    ch => {
                        i += ch.len_utf8();
                        col += 1;
                    }
                }
            };
            i += 1;
            col += 1;
            let text = match owned {
                Some(mut word) => {
                    word.push_str(&line[run..end]);
                    Cow::Owned(word)
                }
                None => Cow::Borrowed(&line[run..end]),
            };
            tokens.push(SpTok {
                tok: Token::Word(text, true),
                span: Span::new(ctx.lineno, start_col, ctx.base + start, col - start_col),
            });
        } else {
            let (start, start_col) = (i, col);
            while i < line.len() {
                let c = char_at(line, i);
                if c.is_whitespace() || c == '#' || c == '"' {
                    break;
                }
                i += c.len_utf8();
                col += 1;
            }
            let span = Span::new(ctx.lineno, start_col, ctx.base + start, col - start_col);
            let tok = match &line[start..i] {
                "->" => Token::Arrow,
                word => Token::Word(Cow::Borrowed(word), false),
            };
            tokens.push(SpTok { tok, span });
        }
    }
    Ok(())
}

/// A tokenized word plus its source location: the shared lexical layer of
/// the `.loop` format, re-exported so the `.machine` codec in
/// `hrms-machine` lexes identically (same quoting, escapes and `#`
/// comments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawToken {
    /// The token text, with quotes stripped and escapes applied. The edge
    /// arrow appears verbatim as `->`.
    pub text: String,
    /// Whether the token was written in quotes (quoted words are never
    /// treated as keywords by the `.loop` parser).
    pub quoted: bool,
    /// Where the token (including any surrounding quotes) sits in the
    /// input.
    pub span: Span,
}

/// Tokenizes one line of a `.loop`/`.machine`-style file into spanned
/// words. `lineno` is 1-based; `line_offset` is the byte offset of the
/// line's first character in the whole input (so token spans index into
/// the full file).
///
/// # Errors
///
/// Returns a [`ParseError`] on unterminated strings or unknown escapes.
pub fn tokenize_line(
    line: &str,
    lineno: usize,
    line_offset: usize,
) -> Result<Vec<RawToken>, ParseError> {
    let ctx = LineCtx {
        line,
        lineno,
        base: line_offset,
    };
    let mut tokens = Vec::new();
    tokenize(&ctx, &mut tokens)?;
    Ok(tokens
        .into_iter()
        .map(|st| {
            let quoted = matches!(st.tok, Token::Word(_, true));
            RawToken {
                text: st.text().to_string(),
                quoted,
                span: st.span,
            }
        })
        .collect())
}

/// A span covering the non-blank content of one line. `lineno` is 1-based;
/// `line_offset` is the byte offset of the line's first character in the
/// whole input.
pub fn line_span(line: &str, lineno: usize, line_offset: usize) -> Span {
    LineCtx {
        line,
        lineno,
        base: line_offset,
    }
    .span_all()
}

/// State of the `loop` block currently being parsed.
struct Block<'a> {
    builder: DdgBuilder,
    /// name → id, for edge endpoint resolution (duplicate names are
    /// rejected at `build` time; first wins for resolution here). Keys
    /// borrow from the input unless the name was written with escapes.
    names: HashMap<Cow<'a, str>, NodeId>,
    start_line: usize,
    /// The block's spans, recorded only for [`parse_loops_with_spans`].
    spans: Option<LoopSpans>,
}

impl Block<'_> {
    fn lookup(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }
}

/// One parsed attribute: key, optional value, and the token's span.
type Attr<'t> = (&'t str, Option<&'t str>, Span);

/// Checks that every token of the tail of a line is a bare word, then
/// yields each as a `key=value` attribute or a flag.
fn parse_attrs<'t>(
    ctx: &LineCtx<'_>,
    tokens: &'t [SpTok<'_>],
) -> Result<impl Iterator<Item = Attr<'t>>, ParseError> {
    if let Some(t) = tokens
        .iter()
        .find(|t| !matches!(t.tok, Token::Word(_, false)))
    {
        return Err(ctx.err_at(t.span, format!("unexpected token {}", t.tok.describe())));
    }
    Ok(tokens.iter().map(|t| match t.text().split_once('=') {
        Some((k, v)) => (k, Some(v), t.span),
        None => (t.text(), None, t.span),
    }))
}

fn parse_num<T: std::str::FromStr>(
    ctx: &LineCtx<'_>,
    v: &str,
    span: Span,
    what: &str,
) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| ctx.err_at(span, format!("invalid {what} `{v}`")))
}

fn word<'t, 'a>(
    ctx: &LineCtx<'_>,
    t: Option<&'t SpTok<'a>>,
    what: &str,
) -> Result<&'t SpTok<'a>, ParseError> {
    match t {
        Some(st) => match &st.tok {
            Token::Word(_, _) => Ok(st),
            other => Err(ctx.err_at(
                st.span,
                format!("expected {what}, found {}", other.describe()),
            )),
        },
        None => Err(ctx.err(format!("expected {what}"))),
    }
}

/// The parser core behind [`parse_loops`] and [`parse_loops_with_spans`]:
/// parses every `loop ... end` block of `input`, and pushes each block's
/// spans onto `spans` when it is given.
fn parse_blocks(
    input: &str,
    mut spans: Option<&mut Vec<LoopSpans>>,
) -> Result<Vec<Ddg>, ParseError> {
    let mut loops = Vec::new();
    let mut block: Option<Block<'_>> = None;
    let mut tokens = Vec::new();
    let mut base = 0usize;
    for (i, raw) in input.split_inclusive('\n').enumerate() {
        let lineno = i + 1;
        let line = raw
            .strip_suffix('\n')
            .map(|l| l.strip_suffix('\r').unwrap_or(l))
            .unwrap_or(raw);
        let ctx = LineCtx { line, lineno, base };
        base += raw.len();
        tokenize(&ctx, &mut tokens)?;
        let Some(first) = tokens.first() else {
            continue;
        };
        let keyword = match &first.tok {
            Token::Word(w, false) => w.as_ref(),
            other => {
                return Err(ctx.err_at(
                    first.span,
                    format!("expected a keyword, found {}", other.describe()),
                ))
            }
        };
        match (keyword, &mut block) {
            ("loop", Some(_)) => {
                return Err(ctx.err_at(
                    first.span,
                    "`loop` inside an unterminated block (missing `end`?)",
                ));
            }
            ("loop", slot @ None) => {
                let name = word(&ctx, tokens.get(1), "a loop name")?;
                if tokens.len() > 2 {
                    return Err(ctx.err_at(tokens[2].span, "trailing tokens after loop name"));
                }
                *slot = Some(Block {
                    builder: DdgBuilder::new(name.text()),
                    names: HashMap::new(),
                    start_line: lineno,
                    spans: spans.is_some().then(|| LoopSpans {
                        header: ctx.span_all(),
                        nodes: Vec::new(),
                        edges: Vec::new(),
                    }),
                });
            }
            ("end", Some(_)) => {
                let b = block.take().expect("matched Some");
                let ddg = b
                    .builder
                    .into_ddg()
                    .map_err(|e| ctx.err(format!("invalid loop: {e}")))?;
                loops.push(ddg);
                if let (Some(out), Some(block_spans)) = (spans.as_deref_mut(), b.spans) {
                    out.push(block_spans);
                }
            }
            ("iterations", Some(b)) => {
                let v = word(&ctx, tokens.get(1), "an iteration count")?;
                b.builder
                    .iteration_count(parse_num(&ctx, v.text(), v.span, "iteration count")?);
            }
            ("invariants", Some(b)) => {
                let v = word(&ctx, tokens.get(1), "an invariant count")?;
                b.builder
                    .invariants(parse_num(&ctx, v.text(), v.span, "invariant count")?);
            }
            ("node", Some(b)) => {
                let name_tok = word(&ctx, tokens.get(1), "a node name")?;
                let kind_tok = word(&ctx, tokens.get(2), "an operation kind")?;
                let kind_word = kind_tok.text();
                let kind = OpKind::from_mnemonic(kind_word).ok_or_else(|| {
                    ctx.err_at(
                        kind_tok.span,
                        format!("unknown operation kind `{kind_word}`"),
                    )
                })?;
                let mut latency: Option<u32> = None;
                let mut invariant_uses: u32 = 0;
                let mut no_result = false;
                for (k, v, span) in parse_attrs(&ctx, &tokens[3..])? {
                    match (k, v) {
                        ("latency", Some(v)) => {
                            latency = Some(parse_num(&ctx, v, span, "latency")?)
                        }
                        ("invariant_uses", Some(v)) => {
                            invariant_uses = parse_num(&ctx, v, span, "invariant_uses")?;
                        }
                        ("no_result", None) => no_result = true,
                        (k, _) => {
                            return Err(ctx.err_at(span, format!("unknown node attribute `{k}`")))
                        }
                    }
                }
                let latency = latency.ok_or_else(|| {
                    ctx.err(format!("node `{}` is missing latency=N", name_tok.text()))
                })?;
                // The builder keeps the one owned copy of the name; the
                // lookup key borrows from the input.
                let name = name_tok.cow();
                let id = if no_result {
                    b.builder.node_no_result(name.as_ref(), kind, latency)
                } else {
                    b.builder.node(name.as_ref(), kind, latency)
                };
                if invariant_uses > 0 {
                    b.builder.node_invariant_uses(id, invariant_uses);
                }
                b.names.entry(name).or_insert(id);
                if let Some(block_spans) = &mut b.spans {
                    block_spans.nodes.push(ctx.span_all());
                }
            }
            ("edge", Some(b)) => {
                let src_tok = word(&ctx, tokens.get(1), "a source node name")?;
                match tokens.get(2) {
                    Some(t) if t.tok == Token::Arrow => {}
                    Some(t) => return Err(ctx.err_at(t.span, "expected `->` after edge source")),
                    None => return Err(ctx.err("expected `->` after edge source")),
                }
                let dst_tok = word(&ctx, tokens.get(3), "a target node name")?;
                let kind_tok = word(&ctx, tokens.get(4), "a dependence kind")?;
                let kind_word = kind_tok.text();
                let kind = DepKind::from_label(kind_word).ok_or_else(|| {
                    ctx.err_at(
                        kind_tok.span,
                        format!("unknown dependence kind `{kind_word}`"),
                    )
                })?;
                let mut distance: u32 = 0;
                for (k, v, span) in parse_attrs(&ctx, &tokens[5..])? {
                    match (k, v) {
                        ("dist", Some(v)) => distance = parse_num(&ctx, v, span, "distance")?,
                        (k, _) => {
                            return Err(ctx.err_at(span, format!("unknown edge attribute `{k}`")))
                        }
                    }
                }
                let src = b.lookup(src_tok.text()).ok_or_else(|| {
                    ctx.err_at(
                        src_tok.span,
                        format!("edge references unknown node `{}`", src_tok.text()),
                    )
                })?;
                let dst = b.lookup(dst_tok.text()).ok_or_else(|| {
                    ctx.err_at(
                        dst_tok.span,
                        format!("edge references unknown node `{}`", dst_tok.text()),
                    )
                })?;
                b.builder
                    .edge(src, dst, kind, distance)
                    .map_err(|e| ctx.err(format!("invalid edge: {e}")))?;
                if let Some(block_spans) = &mut b.spans {
                    block_spans.edges.push(ctx.span_all());
                }
            }
            (kw, Some(_)) => {
                return Err(ctx.err_at(first.span, format!("unknown keyword `{kw}`")));
            }
            (kw, None) => {
                return Err(
                    ctx.err_at(first.span, format!("`{kw}` outside a `loop ... end` block"))
                );
            }
        }
    }
    if let Some(b) = block {
        return Err(ParseError::new(
            0,
            format!(
                "loop block starting on line {} is never closed with `end`",
                b.start_line
            ),
        ));
    }
    Ok(loops)
}

/// Parses a whole file: any number of `loop ... end` blocks, returning the
/// source spans of every block alongside its graph.
///
/// # Errors
///
/// Returns a [`ParseError`] (with a 1-based line number, column and source
/// excerpt) on malformed syntax, unknown keywords/kinds, dangling edge
/// endpoints, or when a block fails [`DdgBuilder::build`] validation
/// (duplicate names, zero latency, empty body).
pub fn parse_loops_with_spans(input: &str) -> Result<Vec<(Ddg, LoopSpans)>, ParseError> {
    let mut spans = Vec::new();
    let loops = parse_blocks(input, Some(&mut spans))?;
    Ok(loops.into_iter().zip(spans).collect())
}

/// Parses a whole file: any number of `loop ... end` blocks. Records no
/// spans; errors are identical to [`parse_loops_with_spans`]'s.
///
/// # Errors
///
/// Same as [`parse_loops_with_spans`].
pub fn parse_loops(input: &str) -> Result<Vec<Ddg>, ParseError> {
    parse_blocks(input, None)
}

/// Parses a file that must contain exactly one loop.
///
/// # Errors
///
/// Same as [`parse_loops`], plus an error when the input holds zero or more
/// than one block.
pub fn parse_loop(input: &str) -> Result<Ddg, ParseError> {
    let mut loops = parse_loops(input)?;
    match loops.len() {
        1 => Ok(loops.remove(0)),
        n => Err(ParseError::new(
            0,
            format!("expected exactly one loop, found {n}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::ddg_fingerprint;
    use crate::{DdgBuilder, DepKind, OpKind};

    fn tricky() -> Ddg {
        let mut b = DdgBuilder::new("tricky \"loop\" \\ name");
        let a = b.node("plain", OpKind::Load, 2);
        let c = b.node("needs quoting", OpKind::FpAdd, 1);
        let d = b.node_no_result("cmp", OpKind::IntAlu, 1);
        b.node_invariant_uses(a, 2);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, c, DepKind::RegFlow, 3).unwrap();
        b.edge(d, c, DepKind::Control, 1).unwrap();
        b.invariants(5).iteration_count(12345);
        b.build().unwrap()
    }

    #[test]
    fn round_trip_is_fingerprint_identical() {
        let g = tricky();
        let text = write_loop(&g);
        let back = parse_loop(&text).unwrap();
        assert_eq!(back, g);
        assert_eq!(ddg_fingerprint(&back), ddg_fingerprint(&g));
    }

    #[test]
    fn multi_loop_files_round_trip_in_order() {
        let a = crate::chain("first", 3, OpKind::FpAdd, 1);
        let b = tricky();
        let text = write_loops(&[a.clone(), b.clone()]);
        let back = parse_loops(&text).unwrap();
        assert_eq!(back, vec![a, b]);
    }

    #[test]
    fn comments_blank_lines_and_bare_names_are_accepted() {
        let text = "\n# a comment\nloop \"l\"\n  node a fadd latency=1 # trailing\n\n  node b fmul latency=2\n  edge a -> b flow\nend\n";
        let g = parse_loop(text).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert!(g.node_by_name("a").is_some());
    }

    #[test]
    fn defaults_are_applied() {
        // dist defaults to 0; iterations/invariants default to builder
        // defaults (1 and sum-of-uses respectively).
        let text = "loop l\nnode a load latency=2 invariant_uses=1\nnode b store latency=1\nedge a -> b flow\nend\n";
        let g = parse_loop(text).unwrap();
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(e.distance(), 0);
        assert_eq!(g.iteration_count(), 1);
        assert_eq!(g.num_invariants(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("loop l\nnode a zzz latency=1\nend\n", 2, "operation kind"),
            ("loop l\nnode a fadd\nend\n", 2, "latency"),
            (
                "loop l\nnode a fadd latency=1\nedge a -> b flow\nend\n",
                3,
                "unknown node",
            ),
            (
                "loop l\nnode a fadd latency=1\nedge a b flow\nend\n",
                3,
                "->",
            ),
            ("node a fadd latency=1\n", 1, "outside"),
            ("loop l\nloop m\n", 2, "unterminated"),
            ("loop l\nnode a fadd latency=1\n", 0, "never closed"),
            (
                "loop l\nnode \"a fadd latency=1\nend\n",
                2,
                "unterminated string",
            ),
            ("loop l\nnode a fadd latency=x\nend\n", 2, "invalid latency"),
            ("loop l\nfrobnicate\nend\n", 2, "unknown keyword"),
        ];
        for (text, line, needle) in cases {
            let err = parse_loops(text).unwrap_err();
            assert_eq!(err.line, *line, "case {text:?}: {err}");
            assert!(
                err.to_string().contains(needle),
                "case {text:?}: message {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn errors_carry_columns_offsets_and_excerpts() {
        // `zzz` starts at column 8 of line 2; the file is
        // "loop l\nnode a zzz latency=1\nend\n", so its byte offset is
        // 7 (line 1 + newline) + 7 = 14.
        let text = "loop l\nnode a zzz latency=1\nend\n";
        let err = parse_loops(text).unwrap_err();
        let span = err.span.expect("token errors carry spans");
        assert_eq!((span.line, span.col, span.offset, span.len), (2, 8, 14, 3));
        assert_eq!(&text[span.offset..span.offset + span.len], "zzz");
        assert_eq!(err.source_line.as_deref(), Some("node a zzz latency=1"));
        let rendered = err.to_string();
        assert!(
            rendered.starts_with("line 2, col 8: unknown operation kind `zzz`"),
            "got: {rendered}"
        );
        assert!(
            rendered.contains("|  node a zzz latency=1"),
            "excerpt rendered: {rendered}"
        );
        assert!(
            rendered.contains("|         ^^^"),
            "caret under the token: {rendered}"
        );
    }

    #[test]
    fn spans_point_at_the_offending_token_per_error_kind() {
        // (input, expected 1-based column of the span)
        let cases: &[(&str, usize)] = &[
            // unknown dependence kind `zz` on the edge line
            (
                "loop l\nnode a fadd latency=1\nedge a -> a zz dist=1\nend\n",
                13,
            ),
            // unknown node `b` as edge target
            ("loop l\nnode a fadd latency=1\nedge a -> b flow\nend\n", 11),
            // invalid latency value: span covers `latency=x`
            ("loop l\nnode a fadd latency=x\nend\n", 13),
            // unknown keyword at start of line
            ("loop l\n  frobnicate\nend\n", 3),
        ];
        for (text, col) in cases {
            let err = parse_loops(text).unwrap_err();
            let span = err.span.unwrap_or_else(|| panic!("no span: {err}"));
            assert_eq!(span.col, *col, "case {text:?}: {err}");
        }
    }

    #[test]
    fn with_spans_records_every_node_and_edge_line() {
        let text = "# header\nloop l\n  node a fadd latency=1\n  node b fmul latency=2\n  edge a -> b flow\nend\n";
        let parsed = parse_loops_with_spans(text).unwrap();
        assert_eq!(parsed.len(), 1);
        let (g, spans) = &parsed[0];
        assert_eq!(spans.header.line, 2);
        assert_eq!(spans.nodes.len(), g.num_nodes());
        assert_eq!(spans.edges.len(), g.num_edges());
        assert_eq!(spans.nodes[0].line, 3);
        assert_eq!(spans.nodes[1].line, 4);
        assert_eq!(spans.edges[0].line, 5);
        // Node spans cover the declaration text, byte-addressable.
        let s = spans.nodes[1];
        assert_eq!(&text[s.offset..s.offset + s.len], "node b fmul latency=2");
    }

    #[test]
    fn crlf_input_keeps_offsets_exact() {
        let text = "loop l\r\nnode a zzz latency=1\r\nend\r\n";
        let err = parse_loops(text).unwrap_err();
        let span = err.span.unwrap();
        assert_eq!(span.line, 2);
        assert_eq!(&text[span.offset..span.offset + span.len], "zzz");
    }

    #[test]
    fn builder_validation_errors_surface() {
        let text = "loop l\nnode a fadd latency=1\nnode a fmul latency=2\nend\n";
        let err = parse_loops(text).unwrap_err();
        assert!(err.to_string().contains("duplicate"));

        let text = "loop l\nnode s store latency=1\nnode a fadd latency=1\nedge s -> a flow\nend\n";
        let err = parse_loops(text).unwrap_err();
        assert!(err.to_string().contains("no value"));
    }

    #[test]
    fn escapes_round_trip_in_names() {
        let mut b = DdgBuilder::new("esc");
        b.node("a\"b\\c\nd\te", OpKind::FpAdd, 1);
        let g = b.build().unwrap();
        let back = parse_loop(&write_loop(&g)).unwrap();
        assert_eq!(back.node(NodeId(0)).name(), "a\"b\\c\nd\te");
    }

    #[test]
    fn keyword_like_names_are_quoted_and_survive() {
        let mut b = DdgBuilder::new("kw");
        b.node("end", OpKind::FpAdd, 1);
        b.node("loop", OpKind::FpMul, 2);
        let g = b.build().unwrap();
        let back = parse_loop(&write_loop(&g)).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn empty_input_parses_to_no_loops() {
        assert!(parse_loops("").unwrap().is_empty());
        assert!(parse_loops("# only comments\n\n").unwrap().is_empty());
    }
}
