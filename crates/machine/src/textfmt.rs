//! The `.machine` text format: a hand-written, dependency-free codec for
//! machine descriptions.
//!
//! Covers everything a [`Machine`] holds — resource classes (name, unit
//! count, pipelining) and the per-operation-kind class mapping and latency —
//! so every preset in [`crate::presets`] round-trips exactly. The format is
//! line-oriented; the specification with a worked example lives in
//! `docs/FORMATS.md`:
//!
//! ```text
//! machine "govindarajan-4fu"
//!   class fp-add count=1 pipelined
//!   class fp-mul count=1 pipelined
//!   class fp-div count=1 pipelined
//!   class load-store count=1 pipelined
//!   op fadd class=0 latency=1
//!   op fmul class=1 latency=2
//!   # ... one `op` line per operation kind ...
//! end
//! ```

use std::fmt::Write as _;

use hrms_ddg::textfmt::{line_span, tokenize_line, write_name, ParseError, Span};
use hrms_ddg::OpKind;

use crate::machine::{Machine, MachineBuilder, ResourceClass};

/// The keywords of the `.machine` format, which a name must not be written
/// as bare.
const KEYWORDS: [&str; 4] = ["machine", "class", "op", "end"];

/// Serialises a machine description as a `machine ... end` block.
pub fn write_machine(machine: &Machine) -> String {
    let mut out = String::new();
    out.push_str("machine ");
    write_name(&mut out, machine.name(), &KEYWORDS);
    out.push('\n');
    for class in machine.classes() {
        out.push_str("  class ");
        write_name(&mut out, &class.name, &KEYWORDS);
        let _ = write!(out, " count={}", class.count);
        out.push_str(if class.pipelined {
            " pipelined\n"
        } else {
            " unpipelined\n"
        });
    }
    for kind in OpKind::ALL {
        let _ = writeln!(
            out,
            "  op {} class={} latency={}",
            kind.mnemonic(),
            machine.class_of(kind).index(),
            machine.latency_of(kind)
        );
    }
    out.push_str("end\n");
    out
}

/// Source spans of a parsed `machine ... end` block, indexed like the
/// machine itself: `classes[i]` is the span of the line declaring class
/// `i` (declaration order equals [`crate::ClassId`] order), `ops[k]` the
/// span of the `op` line for `OpKind::ALL[k]` (when one was present).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpans {
    /// The `machine` header line.
    pub header: Span,
    /// One span per resource class, in [`crate::ClassId`] order.
    pub classes: Vec<Span>,
    /// For each kind in [`OpKind::ALL`] order, the span of its `op` line
    /// (None when the kind was never mapped — `build` rejects that, so the
    /// slot is only `None` transiently).
    pub ops: Vec<Option<Span>>,
}

fn kind_slot(kind: OpKind) -> usize {
    OpKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("ALL lists every kind")
}

fn parse_num<T: std::str::FromStr>(
    line: &str,
    v: &str,
    span: Span,
    what: &str,
) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| ParseError::at(span, line, format!("invalid {what} `{v}`")))
}

/// Parses a machine description, returning the source spans of the header
/// and of every `class`/`op` line alongside the machine.
///
/// # Errors
///
/// Same as [`parse_machine`].
pub fn parse_machine_with_spans(input: &str) -> Result<(Machine, MachineSpans), ParseError> {
    let mut builder: Option<MachineBuilder> = None;
    let mut class_names: Vec<String> = Vec::new();
    let mut spans: Option<MachineSpans> = None;
    let mut finished: Option<(Machine, MachineSpans)> = None;

    let mut base = 0usize;
    for (i, raw) in input.split_inclusive('\n').enumerate() {
        let lineno = i + 1;
        let line = raw
            .strip_suffix('\n')
            .map(|l| l.strip_suffix('\r').unwrap_or(l))
            .unwrap_or(raw);
        let line_base = base;
        base += raw.len();
        let tokens = tokenize_line(line, lineno, line_base)?;
        let Some(first) = tokens.first() else {
            continue;
        };
        if finished.is_some() {
            return Err(ParseError::at(
                first.span,
                line,
                "trailing content after `end`; a machine file holds one description",
            ));
        }
        match (first.text.as_str(), &mut builder) {
            ("machine", Some(_)) => {
                return Err(ParseError::at(first.span, line, "nested `machine` block"));
            }
            ("machine", slot @ None) => {
                let name = tokens.get(1).ok_or_else(|| {
                    ParseError::at(
                        line_span(line, lineno, line_base),
                        line,
                        "expected a machine name",
                    )
                })?;
                *slot = Some(MachineBuilder::new(name.text.clone()));
                spans = Some(MachineSpans {
                    header: line_span(line, lineno, line_base),
                    classes: Vec::new(),
                    ops: vec![None; OpKind::ALL.len()],
                });
            }
            ("class", Some(_)) => {
                let name = tokens
                    .get(1)
                    .ok_or_else(|| {
                        ParseError::at(
                            line_span(line, lineno, line_base),
                            line,
                            "expected a class name",
                        )
                    })?
                    .text
                    .clone();
                let mut count: Option<u32> = None;
                let mut pipelined: Option<bool> = None;
                for t in &tokens[2..] {
                    match (t.text.split_once('='), t.text.as_str()) {
                        (Some(("count", v)), _) => {
                            count = Some(parse_num(line, v, t.span, "count")?)
                        }
                        (None, "pipelined") => pipelined = Some(true),
                        (None, "unpipelined") => pipelined = Some(false),
                        _ => {
                            return Err(ParseError::at(
                                t.span,
                                line,
                                format!("unknown class attribute `{}`", t.text),
                            ))
                        }
                    }
                }
                let count = count.ok_or_else(|| {
                    ParseError::at(
                        line_span(line, lineno, line_base),
                        line,
                        "class is missing count=N",
                    )
                })?;
                let pipelined = pipelined.ok_or_else(|| {
                    ParseError::at(
                        line_span(line, lineno, line_base),
                        line,
                        "class is missing pipelined|unpipelined",
                    )
                })?;
                let class = if pipelined {
                    ResourceClass::pipelined(name.clone(), count)
                } else {
                    ResourceClass::unpipelined(name.clone(), count)
                };
                builder = Some(builder.take().expect("matched Some").class(class));
                class_names.push(name);
                if let Some(s) = &mut spans {
                    s.classes.push(line_span(line, lineno, line_base));
                }
            }
            ("op", Some(_)) => {
                let kind_tok = tokens.get(1).ok_or_else(|| {
                    ParseError::at(
                        line_span(line, lineno, line_base),
                        line,
                        "expected an operation kind",
                    )
                })?;
                let kind = OpKind::from_mnemonic(&kind_tok.text).ok_or_else(|| {
                    ParseError::at(
                        kind_tok.span,
                        line,
                        format!("unknown operation kind `{}`", kind_tok.text),
                    )
                })?;
                let mut class: Option<u32> = None;
                let mut latency: Option<u32> = None;
                for t in &tokens[2..] {
                    match t.text.split_once('=') {
                        Some(("class", v)) => {
                            class = Some(match v.parse() {
                                Ok(idx) => idx,
                                Err(_) => class_names
                                    .iter()
                                    .position(|n| n == v)
                                    .map(|i| i as u32)
                                    .ok_or_else(|| {
                                        ParseError::at(
                                            t.span,
                                            line,
                                            format!("unknown resource class `{v}`"),
                                        )
                                    })?,
                            });
                        }
                        Some(("latency", v)) => {
                            latency = Some(parse_num(line, v, t.span, "latency")?)
                        }
                        _ => {
                            return Err(ParseError::at(
                                t.span,
                                line,
                                format!("unknown op attribute `{}`", t.text),
                            ))
                        }
                    }
                }
                let class = class.ok_or_else(|| {
                    ParseError::at(
                        line_span(line, lineno, line_base),
                        line,
                        "op is missing class=N",
                    )
                })?;
                let latency = latency.ok_or_else(|| {
                    ParseError::at(
                        line_span(line, lineno, line_base),
                        line,
                        "op is missing latency=N",
                    )
                })?;
                builder = Some(
                    builder
                        .take()
                        .expect("matched Some")
                        .map(kind, class, latency),
                );
                if let Some(s) = &mut spans {
                    s.ops[kind_slot(kind)] = Some(line_span(line, lineno, line_base));
                }
            }
            ("end", Some(_)) => {
                let b = builder.take().expect("matched Some");
                let machine = b.build().map_err(|e| {
                    ParseError::at(
                        line_span(line, lineno, line_base),
                        line,
                        format!("invalid machine: {e}"),
                    )
                })?;
                finished = Some((machine, spans.take().expect("spans set with builder")));
            }
            (kw, Some(_)) => {
                return Err(ParseError::at(
                    first.span,
                    line,
                    format!("unknown keyword `{kw}`"),
                ));
            }
            (kw, None) => {
                return Err(ParseError::at(
                    first.span,
                    line,
                    format!("`{kw}` outside a `machine ... end` block"),
                ));
            }
        }
    }
    if builder.is_some() {
        return Err(ParseError::new(
            0,
            "machine block is never closed with `end`",
        ));
    }
    finished.ok_or_else(|| ParseError::new(0, "input contains no `machine` block"))
}

/// Parses a machine description.
///
/// The input must contain exactly one `machine ... end` block; every
/// operation kind must be mapped by an `op` line (the same validation as
/// [`MachineBuilder::build`], surfaced with line information where
/// possible). Class references in `op` lines accept either the dense class
/// index (`class=0`) or the class name (`class=fp-add`).
///
/// # Errors
///
/// Returns a [`ParseError`] — carrying the 1-based line, column and a
/// source excerpt where possible — on malformed syntax, unknown kinds or
/// class references, duplicate blocks, or failed machine validation.
pub fn parse_machine(input: &str) -> Result<Machine, ParseError> {
    parse_machine_with_spans(input).map(|(m, _)| m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn every_preset_round_trips_exactly() {
        for machine in presets::all() {
            let text = write_machine(&machine);
            let back = parse_machine(&text).unwrap();
            assert_eq!(back, machine, "preset `{}`", machine.name());
        }
    }

    #[test]
    fn class_references_by_name_are_resolved() {
        let text = "machine m\nclass alu count=2 pipelined\nclass div count=1 unpipelined\nop fdiv class=div latency=10\nop fadd class=alu latency=1\nop fmul class=alu latency=2\nop fsqrt class=div latency=20\nop load class=alu latency=2\nop store class=alu latency=1\nop ialu class=alu latency=1\nop copy class=alu latency=1\nop op class=alu latency=1\nend\n";
        let m = parse_machine(text).unwrap();
        assert_eq!(m.num_classes(), 2);
        assert_eq!(m.class_of(OpKind::FpDiv).index(), 1);
        assert!(!m.class(m.class_of(OpKind::FpDiv)).pipelined);
        assert_eq!(m.latency_of(OpKind::FpDiv), 10);
    }

    #[test]
    fn quoted_names_survive() {
        let mut m = write_machine(&presets::govindarajan());
        m = m.replace("machine govindarajan-4fu", "machine \"weird \\\"name\\\"\"");
        let back = parse_machine(&m).unwrap();
        assert_eq!(back.name(), "weird \"name\"");
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("class alu count=1 pipelined\n", 1, "outside"),
            ("machine m\nclass alu pipelined\nend\n", 2, "count"),
            ("machine m\nclass alu count=1\nend\n", 2, "pipelined"),
            (
                "machine m\nop zzz class=0 latency=1\nend\n",
                2,
                "operation kind",
            ),
            (
                "machine m\nop fadd class=bogus latency=1\nend\n",
                2,
                "resource class",
            ),
            (
                "machine m\nclass alu count=1 pipelined\nop fadd class=0 latency=1\nend\n",
                4,
                "invalid machine",
            ),
            ("machine m\nmachine n\n", 2, "nested"),
            ("machine m\n", 0, "never closed"),
            ("", 0, "no `machine` block"),
            (
                "machine m\nclass alu count=1 pipelined\nwibble\n",
                3,
                "unknown keyword",
            ),
        ] {
            let err = parse_machine(text).unwrap_err();
            assert_eq!(err.line, line, "case {text:?}: {err}");
            assert!(
                err.to_string().contains(needle),
                "case {text:?}: `{err}` should mention {needle:?}"
            );
        }
    }

    #[test]
    fn errors_carry_columns_and_excerpts() {
        let text = "machine m\nop zzz class=0 latency=1\nend\n";
        let err = parse_machine(text).unwrap_err();
        let span = err.span.expect("token errors carry spans");
        assert_eq!((span.line, span.col), (2, 4));
        assert_eq!(&text[span.offset..span.offset + span.len], "zzz");
        assert!(err.to_string().contains("|  op zzz class=0 latency=1"));
    }

    #[test]
    fn with_spans_records_header_class_and_op_lines() {
        let text = write_machine(&presets::govindarajan());
        let (m, spans) = parse_machine_with_spans(&text).unwrap();
        assert_eq!(spans.header.line, 1);
        assert_eq!(spans.classes.len(), m.num_classes());
        for (i, s) in spans.classes.iter().enumerate() {
            assert_eq!(s.line, i + 2, "class lines follow the header in order");
            assert!(text[s.offset..s.offset + s.len].starts_with("class "));
        }
        for (k, s) in OpKind::ALL.iter().zip(&spans.ops) {
            let s = s.unwrap_or_else(|| panic!("{k:?} has an op line"));
            assert!(text[s.offset..].starts_with(&format!("op {}", k.mnemonic())));
        }
    }

    #[test]
    fn trailing_content_after_end_is_rejected() {
        let text = format!(
            "{}machine again\nend\n",
            write_machine(&presets::general_purpose())
        );
        let err = parse_machine(&text).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }
}
