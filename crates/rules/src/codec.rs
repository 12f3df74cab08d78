//! A compact, dependency-free text encoding of rules and derivations.
//!
//! The workspace builds offline, so instead of serde the persistence layer
//! (the monitor's event stream in `tg-hierarchy`, stored by the `tg-log`
//! commit log) uses this codec:
//! one rule per line, space-separated fields, names percent-escaped so a
//! record never contains a raw newline. The format is stable and
//! self-describing enough to hand-edit:
//!
//! ```text
//! take 0 1 2 x1          # x takes (δ to z) from y; rights as hex bits
//! grant 0 1 2 x3
//! create 0 s x9 worker%20pool
//! remove 0 2 x1
//! post 0 1 2             # de facto rules carry the paper's x, y, z
//! pass 0 1 2
//! spy 0 1 2
//! find 0 1 2
//! ```
//!
//! Vertex ids are dense indices (see [`VertexId::from_index`]); rights are
//! the raw bitmask in hex prefixed with `x`, so custom rights beyond the
//! five named ones round-trip too.

use core::fmt;

use tg_graph::{Rights, VertexId, VertexKind};

use crate::derivation::Derivation;
use crate::rule::{DeFactoRule, DeJureRule, Rule};

/// A decoding failure. The codec never panics on malformed input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The line was empty.
    Empty,
    /// The leading token names no rule form.
    UnknownForm(String),
    /// The line had the wrong number of fields for its form.
    Arity {
        /// The rule form being decoded.
        form: &'static str,
        /// Number of fields the form requires (incl. the form token).
        expected: usize,
        /// Number of fields present.
        got: usize,
    },
    /// A vertex-id field was not a decimal number.
    BadVertex(String),
    /// A rights field was not `x<hex>`.
    BadRights(String),
    /// A create-kind field was neither `s` nor `o`.
    BadKind(String),
    /// A name field contained an invalid `%` escape.
    BadEscape(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Empty => write!(f, "empty rule line"),
            CodecError::UnknownForm(t) => write!(f, "unknown rule form `{t}`"),
            CodecError::Arity {
                form,
                expected,
                got,
            } => write!(f, "`{form}` takes {expected} fields, got {got}"),
            CodecError::BadVertex(t) => write!(f, "bad vertex id `{t}`"),
            CodecError::BadRights(t) => write!(f, "bad rights `{t}` (expected x<hex>)"),
            CodecError::BadKind(t) => write!(f, "bad vertex kind `{t}` (expected s or o)"),
            CodecError::BadEscape(t) => write!(f, "bad %-escape in name `{t}`"),
        }
    }
}

impl std::error::Error for CodecError {}

fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'%' | b' ' | b'\t' | b'\n' | b'\r' => {
                out.push('%');
                out.push_str(&format!("{b:02x}"));
            }
            _ => out.push(b as char),
        }
    }
    // An empty name still needs a field to occupy.
    if out.is_empty() {
        out.push_str("%00");
    }
    out
}

fn unescape_name(field: &str) -> Result<String, CodecError> {
    let bytes = field.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| CodecError::BadEscape(field.to_string()))?;
            let hex =
                core::str::from_utf8(hex).map_err(|_| CodecError::BadEscape(field.to_string()))?;
            let b = u8::from_str_radix(hex, 16)
                .map_err(|_| CodecError::BadEscape(field.to_string()))?;
            if b != 0 {
                out.push(b);
            }
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| CodecError::BadEscape(field.to_string()))
}

fn encode_vertex(v: VertexId) -> String {
    v.index().to_string()
}

fn decode_vertex(field: &str) -> Result<VertexId, CodecError> {
    field
        .parse::<usize>()
        .map(VertexId::from_index)
        .map_err(|_| CodecError::BadVertex(field.to_string()))
}

fn encode_rights(r: Rights) -> String {
    format!("x{:x}", r.bits())
}

fn decode_rights(field: &str) -> Result<Rights, CodecError> {
    let hex = field
        .strip_prefix('x')
        .ok_or_else(|| CodecError::BadRights(field.to_string()))?;
    u16::from_str_radix(hex, 16)
        .map(Rights::from_bits)
        .map_err(|_| CodecError::BadRights(field.to_string()))
}

/// Encodes one rule as a single line (no trailing newline).
pub fn encode_rule(rule: &Rule) -> String {
    match rule {
        Rule::DeJure(DeJureRule::Take {
            actor,
            via,
            target,
            rights,
        }) => format!(
            "take {} {} {} {}",
            encode_vertex(*actor),
            encode_vertex(*via),
            encode_vertex(*target),
            encode_rights(*rights)
        ),
        Rule::DeJure(DeJureRule::Grant {
            actor,
            via,
            target,
            rights,
        }) => format!(
            "grant {} {} {} {}",
            encode_vertex(*actor),
            encode_vertex(*via),
            encode_vertex(*target),
            encode_rights(*rights)
        ),
        Rule::DeJure(DeJureRule::Create {
            actor,
            kind,
            rights,
            name,
        }) => format!(
            "create {} {} {} {}",
            encode_vertex(*actor),
            match kind {
                VertexKind::Subject => "s",
                VertexKind::Object => "o",
            },
            encode_rights(*rights),
            escape_name(name)
        ),
        Rule::DeJure(DeJureRule::Remove {
            actor,
            target,
            rights,
        }) => format!(
            "remove {} {} {}",
            encode_vertex(*actor),
            encode_vertex(*target),
            encode_rights(*rights)
        ),
        Rule::DeFacto(df) => {
            let (form, x, y, z) = match df {
                DeFactoRule::Post { x, y, z } => ("post", x, y, z),
                DeFactoRule::Pass { x, y, z } => ("pass", x, y, z),
                DeFactoRule::Spy { x, y, z } => ("spy", x, y, z),
                DeFactoRule::Find { x, y, z } => ("find", x, y, z),
            };
            format!(
                "{form} {} {} {}",
                encode_vertex(*x),
                encode_vertex(*y),
                encode_vertex(*z)
            )
        }
    }
}

/// Decodes one rule line produced by [`encode_rule`].
pub fn decode_rule(line: &str) -> Result<Rule, CodecError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let Some(&form) = fields.first() else {
        return Err(CodecError::Empty);
    };
    let arity = |expected: usize, form: &'static str| {
        if fields.len() == expected {
            Ok(())
        } else {
            Err(CodecError::Arity {
                form,
                expected,
                got: fields.len(),
            })
        }
    };
    match form {
        "take" | "grant" => {
            arity(5, if form == "take" { "take" } else { "grant" })?;
            let actor = decode_vertex(fields[1])?;
            let via = decode_vertex(fields[2])?;
            let target = decode_vertex(fields[3])?;
            let rights = decode_rights(fields[4])?;
            Ok(Rule::DeJure(if form == "take" {
                DeJureRule::Take {
                    actor,
                    via,
                    target,
                    rights,
                }
            } else {
                DeJureRule::Grant {
                    actor,
                    via,
                    target,
                    rights,
                }
            }))
        }
        "create" => {
            arity(5, "create")?;
            let actor = decode_vertex(fields[1])?;
            let kind = match fields[2] {
                "s" => VertexKind::Subject,
                "o" => VertexKind::Object,
                other => return Err(CodecError::BadKind(other.to_string())),
            };
            let rights = decode_rights(fields[3])?;
            let name = unescape_name(fields[4])?;
            Ok(Rule::DeJure(DeJureRule::Create {
                actor,
                kind,
                rights,
                name,
            }))
        }
        "remove" => {
            arity(4, "remove")?;
            Ok(Rule::DeJure(DeJureRule::Remove {
                actor: decode_vertex(fields[1])?,
                target: decode_vertex(fields[2])?,
                rights: decode_rights(fields[3])?,
            }))
        }
        "post" | "pass" | "spy" | "find" => {
            arity(
                4,
                match form {
                    "post" => "post",
                    "pass" => "pass",
                    "spy" => "spy",
                    _ => "find",
                },
            )?;
            let x = decode_vertex(fields[1])?;
            let y = decode_vertex(fields[2])?;
            let z = decode_vertex(fields[3])?;
            Ok(Rule::DeFacto(match form {
                "post" => DeFactoRule::Post { x, y, z },
                "pass" => DeFactoRule::Pass { x, y, z },
                "spy" => DeFactoRule::Spy { x, y, z },
                _ => DeFactoRule::Find { x, y, z },
            }))
        }
        other => Err(CodecError::UnknownForm(other.to_string())),
    }
}

/// Encodes a derivation as one rule per line (with trailing newline when
/// nonempty).
pub fn encode_derivation(derivation: &Derivation) -> String {
    let mut out = String::new();
    for rule in &derivation.steps {
        out.push_str(&encode_rule(rule));
        out.push('\n');
    }
    out
}

/// Decodes the output of [`encode_derivation`]. Blank lines and `#`
/// comment lines are skipped.
pub fn decode_derivation(text: &str) -> Result<Derivation, CodecError> {
    let mut steps = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        steps.push(decode_rule(line)?);
    }
    Ok(Derivation { steps })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_with_spaces_round_trip() {
        let rule = Rule::DeJure(DeJureRule::Create {
            actor: VertexId::from_index(3),
            kind: VertexKind::Object,
            rights: Rights::RW,
            name: "worker pool %1\n".to_string(),
        });
        let line = encode_rule(&rule);
        assert!(!line.contains('\n'));
        assert_eq!(decode_rule(&line).unwrap(), rule);
    }

    #[test]
    fn empty_names_round_trip() {
        let rule = Rule::DeJure(DeJureRule::Create {
            actor: VertexId::from_index(0),
            kind: VertexKind::Subject,
            rights: Rights::EMPTY,
            name: String::new(),
        });
        assert_eq!(decode_rule(&encode_rule(&rule)).unwrap(), rule);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(decode_rule(""), Err(CodecError::Empty));
        assert!(matches!(
            decode_rule("steal 0 1 2"),
            Err(CodecError::UnknownForm(_))
        ));
        assert!(matches!(
            decode_rule("take 0 1 2"),
            Err(CodecError::Arity { form: "take", .. })
        ));
        assert!(matches!(
            decode_rule("take a 1 2 x1"),
            Err(CodecError::BadVertex(_))
        ));
        assert!(matches!(
            decode_rule("take 0 1 2 r"),
            Err(CodecError::BadRights(_))
        ));
        assert!(matches!(
            decode_rule("create 0 q x1 n"),
            Err(CodecError::BadKind(_))
        ));
        assert!(matches!(
            decode_rule("create 0 s x1 bad%zz"),
            Err(CodecError::BadEscape(_))
        ));
    }

    #[test]
    fn derivations_round_trip_with_comments() {
        let d: Derivation = vec![
            Rule::DeFacto(DeFactoRule::Spy {
                x: VertexId::from_index(0),
                y: VertexId::from_index(1),
                z: VertexId::from_index(2),
            }),
            Rule::DeJure(DeJureRule::Remove {
                actor: VertexId::from_index(0),
                target: VertexId::from_index(2),
                rights: Rights::T,
            }),
        ]
        .into_iter()
        .collect();
        let text = format!("# header comment\n{}\n", encode_derivation(&d));
        assert_eq!(decode_derivation(&text).unwrap(), d);
    }
}
