//! A compact s-expression notation for trees, used pervasively in tests,
//! examples, and documentation.
//!
//! Grammar:
//!
//! ```text
//! tree  := '(' LABEL item* ')'
//! item  := tree | STRING            -- a STRING makes this node a leaf value
//! LABEL := [^()" \t\n]+
//! STRING:= '"' ([^"\\] | '\"' | '\\')* '"'
//! ```
//!
//! `(D (P (S "a") (S "b")) (P (S "c")))` is the old tree `T1` of the paper's
//! running example (Figure 1), modulo node identifiers. A node written as
//! `(S "a")` is a leaf with value `"a"`; a node with no string carries the
//! null value.

use std::fmt;

use crate::label::Label;
use crate::tree::{NodeId, Tree};
use crate::value::NodeValue;

/// Errors from [`Tree::parse_sexpr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SexprError {
    /// Unexpected end of input.
    UnexpectedEof,
    /// Unexpected character at byte offset.
    Unexpected {
        /// Byte offset of the offending character.
        at: usize,
        /// The character found.
        found: char,
    },
    /// A value string appeared on a node that already has children, or more
    /// than one value string on a single node.
    MisplacedValue {
        /// Byte offset of the offending string.
        at: usize,
    },
    /// Input continues after the closing paren of the root.
    TrailingInput {
        /// Byte offset where the trailing input begins.
        at: usize,
    },
}

impl fmt::Display for SexprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SexprError::UnexpectedEof => write!(f, "unexpected end of input"),
            SexprError::Unexpected { at, found } => {
                write!(f, "unexpected character {found:?} at byte {at}")
            }
            SexprError::MisplacedValue { at } => {
                write!(
                    f,
                    "misplaced value string at byte {at} (values go on leaves, once)"
                )
            }
            SexprError::TrailingInput { at } => {
                write!(f, "trailing input after root tree at byte {at}")
            }
        }
    }
}

impl std::error::Error for SexprError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), SexprError> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            Some(c) => Err(SexprError::Unexpected {
                at: self.pos,
                found: c as char,
            }),
            None => Err(SexprError::UnexpectedEof),
        }
    }

    fn label(&mut self) -> Result<Label, SexprError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() || c == b'(' || c == b')' || c == b'"' {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return match self.peek() {
                Some(c) => Err(SexprError::Unexpected {
                    at: self.pos,
                    found: c as char,
                }),
                None => Err(SexprError::UnexpectedEof),
            };
        }
        let s = self
            .src
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or(SexprError::Unexpected {
                at: start,
                found: '\u{FFFD}',
            })?;
        Ok(Label::intern(s))
    }

    fn string(&mut self) -> Result<String, SexprError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(SexprError::UnexpectedEof),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => {
                            out.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(c) => {
                            return Err(SexprError::Unexpected {
                                at: self.pos,
                                found: c as char,
                            })
                        }
                        None => return Err(SexprError::UnexpectedEof),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (possibly multi-byte).
                    let ch = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| std::str::from_utf8(rest).ok())
                        .and_then(|rest| rest.chars().next())
                        .ok_or(SexprError::Unexpected {
                            at: self.pos,
                            found: '\u{FFFD}',
                        })?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn node(&mut self, tree: &mut Tree<String>, parent: Option<NodeId>) -> Result<(), SexprError> {
        self.eat(b'(')?;
        self.skip_ws();
        let label = self.label()?;
        let id = match parent {
            Some(p) => tree.push_child(p, label, String::null()),
            None => {
                // Root label fixup: the tree was pre-created with a dummy
                // label that we now know.
                debug_assert_eq!(tree.len(), 1);
                let root = tree.root();
                tree.relabel_root(label);
                root
            }
        };
        let mut has_value = false;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b')') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'(') => {
                    if has_value {
                        return Err(SexprError::MisplacedValue { at: self.pos });
                    }
                    self.node(tree, Some(id))?;
                }
                Some(b'"') => {
                    if has_value || tree.arity(id) > 0 {
                        return Err(SexprError::MisplacedValue { at: self.pos });
                    }
                    let at = self.pos;
                    let v = self.string()?;
                    let _ = at;
                    #[expect(clippy::expect_used, reason = "`id` was just created")]
                    tree.update(id, v).expect("node just created");
                    has_value = true;
                }
                Some(c) => {
                    return Err(SexprError::Unexpected {
                        at: self.pos,
                        found: c as char,
                    })
                }
                None => return Err(SexprError::UnexpectedEof),
            }
        }
    }
}

impl Tree<String> {
    /// Parses the s-expression notation described in the module docs.
    pub fn parse_sexpr(src: &str) -> Result<Tree<String>, SexprError> {
        let mut p = Parser {
            src: src.as_bytes(),
            pos: 0,
        };
        let mut tree = Tree::new(Label::intern("?"), String::null());
        p.skip_ws();
        p.node(&mut tree, None)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(SexprError::TrailingInput { at: p.pos });
        }
        // The recursive-descent parse issues ids in preorder, so the compact
        // layout applies directly.
        tree.refresh_layout();
        Ok(tree)
    }

    /// Renders this tree back into the s-expression notation (inverse of
    /// [`Tree::parse_sexpr`] up to whitespace).
    pub fn to_sexpr(&self) -> String {
        fn rec(t: &Tree<String>, id: NodeId, out: &mut String) {
            out.push('(');
            out.push_str(t.label(id).as_str());
            if !t.value(id).is_empty() {
                out.push_str(" \"");
                for ch in t.value(id).chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            for &c in t.children(id) {
                out.push(' ');
                rec(t, c, out);
            }
            out.push(')');
        }
        let mut out = String::new();
        rec(self, self.root(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_running_example_t1() {
        let t = Tree::parse_sexpr(r#"(D (P (S "a") (S "b")) (P (S "c")))"#).unwrap();
        assert_eq!(t.len(), 6);
        let root = t.root();
        assert_eq!(t.label(root).as_str(), "D");
        assert_eq!(t.arity(root), 2);
        let p1 = t.children(root)[0];
        assert_eq!(t.label(p1).as_str(), "P");
        assert_eq!(t.value(t.children(p1)[0]), "a");
        t.validate().unwrap();
    }

    #[test]
    fn roundtrips_via_to_sexpr() {
        let src = r#"(D (P (S "hello world") (S "b\"q\"")) (List (Item (S "c"))))"#;
        let t = Tree::parse_sexpr(src).unwrap();
        let t2 = Tree::parse_sexpr(&t.to_sexpr()).unwrap();
        assert!(crate::iso::isomorphic(&t, &t2));
    }

    #[test]
    fn single_node() {
        let t = Tree::parse_sexpr(r#"(D)"#).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.to_sexpr(), "(D)");
    }

    #[test]
    fn leaf_value_with_escapes() {
        let t = Tree::parse_sexpr(r#"(S "a \"quoted\" \\ line\nbreak")"#).unwrap();
        assert_eq!(t.value(t.root()), "a \"quoted\" \\ line\nbreak");
    }

    #[test]
    fn unicode_values() {
        let t = Tree::parse_sexpr(r#"(S "héllo wörld τεχ")"#).unwrap();
        assert_eq!(t.value(t.root()), "héllo wörld τεχ");
        let back = Tree::parse_sexpr(&t.to_sexpr()).unwrap();
        assert_eq!(back.value(back.root()), "héllo wörld τεχ");
    }

    #[test]
    fn error_unexpected_eof() {
        assert!(matches!(
            Tree::parse_sexpr("(D"),
            Err(SexprError::UnexpectedEof)
        ));
        assert!(matches!(
            Tree::parse_sexpr(r#"(S "ab"#),
            Err(SexprError::UnexpectedEof)
        ));
    }

    #[test]
    fn error_trailing_input() {
        assert!(matches!(
            Tree::parse_sexpr("(D) (E)"),
            Err(SexprError::TrailingInput { .. })
        ));
    }

    #[test]
    fn error_value_then_children() {
        assert!(matches!(
            Tree::parse_sexpr(r#"(S "v" (X))"#),
            Err(SexprError::MisplacedValue { .. })
        ));
        assert!(matches!(
            Tree::parse_sexpr(r#"(S (X) "v")"#),
            Err(SexprError::MisplacedValue { .. })
        ));
        assert!(matches!(
            Tree::parse_sexpr(r#"(S "a" "b")"#),
            Err(SexprError::MisplacedValue { .. })
        ));
    }

    #[test]
    fn error_bad_start() {
        assert!(matches!(
            Tree::parse_sexpr("D)"),
            Err(SexprError::Unexpected { .. })
        ));
        assert!(matches!(
            Tree::parse_sexpr(""),
            Err(SexprError::UnexpectedEof)
        ));
    }

    #[test]
    fn whitespace_is_flexible() {
        let t = Tree::parse_sexpr("  ( D\n\t(S \"a\")  )\n").unwrap();
        assert_eq!(t.len(), 2);
    }
}
