//! Item/block recovery over the token stream: `fn` scopes, loop bodies,
//! `#[cfg(test)]` regions, `use` imports, and `dyn`-typed parameters.
//!
//! This is *recovery*, not parsing: the passes only need to know where
//! function bodies start and end, which tokens sit inside loops, and what
//! names a file imports. Anything the recogniser cannot classify is simply
//! not an item — it never aborts on unexpected input.

use std::cell::Cell;

use crate::lexer::{lex, test_line_mask, Lexed, Token, TokenKind};

/// A recovered `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's bare name (`diff`, `main`, …).
    pub name: String,
    /// 1-based line / col of the name token.
    pub line: usize,
    /// Column of the name token.
    pub col: usize,
    /// Significant-token index range of the body, inclusive of both braces;
    /// `None` for a bodyless signature (trait method declaration).
    pub body: Option<(usize, usize)>,
    /// Whether the item sits in a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Parameter names whose declared type mentions `dyn` (the receivers
    /// the hot-loop pass treats as dynamic dispatch).
    pub dyn_params: Vec<String>,
    /// All parameters with the leading identifier of their declared type
    /// (`None` for `impl Trait`, `dyn`, tuple, and slice types). Feeds
    /// receiver typing in the resolved call graph.
    pub params: Vec<Param>,
    /// Generic type-parameter names declared on the `fn` itself
    /// (`fn f<T, U>` → `["T", "U"]`).
    pub generics: Vec<String>,
}

/// One recovered parameter: its name and the first path identifier of its
/// declared type (`x: &'a mut Tree<V>` → `Some("Tree")`).
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name.
    pub name: String,
    /// Leading type identifier, when the type starts with a path.
    pub ty: Option<String>,
    /// Whether the declared type mentions `dyn`.
    pub is_dyn: bool,
    /// Whether the declared type mentions a lock type (`Mutex`/`RwLock`),
    /// at any nesting depth (`&Arc<Mutex<T>>` counts). Feeds the
    /// concurrency-discipline lock model.
    pub is_lock: bool,
}

/// A recovered `struct` definition: its name and named fields. Tuple and
/// unit structs carry no named fields and are recovered with an empty
/// field list.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldDecl>,
}

/// One named struct field.
#[derive(Clone, Debug)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// Whether the declared type mentions `Mutex`/`RwLock` at any depth
    /// (`Option<Mutex<T>>` counts).
    pub is_lock: bool,
}

/// Type names the lock model treats as locks wherever they appear in a
/// declared type.
pub const LOCK_TYPES: &[&str] = &["Mutex", "RwLock"];

/// A recovered `impl` block: the implemented type plus the body span.
#[derive(Clone, Debug)]
pub struct ImplBlock {
    /// The type the block implements (for `impl Trait for Type`, the
    /// `Type`; path prefixes and generic arguments stripped).
    pub owner: String,
    /// Generic type-parameter names of the block (`impl<V> Tree<V>` →
    /// `["V"]`).
    pub generics: Vec<String>,
    /// Significant-token index range of the body, inclusive of braces.
    pub body: (usize, usize),
}

/// An inline `mod name { … }` block (declarations `mod name;` are file
/// layout, handled by path mapping in the resolver).
#[derive(Clone, Debug)]
pub struct ModBlock {
    /// The module name.
    pub name: String,
    /// Significant-token index of the `{`.
    pub open: usize,
    /// Significant-token index of the matching `}`.
    pub close: usize,
}

/// A loop body inside some function: significant-token index range,
/// inclusive of both braces.
#[derive(Clone, Copy, Debug)]
pub struct LoopRegion {
    /// Start (the `{` token) in significant-token indices.
    pub open: usize,
    /// End (the matching `}` token).
    pub close: usize,
}

/// One `use` declaration, reduced to what call-edge resolution needs.
#[derive(Clone, Debug)]
pub struct UseImport {
    /// First path segment (`hierdiff_tree`, `crate`, `std`, …).
    pub root: String,
    /// Leaf names made visible by this import (aliases included).
    pub names: Vec<String>,
    /// Whether the import ends in a `*` glob (`use hierdiff_tree::*;`),
    /// which makes every item of the rooted path visible by bare name.
    pub glob: bool,
}

/// One inline `// analyze: allow(CODE) reason` waiver. Doc comments are
/// documentation, not waivers.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// 1-based line of the comment.
    pub line: usize,
    /// The waived code (`S031`, …).
    pub code: String,
    /// Set once the waiver suppresses a finding; an unset flag after the
    /// analysis means the waiver is stale.
    used: Cell<bool>,
}

/// A lexed + structurally recovered source file.
pub struct FileModel {
    /// Repo-relative path, forward slashes.
    pub rel: String,
    /// The token stream.
    pub lexed: Lexed,
    /// Indices into `lexed.tokens` of the significant (non-comment) tokens.
    pub sig: Vec<usize>,
    /// Per-line `cfg(test)` flags.
    pub test_lines: Vec<bool>,
    /// Recovered functions, in source order.
    pub fns: Vec<FnItem>,
    /// Loop bodies (across all functions), in source order.
    pub loops: Vec<LoopRegion>,
    /// `use` imports.
    pub uses: Vec<UseImport>,
    /// `impl` blocks, in source order.
    pub impls: Vec<ImplBlock>,
    /// Inline `mod` blocks, in source order.
    pub mods: Vec<ModBlock>,
    /// `struct` definitions, in source order.
    pub structs: Vec<StructDef>,
    /// Whether the file opts into hot-loop discipline via the
    /// `hierdiff-analyze: hot-module` marker comment.
    pub hot: bool,
    /// Inline waivers, in source order.
    pub waivers: Vec<Waiver>,
}

/// The marker comment that opts a module into hot-loop discipline.
pub const HOT_MODULE_MARKER: &str = "hierdiff-analyze: hot-module";

/// Every `allow(SNNN)` named by a non-doc comment that contains
/// `analyze:`.
fn recover_waivers(lexed: &Lexed) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for t in &lexed.tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = lexed.text(t);
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| text.starts_with(p))
        {
            continue;
        }
        let Some((_, rest)) = text.split_once("analyze:") else {
            continue;
        };
        for piece in rest.split("allow(").skip(1) {
            let code = piece.split(')').next().unwrap_or_default();
            let well_formed = code.len() == 4
                && code.starts_with('S')
                && code.chars().skip(1).all(|c| c.is_ascii_digit());
            if well_formed {
                waivers.push(Waiver {
                    line: t.line,
                    code: code.to_string(),
                    used: Cell::new(false),
                });
            }
        }
    }
    waivers
}

impl FileModel {
    /// Lexes and recovers structure from one file.
    pub fn build(rel: &str, source: &str) -> FileModel {
        let lexed = lex(source);
        let test_lines = test_line_mask(&lexed.masked());
        let sig: Vec<usize> = lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        // The marker must be the comment's entire content — files that merely
        // *mention* it (this crate's own docs) must not opt in.
        let hot = lexed.tokens.iter().any(|t| {
            matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && lexed
                    .text(t)
                    .trim_start_matches(['/', '*', '!'])
                    .trim_end_matches(['/', '*'])
                    .trim()
                    == HOT_MODULE_MARKER
        });

        let waivers = recover_waivers(&lexed);
        let mut model = FileModel {
            rel: rel.to_string(),
            lexed,
            sig,
            test_lines,
            fns: Vec::new(),
            loops: Vec::new(),
            uses: Vec::new(),
            impls: Vec::new(),
            mods: Vec::new(),
            structs: Vec::new(),
            hot,
            waivers,
        };
        model.recover_fns();
        model.recover_loops();
        model.recover_uses();
        model.recover_impls();
        model.recover_mods();
        model.recover_structs();
        model
    }

    /// The significant token at significant-index `s`.
    pub fn tok(&self, s: usize) -> Option<&Token> {
        self.sig.get(s).and_then(|&i| self.lexed.tokens.get(i))
    }

    /// Whether the significant token at `s` spells `word`.
    pub fn word(&self, s: usize, word: &str) -> bool {
        self.tok(s).is_some_and(|t| self.lexed.is_word(t, word))
    }

    /// Whether the significant token at `s` is the punctuation `p`.
    pub fn punct(&self, s: usize, p: char) -> bool {
        self.tok(s).is_some_and(|t| {
            t.kind == TokenKind::Punct && self.lexed.chars.get(t.start) == Some(&p)
        })
    }

    /// Whether 1-based `line` is inside a `cfg(test)` region.
    pub fn is_test_line(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.test_lines.get(i))
            .copied()
            .unwrap_or(false)
    }

    /// Whether a waiver on 1-based `line` waives lint `code`; a waiver
    /// that answers yes is marked used.
    pub fn waived(&self, line: usize, code: &str) -> bool {
        let mut hit = false;
        for w in &self.waivers {
            if w.line == line && w.code == code {
                w.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Waivers that have suppressed nothing so far.
    pub fn unused_waivers(&self) -> impl Iterator<Item = &Waiver> {
        self.waivers.iter().filter(|w| !w.used.get())
    }

    /// The innermost function whose body contains significant index `s`.
    pub fn enclosing_fn(&self, s: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span, fn idx)
        for (i, f) in self.fns.iter().enumerate() {
            if let Some((open, close)) = f.body {
                if open <= s && s <= close {
                    let span = close - open;
                    if best.is_none_or(|(b, _)| span < b) {
                        best = Some((span, i));
                    }
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// Whether significant index `s` is inside any loop body.
    pub fn in_loop(&self, s: usize) -> bool {
        self.loops.iter().any(|l| l.open <= s && s <= l.close)
    }

    /// The innermost `impl` block whose body contains significant index `s`.
    pub fn enclosing_impl(&self, s: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (i, im) in self.impls.iter().enumerate() {
            let (open, close) = im.body;
            if open <= s && s <= close {
                let span = close - open;
                if best.is_none_or(|(b, _)| span < b) {
                    best = Some((span, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// The inline-module path at significant index `s`, outermost first
    /// (file-level module layout is prepended by the resolver).
    pub fn module_path_at(&self, s: usize) -> Vec<String> {
        let mut containing: Vec<&ModBlock> = self
            .mods
            .iter()
            .filter(|m| m.open <= s && s <= m.close)
            .collect();
        containing.sort_by_key(|m| m.open);
        containing.iter().map(|m| m.name.clone()).collect()
    }

    /// Finds the matching `}` for the `{` at significant index `open`.
    fn matching_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        let mut s = open;
        while s < self.sig.len() {
            if self.punct(s, '{') {
                depth += 1;
            } else if self.punct(s, '}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(s);
                }
            }
            s += 1;
        }
        None
    }

    fn recover_fns(&mut self) {
        let mut fns = Vec::new();
        let n = self.sig.len();
        for s in 0..n {
            if !self.word(s, "fn") {
                continue;
            }
            let Some(name_tok) = self.tok(s + 1) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                continue; // `fn(u8) -> u8` pointer type, not an item
            }
            let name = self.lexed.text(name_tok);
            let (line, col) = (name_tok.line, name_tok.col);
            let is_test = self.is_test_line(self.tok(s).map(|t| t.line).unwrap_or(line));

            // Scan the signature: skip a generic parameter list, then find
            // the body `{` (or `;` for a bodyless declaration) at bracket
            // depth zero.
            let mut p = s + 2;
            let mut generics = Vec::new();
            if self.punct(p, '<') {
                let close = self.skip_angle_group(p);
                generics = self.generic_names_in(p, close);
                p = close;
            }
            let mut depth = 0isize;
            let mut body = None;
            let mut params: Option<(usize, usize)> = None;
            while p < n {
                if self.punct(p, '(') || self.punct(p, '[') {
                    if depth == 0 && params.is_none() && self.punct(p, '(') {
                        params = Some((p, p)); // close patched below
                    }
                    depth += 1;
                } else if self.punct(p, ')') || self.punct(p, ']') {
                    depth -= 1;
                    if depth == 0 {
                        if let Some((open, close)) = params {
                            if close == open {
                                params = Some((open, p));
                            }
                        }
                    }
                } else if depth == 0 && self.punct(p, ';') {
                    break;
                } else if depth == 0 && self.punct(p, '{') {
                    body = self.matching_brace(p).map(|close| (p, close));
                    break;
                }
                p += 1;
            }

            let params = params
                .map(|(open, close)| self.params_in(open, close))
                .unwrap_or_default();
            let dyn_params = params
                .iter()
                .filter(|p| p.is_dyn)
                .map(|p| p.name.clone())
                .collect();
            fns.push(FnItem {
                name,
                line,
                col,
                body,
                is_test,
                dyn_params,
                params,
                generics,
            });
        }
        self.fns = fns;
    }

    /// Generic type-parameter names declared in the `<…>` group
    /// `[open, close)`: idents at angle depth 1 that open a declaration
    /// (followed by `:`, `,`, or the closing `>`), lifetimes skipped.
    fn generic_names_in(&self, open: usize, close: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut depth = 0isize;
        let mut at_decl = true; // start of a parameter declaration
        let mut s = open;
        while s < close {
            if self.punct(s, '<') {
                depth += 1;
            } else if self.punct(s, '>') {
                depth -= 1;
            } else if depth == 1 {
                if self.punct(s, ',') {
                    at_decl = true;
                } else if at_decl {
                    if let Some(t) = self.tok(s) {
                        if t.kind == TokenKind::Ident && !self.word(s, "const") {
                            out.push(self.lexed.text(t));
                            at_decl = false;
                        }
                        // Lifetimes leave `at_decl` set: `'a, T` still
                        // records `T`.
                        if t.kind == TokenKind::Ident && self.word(s, "const") {
                            // `const N: usize`: the next ident is a value
                            // parameter, not a type.
                            at_decl = false;
                        }
                    }
                } else if self.punct(s, ':') {
                    // Bounds until the next comma are not declarations.
                    at_decl = false;
                }
            }
            s += 1;
        }
        out
    }

    /// Skips a `<…>` generic group starting at `open`, tolerating `->`
    /// arrows and nested groups; returns the index one past the closing `>`.
    fn skip_angle_group(&self, open: usize) -> usize {
        let mut depth = 0isize;
        let mut s = open;
        while s < self.sig.len() {
            if self.punct(s, '<') {
                depth += 1;
            } else if self.punct(s, '>') && !self.punct(s.wrapping_sub(1), '-') {
                depth -= 1;
                if depth == 0 {
                    return s + 1;
                }
            }
            s += 1;
        }
        self.sig.len()
    }

    /// Parameters declared in `(open..=close)`: binding name, leading type
    /// identifier, and whether the type mentions `dyn`.
    fn params_in(&self, open: usize, close: usize) -> Vec<Param> {
        let mut out = Vec::new();
        let mut depth = 0isize;
        let mut angle = 0isize;
        let mut seg_start = open + 1;
        let mut s = open;
        while s <= close {
            let at_end = s == close;
            if self.punct(s, '(') || self.punct(s, '[') {
                depth += 1;
            } else if self.punct(s, ')') || self.punct(s, ']') {
                depth -= 1;
            } else if self.punct(s, '<') {
                angle += 1;
            } else if self.punct(s, '>') && !self.punct(s.wrapping_sub(1), '-') {
                angle -= 1;
            }
            if (self.punct(s, ',') && depth == 1 && angle == 0) || (at_end && depth == 0) {
                if let Some(param) = self.param_from_segment(seg_start, s) {
                    out.push(param);
                }
                seg_start = s + 1;
            }
            s += 1;
        }
        out
    }

    /// Recovers one parameter from the token segment `[start, end)`:
    /// `name : Type` with the name a plain ident (patterns and `self`
    /// receivers yield `None` — `self` typing goes through the enclosing
    /// impl instead).
    fn param_from_segment(&self, start: usize, end: usize) -> Option<Param> {
        // Find the `:` separating pattern from type (skip `::`).
        let mut colon = None;
        let mut q = start;
        while q < end {
            if self.punct(q, ':') && !self.punct(q + 1, ':') && !self.punct(q.wrapping_sub(1), ':')
            {
                colon = Some(q);
                break;
            }
            q += 1;
        }
        let colon = colon?;
        // The name: the last ident before the colon that isn't `mut`/`ref`.
        let mut name = None;
        for q in start..colon {
            if let Some(t) = self.tok(q) {
                if t.kind == TokenKind::Ident && !self.word(q, "mut") && !self.word(q, "ref") {
                    name = Some(self.lexed.text(t));
                }
            }
        }
        let name = name?;
        let is_dyn = (colon + 1..end).any(|q| self.word(q, "dyn"));
        let is_lock = self.mentions_lock_type(colon + 1, end);
        // The type head: first ident after the colon, skipping `&`, `mut`,
        // and lifetimes. Tuple/slice/pointer heads and `impl`/`dyn`/`fn`
        // types have no leading path ident — stop at the first decisive
        // token rather than picking an ident from inside the type.
        let mut ty = None;
        for q in colon + 1..end {
            let Some(t) = self.tok(q) else { break };
            match t.kind {
                TokenKind::Lifetime => continue,
                TokenKind::Ident => {
                    if self.word(q, "mut") {
                        continue;
                    }
                    if !self.word(q, "dyn") && !self.word(q, "impl") && !self.word(q, "fn") {
                        // Follow a path to its final segment
                        // (`tree::Tree<V>` → `Tree`).
                        let mut q = q;
                        while self.punct(q + 1, ':')
                            && self.punct(q + 2, ':')
                            && self.tok(q + 3).is_some_and(|t| t.kind == TokenKind::Ident)
                        {
                            q += 3;
                        }
                        ty = self.tok(q).map(|t| self.lexed.text(t));
                    }
                    break;
                }
                TokenKind::Punct if self.lexed.chars.get(t.start) == Some(&'&') => continue,
                _ => break,
            }
        }
        Some(Param {
            name,
            ty,
            is_dyn,
            is_lock,
        })
    }

    /// Whether any token in `[start, end)` names a lock type.
    fn mentions_lock_type(&self, start: usize, end: usize) -> bool {
        (start..end).any(|q| LOCK_TYPES.iter().any(|t| self.word(q, t)))
    }

    fn recover_loops(&mut self) {
        let mut loops = Vec::new();
        let bodies: Vec<(usize, usize)> = self.fns.iter().filter_map(|f| f.body).collect();
        for &(fn_open, fn_close) in &bodies {
            let mut s = fn_open + 1;
            while s < fn_close {
                let is_loop_kw =
                    self.word(s, "loop") || self.word(s, "while") || self.word(s, "for");
                if is_loop_kw && !self.punct(s + 1, '<') {
                    // `for<'a>` is a binder, not a loop; skipped above.
                    let mut p = s + 1;
                    let mut depth = 0isize;
                    let mut open = None;
                    while p <= fn_close {
                        if self.punct(p, '(') || self.punct(p, '[') {
                            depth += 1;
                        } else if self.punct(p, ')') || self.punct(p, ']') {
                            depth -= 1;
                        } else if depth == 0 && self.punct(p, '{') {
                            open = Some(p);
                            break;
                        } else if depth == 0 && self.punct(p, ';') {
                            break; // malformed / not actually a loop header
                        }
                        p += 1;
                    }
                    if let Some(open) = open {
                        if let Some(close) = self.matching_brace(open) {
                            loops.push(LoopRegion { open, close });
                        }
                    }
                }
                s += 1;
            }
        }
        self.loops = loops;
    }

    fn recover_uses(&mut self) {
        let mut uses = Vec::new();
        let n = self.sig.len();
        for s in 0..n {
            if !self.word(s, "use") {
                continue;
            }
            let mut root = None;
            let mut names = Vec::new();
            let mut glob = false;
            let mut p = s + 1;
            while p < n && !self.punct(p, ';') {
                if let Some(t) = self.tok(p) {
                    if t.kind == TokenKind::Ident {
                        if root.is_none() {
                            root = Some(self.lexed.text(t));
                        }
                        // A leaf name ends a path: followed by `,` `}` `;`.
                        if self.punct(p + 1, ',')
                            || self.punct(p + 1, '}')
                            || self.punct(p + 1, ';')
                        {
                            names.push(self.lexed.text(t));
                        }
                    } else if t.kind == TokenKind::Punct
                        && self.lexed.chars.get(t.start) == Some(&'*')
                    {
                        glob = true;
                    }
                }
                p += 1;
            }
            if let Some(root) = root {
                uses.push(UseImport { root, names, glob });
            }
        }
        self.uses = uses;
    }

    fn recover_impls(&mut self) {
        let mut impls = Vec::new();
        let n = self.sig.len();
        for s in 0..n {
            if !self.word(s, "impl") {
                continue;
            }
            // `impl` in type position (`f: impl FnOnce(…)`, `-> impl
            // Iterator`) is not an item: an impl item starts the file or
            // follows a block edge, `;`, an attribute's `]`, or `unsafe`.
            let prev = s.wrapping_sub(1);
            let item_pos = s == 0
                || self.punct(prev, '{')
                || self.punct(prev, '}')
                || self.punct(prev, ';')
                || self.punct(prev, ']')
                || self.word(prev, "unsafe");
            if !item_pos {
                continue;
            }
            let mut p = s + 1;
            let mut generics = Vec::new();
            if self.punct(p, '<') {
                let close = self.skip_angle_group(p);
                generics = self.generic_names_in(p, close);
                p = close;
            }
            // Scan the header up to the body `{`, tracking the last
            // angle-depth-zero path ident seen after the later of the start
            // and any `for` keyword — that is the implemented type
            // (`impl Tree<V>`, `impl fmt::Display for Tree<V>`).
            let mut owner: Option<String> = None;
            let mut angle = 0isize;
            let mut open = None;
            while p < n {
                if self.punct(p, '<') {
                    angle += 1;
                } else if self.punct(p, '>') && !self.punct(p.wrapping_sub(1), '-') {
                    angle -= 1;
                } else if angle == 0 && self.punct(p, '{') {
                    open = Some(p);
                    break;
                } else if angle == 0 && self.punct(p, ';') {
                    break; // `impl Trait for Type;` style or recovery bail
                } else if angle == 0 {
                    if self.word(p, "for") {
                        owner = None; // the type follows the `for`
                    } else if let Some(t) = self.tok(p) {
                        if t.kind == TokenKind::Ident && !self.word(p, "where") {
                            owner = Some(self.lexed.text(t));
                        }
                        if self.word(p, "where") {
                            // Bounds follow; the owner is already final.
                            while p < n && !self.punct(p, '{') {
                                p += 1;
                            }
                            if self.punct(p, '{') {
                                open = Some(p);
                            }
                            break;
                        }
                    }
                }
                p += 1;
            }
            if let (Some(owner), Some(open)) = (owner, open) {
                if let Some(close) = self.matching_brace(open) {
                    impls.push(ImplBlock {
                        owner,
                        generics,
                        body: (open, close),
                    });
                }
            }
        }
        self.impls = impls;
    }

    fn recover_mods(&mut self) {
        let mut mods = Vec::new();
        let n = self.sig.len();
        for s in 0..n {
            if !self.word(s, "mod") {
                continue;
            }
            let Some(name_tok) = self.tok(s + 1) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident || !self.punct(s + 2, '{') {
                continue; // `mod name;` declarations carry no inline body
            }
            if let Some(close) = self.matching_brace(s + 2) {
                mods.push(ModBlock {
                    name: self.lexed.text(name_tok),
                    open: s + 2,
                    close,
                });
            }
        }
        self.mods = mods;
    }

    fn recover_structs(&mut self) {
        let mut structs = Vec::new();
        let n = self.sig.len();
        for s in 0..n {
            if !self.word(s, "struct") {
                continue;
            }
            let Some(name_tok) = self.tok(s + 1) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                continue;
            }
            let name = self.lexed.text(name_tok);
            // Skip a generic parameter list, then find the `{` of a named
            // field body; `;` (unit) and `(` (tuple) structs carry no named
            // fields.
            let mut p = s + 2;
            if self.punct(p, '<') {
                p = self.skip_angle_group(p);
            }
            // A `where` clause may intervene; scan to the first `{`, `;` or
            // `(` at angle depth zero.
            let mut angle = 0isize;
            let mut open = None;
            while p < n {
                if self.punct(p, '<') {
                    angle += 1;
                } else if self.punct(p, '>') && !self.punct(p.wrapping_sub(1), '-') {
                    angle -= 1;
                } else if angle == 0 && self.punct(p, '{') {
                    open = Some(p);
                    break;
                } else if angle == 0 && (self.punct(p, ';') || self.punct(p, '(')) {
                    break;
                }
                p += 1;
            }
            let fields = match open.and_then(|o| self.matching_brace(o).map(|c| (o, c))) {
                Some((open, close)) => self.fields_in(open, close),
                None => Vec::new(),
            };
            structs.push(StructDef { name, fields });
        }
        self.structs = structs;
    }

    /// Named fields declared in the struct body `(open..close)`: each is an
    /// ident directly followed by a single `:` at body depth 1, its type
    /// running to the next depth-1 comma.
    fn fields_in(&self, open: usize, close: usize) -> Vec<FieldDecl> {
        let mut out = Vec::new();
        let mut depth = 0isize; // (), [], {} combined
        let mut angle = 0isize;
        let mut s = open;
        while s < close {
            if self.punct(s, '(') || self.punct(s, '[') || self.punct(s, '{') {
                depth += 1;
            } else if self.punct(s, ')') || self.punct(s, ']') || self.punct(s, '}') {
                depth -= 1;
            } else if self.punct(s, '<') {
                angle += 1;
            } else if self.punct(s, '>') && !self.punct(s.wrapping_sub(1), '-') {
                angle -= 1;
            } else if depth == 1
                && angle == 0
                && self.tok(s).is_some_and(|t| t.kind == TokenKind::Ident)
                && self.punct(s + 1, ':')
                && !self.punct(s + 2, ':')
                && !self.punct(s.wrapping_sub(1), ':')
            {
                // Type segment: to the next comma at this depth, or the
                // body close.
                let mut e = s + 2;
                let mut d = 0isize;
                let mut a = 0isize;
                while e < close {
                    if self.punct(e, '(') || self.punct(e, '[') || self.punct(e, '{') {
                        d += 1;
                    } else if self.punct(e, ')') || self.punct(e, ']') || self.punct(e, '}') {
                        d -= 1;
                    } else if self.punct(e, '<') {
                        a += 1;
                    } else if self.punct(e, '>') && !self.punct(e.wrapping_sub(1), '-') {
                        a -= 1;
                    } else if d == 0 && a == 0 && self.punct(e, ',') {
                        break;
                    }
                    e += 1;
                }
                if let Some(t) = self.tok(s) {
                    out.push(FieldDecl {
                        name: self.lexed.text(t),
                        line: t.line,
                        is_lock: self.mentions_lock_type(s + 2, e),
                    });
                }
                s = e;
                continue;
            }
            s += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("crates/x/src/m.rs", src)
    }

    #[test]
    fn recovers_fn_items_and_bodies() {
        let m = model("fn a() { b(); }\npub fn b() -> u8 { 0 }\ntrait T { fn c(&self); }\n");
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(m.fns[0].body.is_some());
        assert!(m.fns[1].body.is_some());
        assert!(m.fns[2].body.is_none());
    }

    #[test]
    fn generic_fn_with_closure_bound_finds_real_body() {
        let m = model("fn f<F: Fn(u32) -> u32>(g: F) -> u32 where F: Clone { g(1) }\n");
        assert_eq!(m.fns.len(), 1);
        let (open, close) = m.fns[0].body.expect("body");
        assert!(m.punct(open, '{') && m.punct(close, '}'));
        // The body starts after the where clause, not at the `Fn(...)` bound.
        assert!(m.word(open + 1, "g"));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let m = model("fn real(cb: fn(u8) -> u8) -> u8 { cb(1) }\n");
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn test_mod_fns_are_flagged() {
        let m = model("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n");
        assert!(!m.fns[0].is_test);
        assert!(m.fns[1].is_test);
    }

    #[test]
    fn dyn_params_recovered() {
        let m = model(
            "fn f(obs: &mut dyn Observer, n: usize, cb: impl Fn()) {}\n\
             fn g(plain: u8) {}\n",
        );
        assert_eq!(m.fns[0].dyn_params, vec!["obs".to_string()]);
        assert!(m.fns[1].dyn_params.is_empty());
    }

    #[test]
    fn loops_recovered_including_nested() {
        let m = model(
            "fn f(v: &[u8]) {\n    for x in v {\n        while *x > 0 {\n            work();\n        }\n    }\n    done();\n}\n",
        );
        assert_eq!(m.loops.len(), 2);
        // `work()` is inside both loops; `done()` is in neither.
        let work = (0..m.sig.len()).find(|&s| m.word(s, "work")).expect("work");
        let done = (0..m.sig.len()).find(|&s| m.word(s, "done")).expect("done");
        assert!(m.in_loop(work));
        assert!(!m.in_loop(done));
    }

    #[test]
    fn closure_braces_in_loop_header_do_not_truncate_body() {
        let m = model(
            "fn f(v: &[u8]) {\n    for x in v.iter().map(|y| { y }) {\n        inner();\n    }\n}\n",
        );
        assert_eq!(m.loops.len(), 1);
        let inner = (0..m.sig.len())
            .find(|&s| m.word(s, "inner"))
            .expect("inner");
        assert!(m.in_loop(inner));
    }

    #[test]
    fn uses_recovered() {
        let m =
            model("use hierdiff_tree::{Tree, NodeId};\nuse crate::helper;\nuse std::fmt as f;\n");
        assert_eq!(m.uses.len(), 3);
        assert_eq!(m.uses[0].root, "hierdiff_tree");
        assert_eq!(m.uses[0].names, vec!["Tree", "NodeId"]);
        assert_eq!(m.uses[1].root, "crate");
        assert_eq!(m.uses[1].names, vec!["helper"]);
        assert_eq!(m.uses[2].root, "std");
        assert_eq!(m.uses[2].names, vec!["f"]);
    }

    #[test]
    fn hot_marker_and_waivers() {
        let m = model(
            "//! hierdiff-analyze: hot-module\nfn f() {\n    let v = Vec::new(); // analyze: allow(S010) setup\n}\n",
        );
        assert!(m.hot);
        assert!(!m.waived(3, "S011"));
        assert!(!m.waived(2, "S010"));
        assert_eq!(m.unused_waivers().count(), 1);
        assert!(m.waived(3, "S010"));
        assert_eq!(m.unused_waivers().count(), 0);
    }

    #[test]
    fn doc_comments_and_placeholders_are_not_waivers() {
        let m = model(
            "/// honours `// analyze: allow(S022)`\n//! `analyze: allow(S04x) reason`\n\
             fn f() {} // analyze: allow(S031) one pass allow(S010) too\n",
        );
        let codes: Vec<(usize, &str)> = m
            .waivers
            .iter()
            .map(|w| (w.line, w.code.as_str()))
            .collect();
        assert_eq!(codes, vec![(3, "S031"), (3, "S010")]);
    }

    #[test]
    fn impls_recovered_with_owner_and_generics() {
        let m = model(
            "struct Tree<V> { v: V }\n\
             impl<V: Clone> Tree<V> {\n    fn len(&self) -> usize { 0 }\n}\n\
             impl std::fmt::Display for Tree<u8> {\n    fn fmt(&self) {}\n}\n",
        );
        assert_eq!(m.impls.len(), 2);
        assert_eq!(m.impls[0].owner, "Tree");
        assert_eq!(m.impls[0].generics, vec!["V".to_string()]);
        assert_eq!(m.impls[1].owner, "Tree");
        // `len` sits inside the first impl body.
        let len = (0..m.sig.len()).find(|&s| m.word(s, "len")).expect("len");
        assert_eq!(m.enclosing_impl(len), Some(0));
    }

    #[test]
    fn inline_mods_recovered() {
        let m = model("mod outer {\n    mod inner {\n        fn f() {}\n    }\n}\nmod decl;\n");
        assert_eq!(m.mods.len(), 2);
        let f = (0..m.sig.len()).find(|&s| m.word(s, "f")).expect("f");
        assert_eq!(
            m.module_path_at(f),
            vec!["outer".to_string(), "inner".to_string()]
        );
    }

    #[test]
    fn params_recover_declared_type_heads() {
        let m = model(
            "fn f(t: &mut tree::Tree<V>, id: NodeId, n: usize, pair: (u8, u8), s: &[u8]) {}\n",
        );
        let p = &m.fns[0].params;
        assert_eq!(p.len(), 5);
        assert_eq!(p[0].ty.as_deref(), Some("Tree"));
        assert_eq!(p[1].ty.as_deref(), Some("NodeId"));
        assert_eq!(p[2].ty.as_deref(), Some("usize"));
        assert_eq!(p[3].ty, None);
        assert_eq!(p[4].ty, None);
    }

    #[test]
    fn glob_imports_flagged() {
        let m = model("use hierdiff_tree::*;\nuse crate::helper;\n");
        assert!(m.uses[0].glob);
        assert!(!m.uses[1].glob);
    }

    #[test]
    fn fn_generics_recovered() {
        let m = model("fn f<T: Clone, const N: usize, U>(x: T) {}\n");
        assert_eq!(m.fns[0].generics, vec!["T".to_string(), "U".to_string()]);
    }

    #[test]
    fn structs_recovered_with_lock_fields() {
        let m = model(
            "pub struct Shared {\n    config: Config,\n    pub stats: Mutex<Report>,\n    chaos: Option<Mutex<Chaos>>,\n    chains: RwLock<HashMap<String, Chain>>,\n}\n\
             struct Unit;\nstruct Tuple(u8, Mutex<u8>);\n\
             struct Generic<T> where T: Clone { inner: T }\n",
        );
        let names: Vec<&str> = m.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Shared", "Unit", "Tuple", "Generic"]);
        let shared = &m.structs[0];
        let fields: Vec<(&str, bool)> = shared
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.is_lock))
            .collect();
        assert_eq!(
            fields,
            vec![
                ("config", false),
                ("stats", true),
                ("chaos", true),
                ("chains", true),
            ]
        );
        assert!(m.structs[1].fields.is_empty());
        assert!(m.structs[2].fields.is_empty());
        assert_eq!(m.structs[3].fields.len(), 1);
        assert!(!m.structs[3].fields[0].is_lock);
    }

    #[test]
    fn lock_typed_params_flagged() {
        let m =
            model("fn f(rx: &Mutex<Receiver<Job>>, shared: &Shared, arc: Arc<RwLock<u8>>) {}\n");
        let locks: Vec<bool> = m.fns[0].params.iter().map(|p| p.is_lock).collect();
        assert_eq!(locks, vec![true, false, true]);
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let m = model("fn outer() {\n    fn inner() { deep(); }\n    shallow();\n}\n");
        let deep = (0..m.sig.len()).find(|&s| m.word(s, "deep")).expect("deep");
        let shallow = (0..m.sig.len())
            .find(|&s| m.word(s, "shallow"))
            .expect("shallow");
        assert_eq!(
            m.enclosing_fn(deep).map(|i| m.fns[i].name.as_str()),
            Some("inner")
        );
        assert_eq!(
            m.enclosing_fn(shallow).map(|i| m.fns[i].name.as_str()),
            Some("outer")
        );
    }
}
