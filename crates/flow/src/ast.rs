//! A tolerant recursive-descent parser producing a simplified Rust AST.
//!
//! Built on the `ftm-lint` lexer (the workspace compiles exactly one
//! lexer): the token stream is first *fused* (composite operators like
//! `::`, `=>`, `!=` become single tokens), then grouped into delimiter
//! trees, then parsed into functions, blocks, statements and expressions.
//! The parser never fails — anything it cannot shape becomes an opaque
//! expression whose flattened text is preserved, so downstream passes
//! degrade to conservative text matching instead of missing code.
//!
//! Deliberately *not* fused: `<=`, `>=`, `<<`, `>>` — keeping `<`/`>`
//! single-character makes angle-depth tracking for generics trivial, and
//! no analysis below needs those operators as single tokens.

use ftm_lint::lexer::{lex, Lexed, TokenKind};

/// One post-fusion token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Verbatim text (composite operators fused: `::`, `=>`, `!=`, …).
    pub text: String,
    /// 1-indexed source line.
    pub line: u32,
    /// `true` for identifiers and keywords.
    pub word: bool,
    /// `true` when the token sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Fuses composite operators in a lexed stream.
pub fn fuse(lexed: &Lexed) -> Vec<Tok> {
    let toks = &lexed.tokens;
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let in_test = lexed.in_test_region(i);
        let mut text = t.text.clone();
        let mut consumed = 1;
        if t.kind == TokenKind::Punct && i + 1 < toks.len() {
            let next = &toks[i + 1];
            if next.kind == TokenKind::Punct && next.line == t.line {
                let fused = match (t.text.as_str(), next.text.as_str()) {
                    (":", ":") => Some("::"),
                    ("-", ">") => Some("->"),
                    ("=", ">") => Some("=>"),
                    ("=", "=") => Some("=="),
                    ("!", "=") => Some("!="),
                    ("&", "&") => Some("&&"),
                    ("|", "|") => Some("||"),
                    (".", ".") => Some(".."),
                    ("+", "=") => Some("+="),
                    ("-", "=") => Some("-="),
                    ("*", "=") => Some("*="),
                    ("/", "=") => Some("/="),
                    ("%", "=") => Some("%="),
                    ("^", "=") => Some("^="),
                    ("&", "=") => Some("&="),
                    ("|", "=") => Some("|="),
                    _ => None,
                };
                if let Some(f) = fused {
                    text = f.to_string();
                    consumed = 2;
                    // `..=` is the only three-character composite.
                    if f == ".."
                        && i + 2 < toks.len()
                        && toks[i + 2].kind == TokenKind::Punct
                        && toks[i + 2].text == "="
                        && toks[i + 2].line == t.line
                    {
                        text = "..=".to_string();
                        consumed = 3;
                    }
                }
            }
        }
        out.push(Tok {
            text,
            line: t.line,
            word: t.kind == TokenKind::Ident,
            in_test,
        });
        i += consumed;
    }
    out
}

/// A token tree: a leaf token or a delimiter group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A single token.
    Leaf(Tok),
    /// A `(…)`, `[…]` or `{…}` group.
    Group {
        /// The opening delimiter: `(`, `[` or `{`.
        delim: char,
        /// The trees inside the delimiters.
        trees: Vec<Tree>,
        /// Line of the opening delimiter.
        line: u32,
    },
}

impl Tree {
    fn leaf_text(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) => Some(t.text.as_str()),
            Tree::Group { .. } => None,
        }
    }

    fn word_text(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) if t.word => Some(t.text.as_str()),
            _ => None,
        }
    }

    fn is_group(&self, d: char) -> bool {
        matches!(self, Tree::Group { delim, .. } if *delim == d)
    }

    fn line(&self) -> u32 {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group { line, .. } => *line,
        }
    }
}

/// Builds delimiter trees from a fused token stream.
pub fn build_trees(toks: &[Tok]) -> Vec<Tree> {
    let mut pos = 0;
    build_seq(toks, &mut pos, None)
}

fn closer(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

fn build_seq(toks: &[Tok], pos: &mut usize, until: Option<char>) -> Vec<Tree> {
    let mut out = Vec::new();
    while *pos < toks.len() {
        let t = &toks[*pos];
        match t.text.as_str() {
            "(" | "[" | "{" => {
                let delim = t.text.chars().next().unwrap_or('(');
                let line = t.line;
                *pos += 1;
                let trees = build_seq(toks, pos, Some(closer(delim)));
                out.push(Tree::Group { delim, trees, line });
            }
            ")" | "]" | "}" => {
                let c = t.text.chars().next().unwrap_or(')');
                match until {
                    Some(expected) if expected == c => {
                        *pos += 1;
                        return out;
                    }
                    Some(_) => return out, // mismatched: let an outer level handle it
                    None => *pos += 1,     // stray close at top level: drop it
                }
            }
            _ => {
                out.push(Tree::Leaf(t.clone()));
                *pos += 1;
            }
        }
    }
    out
}

/// Flattens trees back to canonical text (single-space separated).
pub fn flatten(trees: &[Tree]) -> String {
    let mut parts = Vec::new();
    flatten_into(trees, &mut parts);
    parts.join(" ")
}

fn flatten_into(trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => out.push(tok.text.clone()),
            Tree::Group { delim, trees, .. } => {
                out.push(delim.to_string());
                flatten_into(trees, out);
                out.push(closer(*delim).to_string());
            }
        }
    }
}

/// A parsed function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// The function body.
    pub body: Block,
    /// Whether the function sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A block: statements plus an optional tail expression.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// The trailing expression (the block's value), if any (boxed to
    /// break the `Block` ↔ `Expr` layout cycle).
    pub tail: Option<Box<Expr>>,
}

/// One match arm.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Flattened pattern text.
    pub pat_text: String,
    /// The arm guard (`if …`), if any.
    pub guard: Option<Expr>,
    /// The arm body.
    pub body: Block,
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let pat = init;` (with optional diverging `else` block).
    Let {
        /// Names bound by the pattern.
        binds: Vec<String>,
        /// The initializer, if present.
        init: Option<Expr>,
    },
    /// `place = value;` or a compound assignment.
    Assign {
        /// The assigned value.
        value: Expr,
    },
    /// `if`/`if let` with optional `else`.
    If {
        /// The condition (for `if let`, the matched expression).
        cond: Expr,
        /// The `then` block.
        then_b: Block,
        /// The `else` block (an `else if` chain nests here).
        else_b: Option<Block>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// The matched expression.
        scrutinee: Expr,
        /// The arms, in order.
        arms: Vec<Arm>,
    },
    /// `while`/`while let`.
    While {
        /// The loop condition.
        cond: Expr,
        /// The loop body.
        body: Block,
    },
    /// `loop { … }`.
    Loop {
        /// The loop body.
        body: Block,
    },
    /// `for pat in iter { … }`.
    For {
        /// The iterated expression.
        iter: Expr,
        /// The loop body.
        body: Block,
    },
    /// `return [expr];`
    Return {
        /// The returned value, if any.
        value: Option<Expr>,
    },
    /// `break`/`continue` (conservatively treated as fallthrough).
    Jump,
    /// A bare expression statement.
    Expr(Expr),
}

/// An expression: a structural kind plus its flattened source text.
#[derive(Debug, Clone)]
pub struct Expr {
    /// The structural shape.
    pub kind: ExprKind,
    /// Flattened source text of the expression.
    pub text: String,
    /// Line the expression starts on.
    pub line: u32,
}

/// The structural shape of an expression.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// A path: `x`, `self`, `Core :: Next`, …
    Path(Vec<String>),
    /// A literal.
    Lit,
    /// Field access `base . name` (tuple indices included).
    Field {
        /// The accessed base.
        base: Box<Expr>,
    },
    /// Method call `recv . name ( args )`.
    Method {
        /// The receiver.
        recv: Box<Expr>,
        /// The method name.
        name: String,
        /// The arguments.
        args: Vec<Expr>,
    },
    /// Call `callee ( args )`.
    Call {
        /// The called expression (usually a path).
        callee: Box<Expr>,
        /// The arguments.
        args: Vec<Expr>,
    },
    /// Struct literal `Path { fields }`.
    Struct {
        /// The struct path segments.
        path: Vec<String>,
        /// `(name, value)` pairs; shorthand fields get a path value.
        fields: Vec<(String, Expr)>,
    },
    /// Macro invocation `name ! ( args )` (name is kept in `text`).
    Macro {
        /// The comma-split arguments.
        args: Vec<Expr>,
    },
    /// Closure `| params | body`.
    Closure {
        /// The body expression.
        body: Box<Expr>,
    },
    /// Expression-position `if`.
    IfExpr {
        /// The condition.
        cond: Box<Expr>,
        /// The `then` block.
        then_b: Block,
        /// The `else` block.
        else_b: Option<Block>,
    },
    /// Expression-position `match`.
    MatchExpr {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// The arms.
        arms: Vec<Arm>,
    },
    /// A bare `{ … }` block in expression position.
    BlockExpr(Block),
    /// Tuple or array literal.
    Tuple(Vec<Expr>),
    /// Indexing `base [ index ]`.
    Index {
        /// The indexed base.
        base: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// Operator chain; operands only, operators live in `text`.
    Bin(Vec<Expr>),
    /// Anything the parser could not shape (text preserved).
    Opaque,
}

/// Parses a source file into its function definitions.
pub fn parse_file(source: &str) -> Vec<FnDef> {
    let lexed = lex(source);
    let toks = fuse(&lexed);
    let trees = build_trees(&toks);
    let mut fns = Vec::new();
    parse_items(&trees, &mut fns);
    fns
}

fn parse_items(trees: &[Tree], out: &mut Vec<FnDef>) {
    let mut i = 0;
    while i < trees.len() {
        match trees[i].word_text() {
            Some("fn") => {
                i = parse_fn(trees, i, out);
            }
            Some("impl" | "trait" | "mod") => {
                // Descend into the item's `{…}` body, whatever its header.
                let mut j = i + 1;
                while j < trees.len()
                    && !trees[j].is_group('{')
                    && trees[j].leaf_text() != Some(";")
                {
                    j += 1;
                }
                if let Some(Tree::Group { trees: body, .. }) = trees.get(j) {
                    parse_items(body, out);
                }
                i = j + 1;
            }
            Some("pub") => {
                i += 1;
                if trees.get(i).is_some_and(|t| t.is_group('(')) {
                    i += 1;
                }
            }
            _ => {
                if trees[i].leaf_text() == Some("#") {
                    i += 1;
                    if trees.get(i).and_then(Tree::leaf_text) == Some("!") {
                        i += 1;
                    }
                    if trees.get(i).is_some_and(|t| t.is_group('[')) {
                        i += 1;
                    }
                } else {
                    i = skip_item(trees, i);
                }
            }
        }
    }
}

/// Skips one non-`fn` item: everything up to and including the next
/// top-level `;` or `{…}` group.
fn skip_item(trees: &[Tree], mut i: usize) -> usize {
    while i < trees.len() {
        if trees[i].leaf_text() == Some(";") || trees[i].is_group('{') {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// Skips a `<…>` generic-argument run starting at a `<` leaf.
fn skip_angles(trees: &[Tree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < trees.len() {
        match trees[i].leaf_text() {
            Some("<") => depth += 1,
            Some(">") => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

fn parse_fn(trees: &[Tree], at: usize, out: &mut Vec<FnDef>) -> usize {
    let in_test = matches!(&trees[at], Tree::Leaf(t) if t.in_test);
    let Some(name) = trees.get(at + 1).and_then(Tree::word_text) else {
        return at + 1;
    };
    let mut j = at + 2;
    if trees.get(j).and_then(Tree::leaf_text) == Some("<") {
        j = skip_angles(trees, j);
    }
    if !trees.get(j).is_some_and(|t| t.is_group('(')) {
        return at + 1;
    }
    j += 1;
    // Skip return type and where clause up to the body.
    while j < trees.len() {
        if trees[j].is_group('{') {
            let Tree::Group { trees: body, .. } = &trees[j] else {
                unreachable!()
            };
            out.push(FnDef {
                name: name.to_string(),
                body: parse_block(body),
                in_test,
            });
            return j + 1;
        }
        if trees[j].leaf_text() == Some(";") {
            return j + 1; // trait method signature, no body
        }
        j += 1;
    }
    j
}

/// Splits trees on a top-level separator leaf, tracking angle depth and
/// closure pipes so commas inside `<…>` or `|a, b|` never split.
fn split_top_level<'a>(trees: &'a [Tree], sep: &str) -> Vec<&'a [Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut angle = 0i32;
    let mut in_pipes = false;
    for (i, t) in trees.iter().enumerate() {
        match t.leaf_text() {
            Some("<") => angle += 1,
            Some(">") => angle = (angle - 1).max(0),
            Some("|") => in_pipes = !in_pipes,
            Some(s) if s == sep && angle == 0 && !in_pipes => {
                out.push(&trees[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < trees.len() {
        out.push(&trees[start..]);
    }
    out
}

/// Finds the first top-level occurrence of any of `needles`, tracking
/// angle depth.
fn find_top_level(trees: &[Tree], needles: &[&str]) -> Option<usize> {
    let mut angle = 0i32;
    for (i, t) in trees.iter().enumerate() {
        match t.leaf_text() {
            Some("<") => angle += 1,
            Some(">") => angle = (angle - 1).max(0),
            Some(s) if angle == 0 && needles.contains(&s) => return Some(i),
            _ => {}
        }
    }
    None
}

const BIND_KEYWORDS: [&str; 9] = [
    "mut", "ref", "box", "move", "if", "in", "else", "true", "false",
];

/// Collects pattern-bound names: lowercase/underscore-initial words that
/// are neither path segments (preceded by `::`) nor struct-pattern field
/// names (followed by `:`).
fn collect_binds(trees: &[Tree], out: &mut Vec<String>) {
    for (i, t) in trees.iter().enumerate() {
        match t {
            Tree::Leaf(tok) if tok.word => {
                let starts_lower = tok
                    .text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_');
                if !starts_lower
                    || tok.text == "_"
                    || tok.text == "self"
                    || BIND_KEYWORDS.contains(&tok.text.as_str())
                {
                    continue;
                }
                let after_path = i > 0 && trees[i - 1].leaf_text() == Some("::");
                let field_name = trees.get(i + 1).and_then(Tree::leaf_text) == Some(":");
                if !after_path && !field_name {
                    out.push(tok.text.clone());
                }
            }
            Tree::Group { trees: inner, .. } => collect_binds(inner, out),
            Tree::Leaf(_) => {}
        }
    }
}

/// Parses the trees of a `{…}` body into a block.
pub fn parse_block(trees: &[Tree]) -> Block {
    let mut stmts = Vec::new();
    let mut tail = None;
    let mut i = 0;
    while i < trees.len() {
        if trees[i].leaf_text() == Some(";") {
            i += 1;
            continue;
        }
        match trees[i].word_text() {
            Some("let") => i = parse_let(trees, i, &mut stmts),
            Some("if") => {
                let (stmt, ni) = parse_if(trees, i);
                stmts.push(stmt);
                i = ni;
            }
            Some("match") => {
                let (stmt, ni) = parse_match(trees, i);
                stmts.push(stmt);
                i = ni;
            }
            Some("while") => {
                let (stmt, ni) = parse_while(trees, i);
                stmts.push(stmt);
                i = ni;
            }
            Some("loop") => {
                if let Some(Tree::Group { trees: body, .. }) = trees.get(i + 1) {
                    stmts.push(Stmt::Loop {
                        body: parse_block(body),
                    });
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Some("for") => {
                let (stmt, ni) = parse_for(trees, i);
                stmts.push(stmt);
                i = ni;
            }
            Some("return") => {
                let end = stmt_end(trees, i);
                let value = if end > i + 1 {
                    Some(parse_expr_all(&trees[i + 1..end]))
                } else {
                    None
                };
                stmts.push(Stmt::Return { value });
                i = end + 1;
            }
            Some("break" | "continue") => {
                stmts.push(Stmt::Jump);
                i = stmt_end(trees, i) + 1;
            }
            Some("fn") => {
                // Nested function: skip (not part of this body's flow).
                i = skip_item(trees, i);
            }
            Some("use" | "const" | "static" | "struct" | "enum" | "type" | "impl" | "mod") => {
                i = skip_item(trees, i);
            }
            _ => {
                if trees[i].leaf_text() == Some("#") {
                    i += 1;
                    if trees.get(i).is_some_and(|t| t.is_group('[')) {
                        i += 1;
                    }
                    continue;
                }
                let end = stmt_end(trees, i);
                let slice = &trees[i..end];
                if let Some(k) = find_assign_op(slice) {
                    stmts.push(Stmt::Assign {
                        value: parse_expr_all(&slice[k + 1..]),
                    });
                } else if !slice.is_empty() {
                    let e = parse_expr_all(slice);
                    if end < trees.len() {
                        stmts.push(Stmt::Expr(e));
                    } else {
                        tail = Some(Box::new(e));
                    }
                }
                i = end + 1;
            }
        }
    }
    Block { stmts, tail }
}

/// Index just past the statement starting at `i`: the next top-level `;`,
/// or the end of the slice.
fn stmt_end(trees: &[Tree], mut i: usize) -> usize {
    while i < trees.len() && trees[i].leaf_text() != Some(";") {
        i += 1;
    }
    i
}

const ASSIGN_OPS: [&str; 9] = ["=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|="];

fn find_assign_op(slice: &[Tree]) -> Option<usize> {
    let mut angle = 0i32;
    for (i, t) in slice.iter().enumerate() {
        match t.leaf_text() {
            Some("<") => angle += 1,
            Some(">") => angle = (angle - 1).max(0),
            Some(s) if angle == 0 && ASSIGN_OPS.contains(&s) => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_let(trees: &[Tree], at: usize, stmts: &mut Vec<Stmt>) -> usize {
    let end = stmt_end(trees, at);
    let slice = &trees[at + 1..end];
    let eq = find_top_level(slice, &["="]);
    let (pat_ty, mut init_slice) = match eq {
        Some(e) => (&slice[..e], &slice[e + 1..]),
        None => (slice, &slice[0..0]),
    };
    // Strip a trailing diverging `else { … }`.
    if init_slice.len() >= 2
        && init_slice[init_slice.len() - 1].is_group('{')
        && init_slice[init_slice.len() - 2].word_text() == Some("else")
    {
        init_slice = &init_slice[..init_slice.len() - 2];
    }
    let pat = match find_top_level(pat_ty, &[":"]) {
        Some(c) => &pat_ty[..c],
        None => pat_ty,
    };
    let mut binds = Vec::new();
    collect_binds(pat, &mut binds);
    let init = if init_slice.is_empty() {
        None
    } else {
        Some(parse_expr_all(init_slice))
    };
    stmts.push(Stmt::Let { binds, init });
    end + 1
}

/// Parses an `if`/`if let` header starting at the `if` keyword; returns
/// condition, then-block, else-block and the next index.
fn parse_if_parts(trees: &[Tree], at: usize) -> (Expr, Block, Option<Block>, usize) {
    let mut i = at + 1;
    if trees.get(i).and_then(Tree::word_text) == Some("let") {
        i += 1;
        // Pattern runs to the top-level `=` (comparison operators are
        // fused, so a bare `=` is unambiguous).
        if let Some(eq) = find_top_level(&trees[i..], &["="]) {
            i += eq + 1;
        }
    }
    let cond_start = i;
    while i < trees.len() && !trees[i].is_group('{') {
        i += 1;
    }
    let cond = parse_expr_all(&trees[cond_start..i]);
    let then_b = match trees.get(i) {
        Some(Tree::Group { trees: body, .. }) => {
            i += 1;
            parse_block(body)
        }
        _ => Block::default(),
    };
    let mut else_b = None;
    if trees.get(i).and_then(Tree::word_text) == Some("else") {
        i += 1;
        if trees.get(i).and_then(Tree::word_text) == Some("if") {
            let (stmt, ni) = parse_if(trees, i);
            else_b = Some(Block {
                stmts: vec![stmt],
                tail: None,
            });
            i = ni;
        } else if let Some(Tree::Group { trees: body, .. }) = trees.get(i) {
            else_b = Some(parse_block(body));
            i += 1;
        }
    }
    (cond, then_b, else_b, i)
}

fn parse_if(trees: &[Tree], at: usize) -> (Stmt, usize) {
    let (cond, then_b, else_b, i) = parse_if_parts(trees, at);
    (
        Stmt::If {
            cond,
            then_b,
            else_b,
        },
        i,
    )
}

fn parse_match(trees: &[Tree], at: usize) -> (Stmt, usize) {
    let mut i = at + 1;
    let start = i;
    while i < trees.len() && !trees[i].is_group('{') {
        i += 1;
    }
    let scrutinee = parse_expr_all(&trees[start..i]);
    let arms = match trees.get(i) {
        Some(Tree::Group { trees: body, .. }) => {
            i += 1;
            parse_arms(body)
        }
        _ => Vec::new(),
    };
    (Stmt::Match { scrutinee, arms }, i)
}

fn parse_arms(trees: &[Tree]) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        if matches!(trees[i].leaf_text(), Some("," | "|")) {
            i += 1;
            continue;
        }
        // Pattern (and optional guard) up to the top-level `=>`.
        let pat_start = i;
        while i < trees.len() && trees[i].leaf_text() != Some("=>") {
            i += 1;
        }
        if i >= trees.len() {
            break;
        }
        let pat_slice = &trees[pat_start..i];
        i += 1; // past `=>`
        let (pat, guard) = match find_top_level(pat_slice, &["if"]) {
            Some(g) => (&pat_slice[..g], Some(parse_expr_all(&pat_slice[g + 1..]))),
            None => (pat_slice, None),
        };
        // Body: a `{…}` block, or an expression up to the top-level `,`.
        let body = if trees.get(i).is_some_and(|t| t.is_group('{')) {
            let Some(Tree::Group { trees: b, .. }) = trees.get(i) else {
                unreachable!()
            };
            i += 1;
            parse_block(b)
        } else {
            let body_start = i;
            let mut angle = 0i32;
            while i < trees.len() {
                match trees[i].leaf_text() {
                    Some("<") => angle += 1,
                    Some(">") => angle = (angle - 1).max(0),
                    Some(",") if angle == 0 => break,
                    _ => {}
                }
                i += 1;
            }
            parse_block(&trees[body_start..i])
        };
        arms.push(Arm {
            pat_text: flatten(pat),
            guard,
            body,
        });
    }
    arms
}

fn parse_while(trees: &[Tree], at: usize) -> (Stmt, usize) {
    let (cond, body, _, i) = parse_if_parts(trees, at);
    (Stmt::While { cond, body }, i)
}

fn parse_for(trees: &[Tree], at: usize) -> (Stmt, usize) {
    let mut i = at + 1;
    while i < trees.len() && trees[i].word_text() != Some("in") {
        i += 1;
    }
    i = (i + 1).min(trees.len()); // past `in`
    let iter_start = i;
    while i < trees.len() && !trees[i].is_group('{') {
        i += 1;
    }
    let iter = parse_expr_all(&trees[iter_start..i]);
    let body = match trees.get(i) {
        Some(Tree::Group { trees: b, .. }) => {
            i += 1;
            parse_block(b)
        }
        _ => Block::default(),
    };
    (Stmt::For { iter, body }, i)
}

/// Parses a complete tree slice as one expression, wrapping any
/// unconsumable residue into the operand list so nothing is lost.
pub fn parse_expr_all(slice: &[Tree]) -> Expr {
    let line = slice.first().map_or(0, Tree::line);
    let text = flatten(slice);
    let mut pos = 0;
    let mut parts = Vec::new();
    while pos < slice.len() {
        let before = pos;
        if let Some(e) = parse_bin(slice, &mut pos) {
            parts.push(e);
        }
        if pos == before {
            pos += 1; // skip an unconsumable tree, keep going
        }
    }
    match parts.len() {
        0 => Expr {
            kind: ExprKind::Opaque,
            text,
            line,
        },
        1 => {
            let mut e = parts.pop().unwrap_or(Expr {
                kind: ExprKind::Opaque,
                text: String::new(),
                line,
            });
            e.text = text;
            e
        }
        _ => Expr {
            kind: ExprKind::Bin(parts),
            text,
            line,
        },
    }
}

const BIN_OPS: [&str; 16] = [
    "+", "-", "*", "/", "%", "==", "!=", "<", ">", "&&", "||", "&", "|", "^", "..", "..=",
];

fn parse_bin(slice: &[Tree], pos: &mut usize) -> Option<Expr> {
    let start = *pos;
    let first = parse_operand(slice, pos)?;
    let mut parts = vec![first];
    loop {
        match slice.get(*pos).and_then(Tree::leaf_text) {
            Some(op) if BIN_OPS.contains(&op) => {
                *pos += 1;
                if let Some(e) = parse_operand(slice, pos) {
                    parts.push(e);
                } else {
                    break; // trailing operator (e.g. `drain(..)`)
                }
            }
            _ => match slice.get(*pos).and_then(Tree::word_text) {
                Some("as") => {
                    *pos += 1;
                    // Consume the cast target type.
                    while matches!(slice.get(*pos).and_then(Tree::leaf_text), Some("::"))
                        || slice.get(*pos).is_some_and(|t| t.word_text().is_some())
                    {
                        *pos += 1;
                    }
                }
                _ => break,
            },
        }
    }
    if parts.len() == 1 {
        parts.pop()
    } else {
        Some(Expr {
            kind: ExprKind::Bin(parts),
            text: flatten(&slice[start..*pos]),
            line: slice[start].line(),
        })
    }
}

const PREFIX_OPS: [&str; 7] = ["&", "&&", "*", "!", "-", "mut", "move"];

#[allow(clippy::too_many_lines)]
fn parse_operand(slice: &[Tree], pos: &mut usize) -> Option<Expr> {
    while slice
        .get(*pos)
        .and_then(Tree::leaf_text)
        .is_some_and(|t| PREFIX_OPS.contains(&t))
    {
        // `!` before a group is never a prefix here (macro bangs follow a
        // path, handled in postfix); `-`/`*`/`&` before nothing ends it.
        *pos += 1;
    }
    let start = *pos;
    let t = slice.get(*pos)?;
    let line = t.line();
    let base = match t {
        Tree::Leaf(tok) if tok.word => match tok.text.as_str() {
            "if" => {
                let (cond, then_b, else_b, ni) = parse_if_parts(slice, *pos);
                *pos = ni;
                Expr {
                    kind: ExprKind::IfExpr {
                        cond: Box::new(cond),
                        then_b,
                        else_b,
                    },
                    text: flatten(&slice[start..*pos]),
                    line,
                }
            }
            "match" => {
                let (stmt, ni) = parse_match(slice, *pos);
                *pos = ni;
                let Stmt::Match { scrutinee, arms } = stmt else {
                    unreachable!()
                };
                Expr {
                    kind: ExprKind::MatchExpr {
                        scrutinee: Box::new(scrutinee),
                        arms,
                    },
                    text: flatten(&slice[start..*pos]),
                    line,
                }
            }
            "return" | "break" | "continue" => {
                *pos += 1;
                return if *pos < slice.len() {
                    parse_bin(slice, pos)
                } else {
                    Some(Expr {
                        kind: ExprKind::Opaque,
                        text: tok.text.clone(),
                        line,
                    })
                };
            }
            _ => {
                // Path: word (`::` word | `::` `<…>`)* .
                let mut segs = vec![tok.text.clone()];
                *pos += 1;
                while slice.get(*pos).and_then(Tree::leaf_text) == Some("::") {
                    if let Some(w) = slice.get(*pos + 1).and_then(Tree::word_text) {
                        segs.push(w.to_string());
                        *pos += 2;
                    } else if slice.get(*pos + 1).and_then(Tree::leaf_text) == Some("<") {
                        *pos = skip_angles(slice, *pos + 1); // turbofish
                    } else {
                        *pos += 1;
                        break;
                    }
                }
                Expr {
                    kind: ExprKind::Path(segs),
                    text: flatten(&slice[start..*pos]),
                    line,
                }
            }
        },
        Tree::Leaf(tok) if tok.text == "|" || tok.text == "||" => {
            // Closure: skip the parameter list.
            if tok.text == "|" {
                *pos += 1;
                while *pos < slice.len() && slice[*pos].leaf_text() != Some("|") {
                    *pos += 1;
                }
                *pos = (*pos + 1).min(slice.len());
            } else {
                *pos += 1;
            }
            let body = if slice.get(*pos).is_some_and(|t| t.is_group('{')) {
                let Some(Tree::Group { trees: b, .. }) = slice.get(*pos) else {
                    unreachable!()
                };
                *pos += 1;
                Expr {
                    kind: ExprKind::BlockExpr(parse_block(b)),
                    text: flatten(b),
                    line,
                }
            } else {
                parse_bin(slice, pos).unwrap_or(Expr {
                    kind: ExprKind::Opaque,
                    text: String::new(),
                    line,
                })
            };
            return Some(Expr {
                kind: ExprKind::Closure {
                    body: Box::new(body),
                },
                text: flatten(&slice[start..*pos]),
                line,
            });
        }
        Tree::Leaf(tok) => {
            if tok.word || tok.text.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                *pos += 1;
                Expr {
                    kind: ExprKind::Lit,
                    text: tok.text.clone(),
                    line,
                }
            } else {
                return None; // operator or stray punctuation: caller decides
            }
        }
        Tree::Group {
            delim: '(', trees, ..
        } => {
            *pos += 1;
            let parts = split_top_level(trees, ",");
            if parts.len() <= 1 {
                let mut inner = parse_expr_all(trees);
                inner.line = line;
                inner
            } else {
                Expr {
                    kind: ExprKind::Tuple(parts.iter().map(|p| parse_expr_all(p)).collect()),
                    text: flatten(trees),
                    line,
                }
            }
        }
        Tree::Group {
            delim: '[', trees, ..
        } => {
            *pos += 1;
            Expr {
                kind: ExprKind::Tuple(
                    split_top_level(trees, ",")
                        .iter()
                        .map(|p| parse_expr_all(p))
                        .collect(),
                ),
                text: flatten(trees),
                line,
            }
        }
        Tree::Group {
            delim: '{', trees, ..
        } => {
            *pos += 1;
            Expr {
                kind: ExprKind::BlockExpr(parse_block(trees)),
                text: flatten(trees),
                line,
            }
        }
        Tree::Group { .. } => {
            return None;
        }
    };
    Some(parse_postfix(base, slice, pos, start))
}

fn parse_postfix(mut e: Expr, slice: &[Tree], pos: &mut usize, start: usize) -> Expr {
    loop {
        let line = e.line;
        match slice.get(*pos) {
            Some(Tree::Leaf(tok)) if tok.text == "." => {
                let Some(next) = slice.get(*pos + 1) else {
                    *pos += 1;
                    break;
                };
                let name = match next {
                    Tree::Leaf(n) => n.text.clone(),
                    Tree::Group { .. } => {
                        *pos += 1;
                        break;
                    }
                };
                if let Some(Tree::Group {
                    delim: '(',
                    trees: arg_trees,
                    ..
                }) = slice.get(*pos + 2)
                {
                    let args = split_top_level(arg_trees, ",")
                        .iter()
                        .filter(|p| !p.is_empty())
                        .map(|p| parse_expr_all(p))
                        .collect();
                    *pos += 3;
                    e = Expr {
                        kind: ExprKind::Method {
                            recv: Box::new(e),
                            name,
                            args,
                        },
                        text: flatten(&slice[start..*pos]),
                        line,
                    };
                } else {
                    *pos += 2;
                    e = Expr {
                        kind: ExprKind::Field { base: Box::new(e) },
                        text: flatten(&slice[start..*pos]),
                        line,
                    };
                }
            }
            Some(Tree::Leaf(tok)) if tok.text == "?" => {
                *pos += 1;
            }
            Some(Tree::Leaf(tok)) if tok.text == "!" => {
                // Macro bang: only after a path, followed by a group.
                let (
                    ExprKind::Path(_),
                    Some(Tree::Group {
                        trees: arg_trees, ..
                    }),
                ) = (&e.kind, slice.get(*pos + 1))
                else {
                    break;
                };
                let args = split_top_level(arg_trees, ",")
                    .iter()
                    .filter(|p| !p.is_empty())
                    .map(|p| parse_expr_all(p))
                    .collect();
                *pos += 2;
                e = Expr {
                    kind: ExprKind::Macro { args },
                    text: flatten(&slice[start..*pos]),
                    line,
                };
            }
            Some(Tree::Group {
                delim: '(',
                trees: arg_trees,
                ..
            }) => {
                let args = split_top_level(arg_trees, ",")
                    .iter()
                    .filter(|p| !p.is_empty())
                    .map(|p| parse_expr_all(p))
                    .collect();
                *pos += 1;
                e = Expr {
                    kind: ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                    text: flatten(&slice[start..*pos]),
                    line,
                };
            }
            Some(Tree::Group {
                delim: '{',
                trees: field_trees,
                ..
            }) => {
                // Struct literal: only after an uppercase-initial path.
                let ExprKind::Path(segs) = &e.kind else { break };
                let upper = segs
                    .last()
                    .and_then(|s| s.chars().next())
                    .is_some_and(char::is_uppercase);
                if !upper {
                    break;
                }
                let path = segs.clone();
                let mut fields = Vec::new();
                for part in split_top_level(field_trees, ",") {
                    if part.is_empty() {
                        continue;
                    }
                    if part[0].leaf_text() == Some("..") {
                        fields.push(("..".to_string(), parse_expr_all(&part[1..])));
                        continue;
                    }
                    let Some(name) = part[0].word_text().map(String::from) else {
                        continue;
                    };
                    if part.get(1).and_then(Tree::leaf_text) == Some(":") {
                        fields.push((name, parse_expr_all(&part[2..])));
                    } else {
                        // Shorthand: the field reads the same-named local.
                        fields.push((name.clone(), parse_expr_all(&part[..1])));
                    }
                }
                *pos += 1;
                e = Expr {
                    kind: ExprKind::Struct { path, fields },
                    text: flatten(&slice[start..*pos]),
                    line,
                };
            }
            Some(Tree::Group {
                delim: '[',
                trees: idx_trees,
                ..
            }) => {
                *pos += 1;
                e = Expr {
                    kind: ExprKind::Index {
                        base: Box::new(e),
                        index: Box::new(parse_expr_all(idx_trees)),
                    },
                    text: flatten(&slice[start..*pos]),
                    line,
                };
            }
            _ => break,
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> FnDef {
        let fns = parse_file(src);
        assert_eq!(fns.len(), 1, "expected one fn in {src}");
        fns.into_iter().next().unwrap()
    }

    #[test]
    fn fuses_composite_operators() {
        let toks = fuse(&lex("a != b; c => d; e..=f; g.."));
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"!="));
        assert!(texts.contains(&"=>"));
        assert!(texts.contains(&"..="));
        assert!(texts.contains(&".."));
    }

    #[test]
    fn does_not_fuse_angle_comparisons() {
        let toks = fuse(&lex("let x: Vec<u64> = v; if a >= b {}"));
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(!texts.contains(&">="), "`>=` must stay `>` `=`: {texts:?}");
    }

    #[test]
    fn methods_are_found_inside_generic_and_trait_impls() {
        let f = parse_one(
            "impl<P: Proto> ReplicatedLog<P> { fn advance(&mut self, decided: Vec<u64>) { self.log.push(decided); } }",
        );
        assert_eq!(f.name, "advance");
        assert_eq!(f.body.stmts.len(), 1);
        let f = parse_one("impl Actor<Core, V> for HrActor { fn on_start(&mut self) {} }");
        assert_eq!(f.name, "on_start");
    }

    #[test]
    fn let_with_generic_type_annotation_parses() {
        let f = parse_one("fn f() { let x: BTreeMap<String, Vec<u64>> = make(); x.len(); }");
        let Stmt::Let { binds, init, .. } = &f.body.stmts[0] else {
            panic!("expected let: {:?}", f.body.stmts[0]);
        };
        assert_eq!(binds, &["x"]);
        assert!(init.is_some());
    }

    #[test]
    fn match_arms_carry_patterns_and_guards() {
        let f = parse_one(
            "fn f(e: E) { match e.core() { Core::Current { round, vector } => go(vector), Core::Next { round } if round > 0 => {} , _ => {} } }",
        );
        let Stmt::Match { arms, .. } = &f.body.stmts[0] else {
            panic!("expected match");
        };
        assert_eq!(arms.len(), 3);
        assert!(arms[1].guard.is_some());
        assert!(arms[0].pat_text.contains("Core :: Current"));
    }

    #[test]
    fn struct_literals_and_shorthand_fields() {
        let f = parse_one("fn f(round: u64) { send(Core::Decide { round, vector: v.clone() }); }");
        let Stmt::Expr(e) = &f.body.stmts[0] else {
            panic!("expected expr stmt");
        };
        let ExprKind::Call { args, .. } = &e.kind else {
            panic!("expected call: {e:?}");
        };
        let ExprKind::Struct { path, fields } = &args[0].kind else {
            panic!("expected struct literal: {:?}", args[0]);
        };
        assert_eq!(path.last().map(String::as_str), Some("Decide"));
        assert_eq!(fields[0].0, "round");
        assert_eq!(fields[0].1.text, "round");
        assert_eq!(fields[1].0, "vector");
    }

    #[test]
    fn if_let_condition_is_the_matched_expression() {
        let f = parse_one("fn f() { if let Some(b) = self.builder.as_mut() { b.absorb(); } }");
        let Stmt::If { cond, then_b, .. } = &f.body.stmts[0] else {
            panic!("expected if");
        };
        assert_eq!(cond.text, "self . builder . as_mut ( )");
        assert_eq!(then_b.stmts.len(), 1);
    }

    #[test]
    fn multi_param_closures_do_not_split_args() {
        let f =
            parse_one("fn f() { self.drive(ctx, |inner, ictx| inner.on_message(from, ictx)); }");
        let Stmt::Expr(e) = &f.body.stmts[0] else {
            panic!("expected expr");
        };
        let ExprKind::Method { name, args, .. } = &e.kind else {
            panic!("expected method: {e:?}");
        };
        assert_eq!(name, "drive");
        assert_eq!(args.len(), 2, "closure comma must not split args");
        assert!(
            matches!(args[1].kind, ExprKind::Closure { .. }),
            "expected closure: {:?}",
            args[1]
        );
    }

    #[test]
    fn assignment_statements_are_detected() {
        let f = parse_one("fn f(v: V) { self.est_vect = v.clone(); self.r += 1; }");
        let Stmt::Assign { value } = &f.body.stmts[0] else {
            panic!("expected assign");
        };
        assert_eq!(value.text, "v . clone ( )");
        assert!(matches!(f.body.stmts[1], Stmt::Assign { .. }));
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let fns = parse_file("fn prod() {}\n#[cfg(test)]\nmod tests { fn t() { let x = 1; } }");
        assert_eq!(fns.len(), 2);
        assert!(!fns[0].in_test);
        assert!(fns[1].in_test);
    }

    #[test]
    fn empty_closure_params_via_fused_pipes() {
        let f = parse_one("fn f() { let mut draw = || 0u64; draw(); }");
        let Stmt::Let { init, .. } = &f.body.stmts[0] else {
            panic!("expected let");
        };
        assert!(
            matches!(
                init,
                Some(Expr {
                    kind: ExprKind::Closure { .. },
                    ..
                })
            ),
            "expected closure: {init:?}"
        );
    }
}
