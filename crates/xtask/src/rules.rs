//! The lint rules and the per-file rule engine.
//!
//! Every rule walks the token stream produced by [`crate::lexer`] —
//! comments and literals are already out of the way — and emits
//! [`Finding`]s. Which rules run where is decided by
//! [`crate::scope::FileScope`]; see DESIGN.md §"Invariants & static
//! analysis" for each rule's rationale.

use crate::atomics;
use crate::lexer::{self, Token, TokenKind};
use crate::locks::{self, FnLocks};
use crate::scope::FileScope;
use crate::suppress;

/// Rule: library code must not panic (`unwrap`/`expect`/`panic!`/...).
pub const RULE_PANIC: &str = "panic-safety";
/// Rule: no clock reads outside the engine's timing layer.
pub const RULE_TIME: &str = "determinism-time";
/// Rule: no unordered hash iteration feeding result-ordering paths.
pub const RULE_UNORDERED: &str = "unordered-iter";
/// Rule: no thread creation outside `engine::pool`.
pub const RULE_THREAD: &str = "thread-discipline";
/// Rule: no bare `==`/`!=` against float literals.
pub const RULE_FLOAT: &str = "float-eq";
/// Rule: no `unsafe` code; crate roots carry `#![forbid(unsafe_code)]`.
pub const RULE_UNSAFE: &str = "forbid-unsafe";
/// Rule: every dependency is path-based/vendored; no vendored `build.rs`.
pub const RULE_OFFLINE: &str = "offline-deps";
/// Rule: `lint:allow` hygiene (mandatory reason, must fire).
pub const RULE_SUPPRESSION: &str = "suppression";
/// Rule: no per-call allocation inside functions marked `// lint:hot`.
pub const RULE_HOT_ALLOC: &str = "hot-path-alloc";
/// Rule: no cyclic lock order, no guard held across blocking calls.
pub const RULE_LOCK: &str = "lock-discipline";
/// Rule: every atomic `Ordering::` site justified; Relaxed gated on
/// publish paths; Acquire/Release pairing.
pub const RULE_ATOMICS: &str = "atomics-discipline";
/// Rule: every workspace member crate is classified in `scope.rs`.
pub const RULE_SCOPE_DRIFT: &str = "scope-drift";

/// All rule names, for suppression validation and `xtask rules`.
pub const RULE_NAMES: [&str; 12] = [
    RULE_PANIC,
    RULE_TIME,
    RULE_UNORDERED,
    RULE_THREAD,
    RULE_FLOAT,
    RULE_UNSAFE,
    RULE_OFFLINE,
    RULE_SUPPRESSION,
    RULE_HOT_ALLOC,
    RULE_LOCK,
    RULE_ATOMICS,
    RULE_SCOPE_DRIFT,
];

/// One-line description per rule, aligned with [`RULE_NAMES`].
pub const RULE_DESCRIPTIONS: [&str; 12] = [
    "library code must return errors, not panic: no unwrap/expect/panic!/unreachable!/todo!/unimplemented! outside tests",
    "no Instant::now/SystemTime::now outside engine::{pool,trace,metrics} — clocks feed nothing result-shaped",
    "no HashMap/HashSet iteration on result-ordering paths in core/stream/grid/serve without a sort or order-insensitive sink",
    "no thread::spawn/scope outside engine::pool — all parallelism goes through run_stage",
    "no bare ==/!= against float literals — compare with a tolerance or restructure",
    "no unsafe code anywhere; every crate root carries #![forbid(unsafe_code)]",
    "every Cargo.toml dependency is path-based or workspace-inherited; vendored crates carry no build.rs",
    "lint:allow(<rule>): <reason> — reason mandatory, unknown rules and unused allows are findings",
    "no Vec::new/vec![..]/.to_vec/.collect/.cell_of/CellCoord::new inside a function marked // lint:hot — hoist scratch buffers to the caller",
    "no Mutex/RwLock guard held across run_stage/channel sends/condvar waits; workspace lock acquisition order must be acyclic",
    "every atomic Ordering:: site carries // sync: <invariant>; Relaxed forbidden on publish/verify paths; Release stores pair with Acquire loads",
    "every workspace member in the root Cargo.toml is classified in scope.rs — new crates must be placed under the lint regime explicitly",
];

/// One lint finding (or, with `reason` set, one suppressed finding).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The token/pattern that matched (`unwrap`, `Instant::now`, ...).
    pub matched: String,
    /// Human-readable description.
    pub message: String,
    /// For suppressed findings: the justification from the allow.
    pub reason: String,
}

/// Result of linting one source file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings that survive suppression (cause a nonzero exit).
    pub findings: Vec<Finding>,
    /// Findings silenced by a `lint:allow`, with their reasons.
    pub suppressed: Vec<Finding>,
    /// Per-function lock summaries feeding the workspace-wide
    /// acquisition-order graph ([`locks::check_order`]).
    pub lock_fns: Vec<FnLocks>,
}

/// Lints one source file under the given scope.
pub fn check_file(rel: &str, scope: &FileScope, src: &str) -> FileOutcome {
    let lexed = lexer::lex(src);
    let mask = lexer::test_mask(&lexed.tokens);
    let (mut sups, mut findings) = suppress::parse(rel, &lexed.comments, &lexed.tokens);

    let t = &lexed.tokens;
    if scope.panic_safety() {
        panic_safety(rel, t, &mask, &mut findings);
    }
    if scope.determinism_time() {
        determinism_time(rel, t, &mask, &mut findings);
    }
    if scope.thread_discipline() {
        thread_discipline(rel, t, &mask, &mut findings);
    }
    if scope.float_eq() {
        float_eq(rel, t, &mask, &mut findings);
    }
    if scope.unordered_iter() {
        unordered_iter(rel, t, &mask, &mut findings);
    }
    unsafe_code(rel, t, scope, &mut findings);
    // Opt-in via the `// lint:hot` marker, so it runs in every scope.
    hot_path_alloc(rel, t, &mask, &lexed.comments, &mut findings);
    let mut lock_fns = Vec::new();
    if scope.lock_discipline() {
        lock_fns = locks::analyze_file(rel, &scope.crate_name, t, &mask, &mut findings);
    }
    if scope.atomics_discipline() {
        atomics::check(rel, t, &mask, &lexed.comments, &mut findings);
    }

    let (mut findings, suppressed) = suppress::apply(rel, &mut sups, findings);
    findings.sort_by_key(|f| (f.line, f.rule));
    FileOutcome {
        findings,
        suppressed,
        lock_fns,
    }
}

fn ident_at(t: &[Token], i: usize, text: &str) -> bool {
    t.get(i)
        .is_some_and(|tok| tok.kind == TokenKind::Ident && tok.text == text)
}

fn punct_at(t: &[Token], i: usize, text: &str) -> bool {
    t.get(i)
        .is_some_and(|tok| tok.kind == TokenKind::Punct && tok.text == text)
}

fn finding(rule: &'static str, file: &str, line: u32, matched: &str, message: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line,
        matched: matched.to_string(),
        message,
        reason: String::new(),
    }
}

/// `panic-safety`: `.unwrap()`, `.expect(`, `panic!`, `unreachable!`,
/// `todo!`, `unimplemented!` in non-test library code.
fn panic_safety(file: &str, t: &[Token], mask: &[bool], out: &mut Vec<Finding>) {
    for (i, tok) in t.iter().enumerate() {
        if mask[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "unwrap" if punct_at(t, i.wrapping_sub(1), ".") && punct_at(t, i + 1, "(") => {
                out.push(finding(
                    RULE_PANIC,
                    file,
                    tok.line,
                    "unwrap",
                    "`.unwrap()` in library code — propagate a typed error instead".into(),
                ));
            }
            "expect" if punct_at(t, i.wrapping_sub(1), ".") && punct_at(t, i + 1, "(") => {
                out.push(finding(
                    RULE_PANIC,
                    file,
                    tok.line,
                    "expect",
                    "`.expect(..)` in library code — propagate a typed error instead".into(),
                ));
            }
            name @ ("panic" | "unreachable" | "todo" | "unimplemented")
                if punct_at(t, i + 1, "!") =>
            {
                out.push(finding(
                    RULE_PANIC,
                    file,
                    tok.line,
                    &format!("{name}!"),
                    format!("`{name}!` in library code — return an error instead"),
                ));
            }
            _ => {}
        }
    }
}

/// `determinism-time`: `Instant::now` / `SystemTime::now` outside the
/// engine timing layer.
fn determinism_time(file: &str, t: &[Token], mask: &[bool], out: &mut Vec<Finding>) {
    for (i, tok) in t.iter().enumerate() {
        if mask[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        if matches!(tok.text.as_str(), "Instant" | "SystemTime")
            && punct_at(t, i + 1, "::")
            && ident_at(t, i + 2, "now")
        {
            let matched = format!("{}::now", tok.text);
            out.push(finding(
                RULE_TIME,
                file,
                tok.line,
                &matched,
                format!("`{matched}` outside engine::{{pool,trace,metrics}} — use the engine's measured durations"),
            ));
        }
    }
}

/// `thread-discipline`: `thread::spawn` / `thread::scope` /
/// `thread::Builder` outside `engine::pool`.
fn thread_discipline(file: &str, t: &[Token], mask: &[bool], out: &mut Vec<Finding>) {
    for (i, tok) in t.iter().enumerate() {
        if mask[i] || tok.kind != TokenKind::Ident || tok.text != "thread" {
            continue;
        }
        if punct_at(t, i + 1, "::") {
            if let Some(next) = t.get(i + 2) {
                if matches!(next.text.as_str(), "spawn" | "scope" | "Builder") {
                    let matched = format!("thread::{}", next.text);
                    out.push(finding(
                        RULE_THREAD,
                        file,
                        tok.line,
                        &matched,
                        format!("`{matched}` outside engine::pool — run work as engine stages"),
                    ));
                }
            }
        }
    }
}

/// `float-eq`: `==`/`!=` with a float literal (or NAN/INFINITY
/// constant) on either side. A token-level approximation of "no bare
/// float equality": literal comparisons are where the bugs live.
fn float_eq(file: &str, t: &[Token], mask: &[bool], out: &mut Vec<Finding>) {
    let floaty = |tok: Option<&Token>| {
        tok.is_some_and(|tok| {
            tok.kind == TokenKind::Float
                || (tok.kind == TokenKind::Ident
                    && matches!(tok.text.as_str(), "NAN" | "INFINITY" | "NEG_INFINITY"))
        })
    };
    for (i, tok) in t.iter().enumerate() {
        if mask[i] || tok.kind != TokenKind::Punct {
            continue;
        }
        if (tok.text == "==" || tok.text == "!=")
            && (floaty(i.checked_sub(1).and_then(|j| t.get(j))) || floaty(t.get(i + 1)))
        {
            out.push(finding(
                RULE_FLOAT,
                file,
                tok.line,
                &tok.text,
                format!(
                    "bare `{}` against a float — compare with a tolerance or restructure",
                    tok.text
                ),
            ));
        }
    }
}

/// Iteration methods whose order reflects hash-table layout.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifiers that make an iteration order-insensitive: sorts,
/// commutative reductions, and ordered collection targets.
const ORDER_SINKS: [&str; 22] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sum",
    "count",
    "fold",
    "all",
    "any",
    "max",
    "min",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "len",
    "contains",
    "contains_key",
    "is_empty",
    "BTreeMap",
];

const HASH_TYPES: [&str; 4] = ["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

/// `unordered-iter`: iteration over an identifier declared (in this
/// file) with a hash-map/set type, unless the statement feeds an
/// order-insensitive sink, collects into an ordered structure, or the
/// bound result is sorted within the next few statements.
fn unordered_iter(file: &str, t: &[Token], mask: &[bool], out: &mut Vec<Finding>) {
    // Pass 1: identifiers declared with a hash type — let bindings,
    // parameters, and struct fields (`name: FxHashMap<..>`, `name =
    // FxHashMap::default()`).
    let mut declared: Vec<&str> = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !HASH_TYPES.contains(&tok.text.as_str()) {
            continue;
        }
        let mut j = i as isize - 1;
        while let Some(prev) = usize::try_from(j).ok().and_then(|j| t.get(j)) {
            match (prev.kind, prev.text.as_str()) {
                (TokenKind::Punct, "&") | (TokenKind::Ident, "mut") | (TokenKind::Lifetime, _) => {
                    j -= 1
                }
                (TokenKind::Punct, "::") => j -= 2,
                _ => break,
            }
        }
        let (Ok(colon), Ok(name)) = (usize::try_from(j), usize::try_from(j - 1)) else {
            continue;
        };
        let named = t.get(name).filter(|n| n.kind == TokenKind::Ident);
        if let Some(n) = named {
            if punct_at(t, colon, ":") || punct_at(t, colon, "=") {
                declared.push(&n.text);
            }
        }
    }
    declared.sort_unstable();
    declared.dedup();
    let is_declared = |name: &str| declared.binary_search(&name).is_ok();

    // Pass 2a: `.iter()`-style calls on a declared receiver.
    for (i, tok) in t.iter().enumerate() {
        if mask[i]
            || tok.kind != TokenKind::Ident
            || !ITER_METHODS.contains(&tok.text.as_str())
            || !punct_at(t, i.wrapping_sub(1), ".")
            || !punct_at(t, i + 1, "(")
        {
            continue;
        }
        let Some(recv) = i.checked_sub(2).and_then(|j| t.get(j)) else {
            continue;
        };
        if recv.kind != TokenKind::Ident || !is_declared(&recv.text) {
            continue;
        }
        if sink_waived(t, i) {
            continue;
        }
        let matched = format!("{}.{}", recv.text, tok.text);
        out.push(finding(
            RULE_UNORDERED,
            file,
            tok.line,
            &matched,
            format!(
                "hash iteration `{matched}()` on a result-ordering path — sort it, use a BTreeMap, or feed an order-insensitive sink"
            ),
        ));
    }

    // Pass 2b: `for x in [&]map {` over a declared identifier.
    for (i, tok) in t.iter().enumerate() {
        if mask[i] || tok.kind != TokenKind::Ident || tok.text != "for" {
            continue;
        }
        // Find `in` at depth 0, then the loop body `{` at depth 0.
        let mut depth = 0i32;
        let mut k = i + 1;
        let mut in_idx = None;
        while let Some(cur) = t.get(k) {
            match (cur.kind, cur.text.as_str()) {
                (TokenKind::Punct, "(" | "[") => depth += 1,
                (TokenKind::Punct, ")" | "]") => depth -= 1,
                (TokenKind::Punct, "{") if depth == 0 => break,
                (TokenKind::Ident, "in") if depth == 0 => {
                    in_idx = Some(k);
                }
                _ => {}
            }
            if k - i > 64 {
                break;
            }
            k += 1;
        }
        let Some(in_idx) = in_idx else { continue };
        let expr: Vec<&Token> = t[in_idx + 1..k]
            .iter()
            .filter(|e| !(e.kind == TokenKind::Punct && e.text == "&") && e.text != "mut")
            .collect();
        let name = match expr.as_slice() {
            [only] if only.kind == TokenKind::Ident => &only.text,
            [s, dot, field]
                if s.text == "self" && dot.text == "." && field.kind == TokenKind::Ident =>
            {
                &field.text
            }
            _ => continue,
        };
        if is_declared(name) {
            let matched = format!("for .. in {name}");
            out.push(finding(
                RULE_UNORDERED,
                file,
                t[in_idx].line,
                &matched,
                format!(
                    "`{matched}` iterates a hash structure in arbitrary order — sort the keys first or use a BTreeMap"
                ),
            ));
        }
    }
}

/// True when the statement containing the iteration at token `i` ends
/// in an order-insensitive sink, or binds a `let` whose result is
/// sorted within the next few statements.
fn sink_waived(t: &[Token], i: usize) -> bool {
    // Forward scan to the end of the statement.
    let mut depth = 0i32;
    let mut j = i;
    let mut stmt_end = t.len();
    while let Some(tok) = t.get(j) {
        if tok.kind == TokenKind::Punct {
            match tok.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        stmt_end = j;
                        break;
                    }
                }
                ";" if depth <= 0 => {
                    stmt_end = j;
                    break;
                }
                _ => {}
            }
        } else if tok.kind == TokenKind::Ident
            && (ORDER_SINKS.contains(&tok.text.as_str())
                || matches!(tok.text.as_str(), "BTreeSet" | "BinaryHeap"))
        {
            return true;
        }
        if j - i > 250 {
            break;
        }
        j += 1;
    }
    // Backward scan for a `let` binding in the same statement.
    let mut k = i;
    let mut bound: Option<&str> = None;
    while k > 0 && i - k < 48 {
        k -= 1;
        let tok = &t[k];
        if tok.kind == TokenKind::Punct && (tok.text == ";" || tok.text == "{" || tok.text == "}") {
            break;
        }
        if tok.kind == TokenKind::Ident && tok.text == "let" {
            let name_idx = if ident_at(t, k + 1, "mut") {
                k + 2
            } else {
                k + 1
            };
            bound = t
                .get(name_idx)
                .filter(|n| n.kind == TokenKind::Ident)
                .map(|n| n.text.as_str());
            break;
        }
    }
    let Some(name) = bound else { return false };
    // Look a few statements ahead for `name.sort*(` on the binding.
    let mut m = stmt_end;
    while let Some(tok) = t.get(m) {
        if m - stmt_end > 90 {
            break;
        }
        if tok.kind == TokenKind::Ident
            && tok.text == name
            && punct_at(t, m + 1, ".")
            && t.get(m + 2)
                .is_some_and(|s| s.kind == TokenKind::Ident && s.text.starts_with("sort"))
        {
            return true;
        }
        m += 1;
    }
    false
}

/// `hot-path-alloc`: per-call heap allocation (`Vec::new`, `vec![..]`,
/// `.to_vec()`, `.collect()`, plus `.cell_of()` and `CellCoord::new(..)`,
/// which box a cell coordinate) inside a function whose preceding
/// own-line comment is exactly `// lint:hot`. The marker is the opt-in: unmarked functions
/// allocate freely, marked ones are the per-point loops (region queries,
/// planned queries) where an allocation per call dominates the profile.
fn hot_path_alloc(
    file: &str,
    t: &[Token],
    mask: &[bool],
    comments: &[lexer::Comment],
    out: &mut Vec<Finding>,
) {
    for c in comments {
        if !c.own_line {
            continue;
        }
        let body = match c.text.strip_prefix("//") {
            Some(r) if !r.starts_with('/') && !r.starts_with('!') => r,
            _ => continue,
        };
        if body.trim() != "lint:hot" {
            continue;
        }
        // The marked item starts at the first token after the comment;
        // its body is the first brace-balanced block from there.
        let Some(start) = t.iter().position(|tok| tok.line > c.line) else {
            continue;
        };
        let Some(open) = (start..t.len()).find(|&j| punct_at(t, j, "{")) else {
            continue;
        };
        let mut depth = 0i32;
        let mut end = t.len();
        for (j, tok) in t.iter().enumerate().skip(open) {
            if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end = j;
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        for j in open..end {
            if mask[j] {
                continue;
            }
            let tok = &t[j];
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let matched = match tok.text.as_str() {
                "Vec" if punct_at(t, j + 1, "::") && ident_at(t, j + 2, "new") => "Vec::new",
                "vec" if punct_at(t, j + 1, "!") => "vec!",
                "to_vec" if punct_at(t, j.wrapping_sub(1), ".") && punct_at(t, j + 1, "(") => {
                    ".to_vec()"
                }
                // `.collect()` and `.collect::<T>()`: a hot function that
                // needs a sum folds it with `.sum()` instead.
                "collect"
                    if punct_at(t, j.wrapping_sub(1), ".")
                        && (punct_at(t, j + 1, "(") || punct_at(t, j + 1, "::")) =>
                {
                    ".collect()"
                }
                // A boxed coordinate per call, e.g. per lattice point of
                // a window walk; hot loops read flat `i64` rows instead.
                "CellCoord"
                    if punct_at(t, j + 1, "::")
                        && ident_at(t, j + 2, "new")
                        && punct_at(t, j + 3, "(") =>
                {
                    "CellCoord::new"
                }
                // `GridSpec::cell_of` boxes a fresh `CellCoord` per call;
                // per-point loops write flat rows with `lattice_into`.
                "cell_of" if punct_at(t, j.wrapping_sub(1), ".") && punct_at(t, j + 1, "(") => {
                    ".cell_of()"
                }
                _ => continue,
            };
            out.push(finding(
                RULE_HOT_ALLOC,
                file,
                tok.line,
                matched,
                format!(
                    "`{matched}` allocates inside a `lint:hot` function — hoist the buffer to the caller or reuse scratch"
                ),
            ));
        }
    }
}

/// `forbid-unsafe`: any `unsafe` token (tests included), and a missing
/// `#![forbid(unsafe_code)]` on crate roots.
fn unsafe_code(file: &str, t: &[Token], scope: &FileScope, out: &mut Vec<Finding>) {
    for (i, tok) in t.iter().enumerate() {
        if tok.kind == TokenKind::Ident && tok.text == "unsafe" {
            // `forbid(unsafe_code)` mentions unsafe_code, not unsafe;
            // this match is the real keyword.
            let _ = i;
            out.push(finding(
                RULE_UNSAFE,
                file,
                tok.line,
                "unsafe",
                "`unsafe` is forbidden everywhere in this workspace".into(),
            ));
        }
    }
    if scope.is_crate_root {
        let has_forbid = t.windows(3).any(|w| {
            w[0].kind == TokenKind::Ident
                && w[0].text == "forbid"
                && w[1].text == "("
                && w[2].text == "unsafe_code"
        });
        if !has_forbid {
            out.push(finding(
                RULE_UNSAFE,
                file,
                1,
                "forbid(unsafe_code)",
                "crate root is missing `#![forbid(unsafe_code)]`".into(),
            ));
        }
    }
}
