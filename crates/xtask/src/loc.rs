//! `cargo xtask loc`: per-crate line counts, the size figure tracked
//! alongside the bench numbers.
//!
//! A crate's count is the number of non-blank lines in the `.rs` files
//! under its `src/`, leaving out `#[cfg(test)]` / `#[test]` items (as
//! [`lexer::test_mask`] marks them for the lint rules). Comments count:
//! they are code a reader has to read.

use crate::lexer;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Non-blank lines of one source file outside test items.
pub fn count_lines(src: &str) -> usize {
    let lexed = lexer::lex(src);
    let mask = lexer::test_mask(&lexed.tokens);
    // A test item spans the lines from its first masked token to its
    // last, comments and blank lines inside it included.
    let mut in_test = vec![false; src.lines().count() + 2];
    let mut i = 0;
    while i < mask.len() {
        if !mask[i] {
            i += 1;
            continue;
        }
        let first = lexed.tokens[i].line as usize;
        while i < mask.len() && mask[i] {
            i += 1;
        }
        let last = lexed.tokens[i - 1].line as usize;
        for slot in in_test.iter_mut().take(last + 1).skip(first) {
            *slot = true;
        }
    }
    src.lines()
        .enumerate()
        .filter(|&(n, line)| !line.trim().is_empty() && !in_test[n + 1])
        .count()
}

/// Line counts per crate of the workspace rooted at `root`, keyed by
/// crate directory name (`(root)` for the top-level package's `src/`).
pub fn count_workspace(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let mut sources = Vec::new();
    crate::walk(root, root, &mut sources, &mut Vec::new())?;
    let mut counts = BTreeMap::new();
    for rel in sources {
        let name = match rel.split('/').collect::<Vec<_>>().as_slice() {
            ["crates", name, "src", ..] => (*name).to_string(),
            ["src", ..] => "(root)".to_string(),
            _ => continue,
        };
        let src = fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        *counts.entry(name).or_insert(0) += count_lines(&src);
    }
    Ok(counts)
}

/// Renders the counts as an aligned table with a total row.
pub fn table(counts: &BTreeMap<String, usize>) -> String {
    let total: usize = counts.values().sum();
    let mut out = format!("{:<12} {:>7}\n", "crate", "lines");
    for (name, n) in counts {
        out.push_str(&format!("{name:<12} {n:>7}\n"));
    }
    out.push_str(&format!("{:<12} {total:>7}\n", "total"));
    out
}
