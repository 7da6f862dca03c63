//! Workspace static analysis for the RP-DBSCAN repo.
//!
//! `cargo run -p xtask -- lint` scans every first-party source file
//! with a comment- and string-aware token scanner (no external parser
//! crates — the workspace builds offline) and enforces the invariants
//! DESIGN.md documents under "Invariants & static analysis":
//! determinism (no clock reads, no unordered hash iteration on result
//! paths), panic-safety (library code returns errors), thread and lock
//! discipline, float-comparison safety, `forbid(unsafe_code)`, and
//! offline-only dependencies.
//!
//! Findings can be silenced one line at a time with
//! `// lint:allow(<rule>): <reason>`; the reason is mandatory and every
//! allow must fire, so annotations stay honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomics;
pub mod baseline;
pub mod lexer;
pub mod loc;
pub mod locks;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod scope;
pub mod suppress;

use std::fs;
use std::path::{Path, PathBuf};

pub use report::LintReport;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", ".github", "fixtures"];

/// Runs the full lint over the workspace rooted at `root`.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    walk(root, root, &mut sources, &mut manifests)?;
    sources.sort();
    manifests.sort();

    let mut lock_fns = Vec::new();
    for rel in &sources {
        let Some(scope) = scope::classify(rel) else {
            continue;
        };
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        let outcome = rules::check_file(rel, &scope, &src);
        report.files_scanned += 1;
        report.findings.extend(outcome.findings);
        report.suppressed.extend(outcome.suppressed);
        lock_fns.extend(outcome.lock_fns);
    }

    // Workspace-wide passes. Both run after per-file suppression on
    // purpose: a lock-order cycle or an unclassified crate is a
    // structural defect, not a line to annotate away.
    report.findings.extend(locks::check_order(&lock_fns));
    report.findings.extend(scope_drift(root)?);

    for rel in &manifests {
        let src = fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        report.manifests_checked += 1;
        report.findings.extend(manifest::check_manifest(rel, &src));
    }

    // Vendored build scripts are flagged even though vendor/ source is
    // otherwise out of scope: a build.rs runs at compile time.
    let vendor = root.join("vendor");
    if vendor.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&vendor)
            .map_err(|e| format!("read vendor/: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for dir in entries {
            if dir.join("build.rs").is_file() {
                let rel = format!(
                    "vendor/{}/build.rs",
                    dir.file_name().unwrap_or_default().to_string_lossy()
                );
                report
                    .findings
                    .push(manifest::check_vendor_build_script(&rel));
            }
        }
    }

    report.findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.matched).cmp(&(&b.file, b.line, b.rule, &b.matched))
    });
    report.suppressed.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.matched).cmp(&(&b.file, b.line, b.rule, &b.matched))
    });
    Ok(report)
}

/// `scope-drift`: expands the `members` globs in the root `Cargo.toml`
/// and fails when a member under `crates/` has no classification in
/// [`scope`]. PRs 5 and 7 each added a crate and had to remember the
/// silent `scope.rs` hand-edit; this makes forgetting a lint failure.
fn scope_drift(root: &Path) -> Result<Vec<rules::Finding>, String> {
    let manifest_path = root.join("Cargo.toml");
    let src =
        fs::read_to_string(&manifest_path).map_err(|e| format!("read root Cargo.toml: {e}"))?;
    let mut findings = Vec::new();
    for (member, line) in manifest::workspace_members(&src) {
        if member.starts_with("vendor") {
            continue; // vendored stand-ins are out of lint scope by design
        }
        let mut dirs = Vec::new();
        if let Some(parent) = member.strip_suffix("/*") {
            let dir = root.join(parent);
            let entries = fs::read_dir(&dir).map_err(|e| format!("read {parent}/: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("walk {parent}/: {e}"))?;
                if entry.path().join("Cargo.toml").is_file() {
                    dirs.push(entry.file_name().to_string_lossy().into_owned());
                }
            }
        } else {
            dirs.push(
                member
                    .rsplit('/')
                    .next()
                    .unwrap_or(member.as_str())
                    .to_string(),
            );
        }
        dirs.sort();
        for dir in dirs {
            if !scope::is_known_crate(&dir) {
                findings.push(rules::Finding {
                    rule: rules::RULE_SCOPE_DRIFT,
                    file: "Cargo.toml".to_string(),
                    line,
                    matched: dir.clone(),
                    message: format!(
                        "workspace member `crates/{dir}` is not classified in \
                         xtask's scope.rs — add it to LIBRARY_CRATES or \
                         TOOL_CRATES so the lint regime covers it"
                    ),
                    reason: String::new(),
                });
            }
        }
    }
    Ok(findings)
}

/// Collects workspace-relative `.rs` and `Cargo.toml` paths.
fn walk(
    root: &Path,
    dir: &Path,
    sources: &mut Vec<String>,
    manifests: &mut Vec<String>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            walk(root, &path, sources, manifests)?;
            continue;
        }
        let Ok(rel) = path.strip_prefix(root) else {
            continue;
        };
        let rel = rel.to_string_lossy().replace('\\', "/");
        if name == "Cargo.toml" && !rel.starts_with("vendor/") {
            manifests.push(rel);
        } else if name.ends_with(".rs") && !rel.starts_with("vendor/") {
            sources.push(rel);
        }
    }
    Ok(())
}
