//! CLI for the workspace static analyzer.
//!
//! ```text
//! cargo run -p xtask -- lint [--json PATH] [--baseline PATH] [--root PATH]
//! cargo run -p xtask -- rules
//! cargo run -p xtask -- loc [--root PATH]
//! ```
//!
//! `lint` exits 0 when no unsuppressed finding survives, 1 when
//! findings remain, 2 on usage or I/O errors. With `--baseline` the
//! gate shifts to *new* findings: anything already recorded in the
//! given `LINT.json` (keyed by rule/file/match, not line) is reported
//! but does not fail the run.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo run -p xtask -- <command>

commands:
  lint [--json PATH] [--baseline PATH] [--root PATH]
        scan the workspace; write LINT.json; with --baseline, fail only
        on findings not present in the given report
  rules
        list the rules and what they enforce
  loc [--root PATH]
        print non-blank, non-test source lines per crate
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("rules") => {
            print!("{}", xtask::report::rules_listing());
            ExitCode::SUCCESS
        }
        Some("loc") => loc(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut root = workspace_root();
    let mut json_path: Option<PathBuf> = Some(PathBuf::from("LINT.json"));
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage_err("--root needs a path"),
            },
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage_err("--json needs a path"),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage_err("--baseline needs a path"),
            },
            "--no-json" => json_path = None,
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }

    // Read the baseline before the report is written: `--json P
    // --baseline P` must diff against the old P, not the new scan.
    let baseline = match baseline_path.map(|p| abs(&root, p)) {
        Some(path) => {
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("xtask lint: read baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match xtask::baseline::Baseline::parse(&src) {
                Ok(b) => Some((path, b)),
                Err(e) => {
                    eprintln!("xtask lint: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };
    let report = match xtask::run_lint(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.human());
    if let Some(path) = json_path.map(|p| abs(&root, p)) {
        let mut text = report.json().to_string();
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("xtask lint: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("  report: {}", path.display());
    }
    if let Some((path, base)) = baseline {
        let new = base.new_findings(&report.findings);
        for f in &new {
            println!("  NEW {}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        println!(
            "  baseline {}: {} new finding(s)",
            path.display(),
            new.len()
        );
        return if new.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `path` resolved against the scanned root when relative.
fn abs(root: &Path, path: PathBuf) -> PathBuf {
    if path.is_absolute() {
        path
    } else {
        root.join(path)
    }
}

fn loc(args: &[String]) -> ExitCode {
    let root = match args {
        [] => workspace_root(),
        [flag, path] if flag == "--root" => PathBuf::from(path),
        _ => return usage_err("loc takes only `--root PATH`"),
    };
    match xtask::loc::count_workspace(&root) {
        Ok(counts) => {
            print!("{}", xtask::loc::table(&counts));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask loc: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("xtask: {msg}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// The workspace root: CARGO_MANIFEST_DIR is `crates/xtask`, two up.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
