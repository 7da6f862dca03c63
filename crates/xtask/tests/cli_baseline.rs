//! `xtask lint --json P --baseline P`: the baseline is read before the
//! report overwrites it, so a finding missing from P fails the run.

use rpdbscan_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch lint root: a workspace manifest with no members and one
/// library file holding the panic-safety fixture's findings.
fn fixture_root() -> PathBuf {
    let root = std::env::temp_dir().join(format!("xtask-baseline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    std::fs::write(
        src.join("fixture.rs"),
        include_str!("../fixtures/panic_cases.rs"),
    )
    .unwrap();
    root
}

fn lint(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args([
            "lint",
            "--root",
            root.to_str().unwrap(),
            "--json",
            "LINT.json",
        ])
        .args(extra)
        .output()
        .unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8(out.stdout).unwrap(),
    )
}

#[test]
fn baseline_is_read_before_the_report_overwrites_it() {
    let root = fixture_root();
    let report = root.join("LINT.json");
    let (code, _) = lint(&root, &[]);
    assert_eq!(code, 1, "the fixture has findings");

    // Drop one finding from the written report.
    let Value::Object(mut doc) = Value::parse(&std::fs::read_to_string(&report).unwrap()).unwrap()
    else {
        panic!("report is not an object");
    };
    let Some(Value::Array(findings)) = doc.get_mut("findings") else {
        panic!("report has no findings array");
    };
    assert!(findings.len() >= 2, "fixture yields several findings");
    findings.pop();
    std::fs::write(&report, Value::Object(doc).to_string()).unwrap();

    // Same path as report and baseline: the dropped finding is new.
    let (code, stdout) = lint(&root, &["--baseline", "LINT.json"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains(": 1 new finding(s)"), "{stdout}");

    // That run rewrote the full report, so it now covers every finding.
    let (code, stdout) = lint(&root, &["--baseline", "LINT.json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains(": 0 new finding(s)"), "{stdout}");

    std::fs::remove_dir_all(&root).unwrap();
}
