//! Rule-engine tests over the fixture files in `crates/xtask/fixtures`.
//!
//! The `fixtures` directory is excluded from both the workspace walk
//! and `scope::classify`, so the deliberately-bad code in it never
//! pollutes a real `cargo run -p xtask -- lint`. These tests feed each
//! fixture through `rules::check_file` under a library scope and pin
//! the exact `(rule, line)` set — including the tricky negatives:
//! `unwrap` inside a string literal, `==` inside a comment, and
//! `lint:allow` without a reason.

use xtask::manifest;
use xtask::rules::{self, Finding};
use xtask::scope;

/// A scope with every rule active: library source in an ordered crate.
fn lib_scope() -> scope::FileScope {
    scope::classify("crates/core/src/fixture.rs").expect("library scope")
}

fn check(src: &str) -> rules::FileOutcome {
    rules::check_file("fixture.rs", &lib_scope(), src)
}

fn pairs(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn panic_rule_flags_real_sites_not_strings_comments_or_tests() {
    let out = check(include_str!("../fixtures/panic_cases.rs"));
    assert_eq!(
        pairs(&out.findings),
        vec![
            ("panic-safety", 6),  // v.unwrap()
            ("panic-safety", 19), // v.expect("present")
            ("panic-safety", 23), // panic!
            ("panic-safety", 27), // unreachable!
        ],
        "string literals, comments, and #[cfg(test)] must not fire: {:?}",
        out.findings
    );
    assert!(out.suppressed.is_empty());
}

#[test]
fn float_rule_flags_literal_comparisons_not_comments_or_ints() {
    let out = check(include_str!("../fixtures/float_cases.rs"));
    assert_eq!(
        pairs(&out.findings),
        vec![("float-eq", 6), ("float-eq", 10)],
        "{:?}",
        out.findings
    );
}

#[test]
fn allow_hygiene_reason_mandatory_unused_and_unknown_flagged() {
    let out = check(include_str!("../fixtures/allow_cases.rs"));
    // Line 8: the allow has no reason, so it is malformed AND the
    // unwrap it meant to cover survives. Line 16: allow that never
    // fires. Line 22: allow naming an unknown rule, unwrap survives.
    assert_eq!(
        pairs(&out.findings),
        vec![
            ("panic-safety", 8),
            ("suppression", 8),
            ("suppression", 16),
            ("panic-safety", 22),
            ("suppression", 22),
        ],
        "{:?}",
        out.findings
    );
    // The two well-formed allows suppress exactly their own targets,
    // carrying the mandatory reason through to the report.
    assert_eq!(
        pairs(&out.suppressed),
        vec![("panic-safety", 4), ("panic-safety", 13)]
    );
    assert!(out.suppressed.iter().all(|f| !f.reason.is_empty()));
}

#[test]
fn unordered_rule_flags_hash_iteration_waives_sorts_and_sinks() {
    let out = check(include_str!("../fixtures/ordering_cases.rs"));
    assert_eq!(
        pairs(&out.findings),
        vec![("unordered-iter", 7), ("unordered-iter", 15)],
        "sorted bindings and order-insensitive sinks must be waived: {:?}",
        out.findings
    );
}

#[test]
fn clock_and_thread_rules_fire_in_library_scope() {
    let out = check(include_str!("../fixtures/clock_thread_cases.rs"));
    assert_eq!(
        pairs(&out.findings),
        vec![
            ("determinism-time", 6),
            ("determinism-time", 10),
            ("thread-discipline", 14),
        ],
        "{:?}",
        out.findings
    );
}

#[test]
fn engine_timing_layer_may_read_clocks_and_spawn_threads() {
    let pool = scope::classify("crates/engine/src/pool.rs").expect("pool scope");
    let out = rules::check_file(
        "crates/engine/src/pool.rs",
        &pool,
        include_str!("../fixtures/clock_thread_cases.rs"),
    );
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn test_scope_only_runs_the_unsafe_scan() {
    let t = scope::classify("crates/core/tests/t.rs").expect("test scope");
    let out = rules::check_file(
        "crates/core/tests/t.rs",
        &t,
        include_str!("../fixtures/panic_cases.rs"),
    );
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn unsafe_flagged_everywhere_and_crate_roots_need_forbid() {
    let t = scope::classify("crates/core/tests/t.rs").expect("test scope");
    let out = rules::check_file("t.rs", &t, "pub fn f() {\n    unsafe {}\n}\n");
    assert_eq!(pairs(&out.findings), vec![("forbid-unsafe", 2)]);

    let root = scope::classify("crates/geom/src/lib.rs").expect("crate root");
    assert!(root.is_crate_root);
    let out = rules::check_file("lib.rs", &root, "//! docs\npub fn f() {}\n");
    assert_eq!(pairs(&out.findings), vec![("forbid-unsafe", 1)]);
    let out = rules::check_file("lib.rs", &root, "#![forbid(unsafe_code)]\npub fn f() {}\n");
    assert!(out.findings.is_empty());
}

#[test]
fn serve_is_a_full_library_and_ordered_crate() {
    // The serving layer sits on the read path of published clusterings:
    // it gets the complete rule set (panic-safety, thread discipline,
    // clock bans) plus the ordered-iteration rule, like core/stream/grid.
    let s = scope::classify("crates/serve/src/index.rs").expect("library scope");
    assert!(s.panic_safety());
    assert!(s.determinism_time());
    assert!(s.thread_discipline());
    assert!(s.unordered_iter());
    let out = rules::check_file(
        "crates/serve/src/index.rs",
        &s,
        "pub fn f() {\n    let x: Option<u32> = None;\n    x.unwrap();\n    \
         std::thread::spawn(|| {});\n    let _ = std::time::Instant::now();\n}\n",
    );
    let names: Vec<&str> = out.findings.iter().map(|f| f.rule).collect();
    assert!(names.contains(&"panic-safety"), "{names:?}");
    assert!(names.contains(&"thread-discipline"), "{names:?}");
    assert!(names.contains(&"determinism-time"), "{names:?}");

    let root = scope::classify("crates/serve/src/lib.rs").expect("crate root");
    assert!(
        root.is_crate_root,
        "serve lib.rs must carry forbid(unsafe_code)"
    );
}

#[test]
fn density_is_a_full_library_and_ordered_crate() {
    // The density backends decide core-point status — a result-shaped
    // path — so they get the complete rule set plus ordered iteration,
    // exactly like core/stream/grid/serve.
    let s = scope::classify("crates/density/src/knn.rs").expect("library scope");
    assert!(s.panic_safety());
    assert!(s.determinism_time());
    assert!(s.thread_discipline());
    assert!(s.float_eq());
    assert!(s.unordered_iter());
    let out = rules::check_file(
        "crates/density/src/knn.rs",
        &s,
        "pub fn f() {\n    let m: std::collections::HashMap<u32, u32> = Default::default();\n    \
         for (k, v) in &m {\n        println!(\"{k}{v}\");\n    }\n    \
         let x: Option<u32> = None;\n    x.unwrap();\n}\n",
    );
    let names: Vec<&str> = out.findings.iter().map(|f| f.rule).collect();
    assert!(names.contains(&"panic-safety"), "{names:?}");
    assert!(names.contains(&"unordered-iter"), "{names:?}");

    let root = scope::classify("crates/density/src/lib.rs").expect("crate root");
    assert!(
        root.is_crate_root,
        "density lib.rs must carry forbid(unsafe_code)"
    );
    // Its tests directory only gets the unsafe scan, like every crate.
    let t = scope::classify("crates/density/tests/exact_equivalence.rs").expect("test scope");
    assert!(!t.panic_safety());
    assert!(!t.unordered_iter());
}

#[test]
fn store_is_a_full_library_and_ordered_crate() {
    // The column store feeds coordinates straight into Phase II and the
    // spill merge — result-shaped bytes — so it gets the complete rule
    // set plus ordered iteration, exactly like core/stream/grid/serve/
    // density. Its page-read path is `// lint:hot`-marked, so per-call
    // allocations there must keep tripping hot-path-alloc.
    let s = scope::classify("crates/store/src/gather.rs").expect("library scope");
    assert!(s.panic_safety());
    assert!(s.determinism_time());
    assert!(s.thread_discipline());
    assert!(s.float_eq());
    assert!(s.unordered_iter());
    let out = rules::check_file(
        "crates/store/src/gather.rs",
        &s,
        "pub fn f() {\n    let m: std::collections::HashMap<u32, u32> = Default::default();\n    \
         for (k, v) in &m {\n        println!(\"{k}{v}\");\n    }\n    \
         let x: Option<u32> = None;\n    x.unwrap();\n}\n\
         // lint:hot\nfn page_read() {\n    let buf: Vec<u8> = Vec::new();\n    drop(buf);\n}\n",
    );
    let names: Vec<&str> = out.findings.iter().map(|f| f.rule).collect();
    assert!(names.contains(&"panic-safety"), "{names:?}");
    assert!(names.contains(&"unordered-iter"), "{names:?}");
    assert!(names.contains(&"hot-path-alloc"), "{names:?}");

    let root = scope::classify("crates/store/src/lib.rs").expect("crate root");
    assert!(
        root.is_crate_root,
        "store lib.rs must carry forbid(unsafe_code)"
    );
    // Its tests directory only gets the unsafe scan, like every crate.
    let t = scope::classify("crates/store/tests/store_integrity.rs").expect("test scope");
    assert!(!t.panic_safety());
    assert!(!t.unordered_iter());
}

#[test]
fn fixtures_are_out_of_scope_for_the_workspace_walk() {
    assert!(scope::classify("crates/xtask/fixtures/panic_cases.rs").is_none());
    assert!(scope::classify("vendor/foo/src/lib.rs").is_none());
}

#[test]
fn manifests_registry_deps_flagged_offline_forms_pass() {
    let good = r#"
[dependencies]
foo = { path = "../foo" }
bar.workspace = true
baz = { workspace = true }

[dependencies.quux]
path = "../quux"

[features]
default = []
"#;
    assert!(manifest::check_manifest("Cargo.toml", good).is_empty());

    let bad = "[dependencies]\nserde = \"1.0\"\n\n[dependencies.tokio]\nversion = \"1\"\n";
    let f = manifest::check_manifest("Cargo.toml", bad);
    assert_eq!(
        f.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
        vec![("offline-deps", 2), ("offline-deps", 4)],
        "{f:?}"
    );
}

#[test]
fn hot_alloc_rule_is_marker_scoped_and_suppressible() {
    let out = check(include_str!("../fixtures/hot_alloc_cases.rs"));
    assert_eq!(
        pairs(&out.findings),
        vec![
            ("hot-path-alloc", 5),  // Vec::new in a marked fn
            ("hot-path-alloc", 6),  // vec![..] in a marked fn
            ("hot-path-alloc", 7),  // .to_vec() in a marked fn
            ("hot-path-alloc", 33), // .to_vec() in a marked const-generic kernel fn
            ("hot-path-alloc", 39), // .collect() in a marked fn
            ("hot-path-alloc", 40), // .collect::<Vec<_>>() in a marked fn
            ("hot-path-alloc", 57), // .cell_of() boxes a coordinate in a marked fn
            ("hot-path-alloc", 63), // CellCoord::new boxes a coordinate in a marked fn
        ],
        "unmarked functions, comments, strings, and Vec::with_capacity \
         in the gather path must not fire: {:?}",
        out.findings
    );
    assert_eq!(pairs(&out.suppressed), vec![("hot-path-alloc", 27)]);
}
