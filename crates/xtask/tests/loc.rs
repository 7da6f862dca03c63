//! `xtask loc` line counting over a fixture with a `#[cfg(test)]`
//! module, a `#[cfg(not(test))]` item, comments and blank lines.

#[test]
fn loc_counts_non_blank_lines_outside_test_items() {
    let src = include_str!("../fixtures/loc_cases.rs");
    assert_eq!(xtask::loc::count_lines(src), 8);
}
