//! Counted: 8 non-blank lines outside test items.

/// Doc comments count.
pub fn f() -> u32 {
    // So do plain comments; the blank line below does not.

    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_counted() {
        assert_eq!(f(), 1);
    }
}

#[cfg(not(test))]
pub fn g() {}
