//! Centralized parsing for the `SPLITBEAM_*` environment knobs.
//!
//! The few runtime knobs the workspace keeps (`SPLITBEAM_KERNEL`, the figure
//! binaries' workload sizes) are strings in the process environment. This
//! module is the single `var → trim → parse` implementation their readers
//! share.
//!
//! # Malformed values
//!
//! The contract, uniformly: **unset, blank, and malformed values all fall
//! back to the caller's default.** A typo in a knob can therefore never abort
//! a run — `SPLITBEAM_SAMPLES=fuor` behaves exactly like an unset
//! `SPLITBEAM_SAMPLES`. Each behavior is pinned by a test below.

use std::str::FromStr;

/// The raw value of `name`, trimmed; `None` when the variable is unset,
/// non-UTF-8, or blank.
pub fn raw(name: &str) -> Option<String> {
    std::env::var(name)
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

/// Parses `name` as a `T`; `None` when unset, blank, or malformed.
pub fn parse<T: FromStr>(name: &str) -> Option<T> {
    raw(name).and_then(|v| v.parse().ok())
}

/// Parses `name` as a `T`, falling back to `default` when unset, blank, or
/// malformed.
pub fn parse_or<T: FromStr>(name: &str, default: T) -> T {
    parse(name).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses a variable name unique to itself so the suite is safe
    // under cargo's default parallel test execution.

    #[test]
    fn raw_trims_and_drops_blank() {
        std::env::set_var("SPLITBEAM_ENVTEST_RAW", "  hello ");
        assert_eq!(raw("SPLITBEAM_ENVTEST_RAW").as_deref(), Some("hello"));
        std::env::set_var("SPLITBEAM_ENVTEST_RAW_BLANK", "   ");
        assert_eq!(raw("SPLITBEAM_ENVTEST_RAW_BLANK"), None);
        assert_eq!(raw("SPLITBEAM_ENVTEST_RAW_UNSET"), None);
    }

    #[test]
    fn parse_or_falls_back_on_malformed() {
        std::env::set_var("SPLITBEAM_ENVTEST_USIZE", "42");
        assert_eq!(parse_or::<usize>("SPLITBEAM_ENVTEST_USIZE", 7), 42);
        // The historical failure mode this module exists to pin down: a typo
        // must behave exactly like an unset variable.
        std::env::set_var("SPLITBEAM_ENVTEST_TYPO", "fuor");
        assert_eq!(parse_or::<usize>("SPLITBEAM_ENVTEST_TYPO", 7), 7);
        assert_eq!(parse::<usize>("SPLITBEAM_ENVTEST_TYPO"), None);
        std::env::set_var("SPLITBEAM_ENVTEST_NEG", "-3");
        assert_eq!(parse_or::<usize>("SPLITBEAM_ENVTEST_NEG", 7), 7);
        assert_eq!(parse_or::<i64>("SPLITBEAM_ENVTEST_NEG", 7), -3);
        std::env::set_var("SPLITBEAM_ENVTEST_F64", " 0.25 ");
        assert_eq!(parse_or::<f64>("SPLITBEAM_ENVTEST_F64", 0.0), 0.25);
        assert_eq!(parse_or::<u64>("SPLITBEAM_ENVTEST_UNSET", 9), 9);
    }
}
