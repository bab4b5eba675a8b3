//! Fixture tests for the repo-invariant lint engine. Each rule gets a
//! passing and a failing source, fed through [`lint_sources`] — the same
//! engine the `lint` binary runs over the repo — plus allowlist
//! suppression, staleness, and round-trip coverage.

use splitbeam_analysis::lint::{
    format_allowlist, lint_sources, parse_allowlist, Allowlist, LintReport, RULE_DENY_UNSAFE_OP,
    RULE_ENV_ACCESS, RULE_FEATURE_DETECT, RULE_INGEST_UNWRAP, RULE_KERNEL_PARITY_TEST,
    RULE_KNOB_DOCS, RULE_MANIFEST_DEPS, RULE_ONE_KERNEL_LOCK, RULE_ROADMAP_ITEMS,
    RULE_SAFETY_COMMENT, RULE_SERVE_UNORDERED_MAP, RULE_TEST_ONLY_PUB, RULE_WALL_CLOCK,
};

fn lint_one(path: &str, text: &str) -> LintReport {
    lint_sources(
        &[(path.to_string(), text.to_string())],
        &Allowlist::default(),
    )
}

fn rules_of(report: &LintReport) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn undocumented_unsafe_block_is_flagged() {
    let bad = r#"
#![deny(unsafe_op_in_unsafe_fn)]
pub fn read(p: *const u32) -> u32 {
    unsafe { *p }
}
"#;
    let report = lint_one("crates/demo/src/lib.rs", bad);
    assert_eq!(rules_of(&report), vec![RULE_SAFETY_COMMENT]);
    assert_eq!(report.violations[0].line, 4);

    let good = r#"
#![deny(unsafe_op_in_unsafe_fn)]
pub fn read(p: *const u32) -> u32 {
    // SAFETY: caller guarantees `p` is valid and aligned.
    unsafe { *p }
}
"#;
    assert!(lint_one("crates/demo/src/lib.rs", good).clean());
}

#[test]
fn safety_comment_must_be_within_lookback() {
    let too_far = r#"
#![deny(unsafe_op_in_unsafe_fn)]
// SAFETY: this justification is stranded six lines above the site.
//
//
//
//
pub fn read(p: *const u32) -> u32 {
    unsafe { *p }
}
"#;
    let report = lint_one("crates/demo/src/lib.rs", too_far);
    assert_eq!(rules_of(&report), vec![RULE_SAFETY_COMMENT]);
}

#[test]
fn unsafe_fn_declarations_are_not_flagged_but_impls_are() {
    // An `unsafe fn` documents its contract in `# Safety` rustdoc; no
    // SAFETY comment is demanded at the declaration.
    let decl = r#"
#![deny(unsafe_op_in_unsafe_fn)]
/// # Safety
/// `p` must be valid.
pub unsafe fn read(p: *const u32) -> u32 {
    // SAFETY: contract forwarded from the caller.
    unsafe { *p }
}
"#;
    assert!(lint_one("crates/demo/src/lib.rs", decl).clean());

    let bare_impl = "#![deny(unsafe_op_in_unsafe_fn)]\npub struct S;\nunsafe impl Send for S {}\n";
    let report = lint_one("crates/demo/src/lib.rs", bare_impl);
    assert_eq!(rules_of(&report), vec![RULE_SAFETY_COMMENT]);
}

#[test]
fn unsafe_in_tests_and_comments_is_ignored() {
    let text = r#"
// This comment mentions unsafe { } and needs no justification.
pub const DOC: &str = "unsafe { also just data }";
#[cfg(test)]
mod tests {
    #[test]
    fn probe() {
        let x = 7u32;
        let _ = unsafe { *(&x as *const u32) };
    }
}
"#;
    assert!(lint_one("crates/demo/src/lib.rs", text).clean());
}

#[test]
fn unsafe_crate_without_deny_attr_is_flagged_at_its_root() {
    let root = (
        "crates/demo/src/lib.rs".to_string(),
        "pub mod inner;\n".to_string(),
    );
    let inner = (
        "crates/demo/src/inner.rs".to_string(),
        "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n"
            .to_string(),
    );
    let report = lint_sources(&[root.clone(), inner.clone()], &Allowlist::default());
    assert_eq!(rules_of(&report), vec![RULE_DENY_UNSAFE_OP]);
    assert_eq!(report.violations[0].path, "crates/demo/src/lib.rs");

    let fixed_root = (
        "crates/demo/src/lib.rs".to_string(),
        "#![deny(unsafe_op_in_unsafe_fn)]\npub mod inner;\n".to_string(),
    );
    let report = lint_sources(&[fixed_root, inner], &Allowlist::default());
    assert!(report.clean(), "unexpected: {:?}", report.violations);
}

#[test]
fn wall_clock_is_banned_only_in_virtual_time_crates() {
    let text = "use std::time::Instant;\npub fn now() -> Instant { Instant::now() }\n";
    let report = lint_one("crates/splitbeam-serve/src/timing.rs", text);
    assert!(rules_of(&report).iter().all(|r| *r == RULE_WALL_CLOCK));
    assert!(!report.violations.is_empty());

    // Outside the virtual-time crates the same code is fine.
    assert!(lint_one("crates/mimo-math/src/kernel/tune.rs", text).clean());

    // Mentions in comments/strings and test modules don't count, and
    // identifiers merely *containing* the token don't either.
    let benign = r#"
// Instant is banned here; this comment is not code.
pub const LABEL: &str = "SystemTime";
pub struct InstantaneousRate(pub f64);
#[cfg(test)]
mod tests {
    use std::time::Instant;
    #[test]
    fn probe() {
        let _ = Instant::now();
    }
}
"#;
    assert!(lint_one("crates/splitbeam-hwsim/src/event.rs", benign).clean());
}

#[test]
fn raw_splitbeam_env_reads_are_flagged_outside_the_env_module() {
    let text =
        "pub fn kernel() -> Option<String> {\n    std::env::var(\"SPLITBEAM_KERNEL\").ok()\n}\n";
    let report = lint_one("crates/splitbeam/src/model.rs", text);
    assert_eq!(rules_of(&report), vec![RULE_ENV_ACCESS]);

    // The blessed module may read raw.
    assert!(lint_one("crates/mimo-math/src/env.rs", text).clean());

    // Non-SPLITBEAM variables are out of scope for this rule.
    let other = "pub fn home() -> Option<String> {\n    std::env::var(\"HOME\").ok()\n}\n";
    assert!(lint_one("crates/splitbeam/src/model.rs", other).clean());

    // rustfmt may wrap the variable name onto the following line.
    let wrapped =
        "pub fn kernel() -> Option<String> {\n    std::env::var(\n        \"SPLITBEAM_KERNEL\",\n    ).ok()\n}\n";
    let report = lint_one("crates/splitbeam/src/model.rs", wrapped);
    assert_eq!(rules_of(&report), vec![RULE_ENV_ACCESS]);
}

#[test]
fn library_knobs_must_have_a_readme_table_row() {
    let readme = "# Demo\n\nProse may mention `SPLITBEAM_PROSE_ONLY` freely.\n\n\
                  | Variable | Meaning |\n|---|---|\n| `SPLITBEAM_SHARDS` | shard count |\n";
    let reads = |name: &str| format!("pub fn n() -> usize {{\n    parse_or(\"{name}\", 1)\n}}\n");
    // Every run also carries a reader of the documented knob, so its row is
    // live and only the file under test can trip the rule.
    let lint = |path: &str, text: String| {
        lint_sources(
            &[
                (path.to_string(), text),
                (
                    "crates/other/src/lib.rs".to_string(),
                    reads("SPLITBEAM_SHARDS"),
                ),
                ("README.md".to_string(), readme.to_string()),
            ],
            &Allowlist::default(),
        )
    };
    // A documented knob is fine; an undocumented one, or one the README
    // mentions only in prose, is flagged at the line that reads it.
    assert!(lint("crates/demo/src/lib.rs", reads("SPLITBEAM_SHARDS")).clean());
    for name in ["SPLITBEAM_SECRET", "SPLITBEAM_PROSE_ONLY"] {
        let report = lint("crates/demo/src/lib.rs", reads(name));
        assert_eq!(rules_of(&report), vec![RULE_KNOB_DOCS], "{name}");
        assert_eq!(report.violations[0].line, 2);
    }
    // A documented name must match whole, not as a prefix.
    let report = lint("crates/demo/src/lib.rs", reads("SPLITBEAM_SHARDS_MAX"));
    assert_eq!(rules_of(&report), vec![RULE_KNOB_DOCS]);

    // Binaries, tests and mentions in comments are out of scope.
    assert!(lint("crates/demo/src/bin/tool.rs", reads("SPLITBEAM_SECRET")).clean());
    assert!(lint("crates/demo/tests/it.rs", reads("SPLITBEAM_SECRET")).clean());
    let commented = "// set \"SPLITBEAM_SECRET\" to taste\npub fn n() {}\n".to_string();
    assert!(lint("crates/demo/src/lib.rs", commented).clean());
    let in_tests = format!(
        "#[cfg(test)]\nmod tests {{\n{}}}\n",
        reads("SPLITBEAM_SECRET")
    );
    assert!(lint("crates/demo/src/lib.rs", in_tests).clean());

    // Without a README in the source set the rule is skipped.
    assert!(lint_one("crates/demo/src/lib.rs", &reads("SPLITBEAM_SECRET")).clean());
}

#[test]
fn knob_table_rows_must_name_a_variable_some_code_reads() {
    let readme = "# Demo\n\n| Variable | Meaning |\n|---|---|\n\
                  | `SPLITBEAM_SHARDS` | shard count |\n| `SPLITBEAM_GONE` | nothing |\n";
    let reads = |name: &str| format!("pub fn n() -> usize {{\n    parse_or(\"{name}\", 1)\n}}\n");
    let lint = |sources: &[(&str, String)]| {
        let mut all: Vec<(String, String)> = sources
            .iter()
            .map(|(path, text)| (path.to_string(), text.clone()))
            .collect();
        all.push(("README.md".to_string(), readme.to_string()));
        lint_sources(&all, &Allowlist::default())
    };
    // Library code reads one knob, a binary the other: every row is live.
    let live = [
        ("crates/demo/src/lib.rs", reads("SPLITBEAM_SHARDS")),
        ("crates/demo/src/bin/tool.rs", reads("SPLITBEAM_GONE")),
    ];
    assert!(lint(&live).clean());

    // A row whose only readers are a test file and a longer name is dead, and
    // is reported at its README line.
    let dead = [
        ("crates/demo/src/lib.rs", reads("SPLITBEAM_SHARDS")),
        ("crates/demo/tests/it.rs", reads("SPLITBEAM_GONE")),
        ("crates/demo/src/bin/tool.rs", reads("SPLITBEAM_GONE_TOO")),
    ];
    let report = lint(&dead);
    assert_eq!(rules_of(&report), vec![RULE_KNOB_DOCS]);
    assert_eq!(
        (
            report.violations[0].path.as_str(),
            report.violations[0].line
        ),
        ("README.md", 6)
    );
}

#[test]
fn allowlist_reasons_must_cite_items_the_roadmap_carries() {
    let allow = parse_allowlist(
        "test-only-pub|crates/demo/src/lib.rs|pub fn objective(|product surface: \
         the objective ROADMAP item 8 will call\n\
         test-only-pub|crates/demo/src/lib.rs|pub fn handoff(|product surface: \
         what ROADMAP item 1(c)'s roaming stage will call\n",
    )
    .unwrap();
    let lint = |roadmap: &str| {
        let sources = [("ROADMAP.md".to_string(), roadmap.to_string())];
        lint_sources(&sources, &allow).violations
    };
    // Item 1 is open and item 8 closed: both resolve (the two entries are
    // stale here, which is another report).
    let carried = "## Open items\n\n1. **Unfreeze the benchmark.** Text.\n\n\
                   _Closed:_\n- _Item 8, the served budget: done._\n";
    assert!(lint(carried).is_empty(), "{:#?}", lint(carried));
    // Item 8 gone, its number only inside longer ones and an indented list:
    // the entry citing it fails, at the allowlist.
    let dropped = "1. **Unfreeze the benchmark.**\n   8. **a sub-step**\n\
                   18. **Another item.**\n- _Item 81, elsewhere._\n";
    let violations = lint(dropped);
    let found: Vec<_> = violations
        .iter()
        .map(|v| (v.rule, v.path.as_str()))
        .collect();
    assert_eq!(found, vec![(RULE_ROADMAP_ITEMS, "lint_allowlist.txt")]);
    assert!(violations[0].message.contains("ROADMAP item 8,"));
}

#[test]
fn unwrap_on_the_ingest_path_is_flagged() {
    let text = "pub fn decode(b: &[u8]) -> u8 {\n    b.first().copied().unwrap()\n}\n";
    let report = lint_one("crates/splitbeam-serve/src/session.rs", text);
    assert_eq!(rules_of(&report), vec![RULE_INGEST_UNWRAP]);

    let expecting =
        "pub fn decode(b: &[u8]) -> u8 {\n    b.first().copied().expect(\"frame\")\n}\n";
    let report = lint_one("crates/splitbeam-serve/src/shard.rs", expecting);
    assert_eq!(rules_of(&report), vec![RULE_INGEST_UNWRAP]);

    // Off the ingest path the same code is allowed.
    assert!(lint_one("crates/splitbeam-serve/src/driver.rs", text).clean());

    // Test modules inside ingest files may unwrap freely.
    let in_tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn probe() {\n        let v: Option<u8> = Some(1);\n        v.unwrap();\n    }\n}\n";
    assert!(lint_one("crates/splitbeam-serve/src/server.rs", in_tests).clean());
}

#[test]
fn allowlist_suppresses_matching_violations_and_reports_stale_entries() {
    let text = "pub fn decode(b: &[u8]) -> u8 {\n    b.first().copied().unwrap()\n}\n";
    let sources = [(
        "crates/splitbeam-serve/src/session.rs".to_string(),
        text.to_string(),
    )];

    let allow = parse_allowlist(
        "ingest-unwrap|crates/splitbeam-serve/src/session.rs|b.first()|slice is length-checked by the caller\n",
    )
    .unwrap();
    let report = lint_sources(&sources, &allow);
    assert!(
        report.clean(),
        "entry should suppress: {:?}",
        report.violations
    );

    // A needle that matches nothing leaves the violation AND goes stale.
    let allow = parse_allowlist(
        "ingest-unwrap|crates/splitbeam-serve/src/session.rs|no_such_call|reason long enough here\n",
    )
    .unwrap();
    let report = lint_sources(&sources, &allow);
    assert_eq!(rules_of(&report), vec![RULE_INGEST_UNWRAP]);
    assert_eq!(report.stale_allowlist.len(), 1);
    assert!(!report.clean());

    // `*` wildcards the needle but stays pinned to rule + path.
    let allow = parse_allowlist(
        "ingest-unwrap|crates/splitbeam-serve/src/session.rs|*|vetted: the caller guarantees one byte\n",
    )
    .unwrap();
    assert!(lint_sources(&sources, &allow).clean());
}

#[test]
fn allowlist_parser_rejects_malformed_and_thin_entries() {
    assert!(parse_allowlist("only|three|fields\n").is_err());
    assert!(
        parse_allowlist("rule|path|needle|short\n").is_err(),
        "a sub-10-char reason must be rejected"
    );
    assert!(parse_allowlist("|path|needle|reason is long enough\n").is_err());

    // Comments and blank lines are fine.
    let allow =
        parse_allowlist("# header\n\nwall-clock|a/src/b.rs|Instant|vetted wall-clock probe\n")
            .unwrap();
    assert_eq!(allow.entries.len(), 1);
}

#[test]
fn allowlist_round_trips_through_format_and_parse() {
    let original = parse_allowlist(
        "wall-clock|crates/x/src/a.rs|Instant::now|calibration probe, not sim time\n\
         safety-comment|crates/y/src/b.rs|*|legacy block awaiting the audit\n",
    )
    .unwrap();
    let reparsed = parse_allowlist(&format_allowlist(&original)).unwrap();
    assert_eq!(original.entries, reparsed.entries);
}

#[test]
fn test_directories_are_exempt_wholesale() {
    let text = "use std::time::Instant;\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert!(lint_one("crates/splitbeam-serve/tests/ring_stress.rs", text).clean());
    assert!(lint_one("tests/serving_layer.rs", text).clean());
}

#[test]
fn hash_collections_are_banned_in_the_serving_crate() {
    let map = "use std::collections::HashMap;\npub struct S {\n    by_id: HashMap<u64, u32>,\n}\n";
    let report = lint_one("crates/splitbeam-serve/src/server.rs", map);
    assert_eq!(
        rules_of(&report),
        vec![RULE_SERVE_UNORDERED_MAP, RULE_SERVE_UNORDERED_MAP]
    );
    assert_eq!(report.violations[0].line, 1);

    let set = "pub fn dedup(ids: &[u64]) -> usize {\n    let s: std::collections::HashSet<u64> = ids.iter().copied().collect();\n    s.len()\n}\n";
    let report = lint_one("crates/splitbeam-serve/src/fleet.rs", set);
    assert_eq!(rules_of(&report), vec![RULE_SERVE_UNORDERED_MAP]);

    // BTreeMap is the blessed keyed store.
    let good =
        "use std::collections::BTreeMap;\npub struct S {\n    by_id: BTreeMap<u64, u32>,\n}\n";
    assert!(lint_one("crates/splitbeam-serve/src/server.rs", good).clean());
}

#[test]
fn hash_collections_outside_the_serving_crate_are_fine() {
    let text = "use std::collections::HashMap;\npub fn f() -> HashMap<u64, u64> {\n    HashMap::new()\n}\n";
    assert!(lint_one("crates/bench/src/bin/fleet_report.rs", text).clean());
    assert!(lint_one("crates/splitbeam-analysis/src/lint.rs", text).clean());
}

#[test]
fn hash_words_in_comments_strings_and_tests_are_ignored() {
    let prose = "// A HashMap would be wrong here; see the slab.\npub fn f() -> &'static str {\n    \"no HashSet either\"\n}\n";
    assert!(lint_one("crates/splitbeam-serve/src/slab.rs", prose).clean());

    let in_tests = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn probe() {\n        let _ = HashMap::<u64, u64>::new();\n    }\n}\n";
    assert!(lint_one("crates/splitbeam-serve/src/slab.rs", in_tests).clean());

    // Identifier substrings must not trip the word-boundary match.
    let ident = "pub fn f(rehashmapping: u64) -> u64 {\n    rehashmapping\n}\n";
    assert!(lint_one("crates/splitbeam-serve/src/server.rs", ident).clean());
}

#[test]
fn unordered_map_violations_are_allowlistable() {
    let text = "use std::collections::HashMap;\npub fn f() {}\n";
    let allow = parse_allowlist(
        "serve-unordered-map|crates/splitbeam-serve/src/server.rs|HashMap|vetted: local scratch map, never iterated into output\n",
    )
    .unwrap();
    let report = lint_sources(
        &[(
            "crates/splitbeam-serve/src/server.rs".to_string(),
            text.to_string(),
        )],
        &allow,
    );
    assert!(report.clean());
}

#[test]
fn the_kernel_override_is_called_only_by_its_crate_and_the_test_kit() {
    let pins = "pub fn pin() {\n    mimo_math::kernel::set_kernel(None);\n}\n";
    // Its own crate and the kit may; product code, integration tests and
    // `mod tests` regions — where the copies of the lock lived — may not.
    assert!(lint_one("crates/mimo-math/src/kernel.rs", pins).clean());
    assert!(lint_one("crates/splitbeam-testkit/src/lib.rs", pins).clean());
    let in_mod_tests = format!("#[cfg(test)]\nmod tests {{\n{pins}}}\n");
    for (path, text) in [
        ("crates/splitbeam-serve/src/server.rs", pins),
        ("tests/kernel_dispatch.rs", pins),
        ("crates/splitbeam-serve/tests/parity.rs", pins),
        ("crates/neural/src/layer.rs", in_mod_tests.as_str()),
    ] {
        let report = lint_one(path, text);
        assert_eq!(rules_of(&report), vec![RULE_ONE_KERNEL_LOCK], "{path}");
    }
    assert_eq!(
        lint_one("tests/kernel_dispatch.rs", pins).violations[0].line,
        2
    );

    // Mentions in comments and strings, longer identifiers and the kit's own
    // wrappers are not calls.
    let benign = "// set_kernel(None) is the kit's job\npub const S: &str = \"set_kernel(\";\n\
                  pub fn f() {\n    reset_kernel(1);\n    with_kernel(choice, || ());\n}\n";
    assert!(lint_one("tests/close_matrix.rs", benign).clean());
}

#[test]
fn feature_detection_happens_only_in_backend_host() {
    let host = r#"
pub enum Backend { Scalar, Avx2 }
impl Backend {
    pub fn host() -> Backend {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") { Backend::Avx2 } else { Backend::Scalar }
    }
}
"#;
    assert!(lint_one("crates/mimo-math/src/kernel.rs", host).clean());
    // A `host` anywhere else is not the one.
    let report = lint_one("crates/neural/src/kernel.rs", host);
    assert_eq!(rules_of(&report), vec![RULE_FEATURE_DETECT]);
    assert_eq!(report.violations[0].line, 5);

    // A second probe — in another function of the same file, another
    // crate, or a test — is a second decision.
    let probe =
        "pub fn has_avx2() -> bool {\n    std::arch::is_x86_feature_detected!(\"avx2\")\n}\n";
    for path in [
        "crates/mimo-math/src/kernel.rs",
        "crates/mimo-math/src/kernel/int8.rs",
        "crates/neural/src/quant.rs",
        "tests/kernel_dispatch.rs",
    ] {
        let report = lint_one(path, probe);
        assert_eq!(rules_of(&report), vec![RULE_FEATURE_DETECT], "{path}");
        assert_eq!(report.violations[0].line, 2, "{path}");
    }
    let in_mod_tests = format!("#[cfg(test)]\nmod tests {{\n{probe}}}\n");
    let report = lint_one("crates/mimo-math/src/kernel/int8.rs", &in_mod_tests);
    assert_eq!(rules_of(&report), vec![RULE_FEATURE_DETECT]);

    // So is the AMX permission request, by its option or its call.
    let grant = "fn request_tiles(x: u64) -> bool {\n    const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;\n    arch_prctl(ARCH_REQ_XCOMP_PERM, x)\n}\n";
    let report = lint_one("crates/mimo-math/src/kernel/int8.rs", grant);
    assert_eq!(
        rules_of(&report),
        vec![RULE_FEATURE_DETECT, RULE_FEATURE_DETECT]
    );

    // Mentions in comments and strings and longer identifiers do not ask.
    let benign = "// is_x86_feature_detected! lives in Backend::host\n\
                  pub const S: &str = \"arch_prctl\";\n\
                  pub fn is_x86_feature_detected_twice() {}\n";
    assert!(lint_one("crates/neural/src/quant.rs", benign).clean());
}

/// A kernel file with two `#[target_feature]` functions: `gemm_wide`, which
/// the parity test calls, and the helper `reduce_lanes`, which it reaches
/// only through `gemm_wide`.
fn kernel_fixture(test_comment: &str) -> String {
    format!(
        r#"#![deny(unsafe_op_in_unsafe_fn)]
/// # Safety
/// Requires `avx2`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce_lanes(v: [f32; 8]) -> f32 {{
    v.iter().sum()
}}

/// # Safety
/// Requires `avx2`.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn gemm_wide(
    a: &[f32],
) -> f32 {{
    // SAFETY: same feature set as the caller.
    unsafe {{ reduce_lanes([a[0]; 8]) }}
}}

#[cfg(test)]
mod tests {{
    /// Wide arm against the scalar loop.
    #[test]
    fn wide_matches_scalar() {{
        {test_comment}
        // SAFETY: test hosts have AVX2.
        assert_eq!(unsafe {{ super::gemm_wide(&[1.0]) }}, 8.0);
    }}
}}
"#
    )
}

#[test]
fn target_feature_kernels_must_be_named_by_a_test_of_their_crate() {
    // The helper is reached but never named: flagged, at its `fn` line.
    let unnamed = kernel_fixture("");
    let report = lint_one("crates/mimo-math/src/kernel/wide.rs", &unnamed);
    assert_eq!(rules_of(&report), vec![RULE_KERNEL_PARITY_TEST]);
    assert_eq!(report.violations[0].line, 6);
    assert!(report.violations[0].message.contains("`reduce_lanes`"));

    // Named in the test's body (a comment counts: the test says what it
    // reaches), in its doc comment, or by an integration test of the crate.
    let named = kernel_fixture("// Reaches `reduce_lanes` through the wide arm.");
    assert!(lint_one("crates/mimo-math/src/kernel/wide.rs", &named).clean());
    let in_docs = unnamed.replace(
        "/// Wide arm against the scalar loop.",
        "/// Wide arm (and its `reduce_lanes`) against the scalar loop.",
    );
    assert!(lint_one("crates/mimo-math/src/kernel/wide.rs", &in_docs).clean());
    let integration = "#[test]\nfn lanes() {\n    // covers reduce_lanes\n}\n";
    let report = lint_sources(
        &[
            (
                "crates/mimo-math/src/kernel.rs".to_string(),
                unnamed.clone(),
            ),
            (
                "crates/mimo-math/tests/parity.rs".to_string(),
                integration.to_string(),
            ),
        ],
        &Allowlist::default(),
    );
    assert!(report.clean(), "unexpected: {:?}", report.violations);

    // A mention outside any `#[test]`, a longer identifier, or a test of
    // another crate does not count.
    let prose = format!("{unnamed}\n// reduce_lanes is fine, trust me\n");
    let report = lint_one("crates/mimo-math/src/kernel/wide.rs", &prose);
    assert_eq!(rules_of(&report), vec![RULE_KERNEL_PARITY_TEST]);
    let longer = kernel_fixture("// reduce_lanes_v2 is a different function.");
    let report = lint_one("crates/mimo-math/src/kernel/wide.rs", &longer);
    assert_eq!(rules_of(&report), vec![RULE_KERNEL_PARITY_TEST]);
    let report = lint_sources(
        &[
            (
                "crates/mimo-math/src/kernel.rs".to_string(),
                unnamed.clone(),
            ),
            (
                "crates/neural/tests/parity.rs".to_string(),
                integration.to_string(),
            ),
        ],
        &Allowlist::default(),
    );
    assert_eq!(rules_of(&report), vec![RULE_KERNEL_PARITY_TEST]);

    // The rule covers the kernel sources only.
    assert!(lint_one("crates/mimo-math/src/svd.rs", &unnamed).clean());
    assert!(lint_one("crates/neural/src/kernel.rs", &unnamed).clean());
}

/// A kernel file whose vector work is inline assembly: `tile_mul` carries no
/// `#[target_feature]`, only an `asm!` block in its body, behind the safe
/// `gemm_tiles` the parity test calls.
fn asm_kernel_fixture(test_comment: &str) -> String {
    format!(
        r#"#![deny(unsafe_op_in_unsafe_fn)]
use core::arch::asm;

/// # Safety
/// Requires the tile unit.
#[inline(always)]
unsafe fn tile_mul() {{
    // SAFETY: no operands; the tile unit per the caller.
    unsafe {{
        asm!("tdpbusd tmm0, tmm1, tmm2", options(nostack, nomem));
    }}
}}

pub fn gemm_tiles() {{
    // SAFETY: detected by the dispatcher.
    unsafe {{ tile_mul() }}
}}

#[cfg(test)]
mod tests {{
    #[test]
    fn tiles_match_scalar() {{
        {test_comment}
        super::gemm_tiles();
    }}

    fn helper() {{
        // SAFETY: a test helper may hold assembly of its own.
        unsafe {{ core::arch::asm!("nop") }};
    }}
}}
"#
    )
}

#[test]
fn asm_kernels_must_be_named_by_a_test_of_their_crate_too() {
    // No attribute to key on: the `asm!(` in the body makes it a kernel,
    // flagged at the line of the `fn` that holds it.
    let unnamed = asm_kernel_fixture("");
    let report = lint_one("crates/mimo-math/src/kernel/tiles.rs", &unnamed);
    assert_eq!(rules_of(&report), vec![RULE_KERNEL_PARITY_TEST]);
    assert_eq!(report.violations[0].line, 7);
    assert!(report.violations[0]
        .message
        .contains("`tile_mul` is an asm! kernel"));

    // Named by the test that reaches it; the safe caller and the test
    // module's own helper were never the rule's business.
    let named = asm_kernel_fixture("// Every product goes through `tile_mul`.");
    assert!(lint_one("crates/mimo-math/src/kernel/tiles.rs", &named).clean());

    // `asm!(` in a string or a comment is not assembly, and the rule still
    // covers the kernel sources only.
    let prose = "pub fn f() -> &'static str {\n    // asm!(\"nop\")\n    \"asm!(\"\n}\n";
    assert!(lint_one("crates/mimo-math/src/kernel/tiles.rs", prose).clean());
    assert!(lint_one("crates/mimo-math/src/svd.rs", &unnamed).clean());
}

/// A library declaring `probe`, for the `test-only-pub` rule.
const PROBE: &str = "pub fn probe() -> u32 {\n    7\n}\n";

/// The `test-only-pub` rule's source set: the workspace manifest (without
/// it the rule is skipped), `crates/demo/src/lib.rs` holding `lib`, and
/// `others`.
fn pub_fn_tree(lib: &str, others: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut sources = vec![
        ("Cargo.toml".to_string(), "[workspace]\n".to_string()),
        ("crates/demo/src/lib.rs".to_string(), lib.to_string()),
    ];
    sources.extend(others.iter().map(|(p, t)| (p.to_string(), t.to_string())));
    sources
}

fn lint_tree(lib: &str, others: &[(&str, &str)]) -> LintReport {
    lint_sources(&pub_fn_tree(lib, others), &Allowlist::default())
}

#[test]
fn test_only_pub_fns_are_flagged() {
    let calls = "fn main() {\n    let _ = demo::probe();\n}\n";

    // Named only from `tests/`: flagged at its declaration.
    let report = lint_tree(PROBE, &[("tests/it.rs", calls)]);
    assert_eq!(rules_of(&report), vec![RULE_TEST_ONLY_PUB]);
    let v = &report.violations[0];
    assert_eq!((v.path.as_str(), v.line), ("crates/demo/src/lib.rs", 1));
    assert!(v.message.contains("`probe`"), "{}", v.message);

    // Named only from another file's `#[cfg(test)]` module: flagged.
    let in_mod_tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn calls() {\n        \
                        let _ = demo::probe();\n    }\n}\n";
    let report = lint_tree(PROBE, &[("crates/app/src/lib.rs", in_mod_tests)]);
    assert_eq!(rules_of(&report), vec![RULE_TEST_ONLY_PUB]);

    // Named by non-test code, an example or the benchmark: clean.
    for path in [
        "crates/app/src/main.rs",
        "examples/demo.rs",
        "benchmark/src/main.rs",
    ] {
        let report = lint_tree(PROBE, &[(path, calls)]);
        assert!(report.clean(), "{path}: {:?}", report.violations);
    }

    // Named only in a comment or a string: flagged.
    let prose = "// demo::probe() is the entry point\nfn main() {\n    println!(\"probe\");\n}\n";
    let report = lint_tree(PROBE, &[("crates/app/src/main.rs", prose)]);
    assert_eq!(rules_of(&report), vec![RULE_TEST_ONLY_PUB]);

    // A field, a binding or a `use` item can share a function's name without
    // calling it: none of them names `probe`. A call through any of them does.
    for (what, text) in [
        ("a field read", "fn main() { let _ = cfg.probe; }\n"),
        ("a field", "pub struct Cfg { pub probe: u32 }\n"),
        (
            "a struct-literal key",
            "fn main() { let _ = Cfg { probe: 7 }; }\n",
        ),
        ("a let binding", "fn main() { let probe = 7; }\n"),
        ("a mut binding", "fn main() { for mut probe in 0..2 {} }\n"),
        ("a use item", "use demo::probe;\nfn main() {}\n"),
        (
            "a multi-line use item",
            "pub use demo::{\n    probe,\n};\nfn main() {}\n",
        ),
    ] {
        let report = lint_tree(PROBE, &[("crates/app/src/main.rs", text)]);
        assert_eq!(rules_of(&report), vec![RULE_TEST_ONLY_PUB], "{what}");
    }
    for (what, text) in [
        ("a method call", "fn main() { let _ = demo.probe(); }\n"),
        (
            "a turbofish call",
            "fn main() { let _ = demo.probe::<u8>(); }\n",
        ),
        (
            "a call after its use item",
            "use demo::probe;\nfn main() { probe(); }\n",
        ),
        (
            "a path as a value",
            "fn main() { let _ = [1].map(demo::probe); }\n",
        ),
    ] {
        let report = lint_tree(PROBE, &[("crates/app/src/main.rs", text)]);
        assert!(report.clean(), "{what}: {:?}", report.violations);
    }

    // Declared as test code — the item, its `impl`, or the file a gated
    // `mod` line includes — is skipped.
    let gate = "#[cfg(any(test, feature = \"reference\"))]\n";
    assert!(lint_tree(&format!("{gate}{PROBE}"), &[]).clean());
    let gated_impl = format!("pub struct S;\n{gate}impl S {{\n    pub fn probe() {{}}\n}}\n");
    assert!(lint_tree(&gated_impl, &[]).clean());
    let gated_mod = format!("{gate}pub mod reference;\npub mod kept;\n");
    let report = lint_tree(
        &gated_mod,
        &[
            ("crates/demo/src/reference.rs", PROBE),
            ("crates/demo/src/kept.rs", PROBE),
        ],
    );
    assert_eq!(rules_of(&report), vec![RULE_TEST_ONLY_PUB]);
    assert_eq!(report.violations[0].path, "crates/demo/src/kept.rs");

    // A `pub(crate) fn` is not public surface.
    assert!(lint_tree("pub(crate) fn probe() -> u32 {\n    7\n}\n", &[]).clean());

    // An allowlisted one is suppressed; an entry that suppresses nothing is
    // stale.
    let allow = parse_allowlist(
        "test-only-pub|crates/demo/src/lib.rs|pub fn probe(|deployment setting the tests exercise\n",
    )
    .unwrap();
    assert!(lint_sources(&pub_fn_tree(PROBE, &[]), &allow).clean());
    let report = lint_sources(&pub_fn_tree(PROBE, &[("examples/demo.rs", calls)]), &allow);
    assert!(report.violations.is_empty());
    assert_eq!(report.stale_allowlist.len(), 1);

    // Without the workspace manifest the callers are not all in view, and
    // the rule is skipped.
    assert!(lint_one("crates/demo/src/lib.rs", PROBE).clean());
}

#[test]
fn manifest_dependencies_must_be_named_by_product_code() {
    let manifest =
        |features: &str| format!("[dependencies]\nmimo-math = {{ workspace = true }}\n{features}");
    let lint = |manifest: &str, lib: &str| {
        lint_sources(
            &[
                ("crates/demo/Cargo.toml".to_string(), manifest.to_string()),
                ("crates/demo/src/lib.rs".to_string(), lib.to_string()),
            ],
            &Allowlist::default(),
        )
    };
    let uses = "pub fn f() -> f32 {\n    mimo_math::kernel::one()\n}\n";
    assert!(lint(&manifest(""), uses).clean());

    // Named by nothing: flagged at its manifest line.
    let report = lint(&manifest(""), "pub fn f() {}\n");
    assert_eq!(rules_of(&report), vec![RULE_MANIFEST_DEPS]);
    let v = &report.violations[0];
    assert_eq!((v.path.as_str(), v.line), ("crates/demo/Cargo.toml", 2));
    assert!(v.message.contains("`mimo_math`"), "{}", v.message);

    // Named only under `#[cfg(test)]`, or in a comment: flagged.
    let in_tests = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use mimo_math::kernel;\n}\n";
    assert_eq!(
        rules_of(&lint(&manifest(""), in_tests)),
        vec![RULE_MANIFEST_DEPS]
    );
    let prose = "// mimo_math does the work\npub fn f() {}\n";
    assert_eq!(
        rules_of(&lint(&manifest(""), prose)),
        vec![RULE_MANIFEST_DEPS]
    );

    // Named through the crate's own `[features]` table: clean.
    let features = manifest("\n[features]\nreference = [\"mimo-math/reference\"]\n");
    assert!(lint(&features, "pub fn f() {}\n").clean());
}
