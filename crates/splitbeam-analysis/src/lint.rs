//! Repo-invariant lint pass.
//!
//! A std-only source scanner (no syn, no rustc — the container is offline)
//! that enforces the workspace's cross-cutting rules on non-test code:
//!
//! - **`safety-comment`**: every `unsafe` block and `unsafe impl` carries a
//!   `// SAFETY:` comment on the same line or within the few lines above.
//! - **`deny-unsafe-op`**: any crate whose non-test sources contain
//!   `unsafe` must set `#![deny(unsafe_op_in_unsafe_fn)]` at its root.
//! - **`wall-clock`**: no `std::time::Instant`/`SystemTime` in
//!   `splitbeam-hwsim` or `splitbeam-serve` — those crates run on virtual
//!   time and a wall-clock read is always a layering bug.
//! - **`env-access`**: `SPLITBEAM_*` environment variables are read only
//!   through `mimo_math::env`; a raw `env::var("SPLITBEAM_…")` anywhere
//!   else bypasses the central trim/parse policy.
//! - **`ingest-unwrap`**: no `.unwrap()`/`.expect(` on the serving ingest
//!   path (`server.rs`, `session.rs`, `shard.rs`, `ring.rs`, `timing.rs`,
//!   `slab.rs`, `fleet.rs`) — a malformed frame must degrade, never abort
//!   the shard.
//! - **`knob-docs`**: every `"SPLITBEAM_*"` literal in non-test library code
//!   (crate `src/` trees, not their `bin/` directories) names a variable
//!   that has a row in README.md's knob table — a knob the product reads is
//!   a knob a user can look up — and, conversely, every row of that table
//!   names a variable some non-test code still reads, so the table cannot
//!   keep a dead row.
//! - **`serve-unordered-map`**: no `HashMap`/`HashSet` in `splitbeam-serve`
//!   sources — round-close and summary outputs are bit-reproducibility
//!   contracts, and hash iteration order is a seed away from breaking them.
//!   Keyed state uses `BTreeMap` or the session slab.
//! - **`kernel-parity-test`**: every `#[target_feature]` function under
//!   `crates/mimo-math/src/kernel*`, and every function there whose body
//!   holds an `asm!(` block (an inline-assembly kernel needs no such
//!   attribute), is named by a `#[test]` of that crate (in its body,
//!   comments included, or its doc comment). A vector kernel is unsafe code
//!   whose only evidence is a test comparing it with the arm it must equal;
//!   the test that does so says which kernels it reaches.
//! - **`one-kernel-lock`**: `set_kernel(` is called only inside
//!   `crates/mimo-math/src` (which defines it) and the test kit
//!   (`crates/splitbeam-testkit/src`, whose `with_kernel` serializes every
//!   pin on one mutex). The override is process-global: a second lock in the
//!   same test binary is a race, so this rule also reads test code.
//! - **`feature-detect`**: `is_x86_feature_detected` and the AMX tile-data
//!   permission request (`arch_prctl` / `ARCH_REQ_XCOMP_PERM`) appear only
//!   in `Backend::host()` (`crates/mimo-math/src/kernel.rs`), the one place
//!   that decides which kernel arms this host runs; every other site reads
//!   that answer. A second probe is a second decision that can disagree with
//!   the first, so this rule too reads test code.
//! - **`test-only-pub`**: every `pub fn` (`const`, `unsafe` too) in non-test
//!   code under `crates/*/src` — the shims, the test kit and this crate
//!   aside — is named as a word by some non-test line other than a `fn NAME`
//!   declaration (bins, `examples/` and `benchmark/src` count). A word that
//!   is a field (`.name` not called, a `name:` field or struct-literal key),
//!   a `let` / `mut` binding, or part of a `use` item (a re-export calls
//!   nothing) names no function. A function
//!   only tests call is deleted, or gated as test code: a declaration under a
//!   `#[cfg(…)]` that names `test` — on the item, its `impl` or `mod`, or the
//!   `mod` line that includes its file — is skipped, and such code names
//!   nothing. The rule needs every caller in view, so it is skipped when the
//!   source set carries no workspace `Cargo.toml` (single-file fixtures).
//! - **`manifest-deps`**: every `[dependencies]` key of a
//!   `crates/*/Cargo.toml` is named as a word (`-` read as `_`) by that
//!   crate's non-test code, skipped as `test-only-pub` skips it, or by its
//!   own `[features]` table. A dependency only tests name belongs under
//!   `[dev-dependencies]`.
//! - **`roadmap-items`**: every `ROADMAP item N` that a reason in
//!   `lint_allowlist.txt` cites names an item ROADMAP.md still carries:
//!   an open one (a line starting `N. **`) or a closed line (`_Item N`). An
//!   exception justified by a plan nobody can find is not justified. The
//!   rule is skipped when the source set carries no ROADMAP.md.
//!
//! Vetted exceptions live in `lint_allowlist.txt` at the repo root, one
//! `rule|path|needle|reason` per line; entries that no longer suppress
//! anything are themselves reported (stale) so the file cannot rot.
//!
//! The scanner works on a "code view" of each file — comments and string
//! literals blanked out, raw strings and char-vs-lifetime quotes handled —
//! and skips test code: files under `tests/`/`benches/` and regions under
//! `#[cfg(test)]`.

use std::fmt;
use std::io;
use std::path::Path;

pub const RULE_SAFETY_COMMENT: &str = "safety-comment";
pub const RULE_DENY_UNSAFE_OP: &str = "deny-unsafe-op";
pub const RULE_WALL_CLOCK: &str = "wall-clock";
pub const RULE_ENV_ACCESS: &str = "env-access";
pub const RULE_INGEST_UNWRAP: &str = "ingest-unwrap";
pub const RULE_SERVE_UNORDERED_MAP: &str = "serve-unordered-map";
pub const RULE_KNOB_DOCS: &str = "knob-docs";
pub const RULE_KERNEL_PARITY_TEST: &str = "kernel-parity-test";
pub const RULE_ONE_KERNEL_LOCK: &str = "one-kernel-lock";
pub const RULE_FEATURE_DETECT: &str = "feature-detect";
pub const RULE_TEST_ONLY_PUB: &str = "test-only-pub";
pub const RULE_MANIFEST_DEPS: &str = "manifest-deps";
pub const RULE_ROADMAP_ITEMS: &str = "roadmap-items";

/// How many lines above an `unsafe` site a `SAFETY:` comment may sit.
const SAFETY_LOOKBACK: usize = 4;

/// Files covered by the `ingest-unwrap` rule: the serving data path from
/// wire frame to round close.
const INGEST_PATH_FILES: [&str; 7] = [
    "crates/splitbeam-serve/src/server.rs",
    "crates/splitbeam-serve/src/session.rs",
    "crates/splitbeam-serve/src/shard.rs",
    "crates/splitbeam-serve/src/ring.rs",
    "crates/splitbeam-serve/src/timing.rs",
    "crates/splitbeam-serve/src/slab.rs",
    "crates/splitbeam-serve/src/fleet.rs",
];

/// Sources covered by the `serve-unordered-map` rule: everything in the
/// serving crate, whose round-close/summary outputs are deterministic
/// contracts.
const ORDERED_STATE_PREFIX: &str = "crates/splitbeam-serve/src/";

/// Crates pinned to virtual time by the `wall-clock` rule.
const VIRTUAL_TIME_PREFIXES: [&str; 2] =
    ["crates/splitbeam-hwsim/src/", "crates/splitbeam-serve/src/"];

/// Sources whose `#[target_feature]` and `asm!` functions the
/// `kernel-parity-test` rule covers (`kernel.rs` and everything under
/// `kernel/`), and the crate whose tests must name them.
const KERNEL_SOURCES_PREFIX: &str = "crates/mimo-math/src/kernel";
const KERNEL_CRATE_PREFIX: &str = "crates/mimo-math/";

/// The only trees that may call `set_kernel(`: its own crate and the test
/// kit that owns the process-wide kernel lock.
const KERNEL_OVERRIDE_PREFIXES: [&str; 2] =
    ["crates/mimo-math/src/", "crates/splitbeam-testkit/src/"];

/// The one function that may ask the CPU and the operating system what may
/// run (`Backend::host()`), and the words that ask: the std detection macro
/// and the AMX tile-data permission request.
const HOST_DETECT_FILE: &str = "crates/mimo-math/src/kernel.rs";
const HOST_DETECT_FN: &str = "host";
const FEATURE_DETECT_WORDS: [&str; 3] = [
    "is_x86_feature_detected",
    "arch_prctl",
    "ARCH_REQ_XCOMP_PERM",
];

/// Trees whose `pub fn`s the `test-only-pub` rule does not check: the
/// offline shims mirror a crate's API, the test kit is test code, and this
/// crate is tooling. Their calls still name what they call.
const PUB_FN_EXEMPT_PREFIXES: [&str; 3] = [
    "crates/shims/",
    "crates/splitbeam-testkit/",
    "crates/splitbeam-analysis/",
];

/// The workspace manifest: its presence in the source set tells the
/// `test-only-pub` rule that every caller is in view.
const WORKSPACE_MANIFEST: &str = "Cargo.toml";

/// The one blessed site for raw `SPLITBEAM_*` env reads.
const ENV_MODULE: &str = "crates/mimo-math/src/env.rs";

/// Where the `knob-docs` rule looks the variables up. The rule is skipped
/// when the source set carries no such file (fixture runs).
const KNOB_TABLE_FILE: &str = "README.md";

/// Where the `roadmap-items` rule looks the cited items up, and the file
/// whose reasons cite them.
const ROADMAP_FILE: &str = "ROADMAP.md";
const ALLOWLIST_FILE: &str = "lint_allowlist.txt";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based; 0 for whole-file findings.
    pub line: usize,
    pub excerpt: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )?;
        if !self.excerpt.is_empty() {
            write!(f, "\n    {}", self.excerpt)?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    /// Substring the flagged line must contain; `*` matches any line.
    pub needle: String,
    pub reason: String,
}

impl AllowEntry {
    fn matches(&self, v: &Violation) -> bool {
        self.rule == v.rule
            && self.path == v.path
            && (self.needle == "*" || v.excerpt.contains(&self.needle))
    }
}

#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
}

/// Parse the `rule|path|needle|reason` allowlist format. `#` comments and
/// blank lines are ignored; every field including the reason is mandatory —
/// an exception nobody can justify is not an exception.
pub fn parse_allowlist(text: &str) -> Result<Allowlist, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.splitn(4, '|').collect();
        if fields.len() != 4 {
            return Err(format!(
                "allowlist line {}: expected `rule|path|needle|reason`, got `{line}`",
                idx + 1
            ));
        }
        let entry = AllowEntry {
            rule: fields[0].trim().to_string(),
            path: fields[1].trim().to_string(),
            needle: fields[2].trim().to_string(),
            reason: fields[3].trim().to_string(),
        };
        if entry.rule.is_empty() || entry.path.is_empty() || entry.needle.is_empty() {
            return Err(format!(
                "allowlist line {}: empty field in `{line}`",
                idx + 1
            ));
        }
        if entry.reason.len() < 10 {
            return Err(format!(
                "allowlist line {}: reason `{}` is too thin to justify an exception",
                idx + 1,
                entry.reason
            ));
        }
        entries.push(entry);
    }
    Ok(Allowlist { entries })
}

pub fn format_allowlist(list: &Allowlist) -> String {
    let mut out = String::new();
    for e in &list.entries {
        out.push_str(&format!(
            "{}|{}|{}|{}\n",
            e.rule, e.path, e.needle, e.reason
        ));
    }
    out
}

#[derive(Debug)]
pub struct LintReport {
    pub violations: Vec<Violation>,
    /// Allowlist entries that suppressed nothing this run.
    pub stale_allowlist: Vec<AllowEntry>,
    pub files_scanned: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allowlist.is_empty()
    }
}

/// Lint in-memory sources (`(repo-relative path, contents)` pairs). This is
/// the whole engine; [`lint_repo`] merely loads files into it, so fixture
/// tests exercise exactly the production path.
pub fn lint_sources(sources: &[(String, String)], allow: &Allowlist) -> LintReport {
    let mut raw_violations = Vec::new();
    let mut knobs = documented_knobs(sources);
    for (rel, text) in sources {
        scan_file(rel, text, knobs.as_deref_mut(), &mut raw_violations);
    }
    check_dead_knob_rows(knobs.as_deref().unwrap_or_default(), &mut raw_violations);
    check_crate_roots(sources, &mut raw_violations);
    check_kernel_parity_tests(sources, &mut raw_violations);
    let views = non_test_views(sources);
    check_test_only_pub(sources, &views, &mut raw_violations);
    check_manifest_deps(sources, &views, &mut raw_violations);
    check_roadmap_items(sources, allow, &mut raw_violations);

    let mut used = vec![false; allow.entries.len()];
    let mut violations = Vec::new();
    for v in raw_violations {
        let mut suppressed = false;
        for (i, e) in allow.entries.iter().enumerate() {
            if e.matches(&v) {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            violations.push(v);
        }
    }
    let stale_allowlist = allow
        .entries
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    LintReport {
        violations,
        stale_allowlist,
        files_scanned: sources.len(),
    }
}

/// Walk the repo, load every non-fixture `.rs` file plus the knob table, the
/// workspace manifest and each `crates/*/Cargo.toml`, and lint them.
pub fn lint_repo(root: &Path, allow: &Allowlist) -> io::Result<LintReport> {
    let mut sources = Vec::new();
    collect_rs_files(root, root, &mut sources)?;
    for entry in std::fs::read_dir(root.join("crates"))? {
        let path = entry?.path().join("Cargo.toml");
        if path.is_file() {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            sources.push((rel.replace('\\', "/"), std::fs::read_to_string(&path)?));
        }
    }
    for extra in [KNOB_TABLE_FILE, WORKSPACE_MANIFEST, ROADMAP_FILE] {
        let path = root.join(extra);
        if path.is_file() {
            sources.push((extra.to_string(), std::fs::read_to_string(path)?));
        }
    }
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(lint_sources(&sources, allow))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` trees hold sources with *deliberate* violations for
            // the lint's own tests; they are data, not code.
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path)?;
            out.push((rel, text));
        }
    }
    Ok(())
}

fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("benches/")
        || rel.contains("/benches/")
}

fn scan_file(
    rel: &str,
    text: &str,
    mut knobs: Option<&mut [KnobRow<'_>]>,
    out: &mut Vec<Violation>,
) {
    if !rel.ends_with(".rs") {
        return;
    }
    let raw: Vec<&str> = text.lines().collect();
    let code = code_view(text);
    let code: Vec<&str> = code_lines(&code, raw.len());
    check_kernel_override(rel, &raw, &code, out);
    check_feature_detection(rel, &raw, &code, out);
    if is_test_file(rel) {
        return;
    }
    let in_test = test_region_mask(&code);

    for i in 0..raw.len() {
        if in_test[i] {
            continue;
        }
        check_wall_clock(rel, i, raw[i], code[i], out);
        check_env_access(rel, i, &raw, code[i], out);
        check_ingest_unwrap(rel, i, raw[i], code[i], out);
        check_unordered_map(rel, i, raw[i], code[i], out);
        if let Some(knobs) = knobs.as_deref_mut() {
            check_knob_docs(rel, i, raw[i], code[i], knobs, out);
        }
    }
    check_safety_comments(rel, &raw, &code, &in_test, out);
}

/// Crate-level pass: a crate root (`src/lib.rs` or `src/main.rs`) must deny
/// `unsafe_op_in_unsafe_fn` when any non-test source in the crate uses
/// `unsafe`.
fn check_crate_roots(sources: &[(String, String)], out: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    // crate key = path prefix up to and including "src/"
    let mut crates: BTreeMap<String, (Option<usize>, bool)> = BTreeMap::new();
    for (idx, (rel, text)) in sources.iter().enumerate() {
        let Some(pos) = rel.find("src/") else {
            continue;
        };
        let key = rel[..pos + 4].to_string();
        let entry = crates.entry(key.clone()).or_insert((None, false));
        if rel == &format!("{key}lib.rs") || rel == &format!("{key}main.rs") {
            entry.0 = Some(idx);
        }
        if !is_test_file(rel) && !entry.1 {
            let code = code_view(text);
            let code_ls: Vec<&str> = code_lines(&code, text.lines().count());
            let mask = test_region_mask(&code_ls);
            for (i, line) in code_ls.iter().enumerate() {
                if !mask[i] && has_word(line, "unsafe") {
                    entry.1 = true;
                    break;
                }
            }
        }
    }
    for (key, (root_idx, has_unsafe)) in crates {
        if !has_unsafe {
            continue;
        }
        let Some(idx) = root_idx else { continue };
        let (rel, text) = &sources[idx];
        if !text.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
            out.push(Violation {
                rule: RULE_DENY_UNSAFE_OP,
                path: rel.clone(),
                line: 1,
                excerpt: String::new(),
                message: format!(
                    "crate `{key}` contains unsafe code but its root does not declare \
                     #![deny(unsafe_op_in_unsafe_fn)]"
                ),
            });
        }
    }
}

/// Crate-level pass: every `#[target_feature]` function in the kernel
/// sources, and every function there with an `asm!(` block in its body, must
/// be named by some `#[test]` of the kernel crate.
fn check_kernel_parity_tests(sources: &[(String, String)], out: &mut Vec<Violation>) {
    let mut kernels = Vec::new();
    let mut test_text = String::new();
    for (rel, text) in sources {
        if !rel.starts_with(KERNEL_CRATE_PREFIX) || !rel.ends_with(".rs") {
            continue;
        }
        let raw: Vec<&str> = text.lines().collect();
        let code = code_view(text);
        let code: Vec<&str> = code_lines(&code, raw.len());
        collect_test_text(&raw, &code, &mut test_text);
        if rel.starts_with(KERNEL_SOURCES_PREFIX) {
            let in_test = test_region_mask(&code);
            // The function the scan is inside of: the last declared above.
            let mut enclosing = None;
            for i in (0..code.len()).filter(|&i| !in_test[i]) {
                if let Some(name) = fn_name(code[i]) {
                    enclosing = Some((i, name));
                }
                let kernel = if code[i].contains("#[target_feature") {
                    attributed_fn(&code, i).map(|(line, name)| ("a #[target_feature]", line, name))
                } else if code[i].contains("asm!(") {
                    enclosing
                        .clone()
                        .map(|(line, name)| ("an asm!", line, name))
                } else {
                    None
                };
                if let Some((kind, line, name)) = kernel {
                    // The code view blanks byte for byte, so the name sits
                    // at the same offsets in the raw line.
                    let found = (rel, line, kind, raw[line], &raw[line][name]);
                    if !kernels.contains(&found) {
                        kernels.push(found);
                    }
                }
            }
        }
    }
    for (rel, line, kind, raw, name) in kernels {
        if !has_word(&test_text, name) {
            out.push(Violation {
                rule: RULE_KERNEL_PARITY_TEST,
                path: rel.clone(),
                line: line + 1,
                excerpt: excerpt(raw),
                message: format!(
                    "`{name}` is {kind} kernel no #[test] in {KERNEL_CRATE_PREFIX} \
                     names — name it in the parity test that exercises it"
                ),
            });
        }
    }
}

/// The `fn` an attribute at line `attr` decorates, as `(line, byte range of
/// its name)`: the first `fn` within the next few lines (further attributes
/// and qualifiers may sit between).
fn attributed_fn(code: &[&str], attr: usize) -> Option<(usize, std::ops::Range<usize>)> {
    code.iter()
        .enumerate()
        .skip(attr)
        .take(6)
        .find_map(|(i, line)| Some((i, fn_name(line)?)))
}

/// The byte range of the name of the function a code-view line declares.
fn fn_name(line: &str) -> Option<std::ops::Range<usize>> {
    let at = line
        .match_indices("fn ")
        .map(|(at, _)| at)
        .find(|&at| !line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'))?;
    let start = line.len() - line[at + 3..].trim_start().len();
    let len = line[start..]
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(line.len() - start);
    (len > 0).then(|| start..start + len)
}

/// Appends the raw text of every `#[test]` item of a file — attribute line
/// through closing brace, plus the doc comment directly above — to `out`.
fn collect_test_text(raw: &[&str], code: &[&str], out: &mut String) {
    for i in (0..code.len()).filter(|&i| code[i].contains("#[test]")) {
        let docs = raw[..i]
            .iter()
            .rev()
            .take_while(|l| l.trim_start().starts_with("//") || l.trim_start().starts_with("#["))
            .count();
        let end = brace_span(code, i).unwrap_or(i);
        for line in &raw[i - docs..=end] {
            out.push_str(line);
            out.push('\n');
        }
    }
}

/// One source as `(path, raw lines, code view, mask of the lines under a
/// `#[cfg(…)]` that names `test`)`.
type CodeView<'a> = (&'a String, Vec<&'a str>, String, Vec<bool>);

/// The non-test `.rs` sources; a file that a gated `mod` line includes is
/// test code and left out.
fn non_test_views(sources: &[(String, String)]) -> Vec<CodeView<'_>> {
    // The files a gated `mod` line includes are known only once every file
    // has been read.
    let mut gated_files = Vec::new();
    let mut views = Vec::new();
    for (rel, text) in sources {
        if !rel.ends_with(".rs") || is_test_file(rel) {
            continue;
        }
        let raw: Vec<&str> = text.lines().collect();
        let code = code_view(text);
        let lines = code_lines(&code, raw.len());
        let mask = cfg_test_mask(&lines);
        gated_files.extend(cfg_test_gated_mods(rel, &lines, &mask));
        views.push((rel, raw, code, mask));
    }
    views.retain(|(rel, ..)| {
        !gated_files
            .iter()
            .any(|g| rel == &&format!("{g}.rs") || rel.starts_with(&format!("{g}/")))
    });
    views
}

/// Crate-level pass: a `pub fn` that no non-test line names, apart from
/// `fn NAME` declarations, fields, bindings and `use` items, has only tests
/// for callers (or none).
fn check_test_only_pub(
    sources: &[(String, String)],
    views: &[CodeView<'_>],
    out: &mut Vec<Violation>,
) {
    if !sources.iter().any(|(rel, _)| rel == WORKSPACE_MANIFEST) {
        return;
    }
    let mut named = std::collections::HashSet::new();
    let mut decls = Vec::new();
    for (rel, raw, code, mask) in views {
        let checked = rel.starts_with("crates/")
            && rel.contains("/src/")
            && !PUB_FN_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p));
        let code = code_lines(code, raw.len());
        let mut in_use = false;
        for (i, line) in code.iter().enumerate().filter(|&(i, _)| !mask[i]) {
            in_use |= opens_use(line);
            // The code view blanks byte for byte, so every word sits at the
            // same offsets in the raw line, which outlives this file's view.
            let declared = fn_name(line);
            named.extend(
                words(line)
                    .filter(|w| !in_use && may_name_fn(line, w))
                    .filter(|w| Some(w.start) != declared.as_ref().map(|d| d.start))
                    .map(|w| &raw[i][w]),
            );
            in_use &= !line.contains(';');
            if let (true, Some(name)) = (checked, declared.filter(|_| is_pub_fn(line))) {
                decls.push((*rel, i, raw[i], &raw[i][name]));
            }
        }
    }
    for (rel, line, raw, name) in decls {
        if !named.contains(name) {
            out.push(Violation {
                rule: RULE_TEST_ONLY_PUB,
                path: rel.clone(),
                line: line + 1,
                excerpt: excerpt(raw),
                message: format!(
                    "`{name}` is public but no non-test code names it — delete it, or gate \
                     it as test code (`#[cfg(test)]`, or the crate's `reference` feature)"
                ),
            });
        }
    }
}

/// Crate-level pass: every `[dependencies]` key of a `crates/*/Cargo.toml`
/// is named as a word (`-` read as `_`) by that crate's non-test code or by
/// its own `[features]` table.
fn check_manifest_deps(
    sources: &[(String, String)],
    views: &[CodeView<'_>],
    out: &mut Vec<Violation>,
) {
    for (rel, text) in sources {
        let Some(krate) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.strip_suffix("/Cargo.toml"))
            .filter(|k| !k.contains('/'))
        else {
            continue;
        };
        let prefix = format!("crates/{krate}/");
        let mut named = std::collections::HashSet::new();
        for (_, raw, code, mask) in views.iter().filter(|v| v.0.starts_with(&prefix)) {
            let code = code_lines(code, raw.len());
            for (i, line) in code.iter().enumerate().filter(|&(i, _)| !mask[i]) {
                named.extend(words(line).map(|w| &raw[i][w]));
            }
        }
        let mut table = "";
        let mut deps = Vec::new();
        let mut features = String::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or_default().trim();
            if line.starts_with('[') {
                table = line;
            } else if table == "[features]" {
                features.push_str(&line.replace('-', "_"));
                features.push('\n');
            } else if let Some((key, _)) =
                line.split_once('=').filter(|_| table == "[dependencies]")
            {
                deps.push((i, raw, key.trim().replace('-', "_")));
            }
        }
        for (i, raw, key) in deps {
            if !named.contains(key.as_str()) && !has_word(&features, &key) {
                out.push(Violation {
                    rule: RULE_MANIFEST_DEPS,
                    path: rel.clone(),
                    line: i + 1,
                    excerpt: excerpt(raw),
                    message: format!(
                        "no non-test code of `{krate}` names `{key}` — delete the dependency, \
                         or move it under [dev-dependencies] if only tests use it"
                    ),
                });
            }
        }
    }
}

/// Whether a code-view line declares a `pub fn`, `pub const fn` or
/// `pub unsafe fn` (`pub(crate)` and narrower are not public).
fn is_pub_fn(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("const ").unwrap_or(rest).trim_start();
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest).trim_start();
    rest.starts_with("fn ")
}

/// Whether a code-view line opens a `use` item: `use`, `pub use` or
/// `pub(…) use`.
fn opens_use(line: &str) -> bool {
    let line = line.trim_start();
    let rest = match line.strip_prefix("pub") {
        Some(vis) if vis.starts_with('(') => vis.split_once(')').map_or("", |(_, r)| r),
        Some(vis) => vis,
        None => line,
    };
    rest.trim_start().starts_with("use ")
}

/// Whether the word at `w` of a code-view line can name a function: it is
/// not a field (`.name` not followed by a call, a `name:` field or
/// struct-literal key) and not a `let` / `mut` binding.
fn may_name_fn(line: &str, w: &std::ops::Range<usize>) -> bool {
    let (before, after) = (&line[..w.start], &line[w.end..]);
    let called = after.starts_with('(') || after.starts_with("::");
    let field = before.ends_with('.') && !called;
    let key = after.starts_with(':') && !after.starts_with("::");
    let before = before.trim_end();
    let binding = ["let", "mut"].iter().any(|kw| {
        before
            .strip_suffix(kw)
            .is_some_and(|head| !head.ends_with(|c: char| c.is_alphanumeric() || c == '_'))
    });
    !(field || key || binding)
}

/// The byte ranges of the identifiers of a code-view line (a byte past
/// ASCII counts as part of one, so a range never splits a character).
fn words(line: &str) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let bytes = line.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || !b.is_ascii();
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = at + bytes[at..].iter().position(|&b| is_word(b))?;
        let len = bytes[start..].iter().position(|&b| !is_word(b));
        at = len.map_or(bytes.len(), |len| start + len);
        Some(start..at)
    })
}

/// Whether an attribute line is a `#[cfg(…)]` that names `test` —
/// `cfg(test)` or `cfg(any(test, feature = "reference"))`.
fn is_cfg_test(line: &str) -> bool {
    line.match_indices("#[cfg(").any(|(at, _)| {
        let attr = &line[at..];
        has_word(&attr[..attr.find(']').unwrap_or(attr.len())], "test")
    })
}

/// Lines under a `#[cfg(…)]` that names `test`, through the end of the item
/// it decorates: the brace matching its first `{`, or the `;` that ends it
/// first (a `mod name;` line, a `use`).
fn cfg_test_mask(code: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if !is_cfg_test(code[i]) {
            i += 1;
            continue;
        }
        let end = item_end(code, i).unwrap_or(code.len() - 1);
        for m in &mut mask[i..=end] {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Line index where the item whose attribute sits on line `attr` ends: the
/// first `;` outside brackets before any `{`, or the `}` matching that `{`.
/// (Attributes balance their own brackets and hold no `;`.)
fn item_end(code: &[&str], attr: usize) -> Option<usize> {
    let (mut brackets, mut braces) = (0usize, 0usize);
    for (i, line) in code.iter().enumerate().skip(attr) {
        for c in line.chars() {
            match c {
                '(' | '[' => brackets += 1,
                ')' | ']' => brackets = brackets.saturating_sub(1),
                ';' if braces == 0 && brackets == 0 => return Some(i),
                '{' => braces += 1,
                '}' => {
                    braces = braces.saturating_sub(1);
                    if braces == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// The files `rel`'s `mod name;` lines under a `#[cfg(…)]` naming `test`
/// include, as path stems: `crates/x/src/name` covers `name.rs` and
/// everything under `name/`.
fn cfg_test_gated_mods(rel: &str, code: &[&str], mask: &[bool]) -> Vec<String> {
    let dir = match rel.rsplit_once('/') {
        Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir,
        _ => rel.trim_end_matches(".rs"),
    };
    code.iter()
        .zip(mask)
        .filter(|(_, &m)| m)
        .filter_map(|(line, _)| {
            let at = line
                .find("mod ")
                .filter(|&at| !line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'))?;
            let name = line[at + 4..].trim().strip_suffix(';')?;
            Some(format!("{dir}/{}", name.trim()))
        })
        .collect()
}

/// One variable named in a row of the README's knob table.
struct KnobRow<'a> {
    name: &'a str,
    /// 1-based README line of the row.
    line: usize,
    row: &'a str,
    /// Set once a `"SPLITBEAM_*"` literal in non-test code names it.
    read: bool,
}

/// The variables with a row in the README's knob table, or `None` when the
/// source set carries no README (the `knob-docs` rule is then skipped).
fn documented_knobs(sources: &[(String, String)]) -> Option<Vec<KnobRow<'_>>> {
    let (_, readme) = sources.iter().find(|(rel, _)| rel == KNOB_TABLE_FILE)?;
    Some(
        readme
            .lines()
            .enumerate()
            .filter(|(_, row)| row.trim_start().starts_with('|'))
            .flat_map(|(i, row)| {
                knob_names(row).map(move |name| KnobRow {
                    name,
                    line: i + 1,
                    row,
                    read: false,
                })
            })
            .collect(),
    )
}

/// Every `"SPLITBEAM_*"` string literal in non-test code marks its knob-table
/// row as read; in library code (a crate's `src/` tree, not its `bin/`
/// directory) it must also *have* such a row.
fn check_knob_docs(
    rel: &str,
    i: usize,
    raw: &str,
    code: &str,
    documented: &mut [KnobRow<'_>],
    out: &mut Vec<Violation>,
) {
    let library = rel.contains("src/") && !rel.contains("/bin/") && !rel.starts_with("benchmark/");
    for (at, _) in raw.match_indices("\"SPLITBEAM_") {
        // A real literal keeps its opening quote in the code view; comments
        // and nested quotes are blanked there.
        if code.as_bytes().get(at) != Some(&b'"') {
            continue;
        }
        let Some(name) = knob_names(&raw[at..]).next() else {
            continue;
        };
        let mut found = false;
        for row in documented.iter_mut().filter(|row| row.name == name) {
            row.read = true;
            found = true;
        }
        if library && !found {
            out.push(Violation {
                rule: RULE_KNOB_DOCS,
                path: rel.to_string(),
                line: i + 1,
                excerpt: excerpt(raw),
                message: format!(
                    "`{name}` is read by library code but has no row in \
                     {KNOB_TABLE_FILE}'s knob table"
                ),
            });
        }
    }
}

/// The converse of [`check_knob_docs`]: a knob-table row naming a variable
/// that no non-test code reads documents a knob that does not exist.
fn check_dead_knob_rows(documented: &[KnobRow<'_>], out: &mut Vec<Violation>) {
    for row in documented.iter().filter(|row| !row.read) {
        out.push(Violation {
            rule: RULE_KNOB_DOCS,
            path: KNOB_TABLE_FILE.to_string(),
            line: row.line,
            excerpt: excerpt(row.row),
            message: format!(
                "`{}` has a knob-table row but no non-test code reads it",
                row.name
            ),
        });
    }
}

/// Repo-level pass: every `ROADMAP item N` an allowlist reason cites is an
/// open item of ROADMAP.md (a line starting `N. **`) or a closed line there
/// (`_Item N`, the number whole). Skipped without a ROADMAP.md.
fn check_roadmap_items(sources: &[(String, String)], allow: &Allowlist, out: &mut Vec<Violation>) {
    let Some((_, roadmap)) = sources.iter().find(|(rel, _)| rel == ROADMAP_FILE) else {
        return;
    };
    let carried = |item: &str| {
        roadmap.lines().any(|line| {
            line.starts_with(&format!("{item}. **"))
                || line
                    .match_indices(&format!("_Item {item}"))
                    .any(|(at, cite)| {
                        let next = line[at + cite.len()..].chars().next();
                        !next.is_some_and(|c| c.is_ascii_digit())
                    })
        })
    };
    for entry in &allow.entries {
        for (at, cite) in entry.reason.match_indices("ROADMAP item ") {
            let rest = &entry.reason[at + cite.len()..];
            let item = &rest[..rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len())];
            if item.is_empty() || carried(item) {
                continue;
            }
            out.push(Violation {
                rule: RULE_ROADMAP_ITEMS,
                path: ALLOWLIST_FILE.to_string(),
                line: 0,
                excerpt: excerpt(&entry.reason),
                message: format!(
                    "the reason for `{}|{}|{}` cites ROADMAP item {item}, which \
                     {ROADMAP_FILE} neither carries open (`{item}. **`) nor closed \
                     (`_Item {item}`)",
                    entry.rule, entry.path, entry.needle
                ),
            });
        }
    }
}

/// The `SPLITBEAM_[A-Z0-9_]+` names in `text`, in order (the bare prefix
/// names no variable).
fn knob_names(text: &str) -> impl Iterator<Item = &str> {
    const PREFIX: &str = "SPLITBEAM_";
    text.match_indices(PREFIX).filter_map(move |(at, _)| {
        let rest = &text[at..];
        let end = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        (end > PREFIX.len()).then(|| &rest[..end])
    })
}

/// The one rule that reads test code too: tests are where the copies of the
/// kernel lock lived.
fn check_kernel_override(rel: &str, raw: &[&str], code: &[&str], out: &mut Vec<Violation>) {
    if KERNEL_OVERRIDE_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    for (i, line) in code.iter().enumerate() {
        let called = line
            .match_indices("set_kernel(")
            .any(|(at, _)| !line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'));
        if called {
            out.push(Violation {
                rule: RULE_ONE_KERNEL_LOCK,
                path: rel.to_string(),
                line: i + 1,
                excerpt: excerpt(raw[i]),
                message: "`set_kernel(` outside mimo-math and the test kit — the override is \
                          process-global; pin through `splitbeam_testkit::with_kernel`, which \
                          holds the one lock"
                    .to_string(),
            });
        }
    }
}

/// Reads test code too: a test that probes the CPU itself can disagree with
/// the dispatch it is meant to check.
fn check_feature_detection(rel: &str, raw: &[&str], code: &[&str], out: &mut Vec<Violation>) {
    let mut enclosing = None;
    for (i, line) in code.iter().enumerate() {
        if let Some(name) = fn_name(line) {
            enclosing = Some(&line[name]);
        }
        let Some(word) = FEATURE_DETECT_WORDS.iter().find(|w| has_word(line, w)) else {
            continue;
        };
        if rel == HOST_DETECT_FILE && enclosing == Some(HOST_DETECT_FN) {
            continue;
        }
        out.push(Violation {
            rule: RULE_FEATURE_DETECT,
            path: rel.to_string(),
            line: i + 1,
            excerpt: excerpt(raw[i]),
            message: format!(
                "`{word}` outside `Backend::host()` — which arms run is decided there \
                 once; read `Backend::host()` or a view of it"
            ),
        });
    }
}

fn check_wall_clock(rel: &str, i: usize, raw: &str, code: &str, out: &mut Vec<Violation>) {
    if !VIRTUAL_TIME_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    for token in ["Instant", "SystemTime"] {
        if has_word(code, token) {
            out.push(Violation {
                rule: RULE_WALL_CLOCK,
                path: rel.to_string(),
                line: i + 1,
                excerpt: excerpt(raw),
                message: format!(
                    "`{token}` in a virtual-time crate — derive time from the event loop, \
                     not the host clock"
                ),
            });
        }
    }
}

fn check_env_access(rel: &str, i: usize, raw: &[&str], code: &str, out: &mut Vec<Violation>) {
    if rel == ENV_MODULE {
        return;
    }
    if !code.contains("env::var") {
        return;
    }
    // The variable name may sit on the next line after rustfmt wrapping.
    let window = raw[i..raw.len().min(i + 3)].join("\n");
    if window.contains("SPLITBEAM") {
        out.push(Violation {
            rule: RULE_ENV_ACCESS,
            path: rel.to_string(),
            line: i + 1,
            excerpt: excerpt(raw[i]),
            message: "raw SPLITBEAM_* env read — go through mimo_math::env so trimming and \
                      parse policy stay centralized"
                .to_string(),
        });
    }
}

fn check_ingest_unwrap(rel: &str, i: usize, raw: &str, code: &str, out: &mut Vec<Violation>) {
    if !INGEST_PATH_FILES.contains(&rel) {
        return;
    }
    for token in [".unwrap()", ".expect("] {
        if code.contains(token) {
            out.push(Violation {
                rule: RULE_INGEST_UNWRAP,
                path: rel.to_string(),
                line: i + 1,
                excerpt: excerpt(raw),
                message: format!(
                    "`{token}` on the serving ingest path — malformed input must degrade, \
                     not abort the shard",
                ),
            });
        }
    }
}

fn check_unordered_map(rel: &str, i: usize, raw: &str, code: &str, out: &mut Vec<Violation>) {
    if !rel.starts_with(ORDERED_STATE_PREFIX) {
        return;
    }
    for token in ["HashMap", "HashSet"] {
        if has_word(code, token) {
            out.push(Violation {
                rule: RULE_SERVE_UNORDERED_MAP,
                path: rel.to_string(),
                line: i + 1,
                excerpt: excerpt(raw),
                message: format!(
                    "`{token}` in the serving crate — hash iteration order can leak into \
                     round-close/summary output; use BTreeMap or the session slab",
                ),
            });
        }
    }
}

fn check_safety_comments(
    rel: &str,
    raw: &[&str],
    code: &[&str],
    in_test: &[bool],
    out: &mut Vec<Violation>,
) {
    for (i, line) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        for site in unsafe_sites_in_line(line) {
            let lo = i.saturating_sub(SAFETY_LOOKBACK);
            let documented = raw[lo..=i].iter().any(|l| l.contains("SAFETY:"));
            if !documented {
                out.push(Violation {
                    rule: RULE_SAFETY_COMMENT,
                    path: rel.to_string(),
                    line: i + 1,
                    excerpt: excerpt(raw[i]),
                    message: format!("{site} without a `// SAFETY:` comment on or just above it"),
                });
            }
        }
    }
}

/// `unsafe` sites needing a SAFETY comment on this code-view line: `unsafe`
/// blocks and `unsafe impl`s. `unsafe fn`/`unsafe extern`/`unsafe trait`
/// declarations document their contract in `# Safety` rustdoc instead.
fn unsafe_sites_in_line(code: &str) -> Vec<&'static str> {
    let mut sites = Vec::new();
    let mut rest = code;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + "unsafe".len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            let next = after.trim_start();
            if next.is_empty() || next.starts_with('{') {
                // `unsafe` at end of line counts as a block opener ("unsafe\n{").
                sites.push("`unsafe` block");
            } else if next.starts_with("impl") {
                sites.push("`unsafe impl`");
            }
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    sites
}

fn excerpt(raw: &str) -> String {
    let t = raw.trim();
    if t.len() > 160 {
        format!(
            "{}…",
            &t[..t
                .char_indices()
                .take(159)
                .last()
                .map_or(0, |(i, c)| i + c.len_utf8())]
        )
    } else {
        t.to_string()
    }
}

fn has_word(haystack: &str, word: &str) -> bool {
    let mut rest = haystack;
    while let Some(pos) = rest.find(word) {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + word.len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + word.len()..];
    }
    false
}

/// Split the blanked code view back into lines, padded to `n` lines.
fn code_lines(code: &str, n: usize) -> Vec<&str> {
    let mut v: Vec<&str> = code.lines().collect();
    while v.len() < n {
        v.push("");
    }
    v
}

/// Blank out comments and string/char literal contents, preserving line
/// structure, so token scans don't trip on prose. Handles nested block
/// comments, raw strings (`r#"…"#`), and the char-literal/lifetime
/// ambiguity.
fn code_view(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        // A `\` continuation keeps its newline: line numbers
                        // of the view are the file's.
                        let next = if bytes[i + 1] == b'\n' { b'\n' } else { b' ' };
                        out.extend_from_slice(&[b' ', next]);
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out.push(b'"');
                        i += 1;
                        break;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if is_raw_string_start(bytes, i) => {
                let (consumed, blanked) = blank_raw_string(bytes, i);
                out.extend_from_slice(&blanked);
                i += consumed;
            }
            b'\'' => {
                // Char literal vs lifetime: `'x'` / `'\n'` are literals,
                // `'a` followed by anything but `'` is a lifetime.
                if bytes.get(i + 1) == Some(&b'\\') {
                    out.extend_from_slice(b"' ");
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        out.push(b' ');
                        i += 1;
                    }
                    if i < bytes.len() {
                        out.push(b'\'');
                        i += 1;
                    }
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    out.extend_from_slice(b"'  ");
                    i += 3;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // `r"`, `r#"`, `r##"`, … (the `b` of byte raw strings is consumed as a
    // normal identifier char before we get here, which is fine).
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
        && (i == 0
            || !(bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'b')
                && bytes[i - 1] != b'_')
}

fn blank_raw_string(bytes: &[u8], start: usize) -> (usize, Vec<u8>) {
    let mut hashes = 0;
    let mut i = start + 1;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    let mut out = vec![b' '; i - start];
    loop {
        match bytes.get(i) {
            None => break,
            Some(&b'"') => {
                let mut k = 0;
                while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                    k += 1;
                }
                if k == hashes {
                    out.extend(std::iter::repeat_n(b' ', 1 + hashes));
                    i += 1 + hashes;
                    break;
                }
                out.push(b' ');
                i += 1;
            }
            Some(&b'\n') => {
                out.push(b'\n');
                i += 1;
            }
            Some(_) => {
                out.push(b' ');
                i += 1;
            }
        }
    }
    (i - start, out)
}

/// Mark lines inside `#[cfg(test)] mod … { … }` regions (and the lone item
/// under a `#[cfg(test)]` that isn't a mod).
fn test_region_mask(code: &[&str]) -> Vec<bool> {
    let n = code.len();
    let mut mask = vec![false; n];
    let mut i = 0;
    while i < n {
        if !code[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Find the annotated item: skip further attributes.
        let mut j = i;
        if !code[i].contains("mod ") {
            j = i + 1;
            while j < n {
                let t = code[j].trim_start();
                if t.is_empty() || t.starts_with("#[") {
                    j += 1;
                } else {
                    break;
                }
            }
        }
        if j >= n || !code[j].contains("mod ") {
            // Single non-mod item (a `use`, a helper fn): mask through the
            // end of its braces if any, else just its line.
            let end = brace_span(code, j.min(n - 1)).unwrap_or(j.min(n - 1));
            for m in mask.iter_mut().take(end.min(n - 1) + 1).skip(i) {
                *m = true;
            }
            i = end.min(n - 1) + 1;
            continue;
        }
        let end = brace_span(code, j).unwrap_or(n - 1);
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Line index of the `}` matching the first `{` at or after line `start`.
fn brace_span(code: &[&str], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut opened = false;
    for (i, line) in code.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
        // A `#[cfg(test)] use …;` item has no braces at all.
        if !opened && i > start {
            return None;
        }
    }
    None
}
