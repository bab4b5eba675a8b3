//! The repo-invariant lint (`cargo run -p splitbeam-analysis --bin lint`) as
//! a tier-1 test: the tree, under `lint_allowlist.txt`, has no violation and
//! no allowlist entry that suppresses nothing.

use splitbeam_analysis::lint;
use std::path::Path;

#[test]
fn the_tree_passes_the_repo_invariant_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allowlist = std::fs::read_to_string(root.join("lint_allowlist.txt")).unwrap();
    let allow = lint::parse_allowlist(&allowlist).unwrap();
    let report = lint::lint_repo(root, &allow).unwrap();
    assert!(report.clean(), "{report:#?}");
}
