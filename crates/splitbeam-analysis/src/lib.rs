//! Correctness tooling for the SplitBeam workspace.
//!
//! Two layers, each turning a README claim into a mechanical check:
//!
//! - [`lint`]: a source-scanning invariant pass (`cargo run -p
//!   splitbeam-analysis --bin lint`) enforcing the repo's safety and
//!   layering rules — SAFETY comments on every `unsafe` block, no wall
//!   clock in virtual-time crates, centralized `SPLITBEAM_*` env access,
//!   and no `unwrap`/`expect` on the serving ingest path.
//! - [`alloc_sentinel`]: a counting global allocator and
//!   `assert_no_alloc` scopes that integration tests wrap around the
//!   serving hot paths, so the zero-steady-state-allocation claims fail CI
//!   if regressed.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc_sentinel;
pub mod lint;
