//! Hardware latency model for SplitBeam (Table III and the Eq. 7d delay budget).
//!
//! The paper synthesizes the SplitBeam networks on a Zynq UltraScale+ FPGA
//! (200 MHz clock) through a custom HLS library and reports the end-to-end
//! latency for 2x2–4x4 MIMO at 20–160 MHz (Table III). The FPGA toolchain is
//! not available here, so this crate provides an analytical **MAC-array
//! accelerator model**: a configurable number of parallel DSP multiply-
//! accumulate units at a configurable clock, plus per-layer pipeline and I/O
//! overhead. Latency is proportional to the model's MAC count, which reproduces
//! Table III's scaling behaviour (≈4x per bandwidth doubling and ≈4x from 2x2
//! to 4x4) and lets the end-to-end delay constraint of the BOP be evaluated.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod accelerator;
pub mod delay;
pub mod event;
pub mod fault;
mod prefetch;
mod wheel;

pub use accelerator::{AcceleratorModel, LatencyBreakdown};
pub use delay::{DelayBudget, EndToEndDelay};
pub use event::{
    ns_to_s, s_to_ns, EventKey, EventQueue, MediumGrant, SeededJitter, SharedMedium, VirtualNs,
};
pub use fault::{FaultConfig, FaultInjector, FaultStats, FrameFate, GilbertElliott};
pub use prefetch::prefetch_read;

#[cfg(test)]
mod tests {
    // Cross-module behaviour is covered in the submodules and the integration tests.
}
