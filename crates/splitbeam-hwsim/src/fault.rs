//! Deterministic RF fault injection for the event-driven serving stack.
//!
//! The PR 5 medium model charges airtime but delivers every frame intact,
//! exactly once. This module adds the hostile half of a real deployment —
//! frame loss (i.i.d. or bursty Gilbert–Elliott), bit-flip corruption,
//! duplication, and extra queuing delay — while keeping the repository's
//! seeded-RNG discipline: every decision comes from a `ChaCha8Rng` stream
//! seeded by the caller, so a given `(seed, fault config, traffic)` triple
//! replays **bit-exactly**. A zero-fault configuration draws *nothing* from
//! the stream (the same contract as [`crate::event::SeededJitter`] with
//! `max_ns == 0`), which is what makes the fault layer's pass-through mode
//! provably identical to the PR 5 fault-free drivers.

use crate::event::VirtualNs;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Two-state Gilbert–Elliott burst-loss channel parameters. The channel sits
/// in a Good or Bad state; each offered frame first makes one state
/// transition draw, then one loss draw at the state's loss probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving Good → Bad per offered frame.
    pub p_enter_bad: f64,
    /// Probability of moving Bad → Good per offered frame.
    pub p_exit_bad: f64,
    /// Loss probability while in the Good state (usually ~0).
    pub loss_good: f64,
    /// Loss probability while in the Bad state (usually high).
    pub loss_bad: f64,
}

/// Fault-injection configuration. The default ([`FaultConfig::none`]) injects
/// nothing and — critically — draws nothing from the seeded stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// i.i.d. frame loss probability in `[0, 1]`. Ignored when `burst` is
    /// set (the Gilbert–Elliott chain then owns loss).
    pub loss: f64,
    /// Probability that a delivered frame arrives with flipped bits.
    pub corrupt: f64,
    /// Probability that a delivered frame is duplicated (the copy re-offered
    /// to the AP without occupying the medium a second time).
    pub duplicate: f64,
    /// Amplitude of extra queuing delay: uniform in `[0, max_extra_delay_ns]`.
    pub max_extra_delay_ns: VirtualNs,
    /// Bursty loss model; replaces the i.i.d. `loss` knob when present.
    pub burst: Option<GilbertElliott>,
    /// Bit flips applied to each corrupted frame.
    pub corrupt_bits: u32,
}

impl FaultConfig {
    /// The pass-through configuration: no faults, no RNG draws.
    pub fn none() -> Self {
        Self {
            loss: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            max_extra_delay_ns: 0,
            burst: None,
            corrupt_bits: 3,
        }
    }

    /// Whether any fault channel is live. When `false`, the injector is a
    /// pure pass-through that never touches its RNG.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0
            || self.corrupt > 0.0
            || self.duplicate > 0.0
            || self.max_extra_delay_ns > 0
            || self.burst.is_some()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// The injector's verdict for one offered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// The frame never reaches the AP (the station can detect the missing
    /// acknowledgement and retransmit).
    Lost,
    /// The frame is delivered, possibly damaged, doubled, or late.
    Deliver {
        /// Bits were flipped in flight; apply [`FaultInjector::corrupt_frame`].
        corrupt: bool,
        /// A duplicate copy arrives right behind the original.
        duplicate: bool,
        /// Extra queuing delay to add to the frame's ready time.
        extra_delay_ns: VirtualNs,
    },
}

impl FrameFate {
    /// The undamaged, single, on-time delivery.
    pub fn clean() -> Self {
        FrameFate::Deliver {
            corrupt: false,
            duplicate: false,
            extra_delay_ns: 0,
        }
    }
}

/// Running totals of what the injector did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to the injector.
    pub offered: u64,
    /// Frames dropped outright.
    pub lost: u64,
    /// Frames delivered with flipped bits.
    pub corrupted: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delivered late (nonzero extra delay).
    pub delayed: u64,
    /// Total extra queuing delay injected.
    pub total_extra_delay_ns: VirtualNs,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GeState {
    Good,
    Bad,
}

/// Seeded fault injector sitting between the event queue and the shared
/// medium. One instance per simulation run; every run with the same seed,
/// config, and offered-frame order replays bit-exactly.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: ChaCha8Rng,
    ge_state: GeState,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector over `cfg`, seeded with `seed`.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        Self {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
            ge_state: GeState::Good,
            stats: FaultStats::default(),
        }
    }

    /// A pass-through injector (no faults, no draws).
    pub fn none() -> Self {
        Self::new(FaultConfig::none(), 0)
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether any fault channel is live (see [`FaultConfig::is_active`]).
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// Running totals.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides the fate of one offered frame. An inactive configuration
    /// returns [`FrameFate::clean`] without drawing from the stream; an
    /// active one makes a fixed number of draws per call (loss, corruption,
    /// duplication, delay — in that order), so the decision for frame *n*
    /// depends only on the seed and *n*, never on wall-clock or map order.
    pub fn frame_fate(&mut self) -> FrameFate {
        self.stats.offered += 1;
        if !self.cfg.is_active() {
            return FrameFate::clean();
        }
        let lost = match self.cfg.burst {
            Some(ge) => {
                let transition: f64 = self.rng.gen();
                self.ge_state = match self.ge_state {
                    GeState::Good if transition < ge.p_enter_bad => GeState::Bad,
                    GeState::Bad if transition < ge.p_exit_bad => GeState::Good,
                    s => s,
                };
                let p = match self.ge_state {
                    GeState::Good => ge.loss_good,
                    GeState::Bad => ge.loss_bad,
                };
                self.rng.gen::<f64>() < p
            }
            None => self.rng.gen::<f64>() < self.cfg.loss,
        };
        let corrupt = self.rng.gen::<f64>() < self.cfg.corrupt;
        let duplicate = self.rng.gen::<f64>() < self.cfg.duplicate;
        let extra_delay_ns = if self.cfg.max_extra_delay_ns > 0 {
            self.rng.gen_range(0..=self.cfg.max_extra_delay_ns)
        } else {
            0
        };
        if lost {
            self.stats.lost += 1;
            return FrameFate::Lost;
        }
        if corrupt {
            self.stats.corrupted += 1;
        }
        if duplicate {
            self.stats.duplicated += 1;
        }
        if extra_delay_ns > 0 {
            self.stats.delayed += 1;
            self.stats.total_extra_delay_ns += extra_delay_ns;
        }
        FrameFate::Deliver {
            corrupt,
            duplicate,
            extra_delay_ns,
        }
    }

    /// Flips `corrupt_bits` seeded-random bit positions of `frame` in place.
    /// Call only when [`FrameFate::Deliver`] said `corrupt` — the draws here
    /// are part of the deterministic stream.
    pub fn corrupt_frame(&mut self, frame: &mut [u8]) {
        if frame.is_empty() {
            return;
        }
        let total_bits = frame.len() * 8;
        for _ in 0..self.cfg.corrupt_bits.max(1) {
            let bit = self.rng.gen_range(0..total_bits);
            frame[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_injector_draws_nothing() {
        let mut a = FaultInjector::none();
        for _ in 0..1000 {
            assert_eq!(a.frame_fate(), FrameFate::clean());
        }
        // The RNG stream was never touched: a fresh rng draws the same first
        // value as the injector's would now.
        let mut fresh = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(a.rng.gen::<u64>(), fresh.gen::<u64>());
        assert_eq!(a.stats().offered, 1000);
        assert_eq!(
            a.stats().lost + a.stats().corrupted + a.stats().duplicated,
            0
        );
    }

    #[test]
    fn same_seed_replays_bit_exactly() {
        let cfg = FaultConfig {
            loss: 0.2,
            corrupt: 0.15,
            duplicate: 0.1,
            max_extra_delay_ns: 50_000,
            burst: None,
            corrupt_bits: 3,
        };
        let mut a = FaultInjector::new(cfg, 77);
        let mut b = FaultInjector::new(cfg, 77);
        let fates_a: Vec<FrameFate> = (0..512).map(|_| a.frame_fate()).collect();
        let fates_b: Vec<FrameFate> = (0..512).map(|_| b.frame_fate()).collect();
        assert_eq!(fates_a, fates_b);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().lost > 0);
        assert!(a.stats().corrupted > 0);
        assert!(a.stats().duplicated > 0);
        assert!(a.stats().delayed > 0);
        // A different seed must (overwhelmingly) produce a different plan.
        let mut c = FaultInjector::new(cfg, 78);
        let fates_c: Vec<FrameFate> = (0..512).map(|_| c.frame_fate()).collect();
        assert_ne!(fates_a, fates_c);
    }

    #[test]
    fn loss_rate_tracks_configuration() {
        let cfg = FaultConfig {
            loss: 0.3,
            ..FaultConfig::none()
        };
        let mut inj = FaultInjector::new(cfg, 5);
        let n = 20_000;
        let lost = (0..n)
            .filter(|_| matches!(inj.frame_fate(), FrameFate::Lost))
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        let ge = GilbertElliott {
            p_enter_bad: 0.05,
            p_exit_bad: 0.25,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let cfg = FaultConfig {
            burst: Some(ge),
            ..FaultConfig::none()
        };
        let mut inj = FaultInjector::new(cfg, 11);
        let n = 50_000usize;
        let fates: Vec<bool> = (0..n)
            .map(|_| matches!(inj.frame_fate(), FrameFate::Lost))
            .collect();
        let losses = fates.iter().filter(|&&l| l).count();
        let rate = losses as f64 / n as f64;
        // The chain's long-run share of Bad states, times its loss there.
        let p_bad = ge.p_enter_bad / (ge.p_enter_bad + ge.p_exit_bad);
        let expect = (1.0 - p_bad) * ge.loss_good + p_bad * ge.loss_bad;
        assert!(
            (rate - expect).abs() < 0.03,
            "observed {rate}, stationary {expect}"
        );
        // Burstiness: P(loss | previous loss) must far exceed the marginal.
        let pairs = fates.windows(2).filter(|w| w[0]).count();
        let repeats = fates.windows(2).filter(|w| w[0] && w[1]).count();
        let conditional = repeats as f64 / pairs as f64;
        assert!(
            conditional > 2.0 * rate,
            "conditional {conditional} vs marginal {rate}: losses not bursty"
        );
    }

    #[test]
    fn corrupt_frame_flips_configured_bits() {
        let cfg = FaultConfig {
            corrupt: 1.0,
            corrupt_bits: 3,
            ..FaultConfig::none()
        };
        let mut inj = FaultInjector::new(cfg, 9);
        let original = vec![0u8; 64];
        let mut frame = original.clone();
        inj.corrupt_frame(&mut frame);
        let flipped: u32 = frame
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!((1..=3).contains(&flipped), "{flipped} bits flipped");
        // Empty frames are a no-op, not a panic.
        inj.corrupt_frame(&mut []);
    }
}
