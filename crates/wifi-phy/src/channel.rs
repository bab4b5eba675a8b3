//! Clustered tap-delay-line MU-MIMO channel simulator.
//!
//! This module is the stand-in for the paper's data sources: the Nexmon CSI
//! measurement campaigns in environments **E1** and **E2** and the MATLAB
//! `wlanTGacChannel` *Model-B* synthetic channels. It implements a TGn/TGac
//! style simulator:
//!
//! * each environment is a set of multipath **taps** (delay, power, Rician K),
//! * every tap carries an `Nr x Nt` complex Gaussian MIMO matrix with Kronecker
//!   spatial correlation at both ends,
//! * the frequency response at subcarrier `s` is the Fourier sum of the taps,
//! * consecutive packets evolve through an AR(1) process parameterized by the
//!   Doppler spread, and environment E2 additionally applies random human
//!   blockage events to individual taps.
//!
//! The two environment profiles intentionally differ in richness (number of
//! taps/clusters, delay spread, Doppler, blockage) so the single- versus
//! cross-environment experiments of the paper (Figs. 12–13) remain meaningful.
//!
//! # Synthesis: draw, then transform
//!
//! [`ChannelProcess::snapshot`] (behind [`ChannelModel::sample`] and
//! [`ChannelProcess::advance`]) builds a snapshot in two steps:
//!
//! 1. **Draw**, on the caller: it allocates every output matrix and stores
//!    each entry's two estimation-noise uniforms in it as `re = u1, im = u2`,
//!    in the order one loop over user → subcarrier → row → column consumed
//!    them. That is the only use of the RNG, so the draw count and the RNG's
//!    state afterwards are those of that loop.
//! 2. **Transform**, in place: each entry becomes `+0`, plus per tap in order
//!    `(g · cis(-2π f τ)) · from_real(amplitude)`, plus
//!    `from_polar(sqrt(-ln u1), 2π u2) · from_real(σ)`. Amplitudes, Rician
//!    LOS/NLOS gain mixes and the LOS matrix are hoisted out of the
//!    subcarrier loop; a part allocates nothing.
//!
//! The transform hands (user, 32-subcarrier block) parts to the `rayon`
//! pool; at width 1 that is a plain loop on the caller. An entry is the same
//! operations in the same order whoever claims its part, and it reads only
//! its own uniforms, so a snapshot is bit-identical at every pool width — and
//! to the one-matrix-at-a-time loop this replaced (`tests/channel_parity.rs`
//! pins its digests).

use crate::ofdm::{Bandwidth, MimoConfig};
use mimo_math::svd::Svd;
use mimo_math::{CMatrix, Complex64};
use rand::Rng;
use rayon::prelude::*;
use std::f64::consts::PI;

/// One multipath tap of a tap-delay-line profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Excess delay of the tap in nanoseconds.
    pub delay_ns: f64,
    /// Average tap power in dB relative to the strongest tap.
    pub power_db: f64,
    /// Rician K-factor in dB for this tap; `None` means pure Rayleigh fading.
    pub rician_k_db: Option<f64>,
}

impl Tap {
    /// Convenience constructor for a Rayleigh tap.
    pub fn rayleigh(delay_ns: f64, power_db: f64) -> Self {
        Self {
            delay_ns,
            power_db,
            rician_k_db: None,
        }
    }

    /// Convenience constructor for a Rician (partially line-of-sight) tap.
    pub fn rician(delay_ns: f64, power_db: f64, k_db: f64) -> Self {
        Self {
            delay_ns,
            power_db,
            rician_k_db: Some(k_db),
        }
    }

    /// Linear power of the tap.
    pub fn power_linear(&self) -> f64 {
        10f64.powf(self.power_db / 10.0)
    }
}

/// A propagation-environment profile: the complete statistical description of
/// one measurement environment.
///
/// Use [`EnvironmentProfile::e1`], [`EnvironmentProfile::e2`] or
/// [`EnvironmentProfile::model_b`] for the three environments of the paper, or
/// build a custom profile for ablations.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvironmentProfile {
    /// Short name used in dataset catalogs and reports (e.g. "E1").
    pub name: String,
    /// Multipath taps.
    pub taps: Vec<Tap>,
    /// Exponential antenna-correlation coefficient at the transmitter, in `[0, 1)`.
    pub tx_correlation: f64,
    /// Exponential antenna-correlation coefficient at the receiver, in `[0, 1)`.
    pub rx_correlation: f64,
    /// Maximum Doppler spread in Hz (pedestrian mobility / environment dynamics).
    pub doppler_hz: f64,
    /// Per-packet probability that a human-blockage event attenuates one tap.
    pub blockage_probability: f64,
    /// Attenuation applied by a blockage event, in dB.
    pub blockage_depth_db: f64,
    /// Standard deviation of the per-sample CSI estimation noise (relative to
    /// the unit-power channel), modelling the imperfect channel estimation of
    /// real measurement hardware.
    pub estimation_noise_std: f64,
}

impl EnvironmentProfile {
    /// Environment **E1** of the paper: an office with few reflectors and low
    /// human traffic — a short, partly line-of-sight power-delay profile with
    /// low Doppler and no blockage events.
    pub fn e1() -> Self {
        Self {
            name: "E1".to_string(),
            taps: vec![
                Tap::rician(0.0, 0.0, 3.0),
                Tap::rayleigh(10.0, -5.4),
                Tap::rayleigh(20.0, -10.8),
                Tap::rayleigh(30.0, -16.2),
                Tap::rayleigh(40.0, -21.7),
            ],
            tx_correlation: 0.35,
            rx_correlation: 0.30,
            doppler_hz: 1.5,
            blockage_probability: 0.0,
            blockage_depth_db: 0.0,
            estimation_noise_std: 0.02,
        }
    }

    /// Environment **E2** of the paper: a furnished room with many reflectors
    /// and frequent human traffic — a longer, richer power-delay profile with
    /// higher Doppler and random blockage events.
    pub fn e2() -> Self {
        Self {
            name: "E2".to_string(),
            taps: vec![
                Tap::rayleigh(0.0, 0.0),
                Tap::rayleigh(10.0, -0.9),
                Tap::rayleigh(20.0, -1.7),
                Tap::rayleigh(30.0, -2.6),
                Tap::rayleigh(50.0, -3.5),
                Tap::rayleigh(80.0, -7.4),
                Tap::rayleigh(110.0, -11.1),
                Tap::rayleigh(140.0, -13.3),
                Tap::rayleigh(180.0, -16.4),
                Tap::rayleigh(230.0, -19.1),
                Tap::rayleigh(280.0, -21.7),
                Tap::rayleigh(330.0, -24.4),
                Tap::rayleigh(400.0, -27.8),
            ],
            tx_correlation: 0.15,
            rx_correlation: 0.12,
            doppler_hz: 6.0,
            blockage_probability: 0.08,
            blockage_depth_db: 8.0,
            estimation_noise_std: 0.04,
        }
    }

    /// The IEEE TGac **Model-B** profile (9 taps, 2 clusters) used by the paper
    /// for the 160 MHz synthetic datasets D13–D15, matching the published
    /// Model-B power delay profile.
    pub fn model_b() -> Self {
        Self {
            name: "Model-B".to_string(),
            taps: vec![
                // Cluster 1
                Tap::rayleigh(0.0, 0.0),
                Tap::rayleigh(10.0, -5.4),
                Tap::rayleigh(20.0, -10.8),
                Tap::rayleigh(30.0, -16.2),
                Tap::rayleigh(40.0, -21.7),
                // Cluster 2 (starts at 20 ns with its own decay)
                Tap::rayleigh(20.0, -3.2),
                Tap::rayleigh(40.0, -6.3),
                Tap::rayleigh(60.0, -9.4),
                Tap::rayleigh(80.0, -12.5),
            ],
            tx_correlation: 0.25,
            rx_correlation: 0.20,
            doppler_hz: 3.0,
            blockage_probability: 0.0,
            blockage_depth_db: 0.0,
            estimation_noise_std: 0.0,
        }
    }

    /// RMS delay spread of the profile in nanoseconds.
    #[cfg(test)]
    pub fn rms_delay_spread_ns(&self) -> f64 {
        let total_power: f64 = self.taps.iter().map(Tap::power_linear).sum();
        if total_power == 0.0 {
            return 0.0;
        }
        let mean_delay: f64 = self
            .taps
            .iter()
            .map(|t| t.power_linear() * t.delay_ns)
            .sum::<f64>()
            / total_power;
        let second_moment: f64 = self
            .taps
            .iter()
            .map(|t| t.power_linear() * t.delay_ns * t.delay_ns)
            .sum::<f64>()
            / total_power;
        (second_moment - mean_delay * mean_delay).max(0.0).sqrt()
    }
}

/// Lower-triangular Cholesky factor of the exponential correlation matrix
/// `R[i][j] = rho^|i-j|` of size `n`.
fn exponential_correlation_cholesky(n: usize, rho: f64) -> Vec<Vec<f64>> {
    // Build R then run a plain Cholesky; n <= 8 so cost is negligible.
    let r: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| rho.powi((i as i32 - j as i32).abs()))
                .collect()
        })
        .collect();
    let mut l = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = r[i][j];
            // Indexed on purpose: `l[i]` and `l[j]` alias when i == j.
            #[allow(clippy::needless_range_loop)]
            for k in 0..j {
                sum -= l[i][k] * l[j][k];
            }
            if i == j {
                l[i][j] = sum.max(1e-12).sqrt();
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    l
}

/// Draws a standard complex Gaussian (unit variance per complex dimension).
fn complex_gaussian(rng: &mut impl Rng) -> Complex64 {
    let (u1, u2) = gaussian_uniforms(rng);
    box_muller(u1, u2)
}

/// Draws the two uniforms one [`box_muller`] sample consumes, `u1` first.
fn gaussian_uniforms(rng: &mut impl Rng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// Box-Muller; each of re/im has variance 1/2 so |z|^2 has mean 1.
fn box_muller(u1: f64, u2: f64) -> Complex64 {
    Complex64::from_polar((-u1.ln()).sqrt(), 2.0 * PI * u2)
}

/// One tap realization: an `Nr x Nt` MIMO matrix.
#[derive(Debug, Clone)]
struct TapState {
    gain: CMatrix,
    delay_s: f64,
    power: f64,
    rician_k: Option<f64>,
    blocked: bool,
}

/// Subcarriers in one part of a snapshot's hand-out: eight parts a 3x3 /
/// 80 MHz station, ≈ 20 µs each; two a 2x2 / 20 MHz one.
const PART_SUBCARRIERS: usize = 32;

/// Entries a subcarrier accumulates at once, on the stack: a whole 8x8
/// matrix. A wider one is synthesized in chunks of this many, each computing
/// its taps' phases again.
const ACC_ENTRIES: usize = 64;

/// One (user, tap) term of a snapshot, hoisted out of the subcarrier loop.
struct TapTerm<'a> {
    /// The tap's `Nr x Nt` gain, row-major; a Rician tap's LOS/NLOS mix.
    gain: &'a [Complex64],
    /// `sqrt(power) · norm`, attenuated when the tap is blocked. Applied, as
    /// the loop this replaced applied it, as a complex multiply by this
    /// `from_real` value: a real scale gives other bits for a product with a
    /// signed zero or an infinite part.
    amplitude: Complex64,
    delay_s: f64,
}

/// Writes one subcarrier's channel, `Σ_taps (gain · e^{-2πi f τ}) ·
/// amplitude`, then plus the estimation noise, over the noise uniforms the
/// draw left in `h` (`re = u1, im = u2`; none were drawn when `noise_std` is
/// zero). Every entry starts from `+0` and takes its taps in order.
fn synthesize_subcarrier(h: &mut [Complex64], f: f64, taps: &[TapTerm<'_>], noise_std: f64) {
    let mut acc = [Complex64::ZERO; ACC_ENTRIES];
    for (chunk, out) in h.chunks_mut(ACC_ENTRIES).enumerate() {
        let start = chunk * ACC_ENTRIES;
        let acc = &mut acc[..out.len()];
        acc.fill(Complex64::ZERO);
        for tap in taps {
            let phase = Complex64::cis(-2.0 * PI * f * tap.delay_s);
            for (a, &g) in acc.iter_mut().zip(&tap.gain[start..]) {
                *a += g * phase * tap.amplitude;
            }
        }
        for (z, &a) in out.iter_mut().zip(acc.iter()) {
            *z = if noise_std > 0.0 {
                a + box_muller(z.re, z.im) * Complex64::from_real(noise_std)
            } else {
                a
            };
        }
    }
}

/// A time-evolving multi-user channel: holds the per-user, per-tap MIMO fading
/// state and produces correlated [`ChannelSnapshot`]s packet after packet.
///
/// ```
/// use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
/// use wifi_phy::ofdm::Bandwidth;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(3);
/// let model = ChannelModel::new(EnvironmentProfile::e2(), Bandwidth::Mhz20, 2, 2, 1);
/// let mut process = model.process(&mut rng);
/// let first = process.advance(1e-3, &mut rng);
/// let second = process.advance(1e-3, &mut rng);
/// assert_eq!(first.num_users(), 2);
/// assert_eq!(second.subcarriers(), 56);
/// ```
#[derive(Debug, Clone)]
pub struct ChannelProcess {
    model: ChannelModel,
    users: Vec<Vec<TapState>>,
    tx_chol: Vec<Vec<f64>>,
    rx_chol: Vec<Vec<f64>>,
}

/// Static description of a multi-user channel: environment profile plus MIMO
/// and bandwidth configuration. Use [`ChannelModel::sample`] for independent
/// snapshots or [`ChannelModel::process`] for temporally correlated traces.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelModel {
    /// Propagation environment.
    pub profile: EnvironmentProfile,
    /// Channel bandwidth.
    pub bandwidth: Bandwidth,
    /// Number of AP antennas `Nt`.
    pub nt: usize,
    /// Number of receive antennas per station `Nr`.
    pub nr: usize,
    /// Number of stations `Ns`.
    pub num_stations: usize,
    /// Spatial streams per station (always 1 in the paper's evaluation).
    pub nss: usize,
}

impl ChannelModel {
    /// Creates a channel model with one spatial stream per station.
    ///
    /// # Panics
    /// Panics if any dimension is zero or the total number of streams exceeds `nt`.
    pub fn new(
        profile: EnvironmentProfile,
        bandwidth: Bandwidth,
        nt: usize,
        num_stations: usize,
        nss: usize,
    ) -> Self {
        // Receive antennas default to nt (the measurement STAs expose all chains).
        Self::with_rx_antennas(profile, bandwidth, nt, nt, num_stations, nss)
    }

    /// Creates a channel model with an explicit number of receive antennas.
    ///
    /// # Panics
    /// Panics if any dimension is zero or the total number of streams exceeds `nt`.
    pub fn with_rx_antennas(
        profile: EnvironmentProfile,
        bandwidth: Bandwidth,
        nt: usize,
        nr: usize,
        num_stations: usize,
        nss: usize,
    ) -> Self {
        assert!(nt > 0 && nr > 0 && num_stations > 0 && nss > 0);
        assert!(
            num_stations * nss <= nt,
            "total streams exceed transmit antennas"
        );
        Self {
            profile,
            bandwidth,
            nt,
            nr,
            num_stations,
            nss,
        }
    }

    /// Builds a model from a [`MimoConfig`].
    pub fn from_config(profile: EnvironmentProfile, config: &MimoConfig) -> Self {
        Self::with_rx_antennas(
            profile,
            config.bandwidth,
            config.nt,
            config.nr,
            config.num_stations,
            config.nss,
        )
    }

    /// The equivalent [`MimoConfig`].
    pub fn config(&self) -> MimoConfig {
        MimoConfig {
            nt: self.nt,
            nr: self.nr,
            num_stations: self.num_stations,
            nss: self.nss,
            bandwidth: self.bandwidth,
        }
    }

    /// Starts a time-correlated channel process.
    pub fn process(&self, rng: &mut impl Rng) -> ChannelProcess {
        let tx_chol = exponential_correlation_cholesky(self.nt, self.profile.tx_correlation);
        let rx_chol = exponential_correlation_cholesky(self.nr, self.profile.rx_correlation);
        let users = (0..self.num_stations)
            .map(|_| {
                self.profile
                    .taps
                    .iter()
                    .map(|tap| TapState {
                        gain: correlated_gaussian_matrix(self.nr, self.nt, &rx_chol, &tx_chol, rng),
                        delay_s: tap.delay_ns * 1e-9,
                        power: tap.power_linear(),
                        rician_k: tap.rician_k_db.map(|k| 10f64.powf(k / 10.0)),
                        blocked: false,
                    })
                    .collect()
            })
            .collect();
        ChannelProcess {
            model: self.clone(),
            users,
            tx_chol,
            rx_chol,
        }
    }

    /// Draws one independent channel snapshot (no temporal correlation with any
    /// other snapshot).
    pub fn sample(&self, rng: &mut impl Rng) -> ChannelSnapshot {
        self.process(rng).snapshot(rng)
    }
}

/// Draws an `nr x nt` matrix of i.i.d. complex Gaussians and applies Kronecker
/// correlation `L_rx * G * L_tx^T`.
fn correlated_gaussian_matrix(
    nr: usize,
    nt: usize,
    rx_chol: &[Vec<f64>],
    tx_chol: &[Vec<f64>],
    rng: &mut impl Rng,
) -> CMatrix {
    let g = CMatrix::from_fn(nr, nt, |_, _| complex_gaussian(rng));
    // out[r][c] = sum_{i,j} Lrx[r][i] * G[i][j] * Ltx[c][j]
    CMatrix::from_fn(nr, nt, |r, c| {
        let mut acc = Complex64::ZERO;
        for i in 0..=r.min(nr - 1) {
            let lr = rx_chol[r][i];
            if lr == 0.0 {
                continue;
            }
            for j in 0..=c.min(nt - 1) {
                let lt = tx_chol[c][j];
                if lt != 0.0 {
                    acc += g[(i, j)].scale(lr * lt);
                }
            }
        }
        acc
    })
}

impl ChannelProcess {
    /// Advances the fading state by `dt` seconds and returns the resulting
    /// channel snapshot. Consecutive calls produce temporally correlated CSI
    /// with correlation controlled by the profile's Doppler spread.
    pub fn advance(&mut self, dt: f64, rng: &mut impl Rng) -> ChannelSnapshot {
        // Gaussian autocorrelation approximation of Clarke's model:
        // rho = exp(-(pi * fd * dt)^2 / 2), clamped for numerical safety.
        let fd = self.model.profile.doppler_hz;
        let x = std::f64::consts::PI * fd * dt;
        let rho = (-(x * x) / 2.0).exp().clamp(0.0, 1.0);
        let innovation_scale = (1.0 - rho * rho).sqrt();

        let nr = self.model.nr;
        let nt = self.model.nt;
        for user_taps in &mut self.users {
            for tap in user_taps.iter_mut() {
                let innovation =
                    correlated_gaussian_matrix(nr, nt, &self.rx_chol, &self.tx_chol, rng);
                tap.gain = tap
                    .gain
                    .scale_real(rho)
                    .add(&innovation.scale_real(innovation_scale));
                // Blockage events toggle per packet.
                tap.blocked = rng.gen_bool(self.model.profile.blockage_probability.clamp(0.0, 1.0));
            }
        }
        self.snapshot(rng)
    }

    /// Produces the snapshot for the current fading state without advancing time.
    ///
    /// Draws every noise uniform into the output first, then transforms the
    /// output in (user, subcarrier-block) parts — see the module docs.
    pub fn snapshot(&self, rng: &mut impl Rng) -> ChannelSnapshot {
        let model = &self.model;
        let (nr, nt) = (model.nr, model.nt);
        let s_count = model.bandwidth.subcarriers();
        let delta_f = model.bandwidth.subcarrier_spacing_hz();
        let total_power: f64 = model.profile.taps.iter().map(Tap::power_linear).sum();
        let norm = 1.0 / total_power.max(1e-12).sqrt();
        let blockage_lin = 10f64.powf(-model.profile.blockage_depth_db / 20.0);
        let noise_std = model.profile.estimation_noise_std;

        // Draw, in the order the transform consumes them (user, subcarrier,
        // row, column; `u1` then `u2`), into the matrices that are returned.
        let mut per_user: Vec<Vec<CMatrix>> = (0..model.num_stations)
            .map(|_| {
                (0..s_count)
                    .map(|_| {
                        if noise_std > 0.0 {
                            CMatrix::from_fn(nr, nt, |_, _| {
                                let (u1, u2) = gaussian_uniforms(rng);
                                Complex64::new(u1, u2)
                            })
                        } else {
                            CMatrix::zeros(nr, nt)
                        }
                    })
                    .collect()
            })
            .collect();

        // Hoist what does not depend on the subcarrier: one LOS matrix, each
        // Rician tap's LOS/NLOS mix, each (user, tap)'s amplitude.
        let los = CMatrix::from_fn(nr, nt, |r, c| {
            // A deterministic rank-1 LOS steering structure.
            Complex64::cis(PI * (r as f64 * 0.3 + c as f64 * 0.2))
        });
        let rician = self.users.iter().flatten();
        let rician = rician.filter_map(|tap| tap.rician_k.map(|k| (tap, k)));
        let mut mixes = Vec::with_capacity(rician.clone().count() * nr * nt);
        for (tap, k) in rician {
            let los_scale = Complex64::from_real((k / (k + 1.0)).sqrt());
            let nlos_scale = Complex64::from_real((1.0 / (k + 1.0)).sqrt());
            let pairs = los.as_slice().iter().zip(tap.gain.as_slice());
            mixes.extend(pairs.map(|(&l, &g)| l * los_scale + g * nlos_scale));
        }
        let mut mixes = mixes.chunks_exact(nr * nt);
        let taps = model.profile.taps.len();
        let mut terms = Vec::with_capacity(model.num_stations * taps);
        terms.extend(self.users.iter().flatten().map(|tap| {
            let mut amplitude = tap.power.sqrt() * norm;
            if tap.blocked {
                amplitude *= blockage_lin;
            }
            TapTerm {
                gain: match tap.rician_k {
                    Some(_) => mixes.next().expect("one mix per Rician tap"),
                    None => tap.gain.as_slice(),
                },
                amplitude: Complex64::from_real(amplitude),
                delay_s: tap.delay_s,
            }
        }));

        // Transform: every part in place, claimed by the pool's threads.
        let mut parts = Vec::with_capacity(model.num_stations * s_count.div_ceil(PART_SUBCARRIERS));
        for (user, out) in per_user.iter_mut().enumerate() {
            let user_terms = &terms[user * taps..(user + 1) * taps];
            let blocks = out.chunks_mut(PART_SUBCARRIERS).enumerate();
            parts.extend(blocks.map(|(b, out)| (user_terms, b * PART_SUBCARRIERS, out)));
        }
        let center = (s_count as f64 - 1.0) / 2.0;
        parts.par_iter_mut().for_each(|(taps, first, out)| {
            for (s, h) in (*first..).zip(out.iter_mut()) {
                // Center the usable subcarriers around DC.
                let f = (s as f64 - center) * delta_f;
                synthesize_subcarrier(h.as_mut_slice(), f, taps, noise_std);
            }
        });

        ChannelSnapshot {
            nt: model.nt,
            nr: model.nr,
            nss: model.nss,
            bandwidth: model.bandwidth,
            per_user,
        }
    }
}

/// One multi-user CSI observation: for every station, the `Nr x Nt` channel
/// matrix on every subcarrier.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSnapshot {
    nt: usize,
    nr: usize,
    nss: usize,
    bandwidth: Bandwidth,
    /// `per_user[u][s]` is the `Nr x Nt` channel of user `u` on subcarrier `s`.
    per_user: Vec<Vec<CMatrix>>,
}

impl ChannelSnapshot {
    /// Builds a snapshot from raw per-user, per-subcarrier channel matrices.
    ///
    /// # Panics
    /// Panics if the nesting is empty or the matrices disagree in shape.
    pub fn from_matrices(bandwidth: Bandwidth, nss: usize, per_user: Vec<Vec<CMatrix>>) -> Self {
        assert!(!per_user.is_empty(), "at least one user required");
        assert!(!per_user[0].is_empty(), "at least one subcarrier required");
        let (nr, nt) = per_user[0][0].shape();
        for user in &per_user {
            assert_eq!(user.len(), per_user[0].len(), "subcarrier count mismatch");
            for h in user {
                assert_eq!(h.shape(), (nr, nt), "channel matrix shape mismatch");
            }
        }
        Self {
            nt,
            nr,
            nss,
            bandwidth,
            per_user,
        }
    }

    /// Number of stations in the snapshot.
    pub fn num_users(&self) -> usize {
        self.per_user.len()
    }

    /// Number of subcarriers in the snapshot.
    pub fn subcarriers(&self) -> usize {
        self.per_user[0].len()
    }

    /// Number of AP antennas.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Number of station antennas.
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// Spatial streams per station.
    pub fn nss(&self) -> usize {
        self.nss
    }

    /// Channel bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The per-subcarrier channel matrices of station `user`.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn csi(&self, user: usize) -> &[CMatrix] {
        &self.per_user[user]
    }

    /// Mutable access to the per-subcarrier channel matrices of station `user`
    /// (used by the dataset pipeline to inject capture artifacts).
    pub fn csi_mut(&mut self, user: usize) -> &mut Vec<CMatrix> {
        &mut self.per_user[user]
    }

    /// Computes the ideal (SVD-based) beamforming feedback for every station:
    /// `result[u][s]` is the `Nt x Nss` matrix of dominant right singular
    /// vectors of `H_u(s)` — exactly what the 802.11 procedure would feed back
    /// with infinite precision.
    pub fn ideal_beamforming(&self) -> Vec<Vec<CMatrix>> {
        self.per_user
            .iter()
            .map(|per_sc| {
                per_sc
                    .iter()
                    .map(|h| Svd::compute(h).beamforming_matrix(self.nss))
                    .collect()
            })
            .collect()
    }

    /// Flattens user `user`'s CSI into the interleaved real vector the DNNs
    /// consume (length `2 * Nr * Nt * S`).
    pub fn csi_real_vector(&self, user: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(2 * self.nr * self.nt * self.subcarriers());
        for h in &self.per_user[user] {
            out.extend(h.as_slice().iter().flat_map(|z| [z.re, z.im]));
        }
        out
    }

    /// Average per-entry channel power across users and subcarriers; the
    /// tests' normalization check.
    #[cfg(test)]
    pub fn average_power(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for user in &self.per_user {
            for h in user {
                total += h.as_slice().iter().map(|z| z.norm_sqr()).sum::<f64>();
                count += h.rows() * h.cols();
            }
        }
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn profiles_have_distinct_richness() {
        let e1 = EnvironmentProfile::e1();
        let e2 = EnvironmentProfile::e2();
        assert!(e2.taps.len() > e1.taps.len());
        assert!(e2.rms_delay_spread_ns() > 2.0 * e1.rms_delay_spread_ns());
        assert!(e2.doppler_hz > e1.doppler_hz);
        assert!(e2.blockage_probability > e1.blockage_probability);
    }

    #[test]
    fn model_b_has_nine_taps() {
        assert_eq!(EnvironmentProfile::model_b().taps.len(), 9);
    }

    #[test]
    fn snapshot_dimensions() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 3, 3, 1);
        let snap = model.sample(&mut rng);
        assert_eq!(snap.num_users(), 3);
        assert_eq!(snap.subcarriers(), 56);
        assert_eq!(snap.csi(0)[0].shape(), (3, 3));
        assert_eq!(snap.csi_real_vector(1).len(), 2 * 3 * 3 * 56);
    }

    #[test]
    fn average_power_is_order_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = ChannelModel::new(EnvironmentProfile::e2(), Bandwidth::Mhz20, 2, 2, 1);
        let mut acc = 0.0;
        let n = 20;
        for _ in 0..n {
            acc += model.sample(&mut rng).average_power();
        }
        let avg = acc / n as f64;
        assert!(avg > 0.3 && avg < 3.0, "average power {avg} not O(1)");
    }

    #[test]
    fn frequency_selectivity_present() {
        // With multipath, different subcarriers must see different channels.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = ChannelModel::new(EnvironmentProfile::e2(), Bandwidth::Mhz80, 2, 2, 1);
        let snap = model.sample(&mut rng);
        let first = &snap.csi(0)[0];
        let last = &snap.csi(0)[snap.subcarriers() - 1];
        assert!(first.sub(last).frobenius_norm() > 1e-3);
    }

    #[test]
    fn temporal_correlation_decays_with_doppler() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = ChannelModel::new(EnvironmentProfile::e2(), Bandwidth::Mhz20, 2, 2, 1);
        let mut process = model.process(&mut rng);
        let a = process.advance(0.0, &mut rng);
        let b = process.advance(1e-3, &mut rng); // 1 ms later: highly correlated
        let c = process.advance(10.0, &mut rng); // 10 s later: decorrelated
        let d_small = a.csi(0)[0].sub(&b.csi(0)[0]).frobenius_norm();
        let d_large = b.csi(0)[0].sub(&c.csi(0)[0]).frobenius_norm();
        assert!(
            d_small < d_large,
            "1 ms step ({d_small}) should change the channel less than 10 s ({d_large})"
        );
    }

    #[test]
    fn ideal_beamforming_has_unit_norm_columns() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let snap = model.sample(&mut rng);
        let bf = snap.ideal_beamforming();
        assert_eq!(bf.len(), 2);
        assert_eq!(bf[0].len(), 56);
        for v in &bf[0] {
            assert_eq!(v.shape(), (2, 1));
            assert!(v.is_unitary_columns(1e-9));
        }
    }

    #[test]
    fn users_have_independent_channels() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let snap = model.sample(&mut rng);
        let diff = snap.csi(0)[0].sub(&snap.csi(1)[0]).frobenius_norm();
        assert!(diff > 1e-3, "different users should see different channels");
    }

    #[test]
    fn deterministic_given_seed() {
        let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 2, 1);
        let snap_a = model.sample(&mut ChaCha8Rng::seed_from_u64(42));
        let snap_b = model.sample(&mut ChaCha8Rng::seed_from_u64(42));
        assert_eq!(snap_a, snap_b);
    }

    #[test]
    fn from_matrices_validates_shapes() {
        let h = CMatrix::identity(2);
        let snap = ChannelSnapshot::from_matrices(
            Bandwidth::Mhz20,
            1,
            vec![vec![h.clone(), h.clone()], vec![h.clone(), h]],
        );
        assert_eq!(snap.num_users(), 2);
        assert_eq!(snap.subcarriers(), 2);
    }

    #[test]
    #[should_panic]
    fn from_matrices_rejects_mismatched_shapes() {
        let _ = ChannelSnapshot::from_matrices(
            Bandwidth::Mhz20,
            1,
            vec![vec![CMatrix::identity(2)], vec![CMatrix::identity(3)]],
        );
    }

    #[test]
    fn rms_delay_spread_zero_for_single_tap() {
        let profile = EnvironmentProfile {
            name: "flat".into(),
            taps: vec![Tap::rayleigh(0.0, 0.0)],
            tx_correlation: 0.0,
            rx_correlation: 0.0,
            doppler_hz: 0.0,
            blockage_probability: 0.0,
            blockage_depth_db: 0.0,
            estimation_noise_std: 0.0,
        };
        assert!(profile.rms_delay_spread_ns() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_snapshot_shapes_consistent(nt in 1usize..4, users in 1usize..3, seed in 0u64..200) {
            prop_assume!(users <= nt);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let model = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, nt, users, 1);
            let snap = model.sample(&mut rng);
            prop_assert_eq!(snap.num_users(), users);
            prop_assert_eq!(snap.csi(0)[0].shape(), (nt, nt));
            prop_assert!(snap.average_power().is_finite());
        }

        #[test]
        fn prop_cholesky_reconstructs_correlation(n in 1usize..6, rho in 0.0f64..0.9) {
            let l = exponential_correlation_cholesky(n, rho);
            for i in 0..n {
                for j in 0..n {
                    let val: f64 = l[i].iter().zip(l[j].iter()).map(|(a, b)| a * b).sum();
                    let expected = rho.powi((i as i32 - j as i32).abs());
                    prop_assert!((val - expected).abs() < 1e-6);
                }
            }
        }
    }
}
