//! Airtime model of the IEEE 802.11 multi-user channel sounding procedure.
//!
//! Figure 3 of the paper shows the sounding sequence: the AP sends an NDP
//! Announcement followed by an NDP; each station then returns its beamforming
//! report, solicited by Beamforming Report Poll frames, all separated by SIFS.
//! This module turns a feedback payload size into airtime so the end-to-end
//! delay constraint (Eq. 7d) and the feedback-overhead comparisons can be
//! evaluated without radio hardware.

use crate::ofdm::Bandwidth;

/// Short interframe space of 802.11 at 5 GHz, in seconds.
pub const SIFS_S: f64 = 16e-6;

/// Duration of the NDP Announcement control frame, in seconds.
pub const NDP_ANNOUNCEMENT_S: f64 = 68e-6;

/// Duration of one Null Data Packet (sounding frame), in seconds.
pub const NDP_S: f64 = 72e-6;

/// Duration of a Beamforming Report Poll frame, in seconds.
pub const BRP_POLL_S: f64 = 44e-6;

/// PHY/MAC overhead of one feedback frame (preamble + headers), in seconds.
pub const FEEDBACK_FRAME_OVERHEAD_S: f64 = 60e-6;

/// Parameters of the sounding airtime model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoundingConfig {
    /// Channel bandwidth (affects the feedback transmission rate).
    pub bandwidth: Bandwidth,
    /// Number of stations polled in one sounding round.
    pub num_stations: usize,
    /// Data rate at which the compressed feedback is transmitted, in Mbit/s.
    /// The paper's overhead estimates assume feedback is sent at a basic rate;
    /// the default scales a conservative 24 Mbit/s with the channel width.
    pub feedback_rate_mbps: f64,
    /// How often the AP re-sounds the channel, in seconds (10 ms in MU-MIMO
    /// according to the reference cited by the paper).
    pub sounding_interval_s: f64,
}

impl SoundingConfig {
    /// A conservative default configuration for the given bandwidth and number
    /// of stations: 24 Mbit/s per 20 MHz of bandwidth, 10 ms sounding interval.
    pub fn new(bandwidth: Bandwidth, num_stations: usize) -> Self {
        Self {
            bandwidth,
            num_stations,
            feedback_rate_mbps: 24.0 * (bandwidth.mhz() as f64 / 20.0),
            sounding_interval_s: 0.01,
        }
    }
}

/// Breakdown of one sounding round's airtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoundingAirtime {
    /// Airtime of the fixed protocol frames (NDPA, NDP, polls, SIFS), in seconds.
    pub protocol_s: f64,
    /// Airtime of the feedback frames of all stations (PHY/MAC overhead plus
    /// payload — exactly `num_stations` × [`feedback_frame_airtime_s`]), in
    /// seconds.
    pub feedback_s: f64,
}

impl SoundingAirtime {
    /// Total airtime of the sounding round.
    pub fn total_s(&self) -> f64 {
        self.protocol_s + self.feedback_s
    }
}

/// Airtime needed to transmit `payload_bits` of beamforming feedback at
/// `rate_mbps`, excluding frame overhead.
pub fn feedback_payload_airtime_s(payload_bits: usize, rate_mbps: f64) -> f64 {
    payload_bits as f64 / (rate_mbps * 1e6)
}

/// On-air duration of **one** feedback frame: the PHY/MAC frame overhead plus
/// the payload at `rate_mbps`. This is the single per-frame airtime primitive:
/// [`sounding_round_airtime`] sums it per polled station, and the shared-medium
/// model of the event-driven simulator charges exactly this duration per frame
/// it serializes — the two can never drift.
pub fn feedback_frame_airtime_s(payload_bits: usize, rate_mbps: f64) -> f64 {
    FEEDBACK_FRAME_OVERHEAD_S + feedback_payload_airtime_s(payload_bits, rate_mbps)
}

/// Computes the airtime of one complete multi-user sounding round in which each
/// of the `num_stations` stations returns `per_station_feedback_bits` bits.
pub fn sounding_round_airtime(
    config: &SoundingConfig,
    per_station_feedback_bits: usize,
) -> SoundingAirtime {
    let n = config.num_stations.max(1);
    // NDPA + SIFS + NDP, then for every station: SIFS + (poll for all but the
    // first) + SIFS + feedback frame (the shared per-frame primitive).
    let mut protocol = NDP_ANNOUNCEMENT_S + SIFS_S + NDP_S;
    let mut feedback = 0.0;
    for station in 0..n {
        if station > 0 {
            protocol += SIFS_S + BRP_POLL_S;
        }
        protocol += SIFS_S;
        feedback += feedback_frame_airtime_s(per_station_feedback_bits, config.feedback_rate_mbps);
    }
    SoundingAirtime {
        protocol_s: protocol,
        feedback_s: feedback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_grows_with_feedback_size() {
        let cfg = SoundingConfig::new(Bandwidth::Mhz80, 3);
        let small = sounding_round_airtime(&cfg, 1_000).total_s();
        let large = sounding_round_airtime(&cfg, 100_000).total_s();
        assert!(large > small);
    }

    #[test]
    fn airtime_grows_with_station_count() {
        let one = SoundingConfig::new(Bandwidth::Mhz40, 1);
        let four = SoundingConfig::new(Bandwidth::Mhz40, 4);
        let bits = 10_000;
        assert!(
            sounding_round_airtime(&four, bits).total_s()
                > sounding_round_airtime(&one, bits).total_s()
        );
    }

    #[test]
    fn feedback_rate_scales_with_bandwidth() {
        let narrow = SoundingConfig::new(Bandwidth::Mhz20, 1);
        let wide = SoundingConfig::new(Bandwidth::Mhz160, 1);
        assert!(wide.feedback_rate_mbps > narrow.feedback_rate_mbps);
        let bits = 50_000;
        assert!(
            sounding_round_airtime(&wide, bits).feedback_s
                < sounding_round_airtime(&narrow, bits).feedback_s
        );
    }

    #[test]
    fn zero_stations_treated_as_one() {
        let cfg = SoundingConfig {
            bandwidth: Bandwidth::Mhz20,
            num_stations: 0,
            feedback_rate_mbps: 24.0,
            sounding_interval_s: 0.01,
        };
        assert!(sounding_round_airtime(&cfg, 100).total_s() > 0.0);
    }

    /// Satellite consistency test: the round airtime's feedback component must
    /// decompose exactly into `num_stations` copies of the shared per-frame
    /// primitive, for every bandwidth × station count × payload width — so the
    /// round-level math and any per-frame consumer (the event simulator's
    /// shared-medium model) can never drift.
    #[test]
    fn round_feedback_airtime_is_stations_times_frame_airtime() {
        let bandwidths = [
            Bandwidth::Mhz20,
            Bandwidth::Mhz40,
            Bandwidth::Mhz80,
            Bandwidth::Mhz160,
        ];
        for &bw in &bandwidths {
            for stations in [1usize, 2, 4, 8] {
                for bits in [56usize, 1_000, 43_520, 435_456] {
                    let cfg = SoundingConfig::new(bw, stations);
                    let round = sounding_round_airtime(&cfg, bits);
                    let per_frame = feedback_frame_airtime_s(bits, cfg.feedback_rate_mbps);
                    assert!(
                        (round.feedback_s - stations as f64 * per_frame).abs() < 1e-15,
                        "{bw:?}, {stations} stations, {bits} bits"
                    );
                    // The frame primitive always includes the PHY/MAC overhead.
                    assert!(per_frame >= FEEDBACK_FRAME_OVERHEAD_S);
                }
            }
        }
    }

    #[test]
    fn payload_airtime_linear_in_bits() {
        let a = feedback_payload_airtime_s(1000, 24.0);
        let b = feedback_payload_airtime_s(2000, 24.0);
        assert!((b - 2.0 * a).abs() < 1e-15);
    }
}
