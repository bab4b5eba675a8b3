//! OFDM / bandwidth configuration of IEEE 802.11ac/ax.
//!
//! The paper works with the 802.11ac VHT subcarrier layouts extracted by Nexmon
//! (56, 114 and 242 data+pilot subcarriers for 20/40/80 MHz) and a 160 MHz
//! synthetic configuration. [`Bandwidth`] captures those layouts plus a few
//! timing constants used by the airtime model.

/// Channel bandwidth of an 802.11ac/ax transmission.
///
/// The associated subcarrier counts follow the values used by the paper
/// (Section 5.2.1): 56 / 114 / 242 usable subcarriers at 20 / 40 / 80 MHz, and
/// 484 at 160 MHz for the synthetic datasets.
///
/// ```
/// use wifi_phy::Bandwidth;
/// assert_eq!(Bandwidth::Mhz20.subcarriers(), 56);
/// assert_eq!(Bandwidth::Mhz80.mhz(), 80);
/// assert!(Bandwidth::Mhz160.subcarriers() > Bandwidth::Mhz80.subcarriers());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bandwidth {
    /// 20 MHz channel (56 usable subcarriers in VHT).
    Mhz20,
    /// 40 MHz channel (114 usable subcarriers).
    Mhz40,
    /// 80 MHz channel (242 usable subcarriers).
    Mhz80,
    /// 160 MHz channel (484 usable subcarriers); only synthetic data in the paper.
    Mhz160,
}

impl Bandwidth {
    /// All bandwidths in increasing order.
    pub const ALL: [Bandwidth; 4] = [
        Bandwidth::Mhz20,
        Bandwidth::Mhz40,
        Bandwidth::Mhz80,
        Bandwidth::Mhz160,
    ];

    /// The bandwidths for which the paper has measured (non-synthetic) datasets.
    pub const MEASURED: [Bandwidth; 3] = [Bandwidth::Mhz20, Bandwidth::Mhz40, Bandwidth::Mhz80];

    /// Number of usable (data + pilot) subcarriers reported by the CSI extractor.
    pub fn subcarriers(self) -> usize {
        match self {
            Bandwidth::Mhz20 => 56,
            Bandwidth::Mhz40 => 114,
            Bandwidth::Mhz80 => 242,
            Bandwidth::Mhz160 => 484,
        }
    }

    /// Nominal channel width in MHz.
    pub fn mhz(self) -> u32 {
        match self {
            Bandwidth::Mhz20 => 20,
            Bandwidth::Mhz40 => 40,
            Bandwidth::Mhz80 => 80,
            Bandwidth::Mhz160 => 160,
        }
    }

    /// OFDM subcarrier spacing in Hz (802.11ac uses 312.5 kHz).
    pub fn subcarrier_spacing_hz(self) -> f64 {
        312_500.0
    }
}

impl std::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} MHz", self.mhz())
    }
}

/// A complete MU-MIMO network configuration: AP antennas, per-station antennas
/// and spatial streams, and channel bandwidth.
///
/// The paper's notation: `Nt` transmit antennas at the AP, `Ns` stations each
/// with `Nr` receive antennas and `Nss` spatial streams; the evaluation always
/// uses `Nss = 1` per station and `Nt = Ns` (e.g. "3x3" means a 3-antenna AP
/// serving 3 single-stream stations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MimoConfig {
    /// Number of AP (transmit) antennas, `Nt`.
    pub nt: usize,
    /// Number of receive antennas per station, `Nr`.
    pub nr: usize,
    /// Number of stations served simultaneously, `Ns`.
    pub num_stations: usize,
    /// Spatial streams per station, `Nss`.
    pub nss: usize,
    /// Channel bandwidth.
    pub bandwidth: Bandwidth,
}

impl MimoConfig {
    /// Creates the symmetric `n x n` configuration used throughout the paper:
    /// an `n`-antenna AP serving `n` stations, each with `n` receive antennas
    /// (matching the Nexmon STAs, which report all their chains) and one
    /// spatial stream.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn symmetric(n: usize, bandwidth: Bandwidth) -> Self {
        assert!(n > 0, "MIMO order must be at least 1");
        Self {
            nt: n,
            nr: n,
            num_stations: n,
            nss: 1,
            bandwidth,
        }
    }

    /// Creates a fully custom configuration.
    ///
    /// # Panics
    /// Panics if any dimension is zero or if the total number of streams
    /// (`num_stations * nss`) exceeds `nt` (the paper assumes
    /// `Nt = sum_i Nss_i`, so more streams than antennas is invalid).
    pub fn new(
        nt: usize,
        nr: usize,
        num_stations: usize,
        nss: usize,
        bandwidth: Bandwidth,
    ) -> Self {
        assert!(
            nt > 0 && nr > 0 && num_stations > 0 && nss > 0,
            "dimensions must be non-zero"
        );
        assert!(
            num_stations * nss <= nt,
            "total spatial streams ({}) exceed transmit antennas ({})",
            num_stations * nss,
            nt
        );
        Self {
            nt,
            nr,
            num_stations,
            nss,
            bandwidth,
        }
    }

    /// Number of subcarriers of the configured bandwidth.
    pub fn subcarriers(&self) -> usize {
        self.bandwidth.subcarriers()
    }

    /// Number of real values in one CSI tensor `H` (`2 * Nr * Nt * S`),
    /// i.e. the DNN input dimension after decoupling real/imaginary parts.
    pub fn csi_real_dim(&self) -> usize {
        2 * self.nr * self.nt * self.subcarriers()
    }

    /// Number of real values in one beamforming feedback tensor `V`
    /// (`2 * Nt * Nss * S`), i.e. the DNN output dimension.
    pub fn bf_real_dim(&self) -> usize {
        2 * self.nt * self.nss * self.subcarriers()
    }

    /// A short human-readable label such as `"3x3 @ 80 MHz"`.
    pub fn label(&self) -> String {
        format!("{}x{} @ {}", self.nt, self.num_stations, self.bandwidth)
    }
}

impl std::fmt::Display for MimoConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcarrier_counts_match_paper() {
        assert_eq!(Bandwidth::Mhz20.subcarriers(), 56);
        assert_eq!(Bandwidth::Mhz40.subcarriers(), 114);
        assert_eq!(Bandwidth::Mhz80.subcarriers(), 242);
        assert_eq!(Bandwidth::Mhz160.subcarriers(), 484);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Bandwidth::Mhz80), "80 MHz");
    }

    #[test]
    fn symmetric_config_dimensions() {
        let cfg = MimoConfig::symmetric(3, Bandwidth::Mhz40);
        assert_eq!(cfg.nt, 3);
        assert_eq!(cfg.nr, 3);
        assert_eq!(cfg.num_stations, 3);
        assert_eq!(cfg.nss, 1);
        assert_eq!(cfg.subcarriers(), 114);
    }

    #[test]
    fn dnn_dimensions() {
        let cfg = MimoConfig::symmetric(2, Bandwidth::Mhz20);
        // 2 * 2 * 2 * 56 = 448 input reals, matching Table II's 20 MHz "224-..." models
        // per complex dimension convention (the paper lists 224 = Nr*Nt*S real pairs / 2
        // per real/imag half; our interleaved convention is 448 total).
        assert_eq!(cfg.csi_real_dim(), 448);
        assert_eq!(cfg.bf_real_dim(), 224);
    }

    #[test]
    fn label_format() {
        let cfg = MimoConfig::symmetric(4, Bandwidth::Mhz160);
        assert_eq!(cfg.label(), "4x4 @ 160 MHz");
    }

    #[test]
    #[should_panic]
    fn too_many_streams_panics() {
        let _ = MimoConfig::new(2, 2, 3, 1, Bandwidth::Mhz20);
    }

    #[test]
    #[should_panic]
    fn zero_order_panics() {
        let _ = MimoConfig::symmetric(0, Bandwidth::Mhz20);
    }
}
