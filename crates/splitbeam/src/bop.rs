//! The Bottleneck Optimization Problem (BOP) and its heuristic solver.
//!
//! Equation (7) of the paper selects the bottleneck placement `e` and size `N`
//! that minimize a weighted sum of station overhead and feedback airtime,
//! subject to a BER ceiling (7c) and an end-to-end delay ceiling (7d). Solving
//! it exactly is a neural-architecture-search problem, so Section IV-C uses a
//! heuristic:
//!
//! 1. place the bottleneck right after the input (`e = 1`),
//! 2. use a single tail layer (3-layer network),
//! 3. start from the most aggressive compression level and train,
//! 4. if the BER constraint fails, move to the next (less aggressive) level;
//!    once the least aggressive level also fails, add a tail layer and repeat.
//!
//! Training and BER evaluation are supplied by the caller as closures, so the
//! solver is independent of the dataset and link-simulation machinery (and unit
//! tests can drive it with synthetic cost functions).

use crate::config::{CompressionLevel, SplitBeamConfig};
use crate::model::SplitBeamModel;
use crate::SplitBeamError;

/// The application constraints of the BOP (Eqs. 7b–7d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BopConstraints {
    /// Maximum tolerated bit error rate `gamma` (Eq. 7c).
    pub max_ber: f64,
    /// Maximum tolerated end-to-end feedback delay `tau` in seconds (Eq. 7d).
    /// Inclusive: a design whose delay lands exactly on it is feasible.
    pub max_delay_s: f64,
    /// Trade-off weight `mu` between station overhead and airtime (Eq. 7a);
    /// must lie strictly between 0 and 1 (Eq. 7b).
    pub mu: f64,
}

impl Default for BopConstraints {
    fn default() -> Self {
        Self {
            max_ber: 0.02,
            max_delay_s: 0.01,
            mu: 0.5,
        }
    }
}

impl BopConstraints {
    /// Validates Eq. (7b).
    ///
    /// # Errors
    /// Returns [`SplitBeamError::ConstraintsUnsatisfiable`] when `mu` is not in `(0, 1)`
    /// or a ceiling is not positive (`NaN` included).
    pub fn validate(&self) -> Result<(), SplitBeamError> {
        if !(self.mu > 0.0 && self.mu < 1.0) {
            return Err(SplitBeamError::ConstraintsUnsatisfiable(format!(
                "mu must be in (0, 1), got {}",
                self.mu
            )));
        }
        if !(self.max_ber > 0.0 && self.max_delay_s > 0.0) {
            return Err(SplitBeamError::ConstraintsUnsatisfiable(
                "BER and delay ceilings must be positive".into(),
            ));
        }
        Ok(())
    }

    /// The BOP objective (Eq. 7a) for one station given its computational
    /// overhead and feedback airtime (both already normalized by the caller).
    pub fn objective(&self, sta_overhead: f64, feedback_airtime: f64) -> f64 {
        self.mu * sta_overhead + (1.0 - self.mu) * feedback_airtime
    }
}

/// Result of one candidate evaluation inside the heuristic search.
#[derive(Debug, Clone, PartialEq)]
pub struct BopCandidate {
    /// The candidate configuration.
    pub config: SplitBeamConfig,
    /// Measured BER of the trained candidate.
    pub ber: f64,
    /// Estimated end-to-end delay of the candidate in seconds.
    pub delay_s: f64,
    /// Whether the candidate satisfied both constraints.
    pub feasible: bool,
}

/// Outcome of the heuristic BOP search.
#[derive(Debug, Clone)]
pub struct BopSolution {
    /// The selected model (trained by the caller-provided closure).
    pub model: SplitBeamModel,
    /// The candidate record of the selected model.
    pub selected: BopCandidate,
    /// Every candidate evaluated, in search order.
    pub explored: Vec<BopCandidate>,
}

/// Runs the heuristic BOP solver of Section IV-C.
///
/// * `base` — the MIMO/bandwidth configuration (its compression level and extra
///   layers are overwritten during the search).
/// * `constraints` — BER/delay ceilings and the trade-off weight.
/// * `max_extra_layers` — how many times the heuristic may deepen the tail
///   after exhausting the compression levels.
/// * `train` — trains a model for a candidate configuration.
/// * `evaluate_ber` — measures the BER of a trained candidate.
/// * `estimate_delay` — estimates the end-to-end feedback delay of a candidate.
///
/// # Errors
/// Returns [`SplitBeamError::ConstraintsUnsatisfiable`] when no candidate within
/// the search budget satisfies the constraints, or when the constraints
/// themselves are invalid.
pub fn solve_bop<T, B, D>(
    base: &SplitBeamConfig,
    constraints: &BopConstraints,
    max_extra_layers: usize,
    mut train: T,
    mut evaluate_ber: B,
    mut estimate_delay: D,
) -> Result<BopSolution, SplitBeamError>
where
    T: FnMut(&SplitBeamConfig) -> SplitBeamModel,
    B: FnMut(&SplitBeamModel) -> f64,
    D: FnMut(&SplitBeamConfig) -> f64,
{
    constraints.validate()?;
    let mut explored = Vec::new();
    let mut current_base = SplitBeamConfig {
        extra_tail_layers: Vec::new(),
        ..base.clone()
    };

    for depth in 0..=max_extra_layers {
        // Step 3: explore compression levels from the most aggressive one.
        for level in CompressionLevel::STANDARD {
            let candidate_config = SplitBeamConfig {
                compression: level,
                ..current_base.clone()
            };
            let delay = estimate_delay(&candidate_config);
            if delay > constraints.max_delay_s {
                // A candidate that already violates the delay ceiling is not trained.
                explored.push(BopCandidate {
                    config: candidate_config,
                    ber: f64::NAN,
                    delay_s: delay,
                    feasible: false,
                });
                continue;
            }
            let model = train(&candidate_config);
            let ber = evaluate_ber(&model);
            let feasible = ber <= constraints.max_ber;
            let candidate = BopCandidate {
                config: candidate_config,
                ber,
                delay_s: delay,
                feasible,
            };
            explored.push(candidate.clone());
            if feasible {
                return Ok(BopSolution {
                    model,
                    selected: candidate,
                    explored,
                });
            }
        }
        // Step 4: every compression level failed; insert another tail layer.
        if depth < max_extra_layers {
            current_base = current_base.with_extra_tail_layer();
        }
    }

    Err(SplitBeamError::ConstraintsUnsatisfiable(format!(
        "no candidate met BER <= {} and delay <= {} s after exploring {} candidates",
        constraints.max_ber,
        constraints.max_delay_s,
        explored.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    fn base_config() -> SplitBeamConfig {
        SplitBeamConfig::new(
            MimoConfig::symmetric(2, Bandwidth::Mhz20),
            CompressionLevel::OneThirtySecond,
        )
    }

    fn dummy_train(config: &SplitBeamConfig) -> SplitBeamModel {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        SplitBeamModel::new(config.clone(), &mut rng)
    }

    #[test]
    fn selects_first_level_meeting_the_ber_constraint() {
        // BER improves (drops) as the bottleneck widens; pretend only K >= 1/8 meets 0.02.
        let constraints = BopConstraints::default();
        let solution = solve_bop(
            &base_config(),
            &constraints,
            0,
            dummy_train,
            |model| match model.bottleneck_dim() {
                d if d >= 56 => 0.01, // K = 1/8 and 1/4
                d if d >= 28 => 0.05, // K = 1/16
                _ => 0.10,            // K = 1/32
            },
            |_| 0.001,
        )
        .unwrap();
        assert_eq!(
            solution.selected.config.compression.label(),
            "1/8",
            "the first feasible (most compressed) level should be selected"
        );
        // 1/32 and 1/16 were explored and found infeasible first.
        assert_eq!(solution.explored.len(), 3);
        assert!(!solution.explored[0].feasible);
        assert!(solution.explored[2].feasible);
    }

    #[test]
    fn adds_tail_layer_when_no_level_is_feasible() {
        // Flat 3-layer models never meet the constraint; deeper ones do.
        let constraints = BopConstraints {
            max_ber: 0.02,
            ..BopConstraints::default()
        };
        let solution = solve_bop(
            &base_config(),
            &constraints,
            2,
            dummy_train,
            |model| {
                if model.tail().layers().len() > 1 {
                    0.005
                } else {
                    0.5
                }
            },
            |_| 0.001,
        )
        .unwrap();
        assert!(!solution.selected.config.extra_tail_layers.is_empty());
        assert!(solution.explored.len() > 4);
    }

    #[test]
    fn unsatisfiable_search_reports_error() {
        let err = solve_bop(
            &base_config(),
            &BopConstraints::default(),
            1,
            dummy_train,
            |_| 1.0,
            |_| 0.001,
        )
        .unwrap_err();
        assert!(matches!(err, SplitBeamError::ConstraintsUnsatisfiable(_)));
    }

    #[test]
    fn delay_violations_skip_training() {
        let mut trained = 0usize;
        let result = solve_bop(
            &base_config(),
            &BopConstraints::default(),
            0,
            |config| {
                trained += 1;
                dummy_train(config)
            },
            |_| 0.0,
            |_| 1.0, // every candidate violates the 10 ms delay ceiling
        );
        assert!(result.is_err());
        assert_eq!(
            trained, 0,
            "no candidate should be trained when delay always fails"
        );
    }

    /// Eq. 7d is inclusive, as the server's deadline classes are: a design
    /// whose delay lands exactly on the ceiling is trained and selected.
    #[test]
    fn a_delay_exactly_on_the_ceiling_is_feasible() {
        let constraints = BopConstraints::default();
        let solution = solve_bop(
            &base_config(),
            &constraints,
            0,
            dummy_train,
            |_| 0.0,
            |_| constraints.max_delay_s,
        )
        .unwrap();
        assert_eq!(solution.selected.delay_s, constraints.max_delay_s);
        assert_eq!(solution.explored.len(), 1);
    }

    #[test]
    fn nan_ceilings_are_refused() {
        for constraints in [
            BopConstraints {
                max_ber: f64::NAN,
                ..BopConstraints::default()
            },
            BopConstraints {
                max_delay_s: f64::NAN,
                ..BopConstraints::default()
            },
        ] {
            assert!(
                matches!(
                    constraints.validate(),
                    Err(SplitBeamError::ConstraintsUnsatisfiable(_))
                ),
                "{constraints:?}"
            );
        }
    }

    #[test]
    fn constraint_validation() {
        assert!(BopConstraints {
            mu: 0.0,
            ..BopConstraints::default()
        }
        .validate()
        .is_err());
        assert!(BopConstraints {
            mu: 1.0,
            ..BopConstraints::default()
        }
        .validate()
        .is_err());
        assert!(BopConstraints {
            max_ber: -1.0,
            ..BopConstraints::default()
        }
        .validate()
        .is_err());
        assert!(BopConstraints::default().validate().is_ok());
    }

    #[test]
    fn objective_weights_terms() {
        let c = BopConstraints {
            mu: 0.25,
            ..BopConstraints::default()
        };
        assert!((c.objective(4.0, 8.0) - (0.25 * 4.0 + 0.75 * 8.0)).abs() < 1e-12);
    }
}
