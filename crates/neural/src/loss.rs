//! Loss functions.
//!
//! The paper trains SplitBeam with the normalized L1 objective of Eq. 8:
//! the squared error of every output element divided by the magnitude of the
//! corresponding target element, summed and averaged over the batch. Plain MSE
//! and L1 are provided for the ablation benches.

use crate::tensor::Matrix;

/// Small constant protecting the normalized loss against division by zero.
const NORMALIZATION_EPS: f32 = 1e-3;

/// Supported training objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loss {
    /// The paper's normalized L1 loss (Eq. 8): `mean_b sum_i (p_i - t_i)^2 / (|t_i| + eps)`.
    NormalizedL1,
    /// Mean squared error.
    Mse,
    /// Mean absolute error.
    Mae,
}

impl Loss {
    /// Evaluates the loss for a batch of predictions and targets.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn evaluate(self, prediction: &Matrix, target: &Matrix) -> f32 {
        assert_eq!(
            (prediction.rows(), prediction.cols()),
            (target.rows(), target.cols()),
            "loss shape mismatch"
        );
        let batch = prediction.rows() as f32;
        match self {
            Loss::NormalizedL1 => {
                let mut total = 0.0;
                for (p, t) in prediction.as_slice().iter().zip(target.as_slice()) {
                    let diff = p - t;
                    total += diff * diff / (t.abs() + NORMALIZATION_EPS);
                }
                total / batch
            }
            // Folded pair by pair, not through a difference matrix: the
            // trainer evaluates the loss every step and promises a warm step
            // no allocation.
            Loss::Mse => {
                let pairs = prediction.as_slice().iter().zip(target.as_slice());
                let squares = pairs.map(|(p, t)| {
                    let diff = p - t;
                    diff * diff
                });
                squares.sum::<f32>() / (prediction.as_slice().len() as f32)
            }
            Loss::Mae => {
                let pairs = prediction.as_slice().iter().zip(target.as_slice());
                pairs.map(|(p, t)| (p - t).abs()).sum::<f32>()
                    / (prediction.as_slice().len() as f32)
            }
        }
    }

    /// Gradient of the loss written into `out` (reshaped, storage reused).
    ///
    /// Values are bit-identical to the allocating `Loss::gradient` the tests
    /// use.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn gradient_into(self, prediction: &Matrix, target: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (prediction.rows(), prediction.cols()),
            (target.rows(), target.cols()),
            "loss shape mismatch"
        );
        let batch = prediction.rows() as f32;
        out.reshape_zeroed(prediction.rows(), prediction.cols());
        match self {
            Loss::NormalizedL1 => {
                for ((g, &p), &t) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(prediction.as_slice())
                    .zip(target.as_slice())
                {
                    *g = 2.0 * (p - t) / ((t.abs() + NORMALIZATION_EPS) * batch);
                }
            }
            Loss::Mse => {
                let k = 2.0 / prediction.as_slice().len() as f32;
                for ((g, &p), &t) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(prediction.as_slice())
                    .zip(target.as_slice())
                {
                    *g = (p - t) * k;
                }
            }
            Loss::Mae => {
                let n = prediction.as_slice().len() as f32;
                for ((g, &p), &t) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(prediction.as_slice())
                    .zip(target.as_slice())
                {
                    let v = p - t;
                    *g = if v > 0.0 {
                        1.0 / n
                    } else if v < 0.0 {
                        -1.0 / n
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    /// Gradient of the loss with respect to the predictions: the tests'
    /// allocating form of [`Loss::gradient_into`].
    ///
    /// # Panics
    /// Panics if the shapes differ.
    #[cfg(test)]
    pub fn gradient(self, prediction: &Matrix, target: &Matrix) -> Matrix {
        assert_eq!(
            (prediction.rows(), prediction.cols()),
            (target.rows(), target.cols()),
            "loss shape mismatch"
        );
        let batch = prediction.rows() as f32;
        match self {
            Loss::NormalizedL1 => {
                let mut grad = prediction.clone();
                for ((g, p), t) in grad
                    .as_mut_slice()
                    .iter_mut()
                    .zip(prediction.as_slice())
                    .zip(target.as_slice())
                {
                    *g = 2.0 * (p - t) / ((t.abs() + NORMALIZATION_EPS) * batch);
                }
                grad
            }
            Loss::Mse => prediction
                .sub(target)
                .scale(2.0 / prediction.as_slice().len() as f32),
            Loss::Mae => {
                let n = prediction.as_slice().len() as f32;
                prediction.sub(target).map(move |v| {
                    if v > 0.0 {
                        1.0 / n
                    } else if v < 0.0 {
                        -1.0 / n
                    } else {
                        0.0
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_for_perfect_prediction() {
        let t = Matrix::from_rows(2, 2, &[1.0, -2.0, 0.5, 3.0]);
        for loss in [Loss::NormalizedL1, Loss::Mse, Loss::Mae] {
            assert!(loss.evaluate(&t, &t).abs() < 1e-9);
            assert!(loss
                .gradient(&t, &t)
                .as_slice()
                .iter()
                .all(|v| v.abs() < 1e-9));
        }
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_rows(1, 2, &[1.0, 3.0]);
        let t = Matrix::from_rows(1, 2, &[0.0, 1.0]);
        // ((1)^2 + (2)^2) / 2 = 2.5
        assert!((Loss::Mse.evaluate(&p, &t) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn normalized_loss_weights_small_targets_more() {
        let target_small = Matrix::from_rows(1, 1, &[0.1]);
        let target_large = Matrix::from_rows(1, 1, &[10.0]);
        let pred_small = Matrix::from_rows(1, 1, &[0.2]);
        let pred_large = Matrix::from_rows(1, 1, &[10.1]);
        // Same absolute error (0.1) but the small target is penalized more.
        let small = Loss::NormalizedL1.evaluate(&pred_small, &target_small);
        let large = Loss::NormalizedL1.evaluate(&pred_large, &target_large);
        assert!(small > large);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let p = Matrix::from_rows(2, 3, &[0.3, -0.8, 1.2, 0.1, 0.7, -0.4]);
        let t = Matrix::from_rows(2, 3, &[0.5, -1.0, 1.0, 0.4, 0.5, -0.5]);
        let eps = 1e-3f32;
        for loss in [Loss::NormalizedL1, Loss::Mse] {
            let grad = loss.gradient(&p, &t);
            for idx in 0..6 {
                let mut plus = p.clone();
                plus.as_mut_slice()[idx] += eps;
                let mut minus = p.clone();
                minus.as_mut_slice()[idx] -= eps;
                let numerical =
                    (loss.evaluate(&plus, &t) - loss.evaluate(&minus, &t)) / (2.0 * eps);
                assert!(
                    (numerical - grad.as_slice()[idx]).abs() < 1e-2,
                    "{loss:?} idx {idx}: numerical {numerical} vs analytic {}",
                    grad.as_slice()[idx]
                );
            }
        }
    }

    #[test]
    fn mae_gradient_is_sign() {
        let p = Matrix::from_rows(1, 2, &[2.0, -3.0]);
        let t = Matrix::from_rows(1, 2, &[0.0, 0.0]);
        let g = Loss::Mae.gradient(&p, &t);
        assert!(g.as_slice()[0] > 0.0);
        assert!(g.as_slice()[1] < 0.0);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let p = Matrix::zeros(1, 2);
        let t = Matrix::zeros(2, 1);
        let _ = Loss::Mse.evaluate(&p, &t);
    }
}
