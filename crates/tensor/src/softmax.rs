//! Numerically stable row softmax with manual backward.

use crate::tensor::Tensor;
use crate::vmath;

/// Row-wise softmax: each row of `x` becomes a probability distribution
/// (stable: the row maximum is subtracted first; a masked `-inf` score
/// yields a probability of exactly zero).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = Tensor::for_overwrite(x.dims());
    if x.is_empty() {
        return out;
    }
    vmath::softmax_rows(x.as_slice(), x.cols(), out.as_mut_slice());
    out
}

/// Backward of row softmax given the forward *output* `y`:
/// `dx_i = y_i * (dy_i - Σ_j dy_j y_j)` per row.
pub fn softmax_backward(dy: &Tensor, y: &Tensor) -> Tensor {
    assert_eq!(dy.dims(), y.dims());
    let mut dx = dy.clone();
    if dx.is_empty() {
        return dx;
    }
    let cols = y.cols();
    for (dx_row, y_row) in dx
        .as_mut_slice()
        .chunks_mut(cols)
        .zip(y.as_slice().chunks(cols))
    {
        let dot: f32 = dx_row.iter().zip(y_row.iter()).map(|(d, y)| d * y).sum();
        for (d, &yv) in dx_row.iter_mut().zip(y_row.iter()) {
            *d = yv * (*d - dot);
        }
    }
    dx
}

/// Applies a causal (lower-triangular) mask to an `[s, s]` score matrix view:
/// positions `j > i` are set to `-inf` before softmax. Used by the decoder
/// examples; the paper's BERT-style benchmarks run unmasked.
pub fn causal_mask(scores: &mut Tensor) {
    let s = scores.cols();
    assert_eq!(scores.rows() % s, 0, "expects stacked [s, s] blocks");
    let blocks = scores.rows() / s;
    for b in 0..blocks {
        for i in 0..s {
            let row = scores.row_mut(b * s + i);
            for v in row.iter_mut().skip(i + 1) {
                *v = f32::NEG_INFINITY;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::{assert_close, Tensor};

    #[test]
    fn rows_sum_to_one() {
        let mut rng = Rng::new(0);
        let x = Tensor::randn(&[6, 10], 3.0, &mut rng);
        let y = softmax_rows(&x);
        for r in 0..6 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn invariant_under_row_shift() {
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let mut shifted = x.clone();
        for v in shifted.as_mut_slice() {
            *v += 100.0;
        }
        assert_close(
            softmax_rows(&x).as_slice(),
            softmax_rows(&shifted).as_slice(),
            1e-5,
            1e-5,
        );
    }

    #[test]
    fn handles_large_magnitudes() {
        let x = Tensor::from_vec(&[1, 3], vec![1000.0, 1000.0, -1000.0]);
        let y = softmax_rows(&x);
        assert!((y.at(0, 0) - 0.5).abs() < 1e-5);
        assert!(y.at(0, 2) < 1e-6);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::new(2);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let dy = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let y = softmax_rows(&x);
        let dx = softmax_backward(&dy, &y);
        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp: f32 = softmax_rows(&xp)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = softmax_rows(&xm)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - fd).abs() < 2e-3,
                "idx={idx}: analytic={} fd={fd}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn causal_mask_zeroes_upper_triangle_probability() {
        let mut scores = Tensor::full(&[3, 3], 1.0);
        causal_mask(&mut scores);
        let probs = softmax_rows(&scores);
        assert!((probs.at(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(probs.at(0, 1), 0.0);
        assert_eq!(probs.at(0, 2), 0.0);
        assert!((probs.at(1, 0) - 0.5).abs() < 1e-6);
        assert!((probs.at(2, 2) - 1.0 / 3.0).abs() < 1e-6);
    }
}
