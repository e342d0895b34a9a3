//! Cross-entropy from logits, factored for vocabulary-parallel execution.
//!
//! Section 3.2.2 of the paper: for one-hot targets the loss reduces to
//! `H = log Σᵢ exp(xᵢ) − x_l`. When the vocabulary dimension spans a SUMMA
//! row of `q` devices, each device computes a *local* `Σ exp` which is
//! all-reduced along the row; the same quantity is reused to form the softmax
//! for the backward pass (`dx_j = q_j` for `j ≠ l`, `dx_l = q_l − 1`).
//!
//! The primitives below are the local halves of that computation. The serial
//! entry point [`cross_entropy`] composes them with no communication, and is
//! the ground truth the 1D (Megatron vocab-parallel) and 2D (Optimus)
//! implementations are tested against.

use crate::tensor::Tensor;
use crate::vmath;

/// Per-row maximum over the local columns (for the stable log-sum-exp).
pub fn partial_row_max(x: &Tensor) -> Vec<f32> {
    let cols = x.cols();
    x.as_slice()
        .chunks(cols)
        .map(|row| row.iter().copied().fold(f32::NEG_INFINITY, f32::max))
        .collect()
}

/// Per-row `Σ_j exp(x_j − m_r)` over the local columns, where `m` is the
/// *global* per-row maximum (after the max all-reduce).
pub fn partial_sumexp(x: &Tensor, global_max: &[f32]) -> Vec<f32> {
    assert_eq!(global_max.len(), x.rows());
    let mut sums = vec![0.0f32; x.rows()];
    vmath::sumexp_rows(x.as_slice(), x.cols(), global_max, &mut sums);
    sums
}

/// Local softmax block `exp(x − m_r) / Σexp_r · scale` from the *global*
/// per-row maximum and `Σ exp` — the same `exp` as [`partial_sumexp`], so
/// the denominator a row was summed with is the one it is divided by.
pub fn softmax_from_parts(
    x: &Tensor,
    global_max: &[f32],
    global_sumexp: &[f32],
    scale: f32,
) -> Tensor {
    assert_eq!(global_max.len(), x.rows());
    assert_eq!(global_sumexp.len(), x.rows());
    let mut out = Tensor::for_overwrite(x.dims());
    vmath::softmax_from_parts(
        x.as_slice(),
        x.cols(),
        global_max,
        global_sumexp,
        scale,
        out.as_mut_slice(),
    );
    out
}

/// Per-row logit of the target label, for labels that fall inside the local
/// vocabulary slice `[vocab_offset, vocab_offset + cols)`; `0.0` otherwise.
/// Summing this across the row group yields `x_l` everywhere.
pub fn partial_label_logit(x: &Tensor, labels: &[usize], vocab_offset: usize) -> Vec<f32> {
    let cols = x.cols();
    assert_eq!(labels.len(), x.rows());
    labels
        .iter()
        .enumerate()
        .map(|(r, &l)| {
            if l >= vocab_offset && l < vocab_offset + cols {
                x.at(r, l - vocab_offset)
            } else {
                0.0
            }
        })
        .collect()
}

/// Mean loss over rows given global per-row reductions:
/// `H_r = m_r + ln(Σexp_r) − x_{l,r}` averaged over rows.
pub fn ce_loss_from_parts(global_max: &[f32], global_sumexp: &[f32], label_logit: &[f32]) -> f32 {
    let n = global_max.len();
    assert_eq!(global_sumexp.len(), n);
    assert_eq!(label_logit.len(), n);
    let total: f64 = (0..n)
        .map(|r| (global_max[r] + global_sumexp[r].ln() - label_logit[r]) as f64)
        .sum();
    (total / n as f64) as f32
}

/// Local gradient block: `dx = (softmax(x) − onehot(l)) * scale`, where the
/// softmax denominator is the global `Σ exp` and `scale` is typically
/// `1 / total_rows` (mean reduction).
pub fn ce_grad_local(
    x: &Tensor,
    labels: &[usize],
    vocab_offset: usize,
    global_max: &[f32],
    global_sumexp: &[f32],
    scale: f32,
) -> Tensor {
    let cols = x.cols();
    assert_eq!(labels.len(), x.rows());
    let mut dx = softmax_from_parts(x, global_max, global_sumexp, scale);
    for (r, &l) in labels.iter().enumerate() {
        if l >= vocab_offset && l < vocab_offset + cols {
            // The one-element case of the same kernel gives this entry's
            // unscaled probability back, bit for bit.
            let i = r * cols + l - vocab_offset;
            let mut p = [0.0];
            vmath::softmax_from_parts(
                &x.as_slice()[i..=i],
                1,
                &global_max[r..=r],
                &global_sumexp[r..=r],
                1.0,
                &mut p,
            );
            dx.as_mut_slice()[i] = (p[0] - 1.0) * scale;
        }
    }
    dx
}

/// Serial cross-entropy: returns `(mean loss, dlogits)` for logits
/// `[rows, vocab]` and one label per row.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let rows = logits.rows();
    assert_eq!(labels.len(), rows);
    for &l in labels {
        assert!(
            l < logits.cols(),
            "label {l} out of vocab {}",
            logits.cols()
        );
    }
    let m = partial_row_max(logits);
    let se = partial_sumexp(logits, &m);
    let ll = partial_label_logit(logits, labels, 0);
    let loss = ce_loss_from_parts(&m, &se, &ll);
    let grad = ce_grad_local(logits, labels, 0, &m, &se, 1.0 / rows as f32);
    (loss, grad)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // explicit indices aid test diagnostics
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::softmax::softmax_rows;
    use crate::{assert_close, Tensor};

    #[test]
    fn loss_of_perfect_prediction_is_small() {
        // Huge logit on the correct class.
        let mut logits = Tensor::zeros(&[2, 4]);
        *logits.at_mut(0, 1) = 50.0;
        *logits.at_mut(1, 3) = 50.0;
        let (loss, _) = cross_entropy(&logits, &[1, 3]);
        assert!(loss < 1e-5, "loss={loss}");
    }

    #[test]
    fn loss_of_uniform_logits_is_log_vocab() {
        let logits = Tensor::zeros(&[3, 8]);
        let (loss, _) = cross_entropy(&logits, &[0, 4, 7]);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_is_softmax_minus_onehot() {
        let mut rng = Rng::new(0);
        let logits = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let labels = [2usize, 0, 5, 1];
        let (_, grad) = cross_entropy(&logits, &labels);
        let probs = softmax_rows(&logits);
        for r in 0..4 {
            for c in 0..6 {
                let expected = (probs.at(r, c) - if labels[r] == c { 1.0 } else { 0.0 }) / 4.0;
                assert!((grad.at(r, c) - expected).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = Rng::new(1);
        let logits = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let labels = [4usize, 2, 0];
        let (_, grad) = cross_entropy(&logits, &labels);
        let eps = 1e-2f32;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fd = (cross_entropy(&lp, &labels).0 - cross_entropy(&lm, &labels).0) / (2.0 * eps);
            assert!(
                (grad.as_slice()[idx] - fd).abs() < 1e-3,
                "idx={idx}: analytic={} fd={fd}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn vocab_split_reproduces_serial() {
        // Two "devices" each hold half the vocabulary; compose the partial
        // reductions by hand (as an all-reduce would) and compare to serial.
        let mut rng = Rng::new(2);
        let logits = Tensor::randn(&[4, 10], 2.0, &mut rng);
        let labels = [7usize, 0, 9, 3];
        let (loss_ref, grad_ref) = cross_entropy(&logits, &labels);

        let left = logits.block(0, 0, 4, 5);
        let right = logits.block(0, 5, 4, 5);
        let ml = partial_row_max(&left);
        let mr = partial_row_max(&right);
        let m: Vec<f32> = ml.iter().zip(&mr).map(|(a, b)| a.max(*b)).collect();
        let sl = partial_sumexp(&left, &m);
        let sr = partial_sumexp(&right, &m);
        let s: Vec<f32> = sl.iter().zip(&sr).map(|(a, b)| a + b).collect();
        let xl: Vec<f32> = partial_label_logit(&left, &labels, 0)
            .iter()
            .zip(partial_label_logit(&right, &labels, 5).iter())
            .map(|(a, b)| a + b)
            .collect();
        let loss = ce_loss_from_parts(&m, &s, &xl);
        assert!((loss - loss_ref).abs() < 1e-5);

        let gl = ce_grad_local(&left, &labels, 0, &m, &s, 0.25);
        let gr = ce_grad_local(&right, &labels, 5, &m, &s, 0.25);
        let mut g = Tensor::zeros(&[4, 10]);
        g.set_block(0, 0, &gl);
        g.set_block(0, 5, &gr);
        assert_close(g.as_slice(), grad_ref.as_slice(), 1e-5, 1e-5);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn rejects_out_of_range_label() {
        let logits = Tensor::zeros(&[1, 4]);
        cross_entropy(&logits, &[4]);
    }
}
