//! Multi-head self-attention core: `softmax(QKᵀ/√d)·V` per (sequence, head),
//! with manual backward. Projections live in the layer code; this module
//! takes already-projected Q, K, V.

use crate::config::ModelConfig;
use tensor::softmax::{causal_mask, softmax_backward, softmax_rows};
use tensor::{matmul_nn, matmul_nt, matmul_tn, Tensor};

/// Saved state: attention probabilities per (batch, head), in
/// `batch-major, head-minor` order, each `[s, s]`.
pub struct AttnCache {
    pub probs: Vec<Tensor>,
}

fn head_block(x: &Tensor, b: usize, head: usize, s: usize, d: usize) -> Tensor {
    x.block(b * s, head * d, s, d)
}

/// One head's probabilities `softmax(q kᵀ/√d)`, causally masked when the
/// config says so.
fn head_probs(cfg: &ModelConfig, qh: &Tensor, kh: &Tensor, scale: f32) -> Tensor {
    let mut scores = matmul_nt(qh, kh);
    scores.scale(scale);
    if cfg.causal {
        causal_mask(&mut scores);
    }
    softmax_rows(&scores)
}

/// Attention forward. `q`, `k`, `v` are `[b·s, h]` (head `j` occupies
/// columns `j·d..(j+1)·d`); returns the `[b·s, h]` context and, when
/// `keep_probs`, the cache.
///
/// Without `keep_probs` one `[s, s]` matrix is live at a time instead of
/// `b·n` of them — the paper's Section 6 "operation fusion" direction (the
/// `[b, n, s, s]` score tensor would otherwise dominate activation memory
/// at long sequence lengths); [`attention_backward`] then recomputes the
/// probabilities per head.
pub fn attention_forward(
    cfg: &ModelConfig,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    keep_probs: bool,
) -> (Tensor, Option<AttnCache>) {
    let (b, s, n, d) = (cfg.batch, cfg.seq, cfg.heads, cfg.head_dim());
    assert_eq!(q.dims(), &[b * s, n * d]);
    let scale = 1.0 / (d as f32).sqrt();
    // Every (sequence, head) block is written below.
    let mut ctxt = Tensor::for_overwrite(&[b * s, n * d]);
    let mut probs = Vec::new();
    for bi in 0..b {
        for head in 0..n {
            let qh = head_block(q, bi, head, s, d);
            let kh = head_block(k, bi, head, s, d);
            let vh = head_block(v, bi, head, s, d);
            let a = head_probs(cfg, &qh, &kh, scale);
            let out = matmul_nn(&a, &vh);
            ctxt.set_block(bi * s, head * d, &out);
            if keep_probs {
                probs.push(a);
            }
        }
    }
    (ctxt, keep_probs.then_some(AttnCache { probs }))
}

/// Attention backward: returns `(dq, dk, dv)` given the upstream gradient of
/// the context and the forward inputs. With no `cache` each head's
/// probabilities are recomputed from Q and K: one extra `QKᵀ` + softmax per
/// head, `b·n·s²` floats of cache saved.
pub fn attention_backward(
    cfg: &ModelConfig,
    dctxt: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    cache: Option<&AttnCache>,
) -> (Tensor, Tensor, Tensor) {
    let (b, s, n, d) = (cfg.batch, cfg.seq, cfg.heads, cfg.head_dim());
    let scale = 1.0 / (d as f32).sqrt();
    let mut dq = Tensor::for_overwrite(&[b * s, n * d]);
    let mut dk = Tensor::for_overwrite(&[b * s, n * d]);
    let mut dv = Tensor::for_overwrite(&[b * s, n * d]);
    for bi in 0..b {
        for head in 0..n {
            let dout = head_block(dctxt, bi, head, s, d);
            let qh = head_block(q, bi, head, s, d);
            let kh = head_block(k, bi, head, s, d);
            let vh = head_block(v, bi, head, s, d);
            let recomputed;
            let a = match cache {
                Some(c) => &c.probs[bi * n + head],
                None => {
                    recomputed = head_probs(cfg, &qh, &kh, scale);
                    &recomputed
                }
            };
            // out = A v  =>  dA = dout vᵀ, dv = Aᵀ dout.
            let da = matmul_nt(&dout, &vh);
            let dvh = matmul_tn(a, &dout);
            // A = softmax(S), S = scale · q kᵀ.
            let mut ds = softmax_backward(&da, a);
            ds.scale(scale);
            let dqh = matmul_nn(&ds, &kh);
            let dkh = matmul_tn(&ds, &qh);
            dq.set_block(bi * s, head * d, &dqh);
            dk.set_block(bi * s, head * d, &dkh);
            dv.set_block(bi * s, head * d, &dvh);
        }
    }
    (dq, dk, dv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::gradcheck::check_grad;
    use tensor::{Rng, Tensor};

    fn cfg() -> ModelConfig {
        ModelConfig {
            batch: 2,
            seq: 3,
            hidden: 8,
            heads: 2,
            vocab: 10,
            layers: 1,
            causal: false,
        }
    }

    fn dot(a: &Tensor, b: &Tensor) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x * y)
            .sum()
    }

    #[test]
    fn output_shape() {
        let c = cfg();
        let mut rng = Rng::new(0);
        let q = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let k = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let v = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let (out, cache) = attention_forward(&c, &q, &k, &v, true);
        assert_eq!(out.dims(), &[6, 8]);
        assert_eq!(cache.unwrap().probs.len(), 4); // b * n
    }

    #[test]
    fn uniform_attention_averages_values() {
        // Identical keys -> uniform probabilities -> context is mean of V.
        let c = cfg();
        let mut rng = Rng::new(1);
        let q = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let k = Tensor::full(&[6, 8], 0.5);
        let v = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let (out, _) = attention_forward(&c, &q, &k, &v, true);
        for bi in 0..2 {
            for col in 0..8 {
                let mean: f32 = (0..3).map(|t| v.at(bi * 3 + t, col)).sum::<f32>() / 3.0;
                for t in 0..3 {
                    assert!((out.at(bi * 3 + t, col) - mean).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn heads_are_independent() {
        // Changing head 1's V must not change head 0's output columns.
        let c = cfg();
        let mut rng = Rng::new(2);
        let q = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let k = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let v1 = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let mut v2 = v1.clone();
        for r in 0..6 {
            for col in 4..8 {
                *v2.at_mut(r, col) += 1.0;
            }
        }
        let (o1, _) = attention_forward(&c, &q, &k, &v1, true);
        let (o2, _) = attention_forward(&c, &q, &k, &v2, true);
        for r in 0..6 {
            for col in 0..4 {
                assert_eq!(o1.at(r, col), o2.at(r, col));
            }
        }
    }

    #[test]
    fn gradients_check_against_finite_differences() {
        let c = cfg();
        let mut rng = Rng::new(3);
        let q = Tensor::randn(&[6, 8], 0.7, &mut rng);
        let k = Tensor::randn(&[6, 8], 0.7, &mut rng);
        let v = Tensor::randn(&[6, 8], 0.7, &mut rng);
        let w = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let (_, cache) = attention_forward(&c, &q, &k, &v, true);
        let (dq, dk, dv) = attention_backward(&c, &w, &q, &k, &v, cache.as_ref());
        check_grad(
            |t: &Tensor| dot(&attention_forward(&c, t, &k, &v, true).0, &w),
            &q,
            &dq,
            1e-2,
            2e-3,
            2e-2,
        );
        check_grad(
            |t: &Tensor| dot(&attention_forward(&c, &q, t, &v, true).0, &w),
            &k,
            &dk,
            1e-2,
            2e-3,
            2e-2,
        );
        check_grad(
            |t: &Tensor| dot(&attention_forward(&c, &q, &k, t, true).0, &w),
            &v,
            &dv,
            1e-2,
            2e-3,
            2e-2,
        );
    }

    #[test]
    fn ctx_only_matches_cached_forward() {
        let c = cfg();
        let mut rng = Rng::new(5);
        let q = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let k = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let v = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let (cached, _) = attention_forward(&c, &q, &k, &v, true);
        let (lean, none) = attention_forward(&c, &q, &k, &v, false);
        assert!(none.is_none());
        assert_eq!(cached, lean);
    }

    #[test]
    fn recomputed_backward_matches_cached_backward() {
        let mut c = cfg();
        c.causal = true; // exercise the masked path too
        let mut rng = Rng::new(6);
        let q = Tensor::randn(&[6, 8], 0.8, &mut rng);
        let k = Tensor::randn(&[6, 8], 0.8, &mut rng);
        let v = Tensor::randn(&[6, 8], 0.8, &mut rng);
        let w = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let (_, cache) = attention_forward(&c, &q, &k, &v, true);
        let (dq1, dk1, dv1) = attention_backward(&c, &w, &q, &k, &v, cache.as_ref());
        let (dq2, dk2, dv2) = attention_backward(&c, &w, &q, &k, &v, None);
        assert_eq!(dq1, dq2);
        assert_eq!(dk1, dk2);
        assert_eq!(dv1, dv2);
    }

    #[test]
    fn causal_mask_blocks_future_positions() {
        let mut c = cfg();
        c.causal = true;
        let mut rng = Rng::new(4);
        let q = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let k = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let v1 = Tensor::randn(&[6, 8], 1.0, &mut rng);
        // Perturb only the last position's values; earlier outputs must not
        // change.
        let mut v2 = v1.clone();
        for col in 0..8 {
            *v2.at_mut(2, col) += 5.0;
        }
        let (o1, _) = attention_forward(&c, &q, &k, &v1, true);
        let (o2, _) = attention_forward(&c, &q, &k, &v2, true);
        for t in 0..2 {
            for col in 0..8 {
                assert_eq!(o1.at(t, col), o2.at(t, col), "t={t} col={col}");
            }
        }
    }
}
