//! The **rejected** attention partition of Section 3.2.1, implemented for
//! real so the design choice can be measured rather than asserted.
//!
//! "A natural idea is to partition along the dimensions s and h. … Although
//! we can get the right result, this method will introduce a huge
//! communication overhead as the total size of A is `bns²`."
//!
//! Here each head's `[s, d]` Q/K/V are `q × q`-blocked (sequence × head-dim).
//! Per (batch, head):
//!
//! 1. `A = QKᵀ` runs as Algorithm 2 → `A` lands as `[s/q, s/q]` blocks;
//! 2. softmax normalises across the mesh **row** (the last dimension of `A`
//!    is divided — exactly the paper's "normalization must be applied within
//!    rows"), reusing the same partial-reduction primitives as the
//!    distributed cross-entropy;
//! 3. `context = A·V` runs as Algorithm 1 — and this is where the `bns²`
//!    tensor hits the wire: every iteration broadcasts `A` panels.
//!
//! The adopted `(b, h)` partition keeps all of this local. The integration
//! test `rejected_partition_comm_blowup_is_real` quantifies the difference
//! from executed communication logs.

use mesh::{Communicator, Grid2d};
use serial::ModelConfig;
use summa::{collect_blocks, distribute, summa_nn, summa_nt};
use tensor::loss::{partial_row_max, partial_sumexp, softmax_from_parts};
use tensor::Tensor;

/// Distributed softmax over the last dimension of an `[s/q, s/q]` block
/// whose full rows span the mesh row group.
fn softmax_rows_2d<C: Communicator>(grid: &Grid2d<C>, scores: &Tensor) -> Tensor {
    let mut m = partial_row_max(scores);
    grid.ctx().all_reduce_max(grid.row_group(), &mut m);
    let mut se = partial_sumexp(scores, &m);
    grid.ctx().all_reduce(grid.row_group(), &mut se);
    softmax_from_parts(scores, &m, &se, 1.0)
}

/// Attention under the rejected `(s, h)` partition.
///
/// `q_full`, `k_full`, `v_full` are the *full* `[b·s, h]` projections (as
/// the serial reference produces); each device slices its own blocks — the
/// layout bookkeeping is not the point of this module, the communication
/// pattern is. Returns the full `[b·s, h]` context on every device.
pub fn attention_sh_forward<C: Communicator>(
    grid: &Grid2d<C>,
    cfg: &ModelConfig,
    q_full: &Tensor,
    k_full: &Tensor,
    v_full: &Tensor,
) -> Tensor {
    let (b, s, n, d) = (cfg.batch, cfg.seq, cfg.heads, cfg.head_dim());
    let q = grid.q();
    assert_eq!(s % q, 0, "s must divide by q for the (s,h) partition");
    assert_eq!(
        d % q,
        0,
        "head dim must divide by q for the (s,h) partition"
    );
    let scale = 1.0 / (d as f32).sqrt();

    let mut ctxt = Tensor::zeros(&[b * s, n * d]);
    for bi in 0..b {
        for head in 0..n {
            // This head's [s, d] matrices.
            let qh = q_full.block(bi * s, head * d, s, d);
            let kh = k_full.block(bi * s, head * d, s, d);
            let vh = v_full.block(bi * s, head * d, s, d);
            let (ql, kl, vl) = (
                distribute(grid, &qh),
                distribute(grid, &kh),
                distribute(grid, &vh),
            );

            // A = QKᵀ (Algorithm 2), then scale + distributed softmax.
            let mut a = summa_nt(grid, &ql, &kl);
            a.scale(scale);
            let a = softmax_rows_2d(grid, &a);

            // context = A·V (Algorithm 1): the bns² tensor goes on the wire.
            let out_block = summa_nn(grid, &a, &vl);

            // Reassemble for the caller (test harness convenience).
            let blocks = grid
                .ctx()
                .all_gather(&grid.slice_group(), out_block.as_slice());
            let tensors: Vec<Tensor> = blocks
                .chunks(out_block.len())
                .map(|c| Tensor::from_vec(&[s / q, d / q], c.to_vec()))
                .collect();
            let full = collect_blocks(&tensors, q);
            ctxt.set_block(bi * s, head * d, &full);
        }
    }
    ctxt
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::{CommOp, Mesh2d};
    use serial::attention_forward;
    use tensor::{assert_close, Rng};

    fn cfg() -> ModelConfig {
        ModelConfig {
            batch: 2,
            seq: 4,
            hidden: 8,
            heads: 2,
            vocab: 16,
            layers: 1,
            causal: false,
        }
    }

    #[test]
    fn rejected_partition_still_computes_the_right_answer() {
        // The paper concedes "we can get the right result" — verify it.
        let c = cfg();
        let mut rng = Rng::new(0);
        let q = Tensor::randn(&[c.tokens(), c.hidden], 0.8, &mut rng);
        let k = Tensor::randn(&[c.tokens(), c.hidden], 0.8, &mut rng);
        let v = Tensor::randn(&[c.tokens(), c.hidden], 0.8, &mut rng);
        let (expect, _) = attention_forward(&c, &q, &k, &v, false);
        let outs = Mesh2d::run(2, |g| attention_sh_forward(g, &c, &q, &k, &v));
        for o in &outs {
            assert_close(o.as_slice(), expect.as_slice(), 1e-4, 1e-3);
        }
    }

    #[test]
    fn score_tensor_traffic_matches_the_closed_form() {
        // Per (batch, head) and per device, the SUMMA panel payload is
        // 2(s·d + s²)/q: K and V panels (s·d terms) plus the A reduce and
        // A broadcast (the s² terms the paper objects to). The adopted
        // (b, h) partition moves *zero* attention-internal traffic.
        let comm_at = |s: usize| {
            let c = ModelConfig { seq: s, ..cfg() };
            let mut rng = Rng::new(1);
            let q = Tensor::randn(&[c.tokens(), c.hidden], 0.8, &mut rng);
            let k = Tensor::randn(&[c.tokens(), c.hidden], 0.8, &mut rng);
            let v = Tensor::randn(&[c.tokens(), c.hidden], 0.8, &mut rng);
            let (_, logs) = Mesh2d::run_with_logs(2, |g| attention_sh_forward(g, &c, &q, &k, &v));
            logs[0]
                .ops
                .iter()
                .filter(|o| matches!(o.op, CommOp::Broadcast | CommOp::Reduce))
                .map(|o| o.elems)
                .sum::<usize>()
        };
        let c = cfg();
        let d = c.head_dim();
        let q_side = 2usize;
        let expect = |s: usize| c.batch * c.heads * 2 * (s * d + s * s) / q_side;
        let c4 = comm_at(4);
        let c8 = comm_at(8);
        let c16 = comm_at(16);
        assert_eq!(c4, expect(4));
        assert_eq!(c8, expect(8));
        assert_eq!(c16, expect(16));
        // The s² component quadruples while the s·d component only doubles,
        // so the growth factor climbs from 3x toward 4x as s grows.
        assert!(c8 >= 3 * c4, "score traffic must dominate: {c4} -> {c8}");
        assert!(
            c16 * 10 >= 33 * c8,
            "growth must keep accelerating: {c8} -> {c16}"
        );
    }
}
