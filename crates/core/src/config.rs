//! Optimus run configuration.

use serial::ModelConfig;

/// Hyperparameters of a 2D-parallel run on a `q × q` mesh.
#[derive(Clone, Copy, Debug)]
pub struct OptimusConfig {
    /// Mesh side; `p = q²` devices.
    pub q: usize,
    pub batch: usize,
    pub seq: usize,
    pub hidden: usize,
    pub heads: usize,
    pub vocab: usize,
    pub layers: usize,
    /// Causal (decoder) attention; the paper's benchmarks use `false`.
    pub causal: bool,
    /// Distributed activation checkpointing (Section 3.2.3): keep only each
    /// layer's input block, recompute the rest during backward. The top
    /// layer of a sweep whose backward follows at once keeps its cache and
    /// is not recomputed.
    pub checkpoint: bool,
    /// Memory-lean ("fused") attention — the paper's Section 6 future-work
    /// direction: never cache the `[b, n, s, s]` attention probabilities;
    /// recompute them per head during backward.
    pub fused_attention: bool,
}

impl OptimusConfig {
    /// The equivalent single-device model (ground truth).
    pub fn model(&self) -> ModelConfig {
        ModelConfig {
            batch: self.batch,
            seq: self.seq,
            hidden: self.hidden,
            heads: self.heads,
            vocab: self.vocab,
            layers: self.layers,
            causal: self.causal,
        }
    }

    /// Validates the paper's divisibility requirements (`q | b`, `q | h`,
    /// `q | n`, `q | v`).
    pub fn validate(&self) {
        self.model().validate_2d(self.q);
    }

    /// Per-device view used inside the fully local attention: `b/q`
    /// sequences and `n/q` heads of unchanged head dimension.
    pub fn local_view(&self) -> ModelConfig {
        ModelConfig {
            batch: self.batch / self.q,
            seq: self.seq,
            hidden: self.hidden / self.q,
            heads: self.heads / self.q,
            vocab: self.vocab,
            layers: self.layers,
            causal: self.causal,
        }
    }

    /// Rows of the local activation block: `(b/q)·s`.
    pub fn local_rows(&self) -> usize {
        self.batch / self.q * self.seq
    }

    /// Columns of the local activation block: `h/q`.
    pub fn local_cols(&self) -> usize {
        self.hidden / self.q
    }

    /// This device's token slice (mesh row `i` owns batch block `i`,
    /// replicated across its row): `tokens[i·(b/q)·s .. (i+1)·(b/q)·s]`.
    pub fn local_tokens<'a>(&self, tokens: &'a [usize], mesh_row: usize) -> &'a [usize] {
        let rows = self.local_rows();
        assert_eq!(
            tokens.len(),
            self.batch * self.seq,
            "expected the full b*s token array"
        );
        &tokens[mesh_row * rows..(mesh_row + 1) * rows]
    }

    /// A tiny 2×2-mesh configuration used across tests.
    pub fn tiny(q: usize) -> Self {
        OptimusConfig {
            q,
            batch: 2 * q,
            seq: 4,
            hidden: 4 * q,
            heads: q,
            vocab: 6 * q,
            layers: 2,
            causal: false,
            checkpoint: false,
            fused_attention: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_validates_for_q2_and_q3() {
        OptimusConfig::tiny(2).validate();
        OptimusConfig::tiny(3).validate();
    }

    #[test]
    fn local_view_dimensions() {
        let c = OptimusConfig::tiny(2);
        let v = c.local_view();
        assert_eq!(v.batch, 2);
        assert_eq!(v.hidden, 4);
        assert_eq!(v.heads, 1);
        assert_eq!(v.head_dim(), c.model().head_dim());
        assert_eq!(c.local_rows(), 8);
        assert_eq!(c.local_cols(), 4);
    }

    #[test]
    fn local_tokens_slices_batch_blocks() {
        let c = OptimusConfig::tiny(2);
        let tokens: Vec<usize> = (0..c.batch * c.seq).collect();
        assert_eq!(c.local_tokens(&tokens, 0), &tokens[..8]);
        assert_eq!(c.local_tokens(&tokens, 1), &tokens[8..]);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn validate_rejects_indivisible_heads() {
        let mut c = OptimusConfig::tiny(2);
        c.heads = 3;
        c.validate();
    }
}
