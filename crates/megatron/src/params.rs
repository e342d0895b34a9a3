//! The 1D scheme's configuration and its per-device parameter type.

use serial::{LayerParams, ModelConfig};

/// Megatron run configuration: the model plus the partition width.
#[derive(Clone, Copy, Debug)]
pub struct MegatronConfig {
    pub model: ModelConfig,
    /// Number of devices (1D partition width).
    pub p: usize,
    /// Distributed activation checkpointing: keep only each layer's
    /// (replicated) input and recompute the layer inside backward — the
    /// configuration the paper's Megatron baseline runs with. The top
    /// layer's forward keeps its cache instead, so `L − 1` layers re-run.
    pub checkpoint: bool,
}

impl MegatronConfig {
    pub fn new(model: ModelConfig, p: usize) -> Self {
        model.validate_1d(p);
        MegatronConfig {
            model,
            p,
            checkpoint: false,
        }
    }

    /// Enables activation checkpointing.
    pub fn with_checkpoint(mut self) -> Self {
        self.checkpoint = true;
        self
    }

    /// Local hidden width `h/p` (heads × head-dim owned by one device).
    pub fn local_hidden(&self) -> usize {
        self.model.hidden / self.p
    }

    /// The per-device view of the model used inside local attention:
    /// `n/p` heads of unchanged head dimension.
    pub fn local_view(&self) -> ModelConfig {
        ModelConfig {
            hidden: self.local_hidden(),
            heads: self.model.heads / self.p,
            ..self.model
        }
    }
}

/// Device-local slice of one layer's parameters (or their gradients), as
/// [`crate::Megatron1d`]'s placement table cuts it (the crate docs list the
/// layout).
pub type Layer1dParams = LayerParams;

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MegatronConfig {
        MegatronConfig::new(ModelConfig::tiny(), 2)
    }

    #[test]
    fn local_view_shrinks_heads_and_hidden() {
        let c = cfg();
        let v = c.local_view();
        assert_eq!(v.hidden, 4);
        assert_eq!(v.heads, 1);
        assert_eq!(v.head_dim(), c.model.head_dim());
    }
}
