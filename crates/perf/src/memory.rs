//! Per-device memory model and the Figure 9 max-batch search.
//!
//! Section 3.1.1's argument, made executable. With distributed activation
//! checkpointing both schemes keep `N·bsh/p` of checkpoints, but the
//! *working set* while (re)computing one layer differs sharply:
//!
//! * **Megatron** replicates activations: the live set contains several full
//!   `bsh` tensors (layer input, LN output, residual, MLP output — the
//!   paper's "at least `3bsh`") plus this device's `1/p` shares of the
//!   sliced intermediates and its `n/p` heads of `b·s²` attention scores.
//! * **Optimus** holds only `1/p` blocks of everything.
//!
//! Parameters, gradients and optimizer state are `1/p` in both schemes.
//! Because every term is linear in `b` except the fixed parameter terms, the
//! max batch is a simple search — and the paper's trends fall out: Megatron's
//! limit *shrinks* as `h ∝ q` grows (the `3bsh` term explodes), Optimus's
//! grows (~8× more batch at 64 GPUs).

use crate::profile::HardwareProfile;

/// Bytes per f32.
const F: f64 = 4.0;

/// Static model dimensions for a memory estimate.
#[derive(Clone, Copy, Debug)]
pub struct MemoryConfig {
    pub seq: usize,
    pub hidden: usize,
    pub heads: usize,
    pub vocab: usize,
    pub layers: usize,
    /// Devices.
    pub p: usize,
}

/// Breakdown of one device's memory use at batch `b`, in bytes.
#[derive(Clone, Copy, Debug)]
pub struct MemoryEstimate {
    pub params: f64,
    pub grads: f64,
    pub checkpoints: f64,
    pub working_set: f64,
    /// High-water of the SUMMA panel strips a step keeps for a later
    /// product: transport buffers, not in `total` (nor in the measured
    /// `Tensor` peak).
    pub panel_strips: f64,
    pub total: f64,
}

fn param_bytes(c: &MemoryConfig) -> f64 {
    // 12h² per layer + embedding vh, evenly sharded in both schemes.
    let h = c.hidden as f64;
    (c.layers as f64 * (12.0 * h * h + 13.0 * h) + c.vocab as f64 * h) * F / c.p as f64
}

/// Megatron per-device memory at batch `b`.
pub fn megatron_bytes(c: &MemoryConfig, b: usize) -> MemoryEstimate {
    let (bf, s, h) = (b as f64, c.seq as f64, c.hidden as f64);
    let p = c.p as f64;
    let bsh = bf * s * h;
    let params = param_bytes(c);
    let grads = params;
    let checkpoints = c.layers as f64 * bsh * F / p;
    // Working set of one layer (Sec. 3.1.1): >= 3 replicated bsh tensors
    // (input, post-attention residual, output) plus 1/p shares: QKV (3),
    // context (1), MLP intermediates (8), plus n/p heads of s x s scores,
    // plus the replicated gradient tensor during backward (1 more bsh).
    let working = (4.0 * bsh + 12.0 * bsh / p + bf * (c.heads as f64 / p) * s * s) * F;
    let total = params + grads + checkpoints + working;
    MemoryEstimate {
        params,
        grads,
        checkpoints,
        working_set: working,
        panel_strips: 0.0,
        total,
    }
}

/// Optimus per-device memory at batch `b`.
pub fn optimus_bytes(c: &MemoryConfig, b: usize) -> MemoryEstimate {
    let (bf, s, h) = (b as f64, c.seq as f64, c.hidden as f64);
    let p = c.p as f64;
    let q = p.sqrt();
    let bsh = bf * s * h;
    let params = param_bytes(c);
    let grads = params;
    let checkpoints = c.layers as f64 * bsh * F / p;
    // Everything is 1/p: the same 16 bsh-equivalents plus scores, plus the
    // SUMMA workspace (two panels: the largest activation panel 4bsh/p and
    // weight panel 4h²/p, Sec. 3.2.3).
    let working =
        (16.0 * bsh / p + bf * c.heads as f64 * s * s / p + 4.0 * bsh / p + 4.0 * h * h / p * q)
            * F;
    let total = params + grads + checkpoints + working;
    MemoryEstimate {
        params,
        grads,
        checkpoints,
        working_set: working,
        panel_strips: panel_strip_bytes(b, c),
        total,
    }
}

/// Most bytes of SUMMA panel strips one device holds at once, on a
/// `√p × √p` mesh at batch `b`. A layer's strips live from its forward
/// (the top layer's) or recompute to its backward: each projection
/// `y = x·W` keeps the row strip of `x` (`[bs/q, K]`) and the column strip
/// of `W` (`[K, N/q]`), which over QKV, out-proj, fc1 and fc2 sums to
/// `(7bsh + 12h²)/q` elements — one forward's SUMMA payload. The top
/// layer's strips are live through the tied head, whose `dL·E` holds the
/// table strip the logits product kept (`vh/q`) while it keeps the `dL`
/// strip (`bs·v/q`): `(7bsh + 12h² + vh + bs·v)/q` elements in all.
fn panel_strip_bytes(b: usize, c: &MemoryConfig) -> f64 {
    let q = (c.p as f64).sqrt();
    let (bs, h, v) = ((b * c.seq) as f64, c.hidden as f64, c.vocab as f64);
    (7.0 * bs * h + 12.0 * h * h + v * h + bs * v) / q * F
}

/// Which scheme to estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    Megatron,
    Optimus,
}

/// Largest batch (in steps of `step`) that fits in the device memory of
/// `profile`, leaving a fixed framework reserve. Returns 0 if even `step`
/// does not fit.
pub fn max_batch(
    scheme: Scheme,
    c: &MemoryConfig,
    profile: &HardwareProfile,
    step: usize,
) -> usize {
    // CUDA context + framework reserve, calibrated so the 4-GPU limits sit
    // near the paper's Table 2 batch sizes.
    let reserve = 1.5e9;
    let capacity = profile.mem_bytes - reserve;
    let fits = |b: usize| {
        let est = match scheme {
            Scheme::Megatron => megatron_bytes(c, b),
            Scheme::Optimus => optimus_bytes(c, b),
        };
        est.total <= capacity
    };
    if !fits(step) {
        return 0;
    }
    let mut b = step;
    while fits(b + step) {
        b += step;
    }
    b
}

/// One point of Figure 9: max batch that runs, and the next step that OOMs
/// (the paper's `ξ(η)` labels).
#[derive(Clone, Copy, Debug)]
pub struct Fig9Point {
    pub gpus: usize,
    pub hidden: usize,
    pub runs: usize,
    pub ooms: usize,
}

/// Generates Figure 9 for both schemes over the weak-scaling configurations.
pub fn fig9(profile: &HardwareProfile, step: usize) -> (Vec<Fig9Point>, Vec<Fig9Point>) {
    let mut meg = Vec::new();
    let mut opt = Vec::new();
    for &(_, gpus, q, h, n, _, _) in &crate::scaling::WEAK_CONFIGS {
        let c = MemoryConfig {
            seq: crate::scaling::SEQ,
            hidden: h,
            heads: n,
            vocab: 32_000,
            layers: crate::scaling::LAYERS,
            p: gpus,
        };
        let mb = max_batch(Scheme::Megatron, &c, profile, step);
        let ob = max_batch(Scheme::Optimus, &c, profile, step);
        meg.push(Fig9Point {
            gpus,
            hidden: h,
            runs: mb,
            ooms: mb + step,
        });
        opt.push(Fig9Point {
            gpus: q * q,
            hidden: h,
            runs: ob,
            ooms: ob + step,
        });
    }
    (meg, opt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> HardwareProfile {
        HardwareProfile::frontera_rtx5000()
    }

    #[test]
    fn optimus_memory_is_much_smaller_per_batch() {
        let c = MemoryConfig {
            seq: 512,
            hidden: 4096,
            heads: 64,
            vocab: 32_000,
            layers: 24,
            p: 16,
        };
        let m = megatron_bytes(&c, 64);
        let o = optimus_bytes(&c, 64);
        assert!(o.working_set < m.working_set / 2.0);
        // Kept panel strips are reported beside the total, not in it.
        assert_eq!(m.panel_strips, 0.0);
        assert!(o.panel_strips > 0.0);
        let parts = o.params + o.grads + o.checkpoints + o.working_set;
        assert_eq!(o.total, parts);
        // Sharded state is identical.
        assert_eq!(m.params, o.params);
        assert_eq!(m.checkpoints, o.checkpoints);
        // The gap widens with p: Megatron's replicated 4bsh term doesn't
        // shrink, Optimus's everything does.
        let c64 = MemoryConfig { p: 64, ..c };
        let ratio16 = m.working_set / o.working_set;
        let ratio64 = megatron_bytes(&c64, 64).working_set / optimus_bytes(&c64, 64).working_set;
        assert!(ratio64 > 2.0 * ratio16, "{ratio16} -> {ratio64}");
    }

    #[test]
    fn fig9_trends_match_paper() {
        let (meg, opt) = fig9(&profile(), 4);
        // Megatron's limit decreases with scale (h grows, 3bsh replicated);
        // Optimus's increases.
        assert!(
            meg[3].runs < meg[0].runs,
            "megatron max batch should fall: {:?}",
            meg
        );
        assert!(
            opt[3].runs > opt[0].runs,
            "optimus max batch should rise: {:?}",
            opt
        );
        // ~8x advantage at 64 GPUs.
        let ratio = opt[3].runs as f64 / meg[3].runs.max(1) as f64;
        assert!(
            (4.0..16.0).contains(&ratio),
            "64-GPU batch advantage should be ~8x, got {ratio} ({:?} vs {:?})",
            opt[3],
            meg[3]
        );
    }

    #[test]
    fn weak_scaling_batches_actually_fit() {
        // The Table 2 batch sizes should be feasible in the model.
        for &(_, gpus, q, h, n, b_meg, b_opt) in &crate::scaling::WEAK_CONFIGS {
            let c = MemoryConfig {
                seq: 512,
                hidden: h,
                heads: n,
                vocab: 32_000,
                layers: 24,
                p: gpus,
            };
            let cap = profile().mem_bytes;
            assert!(
                megatron_bytes(&c, b_meg).total < cap,
                "megatron b={b_meg} at p={gpus} should fit"
            );
            assert!(
                optimus_bytes(&c, b_opt).total < cap,
                "optimus b={b_opt} at q={q} should fit"
            );
        }
    }

    #[test]
    fn max_batch_is_zero_when_nothing_fits() {
        let c = MemoryConfig {
            seq: 512,
            hidden: 65536,
            heads: 64,
            vocab: 32_000,
            layers: 96,
            p: 4,
        };
        assert_eq!(max_batch(Scheme::Megatron, &c, &profile(), 4), 0);
    }

    #[test]
    fn totals_are_monotone_in_batch() {
        let c = MemoryConfig {
            seq: 512,
            hidden: 2048,
            heads: 32,
            vocab: 32_000,
            layers: 24,
            p: 4,
        };
        for scheme in [Scheme::Megatron, Scheme::Optimus] {
            let f = |b| match scheme {
                Scheme::Megatron => megatron_bytes(&c, b).total,
                Scheme::Optimus => optimus_bytes(&c, b).total,
            };
            assert!(f(8) < f(16));
            assert!(f(16) < f(32));
        }
    }
}
