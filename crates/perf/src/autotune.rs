//! Configuration-space search for hybrid 3D/4D training: enumerate every
//! `pp × dp × [q, q, d] × m` partition of an `N`-device world that the live
//! runtime accepts (`hybrid::HybridSpec::validate_for_world` is the one
//! validity rule), price each one with the α-β cost model plus the
//! per-device memory model, and keep the Pareto frontier of throughput
//! versus peak memory.
//!
//! This is the dry-run backend of `optimus-cli autotune`: nothing here
//! spawns a mesh — every candidate is priced in closed form (the same
//! [`crate::scaling::optimus25d_stem_times`] primitive behind the scaling
//! tables, extended with the 1F1B pipeline makespan and the data-parallel
//! gradient all-reduce), so sweeping hundreds of configurations at 512+
//! devices takes milliseconds. The winning configuration is then
//! cross-checked *live* by the CLI: the same step runs on a small thread
//! mesh and on the dry-run backend, and their CommLogs must be
//! byte-identical.
//!
//! # The makespan model
//!
//! One hybrid step on a candidate `(pp, dp, [q, q, d], m)`:
//!
//! ```text
//! T_step = (m + pp − 1) · (t_f + t_b + t_p2p)   // 1F1B flush schedule
//!        + T_dp                                  // dp gradient all-reduce
//!        + T_tie                                 // first↔last table sync
//! ```
//!
//! where `t_f`/`t_b` price one microbatch (batch `b/(dp·m)`) through this
//! stage's `layers/pp` layers on the `[q, q, d]` sub-mesh, `t_p2p` is the
//! α-β cost of the two boundary activation-block hops (absent when
//! `pp = 1`), and the `(m + pp − 1)` factor is the pipeline-flush bound:
//! `m` useful slots plus `pp − 1` bubble slots
//! ([`CandidateCost::bubble_fraction`]).
//!
//! Peak memory takes the first stage (the 1F1B high-water mark: it holds
//! `min(m, pp)` live microbatch checkpoint sets) and prices it with
//! [`crate::memory::optimus_bytes`] on the stage-local model slice.

use crate::cost::CostModel;
use crate::memory::{optimus_bytes, MemoryConfig};
use crate::profile::HardwareProfile;
use crate::projection::tesseract_grids;
use hybrid::HybridSpec;
use mesh::Topology;
use optimus_core::OptimusConfig;

/// Model dimensions and the global batch to autotune for.
#[derive(Clone, Copy, Debug)]
pub struct AutotuneModel {
    pub batch: usize,
    pub seq: usize,
    pub hidden: usize,
    pub heads: usize,
    pub vocab: usize,
    pub layers: usize,
}

/// One priced hybrid configuration.
#[derive(Clone, Copy, Debug)]
pub struct CandidateCost {
    /// Pipeline stages.
    pub pp: usize,
    /// Data-parallel replicas.
    pub dp: usize,
    /// Tensor-mesh side (the `[q, q, d]` front).
    pub q: usize,
    /// Tesseract depth (1 = plain 2D).
    pub d: usize,
    /// Microbatches per replica.
    pub microbatches: usize,
    /// Modelled seconds per training step.
    pub step_time: f64,
    /// Sequences per second (`batch / step_time`).
    pub throughput: f64,
    /// Modelled peak bytes on the worst device (stage 0 of any replica).
    pub peak_bytes: f64,
}

impl CandidateCost {
    /// Devices in one stage-replica tensor mesh.
    pub fn mesh_devices(&self) -> usize {
        self.q * self.q * self.d
    }

    /// The 1F1B flush overhead: `(pp − 1) / (m + pp − 1)` of the schedule
    /// is bubble.
    pub fn bubble_fraction(&self) -> f64 {
        (self.pp - 1) as f64 / (self.microbatches + self.pp - 1) as f64
    }

    /// `pp×dp×[q,q,d]×m` — the label used in tables and reports.
    pub fn label(&self) -> String {
        format!(
            "{}x{}x[{},{},{}]x{}",
            self.pp, self.dp, self.q, self.q, self.d, self.microbatches
        )
    }
}

/// The full search result: everything enumerated, the memory-feasible
/// subset, and the Pareto frontier (throughput ↑, peak memory ↓).
#[derive(Clone, Debug)]
pub struct AutotuneResult {
    /// Number of valid configurations enumerated (before the memory cut).
    pub enumerated: usize,
    /// Every configuration that fits the budget, best throughput first.
    pub feasible: Vec<CandidateCost>,
    /// The non-dominated subset of `feasible`, best throughput first —
    /// strictly decreasing in both throughput and peak bytes.
    pub frontier: Vec<CandidateCost>,
}

impl AutotuneResult {
    /// The throughput winner (the frontier head), if anything fit.
    pub fn best(&self) -> Option<&CandidateCost> {
        self.frontier.first()
    }
}

fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|k| n.is_multiple_of(*k)).collect()
}

/// Prices one hybrid configuration. Returns `None` when the combination is
/// not a valid partition of `devices` — the live spec's own
/// [`HybridSpec::validate_for_world`] decides, so the sweep enumerates
/// exactly the configurations `hybrid::build` accepts.
#[allow(clippy::too_many_arguments)] // the five spec axes are the signature
pub fn price_candidate(
    profile: &HardwareProfile,
    model: &AutotuneModel,
    devices: usize,
    pp: usize,
    dp: usize,
    q: usize,
    d: usize,
    m: usize,
) -> Option<CandidateCost> {
    let spec = HybridSpec {
        pp,
        dp,
        grid: [q, q, d],
        microbatches: m,
    };
    let cfg = OptimusConfig {
        q,
        batch: model.batch,
        seq: model.seq,
        hidden: model.hidden,
        heads: model.heads,
        vocab: model.vocab,
        layers: model.layers,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    spec.validate_for_world(&cfg, devices).ok()?;
    let msz = spec.mesh_devices();
    let bm = model.batch / (dp * m);
    let lps = model.layers / pp;
    let gpn = profile.gpus_per_node.min(devices);

    // Stage-local microbatch times on the [q, q, d] sub-mesh.
    let cm_mesh = CostModel::new(profile.clone(), Topology::flat(msz, gpn));
    let (t_f, t_b) =
        crate::scaling::optimus25d_stem_times(&cm_mesh, bm, model.seq, model.hidden, lps, q, d);

    // World-level model for the cross-mesh collectives: dp all-reduce, the
    // tied-table sync and the stage-boundary p2p hops.
    let cm_world = CostModel::new(profile.clone(), Topology::flat(devices, gpn));
    let h = model.hidden as f64;

    // Two boundary hops per steady-state slot (activation fwd, gradient
    // bwd), each moving one [bm·s/q, h/q] block between equal mesh ranks of
    // adjacent stages.
    let t_p2p = if pp > 1 {
        let block = (bm * model.seq * model.hidden) as f64 / msz as f64 * d as f64;
        2.0 * (profile.alpha + profile.beta_inter * block)
    } else {
        0.0
    };

    // dp gradient all-reduce: this stage's layer gradients, sharded 1/q²
    // per device (depth replicas hold full copies), reduced over the dp
    // ring. Stage 0 also carries the embedding-table block.
    let t_dp = if dp > 1 {
        let grad_elems =
            (lps as f64 * (12.0 * h * h + 13.0 * h) + model.vocab as f64 * h) / (q * q) as f64;
        let dp_ranks: Vec<usize> = (0..dp).map(|r| r * msz).collect();
        cm_world.all_reduce_time(&dp_ranks, grad_elems.round() as usize)
    } else {
        0.0
    };

    // Tied embedding-table all-reduce between the first and last stage.
    let t_tie = if pp > 1 {
        let table_elems = (model.vocab as f64 * h / (q * q) as f64).round() as usize;
        let tie_ranks = [0usize, (pp - 1) * dp * msz];
        cm_world.all_reduce_time(&tie_ranks, table_elems)
    } else {
        0.0
    };

    let step_time = (m + pp - 1) as f64 * (t_f + t_b + t_p2p) + t_dp + t_tie;

    // Peak memory on stage 0: params + grads once, checkpoints for the
    // min(m, pp) live microbatches 1F1B keeps in flight, one working set.
    let mem_cfg = MemoryConfig {
        seq: model.seq,
        hidden: model.hidden,
        heads: model.heads,
        vocab: model.vocab,
        layers: lps,
        p: msz,
    };
    let est = optimus_bytes(&mem_cfg, bm);
    let live = m.min(pp) as f64;
    let peak_bytes = est.params + est.grads + live * est.checkpoints + est.working_set;

    Some(CandidateCost {
        pp,
        dp,
        q,
        d,
        microbatches: m,
        step_time,
        throughput: model.batch as f64 / step_time,
        peak_bytes,
    })
}

/// Extracts the Pareto frontier (maximize throughput, minimize peak bytes)
/// from candidates sorted best-throughput-first: scan down, keep every
/// point that needs strictly less memory than everything kept before it.
pub fn pareto_frontier(sorted: &[CandidateCost]) -> Vec<CandidateCost> {
    let mut frontier: Vec<CandidateCost> = Vec::new();
    for c in sorted {
        if frontier.last().is_none_or(|f| c.peak_bytes < f.peak_bytes) {
            frontier.push(*c);
        }
    }
    frontier
}

/// Enumerates and prices every valid hybrid partition of `devices` devices,
/// cuts configurations whose modelled peak exceeds `mem_budget_bytes`
/// (pass `f64::INFINITY` for no cut), and returns the feasible set plus its
/// Pareto frontier, both sorted best throughput first.
pub fn autotune(
    profile: &HardwareProfile,
    model: &AutotuneModel,
    devices: usize,
    mem_budget_bytes: f64,
) -> AutotuneResult {
    let mut enumerated = 0usize;
    let mut feasible = Vec::new();
    for pp in divisors(model.layers) {
        for dp in divisors(model.batch) {
            if !devices.is_multiple_of(pp * dp) {
                continue;
            }
            let msz = devices / (pp * dp);
            for (q, d) in tesseract_grids(msz) {
                for m in divisors(model.batch / dp) {
                    let Some(c) = price_candidate(profile, model, devices, pp, dp, q, d, m) else {
                        continue;
                    };
                    enumerated += 1;
                    if c.peak_bytes <= mem_budget_bytes {
                        feasible.push(c);
                    }
                }
            }
        }
    }
    feasible.sort_by(|a, b| {
        b.throughput
            .total_cmp(&a.throughput)
            .then(a.peak_bytes.total_cmp(&b.peak_bytes))
    });
    let frontier = pareto_frontier(&feasible);
    AutotuneResult {
        enumerated,
        feasible,
        frontier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AutotuneModel {
        AutotuneModel {
            batch: 64,
            seq: 512,
            hidden: 2048,
            heads: 32,
            vocab: 32_000,
            layers: 24,
        }
    }

    #[test]
    fn enumeration_covers_the_pure_corners() {
        let r = autotune(
            &HardwareProfile::frontera_rtx5000(),
            &model(),
            64,
            f64::INFINITY,
        );
        assert!(r.enumerated > 0);
        // Pure 2D (pp=dp=1, 8x8 mesh) and pure pipeline-ish (pp>1, q small)
        // corners must both be present in the feasible set.
        assert!(r
            .feasible
            .iter()
            .any(|c| c.pp == 1 && c.dp == 1 && c.q == 8 && c.d == 1));
        assert!(r.feasible.iter().any(|c| c.pp > 1 && c.q <= 2));
        // 2.5D grids appear too (64 = 4²·4 with d | q).
        assert!(r.feasible.iter().any(|c| c.d > 1));
    }

    #[test]
    fn frontier_is_monotone_and_non_dominated() {
        let r = autotune(
            &HardwareProfile::frontera_rtx5000(),
            &model(),
            64,
            f64::INFINITY,
        );
        assert!(!r.frontier.is_empty());
        for w in r.frontier.windows(2) {
            assert!(w[0].throughput >= w[1].throughput);
            assert!(w[0].peak_bytes > w[1].peak_bytes, "dominated point kept");
        }
        // No feasible point dominates a frontier point.
        for f in &r.frontier {
            for c in &r.feasible {
                assert!(
                    !(c.throughput > f.throughput && c.peak_bytes < f.peak_bytes),
                    "{} dominates {}",
                    c.label(),
                    f.label()
                );
            }
        }
    }

    #[test]
    fn memory_budget_cuts_configurations() {
        let profile = HardwareProfile::frontera_rtx5000();
        let all = autotune(&profile, &model(), 64, f64::INFINITY);
        let tight = autotune(&profile, &model(), 64, 2e9);
        assert_eq!(all.enumerated, tight.enumerated);
        assert!(tight.feasible.len() < all.feasible.len());
        for c in &tight.feasible {
            assert!(c.peak_bytes <= 2e9);
        }
    }

    #[test]
    fn degenerate_candidate_matches_the_scaling_primitive() {
        // pp=dp=m=1 must reduce to optimus25d_stem_times exactly.
        let profile = HardwareProfile::frontera_rtx5000();
        let m = model();
        let c = price_candidate(&profile, &m, 64, 1, 1, 8, 1, 1).unwrap();
        let cm = CostModel::new(profile.clone(), Topology::flat(64, 4));
        let (f, b) =
            crate::scaling::optimus25d_stem_times(&cm, m.batch, m.seq, m.hidden, m.layers, 8, 1);
        assert!((c.step_time - (f + b)).abs() < 1e-12);
        assert_eq!(c.bubble_fraction(), 0.0);
    }

    #[test]
    fn invalid_combinations_price_to_none() {
        let profile = HardwareProfile::frontera_rtx5000();
        let m = model();
        assert!(price_candidate(&profile, &m, 64, 5, 1, 2, 1, 1).is_none()); // 5 ∤ 24 layers
        assert!(price_candidate(&profile, &m, 64, 1, 1, 4, 1, 1).is_none()); // 16 ≠ 64 devices
        assert!(price_candidate(&profile, &m, 64, 1, 1, 8, 2, 1).is_none()); // 128 ≠ 64
        assert!(price_candidate(&profile, &m, 64, 1, 16, 2, 1, 4).is_none()); // bm=1 < q=2 rows
    }

    #[test]
    fn microbatching_amortizes_the_pipeline_bubble() {
        // At fixed pp, more microbatches -> smaller bubble fraction.
        let profile = HardwareProfile::frontera_rtx5000();
        let m = model();
        let m1 = price_candidate(&profile, &m, 16, 4, 1, 2, 1, 2).unwrap();
        let m2 = price_candidate(&profile, &m, 16, 4, 1, 2, 1, 8).unwrap();
        assert!(m2.bubble_fraction() < m1.bubble_fraction());
    }

    #[test]
    fn large_world_sweep_is_fast_and_nonempty() {
        // The acceptance-criteria scale: 512 devices, 16 GB budget.
        let profile = HardwareProfile::frontera_rtx5000();
        let m = AutotuneModel {
            batch: 768,
            seq: 512,
            hidden: 4096,
            heads: 32,
            vocab: 32_000,
            layers: 24,
        };
        let r = autotune(&profile, &m, 512, 16.0 * (1u64 << 30) as f64);
        assert!(
            !r.frontier.is_empty(),
            "512-device frontier must be non-empty"
        );
        assert!(r.enumerated >= r.feasible.len());
    }
}
