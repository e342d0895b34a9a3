//! Hybrid 3D/4D parallel training: **pipeline stages × data-parallel
//! replicas × 2D/2.5D tensor meshes**, run as one schedule.
//!
//! This crate composes the workspace's three parallel dimensions,
//! AxoNN-style: an N-device world is partitioned by a [`HybridSpec`] into
//! `pp` pipeline stages × `dp` data-parallel replicas × a `[p, q, d]`
//! tensor mesh per stage-replica (`MeshNd` 2D/2.5D tensor parallelism from
//! `optimus-core` + `summa`), with the invariant
//! **`pp · dp · p · q · d = N`**. Pipeline parallelism lives only here:
//! `HybridSpec { pp, dp: 1, grid: [1, 1, 1], microbatches }` is the plain
//! GPipe-style pipeline of one device per stage, moving
//! `2(pp − 1)·bsh` scalars across stage boundaries per step whatever the
//! microbatch count.
//!
//! Data parallelism and gradient accumulation live only here as well:
//! `HybridSpec { pp: 1, dp, grid: [q, q, 1], microbatches: 1 }` is `dp`
//! replicas of one `q × q` Optimus mesh, and
//! `HybridSpec { pp: 1, dp: 1, grid, microbatches: k }` accumulates `k`
//! microbatches into one update. In every spec `cfg.batch` is the *global*
//! batch. [`HybridStage::train_step_zero1`] replaces SGD with Adam over
//! ZeRO-1 sharded optimizer state, on any spec.
//!
//! # Device partitioning
//!
//! World ranks are laid out stage-major, replica-next, mesh-rank-fastest:
//!
//! ```text
//! rank = (stage · dp + replica) · (p·q·d) + mesh_rank
//! ```
//!
//! so each stage-replica owns a *contiguous* rank range and its `[p, q, d]`
//! sub-mesh is built with `GridNd::sub_mesh_nd`. Three cross-mesh axis
//! groups tie the composition together:
//!
//! * **`"dp"`** — devices with equal `(stage, mesh_rank)` across replicas:
//!   gradients are all-reduced here after the local backward.
//! * **`"tie"`** — the first- and last-stage devices with equal
//!   `(replica, mesh_rank)`: the tied embedding-table gradient is
//!   all-reduced between exactly these two (the Megatron-LM trick).
//! * **`"pipe"`** — devices with equal `(replica, mesh_rank)` across all
//!   stages: the step loss is broadcast from the last stage.
//!
//! # Numerics: sums, not averages
//!
//! Every microbatch on every replica computes its cross-entropy with
//! `total_rows` equal to the **global** `batch · seq`, so per-microbatch
//! gradients and losses are already `1/N`-scaled partial sums. Combining
//! them is then plain addition — accumulate over microbatches, all-reduce
//! (sum) over the `dp` axis — with no `1/m` or `1/dp` rescaling anywhere.
//! Consequences, asserted by the workspace tests:
//!
//! * a `pp=1, dp=1, microbatches=1` hybrid step is **bitwise identical** to
//!   [`optimus_core::OptimusModel::train_step`] on the same mesh;
//! * a `dp=2` step matches serial gradient averaging to better than 1e-12.
//!
//! # 1F1B over SUMMA
//!
//! Stages run the PipeDream-flush (1F1B) schedule: `pp − 1 − stage` warm-up
//! forwards, then one-forward-one-backward, then cooldown — bounding live
//! microbatch caches at `pp − stage` (tracked in
//! [`HybridStage::peak_live_microbatches`]). Inside a stage, every layer is
//! the usual SUMMA/2D machinery on the stage's own sub-mesh; between
//! stages, each device exchanges only its *local* `[bm·s/q, h/q]` activation
//! block with the same `(replica, mesh_rank)` device of the adjacent stage.
//! Backward-edge receives use [`mesh::Communicator::recv_expect`] with the
//! declared block length, which is what lets the sequential dry-run backend
//! replay the schedule and emit CommLog streams **byte-identical** to a
//! live run.
//!
//! # Example: the degenerate 1×1×\[2,2\] spec
//!
//! With one stage, one replica and one microbatch, the hybrid step *is* the
//! plain 2D Optimus step:
//!
//! ```
//! use hybrid::HybridSpec;
//! use optimus_core::OptimusConfig;
//!
//! let cfg = OptimusConfig::tiny(2);
//! let spec = HybridSpec { pp: 1, dp: 1, grid: [2, 2, 1], microbatches: 1 };
//! spec.validate(&cfg).unwrap();
//! assert_eq!(spec.devices(), 4);
//!
//! let tokens: Vec<usize> = (0..cfg.batch * cfg.seq).map(|i| i % cfg.vocab).collect();
//! let labels: Vec<usize> = (0..cfg.batch * cfg.seq).map(|i| (i + 1) % cfg.vocab).collect();
//! let losses = mesh::Mesh::run(spec.devices(), |ctx| {
//!     let (mut stage, grid) = hybrid::build(ctx, &spec, &cfg, 7);
//!     stage.train_step(&grid, &tokens, &labels, 0.1)
//! });
//! // Every device reports the same global mean loss.
//! for l in &losses {
//!     assert_eq!(*l, losses[0]);
//! }
//! ```

use std::collections::VecDeque;

use mesh::{
    chunk, Coll, CollBuf, CollPlan, CommOp, Communicator, ErrorFeedback, GridNd, Group, WireDtype,
};
use optimus_core::{Model2dGrads, OptimusConfig, OptimusModel, Summa2d};
use serial::stem::{self, Keep, Kept, MemMeter};
use serial::{ln_backward, ln_forward, walk_pair, LnCache, Lowering, Span};
use summa::Strips;
use tensor::optim::AdamSet;
use tensor::Tensor;

/// A hybrid parallel configuration: how an `N`-device world is partitioned
/// into pipeline stages × data-parallel replicas × tensor meshes.
///
/// # Validation rules ([`HybridSpec::validate`])
///
/// * `pp`, `dp`, `microbatches` and every grid extent are ≥ 1;
/// * the tensor grid is square-fronted (`grid[0] == grid[1] = q`) and the
///   2.5D depth divides the side (`d | q`);
/// * `pp | layers` (contiguous equal stages), `dp | batch` (equal replica
///   shards), `microbatches | batch/dp` (equal microbatches), and
///   `q | batch/(dp·microbatches)` (each microbatch splits across mesh
///   rows);
/// * `q` divides `hidden`, `heads` and `vocab` (the 2D blocking rules).
///
/// [`HybridSpec::validate_for_world`] additionally pins the invariant
/// `pp · dp · p · q · d = N`:
///
/// ```
/// use hybrid::HybridSpec;
/// use optimus_core::OptimusConfig;
///
/// let spec = HybridSpec { pp: 2, dp: 2, grid: [2, 2, 1], microbatches: 2 };
/// let cfg = OptimusConfig { batch: 8, ..OptimusConfig::tiny(2) };
/// assert_eq!(spec.devices(), 16);
/// assert!(spec.validate_for_world(&cfg, 16).is_ok());
/// assert!(spec.validate_for_world(&cfg, 17).is_err());
/// // 3 stages cannot split tiny(2)'s 2 layers:
/// let bad = HybridSpec { pp: 3, ..spec };
/// assert!(bad.validate(&cfg).is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridSpec {
    /// Pipeline stages.
    pub pp: usize,
    /// Data-parallel replicas per stage.
    pub dp: usize,
    /// Tensor mesh per stage-replica: `[p, q, d]` with `p = q` (square
    /// SUMMA front) and `d | q` (Tesseract 2.5D depth; `d = 1` is plain 2D).
    pub grid: [usize; 3],
    /// Microbatches per replica per step (GPipe's `m`).
    pub microbatches: usize,
}

impl HybridSpec {
    /// Mesh side `q`.
    pub fn q(&self) -> usize {
        self.grid[0]
    }

    /// 2.5D depth `d` (1 = plain 2D).
    pub fn depth(&self) -> usize {
        self.grid[2]
    }

    /// Devices per stage-replica tensor mesh (`p·q·d`).
    pub fn mesh_devices(&self) -> usize {
        self.grid[0] * self.grid[1] * self.grid[2]
    }

    /// Total devices: `pp · dp · p · q · d`.
    pub fn devices(&self) -> usize {
        self.pp * self.dp * self.mesh_devices()
    }

    /// Sequences per microbatch per replica: `batch / (dp · microbatches)`.
    pub fn micro_batch(&self, cfg: &OptimusConfig) -> usize {
        cfg.batch / (self.dp * self.microbatches)
    }

    /// Layers per pipeline stage.
    pub fn layers_per_stage(&self, cfg: &OptimusConfig) -> usize {
        cfg.layers / self.pp
    }

    /// The per-microbatch stage-local model config: same model dims, batch
    /// shrunk to one microbatch, layers shrunk to one stage.
    pub fn micro_cfg(&self, cfg: &OptimusConfig) -> OptimusConfig {
        OptimusConfig {
            q: self.q(),
            batch: self.micro_batch(cfg),
            layers: self.layers_per_stage(cfg),
            ..*cfg
        }
    }

    /// Checks every divisibility rule; `Err` carries a human-readable
    /// message (the CLI prints it verbatim).
    pub fn validate(&self, cfg: &OptimusConfig) -> Result<(), String> {
        let [p, q, d] = self.grid;
        if self.pp == 0 || self.dp == 0 || self.microbatches == 0 {
            return Err("pp, dp and microbatches must all be at least 1".into());
        }
        if p == 0 || q == 0 || d == 0 {
            return Err(format!(
                "grid extents must be at least 1, got {:?}",
                self.grid
            ));
        }
        if p != q {
            return Err(format!(
                "tensor grid must be square-fronted ([q, q, d]): got [{p}, {q}, {d}]"
            ));
        }
        if !q.is_multiple_of(d) {
            return Err(format!("2.5D needs d | q: got q={q}, d={d}"));
        }
        if !cfg.layers.is_multiple_of(self.pp) {
            return Err(format!(
                "layers {} must divide into {} pipeline stages",
                cfg.layers, self.pp
            ));
        }
        if !cfg.batch.is_multiple_of(self.dp) {
            return Err(format!(
                "batch {} must divide into {} data-parallel replicas",
                cfg.batch, self.dp
            ));
        }
        let rb = cfg.batch / self.dp;
        if !rb.is_multiple_of(self.microbatches) {
            return Err(format!(
                "replica batch {rb} must divide into {} microbatches",
                self.microbatches
            ));
        }
        let bm = rb / self.microbatches;
        if !bm.is_multiple_of(q) {
            return Err(format!(
                "microbatch of {bm} sequences must divide across {q} mesh rows"
            ));
        }
        for (name, v) in [
            ("hidden", cfg.hidden),
            ("heads", cfg.heads),
            ("vocab", cfg.vocab),
        ] {
            if !v.is_multiple_of(q) {
                return Err(format!("{name} {v} must be divisible by mesh side q={q}"));
            }
        }
        Ok(())
    }

    /// [`HybridSpec::validate`] plus the world-partition invariant
    /// `pp · dp · p · q · d = n`.
    pub fn validate_for_world(&self, cfg: &OptimusConfig, n: usize) -> Result<(), String> {
        self.validate(cfg)?;
        if self.devices() != n {
            return Err(format!(
                "a {}x{}x[{},{},{}] hybrid uses {} devices, but the world has {n}",
                self.pp,
                self.dp,
                self.grid[0],
                self.grid[1],
                self.grid[2],
                self.devices()
            ));
        }
        Ok(())
    }

    /// Decomposes a world rank into `(stage, replica, mesh_rank)`.
    pub fn position(&self, rank: usize) -> (usize, usize, usize) {
        let msz = self.mesh_devices();
        let block = rank / msz;
        (block / self.dp, block % self.dp, rank % msz)
    }

    /// World rank of mesh coordinate `[0, 0, 0]` of one stage-replica.
    pub fn first_rank(&self, stage: usize, replica: usize) -> usize {
        (stage * self.dp + replica) * self.mesh_devices()
    }

    /// The data-parallel group: devices with equal `(stage, mesh_rank)`
    /// across all replicas, ordered by replica.
    pub fn dp_group(&self, stage: usize, mesh_rank: usize) -> Group {
        Group::labeled(
            (0..self.dp)
                .map(|r| self.first_rank(stage, r) + mesh_rank)
                .collect(),
            "dp",
        )
    }

    /// The tied-embedding group: the first- and last-stage devices with
    /// equal `(replica, mesh_rank)`. Requires `pp > 1` (with one stage the
    /// two ends coincide and no sync is needed).
    pub fn tie_group(&self, replica: usize, mesh_rank: usize) -> Group {
        assert!(self.pp > 1, "tie_group needs at least two stages");
        Group::labeled(
            vec![
                self.first_rank(0, replica) + mesh_rank,
                self.first_rank(self.pp - 1, replica) + mesh_rank,
            ],
            "tie",
        )
    }

    /// The pipeline group: devices with equal `(replica, mesh_rank)` across
    /// all stages, ordered by stage.
    pub fn pipe_group(&self, replica: usize, mesh_rank: usize) -> Group {
        Group::labeled(
            (0..self.pp)
                .map(|s| self.first_rank(s, replica) + mesh_rank)
                .collect(),
            "pipe",
        )
    }
}

/// Builds this device's [`HybridStage`] and its stage-replica sub-mesh from
/// its world rank. Panics (with the validation message) on an invalid spec
/// or a world-size mismatch — CLI callers validate first for a clean error.
pub fn build<'a, C: Communicator>(
    ctx: &'a C,
    spec: &HybridSpec,
    cfg: &OptimusConfig,
    seed: u64,
) -> (HybridStage, GridNd<'a, C>) {
    spec.validate_for_world(cfg, ctx.world_size())
        .unwrap_or_else(|e| panic!("invalid hybrid spec: {e}"));
    let (stage, replica, _) = spec.position(ctx.rank());
    let grid = GridNd::sub_mesh_nd(ctx, &spec.grid, spec.first_rank(stage, replica));
    let st = HybridStage::new(spec, cfg, seed, stage, replica, &grid);
    (st, grid)
}

/// One stage's in-flight state for one microbatch: what the stem's forward
/// sweep kept.
struct MicroState {
    kept: Vec<Kept<Strips>>,
    /// Last stage only: final layer-norm cache, normalized hidden state,
    /// the loss-scaled logits gradient and the table panels the logits
    /// product received.
    head: Option<(LnCache, Tensor, Tensor, Strips)>,
}

fn add(acc: &mut [f32], g: &[f32]) {
    for (a, g) in acc.iter_mut().zip(g) {
        *a += g;
    }
}

/// One device's stage-replica shard of the hybrid schedule: a stage-sliced
/// 2D Optimus model plus its position in the `(stage, replica, mesh)`
/// decomposition.
pub struct HybridStage {
    pub spec: HybridSpec,
    /// The *global* training config (`batch` = global batch).
    pub cfg: OptimusConfig,
    pub stage: usize,
    pub replica: usize,
    /// This device's rank within its stage-replica mesh.
    pub mesh_rank: usize,
    /// The stage-local model over [`HybridSpec::micro_cfg`]: this stage's
    /// layer range, plus a tied embedding-table block and the final
    /// layer-norm slice (used on the first/last stage only; middle stages
    /// carry them with permanently zero gradients so the parameter layout
    /// is uniform).
    pub model: OptimusModel,
    /// High-water mark of simultaneously live microbatch caches during the
    /// most recent step — the quantity 1F1B bounds at `pp − stage`.
    pub peak_live_microbatches: usize,
    /// Wire dtype of the data-parallel gradient all-reduces in
    /// [`HybridStage::train_step`] (default full-width f32). Set with
    /// [`HybridStage::set_grad_wire`].
    grad_wire: WireDtype,
    /// Error-feedback residuals for the dp gradient sync — one buffer per
    /// synced gradient slice, carried across steps ([`mesh::ErrorFeedback`]).
    dp_ef: ErrorFeedback,
}

impl HybridStage {
    /// Builds the stage for an explicit `(stage, replica)` position by
    /// slicing the canonical full parameters generated from `seed` — every
    /// stage's parameters are bitwise those of the corresponding layers of
    /// the unpartitioned model.
    pub fn new<C: Communicator>(
        spec: &HybridSpec,
        cfg: &OptimusConfig,
        seed: u64,
        stage: usize,
        replica: usize,
        grid: &GridNd<C>,
    ) -> Self {
        assert!(stage < spec.pp && replica < spec.dp);
        let full = serial::ModelParams::init(seed, &cfg.model());
        let lps = spec.layers_per_stage(cfg);
        let stage_params = serial::ModelParams {
            embedding: full.embedding.clone(),
            layers: full.layers[stage * lps..(stage + 1) * lps].to_vec(),
            final_ln_g: full.final_ln_g.clone(),
            final_ln_b: full.final_ln_b.clone(),
        };
        let micro = spec.micro_cfg(cfg);
        let model = OptimusModel::from_params(&micro, &stage_params, grid);
        HybridStage {
            spec: *spec,
            cfg: *cfg,
            stage,
            replica,
            mesh_rank: spec.position(grid.ctx().rank()).2,
            model,
            peak_live_microbatches: 0,
            grad_wire: WireDtype::F32,
            dp_ef: ErrorFeedback::new(),
        }
    }

    /// Selects the wire dtype for this stage's dp gradient all-reduces.
    /// Compressed dtypes run under error feedback: the per-step rounding
    /// error is carried into the next step's gradients, so the loss curve
    /// tracks the f32 run (asserted by the convergence tests). Switching
    /// dtype mid-training resets the residuals.
    pub fn set_grad_wire(&mut self, wire: WireDtype) {
        if wire != self.grad_wire {
            self.dp_ef = ErrorFeedback::new();
        }
        self.grad_wire = wire;
    }

    fn is_first(&self) -> bool {
        self.stage == 0
    }

    fn is_last(&self) -> bool {
        self.stage + 1 == self.spec.pp
    }

    /// Elements of one device's stage-boundary activation block:
    /// `(bm/q)·s · h/q`.
    fn boundary_elems(&self) -> usize {
        self.model.cfg.local_rows() * self.model.cfg.local_cols()
    }

    /// This replica's slice of the global token/label stream for microbatch
    /// `i`: `bm · s` contiguous tokens.
    fn micro_slice<'t>(&self, tokens: &'t [usize], i: usize) -> &'t [usize] {
        let s = self.cfg.seq;
        let rb = self.cfg.batch / self.spec.dp;
        let bm = self.spec.micro_batch(&self.cfg);
        let start = (self.replica * rb + i * bm) * s;
        &tokens[start..start + bm * s]
    }

    /// Forward of microbatch `i`: receive (or embed), run this stage's
    /// layers, send on (or run the loss head). Adds the microbatch's
    /// `1/total_rows`-scaled loss contribution to `losses`.
    fn forward_micro<C: Communicator>(
        &self,
        grid: &GridNd<C>,
        tokens: &[usize],
        labels: &[usize],
        i: usize,
        losses: &mut f64,
        meter: &mut MemMeter,
    ) -> MicroState {
        let micro = self.model.cfg;
        let low = Summa2d { grid, cfg: &micro };
        let (model, keep) = (&self.model, Keep::training(micro.checkpoint));
        let total_rows = self.cfg.batch * self.cfg.seq;

        let (y, kept, ln) = low.scope(Span::Fwd, || {
            let x = if self.is_first() {
                let mb_tokens = micro.local_tokens(self.micro_slice(tokens, i), grid.row());
                low.embed(&model.table, mb_tokens)
            } else {
                let from = self.spec.first_rank(self.stage - 1, self.replica) + self.mesh_rank;
                Tensor::from_vec(
                    &[micro.local_rows(), micro.local_cols()],
                    grid.ctx().recv_expect(from, self.boundary_elems()),
                )
            };
            let (y, kept) = stem::sweep_forward(&low, &model.layers, x, keep, meter);
            if self.is_last() {
                let (hidden, ln) = ln_forward(&low, &y, &model.final_ln_g, &model.final_ln_b);
                (hidden, kept, Some(ln))
            } else {
                (y, kept, None)
            }
        });

        let head = match ln {
            Some(ln) => {
                let mb_labels = micro.local_tokens(self.micro_slice(labels, i), grid.row());
                let (loss, dlogits, panels) = low.scope(Span::LossHead, || {
                    stem::head_loss(&low, &model.table, &y, mb_labels, total_rows, meter)
                });
                // Already scaled by 1/total_rows: losses and gradients
                // combine across microbatches and replicas by plain summation.
                *losses += loss as f64;
                Some((ln, y, dlogits, panels))
            }
            None => {
                let to = self.spec.first_rank(self.stage + 1, self.replica) + self.mesh_rank;
                grid.ctx().send(to, y.into_vec());
                None
            }
        };
        MicroState { kept, head }
    }

    /// Backward of microbatch `i` given its forward state: head backward on
    /// the last stage (or receive the boundary gradient), layers in reverse
    /// (recomputing from checkpoints when `cfg.checkpoint`), then the
    /// embedding backward on the first stage (or send the gradient on).
    /// The microbatch's parameter gradients become `acc`, or add to it.
    fn backward_micro<C: Communicator>(
        &self,
        grid: &GridNd<C>,
        state: MicroState,
        i: usize,
        tokens: &[usize],
        acc: &mut Option<Model2dGrads>,
        meter: &mut MemMeter,
    ) {
        let micro = self.model.cfg;
        let low = Summa2d { grid, cfg: &micro };
        let model = &self.model;
        let mut d_table = Tensor::zeros(&[model.table.rows(), model.table.cols()]);

        let (dx, final_ln_g, final_ln_b) = match state.head {
            Some((ln, hidden, dlogits, panels)) => {
                let dhidden = low.scope(Span::LossHead, || {
                    let table = &model.table;
                    stem::head_backward(&low, table, &hidden, dlogits, panels, &mut d_table, meter)
                });
                low.scope(Span::Bwd, || ln_backward(&low, &dhidden, &ln))
            }
            None => {
                let from = self.spec.first_rank(self.stage + 1, self.replica) + self.mesh_rank;
                let dx = Tensor::from_vec(
                    &[micro.local_rows(), micro.local_cols()],
                    grid.ctx().recv_expect(from, self.boundary_elems()),
                );
                // Middle/first stages host zero final-LN gradients on mesh row 0
                // so the accumulator/update layout is uniform across stages.
                let zeros = model.final_ln_g.as_ref().map(|g| vec![0.0f32; g.len()]);
                (dx, zeros.clone(), zeros)
            }
        };

        // The first microbatch's layer gradients are collected, later ones
        // added to the running total as each layer's backward finishes.
        let mut collected = Vec::new();
        low.scope(Span::Bwd, || {
            let layers = model.layers.iter();
            let dx = stem::sweep_backward(&low, layers, state.kept, dx, meter, |l, _, g| match acc
                .as_mut()
            {
                Some(a) => a.layers[l].walk(&g, &mut add),
                None => collected.push(g),
            });
            if self.is_first() {
                let mb_tokens = micro.local_tokens(self.micro_slice(tokens, i), grid.row());
                low.embed_backward(&mut d_table, &dx, mb_tokens);
            } else {
                let to = self.spec.first_rank(self.stage - 1, self.replica) + self.mesh_rank;
                grid.ctx().send(to, dx.into_vec());
            }
        });

        match acc {
            Some(a) => {
                a.embedding.add_assign(&d_table);
                walk_pair(&mut a.final_ln_g, &final_ln_g, &mut add);
                walk_pair(&mut a.final_ln_b, &final_ln_b, &mut add);
            }
            None => {
                collected.reverse();
                *acc = Some(Model2dGrads {
                    embedding: d_table,
                    layers: collected,
                    final_ln_g,
                    final_ln_b,
                });
            }
        }
    }

    /// The accumulation phase of one step: runs this replica's microbatches
    /// through the 1F1B schedule and returns `(Σ scaled losses, Σ scaled
    /// gradients)` — *sums*, not averages (see the crate docs), ready for a
    /// plain all-reduce over the `dp` axis, or the reduce-scatter of
    /// [`HybridStage::train_step_zero1`]. Public so tests can observe
    /// pre-synchronization gradients.
    pub fn replica_grads<C: Communicator>(
        &mut self,
        grid: &GridNd<C>,
        tokens: &[usize],
        labels: &[usize],
    ) -> (f64, Model2dGrads) {
        let m = self.spec.microbatches;
        let rows = self.cfg.batch * self.cfg.seq;
        stem::check_ids("token", tokens, rows, self.cfg.vocab);
        stem::check_ids("label", labels, rows, self.cfg.vocab);

        let warmup = (self.spec.pp - 1 - self.stage).min(m);
        let mut losses = 0.0f64;
        let mut acc: Option<Model2dGrads> = None;
        let mut live: VecDeque<MicroState> = VecDeque::new();
        let mut peak_live = 0;
        let meter = &mut MemMeter::new();

        // `warmup` forwards, then one-forward-one-backward, then cooldown
        // backwards: microbatch `i`'s backward runs once forward
        // `i + warmup` has (or every forward has).
        for i in 0..m + warmup {
            if i < m {
                live.push_back(self.forward_micro(grid, tokens, labels, i, &mut losses, meter));
                peak_live = peak_live.max(live.len());
            }
            if i >= warmup {
                let st = live.pop_front().expect("a forward is outstanding");
                self.backward_micro(grid, st, i - warmup, tokens, &mut acc, meter);
            }
        }
        self.peak_live_microbatches = peak_live;
        (losses, acc.expect("at least one microbatch"))
    }

    /// The first↔last tied-table all-reduce: both ends of the pipeline
    /// hold the table and must apply the same gradient.
    fn tie_sync<C: Communicator>(&self, ctx: &C, table: &mut [f32]) {
        if self.spec.pp > 1 && (self.is_first() || self.is_last()) {
            ctx.all_reduce(&self.spec.tie_group(self.replica, self.mesh_rank), table);
        }
    }

    /// The global mean loss from this replica's summed microbatch losses:
    /// dp-summed on the last stage, then broadcast down the pipeline, so it
    /// is identical on every device.
    fn exchange_loss<C: Communicator>(&self, ctx: &C, losses: f64) -> f32 {
        let spec = self.spec;
        let mut loss = vec![if self.is_last() { losses as f32 } else { 0.0 }];
        if self.is_last() && spec.dp > 1 {
            ctx.all_reduce(&spec.dp_group(self.stage, self.mesh_rank), &mut loss);
        }
        if spec.pp > 1 {
            let pipe = spec.pipe_group(self.replica, self.mesh_rank);
            ctx.broadcast(&pipe, spec.pp - 1, &mut loss);
        }
        loss[0]
    }

    /// One full hybrid training step: the 1F1B schedule, the dp all-reduce
    /// (sum) of every gradient, the tied-table sync and SGD. Returns the
    /// global mean loss — identical on every device of the world.
    pub fn train_step<C: Communicator>(
        &mut self,
        grid: &GridNd<C>,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
    ) -> f32 {
        let (losses, mut grads) = self.replica_grads(grid, tokens, labels);
        let ctx = grid.ctx();
        if self.spec.dp > 1 {
            let dp = self.spec.dp_group(self.stage, self.mesh_rank);
            let (has_table, is_last) = (self.is_first() || self.is_last(), self.is_last());
            let w = self.grad_wire;
            // The residual cursor rewinds every step; buffers line up with
            // the canonical walk order of the gradient slices below.
            let ef = &mut self.dp_ef;
            ef.begin_step();
            let mut sync = |v: &mut [f32]| {
                ef.apply(v, w);
                let plan = CollPlan {
                    wire: w,
                    ..ctx.plan(CommOp::AllReduce, dp.len(), v.len())
                };
                ctx.collective(Coll::AllReduce, &dp, CollBuf::Now(v), plan);
            };
            // Middle stages carry a table and a final LN whose gradients
            // are permanently zero: nothing to sync.
            if has_table {
                sync(grads.embedding.as_mut_slice());
            }
            if is_last {
                for v in [&mut grads.final_ln_g, &mut grads.final_ln_b] {
                    v.iter_mut().for_each(|v| sync(v));
                }
            }
            for g in &mut grads.layers {
                g.walk_mut(&mut sync);
            }
        }
        self.tie_sync(ctx, grads.embedding.as_mut_slice());
        self.model.apply_sgd(&grads, lr);
        self.exchange_loss(ctx, losses)
    }

    /// [`HybridStage::train_step`] with Adam under **ZeRO stage-1
    /// optimizer-state sharding** (Rajbhandari et al., which the paper cites
    /// as orthogonal to its own method). Replica `r` holds the moments of,
    /// and updates, only chunk `r` of each tensor — [`mesh::chunk`], the
    /// reduce-scatter's own partition. Per tensor the gradient is
    /// reduce-scattered over the dp group, the owned chunk takes its Adam
    /// step and every chunk is broadcast back from its owner. Optimizer
    /// memory per replica drops `dp`-fold; the math is full-state Adam on
    /// the global batch. The dp traffic is full-width:
    /// [`HybridStage::set_grad_wire`] applies to `train_step` only.
    pub fn train_step_zero1<C: Communicator>(
        &mut self,
        grid: &GridNd<C>,
        tokens: &[usize],
        labels: &[usize],
        opt: &mut AdamSet,
    ) -> f32 {
        let (losses, mut grads) = self.replica_grads(grid, tokens, labels);
        let ctx = grid.ctx();
        self.tie_sync(ctx, grads.embedding.as_mut_slice());
        let dp = self.spec.dp_group(self.stage, self.mesh_rank);
        let (d, me) = (dp.len(), self.replica);
        opt.begin_step();
        self.model.visit_params_grads(&grads, &mut |param, grad| {
            let (n, mine) = (param.len(), ctx.reduce_scatter(&dp, &mut grad.to_vec()));
            opt.apply(&mut param[chunk(n, d, me)], &mine);
            for r in 0..d {
                ctx.broadcast(&dp, r, &mut param[chunk(n, d, r)]);
            }
        });
        self.exchange_loss(ctx, losses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Mesh;
    use serial::SerialModel;
    use tensor::Rng;

    fn data(cfg: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let n = cfg.batch * cfg.seq;
        (
            (0..n).map(|_| rng.below(cfg.vocab)).collect(),
            (0..n).map(|_| rng.below(cfg.vocab)).collect(),
        )
    }

    #[test]
    fn validation_messages_are_readable() {
        let cfg = OptimusConfig::tiny(2);
        let base = HybridSpec {
            pp: 1,
            dp: 1,
            grid: [2, 2, 1],
            microbatches: 1,
        };
        assert!(base.validate(&cfg).is_ok());

        let cases: Vec<(HybridSpec, &str)> = vec![
            (
                HybridSpec {
                    grid: [2, 3, 1],
                    ..base
                },
                "square",
            ),
            (
                HybridSpec {
                    grid: [4, 4, 3],
                    ..base
                },
                "d | q",
            ),
            (HybridSpec { pp: 3, ..base }, "pipeline stages"),
            (HybridSpec { dp: 3, ..base }, "data-parallel replicas"),
            (
                HybridSpec {
                    microbatches: 3,
                    ..base
                },
                "microbatches",
            ),
            (
                HybridSpec {
                    dp: 2,
                    microbatches: 2,
                    ..base
                },
                "mesh rows",
            ),
            (
                HybridSpec {
                    microbatches: 0,
                    ..base
                },
                "at least 1",
            ),
        ];
        for (spec, needle) in cases {
            let err = spec.validate(&cfg).unwrap_err();
            assert!(
                err.contains(needle),
                "{spec:?}: {err:?} should mention {needle:?}"
            );
        }
        let err = base.validate_for_world(&cfg, 5).unwrap_err();
        assert!(err.contains("uses 4 devices"), "{err}");
    }

    #[test]
    fn rank_layout_roundtrips() {
        let spec = HybridSpec {
            pp: 2,
            dp: 2,
            grid: [2, 2, 1],
            microbatches: 2,
        };
        for rank in 0..spec.devices() {
            let (s, r, m) = spec.position(rank);
            assert_eq!(spec.first_rank(s, r) + m, rank);
        }
        assert_eq!(spec.dp_group(1, 3).ranks(), &[11, 15]);
        assert_eq!(spec.tie_group(1, 0).ranks(), &[4, 12]);
        assert_eq!(spec.pipe_group(0, 2).ranks(), &[2, 10]);
        // One stage: replicas are whole meshes, paired by mesh position.
        let dp2 = HybridSpec { pp: 1, ..spec };
        assert_eq!(dp2.position(5), (0, 1, 1));
        assert_eq!(dp2.dp_group(0, 1).ranks(), &[1, 5]);
    }

    #[test]
    fn every_spec_follows_the_serial_trajectory() {
        // Pipeline stages, dp replicas and accumulated microbatches are one
        // schedule: every spec's loss trajectory tracks the serial model on
        // the global batch (f32 reduction-order slack) and is identical on
        // every device.
        let spec = |pp, dp, q, microbatches| HybridSpec {
            pp,
            dp,
            grid: [q, q, 1],
            microbatches,
        };
        let table = [
            spec(2, 1, 1, 2),
            spec(2, 1, 1, 1),
            spec(2, 1, 1, 4),
            spec(4, 1, 1, 1),
            spec(4, 1, 1, 4),
            spec(1, 2, 2, 1),
            spec(1, 1, 2, 2),
        ];
        for spec in table {
            let cfg = OptimusConfig {
                batch: 4,
                layers: 4,
                ..OptimusConfig::tiny(spec.q())
            };
            spec.validate(&cfg).unwrap();
            let (tokens, labels) = data(&cfg, 11);
            let mut reference = SerialModel::new(cfg.model(), 7);
            let ref_losses: Vec<f32> = (0..4)
                .map(|_| reference.train_step(&tokens, &labels, 0.2))
                .collect();
            let losses = Mesh::run(spec.devices(), |ctx| {
                let (mut st, grid) = build(ctx, &spec, &cfg, 7);
                (0..4)
                    .map(|_| st.train_step(&grid, &tokens, &labels, 0.2))
                    .collect::<Vec<f32>>()
            });
            for dev in &losses {
                assert_eq!(dev, &losses[0], "{spec:?}: losses differ across devices");
                for (a, b) in dev.iter().zip(&ref_losses) {
                    assert!((a - b).abs() < 2e-3, "{spec:?}: hybrid={a} serial={b}");
                }
            }
        }
    }

    #[test]
    fn one_f_one_b_bounds_live_microbatches() {
        let cfg = OptimusConfig {
            batch: 8,
            layers: 4,
            ..OptimusConfig::tiny(1)
        };
        let (tokens, labels) = data(&cfg, 3);
        for (pp, want) in [(2usize, vec![2, 1]), (4, vec![4, 3, 2, 1])] {
            let spec = HybridSpec {
                pp,
                dp: 1,
                grid: [1, 1, 1],
                microbatches: 4,
            };
            let peaks = Mesh::run(spec.devices(), |ctx| {
                let (mut st, grid) = build(ctx, &spec, &cfg, 5);
                st.train_step(&grid, &tokens, &labels, 0.1);
                st.peak_live_microbatches
            });
            assert_eq!(peaks, want, "1F1B bound is pp - stage");
        }
    }

    #[test]
    fn boundary_traffic_matches_the_formula() {
        // 2(S-1)·bsh scalars cross stage boundaries per step, independent
        // of the microbatch count.
        let cfg = OptimusConfig {
            batch: 4,
            seq: 6,
            hidden: 8,
            heads: 2,
            vocab: 16,
            ..OptimusConfig::tiny(1)
        };
        let (tokens, labels) = data(&cfg, 2);
        let bsh = cfg.batch * cfg.seq * cfg.hidden;
        for m in [1usize, 2, 4] {
            let spec = HybridSpec {
                pp: 2,
                dp: 1,
                grid: [1, 1, 1],
                microbatches: m,
            };
            let (_, logs) = Mesh::run_with_logs(spec.devices(), |ctx| {
                let (mut st, grid) = build(ctx, &spec, &cfg, 3);
                st.train_step(&grid, &tokens, &labels, 0.1)
            });
            // Only a boundary block is bsh/m long (the tied table is 128).
            let p2p: usize = (logs.iter().flat_map(|l| &l.links))
                .filter(|l| l.elems == bsh / m)
                .map(|l| l.elems)
                .sum();
            assert_eq!(p2p, 2 * bsh, "m={m}");
        }
    }

    #[test]
    fn dry_run_logs_match_live_for_a_full_hybrid_step() {
        // The tentpole claim: a 2-stage × 2-replica hybrid step emits
        // byte-identical CommLog streams on both backends — including the
        // backward p2p hops that recv_expect makes replayable.
        let cfg = OptimusConfig {
            batch: 8,
            ..OptimusConfig::tiny(1)
        };
        let (tokens, labels) = data(&cfg, 9);
        let spec = HybridSpec {
            pp: 2,
            dp: 2,
            grid: [1, 1, 1],
            microbatches: 2,
        };
        spec.validate(&cfg).unwrap();
        let (_, live_logs) = Mesh::run_with_logs(spec.devices(), |ctx| {
            let (mut st, grid) = build(ctx, &spec, &cfg, 7);
            st.train_step(&grid, &tokens, &labels, 0.1)
        });
        let (_, dry_logs) = Mesh::dry_run_with_logs(spec.devices(), |c| {
            let (mut st, grid) = build(c, &spec, &cfg, 7);
            st.train_step(&grid, &tokens, &labels, 0.1)
        });
        assert_eq!(live_logs.len(), dry_logs.len());
        for (l, d) in live_logs.iter().zip(&dry_logs) {
            assert_eq!(l.ops, d.ops, "op stream mismatch at rank {}", l.rank);
            assert_eq!(l.links, d.links, "link stream mismatch at rank {}", l.rank);
        }
    }

    #[test]
    fn dp_sync_moves_the_same_all_reduces_as_the_weights_first_order_did() {
        // The dp sync walks gradients in the canonical order. Before, it
        // went table, final LN, then per layer the four (weight, bias)
        // pairs followed by all four LN vectors; per rank the multiset of
        // dp all-reduce sizes (plus the last stage's loss scalar) must be
        // what that order produced.
        let cfg = OptimusConfig {
            batch: 8,
            ..OptimusConfig::tiny(2)
        };
        let (tokens, labels) = data(&cfg, 9);
        let spec = HybridSpec {
            pp: 2,
            dp: 2,
            grid: [2, 2, 1],
            microbatches: 2,
        };
        let (want, logs) = Mesh::run_with_logs(spec.devices(), |ctx| {
            let (mut st, grid) = build(ctx, &spec, &cfg, 7);
            st.train_step(&grid, &tokens, &labels, 0.1);
            let (m, last) = (&st.model, st.is_last());
            let len = |v: &Option<Vec<f32>>| v.as_ref().map(Vec::len);
            let mut want = vec![(st.is_first() || last).then_some(m.table.len())];
            if last {
                want.extend([len(&m.final_ln_g), len(&m.final_ln_b), Some(1)]);
            }
            for l in &m.layers {
                want.extend([Some(l.w_qkv.len()), len(&l.b_qkv), Some(l.w_out.len())]);
                want.extend([len(&l.b_out), Some(l.w_fc1.len()), len(&l.b_fc1)]);
                want.extend([Some(l.w_fc2.len()), len(&l.b_fc2), len(&l.ln1_g)]);
                want.extend([len(&l.ln1_b), len(&l.ln2_g), len(&l.ln2_b)]);
            }
            let mut want: Vec<usize> = want.into_iter().flatten().collect();
            want.sort_unstable();
            want
        });
        for (log, want) in logs.iter().zip(&want) {
            // Only the dp groups pair ranks one stage-replica mesh apart.
            let mut got: Vec<usize> = (log.ops.iter())
                .filter(|o| o.op == CommOp::AllReduce && o.group_stride == spec.mesh_devices())
                .map(|o| o.elems)
                .collect();
            got.sort_unstable();
            assert_eq!(&got, want, "rank {}", log.rank);
        }
    }

    #[test]
    fn losses_agree_across_every_device_of_a_3d_spec() {
        let cfg = OptimusConfig {
            batch: 8,
            ..OptimusConfig::tiny(1)
        };
        let (tokens, labels) = data(&cfg, 13);
        let spec = HybridSpec {
            pp: 2,
            dp: 2,
            grid: [1, 1, 1],
            microbatches: 2,
        };
        let losses = Mesh::run(spec.devices(), |ctx| {
            let (mut st, grid) = build(ctx, &spec, &cfg, 4);
            st.train_step(&grid, &tokens, &labels, 0.15)
        });
        for l in &losses {
            assert_eq!(*l, losses[0], "loss must be identical everywhere");
        }
    }
}
