//! One round: a fresh mesh and model, one warm-up step, then a closed loop
//! of training steps, one after another, timed on rank 0.

use crate::spans::{Span, Spans};
use crate::workloads::{Device, Workload};
use mesh::{CommLog, Mesh};
use metrics::DeviceSnapshot;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// How many timed steps a round runs.
#[derive(Clone, Copy, Debug)]
pub enum StepPlan {
    Fixed(usize),
    /// As many as fit in `secs`, judged from `est_step_s` (a previous
    /// round's median) or, without one, from the warm-up step.
    Budget {
        secs: f64,
        est_step_s: Option<f64>,
    },
}

/// Fewest timed steps a budgeted round runs, however slow the host.
const MIN_BUDGET_STEPS: usize = 3;

impl StepPlan {
    fn resolve(self, warmup_s: f64) -> usize {
        match self {
            StepPlan::Fixed(n) => n,
            StepPlan::Budget { secs, est_step_s } => {
                let est = est_step_s.unwrap_or(warmup_s).max(1e-6);
                ((secs / est) as usize).max(MIN_BUDGET_STEPS)
            }
        }
    }
}

/// Compute-pool activity of the whole process over a round's timed steps.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolDelta {
    pub jobs_shared: u64,
    pub jobs_inline: u64,
    pub idle_ns: u64,
}

fn pool_now() -> PoolDelta {
    let (shared, inline) = tensor::pool::pool().job_counts();
    PoolDelta {
        jobs_shared: shared as u64,
        jobs_inline: inline as u64,
        idle_ns: metrics::global_counter("pool.idle_ns").get(),
    }
}

pub struct Round {
    /// Mesh spawn until rank 0 runs, seconds.
    pub spawn_s: f64,
    /// Model build on rank 0, seconds.
    pub build_s: f64,
    /// Spawn + build + warm-up step, seconds.
    pub setup_s: f64,
    /// Wall-clock of each timed `train_step` on rank 0, seconds.
    pub step_s: Vec<f64>,
    /// `losses[rank][i]`: the warm-up step's loss at 0, timed step `i` at `i`.
    pub losses: Vec<Vec<f32>>,
    /// Communication of the timed steps only, per rank.
    pub logs: Vec<CommLog>,
    pub pool: PoolDelta,
    pub peak_live_microbatches: usize,
    pub spans: Vec<Span>,
    /// Per-device registries; empty unless the round ran instrumented.
    pub devices: Vec<DeviceSnapshot>,
}

struct RankOut {
    spawn_s: f64,
    build_s: f64,
    setup_s: f64,
    step_s: Vec<f64>,
    losses: Vec<f32>,
    pool: PoolDelta,
    peak_live_microbatches: usize,
    spans: Vec<Span>,
}

/// Runs one round of `w`. `instrumented` turns on the `metrics` registries
/// and the span buffer for the whole round; it is off for every end-to-end
/// timing.
pub fn run_round(w: &Workload, seed: u64, plan: StepPlan, instrumented: bool) -> Round {
    let world = w.world();
    let steps = OnceLock::new();
    let aligned = Barrier::new(world);
    if instrumented {
        metrics::enable();
    }
    let epoch = Instant::now();
    let (outs, logs) = Mesh::run_with_logs(world, |ctx| {
        let spawn_s = epoch.elapsed().as_secs_f64();
        let rank = ctx.rank();
        let mut spans = Spans::new(rank, epoch, instrumented);

        let setup = spans.open("setup", 0);
        let build = spans.open("model.build", 0);
        let mut dev = Device::build(w, seed, ctx);
        let build_s = spans.close(build);
        let (tokens, labels) = w.batch(seed, 0);
        let warm = spans.open("warmup_step", 0);
        let mut losses = vec![dev.train_step(&tokens, &labels)];
        let warmup_s = spans.close(warm);
        spans.close(setup);
        let setup_s = epoch.elapsed().as_secs_f64();

        // Only the timed steps stay in the log, so per-step counts are exact.
        ctx.take_log();
        if rank == 0 {
            steps
                .set(plan.resolve(warmup_s))
                .expect("only rank 0 sets the step count");
        }
        // Every rank needs rank 0's count; the wait also aligns the start.
        aligned.wait();
        let n = *steps.get().expect("set before the barrier released");

        let pool_before = pool_now();
        let mut step_s = Vec::with_capacity(n);
        for i in 1..=n {
            let (tokens, labels) = w.batch(seed, i);
            let step = spans.open("step", i as u64);
            losses.push(dev.train_step(&tokens, &labels));
            step_s.push(spans.close(step));
        }
        let pool_after = pool_now();

        RankOut {
            spawn_s,
            build_s,
            setup_s,
            step_s,
            losses,
            pool: PoolDelta {
                jobs_shared: pool_after.jobs_shared - pool_before.jobs_shared,
                jobs_inline: pool_after.jobs_inline - pool_before.jobs_inline,
                idle_ns: pool_after.idle_ns - pool_before.idle_ns,
            },
            peak_live_microbatches: dev.peak_live_microbatches(),
            spans: spans.into_vec(),
        }
    });
    let devices = if instrumented {
        metrics::disable();
        metrics::drain()
    } else {
        Vec::new()
    };

    let mut outs = outs.into_iter();
    let r0 = outs.next().expect("a mesh has at least one device");
    let mut round = Round {
        spawn_s: r0.spawn_s,
        build_s: r0.build_s,
        setup_s: r0.setup_s,
        step_s: r0.step_s,
        losses: vec![r0.losses],
        logs,
        pool: r0.pool,
        peak_live_microbatches: r0.peak_live_microbatches,
        spans: r0.spans,
        devices,
    };
    for o in outs {
        round.losses.push(o.losses);
        round.peak_live_microbatches = round.peak_live_microbatches.max(o.peak_live_microbatches);
        round.spans.extend(o.spans);
    }
    round
}

impl Round {
    /// Elements pushed on the fabric over the timed steps, all devices.
    pub fn link_elems(&self) -> usize {
        self.logs.iter().map(CommLog::total_link_elems).sum()
    }

    /// Largest per-device peak of live tensor bytes (instrumented rounds).
    pub fn peak_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.peak_bytes).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_uses_the_estimate_then_the_warmup_and_never_starves() {
        let with_est = StepPlan::Budget {
            secs: 10.0,
            est_step_s: Some(0.5),
        };
        assert_eq!(with_est.resolve(2.0), 20);
        let cold = StepPlan::Budget {
            secs: 10.0,
            est_step_s: None,
        };
        assert_eq!(cold.resolve(2.0), 5);
        assert_eq!(cold.resolve(60.0), MIN_BUDGET_STEPS);
        assert_eq!(StepPlan::Fixed(7).resolve(1.0), 7);
    }
}
