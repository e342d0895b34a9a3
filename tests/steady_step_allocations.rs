//! A steady training step takes its memory from its device's recycler: after
//! one warm-up step, a second step asks the system allocator for no block of
//! 4 KiB or more on any device, on every scheme. Large blocks are the ones
//! the system allocator maps and trims away between layers, so each one a
//! step asks for comes back as page faults.
//!
//! A counting global allocator counts such requests per thread. Each device
//! reads its own count around its second step (taking the CommLog between
//! the two steps, as the benchmark does), and checks that its recycler
//! never holds more than its own high-water mark of live bytes.

use optimus::hybrid::{build, HybridSpec};
use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, SerialModel};
use optimus::tensor::{recycler, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Requests of this many bytes or more are counted.
const LARGE: usize = 4096;

struct Counting;

thread_local! {
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    if size >= LARGE {
        // `try_with`: the allocator also serves threads tearing down.
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn large_allocs() -> usize {
    LARGE_ALLOCS.with(Cell::get)
}

/// Large enough that activations, weights and messages pass 4 KiB (a
/// `[128, 64]` activation is 32 KiB), small enough to train in moments.
fn model() -> ModelConfig {
    ModelConfig {
        batch: 8,
        seq: 16,
        hidden: 64,
        heads: 4,
        vocab: 64,
        layers: 2,
        causal: true,
    }
}

fn optimus_cfg(q: usize) -> OptimusConfig {
    let m = model();
    OptimusConfig {
        q,
        batch: m.batch,
        seq: m.seq,
        hidden: m.hidden,
        heads: m.heads,
        vocab: m.vocab,
        layers: m.layers,
        causal: m.causal,
        checkpoint: true,
        fused_attention: false,
    }
}

fn data() -> (Vec<usize>, Vec<usize>) {
    let m = model();
    let mut rng = Rng::new(17);
    let n = m.tokens();
    (
        (0..n).map(|_| rng.below(m.vocab)).collect(),
        (0..n).map(|_| rng.below(m.vocab)).collect(),
    )
}

const LR: f32 = 0.05;

/// Runs a warm-up step, then a second step, on the calling device thread;
/// returns the large allocations the second step made. `between` runs
/// between the two (the CommLog is taken there).
fn second_step_allocs(mut step: impl FnMut(), between: impl FnOnce()) -> usize {
    step();
    assert_held_within_peak();
    between();
    let before = large_allocs();
    step();
    let made = large_allocs() - before;
    assert_held_within_peak();
    made
}

fn assert_held_within_peak() {
    let (held, peak) = (recycler::held_bytes(), recycler::peak_live_bytes());
    assert!(
        held <= peak,
        "recycler holds {held} B over its live peak {peak} B"
    );
}

fn assert_none(scheme: &str, per_device: &[usize]) {
    assert!(
        per_device.iter().all(|&n| n == 0),
        "{scheme}: allocations of {LARGE} B or more in the second step, per device: {per_device:?}"
    );
}

#[test]
fn serial_second_step_allocates_nothing_large() {
    let (tokens, labels) = data();
    // A thread of its own, like a device, so the count is this model's.
    let made = std::thread::scope(|s| {
        s.spawn(|| {
            let mut m = SerialModel::new(model(), 3);
            second_step_allocs(
                || {
                    m.train_step(&tokens, &labels, LR);
                },
                || {},
            )
        })
        .join()
        .unwrap()
    });
    assert_none("serial", &[made]);
}

#[test]
fn megatron_second_step_allocates_nothing_large() {
    let (tokens, labels) = data();
    let cfg = MegatronConfig::new(model(), 2).with_checkpoint();
    let made = Mesh::run(2, |ctx| {
        let mut m = MegatronModel::new(cfg, 3, ctx);
        second_step_allocs(
            || {
                m.train_step(ctx, &tokens, &labels, LR);
            },
            || drop(ctx.take_log()),
        )
    });
    assert_none("megatron p=2", &made);
}

#[test]
fn optimus_second_step_allocates_nothing_large() {
    let (tokens, labels) = data();
    let cfg = optimus_cfg(2);
    let made = Mesh2d::run(2, |g| {
        let mut m = OptimusModel::new(&cfg, 3, g);
        second_step_allocs(
            || {
                m.train_step(g, &tokens, &labels, LR);
            },
            || drop(g.ctx().take_log()),
        )
    });
    assert_none("optimus [2,2]", &made);
}

#[test]
fn hybrid_second_step_allocates_nothing_large() {
    let (tokens, labels) = data();
    let spec = HybridSpec {
        pp: 2,
        dp: 2,
        grid: [2, 2, 1],
        microbatches: 2,
    };
    let cfg = optimus_cfg(2);
    let made = Mesh::run(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, 3);
        second_step_allocs(
            || {
                st.train_step(&grid, &tokens, &labels, LR);
            },
            || drop(ctx.take_log()),
        )
    });
    assert_none("hybrid pp2 dp2 [2,2]", &made);
}
