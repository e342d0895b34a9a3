//! A simulated device is exactly one OS thread: under the mesh every
//! `tensor::pool` call runs its tasks on the device thread that made it, in
//! this process's global pool no job is ever shared with a worker, the
//! calls are still counted (as inline jobs), and (on Linux) no thread of
//! the process runs a device's posted collectives for it.
//!
//! One test, alone in its file: `pool().job_counts()` is process-wide, and a
//! test binary of its own is the only way to keep other tests' kernels out of
//! the counts.

use optimus::mesh::Mesh2d;
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::summa::{distribute, summa_nn, summa_nt, summa_tn};
use optimus::tensor::gemm::MC;
use optimus::tensor::pool::{self, pool};
use optimus::tensor::{Rng, Tensor};
use std::sync::Mutex;
use std::thread::{self, ThreadId};

#[test]
fn device_threads_never_share_a_pool_job() {
    let q = 2;
    // Local output blocks of MC + 4 rows: every product is two slabs, which
    // a non-device caller with a spare worker would share.
    let (m, k, n) = (q * (MC + 4), q * 40, q * 48);
    let mut rng = Rng::new(23);
    let mut operand = |rows, cols| Tensor::randn(&[rows, cols], 1.0, &mut rng);
    let (a_nn, b_nn) = (operand(m, k), operand(k, n));
    let (a_nt, b_nt) = (operand(m, k), operand(n, k));
    let (a_tn, b_tn) = (operand(k, m), operand(k, n));

    // b·s/q = 128 > MC rows per device, so the model's GEMMs and row-block
    // kernels are multi-task as well.
    let cfg = OptimusConfig {
        q,
        batch: 4,
        seq: 64,
        hidden: 64,
        heads: 4,
        vocab: 64,
        layers: 1,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    let tokens: Vec<usize> = (0..cfg.batch * cfg.seq).map(|i| i % cfg.vocab).collect();
    let labels: Vec<usize> = tokens.iter().map(|t| (t + 1) % cfg.vocab).collect();

    let (shared_before, inline_before) = pool().job_counts();
    let losses = Mesh2d::run(q, |g| {
        let c = summa_nn(g, &distribute(g, &a_nn), &distribute(g, &b_nn));
        assert_eq!(c.rows(), MC + 4);
        summa_nt(g, &distribute(g, &a_nt), &distribute(g, &b_nt));
        summa_tn(g, &distribute(g, &a_tn), &distribute(g, &b_tn));
        let loss = OptimusModel::new(&cfg, 5, g).train_step(g, &tokens, &labels, 0.1);
        // The products above posted panel broadcasts and reduces; no
        // helper thread was started to run them.
        #[cfg(target_os = "linux")]
        for task in std::fs::read_dir("/proc/self/task").unwrap() {
            let comm = std::fs::read_to_string(task.unwrap().path().join("comm"));
            let name = comm.unwrap_or_default();
            assert!(
                !name.starts_with("mesh-progress"),
                "a second thread ({}) serves a device",
                name.trim_end()
            );
        }

        let ran_on: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        pool::parallel_for(64, |i| {
            ran_on.lock().unwrap().push((i, thread::current().id()));
        });
        let (order, threads): (Vec<_>, Vec<_>) = ran_on.into_inner().unwrap().into_iter().unzip();
        assert_eq!(
            order,
            (0..64).collect::<Vec<_>>(),
            "tasks run in index order"
        );
        let me = thread::current().id();
        assert!(
            threads.iter().all(|&t| t == me),
            "a task of a device's job ran on another thread"
        );
        loss
    });
    assert!(losses.iter().all(|l| l.is_finite()));

    let (shared_after, inline_after) = pool().job_counts();
    assert_eq!(
        shared_after, shared_before,
        "a device thread handed a job to a pool worker"
    );
    // At least the three products and the 64-task job on each of 4 devices.
    assert!(
        inline_after >= inline_before + 16,
        "device jobs must still be counted as inline jobs ({inline_before} -> {inline_after})"
    );
}
