//! Compact scaling report: regenerates the paper's weak/strong scaling
//! results (Tables 2–3, Fig. 7) from the calibrated cost model and prints
//! the headline comparisons.
//!
//! ```text
//! cargo run --release --example scaling_report
//! ```
//!
//! For the full side-by-side tables with the paper's numbers, run
//! `cargo run --release -p bench --bin optimus-cli -- repro all`.

use optimus::perf::scaling::{strong_scaling, weak_scaling};
use optimus::perf::HardwareProfile;

fn main() {
    let profile = HardwareProfile::frontera_rtx5000();
    println!(
        "hardware profile: {} (see EXPERIMENTS.md for calibration)\n",
        profile.name
    );

    println!("== weak scaling (h ∝ q, per-device parameters fixed) ==");
    let (meg, opt) = weak_scaling(&profile);
    println!("gpus   megatron thr   optimus thr   winner");
    for (m, o) in meg.iter().zip(&opt) {
        println!(
            "{:>4}   {:>12.3}   {:>11.3}   {}",
            m.gpus,
            m.throughput,
            o.throughput,
            if o.throughput > m.throughput {
                "optimus"
            } else {
                "megatron"
            }
        );
    }
    let last = meg.len() - 1;
    println!(
        "\n64-GPU advantage: {:.2}x training, {:.2}x inference (paper: 1.48x / 1.79x)\n",
        opt[last].throughput / meg[last].throughput,
        opt[last].inference / meg[last].inference
    );

    println!("== strong scaling (fixed problem) ==");
    let (meg, opt) = strong_scaling(&profile);
    println!("gpus   megatron thr   optimus thr   meg speedup   opt speedup");
    for (m, o) in meg.iter().zip(&opt) {
        println!(
            "{:>4}   {:>12.3}   {:>11.3}   {:>11.2}   {:>11.2}",
            m.gpus, m.throughput, o.throughput, m.speedup, o.speedup
        );
    }
    assert!(
        opt[3].throughput > meg[3].throughput,
        "crossover by 64 GPUs"
    );
}
