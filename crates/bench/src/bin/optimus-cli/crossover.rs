//! `crossover`: the projected 1D-vs-2D-vs-2.5D table on 512–4096 devices.

use crate::{calibrated_profile, Args};

/// Prints the projected 1D-vs-2D-vs-2.5D table on 512–4096 devices (the
/// Tesseract claim), plus the full d-sweep behind each winning grid.
pub fn crossover(a: &Args) {
    let profile = calibrated_profile(a);
    let pts = perf::projection::crossover_projection(&profile);
    println!(
        "projected training throughput (seq/s), profile={}, weak-scaling sizes:",
        profile.name
    );
    println!(
        "{:>8} {:>8} {:>7} {:>12} {:>14} {:>16} {:>9}",
        "devices", "hidden", "batch", "1D megatron", "2D optimus", "2.5D tesseract", "2.5D/2D"
    );
    for p in &pts {
        println!(
            "{:>8} {:>8} {:>7} {:>12.3} {:>10.3} {q2}x{q2} {:>10.3} {q}x{q}x{d} {:>9.2}",
            p.devices,
            p.hidden,
            p.batch,
            p.megatron_throughput,
            p.optimus2d_throughput,
            p.optimus25d_throughput,
            p.optimus25d_throughput / p.optimus2d_throughput,
            q2 = p.optimus2d_q,
            q = p.best_q,
            d = p.best_d,
        );
    }
    println!("d-sweep (every admissible [q, q, d] grid):");
    for p in &pts {
        let entries: Vec<String> = p
            .depth_sweep
            .iter()
            .map(|e| format!("{}x{}x{} -> {:.3}", e.q, e.q, e.d, e.throughput))
            .collect();
        println!("  {:>5} devices: {}", p.devices, entries.join(", "));
    }
}
