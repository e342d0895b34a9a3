//! Collective-algorithm bandwidth sweep: every algorithm on every
//! collective's menu, timed on the live thread mesh across message sizes,
//! written as `BENCH_coll.json` so `regress-check compare` can gate a fresh
//! run against the committed baseline.
//!
//! ```text
//! coll-bench [--devices 8] [--reps 24] [--smoke] [--out BENCH_coll.json]
//! ```
//!
//! * `--devices` — world size of the measurement mesh (default 8).
//! * `--reps`    — repetition budget per cell, scaled down for big payloads.
//! * `--smoke`   — CI mode: two sizes instead of four, fewer reps, and the
//!   artifact carries `"smoke": true` so a comparison against a full
//!   baseline is flagged (the honesty rule every bench binary follows).
//! * `--out`     — output path (default `BENCH_coll.json`).
//!
//! The artifact's `results` array holds one row per `(op, algorithm, size)`
//! cell, with seconds-per-call and payload GB/s (higher is better, gated);
//! `coll_winners` holds the per-`(op, size)` measured winner with its
//! speedup over the op's built-in default algorithm — the headline numbers
//! that justify the tuned selection table, which `optimus-cli tune-coll
//! --bench PATH` derives from this artifact with the same winner selection.
//! A `host` stamp (threads, AVX2, git rev) qualifies cross-machine
//! comparisons.

use bench::coll::{
    measure_coll, read_artifact, reps_for, winner, CollSample, TUNE_ELEMS, TUNE_OPS,
};
use mesh::{CollAlgo, CommOp};
use minjson::Json;

struct Winner {
    op: CommOp,
    elems: usize,
    algo: CollAlgo,
    gbps: f64,
    speedup_vs_default: f64,
}

fn main() {
    let mut devices = 8usize;
    let mut base_reps = 24usize;
    let mut smoke = false;
    let mut out = "BENCH_coll.json".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--devices" => devices = it.next().and_then(|v| v.parse().ok()).expect("--devices N"),
            "--reps" => base_reps = it.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out PATH").clone(),
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: coll-bench [--devices 8] [--reps 24] [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    assert!(devices >= 2, "--devices must be at least 2");
    let sizes: &[usize] = if smoke { &TUNE_ELEMS[..2] } else { &TUNE_ELEMS };
    if smoke {
        base_reps = base_reps.min(8);
    }
    let trials = 3;
    println!(
        "coll-bench: {devices}-device live mesh, sizes {sizes:?} f32 elems, reps<= {base_reps}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut samples: Vec<CollSample> = Vec::new();
    let mut winners: Vec<Winner> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    for op in TUNE_OPS {
        for &elems in sizes {
            if matches!(op, CommOp::AllGather | CommOp::ReduceScatter) && elems % devices != 0 {
                continue; // both split the payload `devices` ways
            }
            let cell: Vec<CollSample> = CollAlgo::menu(op)
                .iter()
                .map(|&algo| {
                    measure_coll(op, algo, devices, elems, reps_for(base_reps, elems), trials)
                })
                .collect();
            let best = winner(&cell);
            let default = cell
                .iter()
                .find(|s| s.algo == CollAlgo::default_for(op))
                .expect("default algorithm is always on the menu");
            winners.push(Winner {
                op,
                elems,
                algo: best.algo,
                gbps: best.gbps(),
                speedup_vs_default: default.secs / best.secs,
            });
            for s in &cell {
                table.push(vec![
                    op.name().to_string(),
                    elems.to_string(),
                    s.algo.name().to_string(),
                    format!("{:.1}", s.secs * 1e6),
                    format!("{:.3}", s.gbps()),
                    if s.algo == best.algo {
                        "<-- winner".into()
                    } else {
                        String::new()
                    },
                ]);
            }
            samples.extend(cell);
        }
    }
    println!(
        "{}",
        bench::render_table(&["op", "elems", "algo", "us/call", "GB/s", ""], &table)
    );
    for w in &winners {
        println!(
            "{:>13} @ {:>6} elems: {} wins at {:.3} GB/s ({:.2}x vs default {})",
            w.op.name(),
            w.elems,
            w.algo.name(),
            w.gbps,
            w.speedup_vs_default,
            CollAlgo::default_for(w.op).name(),
        );
    }

    let doc = Json::obj(vec![
        ("devices", Json::Num(devices as f64)),
        ("host", bench::host_stamp()),
        ("smoke", Json::Bool(smoke)),
        (
            "results",
            Json::Arr(
                samples
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("op", Json::Str(s.op.name().to_string())),
                            ("algo", Json::Str(s.algo.name().to_string())),
                            ("elems", Json::Num(s.elems as f64)),
                            ("secs", Json::Num(s.secs)),
                            ("gbps", Json::Num(s.gbps())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "coll_winners",
            Json::Arr(
                winners
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("op", Json::Str(w.op.name().to_string())),
                            ("elems", Json::Num(w.elems as f64)),
                            ("algo", Json::Str(w.algo.name().to_string())),
                            ("gbps", Json::Num(w.gbps)),
                            ("speedup_vs_default", Json::Num(w.speedup_vs_default)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out, doc.to_string()).expect("write BENCH_coll.json");
    println!("wrote {out}");

    if smoke {
        // Self-check: the artifact reads back the way `tune-coll` reads it —
        // every row a tuned collective on its menu with a positive time,
        // hence a positive bandwidth.
        match read_artifact(&out) {
            Ok((_, cells)) => println!("smoke checks passed ({} cells read back)", cells.len()),
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
}
