//! `tune-coll`: the collective selection table a `coll-bench` artifact
//! implies, persisted where every other command loads it.

use crate::{calibrated_profile, Args};
use bench::coll::CollSample;
use mesh::{AlgoRule, AlgoTable, CollAlgo, Topology};
use perf::colltune::COLL_TUNE_PATH;
use perf::{CollTune, CostModel};
use std::collections::HashMap;

/// Byte-range boundaries for the tuned rules: cell `i` of the sweep grid
/// owns `[lo, hi]` bytes where the split between adjacent measured sizes is
/// their geometric midpoint (sizes are log-spaced, so the midpoint in log
/// space is the natural crossover estimate), the first cell reaches down to
/// zero and the last up to `usize::MAX`.
fn cell_bounds(sizes: &[usize], i: usize) -> (usize, usize) {
    let mid = |a: usize, b: usize| (((a * 4) as f64 * (b * 4) as f64).sqrt()) as usize;
    let lo = if i == 0 {
        0
    } else {
        mid(sizes[i - 1], sizes[i]) + 1
    };
    let hi = if i + 1 == sizes.len() {
        usize::MAX
    } else {
        mid(sizes[i], sizes[i + 1])
    };
    (lo, hi)
}

/// The selection table a `coll-bench` sweep implies, with its evidence.
#[derive(Default)]
struct CollTuneTable {
    /// Per cell: op, size, time per algorithm, measured and modeled winner.
    rows: Vec<Vec<String>>,
    /// A byte-range rule for every cell whose measured winner is not the
    /// op's built-in default.
    rules: Vec<AlgoRule>,
    /// Cells where the α-β model picks the measured winner.
    agree: usize,
}

/// Derives the selection table from the cells of a `coll-bench` sweep on
/// `p` devices: per `(op, size)` cell the measured winner
/// ([`bench::coll::winner`], coll-bench's own selection), a rule where it is
/// not the default, and beside it the winner `cost` models.
fn derive_coll_tune(cost: &CostModel, p: usize, cells: &[Vec<CollSample>]) -> CollTuneTable {
    let ranks: Vec<usize> = (0..p).collect();
    let mut t = CollTuneTable::default();
    for op in bench::coll::TUNE_OPS {
        let mut op_cells: Vec<&Vec<CollSample>> = cells.iter().filter(|c| c[0].op == op).collect();
        op_cells.sort_by_key(|c| c[0].elems);
        // What the selection tables and the cost model key each cell on.
        let keyed: Vec<usize> = (op_cells.iter())
            .map(|c| bench::coll::select_elems(op, p, c[0].elems))
            .collect();
        for (i, cell) in op_cells.into_iter().enumerate() {
            let measured = bench::coll::winner(cell).algo;
            let price = |algo| cost.coll_time(op, algo, &ranks, keyed[i]);
            let modeled = *CollAlgo::menu(op)
                .iter()
                .min_by(|&&x, &&y| price(x).total_cmp(&price(y)))
                .expect("non-empty menu");
            t.agree += usize::from(measured == modeled);
            t.rows.push(vec![
                op.name().to_string(),
                cell[0].elems.to_string(),
                (cell.iter())
                    .map(|s| format!("{} {:.1}us", s.algo.name(), s.secs * 1e6))
                    .collect::<Vec<_>>()
                    .join("  "),
                measured.name().to_string(),
                modeled.name().to_string(),
            ]);
            if measured != CollAlgo::default_for(op) {
                let (min_bytes, max_bytes) = cell_bounds(&keyed, i);
                t.rules.push(AlgoRule {
                    op,
                    min_group: 2,
                    max_group: usize::MAX,
                    min_bytes,
                    max_bytes,
                    algo: measured,
                });
            }
        }
    }
    t
}

/// The `tune-coll` command: derives the selection table of measured winners
/// from a `coll-bench` artifact (`--bench`, default `BENCH_coll.json`; the
/// mesh size is the artifact's `devices`), prints the measured-vs-modeled
/// winner per cell, and persists the table where every entry point loads it
/// from.
pub fn tune_coll_cmd(a: &Args, flags: &HashMap<String, String>) -> Result<(), String> {
    if a.devices.is_some() {
        return Err(
            "tune-coll takes the device count from the artifact's `devices` field; drop --devices"
                .to_string(),
        );
    }
    let path = flags
        .get("bench")
        .map(String::as_str)
        .unwrap_or("BENCH_coll.json");
    let (p, cells) = bench::coll::read_artifact(path)?;
    let profile = calibrated_profile(a);
    let cost = CostModel::new(
        profile.clone(),
        Topology::flat(p, profile.gpus_per_node.min(p)),
    );
    println!(
        "tune-coll: {} cells measured on {p} devices, from {path}",
        cells.len()
    );
    let t = derive_coll_tune(&cost, p, &cells);
    println!(
        "{}",
        bench::render_table(
            &["op", "elems", "measured per algorithm", "winner", "modeled"],
            &t.rows
        )
    );
    println!(
        "α-β model picks the measured winner in {}/{} cells",
        t.agree,
        t.rows.len()
    );
    println!(
        "{} rule(s): one per cell whose measured winner is not the built-in default",
        t.rules.len()
    );
    let tune = CollTune {
        source: format!("tune-coll from {path}, p={p} ({} cells)", t.rows.len()),
        algo: AlgoTable { rules: t.rules },
    };
    let out = flags
        .get("save")
        .map(String::as_str)
        .unwrap_or(COLL_TUNE_PATH);
    tune.save(out).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote tuned table to {out} — every CLI entry point now loads it");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::CommOp;
    use perf::HardwareProfile;

    #[test]
    fn tune_table_derives_from_a_coll_bench_artifact() {
        let dir = std::env::temp_dir().join("optimus-cli-tune-coll-test");
        std::fs::create_dir_all(&dir).unwrap();
        let read = |head: &str, rows: &[&str]| {
            let path = dir.join("BENCH_coll.json").to_str().unwrap().to_string();
            let text = format!(r#"{{{head} "results": [{}]}}"#, rows.join(","));
            std::fs::write(&path, text).unwrap();
            bench::coll::read_artifact(&path).map_err(|e| (path, e))
        };
        let rows = [
            r#"{"op": "AllReduce", "algo": "ring", "elems": 1024, "secs": 9e-6}"#,
            r#"{"op": "AllReduce", "algo": "halving", "elems": 1024, "secs": 8e-6}"#,
            r#"{"op": "AllReduce", "algo": "tree", "elems": 1024, "secs": 7e-6}"#,
            r#"{"op": "Broadcast", "algo": "tree", "elems": 64, "secs": 4e-6}"#,
            r#"{"op": "Broadcast", "algo": "chain", "elems": 64, "secs": 2e-6}"#,
            r#"{"op": "Broadcast", "algo": "tree", "elems": 1024, "secs": 1e-5}"#,
            r#"{"op": "Broadcast", "algo": "chain", "elems": 1024, "secs": 3e-5}"#,
        ];
        let (p, cells) = read(r#""devices": 4,"#, &rows).unwrap();
        let cost = CostModel::new(HardwareProfile::frontera_rtx5000(), Topology::flat(4, 4));
        let t = derive_coll_tune(&cost, p, &cells);
        // A rule per cell whose winner is not the default, in op order: chain
        // for the small broadcast only (up to the geometric midpoint of
        // 256 B and 4 KiB), tree for every all-reduce.
        let rules: Vec<_> = (t.rules.iter())
            .map(|r| (r.op, r.min_bytes, r.max_bytes, r.algo))
            .collect();
        assert_eq!(
            rules,
            [
                (CommOp::Broadcast, 0, 1024, CollAlgo::Chain),
                (CommOp::AllReduce, 0, usize::MAX, CollAlgo::Tree),
            ]
        );
        // α-dominated, the model picks the tree broadcast and the halving
        // all-reduce: it agrees with the measurement in one cell of three.
        let picks: Vec<_> = (t.rows.iter()).map(|r| (&*r[3], &*r[4])).collect();
        assert_eq!(
            picks,
            [("chain", "tree"), ("tree", "tree"), ("tree", "halving")]
        );
        assert_eq!(t.agree, 1);

        let missing = bench::coll::read_artifact("/nonexistent/BENCH_coll.json").unwrap_err();
        assert!(
            missing.contains("/nonexistent/BENCH_coll.json"),
            "{missing}"
        );
        let (path, e) = read("", &rows).unwrap_err();
        assert!(e.contains(&path) && e.contains("devices"), "{e}");
        for (row, field) in [
            (
                r#"{"op":"Broadcast","algo":"ring","elems":64,"secs":1}"#,
                "results[1].algo",
            ),
            (
                r#"{"op":"Barrier","algo":"tree","elems":64,"secs":1}"#,
                "results[1].op",
            ),
            (
                r#"{"op":"Reduce","algo":"tree","elems":64,"secs":-1}"#,
                "results[1].secs",
            ),
            (
                r#"{"op":"Reduce","algo":"tree","secs":1}"#,
                "results[1].elems",
            ),
        ] {
            let (path, e) = read(r#""devices": 4,"#, &[rows[0], row]).unwrap_err();
            assert!(e.contains(&path) && e.contains(field), "{field}: {e}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
