//! Property-style tests over the performance/memory models: the
//! monotonicity and consistency properties that make the table generators
//! trustworthy. Cases come from the workspace's seeded PRNG (deterministic).

use optimus::mesh::{Arrangement, Topology};
use optimus::perf::memory::{megatron_bytes, optimus_bytes, MemoryConfig};
use optimus::perf::scaling::{megatron_stem_times, optimus25d_stem_times};
use optimus::perf::table1::{layer_macs, megatron_layer_costs, optimus_layer_costs};
use optimus::perf::{CostModel, HardwareProfile};
use optimus::tensor::Rng;

fn profile() -> HardwareProfile {
    HardwareProfile::frontera_rtx5000()
}

#[test]
fn collective_costs_are_monotone_in_payload() {
    let mut case = Rng::new(0x9E01);
    for _ in 0..32 {
        let g = 2 + case.below(14);
        let elems = 1 + case.below(1_000_000);
        let cm = CostModel::new(profile(), Topology::flat(16, 4));
        let ranks: Vec<usize> = (0..g).collect();
        let t1 = cm.broadcast_time(&ranks, elems);
        let t2 = cm.broadcast_time(&ranks, elems * 2);
        assert!(t2 >= t1, "g={g} elems={elems}");
        let a1 = cm.all_reduce_time(&ranks, elems);
        let a2 = cm.all_reduce_time(&ranks, elems * 2);
        assert!(a2 >= a1, "g={g} elems={elems}");
        assert!(t1 > 0.0 && a1 > 0.0);
    }
}

#[test]
fn intra_node_groups_are_never_slower_than_spanning_ones() {
    let mut case = Rng::new(0x9E02);
    for _ in 0..32 {
        let elems = 1 + case.below(1_000_000);
        let cm = CostModel::new(profile(), Topology::flat(8, 4));
        let intra: Vec<usize> = (0..4).collect(); // one node
        let spanning: Vec<usize> = (2..6).collect(); // two nodes
        assert!(
            cm.broadcast_time(&intra, elems) <= cm.broadcast_time(&spanning, elems),
            "elems={elems}"
        );
    }
}

#[test]
fn table1_costs_scale_linearly_in_batch() {
    let mut case = Rng::new(0x9E03);
    for _ in 0..32 {
        let b = 1 + case.below(63);
        let h = (1 + case.below(31)) * 64;
        let p = [4usize, 16, 64][case.below(3)];
        let s = 128;
        let m1 = megatron_layer_costs(b, s, h, p);
        let m2 = megatron_layer_costs(2 * b, s, h, p);
        assert!((m2.fwd_comm / m1.fwd_comm - 2.0).abs() < 1e-9);
        assert!((m2.fwd_macs / m1.fwd_macs - 2.0).abs() < 1e-9);
        // Optimus comm has a batch-independent h² term, so it grows
        // sublinearly in b.
        let o1 = optimus_layer_costs(b, s, h, p);
        let o2 = optimus_layer_costs(2 * b, s, h, p);
        assert!(o2.fwd_comm < 2.0 * o1.fwd_comm + 1e-9);
        assert!(o2.fwd_comm > o1.fwd_comm);
    }
}

#[test]
fn stem_times_exceed_pure_compute() {
    let mut case = Rng::new(0x9E04);
    for _ in 0..16 {
        let b = 1 + case.below(31);
        let hq = 1 + case.below(7);
        let q = [2usize, 4, 8][case.below(3)];
        let h = 128 * hq * q; // keep divisibility
        let s = 128;
        let layers = 4;
        let gpus = q * q;
        let cm = CostModel::new(profile(), Topology::flat(gpus, 4.min(gpus)));
        let cm2 = CostModel::new(
            profile(),
            Topology::new(q, 4.min(gpus), Arrangement::Bunched),
        );
        let compute = layers as f64 * cm.compute_time(layer_macs(b, s, h) / gpus as f64);
        let (mf, mb_) = megatron_stem_times(&cm, b, s, h, layers, gpus);
        assert!(mf >= compute);
        assert!(mb_ >= 3.0 * compute);
        let (of, ob) = optimus25d_stem_times(&cm2, b, s, h, layers, q, 1);
        assert!(of >= compute);
        assert!(ob >= 3.0 * compute);
    }
}

#[test]
fn memory_models_are_monotone_and_positive() {
    let mut case = Rng::new(0x9E05);
    for _ in 0..32 {
        let b = 1 + case.below(255);
        let h = (1 + case.below(15)) * 512;
        let p = [4usize, 16, 64][case.below(3)];
        let c = MemoryConfig {
            seq: 512,
            hidden: h,
            heads: 16,
            vocab: 32_000,
            layers: 24,
            p,
        };
        let m = megatron_bytes(&c, b);
        let o = optimus_bytes(&c, b);
        assert!(m.total > 0.0 && o.total > 0.0);
        assert!(megatron_bytes(&c, b + 1).total > m.total);
        assert!(optimus_bytes(&c, b + 1).total > o.total);
        // Optimus never needs more memory than Megatron at equal batch.
        assert!(o.total <= m.total + 1.0, "b={b} h={h} p={p}");
    }
}

#[test]
fn topology_placements_are_complete_partitions() {
    for q in [2usize, 4, 6, 8] {
        for gpn in [1usize, 2, 4] {
            if (q * q) % gpn != 0 {
                continue;
            }
            for arr in [Arrangement::Naive, Arrangement::Bunched] {
                let t = Topology::new(q, gpn, arr);
                assert_eq!(t.num_devices(), q * q);
                // Every node hosts exactly gpus_per_node devices.
                let mut counts = vec![0usize; t.num_nodes()];
                for r in 0..q * q {
                    counts[t.node_of(r)] += 1;
                }
                assert!(counts.iter().all(|&c| c == gpn), "{arr:?}: {counts:?}");
            }
        }
    }
}
