//! Failure behaviour: device crashes must not hang the mesh, and invalid
//! configurations must be rejected loudly rather than corrupting results.

use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{Communicator, Group, Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::ModelConfig;

#[test]
#[should_panic]
fn crashing_device_unblocks_collective_peers() {
    // Device 2 dies mid-collective; the others are blocked in the same
    // broadcast and must panic on disconnect instead of deadlocking.
    Mesh::run(4, |ctx| {
        if ctx.rank() == 2 {
            panic!("injected failure");
        }
        let g = Group::world(4);
        let mut data = if ctx.rank() == 0 {
            vec![1.0; 8]
        } else {
            vec![]
        };
        ctx.broadcast(&g, 0, &mut data);
        data
    });
}

#[test]
#[should_panic]
fn crashing_device_unblocks_ring_peers() {
    Mesh::run(4, |ctx| {
        if ctx.rank() == 1 {
            panic!("injected failure");
        }
        let g = Group::world(4);
        let mut data = vec![1.0f32; 64];
        ctx.all_reduce(&g, &mut data);
        data
    });
}

#[test]
fn unwaited_posts_still_feed_their_peers() {
    // Rank 0 roots the broadcast and is a plain member of the reduce, and
    // drops both handles; rank 1 drops its reduce handle. Their transfers
    // must still run, so every peer that waits gets the blocking bits.
    let (g, bcast_root, reduce_root) = (Group::world(4), 0, 3);
    let payload = |rank: usize| -> Vec<f32> {
        (0..7)
            .map(|i| (0.1 + rank as f32 * 1e-3).powi(i % 3 + 1))
            .collect()
    };
    let staged = |rank: usize| {
        if rank == bcast_root {
            payload(9)
        } else {
            vec![0.0; 7]
        }
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let blocking = Mesh::run(4, |ctx| {
        let mut b = staged(ctx.rank());
        ctx.broadcast(&g, bcast_root, &mut b);
        let mut r = payload(ctx.rank());
        ctx.reduce(&g, reduce_root, &mut r);
        (bits(&b), bits(&r))
    });
    let posted = Mesh::run(4, |ctx| {
        let b = ctx.ibroadcast(&g, bcast_root, staged(ctx.rank()));
        let r = ctx.ireduce(&g, reduce_root, payload(ctx.rank()));
        match ctx.rank() {
            0 => (None, None),
            1 => (Some(bits(&b.wait())), None),
            _ => (Some(bits(&b.wait())), Some(bits(&r.wait()))),
        }
    });
    for (rank, (b, r)) in posted.iter().enumerate().skip(1) {
        assert_eq!(b.as_ref(), Some(&blocking[rank].0), "broadcast at {rank}");
        if let Some(r) = r {
            assert_eq!(r, &blocking[rank].1, "reduce at {rank}");
        }
    }
    assert!(posted[reduce_root].1.is_some(), "the reduce root waits");
}

#[test]
#[should_panic] // device thread dies with "not in group"
fn collective_on_foreign_group_is_rejected() {
    Mesh::run(3, |ctx| {
        // Rank 2 is not a member of {0, 1} but calls the collective anyway.
        let g = Group::new(vec![0, 1]);
        if ctx.rank() == 2 {
            let mut data = vec![0.0f32; 4];
            ctx.all_reduce(&g, &mut data);
        }
    });
}

#[test]
#[should_panic(expected = "divisible")]
fn megatron_rejects_indivisible_heads() {
    let cfg = ModelConfig {
        heads: 3,
        ..ModelConfig::tiny()
    };
    MegatronConfig::new(cfg, 2);
}

#[test]
#[should_panic(expected = "divisible")]
fn optimus_rejects_indivisible_batch() {
    let mut cfg = OptimusConfig::tiny(2);
    cfg.batch = 3;
    cfg.validate();
}

#[test]
#[should_panic] // device threads die with "out of vocab"
fn out_of_range_token_is_rejected() {
    let cfg = OptimusConfig::tiny(2);
    let mut tokens = vec![0usize; cfg.batch * cfg.seq];
    tokens[0] = cfg.vocab; // invalid
    let labels = vec![0usize; cfg.batch * cfg.seq];
    Mesh2d::run(cfg.q, |g| {
        let model = OptimusModel::new(&cfg, 0, g);
        model.lm_loss(g, &tokens, &labels)
    });
}

/// An id equal to `vocab` belongs to no device's vocabulary slice: a
/// distributed lookup or label pick-out that skips ids it does not own
/// would train on it silently.
fn megatron_grads_with_bad_id(bad_token: bool) {
    let model = ModelConfig::tiny();
    let cfg = MegatronConfig::new(model, 2);
    let mut tokens = vec![0usize; model.tokens()];
    let mut labels = vec![0usize; model.tokens()];
    *if bad_token { &mut tokens } else { &mut labels }
        .last_mut()
        .unwrap() = model.vocab;
    Mesh::run(cfg.p, |ctx| {
        MegatronModel::new(cfg, 0, ctx)
            .lm_grads(ctx, &tokens, &labels)
            .0
    });
}

#[test]
#[should_panic] // device threads die with "token 12 out of vocab 12"
fn megatron_rejects_out_of_range_token() {
    megatron_grads_with_bad_id(true);
}

#[test]
#[should_panic] // device threads die with "label 12 out of vocab 12"
fn megatron_rejects_out_of_range_label() {
    megatron_grads_with_bad_id(false);
}

#[test]
#[should_panic] // device threads die with "label 12 out of vocab 12"
fn out_of_range_label_is_rejected() {
    let cfg = OptimusConfig::tiny(2);
    let tokens = vec![0usize; cfg.batch * cfg.seq];
    let mut labels = vec![0usize; cfg.batch * cfg.seq];
    labels[0] = cfg.vocab; // invalid
    Mesh2d::run(cfg.q, |g| {
        let model = OptimusModel::new(&cfg, 0, g);
        model.lm_loss(g, &tokens, &labels)
    });
}

#[test]
#[should_panic] // device threads die with "expected the full b*s token array"
fn short_token_array_is_rejected() {
    let cfg = OptimusConfig::tiny(2);
    let tokens = vec![0usize; 3]; // wrong length
    let labels = vec![0usize; cfg.batch * cfg.seq];
    Mesh2d::run(cfg.q, |g| {
        let model = OptimusModel::new(&cfg, 0, g);
        model.lm_loss(g, &tokens, &labels)
    });
}

#[test]
#[should_panic] // device threads die with "grid side must equal cfg.q"
fn model_rejects_wrong_mesh_size() {
    let cfg = OptimusConfig::tiny(2);
    Mesh2d::run(3, |g| {
        OptimusModel::new(&cfg, 0, g);
    });
}

#[test]
fn mesh_survives_sequential_failure_and_reuse() {
    // A failed mesh run must not poison subsequent runs (fresh fabric each
    // time).
    let result = std::panic::catch_unwind(|| {
        Mesh::run(2, |ctx| {
            if ctx.rank() == 0 {
                panic!("first run dies");
            }
            ctx.rank()
        })
    });
    assert!(result.is_err());
    let ok = Mesh::run(2, |ctx| ctx.rank());
    assert_eq!(ok, vec![0, 1]);
}
