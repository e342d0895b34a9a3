//! Failure behaviour: device crashes must not hang the mesh, and invalid
//! configurations must be rejected loudly rather than corrupting results.

use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{Group, Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, SerialModel};
use optimus::tensor::Tensor;

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

/// `apply_sgd` takes caller-supplied gradients: ones of a shallower model
/// must not silently update a prefix of the layers.
#[test]
#[should_panic(expected = "a stem of 2 layers given gradients of 1")]
fn sgd_rejects_gradients_of_fewer_layers() {
    let cfg = ModelConfig::tiny();
    assert_eq!(cfg.layers, 2);
    let shallow = SerialModel::new(ModelConfig { layers: 1, ..cfg }, 0);
    let tokens = vec![0usize; cfg.tokens()];
    let (_, grads) = shallow.lm_grads(&tokens, &tokens);
    SerialModel::new(cfg, 0).apply_sgd(&grads, 0.1);
}

/// Nor may a gradient tensor of the wrong length update a prefix of its
/// parameter.
#[test]
#[should_panic] // device threads die with "assertion `left == right` failed"
fn sgd_rejects_a_shortened_gradient_tensor() {
    let cfg = OptimusConfig::tiny(2);
    let tokens = vec![0usize; cfg.batch * cfg.seq];
    Mesh2d::run(cfg.q, |g| {
        let mut model = OptimusModel::new(&cfg, 0, g);
        let (_, mut grads) = model.lm_grads(g, &tokens, &tokens);
        let w = &mut grads.layers[1].w_fc2;
        *w = Tensor::from_vec(&[1, w.cols()], w.row(0).to_vec());
        model.apply_sgd(&grads, 0.1);
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
