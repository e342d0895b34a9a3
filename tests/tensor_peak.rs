//! The tensor memory a checkpointed step peaks at, pinned. Keeping the top
//! layer's cache through the loss head instead of recomputing it must not
//! raise the step's peak: the head's tensors sit beside `L − 1` kept inputs
//! and one cache, while the backward sweep's peak holds the parameter
//! blocks, the kept inputs, one layer's cache and that layer's gradients in
//! flight. Building the model draws only this device's blocks, so the
//! build stays below the step (`tests/build_peak.rs`).
//!
//! Alone in its test binary: the `metrics` sink is process-global, so a live
//! mesh of any concurrently running test would land in this test's
//! `drain()`.

use optimus::mesh::Mesh2d;
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::tensor::Rng;

#[test]
fn a_checkpointed_four_layer_2d_step_peaks_where_it_did_when_every_layer_was_recomputed() {
    let cfg = OptimusConfig {
        q: 2,
        batch: 4,
        seq: 8,
        hidden: 16,
        heads: 4,
        vocab: 32,
        layers: 4,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    let mut rng = Rng::new(3);
    let n = cfg.batch * cfg.seq;
    let tokens: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();

    metrics::enable();
    let pinned = Mesh2d::run(cfg.q, |g| {
        let mut m = OptimusModel::new(&cfg, 1, g);
        m.train_step_detailed(g, &tokens, &labels, 0.1)
            .peak_activation_bytes
    });
    metrics::disable();
    let tracked: Vec<u64> = metrics::drain().iter().map(|d| d.peak_bytes).collect();

    // The live-tensor tracker behind the step benchmark's `peak_mem_mib`
    // peaks in a layer's backward: the 12 800 bytes of parameter blocks the
    // device keeps, the kept inputs and the backward sweep's transients. SGD
    // applies and drops each layer's weight gradients as soon as its
    // backward is done, so no gradient of a layer above is live there and
    // the peak is in the top layer's backward, beside all three kept
    // 512-byte inputs. That layer's cache holds none of the four left
    // operands whose row strips it kept — `ln1_out`, `ctxt`, `ln2_out`
    // (`[bs/q, h/q]`, 512 bytes each) and `g` (four such blocks) — so the
    // peak is 36 864 − 7·512 = 33 280, where it read 36 864 while the cache
    // held them too. A step that collected its gradients would peak in the
    // bottom layer's backward instead, one input live and the weight
    // gradients of three layers (3 072 bytes each) held: 33 280 − 3·512 +
    // 3·3 072 = 40 960. (It read 64 000 while a device built the whole
    // model — 51 200 bytes — before cutting its blocks from it.)
    assert_eq!(tracked, vec![36_864 - 7 * 512; 4]);
    assert!(tracked.iter().all(|&b| b <= 36_864));
    // The meter counts only what the sweeps and the head pin, not those
    // transients. Its peak moves from the backward sweep (`L` inputs and a
    // recomputed cache) to the loss head (`L − 1` inputs, the top cache, the
    // final hidden block and `dlogits`): one `[bs/q, v/q]` block above the
    // 12 480 bytes it read then. The meter counts no strip, so at both
    // places the cache it counts is seven 512-byte blocks smaller than when
    // it held the operands its row strips carry.
    let dlogits = 4 * (n / cfg.q) * (cfg.vocab / cfg.q);
    assert_eq!(pinned, vec![12_480 - 7 * 512 + dlogits; 4]);
}
