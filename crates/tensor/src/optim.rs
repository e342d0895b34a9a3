//! Optimizers operating on flat parameter/gradient slices.
//!
//! Both distributed schemes update each parameter block on exactly one
//! device (Optimus even resets the gradient buffer immediately after the
//! update, method (2) of Section 3.2.3), so optimizers only ever see local
//! slices — the same code drives the serial, 1D and 2D models.

/// Plain (momentum-free) SGD update `p -= lr * g` over a flat slice. Every
/// model's SGD step routes through this (`serial::Optimizer`).
pub fn sgd_update(params: &mut [f32], grads: &[f32], lr: f32) {
    assert_eq!(params.len(), grads.len());
    for (p, g) in params.iter_mut().zip(grads) {
        *p -= lr * g;
    }
}

/// Global gradient-norm clipping, split into the local and global halves so
/// distributed callers can all-reduce the squared norm between them:
///
/// 1. every shard computes [`sq_norm`] of its local gradients;
/// 2. the shards' values are summed (all-reduce in the distributed case);
/// 3. every shard applies [`clip_scale`] with the *global* squared norm.
pub fn sq_norm(grads: &[f32]) -> f64 {
    grads.iter().map(|&g| (g as f64) * (g as f64)).sum()
}

/// The multiplier that caps the global norm at `max_norm` (1.0 if already
/// within bounds).
pub fn clip_scale(global_sq_norm: f64, max_norm: f64) -> f32 {
    let norm = global_sq_norm.sqrt();
    if norm <= max_norm || norm == 0.0 {
        1.0
    } else {
        (max_norm / norm) as f32
    }
}

/// Adam (Kingma & Ba) with bias correction, over one device's share of a
/// model: the step count and the two moments of every parameter the device
/// updates, laid out as its caller lays those parameters out (`serial`'s
/// optimizer: back to back in the canonical walk order). A step updates its
/// parameters at their offsets, in any order.
#[derive(Clone, Debug)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with the usual defaults (`β₁=0.9, β₂=0.999`); its first step
    /// sizes the moments.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Begins a step over `n` parameters: `t` advances once, and the
    /// returned update applies it wherever a gradient is ready.
    ///
    /// # Panics
    /// If `n` is not the first step's.
    pub fn step(&mut self, n: usize) -> AdamStep<'_> {
        if self.t == 0 {
            (self.m, self.v) = (vec![0.0; n], vec![0.0; n]);
        }
        assert_eq!(self.m.len(), n, "Adam state sized for other parameters");
        self.t += 1;
        AdamStep {
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            adam: self,
        }
    }

    /// Total optimizer-state bytes held (two f32 moments per parameter).
    pub fn state_bytes(&self) -> usize {
        (self.m.len() + self.v.len()) * 4
    }
}

/// One [`Adam`] step under way.
pub struct AdamStep<'a> {
    adam: &'a mut Adam,
    bc1: f32,
    bc2: f32,
}

impl AdamStep<'_> {
    /// Updates `params` from `grads`, whose moments start at offset `at`.
    pub fn apply(&mut self, at: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        let Adam {
            lr,
            beta1: b1,
            beta2: b2,
            eps,
            m,
            v,
            ..
        } = &mut *self.adam;
        let (lr, b1, b2, eps, bc1, bc2) = (*lr, *b1, *b2, *eps, self.bc1, self.bc2);
        let at = at..at + params.len();
        for (((p, g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut m[at.clone()])
            .zip(&mut v[at])
        {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_descends_quadratic() {
        // Minimise f(p) = 0.5 p^2 from p = 1.
        let mut p = vec![1.0f32];
        for _ in 0..100 {
            let g = vec![p[0]];
            sgd_update(&mut p, &g, 0.1);
        }
        assert!(p[0].abs() < 1e-3);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut p = vec![5.0f32];
        let mut opt = Adam::new(0.3);
        for _ in 0..200 {
            let g = vec![p[0]];
            opt.step(1).apply(0, &mut p, &g);
        }
        assert!(p[0].abs() < 1e-2, "p={}", p[0]);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction the first step has magnitude ~lr.
        let mut p = vec![0.0f32];
        let mut opt = Adam::new(0.01);
        opt.step(1).apply(0, &mut p, &[3.0]);
        assert!((p[0] + 0.01).abs() < 1e-5, "p={}", p[0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut p = vec![0.0; 2];
        sgd_update(&mut p, &[1.0], 0.1);
    }

    #[test]
    fn one_state_updates_its_parameters_in_any_order() {
        // Two tensors at offsets 0 and 2 of one state, updated last-first,
        // end bitwise where two states of their own leave them.
        let mut one = Adam::new(0.1);
        let (mut a1, mut a2) = (Adam::new(0.1), Adam::new(0.1));
        let mut p_one = (vec![1.0f32, 2.0], vec![3.0f32, 4.0, 5.0]);
        let mut p_own = p_one.clone();
        for step in 0..5 {
            let g1 = vec![0.1 * step as f32; 2];
            let g2 = vec![-0.2; 3];
            let mut update = one.step(5);
            update.apply(2, &mut p_one.1, &g2);
            update.apply(0, &mut p_one.0, &g1);
            a1.step(2).apply(0, &mut p_own.0, &g1);
            a2.step(3).apply(0, &mut p_own.1, &g2);
        }
        assert_eq!(p_one, p_own);
        assert_eq!(one.state_bytes(), (2 + 3) * 8);
    }

    #[test]
    fn clipping_caps_the_norm() {
        let g = vec![3.0f32, 4.0]; // norm 5
        let scale = clip_scale(sq_norm(&g), 1.0);
        assert!((scale - 0.2).abs() < 1e-6);
        // Applying it yields unit norm.
        let clipped: Vec<f32> = g.iter().map(|v| v * scale).collect();
        assert!((sq_norm(&clipped).sqrt() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clipping_is_identity_within_bounds() {
        assert_eq!(clip_scale(sq_norm(&[0.1, 0.1]), 1.0), 1.0);
        assert_eq!(clip_scale(0.0, 1.0), 1.0);
    }

    #[test]
    fn split_norm_equals_whole_norm() {
        // The distributed decomposition: sum of shard sq-norms = global.
        let all = vec![1.0f32, -2.0, 3.0, 0.5, -0.25, 4.0];
        let whole = sq_norm(&all);
        let split = sq_norm(&all[..2]) + sq_norm(&all[2..4]) + sq_norm(&all[4..]);
        assert!((whole - split).abs() < 1e-12);
    }
}
