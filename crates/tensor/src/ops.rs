//! Element-wise and broadcasting operations with manual gradients.
//!
//! The GELU passes run on the vectorized `vmath` kernels; an element's value
//! depends on nothing but its input.

use crate::tensor::Tensor;
use crate::vmath;

/// Adds `bias` (length = cols) to every row of `x`, in place.
///
/// This is the paper's "bias-add" non-SUMMA operation (Fig. 5): in the 2D
/// scheme the bias slice lives on mesh row 0 and is broadcast down columns
/// before this local op runs.
pub fn bias_add(x: &mut Tensor, bias: &[f32]) {
    let cols = x.cols();
    assert_eq!(
        bias.len(),
        cols,
        "bias length {} != cols {}",
        bias.len(),
        cols
    );
    for row in x.as_mut_slice().chunks_mut(cols) {
        for (v, b) in row.iter_mut().zip(bias.iter()) {
            *v += b;
        }
    }
}

/// Gradient of [`bias_add`] with respect to the bias: column-wise sum of the
/// upstream gradient.
pub fn bias_grad(dy: &Tensor) -> Vec<f32> {
    let cols = dy.cols();
    let mut g = vec![0.0f32; cols];
    for row in dy.as_slice().chunks(cols) {
        for (acc, v) in g.iter_mut().zip(row.iter()) {
            *acc += v;
        }
    }
    g
}

/// Tanh-approximate GELU, `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))` (the
/// BERT/Megatron form): the one-element case of [`gelu_forward`]'s kernel,
/// so it equals, bitwise, what the tensor pass computes for the same value.
pub fn gelu(x: f32) -> f32 {
    let mut y = [0.0];
    vmath::gelu(&[x], &mut y);
    y[0]
}

/// Derivative of the tanh-approximate GELU: the one-element case of
/// [`gelu_backward`]'s kernel.
pub fn gelu_grad(x: f32) -> f32 {
    let mut g = [1.0];
    vmath::gelu_grad_mul(&[x], &mut g);
    g[0]
}

/// Applies GELU element-wise, returning a new tensor.
pub fn gelu_forward(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.dims());
    vmath::gelu(x.as_slice(), out.as_mut_slice());
    out
}

/// Backward of GELU, in place: `dy` becomes `dx = dy * gelu'(x)` (needs the
/// *input*, which is why the paper's buffer scheme keeps matmul inputs but
/// can discard outputs). The layers own `dy` and have no further use for it.
pub fn gelu_backward_in_place(dy: &mut Tensor, x: &Tensor) {
    assert_eq!(dy.dims(), x.dims());
    vmath::gelu_grad_mul(x.as_slice(), dy.as_mut_slice());
}

/// [`gelu_backward_in_place`] on a copy, for callers that only borrow `dy`.
pub fn gelu_backward(dy: &Tensor, x: &Tensor) -> Tensor {
    let mut dx = dy.clone();
    gelu_backward_in_place(&mut dx, x);
    dx
}

/// Element-wise sum of two tensors.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.dims(), b.dims(), "shape mismatch in add");
    let mut out = a.clone();
    out.add_assign(b);
    out
}

/// Element-wise (Hadamard) product.
pub fn hadamard(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.dims(), b.dims(), "shape mismatch in hadamard");
    let mut out = a.clone();
    for (x, y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= y;
    }
    out
}

/// Scales each row of `x` by the corresponding entry of `s` (length = rows).
pub fn row_scale(x: &mut Tensor, s: &[f32]) {
    let cols = x.cols();
    assert_eq!(s.len(), x.rows());
    for (row, &f) in x.as_mut_slice().chunks_mut(cols).zip(s.iter()) {
        for v in row {
            *v *= f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::{assert_close, Tensor};

    #[test]
    fn bias_add_and_grad_roundtrip() {
        let mut x = Tensor::zeros(&[3, 2]);
        bias_add(&mut x, &[1.0, -2.0]);
        assert_eq!(x.as_slice(), &[1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
        let dy = Tensor::full(&[3, 2], 1.0);
        assert_eq!(bias_grad(&dy), vec![3.0, 3.0]);
    }

    /// The accuracy reference: the same formulas on f64 libm.
    fn gelu_ref(x: f64) -> (f64, f64) {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        let t = (c * (x + 0.044715 * x * x * x)).tanh();
        let grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x);
        (0.5 * x * (1.0 + t), grad)
    }

    #[test]
    fn gelu_and_grad_within_contract_of_f64() {
        // Dense sweep of [-10, 10] through the tensor passes.
        let n = 2_000_001;
        let xs: Vec<f32> = (0..n).map(|i| -10.0 + 1e-5 * i as f32).collect();
        let x = Tensor::from_vec(&[1, n], xs);
        let y = gelu_forward(&x);
        let dx = gelu_backward(&Tensor::full(&[1, n], 1.0), &x);
        for ((&x, &y), &dx) in x.as_slice().iter().zip(y.as_slice()).zip(dx.as_slice()) {
            let (want_y, want_dx) = gelu_ref(x as f64);
            let tol = 1e-6 * (x.abs() as f64).max(1.0);
            assert!(
                (y as f64 - want_y).abs() <= tol,
                "gelu({x}) = {y}, want {want_y}"
            );
            assert!(
                (dx as f64 - want_dx).abs() <= tol,
                "gelu'({x}) = {dx}, want {want_dx}"
            );
        }
    }

    #[test]
    fn gelu_special_values() {
        assert_eq!(gelu(0.0).to_bits(), 0f32.to_bits());
        assert_eq!(gelu(-0.0).to_bits(), (-0f32).to_bits());
        assert_eq!(gelu_grad(0.0), 0.5);
        // Saturated tanh: the identity on the right, exactly zero on the left.
        for x in [6.0f32, 10.0, 50.0, 1e6] {
            assert_eq!(gelu(x), x);
            assert_eq!(gelu(-x), 0.0);
            assert_eq!(gelu_grad(x), 1.0);
            assert_eq!(gelu_grad(-x), 0.0);
        }
        assert!(gelu(f32::NAN).is_nan() && gelu_grad(f32::NAN).is_nan());
        assert_eq!(gelu(1e-40), 0.5 * 1e-40f32);
    }

    #[test]
    fn gelu_fixed_points() {
        assert!((gelu(0.0)).abs() < 1e-7);
        // GELU(x) -> x for large positive x, -> 0 for large negative x.
        assert!((gelu(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu(-10.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let eps = 1e-3f32;
            let fd = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "x={x}: analytic={} fd={fd}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn gelu_forward_backward_shapes() {
        let mut rng = Rng::new(0);
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let y = gelu_forward(&x);
        assert_eq!(y.dims(), x.dims());
        let dy = Tensor::full(&[4, 5], 1.0);
        let dx = gelu_backward(&dy, &x);
        assert_eq!(dx.dims(), x.dims());
        // dx equals gelu'(x) when dy == 1, and scaling dy in place is the
        // same pass.
        for (g, &xi) in dx.as_slice().iter().zip(x.as_slice()) {
            assert_eq!(*g, gelu_grad(xi));
        }
        let mut dy = dy;
        gelu_backward_in_place(&mut dy, &x);
        assert_eq!(dy, dx);
    }

    #[test]
    fn add_and_hadamard() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!(add(&a, &b).as_slice(), &[5.0; 4]);
        assert_eq!(hadamard(&a, &b).as_slice(), &[4.0, 6.0, 6.0, 4.0]);
    }

    #[test]
    fn row_scale_scales_rows() {
        let mut x = Tensor::full(&[2, 3], 1.0);
        row_scale(&mut x, &[2.0, 3.0]);
        assert_eq!(x.as_slice(), &[2.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn bias_grad_is_linear() {
        let mut rng = Rng::new(1);
        let dy1 = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let dy2 = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let sum = add(&dy1, &dy2);
        let g1 = bias_grad(&dy1);
        let g2 = bias_grad(&dy2);
        let gs = bias_grad(&sum);
        let expect: Vec<f32> = g1.iter().zip(g2.iter()).map(|(a, b)| a + b).collect();
        assert_close(&gs, &expect, 1e-5, 1e-5);
    }
}
