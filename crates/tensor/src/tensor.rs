//! The dense, row-major `f32` tensor type used throughout the workspace.

use crate::recycler;
use crate::rng::Rng;
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// Shapes are dynamic (a `Vec<usize>`); all layers in this workspace operate
/// on 2-D views (`[rows, cols]`), flattening leading batch/sequence
/// dimensions the way the paper does when it treats activations of shape
/// `[b, s, h]` as a `[bs, h]` matrix.
#[derive(PartialEq)]
pub struct Tensor {
    dims: Vec<usize>,
    data: Vec<f32>,
}

/// Every `Tensor` buffer is reported to the per-device allocation tracker
/// (`metrics`): construction goes through the private `new_tracked`, `Clone`
/// records the copy, and `Drop` / [`Tensor::into_vec`] record the release.
/// When no metrics registry is active on the thread these are single
/// thread-local reads. Storage comes from the thread's [`recycler`] and
/// `Drop` gives it back there.
impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor::new_tracked(self.dims.clone(), recycled_copy(&self.data))
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        metrics::free_bytes(std::mem::size_of_val(&self.data[..]));
        recycler::tensor_dropped(std::mem::take(&mut self.data));
    }
}

/// A recycled buffer holding a copy of `src`.
fn recycled_copy(src: &[f32]) -> Vec<f32> {
    let mut data = recycler::take(src.len());
    data.copy_from_slice(src);
    data
}

impl Tensor {
    /// The single construction funnel: wraps the buffer and reports its
    /// footprint to the allocation tracker. All public constructors (and
    /// `Clone`) come through here — the fields are module-private, so no
    /// tensor exists that the tracker has not seen.
    fn new_tracked(dims: Vec<usize>, data: Vec<f32>) -> Self {
        metrics::alloc_bytes(std::mem::size_of_val(&data[..]));
        recycler::tensor_created(&data);
        Tensor { dims, data }
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let n = dims.iter().product();
        Tensor::new_tracked(dims.to_vec(), recycler::take_zeroed(n))
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let mut t = Tensor::for_overwrite(dims);
        t.data.fill(value);
        t
    }

    /// A tensor of the given shape whose contents are unspecified (a
    /// recycled buffer's leftovers), for an output the caller overwrites
    /// completely: it saves the zero-fill of [`Tensor::zeros`].
    pub fn for_overwrite(dims: &[usize]) -> Self {
        let n = dims.iter().product();
        Tensor::new_tracked(dims.to_vec(), recycler::take(n))
    }

    /// Wraps an owned buffer with the given shape.
    ///
    /// # Panics
    /// If the buffer length does not match the product of `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        let n: usize = dims.iter().product();
        assert_eq!(
            data.len(),
            n,
            "buffer length {} does not match shape {:?}",
            data.len(),
            dims
        );
        Tensor::new_tracked(dims.to_vec(), data)
    }

    /// Tensor with i.i.d. normal entries of the given standard deviation.
    pub fn randn(dims: &[usize], std: f32, rng: &mut Rng) -> Self {
        let mut t = Tensor::for_overwrite(dims);
        rng.fill_normal(&mut t.data, std);
        t
    }

    /// The shape of the tensor.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows when viewed as a matrix: product of all leading dims.
    pub fn rows(&self) -> usize {
        assert!(!self.dims.is_empty(), "scalar tensor has no matrix view");
        self.data.len() / self.cols()
    }

    /// Number of columns when viewed as a matrix: the last dimension.
    pub fn cols(&self) -> usize {
        *self.dims.last().expect("scalar tensor has no matrix view")
    }

    /// Immutable view of the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer. The bytes leave the
    /// allocation tracker's books here: callers that re-wrap the buffer
    /// (`from_vec` after a collective) re-register it on arrival.
    pub fn into_vec(mut self) -> Vec<f32> {
        let data = std::mem::take(&mut self.data);
        metrics::free_bytes(std::mem::size_of_val(&data[..]));
        recycler::tensor_unwrapped(&data);
        data
    }

    /// Returns a copy with a new shape (same number of elements).
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        assert_eq!(n, self.data.len(), "reshape {:?} -> {:?}", self.dims, dims);
        Tensor::new_tracked(dims.to_vec(), recycled_copy(&self.data))
    }

    /// Element at `(r, c)` of the matrix view.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let cols = self.cols();
        self.data[r * cols + c]
    }

    /// Mutable element at `(r, c)` of the matrix view.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        let cols = self.cols();
        &mut self.data[r * cols + c]
    }

    /// Row `r` of the matrix view as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        let cols = self.cols();
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of the matrix view.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols();
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Extracts a rectangular block `[r0..r0+nr, c0..c0+nc]` of the matrix
    /// view as a new `[nr, nc]` tensor.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Tensor {
        let cols = self.cols();
        assert!(
            r0 + nr <= self.rows() && c0 + nc <= cols,
            "block out of range"
        );
        let mut out = recycler::take_empty(nr * nc);
        for r in r0..r0 + nr {
            out.extend_from_slice(&self.data[r * cols + c0..r * cols + c0 + nc]);
        }
        Tensor::from_vec(&[nr, nc], out)
    }

    /// Writes `src` (an `[nr, nc]` matrix) into the block at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Tensor) {
        let (nr, nc) = (src.rows(), src.cols());
        let cols = self.cols();
        assert!(
            r0 + nr <= self.rows() && c0 + nc <= cols,
            "block out of range"
        );
        for r in 0..nr {
            let dst = &mut self.data[(r0 + r) * cols + c0..(r0 + r) * cols + c0 + nc];
            dst.copy_from_slice(src.row(r));
        }
    }

    /// Splits the matrix view into `q * q` equal blocks and returns block
    /// `(i, j)` — the blocked distribution used by SUMMA (Section 2.4).
    ///
    /// # Panics
    /// If rows or cols are not divisible by `q`.
    pub fn summa_block(&self, i: usize, j: usize, q: usize) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(m % q, 0, "rows {m} not divisible by q={q}");
        assert_eq!(n % q, 0, "cols {n} not divisible by q={q}");
        let (br, bc) = (m / q, n / q);
        self.block(i * br, j * bc, br, bc)
    }

    /// Reassembles a matrix from its `q * q` SUMMA blocks, inverse of
    /// [`Tensor::summa_block`]. `blocks[i * q + j]` is block `(i, j)`.
    pub fn from_summa_blocks(blocks: &[Tensor], q: usize) -> Tensor {
        assert_eq!(blocks.len(), q * q);
        let (br, bc) = (blocks[0].rows(), blocks[0].cols());
        for b in blocks {
            assert_eq!((b.rows(), b.cols()), (br, bc), "ragged blocks");
        }
        let mut out = Tensor::for_overwrite(&[br * q, bc * q]);
        for i in 0..q {
            for j in 0..q {
                out.set_block(i * br, j * bc, &blocks[i * q + j]);
            }
        }
        out
    }

    /// Transposed copy of the matrix view.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = Tensor::for_overwrite(&[n, m]);
        for r in 0..m {
            for c in 0..n {
                out.data[c * m + r] = self.data[r * n + c];
            }
        }
        out
    }

    /// Sum of all elements (f64 accumulation for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// `self += other` element-wise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.dims, other.dims, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self *= alpha` element-wise.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }
}

impl Tensor {
    /// JSON as a `[dims, data]` pair so the on-disk format is obvious and
    /// stable across refactors of the in-memory layout.
    pub fn to_json(&self) -> minjson::Json {
        minjson::Json::Arr(vec![
            minjson::Json::usize_arr(&self.dims),
            minjson::Json::f32_arr(&self.data),
        ])
    }

    /// Inverse of [`Tensor::to_json`]; rejects shape/payload mismatches.
    pub fn from_json(v: &minjson::Json) -> Result<Tensor, String> {
        let pair = v.as_arr()?;
        if pair.len() != 2 {
            return Err(format!(
                "expected [dims, data] pair, got {} items",
                pair.len()
            ));
        }
        let dims = pair[0].as_usize_vec()?;
        let data = pair[1].as_f32_vec()?;
        let n: usize = dims.iter().product();
        if n != data.len() {
            return Err(format!(
                "tensor shape {dims:?} does not match {} elements",
                data.len()
            ));
        }
        Ok(Tensor::new_tracked(dims, data))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.dims)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_len() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.dims(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.rows(), 6);
        assert_eq!(t.cols(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_len() {
        Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn block_roundtrip() {
        let t = Tensor::from_vec(&[4, 4], (0..16).map(|x| x as f32).collect());
        let b = t.block(1, 2, 2, 2);
        assert_eq!(b.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
        let mut t2 = Tensor::zeros(&[4, 4]);
        t2.set_block(1, 2, &b);
        assert_eq!(t2.at(1, 2), 6.0);
        assert_eq!(t2.at(2, 3), 11.0);
    }

    #[test]
    fn summa_blocks_roundtrip() {
        let mut rng = Rng::new(0);
        let t = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let q = 2;
        let blocks: Vec<Tensor> = (0..q * q).map(|r| t.summa_block(r / q, r % q, q)).collect();
        let back = Tensor::from_summa_blocks(&blocks, q);
        assert_eq!(back, t);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn(&[3, 5], 1.0, &mut rng);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn transpose_values() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut a = Tensor::full(&[2, 2], 2.0);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[4.0; 4]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn summa_block_requires_divisibility() {
        Tensor::zeros(&[5, 4]).summa_block(0, 0, 2);
    }

    #[test]
    fn json_roundtrip() {
        let mut rng = Rng::new(7);
        let t = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let json = t.to_json().to_string();
        let back = Tensor::from_json(&minjson::parse(&json).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_rejects_inconsistent_shape() {
        let bad = r#"[[2, 2], [1.0, 2.0, 3.0]]"#;
        assert!(Tensor::from_json(&minjson::parse(bad).unwrap()).is_err());
    }
}
