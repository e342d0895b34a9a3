//! A stem's bias and layer-norm vectors as one region per device.
//!
//! The paper hosts every bias and layer-norm vector on one mesh row,
//! broadcasts it down each column and reduces its gradient back (Fig. 5,
//! Section 3.2.2). A [`Vectors`] holds all of a stem's vectors — the final
//! layer norm's γ and β, then each layer's eight in field order: the
//! canonical walk order of [`crate::walk_stem`] with the table and weights
//! left out — as one contiguous region, each vector cut as
//! [`Lowering::place`] cuts its slot. A step therefore moves them with one
//! [`Lowering::broadcast_vectors`] before its first forward and moves their
//! gradients with one [`Lowering::reduce_vector_grads`] after its last
//! backward, however many layers, recomputes and microbatches lie between.
//! The parameters themselves stay one value per slot ([`LayerTensors`]), so
//! the optimizer, the checkpoint and every walk keep their order and bits.

use crate::layer::{Lowering, Span};
use crate::layout::{layer_vectors, Slot};
use crate::params::{Hosted, LayerTensors};
use crate::stem::StemMut;

/// One device's share of a stem's vectors, or of their gradients, in walk
/// order.
#[derive(Clone, Debug)]
pub struct Vectors {
    values: Vec<f32>,
    /// Width of each final layer-norm vector.
    norm: usize,
    /// A layer's eight vectors in field order: slot and width.
    layer: [(Slot, usize); 8],
    /// Where the part that travels begins: past the final layer norm on a
    /// stage that does not run it.
    start: usize,
}

impl Vectors {
    /// Zeros for `layers` layers as `low` places them, the final layer norm
    /// travelling with them only `with_final`.
    pub fn zeros<L: Lowering>(low: &L, layers: usize, with_final: bool) -> Self {
        let norm = low.hidden() / low.place(Slot::Norm).cols.1;
        let layer = layer_vectors(low);
        let per: usize = layer.iter().map(|&(_, w)| w).sum();
        Vectors {
            values: vec![0.0; 2 * norm + layers * per],
            norm,
            layer,
            start: if with_final { 0 } else { 2 * norm },
        }
    }

    /// This device's hosted values of `final_ln` (when given) and `layers`,
    /// zeros where a vector is hosted elsewhere. No communication.
    pub fn pack<L: Lowering>(
        low: &L,
        final_ln: Option<[&L::Hosted; 2]>,
        layers: &[LayerTensors<L::Hosted>],
    ) -> Self {
        let mut v = Vectors::zeros(low, layers.len(), final_ln.is_some());
        let fin = final_ln.into_iter().flatten().map(Hosted::hosted);
        let sources = fin.chain(layers.iter().flat_map(LayerTensors::vectors));
        let skip = if final_ln.is_some() { 0 } else { 2 };
        for (dst, src) in v.pieces_mut().into_iter().skip(skip).zip(sources) {
            if let Some(src) = src {
                dst.copy_from_slice(src);
            }
        }
        v
    }

    /// [`Vectors::pack`], then the one broadcast that gives every device the
    /// values its columns need, in the forward's span.
    pub fn load<L: Lowering>(
        low: &L,
        final_ln: Option<[&L::Hosted; 2]>,
        layers: &[LayerTensors<L::Hosted>],
    ) -> Self {
        let mut v = Vectors::pack(low, final_ln, layers);
        low.scope(Span::Fwd, || low.broadcast_vectors(v.travelling_mut()));
        v
    }

    /// Sums every device's region onto the devices that host the vectors:
    /// one call, in the backward's span.
    pub fn reduce<L: Lowering>(&mut self, low: &L) {
        low.scope(Span::Bwd, || low.reduce_vector_grads(self.travelling_mut()));
    }

    /// The part that travels, as one slice.
    pub fn travelling_mut(&mut self) -> &mut [f32] {
        &mut self.values[self.start..]
    }

    fn per_layer(&self) -> usize {
        self.layer.iter().map(|&(_, w)| w).sum()
    }

    fn layers(&self) -> usize {
        (self.values.len() - 2 * self.norm) / self.per_layer()
    }

    /// Every vector's piece in walk order.
    fn pieces_mut(&mut self) -> Vec<&mut [f32]> {
        let (layer, n) = (self.layer, self.layers());
        let widths = [self.norm; 2]
            .into_iter()
            .chain((0..n).flat_map(move |_| layer.map(|(_, w)| w)));
        let mut rest = &mut self.values[..];
        widths
            .map(|w| {
                let (piece, tail) = std::mem::take(&mut rest).split_at_mut(w);
                rest = tail;
                piece
            })
            .collect()
    }

    /// The final layer norm's γ and β.
    pub(crate) fn final_ln(&self) -> [&[f32]; 2] {
        let (g, rest) = self.values.split_at(self.norm);
        [g, &rest[..self.norm]]
    }

    /// Mutable counterpart of [`Vectors::final_ln`].
    pub(crate) fn final_ln_mut(&mut self) -> [&mut [f32]; 2] {
        let (g, rest) = self.values.split_at_mut(self.norm);
        [g, &mut rest[..self.norm]]
    }

    /// Layer `l`'s eight vectors in field order.
    pub(crate) fn layer(&self, l: usize) -> [&[f32]; 8] {
        let per = self.per_layer();
        let mut rest = &self.values[2 * self.norm + l * per..][..per];
        self.layer.map(|(_, w)| {
            let (piece, tail) = rest.split_at(w);
            rest = tail;
            piece
        })
    }

    /// Mutable counterpart of [`Vectors::layer`].
    pub(crate) fn layer_mut(&mut self, l: usize) -> [&mut [f32]; 8] {
        let per = self.per_layer();
        let mut rest = &mut self.values[2 * self.norm + l * per..][..per];
        self.layer.map(|(_, w)| {
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(w);
            rest = tail;
            piece
        })
    }

    /// Each vector as `low` holds it — a copy where hosted, nothing
    /// elsewhere: the final layer norm's two, then each layer's eight.
    pub(crate) fn hosted<L: Lowering>(&self, low: &L) -> ([L::Hosted; 2], Vec<[L::Hosted; 8]>) {
        let host = |slot, v: &[f32]| L::Hosted::host(low.place(slot).hosted.then(|| v.to_vec()));
        let final_ln = self.final_ln().map(|v| host(Slot::Norm, v));
        let layers = (0..self.layers()).map(|l| {
            let v = self.layer(l);
            std::array::from_fn(|k| host(self.layer[k].0, v[k]))
        });
        (final_ln, layers.collect())
    }

    /// Calls `f` on each vector `params` hosts with its piece of this
    /// region, in walk order; the final layer norm only where it travels.
    pub fn walk<H: Hosted>(
        &mut self,
        params: StemMut<'_, H>,
        f: &mut impl FnMut(&mut [f32], &[f32]),
    ) {
        let [g, b] = params.final_ln;
        let fin = (self.start == 0).then_some([g, b]).into_iter().flatten();
        let fin = fin.map(Hosted::hosted_mut);
        let layers = params.layers.iter_mut().flat_map(LayerTensors::vectors_mut);
        let skip = if self.start == 0 { 0 } else { 2 };
        let pieces = self.pieces_mut().into_iter().skip(skip);
        for (p, v) in fin.chain(layers).zip(pieces) {
            if let Some(p) = p {
                f(p, v);
            }
        }
    }
}
