//! Some of one device's stem tensors as one contiguous region, in the
//! canonical walk order of [`crate::walk_stem`], each cut as
//! [`Lowering::place`] cuts its slot, so that one collective moves them all.
//!
//! The paper hosts every bias and layer-norm vector on one mesh row,
//! broadcasts it down each column and reduces its gradient back (Fig. 5,
//! Section 3.2.2). A step moves all of them, hosted here or not, with one
//! [`Lowering::broadcast_vectors`] of [`Region::load`] before its first
//! forward and their gradients with one [`Lowering::reduce_vector_grads`]
//! after its last backward, however many layers, recomputes and
//! microbatches lie between. A data-parallel replica syncs every gradient it
//! holds as one region too ([`Region::synced`]). The parameters themselves
//! stay one value per slot ([`LayerTensors`]), so the optimizer, the
//! checkpoint and every walk keep their order and bits: a region is packed
//! from them and put back by [`Region::walk`].

use std::ops::Range;
use tensor::recycler;

use crate::layer::{Lowering, Span};
use crate::layout::{field, in_walk_order, stage_uses, vector_widths, walk_values, Slot};
use crate::params::{walk_slices, LayerTensors};
use crate::stem::{StemMut, StemRef};

/// Some of one device's stem tensors, or of their gradients, in walk order.
/// Its buffer comes from the device's recycler and goes back on drop.
#[derive(Clone, Debug)]
pub struct Region {
    values: Vec<f32>,
    /// Each stem tensor's range in `values`, in walk order; empty where the
    /// region leaves it out.
    at: Vec<Range<usize>>,
}

impl Drop for Region {
    fn drop(&mut self) {
        recycler::give(std::mem::take(&mut self.values));
    }
}

impl Region {
    /// The walk's tensors in turn, each `width` long (0: left out) and
    /// holding `value` where it is not empty, zeros elsewhere.
    fn new<'a>(pieces: impl Iterator<Item = (usize, &'a [f32])>) -> Self {
        let pieces: Vec<_> = pieces.collect();
        let mut values = recycler::take_zeroed(pieces.iter().map(|&(w, _)| w).sum());
        let (mut at, mut start) = (Vec::with_capacity(pieces.len()), 0);
        for (width, value) in pieces {
            let range = start..start + width;
            if !value.is_empty() && width > 0 {
                values[range.clone()].copy_from_slice(value);
            }
            start = range.end;
            at.push(range);
        }
        Region { values, at }
    }

    /// Zeros for every vector of `layers` layers, hosted here or not, and
    /// the final layer norm's only `with_final`.
    pub fn vectors<L: Lowering>(low: &L, layers: usize, with_final: bool) -> Self {
        Region::new(vector_widths(low, layers, with_final).map(|(_, w)| (w, &[][..])))
    }

    /// This device's hosted values of `final_ln` (when given) and `layers`,
    /// zeros where a vector is hosted elsewhere, then the one broadcast that
    /// gives every device the values its columns need, in the forward's span.
    pub fn load<L: Lowering>(
        low: &L,
        final_ln: Option<[&[f32]; 2]>,
        layers: &[LayerTensors],
    ) -> Self {
        let fin = final_ln.unwrap_or([&[], &[]]);
        let values = in_walk_order(&[][..], fin, layers.iter().map(LayerTensors::slots));
        let widths = vector_widths(low, layers.len(), final_ln.is_some());
        let mut v = Region::new(widths.zip(values).map(|((_, w), (_, v))| (w, v)));
        low.scope(Span::Fwd, || low.broadcast_vectors(&mut v.values));
        v
    }

    /// Sums every device's region onto the devices that host the vectors:
    /// one call, in the backward's span.
    pub fn reduce<L: Lowering>(&mut self, low: &L) {
        low.scope(Span::Bwd, || low.reduce_vector_grads(&mut self.values));
    }

    /// Every tensor of `stem` this device holds that a data-parallel sync
    /// moves: the table only `with_table` and the final layer norm only
    /// `with_final` (a stage that does not use them holds them with zero
    /// gradients), every layer tensor where it is hosted.
    pub fn synced(stem: &StemRef<'_>, with_table: bool, with_final: bool) -> Self {
        let values = walk_values(stem).enumerate();
        let values = values.map(|(i, (_, v))| match stage_uses(i, with_table, with_final) {
            true => v,
            false => &[],
        });
        Region::new(values.map(|v| (v.len(), v)))
    }

    /// The whole region, as one slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// The whole region, as its buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.values)
    }

    /// Every tensor's piece in walk order, empty where the region leaves it
    /// out.
    fn pieces_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let mut rest = &mut self.values[..];
        self.at.iter().map(move |r| {
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            rest = tail;
            piece
        })
    }

    fn piece(&self, i: usize) -> &[f32] {
        &self.values[self.at[i].clone()]
    }

    fn layers(&self) -> usize {
        (self.at.len() - 3) / 12
    }

    /// The final layer norm's γ and β.
    pub(crate) fn final_ln(&self) -> [&[f32]; 2] {
        [self.piece(1), self.piece(2)]
    }

    /// Mutable counterpart of [`Region::final_ln`].
    pub(crate) fn final_ln_mut(&mut self) -> [&mut [f32]; 2] {
        let mut fin = self.pieces_mut().skip(1);
        std::array::from_fn(|_| fin.next().expect("the final layer norm"))
    }

    /// Layer `l`'s eight vectors in field order, in a region of vectors.
    pub(crate) fn layer(&self, l: usize) -> [&[f32]; 8] {
        let fields = (field(l, 0)..field(l + 1, 0)).map(|i| self.piece(i));
        let mut vectors = fields.filter(|v| !v.is_empty());
        std::array::from_fn(|_| vectors.next().expect("eight layer vectors"))
    }

    /// Mutable counterpart of [`Region::layer`].
    pub(crate) fn layer_mut(&mut self, l: usize) -> [&mut [f32]; 8] {
        let fields = self.pieces_mut().skip(field(l, 0)).take(12);
        let mut vectors = fields.filter(|v| !v.is_empty());
        std::array::from_fn(|_| vectors.next().expect("eight layer vectors"))
    }

    /// Each vector as `low` holds it — a copy where hosted, empty
    /// elsewhere: the final layer norm's two (zeros where the region leaves
    /// them out), then each layer's eight.
    pub(crate) fn hosted<L: Lowering>(&self, low: &L) -> ([Vec<f32>; 2], Vec<[Vec<f32>; 8]>) {
        let host = |slot, v: &[f32]| match low.place(slot).hosted {
            true => v.to_vec(),
            false => Vec::new(),
        };
        let zeros = vec![0.0; low.hidden() / low.place(Slot::Norm).cols.1];
        let fin = self
            .final_ln()
            .map(|v| host(Slot::Norm, if v.is_empty() { &zeros } else { v }));
        let vectors = vector_widths(low, 1, false).filter(|&(_, w)| w > 0);
        let slots: Vec<Slot> = vectors.map(|(slot, _)| slot).collect();
        let layers = (0..self.layers()).map(|l| {
            let v = self.layer(l);
            std::array::from_fn(|k| host(slots[k], v[k]))
        });
        (fin, layers.collect())
    }

    /// Calls `f` on each tensor of `params` hosted here that the region
    /// holds, with its index and piece, in walk order.
    pub fn walk(&mut self, params: StemMut<'_>, f: &mut impl FnMut(usize, &mut [f32], &[f32])) {
        let pairs = walk_slices(params).zip(self.pieces_mut()).enumerate();
        for (i, ((_, p), piece)) in pairs {
            if !p.is_empty() && !piece.is_empty() {
                f(i, p, piece);
            }
        }
    }
}
