//! One placement table, three interpreters.
//!
//! A [`Lowering`] says how each canonical tensor ([`Slot`]) is cut into this
//! device's share ([`Lowering::place`], a [`Cut`]). [`init`] draws that
//! share straight from each tensor's `(seed, param id)` stream, so no device
//! ever holds a whole model; [`shard`] cuts canonical [`ModelParams`] (a
//! loaded checkpoint) by it; [`gather`] inverts it on a root device for any
//! per-device tensor set — parameters or gradients alike — through one
//! communication hook, [`Lowering::gather_pieces`]. No scheme writes an
//! initialiser, a slicer or a gather of its own.

use crate::config::ModelConfig;
use crate::layer::{Lowering, Role};
use crate::params::{Hosted, LayerParams, LayerTensors, ModelParams, ModelTensors};
use crate::stem::StemRef;
use std::iter::once;
use std::ops::Range;
use tensor::init::{init_runs, param_ids, WEIGHT_STD};
use tensor::{recycler, Tensor};

/// A canonical tensor, as far as placing it goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// The `[v, h]` embedding table.
    Table,
    /// A projection's weight.
    Weight(Role),
    /// A projection's bias.
    Bias(Role),
    /// A layer-norm γ or β.
    Norm,
}

/// One device's piece of a full tensor (a vector is one row): row block
/// `rows.0` of `rows.1` and column block `cols.0` of `cols.1` — taken within
/// each third of the fused QKV weight and bias, so a device's Q, K and V
/// columns are the same heads — held only where `hosted`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    pub rows: (usize, usize),
    pub cols: (usize, usize),
    pub hosted: bool,
}

impl Cut {
    /// The whole tensor, held everywhere.
    pub const WHOLE: Cut = Cut::new((0, 1), (0, 1), true);

    /// Row block `rows`, column block `cols`, held where `hosted`.
    pub const fn new(rows: (usize, usize), cols: (usize, usize), hosted: bool) -> Cut {
        Cut { rows, cols, hosted }
    }

    /// The piece's contiguous runs in a full row-major `[r, c]` tensor, in
    /// the piece's own order.
    fn runs(self, [r, c]: [usize; 2], thirds: bool) -> impl Iterator<Item = Range<usize>> {
        let t = if thirds { 3 } else { 1 };
        let (rb, w) = (r / self.rows.1, c / t / self.cols.1);
        let rows = self.rows.0 * rb..(self.rows.0 + 1) * rb;
        let starts = rows.flat_map(move |row| (0..t).map(move |i| row * c + i * c / t));
        starts.map(move |s| s + self.cols.0 * w..s + (self.cols.0 + 1) * w)
    }
}

/// How a tensor's values start.
#[derive(Clone, Copy, Debug)]
enum Init {
    /// Drawn from the `(seed, id)` stream ([`tensor::init::init_matrix`]);
    /// in the layer table, `id` is the offset within the layer.
    Normal(u64),
    /// Every element the constant.
    Fill(f32),
}

/// The twelve layer tensors in field order: name, slot, shape in units of
/// `h` (`0` rows: a vector, one row), whether it is cut within thirds, and
/// how it starts.
const LAYER: [(&str, Slot, [usize; 2], bool, Init); 12] = {
    use param_ids::{W_FC1, W_FC2, W_OUT, W_QKV};
    use Init::{Fill, Normal};
    use Role::{Contract, Expand};
    use Slot::{Bias, Norm, Weight};
    [
        ("ln1_g", Norm, [0, 1], false, Fill(1.0)),
        ("ln1_b", Norm, [0, 1], false, Fill(0.0)),
        ("w_qkv", Weight(Expand), [1, 3], true, Normal(W_QKV)),
        ("b_qkv", Bias(Expand), [0, 3], true, Fill(0.0)),
        ("w_out", Weight(Contract), [1, 1], false, Normal(W_OUT)),
        ("b_out", Bias(Contract), [0, 1], false, Fill(0.0)),
        ("ln2_g", Norm, [0, 1], false, Fill(1.0)),
        ("ln2_b", Norm, [0, 1], false, Fill(0.0)),
        ("w_fc1", Weight(Expand), [1, 4], false, Normal(W_FC1)),
        ("b_fc1", Bias(Expand), [0, 4], false, Fill(0.0)),
        ("w_fc2", Weight(Contract), [4, 1], false, Normal(W_FC2)),
        ("b_fc2", Bias(Contract), [0, 1], false, Fill(0.0)),
    ]
};

/// A stem of `layers` layers in walk order, each tensor with its slot and,
/// if a vector, its width on this device as `low` places it; 0 for the
/// table, each weight and, unless `with_final`, the final layer norm.
pub(crate) fn vector_widths<L: Lowering>(
    low: &L,
    layers: usize,
    with_final: bool,
) -> impl Iterator<Item = (Slot, usize)> {
    let h = low.hidden();
    let width = |slot, c, vector| (slot, usize::from(vector) * c * h / low.place(slot).cols.1);
    let layer = LAYER.map(|(_, slot, [r, c], ..)| width(slot, c, r == 0));
    let norm = width(Slot::Norm, 1, with_final);
    let stem = [(Slot::Table, 0), norm, norm].into_iter();
    stem.chain((0..layers).flat_map(move |_| layer))
}

/// A tensor to place: its slot, full shape, and whether it is cut within
/// thirds (the fused QKV weight and bias).
type Entry = (Slot, [usize; 2], bool);

/// A tensor as values (`None` where hosted elsewhere) and shape.
type Piece = (Option<Vec<f32>>, [usize; 2]);

/// The twelve tensors of layer `idx`, of width `h`, in field order, each
/// with how it starts.
fn layer_entries(idx: usize, h: usize) -> impl Iterator<Item = (Entry, Init)> {
    let entries = LAYER.map(|(_, slot, [r, c], thirds, init)| {
        let init = match init {
            Init::Normal(offset) => Init::Normal(param_ids::layer(idx, offset)),
            fill => fill,
        };
        ((slot, [(r * h).max(1), c * h], thirds), init)
    });
    entries.into_iter()
}

/// Every stem tensor in gather order — table, the model's layers `layers`,
/// final layer norm γ and β — each with how it starts.
fn stem_entries(v: usize, h: usize, layers: Range<usize>) -> impl Iterator<Item = (Entry, Init)> {
    let norm = |fill| ((Slot::Norm, [1, h], false), Init::Fill(fill));
    let layers = layers.flat_map(move |idx| layer_entries(idx, h));
    let table = (
        (Slot::Table, [v, h], false),
        Init::Normal(param_ids::EMBEDDING),
    );
    once(table).chain(layers).chain([norm(1.0), norm(0.0)])
}

/// `l`'s tensor shapes in field order, a vector as one row.
fn shapes(l: &LayerParams) -> impl Iterator<Item = Vec<usize>> + '_ {
    let mut weights = [&l.w_qkv, &l.w_out, &l.w_fc1, &l.w_fc2].into_iter();
    LAYER
        .iter()
        .zip(l.slots())
        .map(move |((_, slot, ..), v)| match slot {
            Slot::Weight(_) => weights.next().expect("four weights").dims().to_vec(),
            _ => vec![1, v.expect("a full layer").len()],
        })
}

/// The name of the `k`-th stem tensor in gather order.
fn name(k: usize, layers: usize) -> String {
    match k.checked_sub(1) {
        None => "embedding".into(),
        Some(k) if k < 12 * layers => format!("layers[{}].{}", k / 12, LAYER[k % 12].0),
        Some(k) => ["final_ln_g", "final_ln_b"][k - 12 * layers].into(),
    }
}

/// The piece `cut` takes of one tensor, drawn from its `seed` stream.
fn draw(cut: Cut, seed: u64, (_, dims, thirds): Entry, init: Init) -> Piece {
    let piece = cut.hosted.then(|| {
        let len = dims[0] * dims[1] / (cut.rows.1 * cut.cols.1);
        match init {
            Init::Normal(id) => init_runs(seed, id, WEIGHT_STD, cut.runs(dims, thirds), len),
            Init::Fill(x) => vec![x; len],
        }
    });
    (piece, [dims[0] / cut.rows.1, dims[1] / cut.cols.1])
}

/// This device's tensors of the model `seed` initialises, for the model's
/// layers `layers` (a pipeline stage's range, say): each piece drawn as
/// `low` places it, straight from its tensor's `(seed, param id)` stream.
/// Bitwise what [`shard`] cuts from [`ModelParams::init`] for the same
/// layers, without any tensor ever being whole.
pub fn init<L: Lowering>(
    low: &L,
    seed: u64,
    cfg: &ModelConfig,
    layers: Range<usize>,
) -> ModelTensors<L::Hosted> {
    let n = layers.len();
    let entries = stem_entries(cfg.vocab, cfg.hidden, layers);
    from_pieces(
        n,
        entries.map(|(e, init)| draw(low.place(e.0), seed, e, init)),
    )
}

/// [`init`] for one whole layer: layer `idx` of width `h`.
pub(crate) fn init_layer(seed: u64, idx: usize, h: usize) -> LayerParams {
    let entries = layer_entries(idx, h);
    LayerTensors::from_slots(entries.map(|(e, init)| draw(Cut::WHOLE, seed, e, init)))
}

/// This device's piece of the sentence-classification head `[h, classes]`
/// and its zero bias, placed as an `Expand` projection and drawn from the
/// head's `seed` stream.
pub fn init_head<L: Lowering>(low: &L, seed: u64, classes: usize) -> (Tensor, L::Hosted) {
    let weight = (Slot::Weight(Role::Expand), [low.hidden(), classes], false);
    let bias = (Slot::Bias(Role::Expand), [1, classes], false);
    let head = [
        (weight, Init::Normal(param_ids::CLS_HEAD)),
        (bias, Init::Fill(0.0)),
    ];
    let [(w, dims), (b, _)] = head.map(|(e, init)| draw(low.place(e.0), seed, e, init));
    let w = Tensor::from_vec(&dims, w.expect("every device holds its weight block"));
    (w, L::Hosted::host(b))
}

/// `low`'s piece of one full tensor.
fn cut<L: Lowering>(low: &L, (slot, dims, thirds): Entry, full: &[f32]) -> Piece {
    let cut = low.place(slot);
    let piece = cut.hosted.then(|| {
        let mut piece = Vec::with_capacity(full.len() / (cut.rows.1 * cut.cols.1));
        let runs = cut.runs(dims, thirds);
        runs.for_each(|r| piece.extend_from_slice(&full[r]));
        piece
    });
    (piece, [dims[0] / cut.rows.1, dims[1] / cut.cols.1])
}

/// `low`'s piece of one full tensor outside the stem (a vector as one row),
/// such as a classification head; `None` where it is hosted elsewhere.
pub fn shard_tensor<L: Lowering>(low: &L, slot: Slot, full: &Tensor) -> Option<Tensor> {
    let entry = (slot, [full.rows(), full.cols()], false);
    let (piece, dims) = cut(low, entry, full.as_slice());
    piece.map(|v| Tensor::from_vec(&dims, v))
}

/// [`shard`] for one layer's well-formed full tensors.
pub fn shard_layer<L: Lowering>(low: &L, full: &LayerParams) -> LayerTensors<L::Hosted> {
    let pieces = layer_entries(0, low.hidden()).zip(full.slots());
    LayerTensors::from_slots(pieces.map(|((e, _), v)| cut(low, e, v.expect("a full layer"))))
}

/// This device's tensors, cut from the canonical `full` as `low` places
/// them.
///
/// # Panics
/// Naming the first tensor (`layers[1].b_fc1`, say) whose shape does not
/// match `cfg`, before anything is cut.
pub fn shard<L: Lowering>(
    low: &L,
    full: &ModelParams,
    cfg: &ModelConfig,
) -> ModelTensors<L::Hosted> {
    let (n, want) = (full.layers.len(), cfg.layers);
    assert_eq!(n, want, "layers: {n} given, {want} in the config");
    let entries = || stem_entries(cfg.vocab, cfg.hidden, 0..n).map(|(e, _)| e);
    let layers = full.layers.iter().flat_map(shapes);
    let ln = [&full.final_ln_g, &full.final_ln_b].map(|v| vec![1, v.len()]);
    let shapes = once(full.embedding.dims().to_vec()).chain(layers).chain(ln);
    for (k, ((_, want, _), got)) in entries().zip(shapes).enumerate() {
        assert!(got == want, "{}: shape must match the config", name(k, n));
    }
    let pieces = entries().zip(stem_values(&full.stem()));
    let pieces = pieces.map(|(e, v)| cut(low, e, v.expect("full parameters")));
    from_pieces(n, pieces)
}

/// Every tensor of `stem` in gather order, `None` where hosted elsewhere.
pub(crate) fn stem_values<'a, H: Hosted>(
    stem: &StemRef<'a, H>,
) -> impl Iterator<Item = Option<&'a [f32]>> {
    let [g, b] = stem.final_ln;
    let layers = stem.layers.iter().flat_map(LayerTensors::slots);
    let table = once(Some(stem.table.as_slice()));
    table.chain(layers).chain([g.hosted(), b.hosted()])
}

/// Whether entry `i` of the walk order belongs to a pipeline stage that uses
/// the table only `with_table` and the final layer norm only `with_final`.
/// A stage holds the others with gradients that are always zero, so no
/// sync or update visits them.
pub(crate) fn stage_uses(i: usize, with_table: bool, with_final: bool) -> bool {
    match i {
        0 => with_table,
        1 | 2 => with_final,
        _ => true,
    }
}

/// A stem's tensors in the canonical walk order of [`crate::walk_stem`] —
/// table, final layer-norm γ and β, then each layer in field order — each
/// with its slot.
pub(crate) fn in_walk_order<T>(
    table: T,
    [gamma, beta]: [T; 2],
    layers: impl Iterator<Item = [T; 12]>,
) -> impl Iterator<Item = (Slot, T)> {
    let layers = layers.flat_map(|l| LAYER.map(|(_, slot, ..)| slot).into_iter().zip(l));
    let stem = [
        (Slot::Table, table),
        (Slot::Norm, gamma),
        (Slot::Norm, beta),
    ];
    stem.into_iter().chain(layers)
}

/// Every tensor of `stem` in walk order with its slot, `None` where hosted
/// elsewhere.
pub(crate) fn walk_values<'a, H: Hosted>(
    stem: &StemRef<'a, H>,
) -> impl Iterator<Item = (Slot, Option<&'a [f32]>)> {
    let [g, b] = stem.final_ln;
    let layers = stem.layers.iter().map(LayerTensors::slots);
    in_walk_order(
        Some(stem.table.as_slice()),
        [g.hosted(), b.hosted()],
        layers,
    )
}

/// Builds a stem of `layers` layers from its tensors in gather order.
fn from_pieces<H: Hosted>(
    layers: usize,
    mut pieces: impl Iterator<Item = Piece>,
) -> ModelTensors<H> {
    let (table, dims) = pieces.next().expect("the table");
    let embedding = Tensor::from_vec(&dims, table.expect("the table is on every device"));
    let layers = (0..layers).map(|_| LayerTensors::from_slots(pieces.by_ref().take(12)));
    let layers = layers.collect();
    let mut vector = || H::host(pieces.next().expect("the final layer norm").0);
    let (final_ln_g, final_ln_b) = (vector(), vector());
    ModelTensors {
        embedding,
        layers,
        final_ln_g,
        final_ln_b,
    }
}

/// Gathers one tensor's pieces to the root and puts each back where its cut
/// took it from; `None` off the root.
fn assemble<L: Lowering>(low: &L, (slot, dims, thirds): Entry, piece: Option<&[f32]>) -> Piece {
    let cut = low.place(slot);
    assert_eq!(
        piece.is_some(),
        cut.hosted,
        "a piece is held where it is hosted"
    );
    // A tensor every device holds whole needs no communication; a gathered
    // one arrives in a buffer of the device's recycler.
    let whole = cut == Cut::WHOLE;
    let gathered = (!whole).then(|| low.gather_pieces(slot, piece)).flatten();
    let Some(flat) = (if whole { piece } else { gathered.as_deref() }) else {
        return (None, dims);
    };
    let (rp, cp) = (cut.rows.1, cut.cols.1);
    let blocks = (0..rp * cp).map(|k| Cut::new((k / cp, rp), (k % cp, cp), true));
    let mut full = vec![0.0; dims[0] * dims[1]];
    assert_eq!(flat.len(), full.len(), "gathered size mismatch");
    let mut rest = flat;
    for r in blocks.flat_map(|b| b.runs(dims, thirds)) {
        let (run, tail) = rest.split_at(r.len());
        full[r].copy_from_slice(run);
        rest = tail;
    }
    if let Some(buf) = gathered {
        recycler::give(buf);
    }
    (Some(full), dims)
}

/// Rebuilds the canonical tensors on the root from every device's `local`
/// share — parameters or gradients alike — with one
/// [`Lowering::gather_pieces`] per tensor, in the order table, layers (field
/// order), final layer norm. `Some` on the root only; every device must call
/// it.
pub fn gather<L: Lowering>(low: &L, local: &StemRef<'_, L::Hosted>) -> Option<ModelParams> {
    let n = local.layers.len();
    let v = local.table.rows() * low.place(Slot::Table).rows.1;
    let entries = stem_entries(v, low.hidden(), 0..n).zip(stem_values(local));
    let full: Vec<_> = entries
        .map(|((e, _), piece)| assemble(low, e, piece))
        .collect();
    // Every device has taken part in every gather; the root is where the
    // table landed.
    full[0].0.as_ref()?;
    Some(from_pieces(n, full.into_iter()))
}
