//! Pre-allocated communication workspace (paper Section 3.2.3) and the
//! SUMMA cores.
//!
//! The naive SUMMA loop allocates two fresh panel tensors per iteration
//! (`2q` allocations per product) plus a partial-product buffer for the
//! reduce forms. "Inspired by activation checkpointing, we pre-allocate a
//! piece of memory as a workspace … it suffices to allocate the largest
//! volume of memory among those required" — [`Workspace`] implements exactly
//! that: one panel buffer per operand, and two partials, because a reduce
//! form still holds round `l − 1`'s partial while round `l` fills the other
//! (a product that keeps its panels, see below, hands them over instead of
//! returning them to the workspace). Buffers grow to a high-water mark
//! during warm-up and are reused afterwards; `Workspace::fresh_allocs`
//! counts the growths so this module's tests can prove steady-state reuse.
//! A buffer that grows is taken from the device's `tensor::recycler`, and a
//! dropped workspace (or [`Strips`]) gives its buffers back, so the
//! workspace [`crate::summa_product`] builds per product finds them again.
//!
//! # Kept panels
//!
//! A product can instead **keep** the panels its broadcasts deliver — all
//! `q` of them, the received `Vec`s themselves, no copy — as [`Strips`],
//! and a later product over the same operand reads its panel `l` from the
//! strip instead of receiving it again. The checkpoint recompute's `NN`
//! (`y = x·W`), and the top layer's forward when its backward follows at
//! once, keeps the row strip of `x` and the column strip of `W`; the
//! layer's backward `NT` (`dx = dy·Wᵀ`) reads the `W` strip and `TN`
//! (`dW = xᵀ·dy`) the `x` strip, so both issue only their reduces. Both
//! cores take each operand's panels from one `Source`: a kept strip, or a
//! broadcast issued now. A broadcast moves exact payloads, so a kept panel
//! is bitwise the panel a second broadcast would deliver, and every product
//! reads the same bytes and reduces in the same order either way. Where a
//! `TN` reads its left operand from a kept strip, that operand may be an
//! empty block: the layer cache holds no copy of what its row strip
//! carries, and the product takes its `[K, M]` panel size from the strip.
//! A recompute's fc2, whose output nobody reads, only receives its panels
//! ([`summa_receive`]): the same broadcasts, no GEMM.
//!
//! # One blocking loop
//!
//! Every collective runs inside the call that issues it, so the cores are
//! the paper's Algorithms 1–3 as written. `NN` broadcasts round `l`'s row
//! panel, then its column panel, then runs GEMM `l`. The reduce forms
//! broadcast panel `l`, run GEMM `l`, then reduce round `l − 1`'s partial:
//! the reduce trails by one round, which keeps every device's op and link
//! records in the order the CommLog goldens pin. Panels and reduces go
//! through `Communicator::algo` like every other collective, so they follow
//! the run's algorithm table. The oracle in `tests/overlap.rs`
//! restates the loop with plain blocking calls and checks the products
//! bitwise and the dry-run timelines on the clock.
//!
//! # Tesseract 2.5D
//!
//! On a `[q, q, d]` mesh (see `mesh::GridNd`) the cores run Tesseract-style
//! 2.5D SUMMA: the `q` panel iterations are split evenly across the `d`
//! depth slices (slice `k` runs `l ∈ [q·k/d, q·(k+1)/d)`, requiring
//! `d | q`), each slice broadcasts panels within its own rows/columns, and
//! a depth epilogue stitches the slices back together — the NN form
//! reduces partial C sums onto depth 0 and re-broadcasts the total; the
//! reduce forms broadcast each finished C block from the slice that ran its
//! owning iteration. Per-device panel traffic drops by `d` at the price of
//! replicated operands and one C-sized depth collective per product. On a
//! `d = 1` mesh every depth collective is skipped, so the 2D op/link
//! streams are byte-identical to the pre-2.5D code.

use mesh::{Communicator, Grid2d, Group};
use std::borrow::Cow;
use tensor::gemm::{gemm_acc, Form};
use tensor::{recycler, Tensor};

/// Reusable buffers for SUMMA panel traffic and partial products: one
/// panel buffer per operand, and two partials — `NN`'s round product and
/// slice accumulator, or a reduce form's current and trailing partial
/// (round `l` uses slot `(l - lo) % 2`, `lo` being its depth slice's first
/// iteration, so every product finds its warm buffers where the last one
/// left them).
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    panel_a: Vec<f32>,
    panel_b: Vec<f32>,
    partial: [Vec<f32>; 2],
    /// Number of times any buffer had to grow (0 in steady state).
    pub(crate) fresh_allocs: usize,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use, from the device's
    /// recycler, and go back to it when the workspace drops.
    pub(crate) fn new() -> Self {
        Workspace::default()
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        let [p0, p1] = &mut self.partial;
        for buf in [&mut self.panel_a, &mut self.panel_b, p0, p1] {
            recycler::give(std::mem::take(buf));
        }
    }
}

/// The panels one product received, kept for a later product that needs
/// the same ones: `row` holds the panels that travelled along mesh rows
/// (the left operand of `NN` and `TN`), `col` those that travelled down
/// mesh columns (the right operand of `NN` and `NT`), one per iteration of
/// this device's depth slice. An empty strip was not kept.
#[derive(Debug, Default)]
pub struct Strips {
    pub row: Vec<Vec<f32>>,
    pub col: Vec<Vec<f32>>,
}

impl Drop for Strips {
    fn drop(&mut self) {
        self.row
            .drain(..)
            .chain(self.col.drain(..))
            .for_each(recycler::give);
    }
}

impl Strips {
    /// Bytes the kept panels hold.
    pub fn bytes(&self) -> usize {
        self.row.iter().chain(&self.col).map(|p| p.len() * 4).sum()
    }
}

/// Where a product gets one operand's panels: from a strip an earlier
/// product kept, or from broadcasts issued now. With `keep`, the broadcast
/// panels are staged in the storage of the panels the strip held before
/// (no allocation once warm) and the strip ends up holding exactly the
/// panels this product received; without, they are staged in and returned
/// to the workspace buffer.
struct Source<'s> {
    kept: &'s [Vec<f32>],
    keep: Option<&'s mut Vec<Vec<f32>>>,
    received: usize,
}

impl<'s> Source<'s> {
    fn new(kept: &'s [Vec<f32>], keep: Option<&'s mut Vec<Vec<f32>>>) -> Self {
        Source {
            kept,
            keep,
            received: 0,
        }
    }

    /// Iteration `l`'s panel of `local`'s operand, `n` elements from the
    /// group member `l`: read from the kept strip, or broadcast now. A
    /// broadcast panel is staged in the keep strip's old panel `l - lo`
    /// when there is one, else in `slot`.
    #[allow(clippy::too_many_arguments)]
    fn panel<C: Communicator>(
        &mut self,
        grid: &Grid2d<C>,
        group: &Group,
        (l, lo): (usize, usize),
        local: &Tensor,
        n: usize,
        slot: &mut Vec<f32>,
        fresh: &mut usize,
    ) -> Cow<'s, [f32]> {
        let kept = self.kept;
        if !kept.is_empty() {
            let panel = &kept[l - lo];
            assert_eq!(panel.len(), n, "kept panel has the wrong size");
            return Cow::Borrowed(panel);
        }
        let mut buf = match &mut self.keep {
            Some(strip) if l - lo < strip.len() => std::mem::take(&mut strip[l - lo]),
            _ => std::mem::take(slot),
        };
        let my_idx = group
            .index_of(grid.ctx().rank())
            .expect("device not in group");
        stage_panel(my_idx, l, local, n, &mut buf, fresh);
        grid.ctx().broadcast(group, l, &mut buf);
        Cow::Owned(buf)
    }

    /// Receives iteration `l`'s panel as [`Source::panel`] does and hands it
    /// straight to the strip being kept, for a product that computes nothing
    /// from it.
    fn receive<C: Communicator>(
        &mut self,
        grid: &Grid2d<C>,
        group: &Group,
        at: (usize, usize),
        local: &Tensor,
    ) {
        assert!(self.keep.is_some(), "a received panel must be kept");
        let (mut slot, mut fresh) = (Vec::new(), 0);
        let panel = self.panel(grid, group, at, local, local.len(), &mut slot, &mut fresh);
        self.release(panel, &mut slot);
    }

    /// Hands back a consumed panel: a received one goes to the strip being
    /// kept, or to `slot`, the workspace buffer it was staged in.
    fn release(&mut self, panel: Cow<'_, [f32]>, slot: &mut Vec<f32>) {
        if let Cow::Owned(buf) = panel {
            match &mut self.keep {
                Some(strip) if self.received < strip.len() => strip[self.received] = buf,
                Some(strip) => strip.push(buf),
                None => *slot = buf,
            }
            self.received += 1;
        }
    }

    /// Drops what the keep strip held beyond the panels this product
    /// received (all of it when the product received none).
    fn finish(self) {
        if let Some(strip) = self.keep {
            strip.drain(self.received..).for_each(recycler::give);
        }
    }
}

/// Stages a panel into `buf`: the root copies its local block in (reusing
/// the buffer's capacity — no per-iteration `to_vec`), non-roots pre-size
/// to the payload length for the receive. Counts a fresh allocation only
/// when the buffer's capacity must actually grow.
fn stage_panel(
    my_idx: usize,
    root: usize,
    local: &Tensor,
    n: usize,
    buf: &mut Vec<f32>,
    fresh: &mut usize,
) {
    if my_idx == root {
        assert_eq!(local.len(), n, "root block has unexpected shape");
        emptied(buf, n, fresh);
        buf.extend_from_slice(local.as_slice());
    } else {
        // The broadcast overwrites every element.
        sized(buf, n, fresh);
    }
}

/// Empties `buf` with room for `len`. A buffer too small is swapped for one
/// from the device's recycler (counted as growth in `fresh`).
fn emptied(buf: &mut Vec<f32>, len: usize, fresh: &mut usize) {
    if buf.capacity() < len {
        *fresh += 1;
        recycler::give(std::mem::replace(buf, recycler::take_empty(len)));
    }
    buf.clear();
}

/// Makes `buf` `len` long with unspecified contents, for a caller that
/// overwrites all of it; grows like [`emptied`].
fn sized(buf: &mut Vec<f32>, len: usize, fresh: &mut usize) {
    if buf.capacity() < len {
        *fresh += 1;
        recycler::give(std::mem::replace(buf, recycler::take(len)));
    } else if buf.len() >= len {
        buf.truncate(len);
    } else {
        buf.resize(len, 0.0);
    }
}

/// Resizes a partial-product buffer to `len` zeros, counting capacity growth.
fn zeroed(buf: &mut Vec<f32>, len: usize, fresh: &mut usize) {
    emptied(buf, len, fresh);
    buf.resize(len, 0.0);
}

/// This device's span of the `q` SUMMA iterations: slice `depth` runs
/// `[q·depth/d, q·(depth+1)/d)`. Depth must divide the mesh side so every
/// slice gets the same number of panel rounds.
fn depth_span<C: Communicator>(grid: &Grid2d<C>) -> (usize, usize) {
    let (q, d) = (grid.q(), grid.depth_dim());
    assert!(
        q % d == 0,
        "2.5D SUMMA needs the depth to divide the mesh side (q={q}, d={d})"
    );
    let k = grid.depth();
    (q * k / d, q * (k + 1) / d)
}

/// One NN iteration's consume step: GEMM into the zeroed `part`, then a
/// single elementwise add onto the slice accumulator — `c` on depth 0 (so
/// the depth reduce extends C's running sum), `scratch` on deeper slices
/// (copy-first, so the slice's contribution arrives at the reduce root as
/// bitwise `Σ P_l`; a zero-init add could flip `-0.0` signs). Keeping the
/// add outside the kernel fixes the summation order regardless of how
/// `gemm_acc` associates its k loop, which is what lets a `[q, q, q]` run
/// reproduce the `d = 1` result bitwise.
#[allow(clippy::too_many_arguments)]
fn nn_consume(
    part: &mut Vec<f32>,
    scratch: &mut Vec<f32>,
    c: &mut [f32],
    use_scratch: bool,
    started: &mut bool,
    a_panel: &[f32],
    b_panel: &[f32],
    mb: usize,
    nb: usize,
    kb: usize,
    fresh: &mut usize,
) {
    zeroed(part, mb * nb, fresh);
    gemm_acc(Form::NN, part, mb, nb, a_panel, b_panel, kb);
    if !use_scratch {
        for (ci, p) in c.iter_mut().zip(part.iter()) {
            *ci += *p;
        }
    } else if *started {
        for (s, p) in scratch.iter_mut().zip(part.iter()) {
            *s += *p;
        }
    } else {
        emptied(scratch, part.len(), fresh);
        scratch.extend_from_slice(part);
        *started = true;
    }
}

/// The `C += A B` core: broadcast panels of both operands, accumulate the
/// outer product locally. On a `[q, q, d]` mesh each depth slice runs its
/// share of the iterations and the partial C sums are reduced onto depth 0
/// then re-broadcast. `a`'s panels travel along rows and come from
/// `a_src`, `b`'s down columns and come from `b_src`.
#[allow(clippy::too_many_arguments)]
fn nn_core<C: Communicator>(
    grid: &Grid2d<C>,
    a: &Tensor,
    b: &Tensor,
    c: &mut [f32],
    ws: &mut Workspace,
    a_src: &mut Source<'_>,
    b_src: &mut Source<'_>,
) {
    let (mb, kb) = (a.rows(), a.cols());
    let nb = b.cols();
    let d = grid.depth_dim();
    let (lo, hi) = depth_span(grid);
    let (an, bn) = (mb * kb, kb * nb);
    let cn = mb * nb;
    let mut fresh = 0;
    let mut part = std::mem::take(&mut ws.partial[0]);
    let mut scratch = std::mem::take(&mut ws.partial[1]);
    let use_scratch = grid.depth() > 0;
    let mut started = false;
    let (row, col) = (grid.row_group(), grid.col_group());
    for l in lo..hi {
        let a_panel = a_src.panel(grid, row, (l, lo), a, an, &mut ws.panel_a, &mut fresh);
        let b_panel = b_src.panel(grid, col, (l, lo), b, bn, &mut ws.panel_b, &mut fresh);
        nn_consume(
            &mut part,
            &mut scratch,
            c,
            use_scratch,
            &mut started,
            &a_panel,
            &b_panel,
            mb,
            nb,
            kb,
            &mut fresh,
        );
        a_src.release(a_panel, &mut ws.panel_a);
        b_src.release(b_panel, &mut ws.panel_b);
    }
    if d > 1 {
        // Tesseract epilogue: sum the slice partials onto depth 0's C —
        // the reduce tree adds deeper slices onto C's running sum in the
        // same order the d = 1 schedule would have — then replicate the
        // total back so every slice leaves with the full block.
        {
            let out: &mut [f32] = if use_scratch { &mut scratch } else { &mut *c };
            grid.ctx().reduce(grid.depth_group(), 0, out);
        }
        if grid.depth() == 0 {
            emptied(&mut part, cn, &mut fresh);
            part.extend_from_slice(c);
        } else {
            sized(&mut part, cn, &mut fresh);
        }
        grid.ctx().broadcast(grid.depth_group(), 0, &mut part);
        if grid.depth() > 0 {
            c.copy_from_slice(&part);
        }
    }
    ws.partial[0] = part;
    ws.partial[1] = scratch;
    ws.fresh_allocs += fresh;
}

/// The panels the product `C = A B` receives, left in `keep` without the
/// product: `nn_core`'s row-then-column broadcasts in its order, and
/// neither its GEMMs nor its depth epilogue, which carries only `C`. For a
/// recompute whose backward reads a projection's panels but not its output
/// (see *Kept panels*). Runs under the `"summa.nn"` span, like the product
/// it stands in for.
pub fn summa_receive<C: Communicator>(grid: &Grid2d<C>, a: &Tensor, b: &Tensor, keep: &mut Strips) {
    let _span = trace::span_guard("summa.nn");
    let (lo, hi) = depth_span(grid);
    let mut rows = Source::new(&[], Some(&mut keep.row));
    let mut cols = Source::new(&[], Some(&mut keep.col));
    let (row, col) = (grid.row_group(), grid.col_group());
    for l in lo..hi {
        rows.receive(grid, row, (l, lo), a);
        cols.receive(grid, col, (l, lo), b);
    }
    rows.finish();
    cols.finish();
}

/// The reduce-form core shared by `C = A Bᵀ` (panels of `B` along columns,
/// reduce along rows) and `C = Aᵀ B` (panels of `A` along rows, reduce
/// along columns). `form` picks the GEMM; `stationary` is the operand that
/// stays local, `panel_src` the one whose panels `src` supplies. Round
/// `l`'s partial is reduced after round `l + 1`'s GEMM, so two partials
/// alternate between the GEMM and the reduce.
#[allow(clippy::too_many_arguments)]
fn reduce_form_core<C: Communicator>(
    grid: &Grid2d<C>,
    form: Form,
    stationary: &Tensor,
    panel_src: &Tensor,
    src: &mut Source<'_>,
    panel_elems: usize,
    (mb, nb, kb): (usize, usize, usize),
    c: &mut [f32],
    ws: &mut Workspace,
) {
    let q = grid.q();
    let d = grid.depth_dim();
    let (lo, hi) = depth_span(grid);
    // NT: panels move along columns, partials reduce along rows (owner is
    // the column matching l). TN: the transpose of that.
    let (bcast_group, reduce_group, my_reduce_idx) = match form {
        Form::NT => (grid.col_group(), grid.row_group(), grid.col()),
        Form::TN => (grid.row_group(), grid.col_group(), grid.row()),
        Form::NN => unreachable!("NN has no reduce form"),
    };
    let gemm = |part: &mut [f32], panel: &[f32]| match form {
        Form::NT => gemm_acc(Form::NT, part, mb, nb, stationary.as_slice(), panel, kb),
        Form::TN => gemm_acc(Form::TN, part, mb, nb, panel, stationary.as_slice(), kb),
        Form::NN => unreachable!(),
    };
    let cn = mb * nb;
    let mut fresh = 0;
    // Iteration l's partial lives in this slot of the pair.
    let slot = |l: usize| (l - lo) % 2;
    // Reduces iteration l's partial to its owner, who keeps the sum.
    let reduce = |l: usize, ws: &mut Workspace, c: &mut [f32]| {
        let part = &mut ws.partial[slot(l)];
        grid.ctx().reduce(reduce_group, l, part);
        if my_reduce_idx == l {
            c.copy_from_slice(part);
        }
    };
    for l in lo..hi {
        let panel = src.panel(
            grid,
            bcast_group,
            (l, lo),
            panel_src,
            panel_elems,
            &mut ws.panel_b,
            &mut fresh,
        );
        let part = &mut ws.partial[slot(l)];
        zeroed(part, cn, &mut fresh);
        gemm(part, &panel);
        src.release(panel, &mut ws.panel_b);
        if l > lo {
            reduce(l - 1, ws, c);
        }
    }
    reduce(hi - 1, ws, c);
    if d > 1 {
        // Depth epilogue: my C block was finished (reduced within the
        // slice) by whichever slice ran iteration `my_reduce_idx`; that
        // slice broadcasts the bytes down the depth fiber, so every slice
        // leaves with the identical block — bitwise, since a broadcast
        // moves exact payloads.
        let owner = my_reduce_idx * d / q;
        let stage = &mut ws.partial[0];
        if grid.depth() == owner {
            emptied(stage, cn, &mut fresh);
            stage.extend_from_slice(c);
        } else {
            sized(stage, cn, &mut fresh);
        }
        grid.ctx().broadcast(grid.depth_group(), owner, stage);
        if grid.depth() != owner {
            c.copy_from_slice(stage);
        }
    }
    ws.fresh_allocs += fresh;
}

/// One SUMMA product of `form` into a caller-owned output block, with
/// panels staged through the workspace: `NN` accumulates `C += A B`
/// (callers reset `c` when needed, mirroring the paper's forward-buffer
/// discipline), `NT` and `TN` overwrite `c` with `A Bᵀ` and `Aᵀ B`.
///
/// Each operand panel that `from` holds is read from there instead of being
/// received again. With `keep`, `keep` ends up holding exactly the panels
/// this product received, for a later product (see *Kept panels* in the
/// module docs); the panels it held before lend their storage to them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn summa_product_into<C: Communicator>(
    grid: &Grid2d<C>,
    form: Form,
    a: &Tensor,
    b: &Tensor,
    c: &mut Tensor,
    ws: &mut Workspace,
    from: &Strips,
    keep: Option<&mut Strips>,
) {
    let (keep_row, keep_col) = match keep {
        Some(k) => (Some(&mut k.row), Some(&mut k.col)),
        None => (None, None),
    };
    let mut rows = Source::new(&from.row, keep_row);
    let mut cols = Source::new(&from.col, keep_col);
    let (mb, nb, kb) = product_dims(form, a, b, from);
    assert_eq!((c.rows(), c.cols()), (mb, nb), "output block shape");
    let c = c.as_mut_slice();
    match form {
        Form::NN => {
            let _span = trace::span_guard("summa.nn");
            nn_core(grid, a, b, c, ws, &mut rows, &mut cols);
        }
        Form::NT => {
            let _span = trace::span_guard("summa.nt");
            reduce_form_core(grid, form, a, b, &mut cols, nb * kb, (mb, nb, kb), c, ws);
        }
        Form::TN => {
            let _span = trace::span_guard("summa.tn");
            reduce_form_core(grid, form, b, a, &mut rows, kb * mb, (mb, nb, kb), c, ws);
        }
    }
    rows.finish();
    cols.finish();
}

/// `(M, N, K)` blocks of a `form` product of `a` and `b`: `C` is `[M, N]`
/// and the contraction runs over `K`. A `TN` product's `a` is empty where
/// `from`'s row strip carries it; each of its panels is a `[K, M]` block.
pub(crate) fn product_dims(
    form: Form,
    a: &Tensor,
    b: &Tensor,
    from: &Strips,
) -> (usize, usize, usize) {
    let ((mb, kb), (kb2, nb)) = match (form, from.row.first()) {
        (Form::NN, _) => ((a.rows(), a.cols()), (b.rows(), b.cols())),
        (Form::NT, _) => ((a.rows(), a.cols()), (b.cols(), b.rows())),
        (Form::TN, Some(panel)) if a.is_empty() => {
            ((panel.len() / b.rows(), b.rows()), (b.rows(), b.cols()))
        }
        (Form::TN, _) => ((a.cols(), a.rows()), (b.rows(), b.cols())),
    };
    assert_eq!(kb, kb2, "contraction blocks disagree: {kb} vs {kb2}");
    (mb, nb, kb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute;
    use mesh::{Mesh2d, MeshNd};
    use tensor::{Rng, Tensor};

    fn rand(dims: &[usize], seed: u64) -> Tensor {
        Tensor::randn(dims, 1.0, &mut Rng::new(seed))
    }

    /// One product of `form` into `c` through `ws`, reading no kept panels.
    fn product<C: Communicator>(
        g: &Grid2d<C>,
        form: Form,
        (a, b): (&Tensor, &Tensor),
        c: &mut Tensor,
        ws: &mut Workspace,
    ) {
        summa_product_into(g, form, a, b, c, ws, &Strips::default(), None);
    }

    /// Per-rank workspace growth over five rounds of `forms` on a `dims`
    /// mesh after one warm-up round — Section 3.2.3's "allocate once" says
    /// all zeros.
    fn growth_after_warmup(dims: &[usize], forms: &[Form]) -> Vec<usize> {
        let (a, b) = (rand(&[16, 16], 5), rand(&[16, 16], 6));
        MeshNd::run(dims, |g| {
            let (al, bl) = (distribute(g, &a), distribute(g, &b));
            let mut ws = Workspace::new();
            let mut c = Tensor::zeros(&[16 / g.q(), 16 / g.q()]);
            let mut round = |ws: &mut Workspace| {
                for &form in forms {
                    product(g, form, (&al, &bl), &mut c, ws);
                }
            };
            round(&mut ws);
            let warm = ws.fresh_allocs;
            assert!(warm > 0, "warm-up must size the workspace");
            for _ in 0..5 {
                round(&mut ws);
            }
            ws.fresh_allocs - warm
        })
    }

    #[test]
    fn summa_workspace_reaches_steady_state_reuse() {
        // A device's depth slice, and so the first iteration `lo` it runs,
        // is fixed, and workspace buffers only grow: any round that repeats
        // reaches steady state, whether a reduce form keys its partial slot
        // on `l - lo` or on `l`. On [4, 4, 2] each slice runs two
        // iterations.
        for dims in [&[2, 2][..], &[2, 2, 2], &[4, 4, 2]] {
            for forms in [
                &[Form::NN][..],
                &[Form::NT],
                &[Form::TN],
                &[Form::NT, Form::TN],
                &[Form::NN, Form::NT, Form::TN],
            ] {
                let growth = growth_after_warmup(dims, forms);
                assert!(
                    growth.iter().all(|&g| g == 0),
                    "{forms:?} on {dims:?} grew per rank: {growth:?}"
                );
            }
        }
    }

    /// Runs all three product forms on one grid and returns the bit
    /// patterns of the outputs keyed by (row, col).
    fn all_forms_bits<C: Communicator>(g: &Grid2d<C>, a: &Tensor, b: &Tensor) -> Vec<u32> {
        let mut ws = Workspace::new();
        let (al, bl) = (distribute(g, a), distribute(g, b));
        let side = a.rows() / g.q();
        let mut bits = Vec::new();
        for form in [Form::NN, Form::NT, Form::TN] {
            let mut c = Tensor::zeros(&[side, side]);
            product(g, form, (&al, &bl), &mut c, &mut ws);
            bits.extend(c.as_slice().iter().map(|v| v.to_bits()));
        }
        bits
    }

    #[test]
    fn depth_sliced_products_match_d1_bitwise() {
        // The Tesseract acceptance case: every product form on a live
        // 2×2×2 mesh must reproduce the plain 2×2 (d = 1) blocks bit for
        // bit.
        let q = 2;
        let a = rand(&[8, 8], 20);
        let b = rand(&[8, 8], 21);
        let flat = Mesh2d::run(q, |g| ((g.row(), g.col()), all_forms_bits(g, &a, &b)));
        let deep = mesh::MeshNd::run(&[2, 2, 2], |g| {
            ((g.row(), g.col()), all_forms_bits(g, &a, &b))
        });
        for (coords, bits) in &deep {
            let reference = flat
                .iter()
                .find(|(fc, _)| fc == coords)
                .map(|(_, fb)| fb)
                .unwrap();
            assert_eq!(
                bits, reference,
                "2.5D blocks at {coords:?} diverge from d=1"
            );
        }
    }

    #[test]
    fn depth_one_mesh_logs_are_byte_identical_to_2d() {
        // A [q, q, 1] mesh must emit exactly the op/link stream of the
        // plain [q, q] mesh — the depth epilogues are fully gated.
        let q = 2;
        let a = rand(&[8, 8], 22);
        let b = rand(&[8, 8], 23);
        let run = |logs: Vec<mesh::CommLog>| logs;
        let (_, flat) = Mesh2d::run_with_logs(q, |g| {
            let _ = all_forms_bits(g, &a, &b);
        });
        let (_, deep) = mesh::MeshNd::run_with_logs(&[q, q, 1], |g| {
            let _ = all_forms_bits(g, &a, &b);
        });
        for (l, d) in run(flat).iter().zip(&run(deep)) {
            assert_eq!(l.ops, d.ops, "op stream mismatch at rank {}", l.rank);
            assert_eq!(l.links, d.links, "link stream mismatch at rank {}", l.rank);
        }
    }

    #[test]
    #[should_panic] // device threads die with "… divide the mesh side …"
    fn depth_must_divide_the_mesh_side() {
        let a = rand(&[9, 9], 24);
        let b = rand(&[9, 9], 25);
        mesh::MeshNd::run(&[3, 3, 2], |g| {
            let mut ws = Workspace::new();
            let (al, bl) = (distribute(g, &a), distribute(g, &b));
            let mut c = Tensor::zeros(&[3, 3]);
            product(g, Form::NN, (&al, &bl), &mut c, &mut ws);
        });
    }
}
