//! Pre-allocated communication workspace (paper Section 3.2.3) and the
//! double-buffered SUMMA cores.
//!
//! The naive SUMMA loop allocates two fresh panel tensors per iteration
//! (`2q` allocations per product) plus a partial-product buffer for the
//! reduce forms. "Inspired by activation checkpointing, we pre-allocate a
//! piece of memory as a workspace … it suffices to allocate the largest
//! volume of memory among those required" — [`Workspace`] implements exactly
//! that, with one twist: each logical buffer is a **pair**, because the
//! prefetch schedule keeps iteration `l+1`'s panel in flight while
//! iteration `l`'s is being consumed (a product that keeps its panels, see
//! below, hands them over instead of returning them to the pair). Buffers grow to a high-water mark
//! during warm-up and are reused afterwards; [`Workspace::fresh_allocs`]
//! exposes the growth count so the ablation benchmark (and a regression
//! test) can prove steady-state reuse.
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
//! (`dW = xᵀ·dy`) the `x` strip, so both post only their reduces. Both cores
//! take each operand's panels from one `Source`: a kept strip, or a
//! broadcast posted now. A broadcast moves exact payloads, so a kept panel
//! is bitwise the panel a second broadcast would deliver, and every product
//! reads the same bytes and reduces in the same order either way.
//!
//! # Comm/compute overlap
//!
//! There is one schedule, the prefetch schedule: iteration `l+1`'s panel
//! broadcasts are **posted** (non-blocking `ibroadcast`) before iteration
//! `l`'s GEMM runs, and the reduce forms likewise post iteration `l`'s
//! `ireduce` and only wait for it after iteration `l+1`'s GEMM. A posted
//! transfer runs inside `wait()` on this device's thread; what the order
//! buys is that a peer's sends land in this device's mailbox while it
//! computes, so its `wait` may find them queued instead of blocking on them.
//! The modeled per-iteration cost drops from `T_comm + T_comp` toward
//! `max(T_comm, T_comp)` (see `perf::cost`). On a `q = 1` mesh every post
//! completes at once (trivial groups), so the loop degrades by itself to
//! the paper's communicate-then-compute order.
//!
//! The schedule is **bitwise identical** to the paper's serial loop
//! (Algorithms 1–3), which survives as the test oracle in
//! `tests/overlap.rs`: the same tree walks move the same payloads, and
//! reduces accumulate in the same order (guaranteed by `mesh`'s shared tree
//! schedules). Per-device op/link byte totals equal the oracle's; only the
//! interleaving of record order differs (a reduce may be recorded before
//! the next broadcast rather than after).
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

use mesh::{Communicator, Grid2d, Group, PendingColl};
use std::borrow::Cow;
use tensor::gemm::{gemm_acc, Form};
use tensor::Tensor;

/// Reusable buffers for SUMMA panel traffic and partial products. Each
/// logical buffer is doubled so the prefetch schedule can keep one panel in
/// flight while the other is consumed; a product's iteration `l` uses slot
/// `(l - lo) % 2` of each pair, `lo` being its depth slice's first
/// iteration, so every product finds its warm buffers where the last one
/// left them.
#[derive(Debug, Default)]
pub struct Workspace {
    panel_a: [Vec<f32>; 2],
    panel_b: [Vec<f32>; 2],
    partial: [Vec<f32>; 2],
    /// Number of times any buffer had to grow (0 in steady state).
    pub fresh_allocs: usize,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
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

impl Strips {
    /// Bytes the kept panels hold.
    pub fn bytes(&self) -> usize {
        self.row.iter().chain(&self.col).map(|p| p.len() * 4).sum()
    }
}

/// Where a product gets one operand's panels: from a strip an earlier
/// product kept, or from broadcasts posted now. With `keep`, the posted
/// panels are staged in the storage of the panels the strip held before
/// (no allocation once warm) and the strip ends up holding exactly the
/// panels this product received; without, they are staged in and returned
/// to the workspace pair.
struct Source<'s> {
    kept: &'s [Vec<f32>],
    keep: Option<&'s mut Vec<Vec<f32>>>,
    received: usize,
}

/// Panel `l` of one operand: in flight, or at hand in a kept strip.
enum Panel<'g, 's> {
    Posted(PendingColl<'g>),
    Kept(&'s [f32]),
}

impl<'s> Panel<'_, 's> {
    fn wait(self) -> Cow<'s, [f32]> {
        match self {
            Panel::Posted(pending) => Cow::Owned(pending.wait()),
            Panel::Kept(panel) => Cow::Borrowed(panel),
        }
    }
}

impl<'s> Source<'s> {
    fn new(kept: &'s [Vec<f32>], keep: Option<&'s mut Vec<Vec<f32>>>) -> Self {
        Source {
            kept,
            keep,
            received: 0,
        }
    }

    /// The buffer to stage the depth slice's `i`-th panel in: the keep
    /// strip's old panel `i` when there is one, else `slot`; none when the
    /// panel is read from a kept strip.
    fn buffer(&mut self, i: usize, slot: &mut Vec<f32>) -> Vec<f32> {
        if !self.kept.is_empty() {
            return Vec::new();
        }
        match &mut self.keep {
            Some(strip) if i < strip.len() => std::mem::take(&mut strip[i]),
            _ => std::mem::take(slot),
        }
    }

    /// Iteration `l`'s panel of `local`'s operand, `n` elements from the
    /// group member `l`: read from the kept strip, or posted from `buf`.
    #[allow(clippy::too_many_arguments)]
    fn panel<'g, C: Communicator>(
        kept: &'s [Vec<f32>],
        grid: &'g Grid2d<C>,
        group: &Group,
        (l, lo): (usize, usize),
        local: &Tensor,
        n: usize,
        buf: Vec<f32>,
        fresh: &mut usize,
    ) -> Panel<'g, 's> {
        if kept.is_empty() {
            return Panel::Posted(post_panel(grid, group, l, local, n, buf, fresh));
        }
        let panel = &kept[l - lo];
        assert_eq!(panel.len(), n, "kept panel has the wrong size");
        Panel::Kept(panel)
    }

    /// Hands back a consumed panel: a received one goes to the strip being
    /// kept, or to `slot`, the workspace buffer it was posted from.
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
            strip.truncate(self.received);
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
    if buf.capacity() < n {
        *fresh += 1;
    }
    buf.clear();
    if my_idx == root {
        assert_eq!(local.len(), n, "root block has unexpected shape");
        buf.extend_from_slice(local.as_slice());
    } else {
        buf.resize(n, 0.0);
    }
}

/// Posts a non-blocking panel broadcast from a reused buffer; the buffer
/// rides inside the returned handle.
fn post_panel<'g, C: Communicator>(
    grid: &'g Grid2d<C>,
    group: &Group,
    root: usize,
    local: &Tensor,
    n: usize,
    mut buf: Vec<f32>,
    fresh: &mut usize,
) -> PendingColl<'g> {
    let my_idx = group
        .index_of(grid.ctx().rank())
        .expect("device not in group");
    stage_panel(my_idx, root, local, n, &mut buf, fresh);
    grid.ctx().ibroadcast(group, root, buf)
}

/// Resizes a partial-product buffer to `len` zeros, counting capacity growth.
fn zeroed(buf: &mut Vec<f32>, len: usize, fresh: &mut usize) {
    if buf.capacity() < len {
        *fresh += 1;
    }
    buf.clear();
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
        if scratch.capacity() < part.len() {
            *fresh += 1;
        }
        scratch.clear();
        scratch.extend_from_slice(part);
        *started = true;
    }
}

/// The `C += A B` core: broadcast panels of both operands, accumulate the
/// outer product locally, both panels double-buffered so iteration `l+1`'s
/// broadcasts ride behind iteration `l`'s GEMM. On a `[q, q, d]` mesh each
/// depth slice runs its share of the iterations and the partial C sums are
/// reduced onto depth 0 then re-broadcast. `a`'s panels travel along rows
/// and come from `a_src`, `b`'s down columns and come from `b_src`.
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
    // Iteration l's panels live in this slot of each pair.
    let slot = |l: usize| (l - lo) % 2;
    let (a_kept, b_kept) = (a_src.kept, b_src.kept);
    let post =
        |l: usize, srcs: (&mut Source, &mut Source), ws: &mut Workspace, fresh: &mut usize| {
            let a_buf = srcs.0.buffer(l - lo, &mut ws.panel_a[slot(l)]);
            let b_buf = srcs.1.buffer(l - lo, &mut ws.panel_b[slot(l)]);
            (
                Source::panel(a_kept, grid, grid.row_group(), (l, lo), a, an, a_buf, fresh),
                Source::panel(b_kept, grid, grid.col_group(), (l, lo), b, bn, b_buf, fresh),
            )
        };
    let mut pending = Some(post(lo, (a_src, b_src), ws, &mut fresh));
    for l in lo..hi {
        // Prefetch: iteration l+1's panels enter the fabric before
        // iteration l's GEMM starts, from the other buffer of each pair.
        let next = (l + 1 < hi).then(|| post(l + 1, (a_src, b_src), ws, &mut fresh));
        let (pa, pb) = pending.take().expect("panel broadcasts in flight");
        let a_panel = pa.wait();
        let b_panel = pb.wait();
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
        a_src.release(a_panel, &mut ws.panel_a[slot(l)]);
        b_src.release(b_panel, &mut ws.panel_b[slot(l)]);
        pending = next;
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
        if part.capacity() < cn {
            fresh += 1;
        }
        part.clear();
        if grid.depth() == 0 {
            part.extend_from_slice(c);
        } else {
            part.resize(cn, 0.0);
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

/// The reduce-form core shared by `C = A Bᵀ` (panels of `B` along columns,
/// reduce along rows) and `C = Aᵀ B` (panels of `A` along rows, reduce
/// along columns). `form` picks the GEMM; `stationary` is the operand that
/// stays local, `panel_src` the one whose panels `src` supplies. Iteration
/// `l`'s `ireduce` is posted immediately after its GEMM and only waited one
/// iteration later, so the reduce tree overlaps the next panel's GEMM (and
/// that panel's broadcast, when there is one, overlapped this GEMM).
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
    // Iteration l's panel and partial live in this slot of their pairs: one
    // partial rides the fabric inside the in-flight reduce while the other
    // is being filled by the GEMM.
    let slot = |l: usize| (l - lo) % 2;
    let kept = src.kept;
    let post = |l: usize, src: &mut Source, ws: &mut Workspace, fresh: &mut usize| {
        let buf = src.buffer(l - lo, &mut ws.panel_b[slot(l)]);
        Source::panel(
            kept,
            grid,
            bcast_group,
            (l, lo),
            panel_src,
            panel_elems,
            buf,
            fresh,
        )
    };
    // Completes iteration l's reduce: its root keeps the sum, and the
    // buffer returns to the slot it was taken from.
    let finish = |(l, red): (usize, PendingColl<'_>), ws: &mut Workspace, c: &mut [f32]| {
        let done = red.wait();
        if my_reduce_idx == l {
            c.copy_from_slice(&done);
        }
        ws.partial[slot(l)] = done;
    };
    let mut pending_panel = Some(post(lo, src, ws, &mut fresh));
    let mut pending_red: Option<(usize, PendingColl<'_>)> = None;
    for l in lo..hi {
        let next = (l + 1 < hi).then(|| post(l + 1, src, ws, &mut fresh));
        let panel = pending_panel
            .take()
            .expect("panel broadcast in flight")
            .wait();
        pending_panel = next;
        let mut part = std::mem::take(&mut ws.partial[slot(l)]);
        zeroed(&mut part, cn, &mut fresh);
        gemm(&mut part, &panel);
        src.release(panel, &mut ws.panel_b[slot(l)]);
        let red = grid.ctx().ireduce(reduce_group, l, part);
        if let Some(prev) = pending_red.replace((l, red)) {
            finish(prev, ws, c);
        }
    }
    finish(pending_red.expect("every slice runs >= 1 round"), ws, c);
    if d > 1 {
        // Depth epilogue: my C block was finished (reduced within the
        // slice) by whichever slice ran iteration `my_reduce_idx`; that
        // slice broadcasts the bytes down the depth fiber, so every slice
        // leaves with the identical block — bitwise, since a broadcast
        // moves exact payloads.
        let owner = my_reduce_idx * d / q;
        let stage = &mut ws.partial[0];
        if stage.capacity() < cn {
            fresh += 1;
        }
        stage.clear();
        if grid.depth() == owner {
            stage.extend_from_slice(c);
        } else {
            stage.resize(cn, 0.0);
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
pub fn summa_product_into<C: Communicator>(
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
    let (mb, nb, kb) = product_dims(form, a, b);
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
/// and the contraction runs over `K`.
pub(crate) fn product_dims(form: Form, a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    let ((mb, kb), (kb2, nb)) = match form {
        Form::NN => ((a.rows(), a.cols()), (b.rows(), b.cols())),
        Form::NT => ((a.rows(), a.cols()), (b.cols(), b.rows())),
        Form::TN => ((a.cols(), a.rows()), (b.rows(), b.cols())),
    };
    assert_eq!(kb, kb2, "contraction blocks disagree: {kb} vs {kb2}");
    (mb, nb, kb)
}

/// `C += A B` into a caller-owned output block (see [`summa_product_into`]).
pub fn summa_nn_into<C: Communicator>(
    grid: &Grid2d<C>,
    a: &Tensor,
    b: &Tensor,
    c: &mut Tensor,
    ws: &mut Workspace,
) {
    summa_product_into(grid, Form::NN, a, b, c, ws, &Strips::default(), None);
}

/// `C = A Bᵀ` into a caller-owned output block (overwrites `c`).
pub fn summa_nt_into<C: Communicator>(
    grid: &Grid2d<C>,
    a: &Tensor,
    b: &Tensor,
    c: &mut Tensor,
    ws: &mut Workspace,
) {
    summa_product_into(grid, Form::NT, a, b, c, ws, &Strips::default(), None);
}

/// `C = Aᵀ B` into a caller-owned output block (overwrites `c`).
pub fn summa_tn_into<C: Communicator>(
    grid: &Grid2d<C>,
    a: &Tensor,
    b: &Tensor,
    c: &mut Tensor,
    ws: &mut Workspace,
) {
    summa_product_into(grid, Form::TN, a, b, c, ws, &Strips::default(), None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{collect_blocks, distribute};
    use mesh::Mesh2d;
    use tensor::{assert_close, matmul_nn, matmul_nt, matmul_tn, Rng, Tensor};

    fn rand(dims: &[usize], seed: u64) -> Tensor {
        Tensor::randn(dims, 1.0, &mut Rng::new(seed))
    }

    #[test]
    fn workspace_variants_match_plain_summa() {
        let q = 2;
        let a = rand(&[4 * q, 6 * q], 0);
        let b = rand(&[6 * q, 2 * q], 1);
        let blocks = Mesh2d::run(q, |g| {
            let mut ws = Workspace::new();
            let (al, bl) = (distribute(g, &a), distribute(g, &b));
            let mut c = Tensor::zeros(&[4, 2]);
            summa_nn_into(g, &al, &bl, &mut c, &mut ws);
            c
        });
        assert_close(
            collect_blocks(&blocks, q).as_slice(),
            matmul_nn(&a, &b).as_slice(),
            1e-4,
            1e-4,
        );
    }

    #[test]
    fn nt_and_tn_workspace_variants_match_serial() {
        let q = 2;
        let a = rand(&[4 * q, 6 * q], 2);
        let b = rand(&[2 * q, 6 * q], 3);
        let blocks = Mesh2d::run(q, |g| {
            let mut ws = Workspace::new();
            let (al, bl) = (distribute(g, &a), distribute(g, &b));
            let mut c = Tensor::zeros(&[4, 2]);
            summa_nt_into(g, &al, &bl, &mut c, &mut ws);
            c
        });
        assert_close(
            collect_blocks(&blocks, q).as_slice(),
            matmul_nt(&a, &b).as_slice(),
            1e-4,
            1e-4,
        );

        let a = rand(&[6 * q, 4 * q], 4);
        let b = rand(&[6 * q, 2 * q], 5);
        let blocks = Mesh2d::run(q, |g| {
            let mut ws = Workspace::new();
            let (al, bl) = (distribute(g, &a), distribute(g, &b));
            let mut c = Tensor::zeros(&[4, 2]);
            summa_tn_into(g, &al, &bl, &mut c, &mut ws);
            c
        });
        assert_close(
            collect_blocks(&blocks, q).as_slice(),
            matmul_tn(&a, &b).as_slice(),
            1e-4,
            1e-4,
        );
    }

    #[test]
    fn steady_state_has_zero_fresh_allocations() {
        let q = 2;
        let a = rand(&[8, 8], 6);
        let b = rand(&[8, 8], 7);
        let growths = Mesh2d::run(q, |g| {
            let mut ws = Workspace::new();
            let (al, bl) = (distribute(g, &a), distribute(g, &b));
            let mut c = Tensor::zeros(&[4, 4]);
            // Warm-up step grows the buffers…
            summa_nn_into(g, &al, &bl, &mut c, &mut ws);
            let after_warmup = ws.fresh_allocs;
            assert!(after_warmup > 0, "warm-up must size the workspace");
            // …steady-state steps must not.
            for _ in 0..5 {
                c.zero_();
                summa_nn_into(g, &al, &bl, &mut c, &mut ws);
            }
            ws.fresh_allocs - after_warmup
        });
        assert!(growths.iter().all(|&g| g == 0), "growths={growths:?}");
    }

    #[test]
    fn reduce_forms_reach_steady_state_too() {
        let q = 2;
        let a = rand(&[8, 8], 10);
        let b = rand(&[8, 8], 11);
        let growths = Mesh2d::run(q, |g| {
            let mut ws = Workspace::new();
            let (al, bl) = (distribute(g, &a), distribute(g, &b));
            let mut c = Tensor::zeros(&[4, 4]);
            summa_nt_into(g, &al, &bl, &mut c, &mut ws);
            summa_tn_into(g, &al, &bl, &mut c, &mut ws);
            let after_warmup = ws.fresh_allocs;
            for _ in 0..5 {
                summa_nt_into(g, &al, &bl, &mut c, &mut ws);
                summa_tn_into(g, &al, &bl, &mut c, &mut ws);
            }
            ws.fresh_allocs - after_warmup
        });
        assert!(growths.iter().all(|&g| g == 0), "growths={growths:?}");
    }

    /// Runs all three product forms on one grid and returns the bit
    /// patterns of the outputs keyed by (row, col).
    fn all_forms_bits<C: Communicator>(g: &Grid2d<C>, a: &Tensor, b: &Tensor) -> Vec<u32> {
        let mut ws = Workspace::new();
        let (al, bl) = (distribute(g, a), distribute(g, b));
        let side = a.rows() / g.q();
        let mut bits = Vec::new();
        let mut c = Tensor::zeros(&[side, side]);
        summa_nn_into(g, &al, &bl, &mut c, &mut ws);
        bits.extend(c.as_slice().iter().map(|v| v.to_bits()));
        let mut c = Tensor::zeros(&[side, side]);
        summa_nt_into(g, &al, &bl, &mut c, &mut ws);
        bits.extend(c.as_slice().iter().map(|v| v.to_bits()));
        let mut c = Tensor::zeros(&[side, side]);
        summa_tn_into(g, &al, &bl, &mut c, &mut ws);
        bits.extend(c.as_slice().iter().map(|v| v.to_bits()));
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
            summa_nn_into(g, &al, &bl, &mut c, &mut ws);
        });
    }
}
