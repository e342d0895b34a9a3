//! N-dimensional mesh views over a flat device world.
//!
//! The paper's Optimus algorithm lives on a `q × q` grid; its scaling
//! successors (Tesseract's 2.5D `[q, q, d]`, AxoNN-style 3D/4D hybrids)
//! add more axes. [`GridNd`] is the shape-generic substrate: an
//! `[d0, d1, ..., dk]` mesh where every axis yields a per-device subgroup
//! communicator. [`Grid2d`] is a type alias over it, so all existing 2D
//! call sites keep compiling unchanged. The launchers that hand these views
//! out are in `launch.rs`.

use crate::comm::Communicator;
use crate::fabric::DeviceCtx;
use crate::group::Group;
use crate::shape::MeshShape;

/// Conventional name of `axis_group(axis)` on an `ndim`-axis mesh.
///
/// Names follow the *resulting group*, not the swept axis: sweeping the
/// row coordinate (axis 0) collects the devices of one mesh **column**, so
/// `axis_group(0)` is labeled `"col"`; sweeping the column coordinate
/// (axis 1) collects a mesh **row**, labeled `"row"`. Axis 2 is `"depth"`
/// (the Tesseract replication axis). A 1-axis mesh has a single subgroup
/// spanning everything: `"world"`.
fn axis_label(ndim: usize, axis: usize) -> &'static str {
    if ndim == 1 {
        return "world";
    }
    const NAMES: [&str; 8] = [
        "col", "row", "depth", "axis3", "axis4", "axis5", "axis6", "axis7",
    ];
    NAMES[axis]
}

/// Per-device view of an N-dimensional mesh: coordinates plus one
/// precomputed subgroup per axis.
///
/// Generic over the [`Communicator`] backend: `GridNd<'_>` (the default) is
/// a view over a live [`DeviceCtx`]; `GridNd<'_, DryRunComm>` is the same
/// view over the trace-only backend. All distributed layers in the
/// workspace take `&Grid2d<C>` (= `GridNd<C>`) and therefore run unmodified
/// on either.
pub struct GridNd<'a, C: Communicator = DeviceCtx> {
    ctx: &'a C,
    shape: MeshShape,
    /// World rank of mesh coordinate `[0, 0, ..., 0]` (sub-mesh offset).
    first: usize,
    coords: Vec<usize>,
    axis_groups: Vec<Group>,
}

/// The `q × q` specialization every 2D call site was written against.
/// A pure alias: `Grid2d::new(ctx, q)` still builds a square mesh view and
/// all row/col accessors resolve to the [`GridNd`] inherent methods.
pub type Grid2d<'a, C = DeviceCtx> = GridNd<'a, C>;

impl<'a, C: Communicator> GridNd<'a, C> {
    /// Wraps a device context as a position in a `q × q` mesh.
    pub fn new(ctx: &'a C, q: usize) -> Self {
        assert_eq!(ctx.world_size(), q * q, "world size must be q^2");
        GridNd::sub_mesh(ctx, q, 0)
    }

    /// Wraps a device context as a position in a `dims` mesh covering the
    /// whole world.
    pub fn with_shape(ctx: &'a C, dims: &[usize]) -> Self {
        let shape = MeshShape::new(dims);
        assert_eq!(
            ctx.world_size(),
            shape.len(),
            "world size must match mesh shape {dims:?}"
        );
        GridNd::sub_mesh_nd(ctx, dims, 0)
    }

    /// Wraps a device as a position in a `q × q` **sub-mesh** occupying the
    /// contiguous rank range `[first, first + q²)` of a larger world — the
    /// building block for hybrid data-parallel × tensor-parallel training,
    /// where each data-parallel replica owns one sub-mesh.
    pub fn sub_mesh(ctx: &'a C, q: usize, first: usize) -> Self {
        GridNd::sub_mesh_nd(ctx, &[q, q], first)
    }

    /// N-dimensional form of [`GridNd::sub_mesh`]: the sub-mesh occupies the
    /// contiguous rank range `[first, first + Π dims)`.
    pub fn sub_mesh_nd(ctx: &'a C, dims: &[usize], first: usize) -> Self {
        let shape = MeshShape::new(dims);
        assert!(
            shape.ndim() <= 8,
            "meshes beyond 8 axes are not supported (got {dims:?})"
        );
        let len = shape.len();
        assert!(
            first + len <= ctx.world_size(),
            "sub-mesh [{first}, {}) exceeds world of {}",
            first + len,
            ctx.world_size()
        );
        let rank = ctx.rank();
        assert!(
            rank >= first && rank < first + len,
            "device {rank} is outside sub-mesh starting at {first}"
        );
        let coords = shape.coords_of(rank - first);
        let axis_groups = (0..shape.ndim())
            .map(|axis| {
                let ranks = shape
                    .axis_ranks(&coords, axis)
                    .into_iter()
                    .map(|r| first + r)
                    .collect();
                Group::labeled(ranks, axis_label(shape.ndim(), axis))
            })
            .collect();
        GridNd {
            ctx,
            shape,
            first,
            coords,
            axis_groups,
        }
    }

    /// The underlying communicator (for p2p and world collectives).
    pub fn ctx(&self) -> &C {
        self.ctx
    }

    /// Number of mesh axes.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Extent of one axis.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// The mesh shape.
    pub fn shape(&self) -> &MeshShape {
        &self.shape
    }

    /// Mesh side length `q` for square-fronted meshes (so the SUMMA slice
    /// is `q²` devices). Requires the first two axes to be equal.
    pub fn q(&self) -> usize {
        assert!(
            self.ndim() >= 2 && self.dim(0) == self.dim(1),
            "q() requires a square [q, q, ...] mesh, got {:?}",
            self.shape.dims()
        );
        self.dim(0)
    }

    /// This device's mesh row index (axis-0 coordinate).
    pub fn row(&self) -> usize {
        self.coords[0]
    }

    /// This device's mesh column index (axis-1 coordinate).
    pub fn col(&self) -> usize {
        self.coords[1]
    }

    /// This device's depth index (axis-2 coordinate; 0 on a 2D mesh).
    pub fn depth(&self) -> usize {
        self.coords.get(2).copied().unwrap_or(0)
    }

    /// Extent of the depth axis (1 on a 2D mesh).
    pub fn depth_dim(&self) -> usize {
        if self.ndim() >= 3 {
            self.dim(2)
        } else {
            1
        }
    }

    /// Subgroup obtained by sweeping `axis` while every other coordinate
    /// stays at this device's. Ordered by the `axis` coordinate, so a
    /// device's group index equals its coordinate on that axis.
    pub fn axis_group(&self, axis: usize) -> &Group {
        &self.axis_groups[axis]
    }

    /// Group of the devices in this device's mesh row, ordered by column.
    /// Within this group, a device's index equals its mesh column.
    pub fn row_group(&self) -> &Group {
        &self.axis_groups[1]
    }

    /// Group of the devices in this device's mesh column, ordered by row.
    /// Within this group, a device's index equals its mesh row.
    pub fn col_group(&self) -> &Group {
        &self.axis_groups[0]
    }

    /// Group of the devices along this device's depth fiber, ordered by
    /// depth. Within this group, a device's index equals its depth.
    pub fn depth_group(&self) -> &Group {
        assert!(self.ndim() >= 3, "depth_group() needs a [q, q, d] mesh");
        &self.axis_groups[2]
    }

    /// The `dim(0) × dim(1)` devices sharing this device's depth (and any
    /// higher-axis) coordinates, row-major over `(row, col)`. This is the
    /// set a 2D SUMMA slice computes with; on a 2D mesh it is every device
    /// of the (sub-)mesh.
    pub fn slice_group(&self) -> Group {
        assert!(self.ndim() >= 2, "slice_group() needs at least two axes");
        let mut c = self.coords.clone();
        let mut ranks = Vec::with_capacity(self.dim(0) * self.dim(1));
        for r in 0..self.dim(0) {
            for col in 0..self.dim(1) {
                c[0] = r;
                c[1] = col;
                ranks.push(self.first + self.shape.rank_of(&c));
            }
        }
        Group::labeled(ranks, "slice")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mesh, Mesh2d, MeshNd};

    #[test]
    fn coordinates_are_row_major() {
        let out = Mesh2d::run(3, |g| (g.row(), g.col()));
        assert_eq!(out[0], (0, 0));
        assert_eq!(out[5], (1, 2));
        assert_eq!(out[7], (2, 1));
    }

    #[test]
    fn row_groups_partition_the_world() {
        let out = Mesh2d::run(2, |g| g.row_group().ranks().to_vec());
        assert_eq!(out[0], vec![0, 1]);
        assert_eq!(out[1], vec![0, 1]);
        assert_eq!(out[2], vec![2, 3]);
        assert_eq!(out[3], vec![2, 3]);
    }

    #[test]
    fn col_group_index_equals_row() {
        let out = Mesh2d::run(3, |g| {
            let idx = g.col_group().index_of(g.ctx().rank()).unwrap();
            idx == g.row()
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn row_broadcast_stays_within_row() {
        // Each row broadcasts its row index from column 0; every device must
        // see its own row's value.
        let out = Mesh2d::run(3, |g| {
            let mut data = if g.col() == 0 {
                vec![g.row() as f32]
            } else {
                vec![0.0]
            };
            g.ctx().broadcast(g.row_group(), 0, &mut data);
            data[0]
        });
        assert_eq!(out, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn col_all_reduce_sums_rows() {
        let out = Mesh2d::run(2, |g| {
            let mut data = vec![(g.row() + 1) as f32];
            g.ctx().all_reduce(g.col_group(), &mut data);
            data[0]
        });
        assert_eq!(out, vec![3.0; 4]);
    }

    #[test]
    fn sub_meshes_partition_a_larger_world() {
        // Two disjoint 2x2 sub-meshes inside an 8-device world, running
        // independent column all-reduces.
        let out = Mesh::run(8, |ctx| {
            let first = (ctx.rank() / 4) * 4;
            let g = Grid2d::sub_mesh(ctx, 2, first);
            let mut data = vec![(ctx.rank() + 1) as f32];
            ctx.all_reduce(g.col_group(), &mut data);
            (g.row(), g.col(), data[0])
        });
        // Sub-mesh 0: columns {0,2} and {1,3} -> sums 4 and 6.
        assert_eq!(out[0], (0, 0, 4.0));
        assert_eq!(out[1], (0, 1, 6.0));
        assert_eq!(out[2], (1, 0, 4.0));
        // Sub-mesh 1: columns {4,6} and {5,7} -> sums 12 and 14.
        assert_eq!(out[4], (0, 0, 12.0));
        assert_eq!(out[7], (1, 1, 14.0));
    }

    #[test]
    fn slice_group_covers_the_sub_mesh() {
        let out = Mesh::run(8, |ctx| {
            let first = (ctx.rank() / 4) * 4;
            let g = Grid2d::sub_mesh(ctx, 2, first);
            g.slice_group().ranks().to_vec()
        });
        assert_eq!(out[0], vec![0, 1, 2, 3]);
        assert_eq!(out[5], vec![4, 5, 6, 7]);
    }

    #[test]
    #[should_panic] // "device 5 is outside sub-mesh starting at 0"
    fn sub_mesh_rejects_foreign_ranks() {
        Mesh::run(8, |ctx| {
            let _ = Grid2d::sub_mesh(ctx, 2, 0); // only ranks 0..4 belong
        });
    }

    #[test]
    #[should_panic] // device threads die with "world size must be q^2"
    fn grid_requires_square_world() {
        Mesh::run(6, |ctx| {
            let _ = Grid2d::new(ctx, 2);
        });
    }

    #[test]
    fn depth_mesh_axis_groups_and_labels() {
        let out = MeshNd::run(&[2, 2, 2], |g| {
            (
                g.ctx().rank(),
                g.row(),
                g.col(),
                g.depth(),
                g.row_group().ranks().to_vec(),
                g.col_group().ranks().to_vec(),
                g.depth_group().ranks().to_vec(),
            )
        });
        // Rank 5 = (1, 0, 1): row group sweeps columns (stride d = 2),
        // col group sweeps rows (stride q·d = 4), depth is contiguous.
        let (rank, row, col, depth, rg, cg, dg) = out[5].clone();
        assert_eq!((rank, row, col, depth), (5, 1, 0, 1));
        assert_eq!(rg, vec![5, 7]);
        assert_eq!(cg, vec![1, 5]);
        assert_eq!(dg, vec![4, 5]);

        let labels = MeshNd::run(&[2, 2, 2], |g| {
            (
                g.row_group().label(),
                g.col_group().label(),
                g.depth_group().label(),
                g.axis_group(1).label(),
            )
        });
        assert_eq!(labels[0], ("row", "col", "depth", "row"));
    }

    #[test]
    fn depth_one_grid_matches_the_2d_grid() {
        // [q, q, 1] must expose the identical world view as [q, q]: same
        // coordinates, same subgroup rank sets, so 2D schedules replayed on
        // a depth-1 mesh emit byte-identical logs.
        let flat = Mesh2d::run(2, |g| {
            (
                g.row(),
                g.col(),
                g.row_group().ranks().to_vec(),
                g.col_group().ranks().to_vec(),
            )
        });
        let deep = MeshNd::run(&[2, 2, 1], |g| {
            (
                g.row(),
                g.col(),
                g.row_group().ranks().to_vec(),
                g.col_group().ranks().to_vec(),
            )
        });
        assert_eq!(flat, deep);
    }

    #[test]
    fn slice_group_covers_one_depth_plane() {
        let out = MeshNd::run(&[2, 2, 2], |g| g.slice_group().ranks().to_vec());
        // Depth 0 devices (even ranks) share one slice; depth 1 the other.
        assert_eq!(out[0], vec![0, 2, 4, 6]);
        assert_eq!(out[1], vec![1, 3, 5, 7]);
        assert_eq!(out[5], vec![1, 3, 5, 7]);

        // On a plain 2D mesh the slice is the whole mesh.
        let flat = Mesh2d::run(2, |g| g.slice_group().ranks().to_vec());
        assert_eq!(flat[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn one_axis_mesh_is_the_world() {
        let out = MeshNd::run(&[4], |g| {
            (g.axis_group(0).ranks().to_vec(), g.axis_group(0).label())
        });
        assert_eq!(out[2], (vec![0, 1, 2, 3], "world"));
    }
}
