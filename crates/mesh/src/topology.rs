//! Physical placement of logical devices onto multi-GPU nodes.
//!
//! The paper's Figure 8: on a cluster with `g` GPUs per node, the *naive*
//! row-major placement puts each mesh row inside one node, so every **column**
//! collective crosses all nodes and its traffic crowds onto the inter-node
//! cables. The *bunched* placement tiles the mesh with `a × b` node-sized
//! rectangles, so both row and column collectives span fewer nodes.
//!
//! A [`Topology`] maps world ranks to node ids; the `perf` crate uses it to
//! pick intra- vs inter-node bandwidth per link and to count how many
//! concurrent flows share a node's uplink (the "crowding" of Fig. 8).

/// Placement strategy for a `q × q` mesh on nodes of `gpus_per_node` devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrangement {
    /// Rank-major: node = rank / gpus_per_node (Fig. 8a).
    Naive,
    /// Rectangular tiles of one node each (Fig. 8b).
    Bunched,
}

/// Mapping from world rank to physical node.
#[derive(Clone, Debug)]
pub struct Topology {
    node_of: Vec<usize>,
    gpus_per_node: usize,
}

/// Largest divisor of `n` that is ≤ √n — the tile height used by the
/// bunched arrangement (for 4 GPUs/node this gives 2×2 tiles).
fn tile_side(n: usize) -> usize {
    let mut best = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            best = d;
        }
        d += 1;
    }
    best
}

impl Topology {
    /// Builds a placement for a `q × q` mesh.
    ///
    /// `gpus_per_node` must divide `q²` (every node fully populated), which
    /// holds for all of the paper's configurations (4 GPUs/node on Frontera).
    pub fn new(q: usize, gpus_per_node: usize, arrangement: Arrangement) -> Self {
        let p = q * q;
        assert!(gpus_per_node > 0);
        assert_eq!(
            p % gpus_per_node,
            0,
            "p={p} must be a multiple of gpus_per_node={gpus_per_node}"
        );
        let node_of = match arrangement {
            Arrangement::Naive => (0..p).map(|r| r / gpus_per_node).collect(),
            Arrangement::Bunched => {
                // Tile the q x q mesh with (a x b) rectangles, a*b = g.
                let a = tile_side(gpus_per_node).min(q);
                let a = if gpus_per_node.is_multiple_of(a) {
                    a
                } else {
                    1
                };
                let b = gpus_per_node / a;
                if !q.is_multiple_of(a) || !q.is_multiple_of(b) {
                    // Mesh not tileable by this rectangle; fall back to
                    // naive (still a valid placement, just not bunched).
                    return Topology::new(q, gpus_per_node, Arrangement::Naive);
                }
                let tiles_per_row = q / b;
                let shape = crate::MeshShape::new(&[q, q]);
                (0..p)
                    .map(|r| {
                        let rc = shape.coords_of(r);
                        let (row, col) = (rc[0], rc[1]);
                        (row / a) * tiles_per_row + col / b
                    })
                    .collect()
            }
        };
        Topology {
            node_of,
            gpus_per_node,
        }
    }

    /// Rank-major placement of a flat (non-mesh) world: node = rank / g.
    /// Used for the 1D scheme, whose world size need not be square.
    pub fn flat(p: usize, gpus_per_node: usize) -> Self {
        assert!(gpus_per_node > 0);
        Topology {
            node_of: (0..p).map(|r| r / gpus_per_node).collect(),
            gpus_per_node,
        }
    }

    /// A single-node topology (everything intra-node).
    pub fn single_node(p: usize) -> Self {
        Topology {
            node_of: vec![0; p],
            gpus_per_node: p,
        }
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.node_of.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_of.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Devices per node.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Number of distinct nodes spanned by a set of ranks — the quantity
    /// Fig. 8 minimises for column groups.
    pub fn nodes_spanned(&self, ranks: &[usize]) -> usize {
        let mut nodes: Vec<usize> = ranks.iter().map(|&r| self.node_of[r]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col_ranks(q: usize, col: usize) -> Vec<usize> {
        (0..q).map(|i| i * q + col).collect()
    }

    fn row_ranks(q: usize, row: usize) -> Vec<usize> {
        (0..q).map(|j| row * q + j).collect()
    }

    #[test]
    fn naive_rows_are_intra_node_columns_span_all() {
        // Paper's example: 4 nodes x 4 GPUs, 4x4 mesh.
        let t = Topology::new(4, 4, Arrangement::Naive);
        assert_eq!(t.num_nodes(), 4);
        for row in 0..4 {
            assert_eq!(t.nodes_spanned(&row_ranks(4, row)), 1);
        }
        for col in 0..4 {
            assert_eq!(t.nodes_spanned(&col_ranks(4, col)), 4);
        }
    }

    #[test]
    fn bunched_halves_column_span() {
        // Fig. 8b: 2x2 tiles -> each row and each column spans 2 nodes.
        let t = Topology::new(4, 4, Arrangement::Bunched);
        assert_eq!(t.num_nodes(), 4);
        for row in 0..4 {
            assert_eq!(t.nodes_spanned(&row_ranks(4, row)), 2);
        }
        for col in 0..4 {
            assert_eq!(t.nodes_spanned(&col_ranks(4, col)), 2);
        }
    }

    #[test]
    fn bunched_8x8_mesh() {
        // 64 GPUs, 4 per node: 2x2 tiles; each column spans 4 of 16 nodes.
        let t = Topology::new(8, 4, Arrangement::Bunched);
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.nodes_spanned(&col_ranks(8, 3)), 4);
        let naive = Topology::new(8, 4, Arrangement::Naive);
        assert_eq!(naive.nodes_spanned(&col_ranks(8, 3)), 8);
    }

    #[test]
    fn single_node_is_all_intra() {
        let t = Topology::single_node(9);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.nodes_spanned(&[0, 8]), 1);
    }

    #[test]
    fn tile_side_examples() {
        assert_eq!(tile_side(4), 2);
        assert_eq!(tile_side(8), 2);
        assert_eq!(tile_side(16), 4);
        assert_eq!(tile_side(6), 2);
        assert_eq!(tile_side(1), 1);
    }

    #[test]
    fn untileable_mesh_falls_back_to_naive() {
        // q=3 with 4 GPUs/node cannot be tiled with 2x2 rectangles, but
        // p=9 isn't even a multiple of 4, so use q=6, g=9: tile 3x3 works.
        let t = Topology::new(6, 9, Arrangement::Bunched);
        assert_eq!(t.num_nodes(), 4);
        // And a genuinely untileable case: q=6, g=12 -> a=3, b=4; 6 % 4 != 0.
        let t2 = Topology::new(6, 12, Arrangement::Bunched);
        let naive = Topology::new(6, 12, Arrangement::Naive);
        assert_eq!(t2.node_of, naive.node_of);
    }
}
