//! The live interpreter: executes a step list on the mailbox fabric.
//!
//! [`execute`] is the only code that moves collective payloads, always on
//! the device thread: inline for a blocking collective, from the device's
//! posted queue for a posted one (`nonblocking.rs`) — same function, same
//! pool, so a posted collective is bitwise identical to its blocking form.
//! Each `Send` copies (or, under a 16-bit wire dtype, quantizes and packs)
//! its range into a pooled buffer and pushes it to the peer's mailbox; each
//! `Recv` pops the peer's next payload, applies it to its range and
//! recycles the buffer, so steady-state collective traffic allocates
//! nothing.
//!
//! Which steps run is decided in [`crate::schedule`]; the op and link
//! records are written before execution by `comm::run_collective`. All
//! members of a group must call the same collective under the same plan in
//! the same order; ordering between distinct (sender, receiver) pairs is
//! guaranteed by the per-pair FIFO mailboxes.

use crate::comm::{run_collective, Backend, CollBuf, Communicator, StepList};
use crate::fabric::{DeviceCtx, Mailbox};
use crate::group::Group;
use crate::nonblocking::PendingColl;
use crate::pool::BufferPool;
use crate::schedule::{Coll, Combine, RecvMode, Step};
use crate::stats::{CommLog, CommOp};
use crate::wire::{self, packed_len};
use crate::CollPlan;
use std::cell::RefCell;
use std::sync::Arc;

/// Interprets `list` over `buf` as device `rank`: `boxes[d]` is device
/// `d`'s mailbox, `pool` supplies send buffers and takes consumed receives.
pub(crate) fn execute(
    rank: usize,
    boxes: &[Arc<Mailbox>],
    pool: &mut BufferPool,
    list: &StepList,
    buf: &mut [f32],
) {
    let w = list.wire;
    for step in &list.steps {
        match step {
            Step::Send { peer, range } => {
                let data = &buf[range.clone()];
                let mut out = pool.take(packed_len(data.len(), w));
                if w.is_f32() {
                    out.extend_from_slice(data);
                } else {
                    wire::pack_into(data, w, &mut out);
                }
                boxes[*peer].push(rank, *peer, out);
            }
            Step::Recv { peer, range, mode } => {
                let incoming = boxes[rank].pop(*peer, rank);
                let dst = &mut buf[range.clone()];
                assert_eq!(
                    incoming.len(),
                    packed_len(dst.len(), w),
                    "rank {rank} expected {} elems from {peer}, got {} wire slots",
                    dst.len(),
                    incoming.len()
                );
                match (mode, list.combine) {
                    (RecvMode::Copy, _) => apply(&incoming, dst, w, |d, v| *d = v),
                    (RecvMode::Combine, Combine::Sum) => apply(&incoming, dst, w, |d, v| *d += v),
                    (RecvMode::Combine, Combine::Max) => {
                        apply(&incoming, dst, w, |d, v| *d = d.max(v))
                    }
                }
                pool.put(incoming);
            }
            Step::Rotate { left } => buf.rotate_left(*left),
        }
    }
}

/// Applies `f(slot, value)` over a received payload, unpacking it first
/// when it traveled at a 16-bit wire dtype.
fn apply(incoming: &[f32], dst: &mut [f32], w: crate::WireDtype, f: impl Fn(&mut f32, f32)) {
    if w.is_f32() {
        for (d, v) in dst.iter_mut().zip(incoming) {
            f(d, *v);
        }
    } else {
        wire::unpack_with(incoming, dst.len(), w, |i, v| f(&mut dst[i], v));
    }
}

impl Backend for DeviceCtx {
    fn log(&self) -> &RefCell<CommLog> {
        &self.log
    }

    fn run_steps(&self, list: &StepList, buf: &mut [f32]) {
        execute(
            self.rank(),
            &self.boxes,
            &mut self.pool.borrow_mut(),
            list,
            buf,
        );
    }

    fn post_steps(
        &self,
        list: StepList,
        buf: Vec<f32>,
        op: CommOp,
        traced: Option<(u64, trace::OpMeta)>,
    ) -> PendingColl<'_> {
        self.post(list, buf, op, traced)
    }
}

impl Communicator for DeviceCtx {
    fn rank(&self) -> usize {
        DeviceCtx::rank(self)
    }
    fn world_size(&self) -> usize {
        DeviceCtx::world_size(self)
    }
    fn send(&self, to: usize, data: Vec<f32>) {
        DeviceCtx::send(self, to, data)
    }
    fn recv(&self, from: usize) -> Vec<f32> {
        DeviceCtx::recv(self, from)
    }
    fn tables(&self) -> &crate::CollTables {
        &self.tables
    }
    fn collective(
        &self,
        coll: Coll,
        group: &Group,
        buf: CollBuf<'_>,
        plan: CollPlan,
    ) -> Option<PendingColl<'_>> {
        run_collective(self, coll, group, buf, plan)
    }
    fn log_snapshot(&self) -> CommLog {
        DeviceCtx::log_snapshot(self)
    }
    fn take_log(&self) -> CommLog {
        DeviceCtx::take_log(self)
    }
}

/// The blocking collectives as inherent methods, so callers holding a
/// concrete `DeviceCtx` need not import [`Communicator`]; each forwards to
/// the trait method of the same name.
impl DeviceCtx {
    pub fn broadcast(&self, group: &Group, root: usize, data: &mut [f32]) {
        Communicator::broadcast(self, group, root, data)
    }
    pub fn reduce(&self, group: &Group, root: usize, data: &mut [f32]) {
        Communicator::reduce(self, group, root, data)
    }
    pub fn all_reduce(&self, group: &Group, data: &mut [f32]) {
        Communicator::all_reduce(self, group, data)
    }
    pub fn all_gather(&self, group: &Group, local: &[f32]) -> Vec<f32> {
        Communicator::all_gather(self, group, local)
    }
    pub fn reduce_scatter(&self, group: &Group, data: &mut [f32]) -> Vec<f32> {
        Communicator::reduce_scatter(self, group, data)
    }
    pub fn barrier(&self, group: &Group) {
        Communicator::barrier(self, group)
    }
}

#[cfg(test)]
mod tests {
    use crate::schedule::chunk;
    use crate::{Communicator, Group, Mesh};

    #[test]
    fn broadcast_from_every_root() {
        for p in [2usize, 3, 4, 7, 8] {
            for root in 0..p {
                let out = Mesh::run(p, |ctx| {
                    let g = Group::world(p);
                    let mut data = if ctx.rank() == root {
                        vec![1.0, 2.0, 3.0]
                    } else {
                        vec![0.0; 3]
                    };
                    ctx.broadcast(&g, root, &mut data);
                    data
                });
                for (r, d) in out.iter().enumerate() {
                    assert_eq!(d, &vec![1.0, 2.0, 3.0], "p={p} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [2usize, 3, 5, 8] {
            for root in [0, p - 1] {
                let out = Mesh::run(p, |ctx| {
                    let g = Group::world(p);
                    let mut data = vec![ctx.rank() as f32 + 1.0; 4];
                    ctx.reduce(&g, root, &mut data);
                    data
                });
                let expected = (p * (p + 1) / 2) as f32;
                assert_eq!(out[root], vec![expected; 4], "p={p} root={root}");
            }
        }
    }

    #[test]
    fn all_reduce_sums_everywhere() {
        for p in [1usize, 2, 3, 4, 6, 9] {
            let out = Mesh::run(p, |ctx| {
                let g = Group::world(p);
                // Distinct per-rank payload with length not divisible by p.
                let mut data: Vec<f32> = (0..13).map(|i| (ctx.rank() * 100 + i) as f32).collect();
                ctx.all_reduce(&g, &mut data);
                data
            });
            let expected: Vec<f32> = (0..13)
                .map(|i| (0..p).map(|r| (r * 100 + i) as f32).sum())
                .collect();
            for (r, d) in out.iter().enumerate() {
                assert_eq!(d, &expected, "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn all_reduce_max_takes_maximum() {
        let p = 4;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data = vec![-(ctx.rank() as f32), ctx.rank() as f32];
            ctx.all_reduce_max(&g, &mut data);
            data
        });
        for d in out {
            assert_eq!(d, vec![0.0, 3.0]);
        }
    }

    #[test]
    fn all_gather_concatenates_in_group_order() {
        let p = 4;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            ctx.all_gather(&g, &[ctx.rank() as f32, 10.0 * ctx.rank() as f32])
        });
        for d in out {
            assert_eq!(d, vec![0.0, 0.0, 1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_member_its_chunk() {
        let p = 4;
        let n = 8; // 2 elements per chunk
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data: Vec<f32> = (0..n).map(|i| i as f32).collect();
            ctx.reduce_scatter(&g, &mut data)
        });
        for (r, d) in out.iter().enumerate() {
            let expected: Vec<f32> = (2 * r..2 * r + 2).map(|i| (i * p) as f32).collect();
            assert_eq!(d, &expected, "rank={r}");
        }
    }

    #[test]
    fn collectives_work_on_subgroups() {
        // Two disjoint row groups of a 2x2 mesh run broadcasts concurrently.
        let out = Mesh::run(4, |ctx| {
            let row = if ctx.rank() < 2 {
                Group::new(vec![0, 1])
            } else {
                Group::new(vec![2, 3])
            };
            let mut data = if ctx.rank() % 2 == 0 {
                vec![ctx.rank() as f32]
            } else {
                vec![0.0]
            };
            ctx.broadcast(&row, 0, &mut data);
            data[0]
        });
        assert_eq!(out, vec![0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn non_contiguous_group_all_reduce() {
        // A mesh *column* {1, 3} of a 2x2 mesh.
        let out = Mesh::run(4, |ctx| {
            if ctx.rank() % 2 == 1 {
                let col = Group::new(vec![1, 3]);
                let mut data = vec![ctx.rank() as f32];
                ctx.all_reduce(&col, &mut data);
                data[0]
            } else {
                -1.0
            }
        });
        assert_eq!(out, vec![-1.0, 4.0, -1.0, 4.0]);
    }

    #[test]
    fn gather_reassembles_in_group_order() {
        let p = 3;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            ctx.gather(&g, 2, &[ctx.rank() as f32, 10.0 + ctx.rank() as f32])
        });
        assert!(out[0].is_empty());
        assert!(out[1].is_empty());
        assert_eq!(out[2], vec![0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn gather_roundtrips_root_chunks() {
        // Every member contributes its chunk of a known vector; the root
        // must reassemble the vector exactly.
        let p = 4;
        let full: Vec<f32> = (0..12).map(|i| (i as f32).sin()).collect();
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            ctx.gather(&g, 0, &full[chunk(12, p, ctx.rank())])
        });
        assert_eq!(out[0], full);
    }

    #[test]
    fn barrier_completes() {
        let out = Mesh::run(5, |ctx| {
            let g = Group::world(5);
            for _ in 0..3 {
                ctx.barrier(&g);
            }
            true
        });
        assert_eq!(out, vec![true; 5]);
    }

    #[test]
    fn all_reduce_payload_smaller_than_group() {
        // n=2 < g=4: some ring chunks are empty; must still be correct.
        let out = Mesh::run(4, |ctx| {
            let g = Group::world(4);
            let mut data = vec![1.0f32, 2.0];
            ctx.all_reduce(&g, &mut data);
            data
        });
        for d in out {
            assert_eq!(d, vec![4.0, 8.0]);
        }
    }

    #[test]
    fn reduce_scatter_count_not_divisible_by_group() {
        // n=7 over g=4: near-equal ring chunks of sizes 1, 2, 2, 2
        // (boundaries from `chunk`). Every rank contributes the same
        // vector, so member i must receive its chunk scaled by g.
        let (p, n) = (4usize, 7usize);
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data: Vec<f32> = (0..n).map(|i| i as f32).collect();
            ctx.reduce_scatter(&g, &mut data)
        });
        for (r, d) in out.iter().enumerate() {
            let expect: Vec<f32> = chunk(n, p, r).map(|i| (i * p) as f32).collect();
            assert_eq!(d, &expect, "rank={r}");
        }
    }

    #[test]
    fn reduce_scatter_payload_smaller_than_group() {
        // n=3 over g=5: two members own empty chunks; the ring must still
        // deliver the right (possibly empty) slice everywhere.
        let (p, n) = (5usize, 3usize);
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data: Vec<f32> = (0..n).map(|i| 1.0 + i as f32).collect();
            ctx.reduce_scatter(&g, &mut data)
        });
        for (r, d) in out.iter().enumerate() {
            let expect: Vec<f32> = chunk(n, p, r).map(|i| ((1 + i) * p) as f32).collect();
            assert_eq!(d, &expect, "rank={r}");
        }
        assert!(out.iter().any(|d| d.is_empty()), "some chunk must be empty");
    }

    #[test]
    fn all_gather_local_len_not_divisible_by_group() {
        // Local blocks of 5 elements over a group of 3: 15-element result,
        // rank order preserved.
        let p = 3;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let local: Vec<f32> = (0..5).map(|k| (10 * ctx.rank() + k) as f32).collect();
            ctx.all_gather(&g, &local)
        });
        let expect: Vec<f32> = (0..p)
            .flat_map(|r| (0..5).map(move |k| (10 * r + k) as f32))
            .collect();
        for d in out {
            assert_eq!(d, expect);
        }
    }

    #[test]
    fn broadcast_then_reduce_roundtrip() {
        // broadcast(x) then reduce(sum) should yield g*x at the root.
        let p = 8;
        let out = Mesh::run(p, |ctx| {
            let g = Group::world(p);
            let mut data = if ctx.rank() == 0 {
                vec![2.5; 6]
            } else {
                vec![0.0; 6]
            };
            ctx.broadcast(&g, 0, &mut data);
            ctx.reduce(&g, 0, &mut data);
            data
        });
        assert_eq!(out[0], vec![20.0; 6]);
    }

    #[test]
    fn log_records_collectives() {
        let (_, logs) = Mesh::run_with_logs(4, |ctx| {
            let g = Group::world(4);
            let mut d = vec![0.0f32; 16];
            ctx.all_reduce(&g, &mut d);
            ctx.broadcast(&g, 0, &mut d);
        });
        for log in &logs {
            assert_eq!(log.op_count(crate::CommOp::AllReduce), 1);
            assert_eq!(log.op_elems(crate::CommOp::AllReduce), 16);
            assert_eq!(log.op_count(crate::CommOp::Broadcast), 1);
        }
        // Ring all-reduce wire traffic: each device sends 2(g-1)/g * n elems.
        let ar_link_elems: usize = logs[0]
            .links
            .iter()
            .take(6) // 2*(g-1) = 6 sends of n/g = 4 elements each
            .map(|l| l.elems)
            .sum();
        assert_eq!(ar_link_elems, 24);
    }
}
