//! The trace-only [`Communicator`] backend.
//!
//! [`DryRunComm`] moves no data and spawns no threads. Each collective gets
//! the *same* step list ([`crate::coll_steps`]) and the same op/link records
//! as on the live `DeviceCtx` — written by the shared
//! `comm::run_collective` — and then interprets the list by doing nothing.
//! Running a distributed program once per rank on a single thread therefore
//! yields communication logs byte-for-byte identical to a live mesh run
//! (asserted by `tests/dryrun_equivalence.rs`), at the cost of the numerical
//! results being garbage: received payloads are zeros.
//!
//! This works because every distributed program in this workspace is
//! **data-independent**: its communication pattern depends only on shapes
//! and mesh geometry, never on tensor values. That is also the property the
//! α-β cost model relies on, so a dry run is exactly enough to price a step
//! on a projected mesh (`optimus-cli --dry-run`) without simulating it.
//!
//! With [`crate::MeshRun::dry_run_traced`] the same replay also produces full
//! [`trace::DeviceTrace`] timelines: a fresh virtual-clock collector is
//! installed per rank, advanced by a caller-supplied α-β pricer, so the
//! "measured" durations of a dry-run trace *are* the model's predictions.
//!
//! # Limitations
//!
//! * Non-root `broadcast` buffers must be pre-sized (the live backend learns
//!   the size from the wire; there is no wire here). Library call sites do
//!   this unconditionally.
//! * Point-to-point `recv` requires the matching `send` to have already run,
//!   i.e. the sender's rank was replayed earlier. Forward pipelines satisfy
//!   this; cyclic p2p patterns (Cannon shifts) need the live backend.

use crate::comm::{run_collective, Backend, CollBuf, Communicator, StepList};
use crate::group::Group;
use crate::nonblocking::PendingColl;
use crate::schedule::Coll;
use crate::stats::{CommLog, CommOp};
use crate::{CollPlan, CollTables};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Shared p2p bookkeeping: payload sizes in flight per (src, dst) pair.
#[derive(Default)]
pub(crate) struct DryWire {
    queued: HashMap<(usize, usize), VecDeque<usize>>,
}

/// Trace-only communicator for one simulated rank. See the module docs.
pub struct DryRunComm {
    rank: usize,
    p: usize,
    log: RefCell<CommLog>,
    wire: Rc<RefCell<DryWire>>,
    tables: Arc<CollTables>,
}

impl DryRunComm {
    pub(crate) fn new(
        rank: usize,
        p: usize,
        wire: Rc<RefCell<DryWire>>,
        tables: Arc<CollTables>,
    ) -> Self {
        DryRunComm {
            rank,
            p,
            log: RefCell::new(CommLog::new(rank)),
            wire,
            tables,
        }
    }

    /// Pops the length of the oldest unmatched send `from` → this rank.
    fn pop_queued(&self, from: usize) -> Option<usize> {
        self.wire
            .borrow_mut()
            .queued
            .get_mut(&(from, self.rank))
            .and_then(|q| q.pop_front())
    }
}

impl Backend for DryRunComm {
    fn log(&self) -> &RefCell<CommLog> {
        &self.log
    }

    /// No wire, nothing to move: the records are the whole interpretation.
    fn run_steps(&self, _list: &StepList, _buf: &mut [f32]) {}

    /// Completes at post — there is no wire for the transfer to overlap
    /// with. Under a traced dry run the op event is still emitted at `wait`,
    /// spanning `[post, post + priced duration]` on the virtual clock, which
    /// is how a dry run prices comm/compute overlap.
    fn post_steps(
        &self,
        _list: StepList,
        buf: Vec<f32>,
        op: CommOp,
        traced: Option<(u64, trace::OpMeta)>,
    ) -> PendingColl<'_> {
        PendingColl::ready(op, buf, traced)
    }
}

impl Communicator for DryRunComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.p
    }

    fn send(&self, to: usize, data: Vec<f32>) {
        assert!(to < self.p, "send to rank {to} out of range (p={})", self.p);
        self.log.borrow_mut().record_link(self.rank, to, data.len());
        self.wire
            .borrow_mut()
            .queued
            .entry((self.rank, to))
            .or_default()
            .push_back(data.len());
    }

    fn recv(&self, from: usize) -> Vec<f32> {
        let len = self.pop_queued(from).unwrap_or_else(|| {
            panic!(
                "dry-run recv at {} from {from} has no matching send; \
                 p2p patterns with cyclic dependencies need the live backend",
                self.rank
            )
        });
        vec![0.0; len]
    }

    fn recv_expect(&self, from: usize, len: usize) -> Vec<f32> {
        // Sequential replay means a send from a higher rank has not happened
        // yet when a lower rank's recv replays (the backward hops of a 1F1B
        // pipeline). The caller declared the payload length, and receives
        // record nothing in the log, so synthesizing zeros keeps the op/link
        // streams byte-identical to a live run. When the matching send *did*
        // already replay, consume it so the queue stays balanced.
        if let Some(sent) = self.pop_queued(from) {
            assert_eq!(
                sent, len,
                "dry-run recv_expect at {} from {from}: declared {len} elems, send queued {sent}",
                self.rank
            );
        }
        vec![0.0; len]
    }

    fn tables(&self) -> &CollTables {
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
        self.log.borrow().clone()
    }

    fn take_log(&self) -> CommLog {
        std::mem::replace(&mut self.log.borrow_mut(), CommLog::new(self.rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Group, Mesh};

    /// Assert the dry-run op and link streams equal the live ones for a
    /// given closure runnable on both backends.
    fn assert_logs_match<FL, FD>(p: usize, live: FL, dry: FD)
    where
        FL: Fn(&crate::DeviceCtx) + Sync,
        FD: Fn(&DryRunComm),
    {
        let (_, live_logs) = Mesh::run_with_logs(p, |ctx| live(ctx));
        let (_, dry_logs) = Mesh::dry_run_with_logs(p, |c| dry(c));
        for (l, d) in live_logs.iter().zip(&dry_logs) {
            assert_eq!(l.ops, d.ops, "op stream mismatch at rank {}", l.rank);
            assert_eq!(l.links, d.links, "link stream mismatch at rank {}", l.rank);
        }
    }

    #[test]
    fn broadcast_trace_matches_live() {
        for p in [2usize, 3, 4, 7] {
            for root in 0..p {
                assert_logs_match(
                    p,
                    |ctx| {
                        let g = Group::world(p);
                        let mut data = vec![1.0f32; 10];
                        crate::DeviceCtx::broadcast(ctx, &g, root, &mut data);
                    },
                    |c| {
                        let g = Group::world(p);
                        let mut data = vec![0.0f32; 10];
                        Communicator::broadcast(c, &g, root, &mut data);
                    },
                );
            }
        }
    }

    #[test]
    fn reduce_trace_matches_live() {
        for p in [2usize, 5, 8] {
            assert_logs_match(
                p,
                |ctx| {
                    let g = Group::world(p);
                    let mut data = vec![1.0f32; 7];
                    crate::DeviceCtx::reduce(ctx, &g, p - 1, &mut data);
                },
                |c| {
                    let g = Group::world(p);
                    let mut data = vec![0.0f32; 7];
                    Communicator::reduce(c, &g, p - 1, &mut data);
                },
            );
        }
    }

    #[test]
    fn ring_traces_match_live_including_uneven_chunks() {
        // 13 elements over 4 or 6 members: uneven ring chunks.
        for p in [4usize, 6] {
            assert_logs_match(
                p,
                |ctx| {
                    let g = Group::world(p);
                    let mut data = vec![1.0f32; 13];
                    crate::DeviceCtx::all_reduce(ctx, &g, &mut data);
                    let mut data = vec![1.0f32; 13];
                    let _ = crate::DeviceCtx::reduce_scatter(ctx, &g, &mut data);
                    let _ = crate::DeviceCtx::all_gather(ctx, &g, &[0.0; 3]);
                },
                |c| {
                    let g = Group::world(p);
                    let mut data = vec![0.0f32; 13];
                    Communicator::all_reduce(c, &g, &mut data);
                    let mut data = vec![0.0f32; 13];
                    let _ = Communicator::reduce_scatter(c, &g, &mut data);
                    let _ = Communicator::all_gather(c, &g, &[0.0; 3]);
                },
            );
        }
    }

    #[test]
    fn barrier_and_subgroup_traces_match_live() {
        assert_logs_match(
            4,
            |ctx| {
                let row = if crate::DeviceCtx::rank(ctx) < 2 {
                    Group::new(vec![0, 1])
                } else {
                    Group::new(vec![2, 3])
                };
                ctx.barrier(&row);
                let mut d = vec![1.0f32; 5];
                crate::DeviceCtx::all_reduce(ctx, &row, &mut d);
            },
            |c| {
                let row = if Communicator::rank(c) < 2 {
                    Group::new(vec![0, 1])
                } else {
                    Group::new(vec![2, 3])
                };
                Communicator::barrier(c, &row);
                let mut d = vec![0.0f32; 5];
                Communicator::all_reduce(c, &row, &mut d);
            },
        );
    }

    #[test]
    fn p2p_forward_chain_works() {
        // Rank r sends to r+1; replay order (0, 1, 2, ...) satisfies the
        // matching-send requirement.
        let (outs, logs) = Mesh::dry_run_with_logs(3, |c| {
            if Communicator::rank(c) > 0 {
                let got = Communicator::recv(c, Communicator::rank(c) - 1);
                assert_eq!(got.len(), 4);
            }
            if Communicator::rank(c) + 1 < c.world_size() {
                Communicator::send(c, Communicator::rank(c) + 1, vec![0.0; 4]);
            }
            Communicator::rank(c)
        });
        assert_eq!(outs, vec![0, 1, 2]);
        assert_eq!(logs[0].total_link_elems(), 4);
        assert_eq!(logs[2].total_link_elems(), 0);
    }

    #[test]
    #[should_panic]
    fn p2p_backward_dependency_panics() {
        Mesh::dry_run_with_logs(2, |c| {
            if Communicator::rank(c) == 0 {
                Communicator::recv(c, 1); // rank 1 has not replayed yet
            }
        });
    }

    #[test]
    fn recv_expect_replays_backward_dependencies() {
        // The same cyclic pattern that panics with a plain recv: rank 0
        // receives from rank 1 before rank 1 has replayed. recv_expect
        // synthesizes the declared length, and because receives record
        // nothing, the logs match a live run of the identical program.
        let (_, live_logs) = Mesh::run_with_logs(2, |ctx| {
            if Communicator::rank(ctx) == 0 {
                let got = ctx.recv_expect(1, 6);
                assert_eq!(got.len(), 6);
            } else {
                Communicator::send(ctx, 0, vec![2.0; 6]);
            }
        });
        let (_, dry_logs) = Mesh::dry_run_with_logs(2, |c| {
            if Communicator::rank(c) == 0 {
                let got = c.recv_expect(1, 6);
                assert_eq!(got.len(), 6);
            } else {
                Communicator::send(c, 0, vec![0.0; 6]);
            }
        });
        for (l, d) in live_logs.iter().zip(&dry_logs) {
            assert_eq!(l.ops, d.ops);
            assert_eq!(l.links, d.links);
        }
    }

    #[test]
    fn recv_expect_consumes_already_replayed_sends() {
        // Forward direction: the matching send replays first, so recv_expect
        // must consume it (keeping the queue balanced) and check the length.
        Mesh::dry_run_with_logs(2, |c| {
            if Communicator::rank(c) == 0 {
                Communicator::send(c, 1, vec![0.0; 3]);
            } else {
                let got = c.recv_expect(0, 3);
                assert_eq!(got.len(), 3);
            }
        });
    }

    #[test]
    fn gather_traces_match_live() {
        let p = 4;
        let (_, live_logs) = Mesh::run_with_logs(p, |ctx| {
            let g = Group::world(p);
            let _ = Communicator::gather(ctx, &g, 0, &[1.0; 3]);
        });
        let (_, dry_logs) = Mesh::dry_run_with_logs(p, |c| {
            let g = Group::world(p);
            let _ = Communicator::gather(c, &g, 0, &[1.0; 3]);
        });
        for (l, d) in live_logs.iter().zip(&dry_logs) {
            assert_eq!(l.ops, d.ops);
            assert_eq!(l.links, d.links);
        }
    }

    #[test]
    fn dry_run_traced_prices_with_virtual_clock() {
        // 1 ns per logical element: two all-reduces of 100 elems end at
        // t=100 and t=200 virtual ns on every rank.
        let (_, _, traces) = Mesh::dry_run_traced(
            2,
            |m: &trace::OpMeta| m.elems as u64,
            |c| {
                let g = Group::world(2);
                let mut d = vec![0.0f32; 100];
                Communicator::all_reduce(c, &g, &mut d);
                Communicator::all_reduce(c, &g, &mut d);
            },
        );
        assert_eq!(traces.len(), 2);
        for dev in &traces {
            let ends: Vec<u64> = dev
                .events
                .iter()
                .map(|e| match e {
                    trace::Event::Op { t1_ns, .. } => *t1_ns,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(ends, vec![100, 200]);
        }
    }

    #[test]
    fn traced_barrier_is_one_event() {
        // The dry barrier is built from reduce + broadcast; the tracer's
        // depth guard must collapse it to a single Barrier op event.
        let (_, logs, traces) = Mesh::dry_run_traced(
            2,
            |_: &trace::OpMeta| 1,
            |c| Communicator::barrier(c, &Group::world(2)),
        );
        for dev in &traces {
            assert_eq!(dev.events.len(), 1, "events: {:?}", dev.events);
            match &dev.events[0] {
                trace::Event::Op { meta, .. } => assert_eq!(meta.kind, "Barrier"),
                other => panic!("unexpected {other:?}"),
            }
        }
        // The CommLog still sees the constituent collectives.
        assert_eq!(logs[0].ops.len(), 3);
    }

    #[test]
    fn commlog_records_are_span_tagged() {
        let (_, logs, traces) = Mesh::dry_run_traced(
            2,
            |_: &trace::OpMeta| 1,
            |c| {
                let g = Group::world(2);
                trace::span("phase", || {
                    let mut d = vec![0.0f32; 8];
                    Communicator::all_reduce(c, &g, &mut d);
                });
            },
        );
        for log in &logs {
            assert_eq!(log.ops[0].span, 1, "op should carry the open span id");
            for l in &log.links {
                assert_eq!(l.span, 1);
            }
        }
        // And the op event sits under the same span.
        match &traces[0].events[1] {
            trace::Event::Op { span, .. } => assert_eq!(*span, 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
