//! Mesh launchers.
//!
//! [`MeshRun`] is the one launcher: a mesh shape plus the [`AlgoTable`] its
//! devices select from, with a live and a trace-only way of running a
//! program on it, each with and without [`trace`] timelines. [`Mesh`],
//! [`Mesh2d`] and [`MeshNd`] are the historical entry points — a flat world,
//! a `q × q` mesh, any `[d0, ..., dk]` mesh — and mean "under the baseline
//! tables"; each is a one-line delegation.

use crate::algo::AlgoTable;
use crate::comm::Communicator;
use crate::dryrun::{DryRunComm, DryWire};
use crate::fabric::{build_fabric, DeviceCtx};
use crate::mesh2d::{Grid2d, GridNd};
use crate::shape::MeshShape;
use crate::stats::CommLog;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{mpsc, Arc};
use trace::DeviceTrace;

/// One mesh launch: the shape, and the algorithm table every device of the
/// run resolves its [`crate::CollAlgo`]s from.
pub struct MeshRun {
    shape: MeshShape,
    tables: Arc<AlgoTable>,
}

impl MeshRun {
    pub fn new(dims: &[usize], tables: AlgoTable) -> Self {
        MeshRun {
            shape: MeshShape::new(dims),
            tables: Arc::new(tables),
        }
    }

    /// Spawns one thread per device, hands each a [`GridNd`] view wired to
    /// every peer, and returns the per-device results and [`CommLog`]s in
    /// rank order. A panic in any device propagates to the caller.
    pub fn run_with_logs<T, F>(&self, f: F) -> (Vec<T>, Vec<CommLog>)
    where
        T: Send,
        F: Fn(&GridNd) -> T + Sync,
    {
        let p = self.shape.len();
        let mut ctxs = build_fabric(p, &self.tables);
        let (f, dims) = (&f, self.shape.dims());
        let mut results: Vec<Option<(T, CommLog)>> = (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, T, CommLog)>();
            for ctx in ctxs.drain(..) {
                let tx = tx.clone();
                scope.spawn(move || {
                    // When metrics collection is enabled, give this device
                    // thread its own registry (allocation tracker, wait
                    // histograms); harvested per rank after `f` returns.
                    let installed = metrics::device_install();
                    let out = f(&GridNd::with_shape(&ctx, dims));
                    let rank = ctx.rank();
                    if installed {
                        metrics::device_finish(rank);
                    }
                    let log = ctx.take_log();
                    // Send failure is only possible if the main thread
                    // already panicked; nothing useful to do then.
                    let _ = tx.send((rank, out, log));
                });
            }
            drop(tx);
            while let Ok((rank, out, log)) = rx.recv() {
                results[rank] = Some((out, log));
            }
        });
        results
            .into_iter()
            .enumerate()
            .map(|(rank, slot)| slot.unwrap_or_else(|| panic!("device {rank} produced no result")))
            .unzip()
    }

    /// Like [`MeshRun::run_with_logs`], but installs a wall-clock [`trace`]
    /// collector on every device thread and returns the per-device
    /// timelines too. Spans opened with `trace::span` inside `f` and op
    /// events from every [`Communicator`] collective land in the device's
    /// own timeline.
    pub fn run_traced<T, F>(&self, f: F) -> (Vec<T>, Vec<CommLog>, Vec<DeviceTrace>)
    where
        T: Send,
        F: Fn(&GridNd) -> T + Sync,
    {
        let (pairs, logs) = self.run_with_logs(|g| {
            trace::start_wall();
            let out = f(g);
            let trace = trace::finish(g.ctx().rank()).expect("collector installed above");
            (out, trace)
        });
        let (outs, traces) = pairs.into_iter().unzip();
        (outs, logs, traces)
    }

    /// Replays `f` once per rank on the **current thread** through a
    /// [`DryRunComm`], returning results and logs shaped exactly like
    /// [`MeshRun::run_with_logs`]. No threads are spawned and no data moves.
    pub fn dry_run_with_logs<T, F>(&self, f: F) -> (Vec<T>, Vec<CommLog>)
    where
        F: Fn(&GridNd<DryRunComm>) -> T,
    {
        let (outs, logs, _) = self.dry_run(f, None);
        (outs, logs)
    }

    /// Like [`MeshRun::dry_run_with_logs`], but installs a fresh
    /// virtual-clock [`trace`] collector per rank and returns the per-device
    /// timelines. `pricer` maps each collective's [`trace::OpMeta`] to its
    /// modeled duration in nanoseconds (build one from `perf::CostModel`),
    /// so the trace's "measured" durations are the α-β model's predictions.
    pub fn dry_run_traced<T, F>(
        &self,
        pricer: impl Fn(&trace::OpMeta) -> u64 + 'static,
        f: F,
    ) -> (Vec<T>, Vec<CommLog>, Vec<DeviceTrace>)
    where
        F: Fn(&GridNd<DryRunComm>) -> T,
    {
        self.dry_run(f, Some(Rc::new(pricer)))
    }

    fn dry_run<T, F>(
        &self,
        f: F,
        pricer: Option<trace::Pricer>,
    ) -> (Vec<T>, Vec<CommLog>, Vec<DeviceTrace>)
    where
        F: Fn(&GridNd<DryRunComm>) -> T,
    {
        let p = self.shape.len();
        let wire = Rc::new(RefCell::new(DryWire::default()));
        let mut outs = Vec::with_capacity(p);
        let mut logs = Vec::with_capacity(p);
        let mut traces = Vec::new();
        for rank in 0..p {
            let comm = DryRunComm::new(rank, p, Rc::clone(&wire), self.tables.clone());
            if let Some(pricer) = &pricer {
                trace::start_virtual(Rc::clone(pricer));
            }
            outs.push(f(&GridNd::with_shape(&comm, self.shape.dims())));
            if pricer.is_some() {
                traces.push(trace::finish(rank).expect("collector installed above"));
            }
            logs.push(comm.take_log());
        }
        (outs, logs, traces)
    }
}

fn baseline(dims: &[usize]) -> MeshRun {
    MeshRun::new(dims, AlgoTable::default())
}

/// A flat world of `p` devices under the baseline tables: `f` gets the
/// device context itself.
pub struct Mesh;

impl Mesh {
    /// [`MeshRun::run_with_logs`] without the logs.
    pub fn run<T, F>(p: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&DeviceCtx) -> T + Sync,
    {
        Self::run_with_logs(p, f).0
    }

    /// See [`MeshRun::run_with_logs`].
    pub fn run_with_logs<T, F>(p: usize, f: F) -> (Vec<T>, Vec<CommLog>)
    where
        T: Send,
        F: Fn(&DeviceCtx) -> T + Sync,
    {
        baseline(&[p]).run_with_logs(|g| f(g.ctx()))
    }

    /// See [`MeshRun::run_traced`].
    pub fn run_traced<T, F>(p: usize, f: F) -> (Vec<T>, Vec<CommLog>, Vec<DeviceTrace>)
    where
        T: Send,
        F: Fn(&DeviceCtx) -> T + Sync,
    {
        baseline(&[p]).run_traced(|g| f(g.ctx()))
    }

    /// See [`MeshRun::dry_run_with_logs`].
    pub fn dry_run_with_logs<T, F>(p: usize, f: F) -> (Vec<T>, Vec<CommLog>)
    where
        F: Fn(&DryRunComm) -> T,
    {
        baseline(&[p]).dry_run_with_logs(|g| f(g.ctx()))
    }

    /// See [`MeshRun::dry_run_traced`].
    pub fn dry_run_traced<T, F>(
        p: usize,
        pricer: impl Fn(&trace::OpMeta) -> u64 + 'static,
        f: F,
    ) -> (Vec<T>, Vec<CommLog>, Vec<DeviceTrace>)
    where
        F: Fn(&DryRunComm) -> T,
    {
        baseline(&[p]).dry_run_traced(pricer, |g| f(g.ctx()))
    }
}

/// The classic `q × q` SUMMA mesh under the baseline tables. Rank `r` sits
/// at row `r / q`, column `r % q` (row-major). The physical placement of
/// ranks onto nodes is a separate concern handled by [`crate::Topology`] —
/// swapping arrangements (Fig. 8) changes communication *cost*, never
/// program logic.
pub struct Mesh2d;

impl Mesh2d {
    /// [`MeshRun::run_with_logs`] without the logs.
    pub fn run<T, F>(q: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Grid2d) -> T + Sync,
    {
        MeshNd::run(&[q, q], f)
    }

    /// See [`MeshRun::run_with_logs`].
    pub fn run_with_logs<T, F>(q: usize, f: F) -> (Vec<T>, Vec<CommLog>)
    where
        T: Send,
        F: Fn(&Grid2d) -> T + Sync,
    {
        MeshNd::run_with_logs(&[q, q], f)
    }

    /// See [`MeshRun::run_traced`].
    pub fn run_traced<T, F>(q: usize, f: F) -> (Vec<T>, Vec<CommLog>, Vec<DeviceTrace>)
    where
        T: Send,
        F: Fn(&Grid2d) -> T + Sync,
    {
        MeshNd::run_traced(&[q, q], f)
    }

    /// See [`MeshRun::dry_run_with_logs`].
    pub fn dry_run_with_logs<T, F>(q: usize, f: F) -> (Vec<T>, Vec<CommLog>)
    where
        F: Fn(&Grid2d<DryRunComm>) -> T,
    {
        MeshNd::dry_run_with_logs(&[q, q], f)
    }

    /// See [`MeshRun::dry_run_traced`].
    pub fn dry_run_traced<T, F>(
        q: usize,
        pricer: impl Fn(&trace::OpMeta) -> u64 + 'static,
        f: F,
    ) -> (Vec<T>, Vec<CommLog>, Vec<DeviceTrace>)
    where
        F: Fn(&Grid2d<DryRunComm>) -> T,
    {
        MeshNd::dry_run_traced(&[q, q], pricer, f)
    }
}

/// An arbitrary `[d0, d1, ..., dk]` mesh under the baseline tables.
pub struct MeshNd;

impl MeshNd {
    /// [`MeshRun::run_with_logs`] without the logs.
    pub fn run<T, F>(dims: &[usize], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&GridNd) -> T + Sync,
    {
        baseline(dims).run_with_logs(f).0
    }

    /// See [`MeshRun::run_with_logs`].
    pub fn run_with_logs<T, F>(dims: &[usize], f: F) -> (Vec<T>, Vec<CommLog>)
    where
        T: Send,
        F: Fn(&GridNd) -> T + Sync,
    {
        baseline(dims).run_with_logs(f)
    }

    /// See [`MeshRun::run_traced`].
    pub fn run_traced<T, F>(dims: &[usize], f: F) -> (Vec<T>, Vec<CommLog>, Vec<DeviceTrace>)
    where
        T: Send,
        F: Fn(&GridNd) -> T + Sync,
    {
        baseline(dims).run_traced(f)
    }

    /// See [`MeshRun::dry_run_with_logs`].
    pub fn dry_run_with_logs<T, F>(dims: &[usize], f: F) -> (Vec<T>, Vec<CommLog>)
    where
        F: Fn(&GridNd<DryRunComm>) -> T,
    {
        baseline(dims).dry_run_with_logs(f)
    }

    /// See [`MeshRun::dry_run_traced`].
    pub fn dry_run_traced<T, F>(
        dims: &[usize],
        pricer: impl Fn(&trace::OpMeta) -> u64 + 'static,
        f: F,
    ) -> (Vec<T>, Vec<CommLog>, Vec<DeviceTrace>)
    where
        F: Fn(&GridNd<DryRunComm>) -> T,
    {
        baseline(dims).dry_run_traced(pricer, f)
    }
}
