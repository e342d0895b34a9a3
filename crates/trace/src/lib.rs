//! Structured tracing: phase-scoped spans and per-device timelines.
//!
//! The paper's whole argument is a communication/compute cost breakdown
//! (Eqs. 4–5, Table 1), but a byte count alone cannot say *where* in a
//! training step a collective happened. This crate records, per device, a
//! timeline of
//!
//! * **spans** — named phases opened with [`span`] (e.g. `"fwd.linear2d"`),
//!   nested like a call stack, and
//! * **op events** — one per collective, stamped with begin/end times and an
//!   [`OpMeta`] describing the group and payload,
//!
//! and exports them as a Chrome `trace_event` JSON ([`chrome_trace`],
//! loadable in Perfetto / `chrome://tracing`) and a per-phase summary table
//! ([`summarize`]). See `OBSERVABILITY.md` at the repo root for the full
//! story.
//!
//! # Collector model
//!
//! The collector is **thread-local** and off by default: [`span`] and the
//! `op_begin`/`op_end` pair are no-ops (one thread-local read) until a
//! collector is installed with [`start_wall`] or [`start_virtual`]. This is
//! what lets one API serve both `Communicator` backends:
//!
//! * the live mesh runs one OS thread per device, so each device thread
//!   installs a wall-clock collector ([`start_wall`]) and its spans nest
//!   naturally;
//! * the dry-run mesh replays ranks sequentially on a single thread, so it
//!   installs a fresh **virtual-clock** collector per rank
//!   ([`start_virtual`]), advanced by a caller-supplied α-β pricer instead
//!   of `Instant`.
//!
//! Because span ids restart at 1 per collector and programs are
//! data-independent, a live trace and a dry-run trace of the same program
//! are structurally identical — same spans, same op sequence, same ids —
//! differing only in timestamps.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//!
//! trace::start_virtual(Rc::new(|m: &trace::OpMeta| m.elems as u64));
//! trace::span("step", || {
//!     let t = trace::op_begin();
//!     trace::op_end(t, trace::OpMeta::collective("AllReduce", 4, 0, 1, 1000, 1500));
//! });
//! let dev = trace::finish(0).unwrap();
//! assert_eq!(dev.events.len(), 3); // enter, op, exit
//! ```

mod chrome;
mod summary;

pub use chrome::chrome_trace;
pub use summary::{render_summary, summarize, SummaryRow};

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Identifier of a span within one device's trace; `0` is the implicit root.
pub type SpanId = u32;

/// The implicit top-level span every device starts in.
pub const ROOT_SPAN: SpanId = 0;

/// What a single collective op event carried. Backend-neutral: `mesh`
/// produces these from its `OpRecord`s, `perf` prices them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpMeta {
    /// Collective kind, e.g. `"Broadcast"` (must match `CommOp::name`).
    pub kind: &'static str,
    /// Number of ranks in the group.
    pub group_size: usize,
    /// First rank of the (arithmetic) group.
    pub group_first: usize,
    /// Stride between consecutive group ranks (0 when irregular).
    pub group_stride: usize,
    /// Logical payload in elements (what the caller asked to move).
    pub elems: usize,
    /// Elements this device actually put on the wire (sent), including
    /// algorithmic overhead such as tree fan-out retransmissions.
    pub wire_elems: usize,
    /// Mesh-axis label of the group the op ran on (`"row"`, `"col"`,
    /// `"depth"`, `"world"`, …; `""` when the group carried none). Pure
    /// metadata for trace filtering — never part of cost-model pricing.
    pub axis: &'static str,
    /// Name of the collective algorithm that ran (`"tree"`, `"ring"`,
    /// `"chain"`, `"halving"`, `"bruck"`; [`OpMeta::collective`] leaves it
    /// `""` for tests that price nothing). Unlike `axis` this **does** feed
    /// pricing: the cost model dispatches on it so a dry run prices exactly
    /// the algorithm the live backend would run.
    pub algo: &'static str,
}

impl OpMeta {
    /// Convenience constructor for tests: no axis, no algorithm label.
    pub fn collective(
        kind: &'static str,
        group_size: usize,
        group_first: usize,
        group_stride: usize,
        elems: usize,
        wire_elems: usize,
    ) -> Self {
        OpMeta {
            kind,
            group_size,
            group_first,
            group_stride,
            elems,
            wire_elems,
            axis: "",
            algo: "",
        }
    }

    /// The ranks of the group when it is arithmetic (`stride > 0`).
    pub fn group_ranks(&self) -> Option<Vec<usize>> {
        if self.group_size == 1 {
            return Some(vec![self.group_first]);
        }
        if self.group_stride == 0 {
            return None;
        }
        Some(
            (0..self.group_size)
                .map(|i| self.group_first + i * self.group_stride)
                .collect(),
        )
    }
}

/// One timeline record. Timestamps are nanoseconds from the collector's
/// installation (wall clock) or from virtual time 0 (dry-run).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A span opened. `span` ids are assigned 1, 2, … in open order.
    Enter {
        span: SpanId,
        parent: SpanId,
        name: &'static str,
        t_ns: u64,
    },
    /// The matching close of `span`.
    Exit { span: SpanId, t_ns: u64 },
    /// A collective op under `span` (the innermost open span).
    Op {
        span: SpanId,
        t0_ns: u64,
        t1_ns: u64,
        meta: OpMeta,
    },
}

impl Event {
    /// The event with timestamps zeroed — the *structure* of the timeline.
    /// Two traces of the same program (live vs dry-run) compare equal event
    /// by event under this projection.
    pub fn structure(&self) -> Event {
        match self {
            Event::Enter {
                span, parent, name, ..
            } => Event::Enter {
                span: *span,
                parent: *parent,
                name,
                t_ns: 0,
            },
            Event::Exit { span, .. } => Event::Exit {
                span: *span,
                t_ns: 0,
            },
            Event::Op { span, meta, .. } => Event::Op {
                span: *span,
                t0_ns: 0,
                t1_ns: 0,
                meta: meta.clone(),
            },
        }
    }
}

/// One device's completed timeline, returned by [`finish`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceTrace {
    pub rank: usize,
    pub events: Vec<Event>,
}

impl DeviceTrace {
    /// The timeline with timestamps erased (see [`Event::structure`]).
    pub fn structure(&self) -> Vec<Event> {
        self.events.iter().map(Event::structure).collect()
    }
}

/// Prices an op event in virtual nanoseconds (dry-run clock). Must not call
/// back into this crate's API (the collector is borrowed during pricing).
pub type Pricer = Rc<dyn Fn(&OpMeta) -> u64>;

enum Clock {
    /// Live: nanoseconds since the collector was installed.
    Wall(Instant),
    /// Dry-run: virtual time advanced only by op events.
    Virtual { now_ns: u64, price: Pricer },
}

struct Collector {
    clock: Clock,
    events: Vec<Event>,
    stack: Vec<SpanId>,
    next_span: SpanId,
    op_depth: u32,
}

impl Collector {
    fn now_ns(&self) -> u64 {
        match &self.clock {
            Clock::Wall(origin) => origin.elapsed().as_nanos() as u64,
            Clock::Virtual { now_ns, .. } => *now_ns,
        }
    }

    fn current(&self) -> SpanId {
        self.stack.last().copied().unwrap_or(ROOT_SPAN)
    }

    fn enter(&mut self, name: &'static str) -> SpanId {
        let span = self.next_span;
        self.next_span += 1;
        let ev = Event::Enter {
            span,
            parent: self.current(),
            name,
            t_ns: self.now_ns(),
        };
        self.events.push(ev);
        self.stack.push(span);
        span
    }

    fn exit(&mut self, span: SpanId) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span), "span exit out of order");
        let ev = Event::Exit {
            span,
            t_ns: self.now_ns(),
        };
        self.events.push(ev);
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

fn install(clock: Clock) {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        assert!(
            slot.is_none(),
            "a trace collector is already active on this thread"
        );
        *slot = Some(Collector {
            clock,
            events: Vec::new(),
            stack: Vec::new(),
            next_span: 1,
            op_depth: 0,
        });
    });
}

/// Installs a wall-clock collector on the current thread (live backend).
/// Panics if one is already active.
pub fn start_wall() {
    install(Clock::Wall(Instant::now()));
}

/// Installs a virtual-clock collector on the current thread (dry-run
/// backend). `price` maps each op event to its modeled duration in
/// nanoseconds; the clock advances only through op events.
pub fn start_virtual(price: Pricer) {
    install(Clock::Virtual { now_ns: 0, price });
}

/// Uninstalls the current collector and returns the finished timeline, or
/// `None` if none was active. Panics if spans are still open.
pub fn finish(rank: usize) -> Option<DeviceTrace> {
    COLLECTOR.with(|c| c.borrow_mut().take()).map(|collector| {
        assert!(
            collector.stack.is_empty(),
            "trace finished with {} span(s) still open",
            collector.stack.len()
        );
        DeviceTrace {
            rank,
            events: collector.events,
        }
    })
}

/// Whether a collector is active on this thread.
pub fn is_active() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// The innermost open span id, or [`ROOT_SPAN`] when none (or no collector).
pub fn current_span() -> SpanId {
    COLLECTOR.with(|c| c.borrow().as_ref().map_or(ROOT_SPAN, |col| col.current()))
}

/// Closes its span on drop, so spans unwind correctly on panic.
pub struct SpanGuard {
    span: Option<SpanId>,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.span {
            COLLECTOR.with(|c| {
                if let Some(col) = c.borrow_mut().as_mut() {
                    col.exit(span);
                }
            });
        }
        metrics::phase_exit(self.name);
    }
}

/// Opens a span that stays open until the returned guard drops. Prefer
/// [`span`] unless the phase does not fit a closure.
///
/// Spans double as **metrics phase boundaries**: when a `metrics` device
/// registry is active on this thread, entering and leaving a span snapshots
/// the allocation tracker so peak memory is attributed per phase — even
/// when no trace collector is installed.
#[must_use = "the span closes when this guard drops"]
pub fn span_guard(name: &'static str) -> SpanGuard {
    let span = COLLECTOR.with(|c| c.borrow_mut().as_mut().map(|col| col.enter(name)));
    metrics::phase_enter(name);
    SpanGuard { span, name }
}

/// Runs `f` inside a named span. A no-op (beyond one thread-local read)
/// when no collector is active, so instrumented library code costs nothing
/// in untraced runs.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span_guard(name);
    f()
}

/// Token returned by [`op_begin`]; consumed by [`op_end`].
#[must_use = "pass this token to op_end"]
pub struct OpTimer {
    t0_ns: u64,
    record: bool,
}

/// Marks the start of a collective. Collectives implemented *in terms of*
/// other collectives (e.g. a barrier built from reduce + broadcast) nest
/// their timers; only the outermost pair records an event, so both backends
/// emit exactly one op event per logical collective regardless of how it is
/// composed internally.
pub fn op_begin() -> OpTimer {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        match slot.as_mut() {
            None => OpTimer {
                t0_ns: 0,
                record: false,
            },
            Some(col) => {
                col.op_depth += 1;
                OpTimer {
                    t0_ns: col.now_ns(),
                    record: col.op_depth == 1,
                }
            }
        }
    })
}

/// Marks the end of a collective and records the op event (outermost timer
/// only). Under a virtual clock this is also what advances time.
pub fn op_end(timer: OpTimer, meta: OpMeta) {
    // Phase 1: pop the depth and fetch the pricer (if any) without holding
    // the borrow across the pricer call.
    let price = COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let col = slot.as_mut()?;
        col.op_depth = col.op_depth.saturating_sub(1);
        if !timer.record {
            return None;
        }
        match &col.clock {
            Clock::Wall(_) => Some(None),
            Clock::Virtual { price, .. } => Some(Some(Rc::clone(price))),
        }
    });
    let Some(price) = price else { return };
    let dt = price.map(|p| p(&meta));
    // Phase 2: stamp the end time and push the event.
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(col) = slot.as_mut() else { return };
        let t1_ns = match (&mut col.clock, dt) {
            (Clock::Virtual { now_ns, .. }, Some(dt)) => {
                *now_ns += dt;
                *now_ns
            }
            _ => col.now_ns(),
        };
        let ev = Event::Op {
            span: col.current(),
            t0_ns: timer.t0_ns,
            t1_ns,
            meta,
        };
        col.events.push(ev);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(kind: &'static str, elems: usize) -> OpMeta {
        OpMeta::collective(kind, 4, 0, 1, elems, elems)
    }

    #[test]
    fn inactive_by_default() {
        assert!(!is_active());
        assert_eq!(current_span(), ROOT_SPAN);
        let out = span("noop", || 7);
        assert_eq!(out, 7);
        let t = op_begin();
        op_end(t, meta("AllReduce", 10));
        assert!(finish(0).is_none());
    }

    #[test]
    fn spans_nest_and_ids_are_sequential() {
        start_wall();
        span("outer", || {
            assert_eq!(current_span(), 1);
            span("inner", || assert_eq!(current_span(), 2));
            assert_eq!(current_span(), 1);
        });
        let dev = finish(3).unwrap();
        assert_eq!(dev.rank, 3);
        let kinds: Vec<_> = dev
            .events
            .iter()
            .map(|e| match e {
                Event::Enter {
                    span, parent, name, ..
                } => format!("+{span}<{parent} {name}"),
                Event::Exit { span, .. } => format!("-{span}"),
                Event::Op { .. } => "op".into(),
            })
            .collect();
        assert_eq!(kinds, ["+1<0 outer", "+2<1 inner", "-2", "-1"]);
    }

    #[test]
    fn virtual_clock_advances_by_pricer() {
        start_virtual(Rc::new(|m: &OpMeta| m.elems as u64 * 2));
        let t = op_begin();
        op_end(t, meta("Broadcast", 50));
        let t = op_begin();
        op_end(t, meta("Reduce", 10));
        let dev = finish(0).unwrap();
        match (&dev.events[0], &dev.events[1]) {
            (
                Event::Op {
                    t0_ns: a0,
                    t1_ns: a1,
                    ..
                },
                Event::Op {
                    t0_ns: b0,
                    t1_ns: b1,
                    ..
                },
            ) => {
                assert_eq!((*a0, *a1), (0, 100));
                assert_eq!((*b0, *b1), (100, 120));
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn nested_op_timers_record_once() {
        start_virtual(Rc::new(|_: &OpMeta| 1));
        let outer = op_begin();
        let inner = op_begin();
        op_end(inner, meta("Reduce", 1)); // suppressed: not outermost
        op_end(outer, meta("Barrier", 0));
        let dev = finish(0).unwrap();
        assert_eq!(dev.events.len(), 1);
        match &dev.events[0] {
            Event::Op { meta, .. } => assert_eq!(meta.kind, "Barrier"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ops_are_tagged_with_innermost_span() {
        start_wall();
        span("fwd", || {
            let t = op_begin();
            op_end(t, meta("AllGather", 8));
        });
        let dev = finish(0).unwrap();
        match &dev.events[1] {
            Event::Op { span, .. } => assert_eq!(*span, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn structure_erases_time_only() {
        start_virtual(Rc::new(|m: &OpMeta| m.elems as u64));
        span("a", || {
            let t = op_begin();
            op_end(t, meta("AllReduce", 9));
        });
        let a = finish(0).unwrap();
        start_wall();
        span("a", || {
            let t = op_begin();
            op_end(t, meta("AllReduce", 9));
        });
        let b = finish(0).unwrap();
        assert_eq!(a.structure(), b.structure());
        assert_ne!(a.events, b.events, "timestamps should differ");
    }

    #[test]
    fn guard_closes_on_drop() {
        start_wall();
        {
            let _g = span_guard("scoped");
            assert_eq!(current_span(), 1);
        }
        assert_eq!(current_span(), ROOT_SPAN);
        finish(0).unwrap();
    }

    #[test]
    fn irregular_groups_have_no_rank_list() {
        let m = OpMeta::collective("AllReduce", 3, 5, 0, 1, 1);
        assert_eq!(m.group_ranks(), None);
        let m = OpMeta::collective("AllReduce", 3, 4, 4, 1, 1);
        assert_eq!(m.group_ranks(), Some(vec![4, 8, 12]));
    }
}
