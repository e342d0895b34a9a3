//! The benchmark's own in-memory span buffer: one per device thread, filled
//! around the calls into each layer and written out when the run ends.
//! Spans inside the crates are not recorded here.

use minjson::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same rank; 0 at the top level.
    pub parent: u64,
    /// Shared by a training step's span and everything under it; 0 outside
    /// steps.
    pub step: u64,
    pub name: &'static str,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that is open: returned by [`Spans::open`], consumed by
/// [`Spans::close`].
pub struct Open {
    id: u64,
    parent: u64,
    step: u64,
    name: &'static str,
    start: Instant,
}

/// Span ids are `rank · ID_STRIDE + n`, unique across the ranks of a run.
const ID_STRIDE: u64 = 1 << 32;

pub struct Spans {
    rank: usize,
    /// Common time origin of every rank's buffer.
    epoch: Instant,
    /// Off for untraced runs: `close` still returns the elapsed time, but
    /// nothing is stored.
    record: bool,
    next: u64,
    stack: Vec<u64>,
    buf: Vec<Span>,
}

impl Spans {
    pub fn new(rank: usize, epoch: Instant, record: bool) -> Self {
        Spans {
            rank,
            epoch,
            record,
            next: 1,
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, step: u64) -> Open {
        let id = self.rank as u64 * ID_STRIDE + self.next;
        self.next += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        Open {
            id,
            parent,
            step,
            name,
            start: Instant::now(),
        }
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.id), "spans must close innermost first");
        if self.record {
            self.buf.push(Span {
                id: open.id,
                parent: open.parent,
                step: open.step,
                name: open.name,
                rank: self.rank,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        (end - open.start).as_secs_f64()
    }

    /// Runs `f` `reps` times, each under a span `name`, and returns the
    /// median duration in seconds.
    pub fn median_of(&mut self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let secs: Vec<f64> = (0..reps)
            .map(|_| {
                let open = self.open(name, 0);
                f();
                self.close(open)
            })
            .collect();
        crate::stats::median(&secs)
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.buf
    }
}

/// Self time of every span: its duration minus the part its children cover.
/// Children of one parent on one rank never overlap, so that part is the sum
/// of their durations.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = std::collections::BTreeMap::<u64, u64>::new();
    for s in spans {
        *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0)))
        .collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    let own = self_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                Json::obj(vec![
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("step", Json::Num(s.step as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("rank", Json::Num(s.rank as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut s = Spans::new(3, Instant::now(), true);
        let outer = s.open("step", 7);
        let a = s.open("fwd_bwd", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(a);
        let b = s.open("optim", 7);
        s.close(b);
        let secs = s.close(outer);
        let spans = s.into_vec();
        assert_eq!(spans.len(), 3);
        let step = &spans[2];
        assert_eq!(
            (step.name, step.parent, step.rank, step.step),
            ("step", 0, 3, 7)
        );
        assert!(spans[..2].iter().all(|c| c.parent == step.id));
        assert!(secs >= 0.002);
        let own = self_ns(&spans);
        let children: u64 = spans[..2].iter().map(|c| c.end_ns - c.start_ns).sum();
        assert_eq!(own[2], step.end_ns - step.start_ns - children);
        assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn an_untraced_buffer_times_but_stores_nothing() {
        let mut s = Spans::new(0, Instant::now(), false);
        let calls = std::cell::Cell::new(0);
        let med = s.median_of("x", 3, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 3);
        assert!(med >= 0.0);
        assert!(s.into_vec().is_empty());
    }

    #[test]
    fn span_json_reparses() {
        let mut s = Spans::new(1, Instant::now(), true);
        let o = s.open("setup", 0);
        s.close(o);
        let text = to_json(&s.into_vec()).to_string();
        let back = minjson::parse(&text).expect("span JSON must re-parse");
        let first = &back.as_arr().unwrap()[0];
        assert_eq!(first.get("rank").unwrap().as_usize().unwrap(), 1);
        assert_eq!(
            first.get("id").unwrap().as_f64().unwrap(),
            (ID_STRIDE + 1) as f64
        );
    }
}
