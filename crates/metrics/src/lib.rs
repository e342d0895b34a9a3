//! Runtime metrics: counters, log₂ histograms, and per-device memory
//! telemetry.
//!
//! The `trace` crate answers *what happened when*; this crate answers *how
//! much*: measured peak memory per (rank, phase) and per-kind time spent
//! inside collectives. The ROADMAP
//! items that motivated it — memory-budgeted autotuning, serving SLOs,
//! explaining where a step waits — all consume aggregates, not timelines.
//!
//! # Design
//!
//! The primitives ([`Counter`], [`Histogram`]) are plain relaxed atomics,
//! with no locks on any hot path. Collection is a **per-device registry**:
//! thread-local, installed on every live device thread by
//! `mesh::Mesh::run_with_logs` when collection is [`enable`]d, and harvested
//! per rank at run end (the same lifecycle as `CommLog` and the `trace`
//! collector). It holds the allocation tracker (live/peak tensor bytes, fed
//! by the `tensor` crate's construction/drop funnel), per-phase peak memory
//! (fed by `trace` span boundaries through [`phase_enter`]/[`phase_exit`]),
//! and per-collective-kind wait histograms (fed by every live collective in
//! `mesh::comm`).
//! Every kernel runs on its device's thread, so nothing is shared between
//! devices to count process-wide; [`global_counter`] stays only as the
//! by-name lookup the step benchmark reads (its counters read 0).
//!
//! When collection is disabled (the default), every hot-path entry point is
//! one thread-local `RefCell` check — the same zero-cost-when-off contract
//! the trace collector keeps. The measured overhead of *enabled* collection
//! on the 512³ GEMM benchmark is under 2% (`gemm-bench` records it as
//! `metrics_overhead`).
//!
//! # Lifecycle
//!
//! ```
//! metrics::enable();
//! // ... run a live mesh program; device threads install/harvest
//! //     automatically via mesh::Mesh::run_with_logs ...
//! let devices = metrics::drain();
//! metrics::disable();
//! # assert!(devices.is_empty());
//! ```
//!
//! [`regress`] is the perf-regression gate: it compares a fresh
//! `BENCH_gemm.json` / `BENCH_coll.json` run against the committed baseline
//! within a relative tolerance band.

pub mod regress;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use minjson::Json;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// A monotonic counter. All operations are relaxed atomics.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Recording is two relaxed `fetch_add`s and two `fetch_max`es — cheap
/// enough for per-collective wait paths. The bucket layout is exact for 0
/// and covers the full `u64` range, so no sample is ever clipped.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `v`: 0 for 0, else `⌊log₂ v⌋ + 1`.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b` (the value reported for quantiles).
pub fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
    }

    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let n = c.load(Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// A frozen [`Histogram`]: only non-empty buckets, as `(bucket, count)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 < q ≤ 1`),
    /// i.e. a conservative estimate: the true quantile is ≤ the returned
    /// value. The exact `max` is substituted for the top non-empty bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let last = self.buckets.len().saturating_sub(1);
        for (i, &(b, n)) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // The max sample is a tighter bound for the last bucket.
                return if i == last {
                    self.max
                } else {
                    bucket_upper(b as usize)
                };
            }
        }
        self.max
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            ("max", Json::Num(self.max as f64)),
            ("p50", Json::Num(self.quantile(0.5) as f64)),
            ("p99", Json::Num(self.quantile(0.99) as f64)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(b, n)| Json::Arr(vec![Json::Num(b as f64), Json::Num(n as f64)]))
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Process-wide counters
// ---------------------------------------------------------------------------

/// Interns (or retrieves) the process-wide counter `name`. The returned
/// reference is `'static`: resolve once at setup, increment lock-free after.
pub fn global_counter(name: &'static str) -> &'static Counter {
    static COUNTERS: Mutex<BTreeMap<&'static str, &'static Counter>> = Mutex::new(BTreeMap::new());
    let mut map = COUNTERS
        .lock()
        .expect("no thread panics while interning a counter");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

// ---------------------------------------------------------------------------
// Collection lifecycle
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<DeviceSnapshot>> = Mutex::new(Vec::new());

/// Turns collection on and clears previously drained snapshots. Device
/// threads spawned after this call install per-device registries.
pub fn enable() {
    SINK.lock().unwrap().clear();
    ENABLED.store(true, Relaxed);
}

/// Turns collection off. Already-installed device registries keep
/// collecting until their thread finishes (harvest is unconditional).
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Whether [`enable`] is in effect.
pub fn is_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Takes every harvested per-device snapshot, sorted by rank.
pub fn drain() -> Vec<DeviceSnapshot> {
    let mut v = std::mem::take(&mut *SINK.lock().unwrap());
    v.sort_by_key(|d| d.rank);
    v
}

// ---------------------------------------------------------------------------
// Per-device registry (thread-local)
// ---------------------------------------------------------------------------

/// Hot-path keyed table: a linear scan over a short `Vec` beats a tree map
/// for the handful of phase names / collective kinds a device ever sees.
fn vec_entry<'a, T>(
    v: &'a mut Vec<(&'static str, T)>,
    key: &'static str,
    default: impl FnOnce() -> T,
) -> &'a mut T {
    match v.iter().position(|(k, _)| *k == key) {
        Some(i) => &mut v[i].1,
        None => {
            v.push((key, default()));
            &mut v.last_mut().unwrap().1
        }
    }
}

struct DeviceState {
    live_bytes: u64,
    peak_bytes: u64,
    /// Peak since the innermost phase opened; see [`phase_enter`].
    scope_peak: u64,
    alloc_count: u64,
    free_count: u64,
    alloc_bytes_total: u64,
    phase_stack: Vec<(&'static str, u64)>,
    phase_peaks: Vec<(&'static str, u64)>,
    wait_ns: Vec<(&'static str, Histogram)>,
}

impl DeviceState {
    fn new() -> Self {
        DeviceState {
            live_bytes: 0,
            peak_bytes: 0,
            scope_peak: 0,
            alloc_count: 0,
            free_count: 0,
            alloc_bytes_total: 0,
            phase_stack: Vec::new(),
            phase_peaks: Vec::new(),
            wait_ns: Vec::new(),
        }
    }
}

thread_local! {
    static STATE: RefCell<Option<DeviceState>> = const { RefCell::new(None) };
}

/// Installs a per-device registry on the current thread if collection is
/// enabled and none is active yet. Returns whether one was installed (pass
/// the answer to [`device_finish`]). Called by `mesh` on device threads.
pub fn device_install() -> bool {
    if !is_enabled() {
        return false;
    }
    STATE.with(|s| {
        let mut slot = s.borrow_mut();
        if slot.is_some() {
            return false;
        }
        *slot = Some(DeviceState::new());
        true
    })
}

/// Uninstalls the current thread's registry and parks its snapshot for
/// [`drain`], tagged with `rank`. No-op when none is installed.
pub fn device_finish(rank: usize) {
    let state = STATE.with(|s| s.borrow_mut().take());
    let Some(st) = state else { return };
    let snap = DeviceSnapshot {
        rank,
        peak_bytes: st.peak_bytes,
        live_end_bytes: st.live_bytes,
        alloc_count: st.alloc_count,
        free_count: st.free_count,
        alloc_bytes_total: st.alloc_bytes_total,
        phase_peaks: st.phase_peaks.into_iter().collect(),
        wait_ns: st.wait_ns.iter().map(|(k, h)| (*k, h.snapshot())).collect(),
    };
    SINK.lock().unwrap().push(snap);
}

/// Whether a per-device registry is active on this thread. Callers use this
/// to skip `Instant::now()` pairs when nothing would record them.
pub fn device_active() -> bool {
    STATE.with(|s| s.borrow().is_some())
}

fn with_state(f: impl FnOnce(&mut DeviceState)) {
    STATE.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            f(st);
        }
    });
}

// ---- allocation tracker (fed by the tensor crate) ----

/// Records `bytes` of newly live tensor payload on this device.
pub fn alloc_bytes(bytes: usize) {
    with_state(|st| {
        st.alloc_count += 1;
        st.alloc_bytes_total += bytes as u64;
        st.live_bytes += bytes as u64;
        if st.live_bytes > st.peak_bytes {
            st.peak_bytes = st.live_bytes;
        }
        if st.live_bytes > st.scope_peak {
            st.scope_peak = st.live_bytes;
        }
    });
}

/// Records `bytes` of tensor payload released on this device. Saturating:
/// a buffer allocated before collection started may be freed after.
pub fn free_bytes(bytes: usize) {
    with_state(|st| {
        st.free_count += 1;
        st.live_bytes = st.live_bytes.saturating_sub(bytes as u64);
    });
}

// ---- phase boundaries (fed by trace spans) ----

/// Opens a memory-snapshot scope named `name`. Called by `trace::span` /
/// `trace::span_guard` on every span open, whether or not a trace collector
/// is installed — phase-resolved memory needs only the metrics registry.
pub fn phase_enter(name: &'static str) {
    with_state(|st| {
        st.phase_stack.push((name, st.scope_peak));
        st.scope_peak = st.live_bytes;
    });
}

/// Closes the innermost phase scope, folding its peak into the per-phase
/// table (max over occurrences) and into the parent scope's peak.
pub fn phase_exit(name: &'static str) {
    with_state(|st| {
        let Some((opened, saved)) = st.phase_stack.pop() else {
            return;
        };
        debug_assert_eq!(opened, name, "phase exit out of order");
        let peak = st.scope_peak;
        let slot = vec_entry(&mut st.phase_peaks, opened, || 0);
        *slot = (*slot).max(peak);
        st.scope_peak = saved.max(peak);
    });
}

// ---- collective wait telemetry (fed by mesh::comm) ----

/// Records how long the device thread spent running one collective of the
/// given kind (a `CommOp::name()` string): its sends, and its receives
/// including the time blocked on a peer.
pub fn comm_wait_ns(kind: &'static str, ns: u64) {
    with_state(|st| vec_entry(&mut st.wait_ns, kind, Histogram::new).record(ns));
}

// ---------------------------------------------------------------------------
// Snapshots and reports
// ---------------------------------------------------------------------------

/// One device's harvested metrics, returned by [`drain`].
#[derive(Clone, Debug, Default)]
pub struct DeviceSnapshot {
    pub rank: usize,
    /// High-water mark of live tensor bytes over the whole run.
    pub peak_bytes: u64,
    /// Tensor bytes still live when the device finished (params, optimizer
    /// state, anything returned to the caller).
    pub live_end_bytes: u64,
    pub alloc_count: u64,
    pub free_count: u64,
    pub alloc_bytes_total: u64,
    /// Peak live bytes per phase name (max over occurrences of the phase).
    pub phase_peaks: BTreeMap<&'static str, u64>,
    /// Time-inside-the-collective histograms per collective kind, in ns.
    pub wait_ns: BTreeMap<&'static str, HistSnapshot>,
}

fn hist_map_json(m: &BTreeMap<&'static str, HistSnapshot>) -> Json {
    Json::obj(m.iter().map(|(&k, h)| (k, h.to_json())).collect())
}

impl DeviceSnapshot {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::Num(self.rank as f64)),
            (
                "mem",
                Json::obj(vec![
                    ("peak_bytes", Json::Num(self.peak_bytes as f64)),
                    ("live_end_bytes", Json::Num(self.live_end_bytes as f64)),
                    ("allocs", Json::Num(self.alloc_count as f64)),
                    ("frees", Json::Num(self.free_count as f64)),
                    (
                        "alloc_bytes_total",
                        Json::Num(self.alloc_bytes_total as f64),
                    ),
                    (
                        "phase_peak_bytes",
                        Json::obj(
                            self.phase_peaks
                                .iter()
                                .map(|(&k, &v)| (k, Json::Num(v as f64)))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("wait_ns", hist_map_json(&self.wait_ns)),
        ])
    }
}

/// Assembles the full metrics report. `source` is `"live"` (memory comes
/// from the measured tracker) or `"dry-run"` (memory comes from the
/// analytical model); `extras` are caller fields (grid, scheme, the
/// analytical memory estimate, ...).
pub fn report_json(source: &str, devices: &[DeviceSnapshot], extras: Vec<(&str, Json)>) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![
        ("schema", Json::Str("optimus-metrics-v1".into())),
        ("source", Json::Str(source.into())),
        (
            "devices",
            Json::Arr(devices.iter().map(|d| d.to_json()).collect()),
        ),
    ];
    fields.extend(extras);
    Json::obj(fields)
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Human summary of the per-device snapshots — what the CLI prints to stdout
/// next to the JSON report.
pub fn render_summary(devices: &[DeviceSnapshot]) -> String {
    let mut out = String::new();
    out.push_str("rank  peak mem      live@end      allocs  phases (peak)\n");
    for d in devices {
        let mut phases: Vec<_> = d.phase_peaks.iter().collect();
        // Top-3 phases by peak keeps the table readable on deep span trees.
        phases.sort_by(|a, b| b.1.cmp(a.1));
        let phases = phases
            .iter()
            .take(3)
            .map(|(k, v)| format!("{k}={}", fmt_bytes(**v)))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:<5} {:<13} {:<13} {:<7} {}\n",
            d.rank,
            fmt_bytes(d.peak_bytes),
            fmt_bytes(d.live_end_bytes),
            d.alloc_count,
            phases
        ));
    }
    let mut kinds: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for d in devices {
        for (&k, h) in &d.wait_ns {
            let e = kinds.entry(k).or_insert((0, 0, 0));
            e.0 += h.count;
            e.1 = e.1.max(h.quantile(0.5));
            e.2 = e.2.max(h.quantile(0.99));
        }
    }
    if !kinds.is_empty() {
        out.push_str("collective wait (max over ranks): kind count p50 p99\n");
        for (k, (count, p50, p99)) in kinds {
            out.push_str(&format!(
                "  {k:<14} {count:<6} {:<10} {}\n",
                fmt_ns(p50),
                fmt_ns(p99)
            ));
        }
    }
    out
}

/// Structural validation of a metrics report (used by CI's smoke job): the
/// schema tag, a non-empty device list for live runs, and the fields every
/// consumer relies on.
pub fn validate_report(j: &Json) -> Result<(), String> {
    let schema = j.get("schema")?.clone();
    if schema != Json::Str("optimus-metrics-v1".into()) {
        return Err(format!("unexpected schema tag {}", schema.to_string()));
    }
    let source = match j.get("source")? {
        Json::Str(s) => s.clone(),
        other => {
            return Err(format!(
                "source must be a string, got {}",
                other.to_string()
            ))
        }
    };
    let devices = j.get("devices")?.as_arr()?;
    if source == "live" && devices.is_empty() {
        return Err("live report has no devices".into());
    }
    for d in devices {
        let mem = d.get("mem")?;
        mem.get("peak_bytes")?.as_f64()?;
        mem.get("phase_peak_bytes")?;
        d.get("wait_ns")?;
        d.get("rank")?.as_usize()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Device-state tests share the thread-local registry; the ones that
    // install it serialize on this lock so parallel test threads don't
    // interleave enable/disable.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_device<T>(f: impl FnOnce() -> T) -> (T, DeviceSnapshot) {
        let _l = TEST_LOCK.lock().unwrap();
        enable();
        assert!(device_install());
        let out = f();
        device_finish(7);
        disable();
        let mut snaps = drain();
        assert_eq!(snaps.len(), 1);
        (out, snaps.pop().unwrap())
    }

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.add(3);
        c.add(1);
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);

        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        // Buckets: 0 -> b0; 1 -> b1; 2,3 -> b2; 100 -> b7; 1000 -> b10.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (7, 1), (10, 1)]);
        assert_eq!(s.quantile(0.5), bucket_upper(2));
        // The top bucket reports the exact max, not 2^10 - 1.
        assert_eq!(s.quantile(1.0), 1000);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn disabled_paths_are_noops() {
        // No install: nothing recorded, nothing harvested.
        assert!(!device_active());
        alloc_bytes(100);
        free_bytes(100);
        phase_enter("x");
        phase_exit("x");
        comm_wait_ns("Broadcast", 5);
        device_finish(0);
    }

    #[test]
    fn device_memory_and_phase_peaks() {
        let (_, snap) = with_device(|| {
            alloc_bytes(100); // live 100
            phase_enter("fwd");
            alloc_bytes(200); // live 300
            free_bytes(200); // live 100
            phase_enter("fwd.inner");
            alloc_bytes(50); // live 150
            free_bytes(50);
            phase_exit("fwd.inner");
            phase_exit("fwd");
            phase_enter("bwd");
            alloc_bytes(10);
            free_bytes(10);
            phase_exit("bwd");
            free_bytes(100);
        });
        assert_eq!(snap.rank, 7);
        assert_eq!(snap.peak_bytes, 300);
        assert_eq!(snap.live_end_bytes, 0);
        assert_eq!(snap.alloc_count, 4);
        assert_eq!(snap.free_count, 4);
        assert_eq!(snap.phase_peaks["fwd"], 300);
        assert_eq!(snap.phase_peaks["fwd.inner"], 150);
        assert_eq!(snap.phase_peaks["bwd"], 110);
    }

    #[test]
    fn phase_peak_folds_into_parent() {
        // A child's peak must count toward the enclosing phase even when
        // the parent's own live level never reached it.
        let (_, snap) = with_device(|| {
            phase_enter("outer");
            phase_enter("inner");
            alloc_bytes(500);
            free_bytes(500);
            phase_exit("inner");
            phase_exit("outer");
        });
        assert_eq!(snap.phase_peaks["outer"], 500);
        assert_eq!(snap.phase_peaks["inner"], 500);
    }

    #[test]
    fn wait_histograms_key_by_kind() {
        let (_, snap) = with_device(|| {
            comm_wait_ns("Broadcast", 10);
            comm_wait_ns("Broadcast", 1000);
        });
        assert_eq!(snap.wait_ns["Broadcast"].count, 2);
        assert!(!snap.wait_ns.contains_key("Reduce"));
    }

    #[test]
    fn report_roundtrips_and_validates() {
        let (_, snap) = with_device(|| {
            phase_enter("fwd");
            alloc_bytes(64);
            phase_exit("fwd");
            comm_wait_ns("Broadcast", 10);
            free_bytes(64);
        });
        let report = report_json("live", &[snap], vec![("grid", Json::usize_arr(&[2, 2]))]);
        let text = report.to_string();
        let parsed = minjson::parse(&text).unwrap();
        validate_report(&parsed).unwrap();
        assert_eq!(parsed.get("grid").unwrap().as_usize_vec().unwrap(), [2, 2]);

        // A live report with no devices must fail validation.
        let empty = report_json("live", &[], vec![]);
        assert!(validate_report(&empty).is_err());
        let dry = report_json("dry-run", &[], vec![]);
        validate_report(&dry).unwrap();
    }

    #[test]
    fn global_counters_intern_by_name() {
        let c = global_counter("test.metric_a");
        let again = global_counter("test.metric_a");
        assert!(std::ptr::eq(c, again));
        c.add(5);
        assert_eq!(again.get(), 5);
        assert!(!std::ptr::eq(c, global_counter("test.metric_b")));
    }

    #[test]
    fn render_summary_mentions_every_rank() {
        let (_, snap) = with_device(|| {
            alloc_bytes(2 << 20);
            comm_wait_ns("Reduce", 1500);
        });
        let text = render_summary(&[snap]);
        assert!(text.contains("MiB"));
        assert!(text.contains("Reduce"));
    }
}
