//! Lock-free runtime metrics registry.
//!
//! The dataplane publishes into handles ([`Counter`], [`Gauge`],
//! [`SharedHistogram`]) that are plain `Arc`s over atomics: recording is a
//! handful of `Relaxed` atomic ops, never a lock, never an allocation. The
//! registry itself (name → family → labelled series) sits behind a mutex
//! that is only taken at registration and scrape/snapshot time — both off
//! the per-frame path.
//!
//! Readers take a [`MetricsSnapshot`]: a point-in-time copy of every series
//! plus the bounded event log, with lookup helpers for tests and a
//! Prometheus text-format (0.0.4) renderer for the scrape endpoint.
//!
//! Naming follows Prometheus conventions: counters end in `_total`, gauges
//! are bare, histograms are exposed as summaries (fixed quantiles +
//! `_sum`/`_count`) to keep scrape cardinality bounded.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::{Arc, Mutex};

use crate::histogram::{percentiles_of, LatencyHistogram, NUM_BUCKETS};

/// Oldest events are evicted beyond this many (the log is a ring, not a
/// database; the structured tick line is the durable record).
const EVENT_CAP: usize = 1024;

/// Monotonically increasing `u64` metric. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Relaxed);
        }
    }

    /// Overwrite the absolute value. For *mirrored* counters — authoritative
    /// state lives elsewhere (e.g. a per-VR `u64` on the hot path) and is
    /// copied into the registry at refresh time.
    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Instantaneous value (f64 stored as bits). Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// Atomic share of a [`LatencyHistogram`]: same log-bucket layout, but every
/// slot is an `AtomicU64` so any number of publishers can `record()`
/// concurrently (one `fetch_add` per bucket + four for the moments — bounded
/// hot-path cost, no lock). Cloning shares the buckets, which is how the
/// histogram shards: each publisher holds its own cheap handle.
#[derive(Clone)]
pub struct SharedHistogram(Arc<AtomicBuckets>);

struct AtomicBuckets {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for SharedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedHistogram {
    pub fn new() -> SharedHistogram {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        SharedHistogram(Arc::new(AtomicBuckets {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Record one sample (nanoseconds).
    #[inline]
    pub fn record(&self, ns: u64) {
        let b = &*self.0;
        b.buckets[LatencyHistogram::index_of(ns)].fetch_add(1, Relaxed);
        b.count.fetch_add(1, Relaxed);
        b.sum.fetch_add(ns, Relaxed);
        b.min.fetch_min(ns, Relaxed);
        b.max.fetch_max(ns, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    /// Overwrite this series with `h`'s contents (`Relaxed` stores, no RMW).
    ///
    /// This is the single-writer publishing path: a dataplane that owns a
    /// plain [`LatencyHistogram`] records into it with plain memory ops
    /// (five locked RMWs per [`SharedHistogram::record`] — `fetch_min`/
    /// `fetch_max` are CAS loops — cost ~30% of pipeline throughput at
    /// batch 32) and mirrors it here at scrape/snapshot time instead.
    pub fn store(&self, h: &LatencyHistogram) {
        let b = &*self.0;
        let (buckets, count, sum, min, max) = h.raw_parts();
        for (dst, src) in b.buckets.iter().zip(buckets.iter()) {
            dst.store(*src, Relaxed);
        }
        b.sum.store(sum as u64, Relaxed);
        b.min.store(min, Relaxed);
        b.max.store(max, Relaxed);
        // Count last, and `Release`: a reader that loads it with `Acquire`
        // (`snapshot`, a scrape) and finds it non-empty also sees the bounds
        // and buckets stored above.
        b.count.store(count, Release);
    }

    /// Point-in-time copy as a plain [`LatencyHistogram`]. Not atomic across
    /// buckets (concurrent recording may straddle the copy), which is fine
    /// for observability; quiesced histograms snapshot exactly.
    pub fn snapshot(&self) -> LatencyHistogram {
        let b = &*self.0;
        let count = b.count.load(Acquire);
        let mut buckets = Box::new([0u64; NUM_BUCKETS]);
        for (dst, src) in buckets.iter_mut().zip(b.buckets.iter()) {
            *dst = src.load(Relaxed);
        }
        let min = if count == 0 { u64::MAX } else { b.min.load(Relaxed) };
        LatencyHistogram::from_raw(
            buckets,
            count,
            b.sum.load(Relaxed) as u128,
            min,
            b.max.load(Relaxed),
        )
    }
}

impl std::fmt::Debug for SharedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// One entry in the allocation/retirement/health event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricEvent {
    /// Monotonic timestamp (same clock as the dataplane).
    pub ts_ns: u64,
    /// `key=value` structured text, e.g. `vri-died vr=deptA vri=vri3`.
    pub text: String,
}

/// What a metric family measures — drives `# TYPE` and rendering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    Counter,
    Gauge,
    Summary,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary => "summary",
        }
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Summary(SharedHistogram),
}

impl Handle {
    fn read(&self) -> SeriesValue {
        match self {
            Handle::Counter(c) => SeriesValue::Counter(c.get()),
            Handle::Gauge(g) => SeriesValue::Gauge(g.get()),
            Handle::Summary(h) => SeriesValue::Summary(h.snapshot()),
        }
    }

    /// What a scrape prints of the series. A summary is read where it lies:
    /// [`Handle::read`] would copy all its buckets out (20 KB a series a
    /// scrape) to print five numbers.
    fn reading(&self) -> Reading {
        match self {
            Handle::Counter(c) => Reading::Counter(c.get()),
            Handle::Gauge(g) => Reading::Gauge(g.get()),
            Handle::Summary(h) => {
                let b = &*h.0;
                let count = b.count.load(Acquire);
                let min = if count == 0 { u64::MAX } else { b.min.load(Relaxed) };
                let (max, sum) = (b.max.load(Relaxed), b.sum.load(Relaxed));
                let load = |c: &AtomicU64| c.load(Relaxed);
                let qs = QUANTILES.map(|(q, _)| q);
                let quantiles = percentiles_of(&b.buckets[..], load, count, min, max, qs);
                Reading::Summary(quantiles, sum.into(), count)
            }
        }
    }
}

/// The quantiles a summary prints, ascending, and how each is labelled.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// A series' value as its sample lines print it.
enum Reading {
    Counter(u64),
    Gauge(f64),
    /// One value per entry of [`QUANTILES`], the samples' sum, their count.
    Summary([u64; QUANTILES.len()], u128, u64),
}

impl From<&SeriesValue> for Reading {
    fn from(value: &SeriesValue) -> Reading {
        match value {
            SeriesValue::Counter(v) => Reading::Counter(*v),
            SeriesValue::Gauge(v) => Reading::Gauge(*v),
            SeriesValue::Summary(h) => {
                let (buckets, count, sum, min, max) = h.raw_parts();
                let qs = QUANTILES.map(|(q, _)| q);
                let quantiles = percentiles_of(&buckets[..], |c| *c, count, min, max, qs);
                Reading::Summary(quantiles, sum, count)
            }
        }
    }
}

struct Series {
    /// Sorted by key at registration; lookup and rendering preserve this.
    labels: Vec<(String, String)>,
    handle: Handle,
    /// Each sample line up to its value, built at registration
    /// ([`sample_prefixes`]): a scrape appends the values.
    prefixes: Box<[String]>,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    /// The `# HELP` and `# TYPE` lines, built at registration.
    header: String,
    /// Sorted by labels: a new series is inserted in place.
    series: Vec<Series>,
}

#[derive(Default)]
struct Inner {
    /// Sorted by name: a new family is inserted in place, so a scrape walks
    /// the registry in exposition order without sorting anything.
    families: Vec<Family>,
    events: VecDeque<MetricEvent>,
}

/// The registry. Cloning shares it; handles returned from the `counter` /
/// `gauge` / `summary` registrars stay valid for the registry's lifetime.
/// Registering the same (name, labels) twice returns the *same* underlying
/// cell. A look-up takes the lock, allocates its labels and searches by
/// name, so a publisher that stores every scrape keeps the handle.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    v.sort();
    v
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register (or find) a counter series. Panics if `name` was previously
    /// registered with a different kind — that is a programming error, not a
    /// runtime condition.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels) {
            Handle::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register (or find) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, labels) {
            Handle::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Register (or find) a latency summary series.
    pub fn summary(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> SharedHistogram {
        match self.series(name, help, MetricKind::Summary, labels) {
            Handle::Summary(h) => h,
            _ => unreachable!(),
        }
    }

    fn series(&self, name: &str, help: &str, kind: MetricKind, labels: &[(&str, &str)]) -> Handle {
        let labels = sorted_labels(labels);
        let mut inner = self.inner.lock().unwrap();
        let at = match inner.families.binary_search_by(|f| f.name.as_str().cmp(name)) {
            Ok(at) => at,
            Err(at) => {
                let family = Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    header: family_header(name, help, kind),
                    series: vec![],
                };
                inner.families.insert(at, family);
                at
            }
        };
        let family = &mut inner.families[at];
        assert_eq!(
            family.kind, kind,
            "metric {name:?} registered as {:?} and {kind:?}",
            family.kind
        );
        match family.series.binary_search_by(|s| s.labels.cmp(&labels)) {
            Ok(at) => family.series[at].handle.clone(),
            Err(at) => {
                let handle = match kind {
                    MetricKind::Counter => Handle::Counter(Counter::new()),
                    MetricKind::Gauge => Handle::Gauge(Gauge::new()),
                    MetricKind::Summary => Handle::Summary(SharedHistogram::new()),
                };
                let prefixes = sample_prefixes(name, kind, &labels).into_boxed_slice();
                family.series.insert(at, Series { labels, handle: handle.clone(), prefixes });
                handle
            }
        }
    }

    /// Append to the bounded event log (oldest evicted past the cap).
    pub fn push_event(&self, ts_ns: u64, text: impl Into<String>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() == EVENT_CAP {
            inner.events.pop_front();
        }
        inner.events.push_back(MetricEvent { ts_ns, text: text.into() });
    }

    /// Copy of the current event log, oldest first.
    pub fn events(&self) -> Vec<MetricEvent> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Point-in-time copy of every series and the event log. Families come
    /// back sorted by name and series by label values, so the snapshot (and
    /// its rendering) is stable regardless of registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let families = inner
            .families
            .iter()
            .map(|f| FamilySnapshot {
                name: f.name.clone(),
                help: f.help.clone(),
                kind: f.kind,
                series: f
                    .series
                    .iter()
                    .map(|s| SeriesSnapshot { labels: s.labels.clone(), value: s.handle.read() })
                    .collect(),
            })
            .collect();
        MetricsSnapshot { families, events: inner.events.iter().cloned().collect() }
    }

    /// Render in Prometheus text exposition format 0.0.4, straight from the
    /// live series: what [`MetricsSnapshot::render_prometheus`] gives for a
    /// snapshot taken now, without copying the registry first.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::with_capacity(16 << 10);
        for f in &inner.families {
            out.push_str(&f.header);
            for s in &f.series {
                write_samples(&mut out, &s.prefixes, s.handle.reading());
            }
        }
        out
    }
}

/// One series' value in a snapshot.
#[derive(Clone, Debug)]
pub enum SeriesValue {
    Counter(u64),
    Gauge(f64),
    Summary(LatencyHistogram),
}

/// One labelled series in a snapshot.
#[derive(Clone, Debug)]
pub struct SeriesSnapshot {
    /// Sorted by key.
    pub labels: Vec<(String, String)>,
    pub value: SeriesValue,
}

impl SeriesSnapshot {
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    pub fn as_counter(&self) -> Option<u64> {
        match self.value {
            SeriesValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_gauge(&self) -> Option<f64> {
        match self.value {
            SeriesValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_summary(&self) -> Option<&LatencyHistogram> {
        match &self.value {
            SeriesValue::Summary(h) => Some(h),
            _ => None,
        }
    }
}

/// One metric family (all series sharing a name/help/kind) in a snapshot.
#[derive(Clone, Debug)]
pub struct FamilySnapshot {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub series: Vec<SeriesSnapshot>,
}

/// Point-in-time view of the whole registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Sorted by family name; series sorted by label values.
    pub families: Vec<FamilySnapshot>,
    /// Event log, oldest first.
    pub events: Vec<MetricEvent>,
}

fn labels_match(series: &SeriesSnapshot, want: &[(&str, &str)]) -> bool {
    series.labels.len() == want.len() && want.iter().all(|(k, v)| series.label(k) == Some(*v))
}

impl MetricsSnapshot {
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesSnapshot> {
        self.family(name)?.series.iter().find(|s| labels_match(s, labels))
    }

    /// Counter value for an exact (name, labels) series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.find(name, labels)?.as_counter()
    }

    /// Sum of a counter family across all its series (0 when absent).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.family(name).map(|f| f.series.iter().filter_map(|s| s.as_counter()).sum()).unwrap_or(0)
    }

    /// Gauge value for an exact (name, labels) series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(name, labels)?.as_gauge()
    }

    /// Latency summary for an exact (name, labels) series.
    pub fn summary(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LatencyHistogram> {
        self.find(name, labels)?.as_summary()
    }

    /// Render in Prometheus text exposition format 0.0.4. Deterministic:
    /// families by name, series by label values, labels by key.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(16 << 10);
        for f in &self.families {
            out.push_str(&family_header(&f.name, &f.help, f.kind));
            for s in &f.series {
                let prefixes = sample_prefixes(&f.name, f.kind, &s.labels);
                write_samples(&mut out, &prefixes, Reading::from(&s.value));
            }
        }
        out
    }
}

/// A family's `# HELP` and `# TYPE` lines.
fn family_header(name: &str, help: &str, kind: MetricKind) -> String {
    let help = Escaped { text: help, quotes: false };
    format!("# HELP {name} {help}\n# TYPE {name} {}\n", kind.as_str())
}

/// Each sample line of one series up to its value, the space included: the
/// bare name for a counter or a gauge; for a summary one line per entry of
/// [`QUANTILES`], then `_sum`, then `_count`. The registry builds them when
/// the series is registered, a snapshot as it renders; [`write_samples`]
/// completes them either way, so a line has one definition.
fn sample_prefixes(name: &str, kind: MetricKind, labels: &[(String, String)]) -> Vec<String> {
    let sample = |suffix, quantile| format!("{} ", Sample { name, suffix, labels, quantile });
    match kind {
        MetricKind::Counter | MetricKind::Gauge => vec![sample("", None)],
        MetricKind::Summary => QUANTILES
            .iter()
            .map(|(_, label)| sample("", Some(label)))
            .chain([sample("_sum", None), sample("_count", None)])
            .collect(),
    }
}

/// One series' sample lines: each prefix of [`sample_prefixes`], its value
/// and a newline. The one value writer behind both the registry's and a
/// snapshot's rendering.
fn write_samples(out: &mut String, prefixes: &[String], value: Reading) {
    let mut prefixes = prefixes.iter();
    let mut prefix = || prefixes.next().expect("a prefix for every sample line");
    match value {
        Reading::Counter(v) => line(out, prefix(), v),
        // Integral gauges render without a fractional part (Prometheus
        // accepts either; integral keeps golden files readable), non-finite
        // ones as text format 0.0.4 spells them: a parser refuses Rust's `inf`.
        Reading::Gauge(v) if v.is_nan() => line(out, prefix(), "NaN"),
        Reading::Gauge(v) if v.is_infinite() => {
            line(out, prefix(), if v > 0.0 { "+Inf" } else { "-Inf" })
        }
        Reading::Gauge(v) if v.fract() == 0.0 && v.abs() < 9.0e15 => line(out, prefix(), v as i64),
        Reading::Gauge(v) => line(out, prefix(), v),
        Reading::Summary(quantiles, sum, count) => {
            for ns in quantiles {
                line(out, prefix(), ns);
            }
            // The exact sum: no trip through `f64`, which holds integers
            // exactly only below 2^53.
            line(out, prefix(), sum);
            line(out, prefix(), count);
        }
    }
}

/// One sample line: its prefix, its value, a newline.
fn line(out: &mut String, prefix: &str, v: impl fmt::Display) {
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, "{prefix}{v}");
}

/// A sample line up to its value: `name_suffix{label="v",quantile="q"}`.
struct Sample<'a> {
    name: &'a str,
    suffix: &'a str,
    labels: &'a [(String, String)],
    quantile: Option<&'a str>,
}

impl fmt::Display for Sample<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)?;
        f.write_str(self.suffix)?;
        let labels = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let mut open = '{';
        for (k, v) in labels.chain(self.quantile.map(|q| ("quantile", q))) {
            f.write_char(open)?;
            f.write_str(k)?;
            f.write_str("=\"")?;
            Escaped { text: v, quotes: true }.fmt(f)?;
            f.write_char('"')?;
            open = ',';
        }
        if open == ',' {
            f.write_char('}')?;
        }
        Ok(())
    }
}

/// `text` with backslashes and newlines escaped, and double quotes too in a
/// label value (`quotes`); a `# HELP` text keeps them.
struct Escaped<'a> {
    text: &'a str,
    quotes: bool,
}

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let special = |c| c == '\\' || c == '\n' || (c == '"' && self.quotes);
        let mut rest = self.text;
        while let Some(at) = rest.find(special) {
            f.write_str(&rest[..at])?;
            f.write_str(match rest.as_bytes()[at] {
                b'\\' => "\\\\",
                b'\n' => "\\n",
                _ => "\\\"",
            })?;
            rest = &rest[at + 1..];
        }
        f.write_str(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_sharing() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "help", &[]);
        let b = reg.counter("x_total", "help", &[]);
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5, "re-registration must return the same cell");
        assert_eq!(reg.snapshot().counter("x_total", &[]), Some(5));
    }

    #[test]
    fn labelled_series_are_distinct() {
        let reg = MetricsRegistry::new();
        reg.counter("y_total", "h", &[("vr", "a")]).add(3);
        reg.counter("y_total", "h", &[("vr", "b")]).add(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("y_total", &[("vr", "a")]), Some(3));
        assert_eq!(snap.counter("y_total", &[("vr", "b")]), Some(7));
        assert_eq!(snap.counter_sum("y_total"), 10);
        assert_eq!(snap.counter("y_total", &[("vr", "c")]), None);
    }

    #[test]
    fn label_order_at_registration_does_not_matter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("z_total", "h", &[("vr", "a"), ("vri", "vri0")]);
        let b = reg.counter("z_total", "h", &[("vri", "vri0"), ("vr", "a")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("w", "h", &[]);
        let _ = reg.gauge("w", "h", &[]);
    }

    #[test]
    fn gauge_stores_floats() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("g", "h", &[]);
        g.set(2.5);
        assert_eq!(reg.snapshot().gauge("g", &[]), Some(2.5));
    }

    #[test]
    fn shared_histogram_snapshot_matches_plain() {
        let shared = SharedHistogram::new();
        let mut plain = LatencyHistogram::new();
        for v in [1u64, 99, 1_000, 123_456, 10_000_000] {
            shared.record(v);
            plain.record(v);
        }
        let snap = shared.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.min_ns(), plain.min_ns());
        assert_eq!(snap.max_ns(), plain.max_ns());
        assert_eq!(snap.percentile_ns(0.5), plain.percentile_ns(0.5));
        assert_eq!(snap.percentile_ns(0.99), plain.percentile_ns(0.99));
        assert!((snap.mean_ns() - plain.mean_ns()).abs() < 1e-9);
    }

    #[test]
    fn store_mirrors_a_locally_recorded_histogram_exactly() {
        let shared = SharedHistogram::new();
        let mut local = LatencyHistogram::new();
        for v in [1u64, 99, 1_000, 123_456, 10_000_000] {
            local.record(v);
        }
        shared.store(&local);
        let snap = shared.snapshot();
        assert_eq!(snap.count(), local.count());
        assert_eq!(snap.min_ns(), local.min_ns());
        assert_eq!(snap.max_ns(), local.max_ns());
        assert_eq!(snap.percentile_ns(0.5), local.percentile_ns(0.5));
        assert_eq!(snap.percentile_ns(0.99), local.percentile_ns(0.99));
        // Re-store after more samples overwrites, not accumulates.
        local.record(7);
        shared.store(&local);
        assert_eq!(shared.snapshot().count(), local.count());
        // Storing an empty histogram restores the calm-empty state.
        shared.store(&LatencyHistogram::new());
        assert_eq!(shared.snapshot().count(), 0);
        assert_eq!(shared.snapshot().min_ns(), 0);
    }

    #[test]
    fn empty_shared_histogram_snapshot_is_calm() {
        let h = SharedHistogram::new().snapshot();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.percentile_ns(0.5), 0);
    }

    #[test]
    fn concurrent_publishers_lose_nothing() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total", "h", &[]);
        let h = reg.summary("s_ns", "h", &[]);
        let iters = if cfg!(miri) { 50 } else { 10_000 };
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..iters {
                        c.inc();
                        h.record(i + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 2 * iters);
        assert_eq!(h.count(), 2 * iters);
        assert_eq!(h.snapshot().max_ns(), iters);
    }

    #[test]
    fn event_log_is_bounded_and_ordered() {
        let reg = MetricsRegistry::new();
        for i in 0..(EVENT_CAP as u64 + 10) {
            reg.push_event(i, format!("e{i}"));
        }
        let events = reg.events();
        assert_eq!(events.len(), EVENT_CAP);
        assert_eq!(events[0].text, "e10", "oldest evicted first");
        assert_eq!(events.last().unwrap().ts_ns, EVENT_CAP as u64 + 9);
    }

    #[test]
    fn prometheus_rendering_is_stable_and_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", "second \"family\"", &[("vr", "a")]).add(2);
        reg.gauge("a_gauge", "first\nfamily", &[]).set(3.0);
        let text = reg.snapshot().render_prometheus();
        let expect = "# HELP a_gauge first\\nfamily\n\
                      # TYPE a_gauge gauge\n\
                      a_gauge 3\n\
                      # HELP b_total second \"family\"\n\
                      # TYPE b_total counter\n\
                      b_total{vr=\"a\"} 2\n";
        assert_eq!(text, expect);
    }

    /// The registry renders what a snapshot of it renders, whatever order
    /// the series were registered in, and label values are escaped.
    #[test]
    fn registry_and_snapshot_render_alike_in_any_registration_order() {
        let series: [(&str, &[(&str, &str)]); 5] = [
            ("m_total", &[("vr", "b"), ("vri", "vri10")]),
            ("m_total", &[("vr", "b"), ("vri", "vri2")]),
            ("m_total", &[("vr", "a\\\"q\"\n")]),
            ("a_total", &[]),
            ("z_total", &[("vr", "a")]),
        ];
        let render = |order: &[usize]| {
            let reg = MetricsRegistry::new();
            for &i in order {
                reg.counter(series[i].0, "h", series[i].1).store(i as u64 + 1);
            }
            reg.gauge("g", "h", &[]).set(0.25);
            reg.summary("s_ns", "h", &[("vr", "a")]).record(7);
            let text = reg.render_prometheus();
            assert_eq!(text, reg.snapshot().render_prometheus());
            text
        };
        let text = render(&[0, 1, 2, 3, 4]);
        assert_eq!(text, render(&[4, 2, 0, 3, 1]));
        assert!(text.contains("m_total{vr=\"a\\\\\\\"q\\\"\\n\"} 3\n"), "{text}");
        let at = |needle: &str| text.find(needle).unwrap_or_else(|| panic!("{needle}: {text}"));
        assert!(at("a_total 4") < at("g 0.25") && at("g 0.25") < at("m_total{vr=\"a"));
        assert!(at("vri=\"vri10\"} 1") < at("vri=\"vri2\"} 2") && at("vri2") < at("s_ns{"));
    }

    #[test]
    fn prometheus_summary_rendering() {
        let reg = MetricsRegistry::new();
        let h = reg.summary("lat_ns", "latency", &[("vr", "a")]);
        h.record(10);
        h.record(10);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE lat_ns summary\n"), "{text}");
        assert!(text.contains("lat_ns{vr=\"a\",quantile=\"0.5\"} 10\n"), "{text}");
        assert!(text.contains("lat_ns_sum{vr=\"a\"} 20\n"), "{text}");
        assert!(text.contains("lat_ns_count{vr=\"a\"} 2\n"), "{text}");
    }

    /// Both renderings of `reg`, checked equal.
    fn render_both(reg: &MetricsRegistry) -> String {
        let text = reg.render_prometheus();
        assert_eq!(text, reg.snapshot().render_prometheus());
        text
    }

    /// `record` bumps the bucket and the count before the bounds, so a
    /// scrape racing it may read one sample in a bucket with `min` still
    /// `u64::MAX` and `max` still 0. Both renderings must print something
    /// for it, not panic.
    #[test]
    fn a_summary_read_mid_record_renders() {
        let reg = MetricsRegistry::new();
        let h = reg.summary("torn_ns", "h", &[]);
        let b = &*h.0;
        b.buckets[LatencyHistogram::index_of(1_000)].store(1, Relaxed);
        b.count.store(1, Relaxed);
        b.sum.store(1_000, Relaxed);
        assert_eq!((b.min.load(Relaxed), b.max.load(Relaxed)), (u64::MAX, 0));
        let text = render_both(&reg);
        assert!(text.contains("torn_ns{quantile=\"0.5\"} 0\n"), "{text}");
        assert!(text.contains("torn_ns_count 1\n"), "{text}");
    }

    /// `_sum` is the exact integer, also where an `f64` would round it: two
    /// samples of 2^53 + 1 sum to 2^54 + 2, which an `f64` holds as 2^54.
    #[test]
    fn summary_sum_prints_exactly() {
        let reg = MetricsRegistry::new();
        let mut local = LatencyHistogram::new();
        local.record((1 << 53) + 1);
        local.record((1 << 53) + 1);
        reg.summary("big_ns", "h", &[]).store(&local);
        let text = render_both(&reg);
        assert!(text.contains("big_ns_sum 18014398509481986\n"), "{text}");
        assert!(text.contains("big_ns_count 2\n"), "{text}");
    }

    /// Non-finite gauges spell as text format 0.0.4 has them; Rust's `inf`
    /// is not a value a Prometheus parser takes.
    #[test]
    fn non_finite_gauges_print_as_the_exposition_spells_them() {
        let reg = MetricsRegistry::new();
        reg.gauge("g", "h", &[("v", "inf")]).set(f64::INFINITY);
        reg.gauge("g", "h", &[("v", "minus")]).set(f64::NEG_INFINITY);
        reg.gauge("g", "h", &[("v", "nan")]).set(f64::NAN);
        reg.gauge("g", "h", &[("v", "neg")]).set(-3.0);
        reg.gauge("g", "h", &[("v", "zero")]).set(-0.0);
        let text = render_both(&reg);
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            samples,
            [
                "g{v=\"inf\"} +Inf",
                "g{v=\"minus\"} -Inf",
                "g{v=\"nan\"} NaN",
                "g{v=\"neg\"} -3",
                "g{v=\"zero\"} 0",
            ]
        );
    }
}
