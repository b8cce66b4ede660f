//! The [`Registry`]: a named collection of counters, histograms, and EWMAs
//! plus one span ring, with text/JSON export and snapshots.
//!
//! Handles are resolved by name once (a lock + map lookup) and recorded
//! through lock-free afterwards; a handle created unnamed can be registered
//! under a name later (`register_counter` and its twins). There is no
//! process-wide registry: each recording object owns one and hands it out
//! (`DirSuite` creates its own, and names its handles there only when it is
//! first read; each `Repairer` creates one its driver shares), so counts
//! stay exact when many directories — or many parallel tests — run in one
//! process.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::metrics::{bucket_bound_us, Avail, Counter, Ewma, Histogram, HistogramSnapshot};
use crate::span::{ArmedSpan, SpanEvent, SpanGuard, SpanRing, NO_TAG};

/// Default capacity of a registry's span ring.
const DEFAULT_SPAN_CAPACITY: usize = 1024;

struct RegistryInner {
    epoch: Instant,
    armed: AtomicBool,
    counters: RwLock<BTreeMap<String, Counter>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    ewmas: RwLock<BTreeMap<String, Ewma>>,
    avails: RwLock<BTreeMap<String, Avail>>,
    spans: SpanRing,
}

/// A named metric collection. Cloning is an `Arc` clone; all clones share
/// the same metrics.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("armed", &self.timing_armed())
            .field("spans", &self.inner.spans)
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// A fresh, armed registry with the default span capacity.
    pub fn new() -> Self {
        Registry::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A fresh, armed registry retaining up to `capacity` spans.
    pub fn with_span_capacity(capacity: usize) -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                epoch: Instant::now(),
                armed: AtomicBool::new(true),
                counters: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
                ewmas: RwLock::new(BTreeMap::new()),
                avails: RwLock::new(BTreeMap::new()),
                spans: SpanRing::new(capacity),
            }),
        }
    }

    /// Whether timing instrumentation (spans, timed samples) is live.
    pub fn timing_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Relaxed)
    }

    /// Arms or disarms timing instrumentation at runtime.
    pub fn set_timing_armed(&self, armed: bool) {
        self.inner.armed.store(armed, Ordering::Relaxed);
    }

    /// The counter registered under `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        resolve(&self.inner.counters, name)
    }

    /// The histogram registered under `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        resolve(&self.inner.histograms, name)
    }

    /// The EWMA registered under `name` (default smoothing), created on
    /// first use.
    pub fn ewma(&self, name: &str) -> Ewma {
        resolve(&self.inner.ewmas, name)
    }

    /// The availability tracker registered under `name`, created empty on
    /// first use.
    pub fn avail(&self, name: &str) -> Avail {
        resolve(&self.inner.avails, name)
    }

    /// Registers an existing counter under `name` if the name is free, so
    /// a handle created unnamed is read by name from then on. A taken name
    /// keeps the counter it has.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        register(&self.inner.counters, name, counter);
    }

    /// [`register_counter`](Registry::register_counter) for an EWMA.
    pub fn register_ewma(&self, name: &str, ewma: &Ewma) {
        register(&self.inner.ewmas, name, ewma);
    }

    /// [`register_counter`](Registry::register_counter) for an
    /// availability tracker.
    pub fn register_avail(&self, name: &str, avail: &Avail) {
        register(&self.inner.avails, name, avail);
    }

    /// Opens an untagged scoped timer (see the [`span!`](crate::span)
    /// macro).
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_tagged_inner(name, NO_TAG)
    }

    /// Opens a scoped timer tagged with e.g. a member index.
    pub fn span_tagged(&self, name: &str, tag: u64) -> SpanGuard {
        self.span_tagged_inner(name, tag)
    }

    fn span_tagged_inner(&self, name: &str, tag: u64) -> SpanGuard {
        if !self.timing_armed() {
            return SpanGuard { armed: None };
        }
        let name_id = self.inner.spans.intern(name);
        let hist = self.histogram(name);
        let start = Instant::now();
        let start_ns = (start - self.inner.epoch).as_nanos() as u64;
        SpanGuard {
            armed: Some(ArmedSpan {
                ring: self.inner.spans.clone(),
                hist,
                name_id,
                tag,
                start,
                start_ns,
            }),
        }
    }

    /// The events currently retained in the span ring (oldest first).
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.inner.spans.events()
    }

    /// A point-in-time copy of every named metric. Values are read
    /// per-metric (relaxed), not as one atomic cut — exact once recording
    /// has quiesced, approximate while concurrent.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .inner
                .counters
                .read()
                .expect("obs lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .read()
                .expect("obs lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            ewmas: self
                .inner
                .ewmas
                .read()
                .expect("obs lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.value_us()))
                .collect(),
            avails: self
                .inner
                .avails
                .read()
                .expect("obs lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.rate()))
                .collect(),
        }
    }

    /// Human-readable dump: counters, histogram summaries, EWMAs, and the
    /// most recent spans.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        out.push_str("== counters ==\n");
        for (name, v) in &snap.counters {
            out.push_str(&format!("{name} = {v}\n"));
        }
        out.push_str("== histograms (us) ==\n");
        for (name, h) in &snap.histograms {
            if h.count == 0 {
                continue;
            }
            let hist = self.histogram(name);
            out.push_str(&format!(
                "{name}: count={} mean={:.0} p50={} p99={}\n",
                h.count,
                h.sum_us as f64 / h.count as f64,
                hist.quantile_us(0.5).unwrap_or(0),
                hist.quantile_us(0.99).unwrap_or(0),
            ));
        }
        out.push_str("== ewmas (us) ==\n");
        for (name, e) in &snap.ewmas {
            match e {
                Some(v) => out.push_str(&format!("{name} = {v:.1}\n")),
                None => out.push_str(&format!("{name} = (no samples)\n")),
            }
        }
        out.push_str("== avail ==\n");
        for (name, a) in &snap.avails {
            match a {
                Some(v) => out.push_str(&format!("{name} = {v:.3}\n")),
                None => out.push_str(&format!("{name} = (no outcomes)\n")),
            }
        }
        let spans = self.spans();
        let recent = &spans[spans.len().saturating_sub(16)..];
        out.push_str(&format!(
            "== spans (last {} of {} recorded) ==\n",
            recent.len(),
            self.inner.spans.recorded()
        ));
        for ev in recent {
            match ev.tag {
                Some(tag) => out.push_str(&format!(
                    "#{} {} tag={} start={}ns dur={}ns\n",
                    ev.seq, ev.name, tag, ev.start_ns, ev.dur_ns
                )),
                None => out.push_str(&format!(
                    "#{} {} start={}ns dur={}ns\n",
                    ev.seq, ev.name, ev.start_ns, ev.dur_ns
                )),
            }
        }
        out
    }

    /// Machine-readable dump of counters, histograms (with buckets), EWMAs,
    /// and the most recent spans (capped at 64).
    pub fn render_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, snap.counters.iter(), |out, (name, v)| {
            out.push_str(&format!("\"{}\": {v}", escape(name)));
        });
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, snap.histograms.iter(), |out, (name, h)| {
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum_us\": {}, \"buckets\": {:?}, \"bounds_us\": {:?}}}",
                escape(name),
                h.count,
                h.sum_us,
                h.buckets,
                bucket_bounds(),
            ));
        });
        out.push_str("},\n  \"ewmas\": {");
        push_entries(&mut out, snap.ewmas.iter(), |out, (name, e)| match e {
            Some(v) => out.push_str(&format!("\"{}\": {v:.3}", escape(name))),
            None => out.push_str(&format!("\"{}\": null", escape(name))),
        });
        out.push_str("},\n  \"avail\": {");
        push_entries(&mut out, snap.avails.iter(), |out, (name, a)| match a {
            Some(v) => out.push_str(&format!("\"{}\": {v:.3}", escape(name))),
            None => out.push_str(&format!("\"{}\": null", escape(name))),
        });
        out.push_str("},\n  \"spans\": [");
        let spans = self.spans();
        let recent = &spans[spans.len().saturating_sub(64)..];
        push_entries(&mut out, recent.iter(), |out, ev| {
            out.push_str(&format!(
                "{{\"seq\": {}, \"name\": \"{}\", \"tag\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                ev.seq,
                escape(&ev.name),
                ev.tag.map_or("null".to_string(), |t| t.to_string()),
                ev.start_ns,
                ev.dur_ns
            ));
        });
        out.push_str("]\n}\n");
        out
    }
}

/// The handle under `name` in `map`, inserted as `T::default()` if absent.
fn resolve<T: Clone + Default>(map: &RwLock<BTreeMap<String, T>>, name: &str) -> T {
    if let Some(handle) = map.read().expect("obs lock").get(name) {
        return handle.clone();
    }
    map.write()
        .expect("obs lock")
        .entry(name.to_string())
        .or_default()
        .clone()
}

/// Inserts `handle` under `name` in `map` unless the name is taken.
fn register<T: Clone>(map: &RwLock<BTreeMap<String, T>>, name: &str, handle: &T) {
    map.write()
        .expect("obs lock")
        .entry(name.to_string())
        .or_insert_with(|| handle.clone());
}

fn push_entries<T>(
    out: &mut String,
    items: impl Iterator<Item = T>,
    mut render: impl FnMut(&mut String, T),
) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        render(out, item);
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn bucket_bounds() -> Vec<u64> {
    (0..crate::BUCKET_COUNT).map(bucket_bound_us).collect()
}

/// Plain-data copy of a registry's metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
    ewmas: BTreeMap<String, Option<f64>>,
    avails: BTreeMap<String, Option<f64>>,
}

impl Snapshot {
    /// The counter's value (0 when absent — an untouched counter and a
    /// missing one are the same observation).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All EWMAs, name-ordered (`None` for an unsampled one).
    pub fn ewmas(&self) -> &BTreeMap<String, Option<f64>> {
        &self.ewmas
    }

    /// All availability rates, name-ordered (`None` without outcomes).
    pub fn avails(&self) -> &BTreeMap<String, Option<f64>> {
        &self.avails
    }

    /// The named histogram's snapshot, if it has been registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The named EWMA's value (`None` when unregistered or unsampled).
    pub fn ewma(&self, name: &str) -> Option<f64> {
        self.ewmas.get(name).copied().flatten()
    }

    /// The named availability rate (`None` when unregistered or without
    /// outcomes).
    pub fn avail(&self, name: &str) -> Option<f64> {
        self.avails.get(name).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("a").add(2);
        reg.counter("a").add(3);
        reg.counter("b").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);

        reg.avail("m.avail").record(true);
        reg.avail("m.avail").record(true);
        reg.avail("m.avail").record(false);
        assert_eq!(reg.snapshot().avail("m.avail"), Some(2.0 / 3.0));
        assert_eq!(reg.snapshot().avail("missing"), None);
    }

    #[test]
    fn spans_record_into_ring_and_histogram() {
        let reg = Registry::new();
        {
            let _a = reg.span("quorum.collect");
            let _b = reg.span_tagged("rpc.call", 3);
        }
        let spans = reg.spans();
        assert_eq!(spans.len(), 2);
        // Guards drop in reverse declaration order: the tagged span lands
        // first.
        assert_eq!(spans[0].name, "rpc.call");
        assert_eq!(spans[0].tag, Some(3));
        assert_eq!(spans[1].name, "quorum.collect");
        assert_eq!(spans[1].tag, None);
        assert!(spans[0].start_ns <= spans[1].start_ns + spans[1].dur_ns);
        assert_eq!(reg.snapshot().histogram("rpc.call").unwrap().count, 1);
    }

    #[test]
    fn disarmed_registry_skips_spans_but_keeps_counters() {
        let reg = Registry::new();
        reg.set_timing_armed(false);
        {
            let _s = reg.span("never.recorded");
        }
        reg.counter("still.counts").inc();
        assert!(reg.spans().is_empty());
        assert_eq!(reg.snapshot().counter("still.counts"), 1);

        reg.set_timing_armed(true);
        {
            let _s = reg.span("recorded");
        }
        assert_eq!(reg.spans().len(), 1);
    }

    #[test]
    fn registered_handles_are_read_by_name_and_taken_names_keep_theirs() {
        let reg = Registry::new();
        let (counter, ewma, avail) = (Counter::new(), Ewma::default(), Avail::new());
        counter.add(4);
        ewma.record_us(50.0);
        avail.record(false);
        reg.register_counter("c", &counter);
        reg.register_ewma("e", &ewma);
        reg.register_avail("a", &avail);
        // The registry holds the handles themselves, not copies.
        counter.inc();
        reg.counter("c").inc();
        assert_eq!(counter.get(), 6);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 6);
        assert_eq!(snap.ewma("e"), Some(50.0));
        assert_eq!(snap.avail("a"), Some(0.0));
        assert_eq!((snap.ewmas().len(), snap.avails().len()), (1, 1));

        // A taken name is left alone: its existing handle stays registered.
        let other = Counter::new();
        other.add(100);
        reg.register_counter("c", &other);
        reg.register_ewma("e", &Ewma::default());
        reg.register_avail("a", &Avail::new());
        assert_eq!(reg.snapshot(), snap);
    }

    #[test]
    fn text_and_json_exports_cover_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("net.sent").add(9);
        reg.histogram("rpc.reply").record_us(250);
        reg.ewma("member.0.reply").record_us(123.0);
        reg.avail("member.0.avail").record(true);
        reg.avail("member.0.avail").record(false);
        {
            let _s = reg.span_tagged("quorum.collect", 1);
        }
        let text = reg.render_text();
        assert!(text.contains("net.sent = 9"));
        assert!(text.contains("rpc.reply: count=1"));
        assert!(text.contains("member.0.reply = 123.0"));
        assert!(text.contains("member.0.avail = 0.500"));
        assert!(text.contains("quorum.collect tag=1"));

        let json = reg.render_json();
        assert!(json.contains("\"net.sent\": 9"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"member.0.reply\": 123.000"));
        assert!(json.contains("\"member.0.avail\": 0.500"));
        assert!(json.contains("\"name\": \"quorum.collect\""));
        // Balanced braces/brackets — cheap structural sanity without a
        // parser (the bench JSON files get the same treatment).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
