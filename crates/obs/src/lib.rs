//! Observability for the replicated directory: metrics and tracing with no
//! dependencies beyond `std`.
//!
//! Daniels & Spector evaluate their algorithm entirely through message
//! counts and update-site latency (§4); this crate makes those quantities —
//! and the timing behind the suite's concurrent quorum waves — first-class:
//!
//! * [`Counter`] — a shared atomic event counter.
//! * [`Histogram`] — a fixed-bucket (power-of-two microsecond) latency
//!   histogram with approximate quantiles.
//! * [`Ewma`] — an exponentially weighted moving average of reply times;
//!   the suite keeps one per member and `LatencyPolicy` orders quorum
//!   candidates by it.
//! * [`Avail`] — a windowed success-rate tracker; the suite keeps one per
//!   member (`suite.member.{i}.avail`), fed by every ping/RPC outcome, and
//!   sizes adaptive quorum waves by the expected yield it reports.
//! * [`Flusher`] — an interval thread that writes one registry's snapshot
//!   *diffs* (text or JSON lines) to stderr or a file.
//! * [`SpanRing`] + [`span!`] — a lock-free-ish ring buffer of scoped-timer
//!   events (`span!(reg, "quorum.collect", member = i)`) with monotonic
//!   timestamps; torn slots are detected and skipped on read, never locked
//!   against.
//! * [`Registry`] — a named collection of all of the above with text and
//!   JSON exporters and a [`Snapshot`] diff API for tests.
//!
//! # Overhead model
//!
//! Counters are single relaxed atomic adds and are always live. Everything
//! that needs a clock read (spans, timed EWMA samples) is gated on the
//! registry's *armed* flag — one relaxed load when disarmed — so a detached
//! registry makes the instrumentation effectively free. `scripts/check.sh`
//! holds the armed build to within 5% of the disarmed baseline.
//!
//! # Example
//!
//! ```
//! use repdir_obs::{Registry, span};
//!
//! let reg = Registry::new();
//! let requests = reg.counter("rpc.requests");
//! for member in 0..3u64 {
//!     let _span = span!(reg, "quorum.collect", member = member);
//!     requests.inc();
//! }
//! assert_eq!(reg.snapshot().counter("rpc.requests"), 3);
//! assert_eq!(reg.spans().len(), 3);
//! println!("{}", reg.render_text());
//! ```

mod flush;
mod metrics;
mod registry;
mod span;

pub use flush::{FlushFormat, FlushSink, Flusher};
pub use metrics::{Avail, Counter, Ewma, Histogram, HistogramSnapshot, AVAIL_WINDOW, BUCKET_COUNT};
pub use registry::{Registry, Snapshot};
pub use span::{SpanEvent, SpanGuard, SpanRing};

/// Opens a scoped timer on a [`Registry`]: the span is recorded into the
/// registry's ring buffer (and a histogram of the same name) when the guard
/// drops. With the registry disarmed this is a single relaxed load.
///
/// ```
/// use repdir_obs::{Registry, span};
/// let reg = Registry::new();
/// {
///     let _s = span!(reg, "wal.sync");
///     let _t = span!(reg, "quorum.collect", member = 2u64);
/// }
/// assert_eq!(reg.spans().len(), 2);
/// ```
#[macro_export]
macro_rules! span {
    ($reg:expr, $name:expr) => {
        $reg.span($name)
    };
    ($reg:expr, $name:expr, member = $tag:expr) => {
        $reg.span_tagged($name, ($tag) as u64)
    };
    ($reg:expr, $name:expr, tag = $tag:expr) => {
        $reg.span_tagged($name, ($tag) as u64)
    };
}
