//! The driver trace: spans recorded from the benchmark's side of each layer
//! boundary, kept in a preallocated buffer and written out when the run
//! ends.
//!
//! One operation is one `op` span with children `begin`, `call` (the suite
//! or directory call), `commit`, and on a retry `abort` and `backoff`. A
//! span's self time is its duration minus the part of it its children
//! cover, so `begin + call + commit + abort + backoff + self` is the op's
//! duration exactly.

use std::io::Write;
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Op,
    Begin,
    Call,
    Commit,
    Abort,
    Backoff,
}

impl Kind {
    pub const CHILDREN: [Kind; 5] = [
        Kind::Begin,
        Kind::Call,
        Kind::Commit,
        Kind::Abort,
        Kind::Backoff,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Begin => "begin",
            Kind::Call => "call",
            Kind::Commit => "commit",
            Kind::Abort => "abort",
            Kind::Backoff => "backoff",
        }
    }
}

/// The three operation classes every workload reports (see README: what
/// `read`, `write` and `delete` are on each workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write = 1,
    Delete = 2,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Read, Class::Write, Class::Delete];

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Delete => "delete",
        }
    }
}

/// One recorded span. `id` is unique within a client; `parent` is the `op`
/// span's id, or 0 for the `op` span itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub kind: Kind,
    pub class: Class,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-client span recorder. Disabled, every call is a branch and nothing
/// else: no clock read, no store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    capacity: usize,
    /// Index of the open `op` span, if one is open and was recorded.
    open: Option<usize>,
    pub dropped: u64,
}

impl Tracer {
    /// Room for 2^18 spans (10 MiB) per client: a minute of point
    /// operations at four spans each.
    pub const CAPACITY: usize = 1 << 18;

    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            enabled: false,
            spans: Vec::with_capacity(capacity),
            capacity,
            open: None,
            dropped: 0,
        }
    }

    /// A tracer that never records (set-up, closing checks).
    pub fn off() -> Self {
        Tracer::new(Instant::now(), 0)
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Nanoseconds since the epoch, or 0 when disabled.
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens the `op` span at `start` (an instant the caller already read
    /// for its latency sample).
    pub fn begin_op(&mut self, class: Class, start: Instant) {
        if !self.enabled {
            return;
        }
        // Keep room for the op's children so no op is recorded in part.
        if self.spans.len() + 16 > self.capacity {
            self.dropped += 1;
            self.open = None;
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.open = Some(self.spans.len());
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent: 0,
            kind: Kind::Op,
            class,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Records a child of the open op.
    pub fn child(&mut self, kind: Kind, start_ns: u64, end_ns: u64) {
        let Some(op) = self.open else { return };
        if self.spans.len() >= self.capacity {
            return;
        }
        let parent = self.spans[op];
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent: parent.id,
            kind,
            class: parent.class,
            start_ns,
            end_ns,
        });
    }

    /// Closes the open op at `end`.
    pub fn end_op(&mut self, end: Instant) {
        if let Some(op) = self.open.take() {
            self.spans[op].end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }
}

/// Self time of `op`: its duration minus the union of the intervals its
/// children cover inside it.
pub fn self_time_ns(op: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(op.start_ns), c.end_ns.min(op.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = op.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    op.duration_ns() - covered
}

/// Per-op breakdown of one client's spans, in recording order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpBreakdown {
    pub class: Class,
    pub total_ns: u64,
    /// Time under each child kind, indexed as [`Kind::CHILDREN`].
    pub child_ns: [u64; 5],
    pub self_ns: u64,
}

impl OpBreakdown {
    /// Time under the children of `kind`.
    pub fn under(&self, kind: Kind) -> u64 {
        let slot = Kind::CHILDREN.iter().position(|k| *k == kind);
        self.child_ns[slot.expect("op spans are never children")]
    }
}

/// Groups children under their op (children directly follow their op in the
/// buffer) and computes every op's breakdown.
pub fn breakdowns(spans: &[Span]) -> Vec<OpBreakdown> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        let op = spans[i];
        debug_assert_eq!(op.kind, Kind::Op);
        let mut j = i + 1;
        while j < spans.len() && spans[j].parent == op.id {
            j += 1;
        }
        let children = &spans[i + 1..j];
        let mut child_ns = [0u64; 5];
        for child in children {
            let slot = Kind::CHILDREN
                .iter()
                .position(|k| *k == child.kind)
                .expect("children are never op spans");
            child_ns[slot] += child.duration_ns();
        }
        out.push(OpBreakdown {
            class: op.class,
            total_ns: op.duration_ns(),
            child_ns,
            self_ns: self_time_ns(&op, children),
        });
        i = j;
    }
    out
}

/// Writes one JSON object per span: `client`, `id`, `parent` (0 for an op),
/// `name`, `class`, `start_ns`, `end_ns`.
pub fn write_jsonl(path: &std::path::Path, clients: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, spans) in clients.iter().enumerate() {
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"client\": {client}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"class\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.kind.name(),
                s.class.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: u32, parent: u32, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            kind,
            class: Class::Read,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let op = span(1, 0, Kind::Op, 100, 1100);
        let kids = [
            span(2, 1, Kind::Begin, 110, 300),
            span(3, 1, Kind::Call, 300, 800),
            span(4, 1, Kind::Commit, 820, 1000),
        ];
        // 1000 total, children cover 190 + 500 + 180.
        assert_eq!(self_time_ns(&op, &kids), 130);
        assert_eq!(self_time_ns(&op, &[]), 1000);
        // Overlapping and overhanging children count once, inside the op.
        let messy = [
            span(2, 1, Kind::Begin, 50, 400),
            span(3, 1, Kind::Call, 300, 600),
            span(4, 1, Kind::Commit, 1000, 1500),
        ];
        assert_eq!(self_time_ns(&op, &messy), 1000 - 500 - 100);
    }

    #[test]
    fn breakdown_parts_sum_to_the_op_exactly() {
        let spans = [
            span(1, 0, Kind::Op, 0, 1000),
            span(2, 1, Kind::Begin, 10, 200),
            span(3, 1, Kind::Call, 210, 700),
            span(4, 1, Kind::Commit, 705, 990),
            span(5, 0, Kind::Op, 1000, 1500),
            span(6, 5, Kind::Call, 1001, 1499),
        ];
        let ops = breakdowns(&spans);
        assert_eq!(ops.len(), 2);
        for op in &ops {
            assert_eq!(op.child_ns.iter().sum::<u64>() + op.self_ns, op.total_ns);
        }
        assert_eq!(ops[0].child_ns, [190, 490, 285, 0, 0]);
        assert_eq!(ops[0].under(Kind::Commit), 285);
        assert_eq!(ops[1].self_ns, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_reads_no_clock() {
        let epoch = Instant::now();
        let mut t = Tracer::off();
        assert_eq!(t.now(), 0);
        t.begin_op(Class::Write, epoch);
        t.child(Kind::Begin, 1, 2);
        t.end_op(epoch + Duration::from_micros(5));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_and_stops_at_capacity() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 40);
        t.set_enabled(true);
        for _ in 0..10 {
            t.begin_op(Class::Delete, epoch + Duration::from_nanos(100));
            t.child(Kind::Begin, 110, 200);
            t.child(Kind::Call, 200, 900);
            t.end_op(epoch + Duration::from_nanos(1000));
        }
        // An op opens only with 16 spans of headroom: 9 whole ops fit in 40.
        assert_eq!(t.spans().len(), 27);
        assert_eq!(t.dropped, 1);
        let ops = breakdowns(t.spans());
        assert_eq!(ops.len(), 9);
        assert!(ops.iter().all(|op| op.total_ns == 900
            && op.class == Class::Delete
            && op.child_ns[0] == 90
            && op.child_ns[1] == 700
            && op.self_ns == 110));
        assert_eq!(t.spans()[1].parent, t.spans()[0].id);
    }
}
