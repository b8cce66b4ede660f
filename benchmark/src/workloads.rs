//! The five workloads, the closed-loop runner that measures them, and the
//! model every result is checked against.
//!
//! Each client thread owns a `BTreeMap` model of its share of the key space
//! and draws op kind, slot and value bytes from its own seeded generator
//! *before* the op's clock starts. A unit of work is one point operation, one
//! bulk cycle or one outage; a phase (warm-up or window) ends at the first
//! unit boundary past its length, so a window's elapsed time is exact.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use repdir::core::suite::{LookupOutcome, SuiteConfig};
use repdir::core::{Key, SuiteError, UserKey, Value};
use repdir::net::LatencyModel;
use repdir::repair::Pacing;
use repdir::replica::{ReplicatedDirectory, TransactionalRep};

use crate::cluster::{Cluster, Counters, Directory, RemoteDirectory};
use crate::keys::{key_of, preload_slots, stripe, user_key, value, SLOTS};
use crate::stats::SplitMix64;
use crate::trace::{Class, Kind, Span, Tracer};

/// Names are fixed: later issues cite them.
pub const NAMES: [&str; 5] = [
    "read_mostly",
    "write_mix",
    "bulk_scan",
    "wan_quorum",
    "member_outage",
];

/// Entries per `insert_many` call while preloading: one transaction per
/// chunk keeps each representative's lock list short.
const PRELOAD_CHUNK: usize = 256;

/// Keys per bulk cycle.
const BULK_BATCH: usize = 64;

/// Operations per small and per large outage. At the `write_mix` shares
/// that is 32 and 512 writes: under and far over the 64 dirty summary
/// buckets past which the repair driver streams a snapshot instead of
/// pulling bucket by bucket.
const OUTAGE_OPS: [usize; 2] = [40, 640];

const CATCHUP_POLL: Duration = Duration::from_millis(2);
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(10);

/// Polls without a lock granted anywhere before repair counts as quiet: a
/// snapshot stream fetches a chunk (one lock at the peer) every ~6 ms.
const QUIET_POLLS: u32 = 10;

/// Per-mille shares of a point workload's op kinds.
#[derive(Clone, Copy, Debug)]
struct Mix {
    lookup: u64,
    update: u64,
    insert: u64,
}

const READ_MOSTLY: Mix = Mix {
    lookup: 900,
    update: 50,
    insert: 25,
};
const WRITE_MIX: Mix = Mix {
    lookup: 200,
    update: 300,
    insert: 250,
};
const WAN_QUORUM: Mix = Mix {
    lookup: 700,
    update: 100,
    insert: 100,
};

/// How a run's measured time is split.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warmup: Duration,
    pub window: Duration,
    /// Untraced: three windows. Traced: the time of two windows, cut into
    /// [`TRACE_SLICES`] slices that alternate tracing off and on, so that
    /// drift over the run cancels out of the overhead estimate.
    pub traced: bool,
    /// A smoke run: an eighth of the preload, one set-up.
    pub smoke: bool,
}

impl Plan {
    /// Set-ups per run: the run uses the first and reports the median.
    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            7
        }
    }

    fn preload(&self, entries: u64) -> u64 {
        if self.smoke {
            entries / 8
        } else {
            entries
        }
    }

    fn phases(&self) -> Vec<Phase> {
        let w = |kind| Phase {
            kind,
            length: self.window,
        };
        let mut phases = vec![Phase {
            kind: PhaseKind::Warmup,
            length: self.warmup,
        }];
        if self.traced {
            let slice = |kind| Phase {
                kind,
                length: self.window * 2 / TRACE_SLICES,
            };
            for _ in 0..TRACE_SLICES / 2 {
                phases.extend([slice(PhaseKind::Window), slice(PhaseKind::TracedWindow)]);
            }
        } else {
            phases.extend([w(PhaseKind::Window); 3]);
        }
        phases
    }
}

/// Slices of a traced run, half of them traced.
const TRACE_SLICES: u32 = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PhaseKind {
    Warmup,
    Window,
    TracedWindow,
}

#[derive(Clone, Copy, Debug)]
struct Phase {
    kind: PhaseKind,
    length: Duration,
}

/// One client's samples over one window.
#[derive(Debug, Default)]
pub struct Window {
    /// Latencies in ns, indexed by [`Class`].
    pub latency_ns: [Vec<u64>; 3],
    /// Successful operations.
    pub ops: u64,
    /// Entries read or written by them.
    pub entries: u64,
    pub elapsed: Duration,
    pub traced: bool,
}

/// What a client thread accumulates over a run.
pub struct Recorder {
    pub tracer: Tracer,
    current: Option<Window>,
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Catch-up times in ms after small and large outages (`member_outage`).
    pub catchup_ms: [Vec<f64>; 2],
}

impl Recorder {
    fn new(epoch: Instant) -> Self {
        Recorder {
            tracer: Tracer::new(epoch, Tracer::CAPACITY),
            current: None,
            windows: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            catchup_ms: [Vec::new(), Vec::new()],
        }
    }

    /// Times one operation of `entries` entries. Failures (an `Err` after
    /// the driver's retries) are counted and reported, never sampled.
    fn op<R>(
        &mut self,
        class: Class,
        entries: u64,
        f: impl FnOnce(&mut Tracer) -> Result<R, SuiteError>,
    ) -> Option<R> {
        let start = Instant::now();
        self.tracer.begin_op(class, start);
        let result = f(&mut self.tracer);
        let end = Instant::now();
        self.tracer.end_op(end);
        self.attempted += 1;
        match result {
            Ok(out) => {
                if let Some(w) = &mut self.current {
                    w.latency_ns[class as usize].push((end - start).as_nanos() as u64);
                    w.ops += 1;
                    w.entries += entries;
                }
                Some(out)
            }
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("operation failed ({}): {e}", class.name());
                }
                None
            }
        }
    }

    fn wrong(&mut self, what: std::fmt::Arguments<'_>) {
        self.wrong += 1;
        if self.wrong <= 5 {
            eprintln!("wrong result: {what}");
        }
    }

    fn start_phase(&mut self, kind: PhaseKind) {
        let traced = kind == PhaseKind::TracedWindow;
        self.tracer.set_enabled(traced);
        self.current = (kind != PhaseKind::Warmup).then(|| Window {
            traced,
            ..Window::default()
        });
    }

    fn end_phase(&mut self, elapsed: Duration) {
        self.tracer.set_enabled(false);
        if let Some(mut w) = self.current.take() {
            w.elapsed = elapsed;
            self.windows.push(w);
        }
    }
}

/// A closed-loop client.
trait Client: Send {
    /// One unit of work, each operation in it timed through `rec`.
    fn step(&mut self, rec: &mut Recorder);

    /// The entries this client believes the directory holds for its keys.
    fn model(&self) -> &BTreeMap<u64, Value>;
}

fn model_listing<'a>(
    models: impl IntoIterator<Item = &'a BTreeMap<u64, Value>>,
) -> Vec<(UserKey, Value)> {
    let mut all: Vec<(u64, &Value)> = models
        .into_iter()
        .flat_map(|m| m.iter().map(|(slot, v)| (*slot, v)))
        .collect();
    all.sort_by_key(|(slot, _)| *slot);
    all.into_iter()
        .map(|(slot, v)| (user_key(slot), v.clone()))
        .collect()
}

/// Key choice shared by the point and outage clients: updates hit preloaded
/// (even) slots, inserts take free odd slots, deletes take a key this client
/// inserted, so the directory's size stays steady and no operation can fail.
struct KeySpace {
    rng: SplitMix64,
    slots: Range<u64>,
    /// The preloaded slots, ascending: present for the whole run, since
    /// deletes only take inserted keys.
    preloaded: Vec<u64>,
    model: BTreeMap<u64, Value>,
    inserted: Vec<u64>,
}

enum PointOp {
    Lookup(u64),
    Update(u64, Value),
    Insert(u64, Value),
    Delete(u64),
}

impl KeySpace {
    fn new(rng: SplitMix64, slots: Range<u64>) -> Self {
        KeySpace {
            rng,
            slots,
            preloaded: Vec::new(),
            model: BTreeMap::new(),
            inserted: Vec::new(),
        }
    }

    fn preload_entries(&mut self, count: u64) -> Vec<(Key, Value)> {
        self.preloaded = preload_slots(self.slots.clone(), count).collect();
        self.preloaded
            .iter()
            .map(|slot| {
                let v = value(&mut self.rng);
                self.model.insert(*slot, v.clone());
                (key_of(*slot), v)
            })
            .collect()
    }

    fn pick_preloaded(&mut self) -> u64 {
        self.preloaded[self.rng.below(self.preloaded.len() as u64) as usize]
    }

    fn pick_odd(&mut self) -> u64 {
        let half = (self.slots.end - self.slots.start) / 2;
        self.slots.start + 2 * self.rng.below(half) + 1
    }

    /// An odd slot with no entry, probing upwards from a random one.
    fn free_odd_slot(&mut self) -> u64 {
        let mut slot = self.pick_odd();
        while self.model.contains_key(&slot) {
            slot += 2;
            if slot >= self.slots.end {
                slot = self.slots.start + 1;
            }
        }
        slot
    }

    fn draw(&mut self, mix: Mix) -> PointOp {
        let roll = self.rng.below(1000);
        if roll < mix.lookup {
            // Nine lookups in ten ask for a preloaded key, one for an insert
            // target (usually absent: the reply is a gap version).
            let slot = match self.rng.below(10) {
                9 => self.pick_odd(),
                _ => self.pick_preloaded(),
            };
            return PointOp::Lookup(slot);
        }
        if roll < mix.lookup + mix.update {
            return PointOp::Update(self.pick_preloaded(), value(&mut self.rng));
        }
        if roll < mix.lookup + mix.update + mix.insert || self.inserted.is_empty() {
            let slot = self.free_odd_slot();
            return PointOp::Insert(slot, value(&mut self.rng));
        }
        let i = self.rng.below(self.inserted.len() as u64) as usize;
        PointOp::Delete(self.inserted.swap_remove(i))
    }

    /// Runs one drawn operation through `dir` and checks it.
    fn apply<D: Directory>(&mut self, op: PointOp, dir: &mut D, rec: &mut Recorder) {
        match op {
            PointOp::Lookup(slot) => {
                let key = key_of(slot);
                let expect = self.model.get(&slot);
                if let Some(found) = rec.op(Class::Read, 1, |t| dir.lookup(t, &key)) {
                    if found.present != expect.is_some() || found.value.as_ref() != expect {
                        rec.wrong(format_args!(
                            "lookup of slot {slot}: present={}",
                            found.present
                        ));
                    }
                }
            }
            PointOp::Update(slot, v) => {
                let key = key_of(slot);
                if rec
                    .op(Class::Write, 1, |t| dir.update(t, &key, &v))
                    .is_some()
                {
                    self.model.insert(slot, v);
                }
            }
            PointOp::Insert(slot, v) => {
                let key = key_of(slot);
                if rec
                    .op(Class::Write, 1, |t| dir.insert(t, &key, &v))
                    .is_some()
                {
                    self.model.insert(slot, v);
                    self.inserted.push(slot);
                }
            }
            PointOp::Delete(slot) => {
                let key = key_of(slot);
                if rec.op(Class::Delete, 1, |t| dir.delete(t, &key)).is_some() {
                    self.model.remove(&slot);
                } else {
                    self.inserted.push(slot);
                }
            }
        }
    }
}

/// The in-process directory begins, retries and commits inside each call,
/// so the trace sees one `call` span per operation.
struct InProcess<'a>(&'a ReplicatedDirectory);

impl InProcess<'_> {
    fn call<R>(t: &mut Tracer, f: impl FnOnce() -> R) -> R {
        let start = t.now();
        let out = f();
        t.child(Kind::Call, start, t.now());
        out
    }
}

impl Directory for InProcess<'_> {
    fn lookup(&mut self, t: &mut Tracer, key: &Key) -> Result<LookupOutcome, SuiteError> {
        Self::call(t, || self.0.lookup(key))
    }
    fn insert(&mut self, t: &mut Tracer, key: &Key, v: &Value) -> Result<(), SuiteError> {
        Self::call(t, || self.0.insert(key, v))
    }
    fn update(&mut self, t: &mut Tracer, key: &Key, v: &Value) -> Result<(), SuiteError> {
        Self::call(t, || self.0.update(key, v))
    }
    fn delete(&mut self, t: &mut Tracer, key: &Key) -> Result<(), SuiteError> {
        Self::call(t, || self.0.delete(key))
    }
}

struct PointClient {
    dir: RemoteDirectory,
    keys: KeySpace,
    mix: Mix,
}

impl Client for PointClient {
    fn step(&mut self, rec: &mut Recorder) {
        let op = self.keys.draw(self.mix);
        self.keys.apply(op, &mut self.dir, rec);
    }

    fn model(&self) -> &BTreeMap<u64, Value> {
        &self.keys.model
    }
}

/// `insert_many(64 fresh keys)` → `scan()` → `delete_many(those 64)`.
struct BulkClient {
    dir: RemoteDirectory,
    keys: KeySpace,
}

impl Client for BulkClient {
    fn step(&mut self, rec: &mut Recorder) {
        let mut slots: Vec<u64> = Vec::with_capacity(BULK_BATCH);
        while slots.len() < BULK_BATCH {
            let slot = self.keys.free_odd_slot();
            if !slots.contains(&slot) {
                slots.push(slot);
            }
        }
        slots.sort_unstable();
        let entries: Vec<(Key, Value)> = slots
            .iter()
            .map(|s| (key_of(*s), value(&mut self.keys.rng)))
            .collect();
        let n = BULK_BATCH as u64;
        let dir = &mut self.dir;
        if rec
            .op(Class::Write, n, |t| dir.insert_many(t, &entries))
            .is_none()
        {
            return;
        }
        for (slot, (_, v)) in slots.iter().zip(&entries) {
            self.keys.model.insert(*slot, v.clone());
        }
        let expect = model_listing([&self.keys.model]);
        if let Some(listing) = rec.op(Class::Read, expect.len() as u64, |t| dir.scan(t)) {
            if listing != expect {
                rec.wrong(format_args!(
                    "scan returned {} entries, model has {}",
                    listing.len(),
                    expect.len()
                ));
            }
        }
        let keys: Vec<Key> = entries.into_iter().map(|(k, _)| k).collect();
        if rec
            .op(Class::Delete, n, |t| dir.delete_many(t, &keys))
            .is_some()
        {
            for slot in &slots {
                self.keys.model.remove(slot);
            }
        }
    }

    fn model(&self) -> &BTreeMap<u64, Value> {
        &self.keys.model
    }
}

/// Alternates a small and a large outage of member 2, each followed by a
/// timed catch-up.
struct OutageClient {
    dir: ReplicatedDirectory,
    keys: KeySpace,
    large: bool,
}

fn converged(dir: &ReplicatedDirectory) -> bool {
    let first = dir.reps()[0].snapshot();
    dir.reps()[1..].iter().all(|rep| rep.snapshot() == first)
}

/// What keeps two representatives apart, for the report of a catch-up that
/// timed out: entries and gaps one side has and the other lacks or holds at
/// another version.
fn describe_divergence(dir: &ReplicatedDirectory) {
    let maps: Vec<_> = dir.reps().iter().map(|rep| rep.snapshot()).collect();
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        let entries = |i: usize| -> Vec<_> { maps[i].iter().collect() };
        let gaps = |i: usize| -> Vec<_> { maps[i].gaps().collect() };
        fn only<T: PartialEq>(x: &[T], y: &[T]) -> usize {
            x.iter().filter(|e| !y.contains(e)).count()
        }
        let (ea, eb, ga, gb) = (entries(a), entries(b), gaps(a), gaps(b));
        eprintln!(
            "  rep {a} vs rep {b}: {} / {} entries and {} / {} gaps the other lacks",
            only(&ea, &eb),
            only(&eb, &ea),
            only(&ga, &gb),
            only(&gb, &ga),
        );
        for gap in ga.iter().filter(|g| !gb.contains(g)).take(3) {
            eprintln!("    rep {a} only: {gap:?}");
        }
        for gap in gb.iter().filter(|g| !ga.contains(g)).take(3) {
            eprintln!("    rep {b} only: {gap:?}");
        }
    }
}

/// Polls until every representative holds the same state; `false` on
/// timeout.
fn await_convergence(dir: &ReplicatedDirectory, timeout: Duration) -> bool {
    let start = Instant::now();
    while !converged(dir) {
        if start.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(CATCHUP_POLL);
    }
    true
}

/// Waits until no representative has granted a lock for [`QUIET_POLLS`]
/// polls: the repair drivers have finished what they were doing.
///
/// Equal snapshots do not mean repair is over: a snapshot install that has
/// already levelled the member still streams the unchanged rest. When an
/// outage began in that window, once in ~2000 outages the member's repair
/// stopped for good and every later catch-up timed out (README, known
/// gaps). With this wait it has not happened again.
fn await_quiet(dir: &ReplicatedDirectory) {
    let granted = || -> u64 { dir.reps().iter().map(|r| r.lock_stats().granted).sum() };
    let (mut last, mut quiet) = (granted(), 0);
    while quiet < QUIET_POLLS {
        std::thread::sleep(CATCHUP_POLL);
        let now = granted();
        quiet = if now == last { quiet + 1 } else { 0 };
        last = now;
    }
}

impl Client for OutageClient {
    fn step(&mut self, rec: &mut Recorder) {
        let size = usize::from(self.large);
        self.large = !self.large;
        self.dir.reps()[2].set_available(false);
        for _ in 0..OUTAGE_OPS[size] {
            let op = self.keys.draw(WRITE_MIX);
            self.keys.apply(op, &mut InProcess(&self.dir), rec);
        }
        let healed = Instant::now();
        self.dir.reps()[2].set_available(true);
        rec.attempted += 1;
        if await_convergence(&self.dir, CATCHUP_TIMEOUT) {
            rec.catchup_ms[size].push(healed.elapsed().as_secs_f64() * 1e3);
            await_quiet(&self.dir);
        } else {
            rec.failed += 1;
            eprintln!("catch-up timed out after {CATCHUP_TIMEOUT:?}");
            describe_divergence(&self.dir);
        }
    }

    fn model(&self) -> &BTreeMap<u64, Value> {
        &self.keys.model
    }
}

/// What the clients run against, as the runner sees it: a source of layer
/// counters and of the closing listing.
enum Backend {
    Remote(Cluster),
    /// The in-process directory lives in its client; the runner keeps the
    /// representatives. It owns its disks and has no fabric, so only the
    /// lock counters are visible.
    InProcess(Vec<Arc<TransactionalRep>>),
}

impl Backend {
    fn counters(&self) -> Counters {
        match self {
            Backend::Remote(cluster) => cluster.counters(),
            Backend::InProcess(reps) => {
                Counters::of_reps(std::iter::empty(), reps.iter().map(|r| r.lock_stats()))
            }
        }
    }

    /// Every entry of the directory, for the closing check: one scan at zero
    /// delay, or (in process, where the replicas have converged) one
    /// representative's state.
    fn listing(&self) -> Result<Vec<(UserKey, Value)>, SuiteError> {
        match self {
            Backend::Remote(cluster) => {
                cluster.set_latency(LatencyModel::ZERO);
                cluster.client(u32::MAX).scan(&mut Tracer::off())
            }
            Backend::InProcess(reps) => Ok(reps[0]
                .snapshot()
                .iter()
                .map(|(key, _, value)| (key.clone(), value.clone()))
                .collect()),
        }
    }
}

/// A built and preloaded system, ready to run.
struct System {
    clients: Vec<Box<dyn Client>>,
    backend: Backend,
}

fn preload_remote(dir: &mut RemoteDirectory, entries: &[(Key, Value)]) {
    for chunk in entries.chunks(PRELOAD_CHUNK) {
        dir.insert_many(&mut Tracer::off(), chunk)
            .expect("preload on a fault-free fabric");
    }
}

fn build_point(
    seed: u64,
    mix: Mix,
    (n, r, w): (u32, u32, u32),
    latency: LatencyModel,
    preload: u64,
) -> System {
    const CLIENTS: u64 = 2;
    // Preload at zero delay: it is set-up, not the workload.
    let cluster = Cluster::build(seed, n, r, w, LatencyModel::ZERO);
    let root = SplitMix64::new(seed);
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut keys = KeySpace::new(root.fork(c), stripe(c, CLIENTS));
            let mut dir = cluster.client(c as u32);
            preload_remote(&mut dir, &keys.preload_entries(preload / CLIENTS));
            Box::new(PointClient { dir, keys, mix }) as Box<dyn Client>
        })
        .collect();
    cluster.set_latency(latency);
    System {
        clients,
        backend: Backend::Remote(cluster),
    }
}

fn build_bulk(seed: u64, preload: u64) -> System {
    let cluster = Cluster::build(seed, 3, 2, 2, LatencyModel::ZERO);
    let mut keys = KeySpace::new(SplitMix64::new(seed).fork(0), 0..SLOTS);
    let mut dir = cluster.client(0);
    preload_remote(&mut dir, &keys.preload_entries(preload));
    System {
        clients: vec![Box::new(BulkClient { dir, keys })],
        backend: Backend::Remote(cluster),
    }
}

fn build_outage(seed: u64, preload: u64) -> OutageClient {
    let config = SuiteConfig::symmetric(3, 2, 2).expect("3-2-2 is valid");
    let dir = ReplicatedDirectory::new(config, seed).expect("three members for three votes");
    let mut keys = KeySpace::new(SplitMix64::new(seed).fork(0), 0..SLOTS);
    for chunk in keys.preload_entries(preload).chunks(PRELOAD_CHUNK) {
        dir.insert_many(chunk)
            .expect("preload with every member up");
    }
    // Preload writes reach two members of three; the drivers level the third
    // before the first outage.
    dir.spawn_repair_drivers(Pacing::default());
    assert!(
        await_convergence(&dir, Duration::from_secs(60)),
        "replicas converge after preload"
    );
    await_quiet(&dir);
    OutageClient {
        dir,
        keys,
        large: false,
    }
}

/// Builds workload `name` from `seed`.
fn build(name: &str, seed: u64, plan: &Plan) -> Option<System> {
    let full = plan.preload(8192);
    let wan = LatencyModel::fixed(Duration::from_micros(500));
    Some(match name {
        "read_mostly" => build_point(seed, READ_MOSTLY, (3, 2, 2), LatencyModel::ZERO, full),
        "write_mix" => build_point(seed, WRITE_MIX, (3, 2, 2), LatencyModel::ZERO, full),
        "wan_quorum" => build_point(seed, WAN_QUORUM, (5, 2, 4), wan, full),
        "bulk_scan" => build_bulk(seed, plan.preload(512)),
        "member_outage" => {
            let client = build_outage(seed, full);
            System {
                backend: Backend::InProcess(client.dir.reps().to_vec()),
                clients: vec![Box::new(client)],
            }
        }
        _ => return None,
    })
}

/// Median catch-up time in ms after `[small, large]` outages, over `pairs`
/// of them on a fresh in-process directory: the probe every traced run
/// reports, whatever its workload.
pub fn catchup_probe(seed: u64, pairs: u64) -> [f64; 2] {
    let mut client = build_outage(seed, 8192);
    let mut rec = Recorder::new(Instant::now());
    for _ in 0..2 * pairs {
        client.step(&mut rec);
    }
    assert_eq!((rec.failed, rec.wrong), (0, 0), "catch-up probe went wrong");
    rec.catchup_ms.map(|ms| crate::stats::median(&ms))
}

/// Everything one run measured.
pub struct RunOutput {
    /// Every set-up's time in seconds; the metric is their median.
    pub setup_times: Vec<f64>,
    /// The largest resident set (`VmRSS`) read at a phase boundary.
    pub peak_rss_mb: f64,
    /// `VmHWM` when the last window closed.
    pub high_water_mb: f64,
    /// Per client, its windows in order.
    pub windows: Vec<Vec<Window>>,
    /// Per client, the spans of its traced slices.
    pub spans: Vec<Vec<Span>>,
    pub spans_dropped: u64,
    /// Layer counters over the traced slices (zero when untraced).
    pub traced_counters: Counters,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub catchup_ms: [Vec<f64>; 2],
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, seed: u64, plan: &Plan) -> Option<RunOutput> {
    let timed_build = || {
        let start = Instant::now();
        let system = build(name, seed, plan)?;
        Some((system, start.elapsed().as_secs_f64()))
    };
    let (system, first_setup) = timed_build()?;
    let mut setup_times = vec![first_setup];
    let System {
        mut clients,
        backend,
    } = system;

    let phases = plan.phases();
    let barrier = Barrier::new(clients.len());
    let epoch = Instant::now();
    // Counter and resident-set readings at each phase boundary, taken while
    // every client is parked at the barrier.
    let boundaries: Mutex<Vec<(Counters, f64)>> = Mutex::new(Vec::new());
    let read_boundary = || {
        if barrier.wait().is_leader() {
            let reading = (backend.counters(), proc_status_mb("VmRSS:"));
            boundaries.lock().expect("no holder panics").push(reading);
        }
        barrier.wait();
    };
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (phases, read_boundary) = (&phases, &read_boundary);
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch);
                    for phase in phases {
                        read_boundary();
                        rec.start_phase(phase.kind);
                        let start = Instant::now();
                        while start.elapsed() < phase.length {
                            client.step(&mut rec);
                        }
                        rec.end_phase(start.elapsed());
                    }
                    read_boundary();
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let readings = boundaries.into_inner().expect("no holder panics");
    let mut out = RunOutput {
        setup_times: Vec::new(),
        // Read at the boundaries, not as the high-water mark: the log on
        // `SimDisk` is one vector, and the two copies alive while it doubles
        // make `VmHWM` jump by a third depending on whether the last
        // doubling fell inside the run.
        peak_rss_mb: readings.iter().map(|r| r.1).fold(0.0, f64::max),
        // Both read before the remaining set-ups: this system's memory only.
        high_water_mb: proc_status_mb("VmHWM:"),
        windows: Vec::new(),
        spans: Vec::new(),
        spans_dropped: 0,
        traced_counters: Counters::default(),
        attempted: 1,
        failed: 0,
        wrong: 0,
        catchup_ms: [Vec::new(), Vec::new()],
    };
    for (i, phase) in phases.iter().enumerate() {
        if phase.kind == PhaseKind::TracedWindow {
            out.traced_counters += readings[i + 1].0.since(&readings[i].0);
        }
    }

    // The closing check (the one operation `attempted` starts at): the
    // directory must list exactly the union of the models.
    let expect = model_listing(clients.iter().map(|c| c.model()));
    match backend.listing() {
        Ok(listing) if listing == expect => {}
        Ok(listing) => {
            out.wrong += 1;
            eprintln!(
                "wrong result: the directory lists {} entries, the models {}",
                listing.len(),
                expect.len()
            );
        }
        Err(e) => {
            out.failed += 1;
            eprintln!("closing scan failed: {e}");
        }
    }

    for rec in recorders {
        out.attempted += rec.attempted;
        out.failed += rec.failed;
        out.wrong += rec.wrong;
        out.spans_dropped += rec.tracer.dropped;
        out.spans.push(rec.tracer.into_spans());
        for (all, mine) in out.catchup_ms.iter_mut().zip(rec.catchup_ms) {
            all.extend(mine);
        }
        out.windows.push(rec.windows);
    }

    // The remaining set-ups are only timed: built, then dropped. They come
    // last so that one system's memory is all the run's peak ever holds.
    drop((clients, backend));
    while setup_times.len() < plan.setups() {
        setup_times.push(timed_build()?.1);
    }
    out.setup_times = setup_times;
    Some(out)
}

/// A `kB` field of `/proc/self/status`, in MiB; 0 where there is no such
/// file.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
