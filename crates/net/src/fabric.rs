//! The message fabric: registration, delivery, and fault injection.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::rng::StdRng;
use repdir_core::sync::{Condvar, Mutex, MutexGuard};

/// Identifies one node on the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The kind of a delivered message (RPC correlation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// A request expecting a response with the same correlation id.
    Request(u64),
    /// A response to the request with this correlation id.
    Response(u64),
}

/// One delivered message.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender.
    pub src: NodeId,
    /// Recipient.
    pub dst: NodeId,
    /// Request/response discriminator and correlation id.
    pub kind: MsgKind,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Message latency: uniform in `[base, base + jitter]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Minimum one-way delay.
    pub base: Duration,
    /// Additional uniformly distributed delay.
    pub jitter: Duration,
}

impl LatencyModel {
    /// Zero delay: messages deliver synchronously.
    pub const ZERO: LatencyModel = LatencyModel {
        base: Duration::ZERO,
        jitter: Duration::ZERO,
    };

    /// A fixed delay with no jitter.
    pub fn fixed(base: Duration) -> Self {
        LatencyModel {
            base,
            jitter: Duration::ZERO,
        }
    }
}

/// Fault-injection configuration, applied to every message.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub duplicate_prob: f64,
    /// Delivery latency.
    pub latency: LatencyModel,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            latency: LatencyModel::ZERO,
        }
    }
}

/// Cumulative delivery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages submitted to the fabric.
    pub sent: u64,
    /// Payload bytes of the messages submitted.
    pub bytes: u64,
    /// Messages handed to a destination mailbox.
    pub delivered: u64,
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Messages blocked by a partition.
    pub partitioned: u64,
    /// Extra deliveries from duplication.
    pub duplicated: u64,
}

struct Scheduled {
    due: Instant,
    seq: u64,
    env: Envelope,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Everything fault injection is configured with, behind one lock: a send
/// reads all of it at once.
#[derive(Default)]
struct Faults {
    plan: FaultPlan,
    /// Pairs of nodes that cannot currently exchange messages.
    blocked: HashSet<(NodeId, NodeId)>,
    /// Per-destination latency overrides (skewed fabrics): messages *to*
    /// these nodes ignore the plan's latency.
    node_latency: HashMap<NodeId, LatencyModel>,
    /// Per-destination drop-probability overrides (flaky members): messages
    /// *to* these nodes ignore the plan's drop probability.
    node_drop: HashMap<NodeId, f64>,
}

/// [`NetStats`] as the fabric keeps it: statistics, so `Relaxed` throughout.
#[derive(Default)]
struct Stats {
    sent: AtomicU64,
    bytes: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    partitioned: AtomicU64,
    duplicated: AtomicU64,
}

struct Shared {
    mailboxes: Mutex<HashMap<NodeId, Sender<Envelope>>>,
    faults: Mutex<Faults>,
    rng: Mutex<StdRng>,
    stats: Stats,
    queue: Mutex<BinaryHeap<Scheduled>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    seq: AtomicU64,
}

/// A simulated network connecting [`Endpoint`]s.
///
/// Messages pass through fault injection (drop, duplicate, latency) and
/// partition checks before landing in the destination's mailbox. Latency is
/// served by a background delivery thread; with zero latency, delivery is
/// synchronous.
///
/// # Examples
///
/// ```
/// use repdir_net::{Network, NodeId};
///
/// let net = Network::new(42);
/// let a = net.register(NodeId(0));
/// let b = net.register(NodeId(1));
/// net.send(NodeId(0), NodeId(1), repdir_net::MsgKind::Request(1), b"hi".to_vec());
/// let msg = b.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
/// assert_eq!(msg.payload, b"hi");
/// assert_eq!(msg.src, NodeId(0));
/// # drop(a);
/// ```
pub struct Network {
    shared: Arc<Shared>,
}

impl Network {
    /// Creates a fault-free, zero-latency network; reconfigure with
    /// [`set_fault_plan`](Network::set_fault_plan). The seed drives all
    /// fault-injection randomness.
    pub fn new(seed: u64) -> Self {
        let shared = Arc::new(Shared {
            mailboxes: Mutex::new(HashMap::new()),
            faults: Mutex::new(Faults::default()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            stats: Stats::default(),
            queue: Mutex::new(BinaryHeap::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        let worker = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("repdir-net-delivery".into())
            .spawn(move || delivery_loop(worker))
            .expect("spawn delivery thread");
        Network { shared }
    }

    /// Registers a node and returns its endpoint. Re-registering a node
    /// replaces its mailbox (the old endpoint stops receiving).
    pub fn register(&self, node: NodeId) -> Endpoint {
        let (tx, rx) = mpsc::channel();
        self.shared.mailboxes.lock().insert(node, tx);
        Endpoint { node, rx }
    }

    /// Replaces the fault plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.shared.faults.lock().plan = plan;
    }

    /// Overrides delivery latency for messages *destined to* `node`,
    /// modelling a slow or distant replica on an otherwise uniform fabric
    /// (the plan's drop/duplicate probabilities still apply).
    pub fn set_node_latency(&self, node: NodeId, latency: LatencyModel) {
        self.shared.faults.lock().node_latency.insert(node, latency);
    }

    /// Removes a per-node latency override; `node` reverts to the plan's
    /// latency.
    pub fn clear_node_latency(&self, node: NodeId) {
        self.shared.faults.lock().node_latency.remove(&node);
    }

    /// Overrides the drop probability for messages *destined to* `node`,
    /// modelling one flaky replica on an otherwise healthy fabric (the
    /// plan's latency and duplicate probability still apply). With
    /// `drop_prob` 1.0 the member is silent: `repair_bench` cuts its stale
    /// member off this way.
    pub fn set_node_drop(&self, node: NodeId, drop_prob: f64) {
        self.shared.faults.lock().node_drop.insert(node, drop_prob);
    }

    /// Removes a per-node drop override; `node` reverts to the plan's drop
    /// probability.
    pub fn clear_node_drop(&self, node: NodeId) {
        self.shared.faults.lock().node_drop.remove(&node);
    }

    /// Blocks all traffic between `a` and `b` (both directions).
    pub fn block(&self, a: NodeId, b: NodeId) {
        let blocked = &mut self.shared.faults.lock().blocked;
        blocked.insert((a, b));
        blocked.insert((b, a));
    }

    /// Splits nodes into isolated groups: traffic crosses group boundaries
    /// no more. Clears previous blocks.
    pub fn partition(&self, groups: &[&[NodeId]]) {
        let blocked = &mut self.shared.faults.lock().blocked;
        blocked.clear();
        for (gi, ga) in groups.iter().enumerate() {
            for (gj, gb) in groups.iter().enumerate() {
                if gi == gj {
                    continue;
                }
                for &a in ga.iter() {
                    for &b in gb.iter() {
                        blocked.insert((a, b));
                    }
                }
            }
        }
    }

    /// Removes all partitions and blocks.
    pub fn heal(&self) {
        self.shared.faults.lock().blocked.clear();
    }

    /// Submits a message. Returns `false` if the destination was never
    /// registered (the message vanishes, as on a real network).
    pub fn send(&self, src: NodeId, dst: NodeId, kind: MsgKind, payload: Vec<u8>) -> bool {
        let shared = &self.shared;
        shared.stats.sent.fetch_add(1, Ordering::Relaxed);
        let bytes = payload.len() as u64;
        shared.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
        let (latency, drop_prob, duplicate_prob) = {
            let faults = shared.faults.lock();
            if faults.blocked.contains(&(src, dst)) {
                shared.stats.partitioned.fetch_add(1, Ordering::Relaxed);
                return true; // silently eaten, like a real partition
            }
            let plan = &faults.plan;
            (
                *faults.node_latency.get(&dst).unwrap_or(&plan.latency),
                *faults.node_drop.get(&dst).unwrap_or(&plan.drop_prob),
                plan.duplicate_prob,
            )
        };
        // One draw per armed fault, in this order; a fault-free plan draws
        // nothing and leaves the generator alone.
        let jitter_ns = latency.jitter.as_nanos() as u64;
        let (dropped, duplicate, extra_ns) =
            if drop_prob > 0.0 || duplicate_prob > 0.0 || jitter_ns > 0 {
                let mut rng = shared.rng.lock();
                let dropped = drop_prob > 0.0 && rng.gen_bool(drop_prob.clamp(0.0, 1.0));
                let duplicate =
                    duplicate_prob > 0.0 && rng.gen_bool(duplicate_prob.clamp(0.0, 1.0));
                let extra_ns = if jitter_ns > 0 {
                    rng.gen_range(0..=jitter_ns)
                } else {
                    0
                };
                (dropped, duplicate, extra_ns)
            } else {
                (false, false, 0)
            };
        if dropped {
            shared.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let delay = latency.base + Duration::from_nanos(extra_ns);
        let env = Envelope {
            src,
            dst,
            kind,
            payload,
        };
        let copies = if duplicate {
            shared.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            2
        } else {
            1
        };
        let mut ok = true;
        for _ in 0..copies {
            ok &= self.deliver_after(env.clone(), delay);
        }
        ok
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> NetStats {
        let stats = &self.shared.stats;
        NetStats {
            sent: stats.sent.load(Ordering::Relaxed),
            bytes: stats.bytes.load(Ordering::Relaxed),
            delivered: stats.delivered.load(Ordering::Relaxed),
            dropped: stats.dropped.load(Ordering::Relaxed),
            partitioned: stats.partitioned.load(Ordering::Relaxed),
            duplicated: stats.duplicated.load(Ordering::Relaxed),
        }
    }

    fn deliver_after(&self, env: Envelope, delay: Duration) -> bool {
        if delay.is_zero() {
            return deliver_now(&self.shared, env);
        }
        let due = Instant::now() + delay;
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        self.shared.queue.lock().push(Scheduled { due, seq, env });
        self.shared.queue_cv.notify_one();
        true
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.shared.mailboxes.lock().len())
            .field("stats", &self.stats())
            .finish()
    }
}

fn deliver_now(shared: &Shared, env: Envelope) -> bool {
    let tx = shared.mailboxes.lock().get(&env.dst).cloned();
    match tx {
        Some(tx) if tx.send(env).is_ok() => {
            shared.stats.delivered.fetch_add(1, Ordering::Relaxed);
            true
        }
        _ => false,
    }
}

fn delivery_loop(shared: Arc<Shared>) {
    let mut queue = shared.queue.lock();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        // Deliver everything due.
        while queue.peek().is_some_and(|s| s.due <= now) {
            let s = queue.pop().expect("peeked");
            // Drop the lock while delivering to avoid deadlocking with
            // senders holding mailboxes.
            MutexGuard::unlocked(&mut queue, || {
                deliver_now(&shared, s.env);
            });
        }
        match queue.peek().map(|s| s.due) {
            Some(due) => {
                shared.queue_cv.wait_until(&mut queue, due);
            }
            None => {
                shared.queue_cv.wait(&mut queue);
            }
        }
    }
}

/// A node's mailbox on the network.
#[derive(Debug)]
pub struct Endpoint {
    node: NodeId,
    rx: Receiver<Envelope>,
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Blocks until a message arrives or the deadline passes.
    ///
    /// # Errors
    ///
    /// Returns [`RecvTimeoutError`] on timeout or disconnect.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(500);

    #[test]
    fn zero_latency_delivery() {
        let net = Network::new(1);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        assert!(net.send(NodeId(0), NodeId(1), MsgKind::Request(7), vec![1, 2]));
        let env = b.recv_timeout(TICK).unwrap();
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.kind, MsgKind::Request(7));
        assert_eq!(env.payload, vec![1, 2]);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn latency_delays_but_delivers() {
        let net = Network::new(2);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.set_fault_plan(FaultPlan {
            latency: LatencyModel::fixed(Duration::from_millis(30)),
            ..FaultPlan::default()
        });
        let sent_at = Instant::now();
        net.send(NodeId(0), NodeId(1), MsgKind::Request(1), vec![9]);
        let env = b.recv_timeout(TICK).unwrap();
        assert!(sent_at.elapsed() >= Duration::from_millis(25));
        assert_eq!(env.payload, vec![9]);
    }

    #[test]
    fn node_latency_override_delays_only_that_destination() {
        let net = Network::new(7);
        let _a = net.register(NodeId(0));
        let fast = net.register(NodeId(1));
        let slow = net.register(NodeId(2));
        net.set_node_latency(NodeId(2), LatencyModel::fixed(Duration::from_millis(40)));

        let sent_at = Instant::now();
        net.send(NodeId(0), NodeId(1), MsgKind::Request(1), vec![1]);
        net.send(NodeId(0), NodeId(2), MsgKind::Request(2), vec![2]);
        fast.recv_timeout(TICK).unwrap();
        let fast_elapsed = sent_at.elapsed();
        slow.recv_timeout(TICK).unwrap();
        let slow_elapsed = sent_at.elapsed();
        assert!(
            fast_elapsed < Duration::from_millis(40),
            "fast member saw the override"
        );
        assert!(slow_elapsed >= Duration::from_millis(35));

        net.clear_node_latency(NodeId(2));
        let sent_at = Instant::now();
        net.send(NodeId(0), NodeId(2), MsgKind::Request(3), vec![3]);
        slow.recv_timeout(TICK).unwrap();
        assert!(sent_at.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn node_drop_override_eats_only_that_destination() {
        let net = Network::new(11);
        let healthy = net.register(NodeId(1));
        let flaky = net.register(NodeId(2));
        net.set_node_drop(NodeId(2), 1.0);

        for i in 0..5 {
            net.send(NodeId(0), NodeId(1), MsgKind::Request(i), vec![1]);
            net.send(NodeId(0), NodeId(2), MsgKind::Request(100 + i), vec![2]);
        }
        for _ in 0..5 {
            healthy.recv_timeout(TICK).unwrap();
        }
        assert!(flaky.recv_timeout(Duration::from_millis(30)).is_err());
        assert_eq!(net.stats().dropped, 5);

        net.clear_node_drop(NodeId(2));
        net.send(NodeId(0), NodeId(2), MsgKind::Request(200), vec![3]);
        flaky.recv_timeout(TICK).unwrap();
    }

    #[test]
    fn fully_dropped_node_delivers_zero_packets() {
        // drop_prob = 1.0 must be certain, not merely overwhelmingly
        // likely: the RNG draw occasionally rounds to exactly 1.0, and a
        // strict `draw < p` comparison let those packets through. Over
        // hundreds of sends, not a single packet may reach the node.
        let net = Network::new(42);
        let dead = net.register(NodeId(2));
        net.set_node_drop(NodeId(2), 1.0);
        let sends = 512u64;
        for i in 0..sends {
            net.send(NodeId(0), NodeId(2), MsgKind::Request(i), vec![7]);
        }
        assert!(dead.try_recv().is_none(), "fully dropped node got a packet");
        let stats = net.stats();
        assert_eq!(stats.dropped, sends);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn latency_preserves_order_for_equal_delay() {
        let net = Network::new(3);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.set_fault_plan(FaultPlan {
            latency: LatencyModel::fixed(Duration::from_millis(10)),
            ..FaultPlan::default()
        });
        for i in 0..10u8 {
            net.send(NodeId(0), NodeId(1), MsgKind::Request(i as u64), vec![i]);
        }
        for i in 0..10u8 {
            let env = b.recv_timeout(TICK).unwrap();
            assert_eq!(env.payload, vec![i]);
        }
    }

    #[test]
    fn jitter_can_reorder_messages() {
        let net = Network::new(77);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.set_fault_plan(FaultPlan {
            latency: LatencyModel {
                base: Duration::from_millis(1),
                jitter: Duration::from_millis(20),
            },
            ..FaultPlan::default()
        });
        for i in 0..20u8 {
            net.send(NodeId(0), NodeId(1), MsgKind::Request(i as u64), vec![i]);
        }
        let mut received = Vec::new();
        for _ in 0..20 {
            received.push(b.recv_timeout(TICK).unwrap().payload[0]);
        }
        let mut sorted = received.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u8>>(), "all delivered");
        assert_ne!(
            received, sorted,
            "with 20x jitter over base, some reordering is overwhelmingly likely"
        );
    }

    #[test]
    fn drops_are_counted_and_messages_vanish() {
        let net = Network::new(4);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.set_fault_plan(FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::default()
        });
        net.send(NodeId(0), NodeId(1), MsgKind::Request(1), vec![]);
        assert!(b.recv_timeout(Duration::from_millis(30)).is_err());
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn bytes_count_the_payloads_submitted() {
        // Counted beside `sent`: a dropped message was still submitted, and
        // a duplicate's second copy was not.
        let net = Network::new(6);
        let _b = net.register(NodeId(1));
        net.send(NodeId(0), NodeId(1), MsgKind::Request(1), vec![1, 2, 3]);
        net.set_fault_plan(FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::default()
        });
        net.send(NodeId(0), NodeId(1), MsgKind::Request(2), vec![4; 5]);
        net.set_fault_plan(FaultPlan {
            duplicate_prob: 1.0,
            ..FaultPlan::default()
        });
        net.send(NodeId(0), NodeId(1), MsgKind::Request(3), vec![6; 7]);
        let stats = net.stats();
        assert_eq!((stats.sent, stats.bytes), (3, 3 + 5 + 7));
    }

    #[test]
    fn duplicates_deliver_twice() {
        let net = Network::new(5);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.set_fault_plan(FaultPlan {
            duplicate_prob: 1.0,
            ..FaultPlan::default()
        });
        net.send(NodeId(0), NodeId(1), MsgKind::Request(1), vec![3]);
        assert_eq!(b.recv_timeout(TICK).unwrap().payload, vec![3]);
        assert_eq!(b.recv_timeout(TICK).unwrap().payload, vec![3]);
        assert_eq!(net.stats().duplicated, 1);
    }

    /// What fault injection did to each of the first 64 sends under `plan`:
    /// `d` dropped, `2` duplicated, `1` delivered once.
    fn fault_pattern(seed: u64, plan: FaultPlan) -> String {
        let net = Network::new(seed);
        let _b = net.register(NodeId(1));
        net.set_fault_plan(plan);
        (0..64)
            .map(|i| {
                let before = net.stats();
                net.send(NodeId(0), NodeId(1), MsgKind::Request(i), vec![]);
                let after = net.stats();
                if after.dropped > before.dropped {
                    'd'
                } else if after.duplicated > before.duplicated {
                    '2'
                } else {
                    '1'
                }
            })
            .collect()
    }

    #[test]
    fn seeded_fault_draws_are_pinned() {
        // Literals recorded from the implementation that locked the
        // generator on every send: one draw per armed fault per send, in the
        // order drop, duplicate, jitter, so a seeded experiment replays bit
        // for bit. The second plan adds a jitter draw per send, which shifts
        // every later drop and duplicate decision.
        let plan = FaultPlan {
            drop_prob: 0.3,
            duplicate_prob: 0.2,
            latency: LatencyModel::ZERO,
        };
        assert_eq!(
            fault_pattern(0xD1CE, plan.clone()),
            "dddd11d2dd1221d111d211dd1121d111211d2111111d1111dd2dd1dd1d111111"
        );
        let jittered = FaultPlan {
            latency: LatencyModel {
                base: Duration::ZERO,
                jitter: Duration::from_micros(50),
            },
            ..plan
        };
        assert_eq!(
            fault_pattern(0xD1CE, jittered),
            "d2d1ddd12211dd12111111112d1d1111d1d1dddd1111111112d11111211ddd11"
        );
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_heal() {
        let net = Network::new(6);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.partition(&[&[NodeId(0)], &[NodeId(1)]]);
        net.send(NodeId(0), NodeId(1), MsgKind::Request(1), vec![]);
        net.send(NodeId(1), NodeId(0), MsgKind::Request(2), vec![]);
        assert!(b.recv_timeout(Duration::from_millis(30)).is_err());
        assert!(a.recv_timeout(Duration::from_millis(30)).is_err());
        assert_eq!(net.stats().partitioned, 2);
        net.heal();
        net.send(NodeId(0), NodeId(1), MsgKind::Request(3), vec![]);
        assert!(b.recv_timeout(TICK).is_ok());
    }

    #[test]
    fn block_is_bidirectional_and_pairwise() {
        let net = Network::new(7);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        let c = net.register(NodeId(2));
        net.block(NodeId(0), NodeId(1));
        net.send(NodeId(0), NodeId(1), MsgKind::Request(1), vec![]);
        net.send(NodeId(0), NodeId(2), MsgKind::Request(2), vec![]);
        assert!(b.recv_timeout(Duration::from_millis(30)).is_err());
        assert!(c.recv_timeout(TICK).is_ok());
    }

    #[test]
    fn unregistered_destination_reports_failure() {
        let net = Network::new(8);
        let _a = net.register(NodeId(0));
        assert!(!net.send(NodeId(0), NodeId(9), MsgKind::Request(1), vec![]));
    }

    #[test]
    fn try_recv_nonblocking() {
        let net = Network::new(9);
        let _a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        assert!(b.try_recv().is_none());
        net.send(NodeId(0), NodeId(1), MsgKind::Response(4), vec![8]);
        // Zero latency: synchronous delivery.
        let env = b.try_recv().unwrap();
        assert_eq!(env.kind, MsgKind::Response(4));
    }

    #[test]
    fn network_shutdown_stops_delivery_thread() {
        let net = Network::new(10);
        let _a = net.register(NodeId(0));
        drop(net); // must not hang or panic
    }
}
