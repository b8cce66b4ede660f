//! The self-driving repair loop: stale-vote-fed targeted pulls with
//! adaptive pacing.
//!
//! A [`RepairDriver`] wraps a [`Repairer`] with the policy layer the
//! ROADMAP left open: *what* to repair and *when*. It drains its member's
//! votes from a [`StaleVoteQueue`] (the evidence quorum reads collect for
//! free), coalesces them into distinct summary buckets, and issues
//! bucket-targeted pulls — no summary walk, two fabric messages per
//! divergent bucket; a bucket whose pull lost a lock conflict is carried to
//! the next tick. Only when the queue is dry does it fall back to periodic
//! summary sweeps (one [`Repairer::run_round`]: a walk, then one range pull
//! per run of dirty buckets), and the sweep interval adapts ([`Pacing`]):
//! geometric backoff while sweeps quiesce, snap-back to the floor on
//! evidence of work (stale votes, applied changes, a member-recovery
//! signal, or a *fresh* peer error). A sweep that finds its member level
//! after repairs checkpoints it.
//!
//! The driver runs on a background thread behind a [`DriverHandle`] that
//! stops and joins on drop. The queue wakes it early through the waker it
//! installs for its member at spawn and removes at stop; a [`DriverWaker`]
//! wired to the representative's recovery hook wakes it too.

use std::collections::BTreeSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use repdir_core::suite::StaleVoteQueue;
use repdir_core::Key;
use repdir_obs::Registry;

use crate::repairer::{ApplyStats, RepairError, Repairer, RoundStats};
use crate::summary::bucket_of;

/// Adaptive pacing bounds for a repair driver.
///
/// The driver's tick interval starts at `floor`, multiplies by `factor`
/// after every quiescent tick (a sweep that found nothing and failed
/// nothing), saturates at `cap`, and snaps back to `floor` whenever there
/// is evidence of work to do. A fixed-interval loop is the degenerate
/// [`Pacing::fixed`] configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pacing {
    /// Shortest tick interval; activity snaps the driver back here.
    pub floor: Duration,
    /// Longest tick interval; geometric backoff stops growing here.
    pub cap: Duration,
    /// Interval multiplier applied after each quiescent tick (≥ 1.0).
    pub factor: f64,
}

impl Default for Pacing {
    /// 25 ms floor, 3.2 s cap, doubling — an idle fleet settles to one
    /// summary exchange every few seconds, while a stale vote or recovery
    /// pulls the next tick to within 25 ms.
    fn default() -> Self {
        Pacing {
            floor: Duration::from_millis(25),
            cap: Duration::from_millis(3200),
            factor: 2.0,
        }
    }
}

impl Pacing {
    /// A non-adaptive configuration: every tick `interval` apart.
    pub fn fixed(interval: Duration) -> Self {
        Pacing {
            floor: interval,
            cap: interval,
            factor: 1.0,
        }
    }
}

/// The pacing state machine, kept separate from the thread loop so the
/// backoff schedule is unit-testable without any clock.
///
/// Transitions (from the current delay `d`):
///
/// * [`note_quiet`](Pacer::note_quiet) — quiescent sweep: `d ← min(d ×
///   factor, cap)`.
/// * [`note_activity`](Pacer::note_activity) — stale votes drained,
///   changes applied, or a recovery signal: `d ← floor`.
/// * [`note_errors`](Pacer::note_errors) — a tick that only failed: the
///   *first* error after a healthy tick snaps to the floor (a transient
///   worth retrying soon); consecutive error ticks back off like
///   quiescence, so a dead-majority fabric is probed ever more slowly
///   instead of being spun against at the floor.
#[derive(Clone, Debug)]
pub struct Pacer {
    pacing: Pacing,
    delay: Duration,
    consecutive_errors: u32,
}

impl Pacer {
    /// A pacer at the floor of `pacing`.
    pub fn new(pacing: Pacing) -> Self {
        Pacer {
            pacing,
            delay: pacing.floor,
            consecutive_errors: 0,
        }
    }

    /// The interval to sleep before the next tick.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    fn back_off(&mut self) {
        let grown = self.delay.as_secs_f64() * self.pacing.factor.max(1.0);
        self.delay = Duration::from_secs_f64(grown).min(self.pacing.cap);
    }

    /// A tick swept and found nothing to do: back off geometrically.
    pub fn note_quiet(&mut self) {
        self.consecutive_errors = 0;
        self.back_off();
    }

    /// Evidence of work (votes, applied changes, recovery): snap to floor.
    pub fn note_activity(&mut self) {
        self.consecutive_errors = 0;
        self.delay = self.pacing.floor;
    }

    /// A tick that only saw errors (no progress).
    pub fn note_errors(&mut self) {
        self.consecutive_errors += 1;
        if self.consecutive_errors == 1 {
            self.delay = self.pacing.floor;
        } else {
            self.back_off();
        }
    }
}

/// What one driver tick's vote-drain accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Stale votes drained from the source.
    pub votes: u64,
    /// Distinct buckets the votes coalesced into.
    pub buckets: u64,
    /// Targeted bucket-pull attempts issued (≥ `buckets` when peers
    /// failed and the driver rotated).
    pub pulls: u64,
    /// Pull attempts that failed with a transient error.
    pub errors: u64,
    /// Buckets every peer failed on. Those in `carried` are pulled again by
    /// the next drain; for the rest the evidence is dropped — the next read
    /// of a still-stale key re-queues it, and the fallback sweep covers
    /// divergence nothing reads.
    pub unrepaired: u64,
    /// Unrepaired buckets a pull failed on with a lock conflict
    /// ([`RepairError::Contended`]). A repair transaction is younger than
    /// any client's, so it dies on a client's lock (the voting read's own,
    /// for one, whose transaction is still open when its vote wakes the
    /// driver); the bucket is kept for the next drain rather than dropped
    /// with its spent votes.
    pub carried: u64,
    /// What the applied plans changed.
    pub applied: ApplyStats,
}

/// Messages a driver thread sleeps on.
enum Msg {
    /// New stale votes are queued for this driver's member.
    Votes,
    /// This driver's representative recovered (healed or replayed its log).
    Recovery,
    /// Stop and join.
    Shutdown,
}

/// Wakes a [`RepairDriver`] ahead of its timer. Cloneable and cheap; safe
/// to call from any thread (sends are fire-and-forget once the driver is
/// gone).
#[derive(Clone)]
pub struct DriverWaker {
    tx: mpsc::Sender<Msg>,
}

impl DriverWaker {
    /// Signals that stale votes are available to drain.
    fn wake_votes(&self) {
        let _ = self.tx.send(Msg::Votes);
    }

    /// Signals that the driver's representative recovered: pacing snaps to
    /// the floor so the post-recovery sweep happens promptly.
    pub fn wake_recovery(&self) {
        let _ = self.tx.send(Msg::Recovery);
    }
}

/// RAII handle to a background repair driver; stops and joins on drop.
pub struct DriverHandle {
    tx: Option<mpsc::Sender<Msg>>,
    join: Option<JoinHandle<()>>,
    registry: Registry,
    /// The queue and member the driver's vote waker is installed for.
    votes: Option<(Arc<StaleVoteQueue>, usize)>,
}

impl DriverHandle {
    /// The driven repairer's registry ([`Repairer::registry`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A waker for this driver (the representative's recovery hook).
    pub fn waker(&self) -> DriverWaker {
        DriverWaker {
            tx: self.tx.clone().expect("driver running"),
        }
    }

    /// Removes the driver's vote waker, then stops the driver and waits for
    /// the in-flight tick to finish. Votes queued afterwards stay queued.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some((queue, member)) = self.votes.take() {
            queue.set_waker(member, None);
        }
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Msg::Shutdown);
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for DriverHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The summary bucket a stale vote names. Sentinel keys map to the edge
/// buckets (`Low` lives in bucket 0 with the leading gap; `High`'s
/// trailing gap hangs off the last bucket).
fn vote_bucket(key: &Key) -> u8 {
    match key {
        Key::Low => 0,
        Key::User(k) => bucket_of(k.as_bytes()),
        Key::High => u8::MAX,
    }
}

/// Drives anti-entropy for one representative: stale-vote-targeted pulls
/// first, adaptively paced summary sweeps as the fallback.
pub struct RepairDriver {
    repairer: Repairer,
    /// The queue this driver drains, and the member whose votes it takes.
    votes: Option<(Arc<StaleVoteQueue>, usize)>,
    pacing: Pacing,
    next_peer: usize,
    /// Something was applied since the last checkpoint.
    unsaved: bool,
    /// Buckets whose last pull lost a lock conflict; the next drain pulls
    /// them with whatever buckets its votes name.
    contended: BTreeSet<u8>,
}

impl RepairDriver {
    /// A driver over `repairer` with no vote queue: every tick is a
    /// summary sweep round, paced by `pacing`.
    pub fn new(repairer: Repairer, pacing: Pacing) -> Self {
        RepairDriver {
            repairer,
            votes: None,
            pacing,
            next_peer: 0,
            unsaved: false,
            contended: BTreeSet::new(),
        }
    }

    /// Drains `member`'s votes from `queue` on every tick. Once spawned,
    /// the driver is also woken by every vote queued for `member`: a queue
    /// holds one waker per member, so one driver per member runs at a time.
    pub fn with_votes(mut self, queue: Arc<StaleVoteQueue>, member: usize) -> Self {
        self.votes = Some((queue, member));
        self
    }

    /// The wrapped repairer.
    pub fn repairer(&self) -> &Repairer {
        &self.repairer
    }

    /// Synchronously drains the vote queue and issues one targeted bucket
    /// pull per distinct divergent bucket, rotating to the next peer when
    /// one fails mid-pull. Buckets the previous drain carried (a pull lost a
    /// lock conflict) are pulled again with the new votes' buckets. This is
    /// the exact work a background tick does when votes are pending; it is
    /// public so tests and benches can drive it deterministically.
    pub fn drain_and_pull(&mut self) -> TickStats {
        let mut tick = TickStats::default();
        let Some((queue, member)) = &self.votes else {
            return tick;
        };
        let votes = queue.drain_member(*member);
        if votes.is_empty() && self.contended.is_empty() {
            return tick;
        }
        tick.votes = votes.len() as u64;
        // Coalesce per bucket: ten stale keys under one leading byte cost
        // one pull, which ships the whole bucket anyway.
        let mut buckets = std::mem::take(&mut self.contended);
        buckets.extend(votes.iter().map(|v| vote_bucket(&v.key)));
        tick.buckets = buckets.len() as u64;
        let reg = self.repairer.registry();
        let targeted = reg.counter("repair.driver.targeted_pulls");
        let peer_errors = reg.counter("repair.peer_errors");
        let peer_count = self.repairer.peer_count();
        for bucket in buckets {
            let mut repaired = false;
            let mut contended = false;
            for attempt in 0..peer_count {
                let peer = (self.next_peer + attempt) % peer_count;
                targeted.inc();
                tick.pulls += 1;
                match self.repairer.pull_buckets(peer, bucket, bucket) {
                    Ok(pulled) => {
                        tick.applied.absorb(pulled.applied);
                        // Stick with a working peer; rotate off a dead one.
                        self.next_peer = peer;
                        repaired = true;
                        break;
                    }
                    Err(e) => {
                        contended |= e == RepairError::Contended;
                        tick.errors += 1;
                        peer_errors.inc();
                    }
                }
            }
            if !repaired {
                tick.unrepaired += 1;
                if contended {
                    tick.carried += 1;
                    self.contended.insert(bucket);
                }
            }
        }
        self.unsaved |= tick.applied.total() > 0;
        tick
    }

    /// One fallback summary-sweep round against the next peer
    /// round-robin: a walk, then one range pull per run of dirty buckets
    /// ([`Repairer::run_round`]). Every step commits as it lands, so there
    /// is no resume state: after a fault the next sweep's walk finds
    /// exactly the buckets still dirty. A sweep that finds the member level with the
    /// peer after something was applied lands a checkpoint (retried on the
    /// next level sweep if the member is busy). This is the exact work a
    /// background timer tick does with a dry vote queue; it is public so
    /// tests and benches can drive it deterministically.
    pub fn sweep(&mut self) -> RoundStats {
        let peer_count = self.repairer.peer_count();
        if peer_count == 0 {
            return RoundStats::default();
        }
        let peer = self.next_peer % peer_count;
        self.next_peer = (self.next_peer + 1) % peer_count;
        let stats = self.repairer.run_round(peer);
        if stats.errors == 0 && stats.mismatched_buckets == 0 && self.unsaved {
            self.unsaved = self.repairer.checkpoint().is_err();
        }
        self.unsaved |= stats.applied.total() > 0;
        stats
    }

    /// Runs the driver on a background thread and installs its waker on
    /// the vote queue, which fires at once over a backlog. The returned
    /// handle removes the waker, then stops and joins the thread, on drop;
    /// [`DriverHandle::waker`] produces the wake endpoint for the recovery
    /// hook.
    pub fn spawn(mut self) -> DriverHandle {
        let (tx, rx) = mpsc::channel::<Msg>();
        let registry = self.repairer.registry().clone();
        let votes = self.votes.clone();
        let join = std::thread::Builder::new()
            .name("repdir-repair-driver".into())
            .spawn(move || {
                let reg = self.repairer.registry();
                let wakes = reg.counter("repair.driver.wakes");
                let sweeps = reg.counter("repair.driver.sweeps");
                let backoff_ms = reg.counter("repair.driver.backoff_ms");
                let mut pacer = Pacer::new(self.pacing);
                backoff_ms.set(pacer.delay().as_millis() as u64);
                loop {
                    let first = rx.recv_timeout(pacer.delay());
                    let mut timed_out = false;
                    let mut recovered = false;
                    match first {
                        Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                        Ok(Msg::Recovery) => recovered = true,
                        Ok(Msg::Votes) => {}
                        Err(RecvTimeoutError::Timeout) => timed_out = true,
                    }
                    // Collapse the wake burst: one tick drains everything
                    // queued so far, so pending wake messages for it are
                    // absorbed rather than re-ticked.
                    loop {
                        match rx.try_recv() {
                            Ok(Msg::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => return,
                            Ok(Msg::Recovery) => recovered = true,
                            Ok(Msg::Votes) => {}
                            Err(mpsc::TryRecvError::Empty) => break,
                        }
                    }
                    wakes.inc();
                    let tick = self.drain_and_pull();
                    let mut swept_errors = false;
                    let mut swept_applied = 0;
                    // Dry queue on a timer tick → fall back to a summary
                    // sweep round. Vote wakes stay targeted-only, and the
                    // recovery wake just snaps pacing: the recovered member
                    // gets its sweep on the next (floor-delayed) tick.
                    if timed_out && tick.votes == 0 {
                        sweeps.inc();
                        let stats = self.sweep();
                        swept_errors = stats.errors > 0;
                        swept_applied = stats.applied.total();
                    }
                    if recovered || tick.votes > 0 || tick.applied.total() > 0 || swept_applied > 0
                    {
                        pacer.note_activity();
                    } else if tick.errors > 0 || swept_errors {
                        pacer.note_errors();
                    } else if timed_out {
                        pacer.note_quiet();
                    }
                    backoff_ms.set(pacer.delay().as_millis() as u64);
                }
            })
            .expect("spawn repair driver thread");
        if let Some((queue, member)) = &votes {
            let waker = DriverWaker { tx: tx.clone() };
            queue.set_waker(*member, Some(Box::new(move || waker.wake_votes())));
        }
        DriverHandle {
            tx: Some(tx),
            join: Some(join),
            registry,
            votes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{BucketEntry, BucketView, RepairPlan};
    use crate::repairer::{RepairPeer, RepairTarget};
    use crate::summary::{Digest, FANOUT};
    use repdir_core::suite::StaleVote;
    use repdir_core::{UserKey, Value, Version};
    use std::sync::Mutex;
    use std::time::Instant;

    fn pacing(floor_ms: u64, cap_ms: u64, factor: f64) -> Pacing {
        Pacing {
            floor: Duration::from_millis(floor_ms),
            cap: Duration::from_millis(cap_ms),
            factor,
        }
    }

    #[test]
    fn pacer_backs_off_geometrically_to_the_cap() {
        let mut p = Pacer::new(pacing(10, 80, 2.0));
        assert_eq!(p.delay(), Duration::from_millis(10));
        p.note_quiet();
        assert_eq!(p.delay(), Duration::from_millis(20));
        p.note_quiet();
        assert_eq!(p.delay(), Duration::from_millis(40));
        p.note_quiet();
        assert_eq!(p.delay(), Duration::from_millis(80));
        p.note_quiet();
        assert_eq!(p.delay(), Duration::from_millis(80), "saturates at cap");
    }

    #[test]
    fn pacer_snaps_back_to_floor_on_activity() {
        let mut p = Pacer::new(pacing(10, 80, 2.0));
        for _ in 0..4 {
            p.note_quiet();
        }
        assert_eq!(p.delay(), Duration::from_millis(80));
        p.note_activity(); // stale votes, applied changes, or recovery
        assert_eq!(p.delay(), Duration::from_millis(10));
        p.note_quiet();
        assert_eq!(p.delay(), Duration::from_millis(20), "backoff restarts");
    }

    #[test]
    fn pacer_first_error_snaps_then_consecutive_errors_back_off() {
        let mut p = Pacer::new(pacing(10, 80, 2.0));
        for _ in 0..4 {
            p.note_quiet();
        }
        assert_eq!(p.delay(), Duration::from_millis(80));
        // A fresh error is a transient: retry soon.
        p.note_errors();
        assert_eq!(p.delay(), Duration::from_millis(10));
        // But a fabric that keeps failing must not be spun against.
        p.note_errors();
        assert_eq!(p.delay(), Duration::from_millis(20));
        p.note_errors();
        assert_eq!(p.delay(), Duration::from_millis(40));
        p.note_errors();
        assert_eq!(p.delay(), Duration::from_millis(80));
        p.note_errors();
        assert_eq!(p.delay(), Duration::from_millis(80), "error backoff caps");
        // Any success resets the error streak: the next error snaps again.
        p.note_quiet();
        p.note_errors();
        assert_eq!(p.delay(), Duration::from_millis(10));
    }

    #[test]
    fn pacer_fixed_configuration_never_moves() {
        let mut p = Pacer::new(Pacing::fixed(Duration::from_millis(7)));
        for _ in 0..3 {
            p.note_quiet();
            p.note_errors();
            p.note_activity();
        }
        assert_eq!(p.delay(), Duration::from_millis(7));
    }

    #[test]
    fn pacer_schedule_under_a_fake_clock() {
        // Replay a full scenario on a virtual clock: the wake times are a
        // pure function of the transition sequence, so CI timing never
        // enters. Floor 10 ms, cap 80 ms, doubling.
        let mut p = Pacer::new(pacing(10, 80, 2.0));
        let mut clock_ms = 0u64;
        let mut wake_times = Vec::new();
        // Six quiescent ticks, then a stale vote lands, then two more
        // quiescent ticks.
        for step in 0..9 {
            clock_ms += p.delay().as_millis() as u64;
            wake_times.push(clock_ms);
            if step == 6 {
                p.note_activity();
            } else {
                p.note_quiet();
            }
        }
        assert_eq!(
            wake_times,
            vec![
                10,  // floor
                30,  // +20
                70,  // +40
                150, // +80 (cap)
                230, // +80
                310, // +80
                390, // +80 — this tick drains the vote, snaps to floor
                400, // +10
                420, // +20
            ]
        );
    }

    /// A target that holds nothing and reports every planned install.
    struct EmptyTarget;

    impl RepairTarget for EmptyTarget {
        fn children(&self, _: u8, _: u8) -> Result<Vec<Digest>, RepairError> {
            Ok(vec![Digest::default(); FANOUT])
        }
        fn span(&self, _: u8, _: u8) -> Result<(Key, Key), RepairError> {
            Ok((Key::Low, Key::High))
        }
        fn range(&self, _: &Key, _: &Key) -> Result<BucketView, RepairError> {
            Ok(BucketView::default())
        }
        fn apply(&self, plan: &RepairPlan) -> Result<ApplyStats, RepairError> {
            Ok(ApplyStats {
                installed: plan.installs.len() as u64,
                ..ApplyStats::default()
            })
        }
    }

    /// A peer that fails a pull with each queued error in turn, and then
    /// serves one entry, "apple".
    struct FlakyPeer(Arc<Mutex<Vec<RepairError>>>);

    impl RepairPeer for FlakyPeer {
        fn summary(&self, _: u8, _: u8) -> Result<Vec<Digest>, RepairError> {
            Ok(vec![Digest::default(); FANOUT])
        }
        fn pull_range(&self, _: &Key, _: &Key) -> Result<BucketView, RepairError> {
            if let Some(error) = self.0.lock().unwrap().pop() {
                return Err(error);
            }
            let entry = BucketEntry {
                key: UserKey::new(*b"apple"),
                version: Version::new(1),
                value: Value::from("A"),
                gap_after: Version::new(0),
            };
            Ok(BucketView {
                lead_gap: Version::new(0),
                entries: vec![entry],
            })
        }
    }

    fn vote(key: &str) -> StaleVote {
        StaleVote {
            member: 0,
            key: Key::from(key),
            seen: Version::new(0),
            latest: Version::new(1),
        }
    }

    #[test]
    fn a_contended_bucket_is_carried_until_a_later_drain_repairs_it() {
        let votes = Arc::new(StaleVoteQueue::new());
        votes.push(vote("apple"));
        let errors = Arc::new(Mutex::new(vec![RepairError::Contended; 3]));
        let peer = FlakyPeer(Arc::clone(&errors));
        let repairer = Repairer::new(Arc::new(EmptyTarget), vec![Box::new(peer)]);
        let mut driver =
            RepairDriver::new(repairer, Pacing::default()).with_votes(Arc::clone(&votes), 0);
        let contended = TickStats {
            buckets: 1,
            pulls: 1,
            errors: 1,
            unrepaired: 1,
            carried: 1,
            ..TickStats::default()
        };
        let voted = TickStats {
            votes: 1,
            ..contended
        };
        // The vote's drain loses the conflict; the bucket outlives its vote.
        assert_eq!(driver.drain_and_pull(), voted);
        // A drain with no votes pulls the carried bucket alone.
        assert_eq!(driver.drain_and_pull(), contended);
        // A new vote in the same bucket coalesces with the carried one.
        votes.push(vote("avocado"));
        assert_eq!(driver.drain_and_pull(), voted);
        // The conflict is gone: one pull repairs the bucket, and nothing is
        // left to carry.
        let applied = ApplyStats {
            installed: 1,
            ..ApplyStats::default()
        };
        let repaired = TickStats {
            buckets: 1,
            pulls: 1,
            applied,
            ..TickStats::default()
        };
        assert_eq!(driver.drain_and_pull(), repaired);
        assert_eq!(driver.drain_and_pull(), TickStats::default());
        // A pull that fails for another reason drops its bucket with its
        // votes: the next drain has nothing to pull.
        errors.lock().unwrap().push(RepairError::Unavailable);
        votes.push(vote("apple"));
        let dropped = TickStats {
            carried: 0,
            ..voted
        };
        assert_eq!(driver.drain_and_pull(), dropped);
        assert_eq!(driver.drain_and_pull(), TickStats::default());
    }

    /// Waits until `registry`'s `repair.driver.targeted_pulls` reaches 1.
    fn await_targeted_pull(registry: &Registry) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let pulls = registry.counter("repair.driver.targeted_pulls");
        while pulls.get() == 0 {
            assert!(Instant::now() < deadline, "the driver never woke");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_spawned_driver_owns_its_vote_waker_until_it_stops() {
        // The timer cannot fire within the test: only a vote wakes a driver.
        let idle = Pacing::fixed(Duration::from_secs(3600));
        let driver = |queue: &Arc<StaleVoteQueue>| {
            let peer = FlakyPeer(Arc::default());
            let repairer = Repairer::new(Arc::new(EmptyTarget), vec![Box::new(peer)]);
            RepairDriver::new(repairer, idle).with_votes(Arc::clone(queue), 0)
        };
        let queue = Arc::new(StaleVoteQueue::new());
        // Queued before any driver runs: the waker spawn installs fires
        // over the backlog, and the first wake drains it.
        queue.push(vote("apple"));
        let first = driver(&queue).spawn();
        let registry = first.registry().clone();
        await_targeted_pull(&registry);
        assert_eq!(registry.counter("repair.driver.sweeps").get(), 0);
        assert!(queue.is_empty());
        let wakes = registry.counter("repair.driver.wakes").get();
        // Stopped, the driver leaves no waker behind: a new vote stays
        // queued and wakes nobody.
        first.stop();
        queue.push(vote("apple"));
        assert_eq!(queue.len(), 1);
        assert_eq!(registry.counter("repair.driver.wakes").get(), wakes);
        // A later driver over the same member finds the vote and drains it.
        let second = driver(&queue).spawn();
        await_targeted_pull(second.registry());
        assert_eq!(second.registry().counter("repair.driver.sweeps").get(), 0);
        assert!(queue.is_empty());
    }

    #[test]
    fn vote_buckets_cover_sentinel_keys() {
        assert_eq!(vote_bucket(&Key::Low), 0);
        assert_eq!(vote_bucket(&Key::High), 255);
        assert_eq!(vote_bucket(&Key::User(UserKey::new(vec![0x41, 1]))), 0x41);
        assert_eq!(vote_bucket(&Key::User(UserKey::new(Vec::new()))), 0);
    }
}
