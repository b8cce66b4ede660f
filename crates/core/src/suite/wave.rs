//! The wave executor: every member RPC the suite sends goes through here.
//!
//! A *wave* is a set of member requests in flight together, each an ordered
//! list of [`Op`]s — the empty list being the ping. The coordinator
//! [`issue`](DirSuite::issue)s each one from its own thread through
//! [`RepClient::start`] and then consumes tagged completions in arrival
//! order from one queue — no thread is created per wave or per request.
//! In-process clients complete inline, networked ones from their RPC router.
//! A reply is checked here, once, to hold one part per operation asked, so
//! no caller zips a short reply against its request.
//!
//! Slot tags are never reused, so a reply can never be taken for another
//! wave's. A ping wave that reaches its vote threshold simply stops
//! listening; the stragglers' completions — a late reply, or the failure
//! their per-request deadline produces — are accounted (reply EWMA,
//! availability, failure penalty) whenever they surface: while a later wave
//! waits, at the next quorum collection, or when the suite is dropped.

use std::sync::mpsc::{self, Receiver, Sender};

use super::{DirSuite, FAILED_RPC_PENALTY};
use crate::error::RepError;
use crate::rep::{Completion, Done, Op, RepClient, RepResult, Reply};

/// One consumed completion: `(slot within the wave, member, result)`.
type Arrival = (usize, usize, RepResult<Vec<Reply>>);

/// The executor's state; the behaviour lives on [`DirSuite`], which owns the
/// members and the metrics every completion is accounted to.
pub(super) struct Executor {
    queue: Sender<Done>,
    completions: Receiver<Done>,
    /// Tag of the next request issued.
    next_slot: u64,
    /// First tag of the open wave; completions tagged below it are
    /// stragglers of earlier waves.
    base: u64,
    /// `(tag, member, operations asked)` of every request started and not
    /// yet accounted.
    in_flight: Vec<(u64, usize, usize)>,
}

impl Executor {
    pub(super) fn new() -> Self {
        let (queue, completions) = mpsc::channel();
        Executor {
            queue,
            completions,
            next_slot: 0,
            base: 0,
            in_flight: Vec::new(),
        }
    }
}

/// What a vote-counting wave gathered.
pub(super) struct Votes {
    /// Successful replies in arrival order, with the member that sent each.
    pub(super) replies: Vec<(usize, Vec<Reply>)>,
    /// Votes held by those members.
    pub(super) votes: u32,
    /// Failed replies consumed before the wave stopped listening.
    pub(super) misses: u64,
    /// The first failure other than [`RepError::Unavailable`]: a member that
    /// was reached and refused the request (`Deadlock`, `LockTimeout`, a
    /// storage error). Another member's vote can stand in for one that could
    /// not be reached, never for one that said no.
    pub(super) refused: Option<RepError>,
}

impl<C: RepClient> DirSuite<C> {
    /// Accounts every completion that has already landed. Called before a
    /// quorum is sized so late pongs inform it.
    pub(super) fn harvest(&mut self) {
        while let Ok(done) = self.exec.completions.try_recv() {
            // A straggler's reply has no reader left; only its accounting.
            let _ = self.account(done);
        }
    }

    /// Opens a wave: whatever is issued from here on belongs to it.
    fn open_wave(&mut self) {
        self.harvest();
        self.obs.rounds.inc();
        self.exec.base = self.exec.next_slot;
    }

    /// Records one completion against the member it was issued to and
    /// returns that member and the result, a reply without exactly one part
    /// per operation asked turned into a protocol violation. Only a member
    /// that could not be reached ([`RepError::Unavailable`]) scores an
    /// availability miss and the penalty sample — a dead member often fails
    /// *fast*, so the measured time alone would keep it attractive. A
    /// refusal (`Deadlock`, `LockTimeout`, …) is an answer: the member is up.
    fn account(&mut self, done: Done) -> (usize, RepResult<Vec<Reply>>) {
        let at = self
            .exec
            .in_flight
            .iter()
            .position(|&(slot, ..)| slot == done.slot)
            .expect("every completion answers an issued request");
        let (_, i, asked) = self.exec.in_flight.swap_remove(at);
        let result = done.result.and_then(|replies| match replies.len() {
            n if n == asked => Ok(replies),
            n => Err(RepError::Storage(format!(
                "protocol violation: {n} replies to {asked} operations"
            ))),
        });
        if let Some(elapsed) = done.elapsed {
            self.obs.reply[i].record(elapsed);
        }
        let unreachable = matches!(result, Err(RepError::Unavailable));
        self.obs.avail[i].record(!unreachable);
        if unreachable {
            self.obs.reply[i].record(FAILED_RPC_PENALTY);
        }
        (i, result)
    }

    /// Puts `ops` in flight to member `i` as the open wave's next slot,
    /// charged to its ping counter when the list is empty and to its data
    /// counter otherwise. Counters are bumped here in the coordinator, before
    /// the reply can land, which keeps the counts exact whatever the reply
    /// order.
    fn issue(&mut self, i: usize, ops: &[Op]) {
        match ops {
            [] => self.obs.pings[i].inc(),
            _ => self.obs.msgs[i].inc(),
        }
        let slot = self.exec.next_slot;
        self.exec.next_slot += 1;
        self.exec.in_flight.push((slot, i, ops.len()));
        let timed = self.obs.registry.timing_armed();
        let done = Completion::new(slot, timed, self.exec.queue.clone());
        self.members[i].client.start(ops, done);
    }

    /// The open wave's next completion in arrival order. Stragglers of
    /// earlier waves that surface meanwhile are accounted and skipped.
    fn arrival(&mut self) -> Arrival {
        loop {
            // The executor holds a sender itself, so the queue never closes;
            // callers only block while a request of theirs is outstanding.
            let done = self.exec.completions.recv().expect("queue open");
            let slot = done.slot;
            let (i, result) = self.account(done);
            if slot >= self.exec.base {
                return ((slot - self.exec.base) as usize, i, result);
            }
        }
    }

    /// One data wave: `ops(slot)` to every target, all awaited, results in
    /// target order.
    pub(super) fn scatter<'a>(
        &mut self,
        targets: &[usize],
        ops: impl Fn(usize) -> &'a [Op],
    ) -> Vec<RepResult<Vec<Reply>>> {
        self.open_wave();
        for (slot, &i) in targets.iter().enumerate() {
            self.issue(i, ops(slot));
        }
        let mut results: Vec<_> = targets.iter().map(|_| None).collect();
        for _ in targets {
            let (slot, _, result) = self.arrival();
            results[slot] = Some(result);
        }
        results
            .into_iter()
            .map(|result| result.expect("every slot completed once"))
            .collect()
    }

    /// One vote-counting wave: `ops` to every member of `wave`, replies
    /// consumed in arrival order until the members heard from hold `needed`
    /// votes. A data wave keeps listening until every request has settled:
    /// its requests take locks, which must not outlive their operation. A
    /// ping wave (the empty list) stops at the threshold and leaves its
    /// stragglers to be accounted later.
    pub(super) fn vote_wave(&mut self, ops: &[Op], wave: &[usize], needed: u32) -> Votes {
        let wait_all = !ops.is_empty();
        self.open_wave();
        for &i in wave {
            self.issue(i, ops);
        }
        let mut outstanding = wave.len();
        let mut out = Votes {
            replies: Vec::with_capacity(wave.len()),
            votes: 0,
            misses: 0,
            refused: None,
        };
        while outstanding > 0 && (wait_all || out.votes < needed) {
            outstanding -= 1;
            match self.arrival() {
                (_, i, Ok(reply)) => {
                    out.votes += self.members[i].votes;
                    out.replies.push((i, reply));
                }
                (_, _, Err(e)) => {
                    out.misses += 1;
                    if e != RepError::Unavailable {
                        out.refused.get_or_insert(e);
                    }
                }
            }
        }
        out
    }
}
