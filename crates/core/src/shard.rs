//! The sharded deterministic event loop — conservative PDES with
//! link-delay lookahead, **shard-owned future-event lists**, and a
//! **single-pass epoch** (DESIGN.md §10, §13).
//!
//! Every inter-node interaction in this model crosses a link with a fixed
//! one-way delay ([`LINK_DELAY`], the paper's 25 ms), so an event
//! executed at time `t` can only create events at *other* nodes at
//! `t + link_delay` or later. That delay is the classic conservative-PDES
//! *lookahead*: all events inside a half-open window
//! `[t0, t0 + link_delay)` that touch different nodes are causally
//! independent and may run concurrently.
//!
//! There is no central event list while the loop runs. At pump start the
//! network's FEL is **partitioned**: drained wholesale and every event
//! re-inserted (under its existing `(time, id)` key) into its owning
//! shard's private [`Scheduler`]. Each epoch then has two phases:
//!
//! 1. **Execute (parallel, Phase A).** Every *engaged* shard — one with an
//!    event before `epoch_end = t0 + lookahead`, or with mail from the
//!    previous epoch — files that mail into its FEL, drains the FEL to
//!    `epoch_end` and runs its routers' handlers in local `(time, key)`
//!    order. Each handler's actions become finished output as soon as they
//!    are returned: sends to live routers, and timers that fire at or after
//!    `epoch_end`, go into per-destination-shard outboxes as [`Mail`] under
//!    a *deferred id* `(record, offset)`; timers inside the epoch go into a
//!    local heap (keys above [`LOCAL_KEY_BASE`]) and run in this same pass.
//!    Message counters, the delivered count and the activity clock are
//!    summed or maxed per shard. The shard hands the walk one compact
//!    [`Rec`] per handled event that needs ids or carries trace events.
//!    Cross-node sends always land at `t + link_delay >= epoch_end` — the
//!    lookahead argument — so shards never talk mid-epoch. The pump's own
//!    thread [`Crew`] runs the engaged shards; small epochs (predicted
//!    from the previous epoch's size, see [`PHASE_A_PAR_MIN_OPS`]) run
//!    inline on the coordinator instead.
//! 2. **Walk (serial, Phase B).** Merge the shards' record lists in global
//!    `(time, id)` order, allocate each record's ids as one block
//!    (`id_base`), and emit its trace events. The walk touches no payloads
//!    — it is the irreducible serial fraction.
//!
//! At the next epoch's Phase A the destination shard files each piece of
//! mail under `id = id_base + offset`, reading the source shard's record
//! table. **File-next-epoch rule:** every shard with incoming mail is
//! engaged in the very next epoch, even when it has no event of its own
//! before `epoch_end`, so every record table is read within one epoch of
//! its walk and is then cleared and reused. Every per-epoch buffer (drain
//! batch, action buffer, records, trace, outboxes) is retained across
//! epochs.
//!
//! ## Why this is bit-identical to the serial loop
//!
//! The serial engine delivers in `(time, id)` order, where ids are a
//! global insertion counter; ids are the tie-break for same-instant
//! events, so reproducing serial behavior means reproducing exact id
//! assignment, not just timestamps.
//!
//! *Per-node order.* For one router, a shard's `(time, key)` order equals
//! the serial `(time, id)` order: drained events carry their real ids in
//! both; intra-epoch self-events sort after every drained event at the
//! same instant in both (local keys start at [`LOCAL_KEY_BASE`], real ids
//! of intra-epoch creations exceed every pre-epoch id); and two self-events
//! of the same shard tie-break by creation order in both (the local key
//! `(record, offset)` *is* the creation order, and so is the serial id).
//! Handler inputs are thus identical event-by-event, and node state
//! (including the node's private RNG stream) evolves identically.
//!
//! *Ids.* While handling one event, the serial loop schedules its actions
//! in order — every timer, and every send to a live router — and nothing
//! else allocates an id in between. So one event's ids form a block that
//! starts wherever the serial counter stands when the event is handled,
//! and its k-th scheduled action gets `base + k`. Phase A numbers the
//! scheduled actions of each record `0, 1, 2, …` (the offset); the walk
//! visits the records in serial `(time, id)` order and hands each the
//! next block of the counter. So `id_base + offset` is the serial id. An
//! intra-epoch follow-up's own sort key is resolved the same way while the
//! walk runs — its creator precedes it in the same shard's record list, so
//! the creator's block is known by the time it is compared.
//!
//! *Everything else.* Routers share no mutable state during an epoch —
//! aliveness, dead links, sessions, topology, and policy tiers are frozen
//! while the queues drain — so cross-node interleaving inside an epoch is
//! unobservable to the nodes. The remaining global effects are
//! order-free: the delivered count and message counters are sums, the
//! clock and the activity clock are maxima (the serial loop's last value
//! is the latest time), and a FEL's delivery order is a pure function of
//! the `(time, id)` keys, not of insertion order, so which FEL an event
//! sits in and when it was filed are unobservable. Trace events go out in
//! walk (= serial) order. The union of the shard FELs and outboxes at
//! every epoch boundary is therefore the exact event set a serial run's
//! scheduler would hold, with the same keys, which carries the invariant
//! into the next epoch — and makes `RunStats`, goldens, clones of a
//! converged network and trace streams independent of the shard count.
//! At pump exit the shard FELs are empty, the walk has settled all clock
//! and counter accounting on the (now empty) central FEL, and the network
//! is indistinguishable from one a serial pump quiesced.
//!
//! An event landing exactly on an epoch boundary is *not* drained (the
//! window is half-open) and is delivered in the next epoch, exactly where
//! the serial order puts it; the epoch start `t0` is the minimum over the
//! shards' FEL heads *and* undelivered mail, so mail can never be skipped
//! past.
//!
//! The loop falls back to serial for `shards <= 1` and sampling runs
//! (samples read global state mid-epoch).

use std::collections::BinaryHeap;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{Scope, Thread};
use std::time::Instant;

use bgpsim_bgp::node::Action;
use bgpsim_bgp::trace::NodeEvent;
use bgpsim_bgp::BgpNode;
use bgpsim_des::{EventId, Scheduler, SimTime};
use bgpsim_topology::RouterId;

use crate::network::{dispatch, follow_up, Ev, Network, World, LINK_DELAY};
use crate::trace::TraceSink;

/// Shard-local sort keys for intra-epoch self-events start here — above
/// any real event id, so a drained event always outranks a same-instant
/// self-event, exactly like real id assignment would order them. Below
/// the base bit a local key is `record << 32 | offset`: the creating
/// record and the action's offset within it.
const LOCAL_KEY_BASE: u64 = 1 << 63;

/// Epochs *predicted* to handle fewer events than this run Phase A on the
/// coordinator thread instead of the crew — waking workers costs
/// more than executing a handful of handlers directly. The predictor is
/// the previous epoch's delivered count (the drain is shard-local, so the
/// coordinator does not see the count before fan-out); epoch sizes are
/// strongly autocorrelated, and a misprediction costs only wall clock,
/// never correctness. Deliberately low so modest test topologies still
/// exercise the fan-out path; the outputs are identical either way (the
/// shared [`run_shard_epoch`] body runs on either thread).
const PHASE_A_PAR_MIN_OPS: usize = 16;

/// Cumulative wall-clock the sharded event loop spent per stage, exposed
/// through [`Network::shard_phase_timings`]. Instrumentation only — never
/// part of `RunStats`, so bit-identity comparisons are unaffected.
///
/// The Amdahl read: `phase_b_secs` (the serial walk) plus `drain_secs`
/// and `mailbox_exchange_secs` (the serial partition/barrier remainder)
/// bound the speedup shards can buy; `phase_a_secs` scales with cores.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardPhaseTimings {
    /// Epochs the loop ran.
    pub epochs: u64,
    /// Always 0: the single-pass epoch has no commit stage to run in
    /// parallel. Kept so existing readers of the struct still build.
    pub parallel_commit_epochs: u64,
    /// Epochs whose Phase A ran on the coordinator thread alone: the
    /// previous epoch delivered so few events that waking the crew would
    /// cost more than the handlers.
    pub inline_phase_a_epochs: u64,
    /// Serial FEL bookkeeping outside the phases: the pump-start
    /// partition of the central FEL onto the shards, plus the per-epoch
    /// `t0`/engagement scan over the shards' cached heads.
    pub drain_secs: f64,
    /// Mail filing + shard-local drain + parallel node execution and mail
    /// emission + barrier (Phase A).
    pub phase_a_secs: f64,
    /// The serial order walk: id-block allocation and trace emission
    /// (Phase B).
    pub phase_b_secs: f64,
    /// Always 0: there is no commit stage to merge. Kept so existing
    /// readers of the struct still build.
    pub merge_secs: f64,
    /// The barrier step between the phases: retiring the filed outputs,
    /// summing the per-shard counters and finding each shard's earliest
    /// incoming mail.
    pub mailbox_exchange_secs: f64,
}

impl ShardPhaseTimings {
    /// Accumulates another timing block into this one.
    pub(crate) fn add(&mut self, other: &ShardPhaseTimings) {
        self.epochs += other.epochs;
        self.parallel_commit_epochs += other.parallel_commit_epochs;
        self.inline_phase_a_epochs += other.inline_phase_a_epochs;
        self.drain_secs += other.drain_secs;
        self.phase_a_secs += other.phase_a_secs;
        self.phase_b_secs += other.phase_b_secs;
        self.merge_secs += other.merge_secs;
        self.mailbox_exchange_secs += other.mailbox_exchange_secs;
    }

    /// Total instrumented wall-clock across all stages.
    pub fn total_secs(&self) -> f64 {
        self.drain_secs
            + self.phase_a_secs
            + self.phase_b_secs
            + self.merge_secs
            + self.mailbox_exchange_secs
    }

    /// The serial fraction of the instrumented wall-clock: everything the
    /// coordinator must do alone (partition/steering, the order walk, the
    /// barrier step) over the total. The Amdahl bound on shard speedup.
    pub fn serial_fraction(&self) -> f64 {
        let total = self.total_secs();
        if total == 0.0 {
            return 0.0;
        }
        (self.drain_secs + self.phase_b_secs + self.mailbox_exchange_secs) / total
    }
}

/// One shard's share of the sharded loop's work, summed over pumps (see
/// [`Network::shard_load`]). Instrumentation only.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardLoad {
    /// Events the shard delivered: drained from its FEL, or fired from its
    /// intra-epoch heap. Over all shards this is the delivered count.
    pub drained: u64,
    /// Delivered events whose handler ran (the rest hit a dead router or
    /// a dead session).
    pub handled: u64,
    /// Wall-clock seconds the shard spent in Phase A.
    pub busy_secs: f64,
}

/// Min-heap entry ordered by `(at, key)`.
struct Pending<T> {
    at: SimTime,
    key: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// The router whose handler an event invokes.
fn owner(ev: &Ev) -> RouterId {
    match ev {
        Ev::Originate { node, .. }
        | Ev::WithdrawOrigin { node, .. }
        | Ev::ProcDone { node }
        | Ev::MraiExpiry { node, .. }
        | Ev::PeerDown { node, .. }
        | Ev::PeerUp { node, .. }
        | Ev::ReuseExpiry { node, .. } => *node,
        Ev::Deliver { to, .. } => *to,
    }
}

/// One handled event's share of the walk: what it needs to sort the event
/// into serial order, hand it its id block and emit its trace.
struct Rec {
    /// Delivery time.
    t: SimTime,
    /// Sort key: the real id of a drained event, or the local key of an
    /// intra-epoch follow-up (resolved against its creator by the walk).
    key: u64,
    /// First id of this record's block, written by the walk and read by
    /// the mail's destination next epoch.
    id_base: u64,
    /// The router whose handler ran.
    node: RouterId,
    /// Ids the handler's actions consume (the scheduled ones).
    ids: u32,
    /// End of this record's trace events in [`EpochOut::trace`].
    trace_end: u32,
}

/// A scheduler entry in flight between epochs, under a deferred id:
/// `id_base` of record `rec` of the source shard's output, plus `off`.
struct Mail {
    at: SimTime,
    rec: u32,
    off: u32,
    ev: Ev,
}

/// One shard's output for one epoch. Two per shard alternate — one being
/// built in Phase A, one being read by the walk and then by the next
/// epoch's mail filing — and both keep their capacity.
struct EpochOut {
    recs: Vec<Rec>,
    /// Trace events of every record, in execution order (tracing only).
    trace: Vec<NodeEvent>,
    /// Mail per destination shard. Behind a mutex only so the destination
    /// can drain its part while other shards read `recs`; each is locked
    /// by exactly one thread per epoch.
    mail: Vec<Mutex<Vec<Mail>>>,
    /// Earliest mail time per destination shard.
    mail_min: Vec<Option<SimTime>>,
    /// Events delivered (handled or dropped) and the latest of their times.
    delivered: u64,
    t_last: SimTime,
    /// Latest time an event marked activity.
    active_at: Option<SimTime>,
    announcements: u64,
    withdrawals: u64,
    /// The shard FEL's head after the drain — cached so the coordinator's
    /// per-epoch `t0` scan never has to lock an unengaged shard.
    next_peek: Option<SimTime>,
}

impl EpochOut {
    fn new(shards: usize) -> EpochOut {
        EpochOut {
            recs: Vec::new(),
            trace: Vec::new(),
            mail: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            mail_min: vec![None; shards],
            delivered: 0,
            t_last: SimTime::ZERO,
            active_at: None,
            announcements: 0,
            withdrawals: 0,
            next_peek: None,
        }
    }

    /// Empties the output for reuse, keeping every buffer's capacity. Its
    /// mail must have been filed already.
    fn reset(&mut self) {
        self.recs.clear();
        self.trace.clear();
        for (mail, min) in self.mail.iter_mut().zip(&mut self.mail_min) {
            let mail = mail.get_mut().expect("mail mutex poisoned");
            debug_assert!(mail.is_empty(), "mail outlived its filing epoch");
            *min = None;
        }
        self.delivered = 0;
        self.t_last = SimTime::ZERO;
        self.active_at = None;
        self.announcements = 0;
        self.withdrawals = 0;
    }

    fn push_mail(&mut self, dest: usize, mail: Mail) {
        let min = &mut self.mail_min[dest];
        if min.is_none_or(|m| mail.at < m) {
            *min = Some(mail.at);
        }
        self.mail[dest]
            .get_mut()
            .expect("mail mutex poisoned")
            .push(mail);
    }

    /// The real id behind a record's sort key (see [`Rec::key`]).
    fn resolve(&self, key: u64) -> u64 {
        if key < LOCAL_KEY_BASE {
            key
        } else {
            let local = key - LOCAL_KEY_BASE;
            self.recs[(local >> 32) as usize].id_base + (local & u64::from(u32::MAX))
        }
    }
}

/// What every Phase A job reads, frozen for the pump.
#[derive(Clone, Copy)]
struct EpochCtx<'a> {
    world: World<'a>,
    shard_of: &'a [u32],
    tracing: bool,
}

/// Everything one shard owns for the duration of a pump: its private
/// future-event list, its block of routers, its Phase A scratch buffers,
/// and the output it is building. Behind a [`Mutex`] only so whichever
/// crew member claims the shard can run Phase A on it; the epoch protocol
/// guarantees every lock is uncontended.
struct ShardSlot {
    fel: Scheduler<Ev>,
    base: usize,
    nodes: Vec<Option<BgpNode>>,
    /// Intra-epoch follow-ups under local keys.
    local: BinaryHeap<Pending<Ev>>,
    /// The epoch's drained events.
    batch: Vec<(SimTime, EventId, Ev)>,
    /// The handler action buffer.
    actions: Vec<Action>,
    out: EpochOut,
    load: ShardLoad,
}

/// The whole of Phase A for one engaged shard: file last epoch's mail into
/// the FEL under resolved ids, drain the FEL to `epoch_end`, and run the
/// handlers, turning their actions into mail, local follow-ups and walk
/// records as they come. Runs on whichever crew member claims the shard,
/// or inline on the coordinator — same code, so the paths cannot diverge.
fn run_shard_epoch(
    ctx: &EpochCtx<'_>,
    shard: usize,
    slot: &mut ShardSlot,
    prev: &[EpochOut],
    epoch_end: SimTime,
) {
    let start = Instant::now();
    let ShardSlot {
        fel,
        base,
        nodes,
        local,
        batch,
        actions,
        out,
        load,
    } = slot;
    for src in prev {
        let mut mail = src.mail[shard].lock().expect("mail mutex poisoned");
        for m in mail.drain(..) {
            let id = src.recs[m.rec as usize].id_base + u64::from(m.off);
            fel.insert_allocated(m.at, EventId::from_u64(id), m.ev);
        }
    }
    fel.drain_until_into(epoch_end, batch);
    // Merge the drained events (already in (time, id) order) with the
    // intra-epoch follow-ups; at equal times a drained event's real id
    // sorts below every local key.
    let mut drained = batch.drain(..).peekable();
    loop {
        let from_fel = match (drained.peek(), local.peek()) {
            (Some(&(at, ..)), Some(l)) => at <= l.at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let (t, key, ev) = if from_fel {
            let (at, id, ev) = drained.next().expect("peeked");
            (at, id.as_u64(), ev)
        } else {
            let p = local.pop().expect("peeked");
            (p.at, p.key, p.item)
        };
        out.delivered += 1;
        out.t_last = t;
        let Some((node, active)) = dispatch(&ctx.world, nodes, *base, t, ev, actions) else {
            continue;
        };
        load.handled += 1;
        if active {
            out.active_at = Some(t);
        }
        let rec = out.recs.len() as u32;
        let mut off: u32 = 0;
        for action in actions.drain(..) {
            let (at, ev, dest) = if let Action::Send { to, msg } = action {
                if msg.action.is_advertise() {
                    out.announcements += 1;
                } else {
                    out.withdrawals += 1;
                }
                // Messages towards failed routers are lost with the link
                // and never scheduled: no id.
                if !ctx.world.alive[to.index()] {
                    continue;
                }
                let at = t + LINK_DELAY;
                debug_assert!(at >= epoch_end, "send inside lookahead window");
                let ev = Ev::Deliver {
                    to,
                    from: node,
                    msg,
                };
                (at, ev, ctx.shard_of[to.index()] as usize)
            } else {
                let (at, ev) = follow_up(node, t, &action);
                if at < epoch_end {
                    local.push(Pending {
                        at,
                        key: LOCAL_KEY_BASE + (u64::from(rec) << 32) + u64::from(off),
                        item: ev,
                    });
                    off += 1;
                    continue;
                }
                (at, ev, shard)
            };
            out.push_mail(dest, Mail { at, rec, off, ev });
            off += 1;
        }
        let traced_before = out.trace.len();
        if ctx.tracing {
            if let Some(n) = nodes[node.index() - *base].as_mut() {
                out.trace.extend(n.drain_trace());
            }
        }
        if off > 0 || out.trace.len() > traced_before {
            out.recs.push(Rec {
                t,
                key,
                id_base: 0,
                node,
                ids: off,
                trace_end: out.trace.len() as u32,
            });
        }
    }
    load.drained += out.delivered;
    out.next_peek = fel.peek_time();
    load.busy_secs += start.elapsed().as_secs_f64();
}

/// A shard's position in the walk's merge.
#[derive(Clone, Copy, Default)]
struct Cursor {
    next: usize,
    trace_from: usize,
    /// `(time, real id)` of record `next`, if any.
    head: Option<(SimTime, u64)>,
}

/// Phase B: merges the shards' records in global `(time, id)` order,
/// allocating each record's id block from the central FEL and emitting its
/// trace events.
fn walk(
    outs: &mut [EpochOut],
    cursors: &mut [Cursor],
    sched: &mut Scheduler<Ev>,
    trace: &mut TraceSink,
) {
    let head = |out: &EpochOut, i: usize| out.recs.get(i).map(|r| (r.t, out.resolve(r.key)));
    for (cur, out) in cursors.iter_mut().zip(outs.iter()) {
        *cur = Cursor {
            head: head(out, 0),
            ..Cursor::default()
        };
    }
    let tracing = !trace.is_off();
    loop {
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (s, cur) in cursors.iter().enumerate() {
            if let Some(h) = cur.head {
                if best.is_none_or(|(_, b)| h < b) {
                    best = Some((s, h));
                }
            }
        }
        let Some((s, _)) = best else { break };
        let (out, cur) = (&mut outs[s], &mut cursors[s]);
        let rec = &mut out.recs[cur.next];
        rec.id_base = sched.alloc_ids(u64::from(rec.ids)).as_u64();
        if tracing {
            let end = rec.trace_end as usize;
            for ev in &out.trace[cur.trace_from..end] {
                trace.record(rec.t, rec.node, ev.clone());
            }
            cur.trace_from = end;
        }
        cur.next += 1;
        cur.head = head(out, cur.next);
    }
}

/// Spin-loop rounds (about 11 µs) a waiting crew member burns before it
/// parks. Six rotations of `caida512-2shard` against the condvar-parked
/// pool the crew replaced, on a 2-vCPU KVM guest of a Xeon host: 2^9
/// rounds kept user CPU within 1.1% of the pool's and cut system CPU by
/// 35%; 2^12 raised user CPU by 9%; parking at once cut system CPU by 18%.
const SPIN_ROUNDS: u32 = 1 << 9;

/// The crew generation that dismisses the workers; odd, so it wakes them.
const DISMISSED: u64 = u64::MAX;

/// Spins, then parks, until `ready` yields. Whoever makes it yield must
/// unpark the waiting thread.
fn wait_for<T>(ready: impl Fn() -> Option<T>) -> T {
    for _ in 0..SPIN_ROUNDS {
        if let Some(v) = ready() {
            return v;
        }
        std::hint::spin_loop();
    }
    loop {
        if let Some(v) = ready() {
            return v;
        }
        std::thread::park();
    }
}

/// What a coordinator publishes to its crew.
struct CrewState {
    /// Odd while an epoch is open, even once it is closed. The open's
    /// Release publishes the Relaxed fields below to Acquire loads of it.
    generation: AtomicU64,
    /// The epoch's end, in nanoseconds.
    epoch_end: AtomicU64,
    engaged: Vec<AtomicBool>,
    /// The next shard to claim.
    next: AtomicUsize,
    /// Workers inside the epoch. A check-out's Release decrement publishes
    /// `panicked` and the worker's jobs to the coordinator's load of it.
    running: AtomicUsize,
    panicked: AtomicBool,
    coordinator: Thread,
}

impl CrewState {
    /// Claims the next engaged shard, if one is left.
    fn next_engaged(&self) -> Option<usize> {
        loop {
            let s = self.next.fetch_add(1, Relaxed);
            if self.engaged.get(s)?.load(Relaxed) {
                return Some(s);
            }
        }
    }

    /// Runs `job` on `first`, if any, then on claimed shards until none are left.
    fn claim(&self, mut first: Option<usize>, job: &impl Fn(usize, SimTime)) {
        let epoch_end = SimTime::from_nanos(self.epoch_end.load(Relaxed));
        while let Some(s) = first.take().or_else(|| self.next_engaged()) {
            job(s, epoch_end);
        }
    }
}

/// The threads that run Phase A for one pump: the coordinator (the
/// pumping thread) and `size − 1` scoped workers, all claiming engaged
/// shards from one counter. Dropping the crew, at the pump's end or while
/// the coordinator unwinds, dismisses the workers so the scope can join.
struct Crew<'scope, J> {
    state: Arc<CrewState>,
    workers: Vec<Thread>,
    job: &'scope J,
}

impl<'scope, J: Fn(usize, SimTime) + Sync> Crew<'scope, J> {
    fn start<'env>(
        scope: &'scope Scope<'scope, 'env>,
        size: usize,
        shards: usize,
        job: &'scope J,
    ) -> Self {
        let state = Arc::new(CrewState {
            generation: AtomicU64::new(0),
            epoch_end: AtomicU64::new(0),
            engaged: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            next: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            coordinator: std::thread::current(),
        });
        Crew {
            workers: (1..size)
                .map(|_| {
                    let state = Arc::clone(&state);
                    std::thread::Builder::new()
                        .name("shard-crew".into())
                        .spawn_scoped(scope, move || crew_worker(&state, job))
                        .expect("failed to spawn a crew worker")
                        .thread()
                        .clone()
                })
                .collect(),
            state,
            job,
        }
    }

    /// One epoch: runs `job(s, epoch_end)` once per engaged shard `s`, and
    /// returns once every worker that joined has checked out, re-raising panics.
    fn run(&self, epoch_end: SimTime, engaged: &[bool]) {
        let st = &*self.state;
        st.epoch_end.store(epoch_end.as_nanos(), Relaxed);
        for (slot, &on) in st.engaged.iter().zip(engaged) {
            slot.store(on, Relaxed);
        }
        st.next.store(0, Relaxed);
        // Taking the first shard before the wake keeps, with two members,
        // each shard and its caches on one core from epoch to epoch.
        let first = st.next_engaged();
        let open = st.generation.fetch_add(1, Release) + 1;
        for worker in &self.workers {
            worker.unpark();
        }
        st.claim(first, self.job);
        // Close the epoch: a worker that has not joined it by now stays
        // out, so a worker the host deschedules cannot hold it up.
        st.generation.store(open + 1, SeqCst);
        wait_for(|| (st.running.load(SeqCst) == 0).then_some(()));
        assert!(!st.panicked.load(Relaxed), "a crew worker's job panicked");
    }
}

impl<J> Drop for Crew<'_, J> {
    fn drop(&mut self) {
        self.state.generation.store(DISMISSED, Release);
        for worker in &self.workers {
            worker.unpark();
        }
    }
}

fn crew_worker(st: &CrewState, job: &impl Fn(usize, SimTime)) {
    let mut seen = 0;
    loop {
        seen = wait_for(|| Some(st.generation.load(Acquire)).filter(|g| g % 2 == 1 && *g != seen));
        if seen == DISMISSED {
            return;
        }
        // Join, then claim only if the epoch is still open: SeqCst on both
        // sides means the close either counts this worker or is seen by it.
        st.running.fetch_add(1, SeqCst);
        let _check_out = CheckOut(st);
        if st.generation.load(SeqCst) == seen {
            st.claim(None, job);
        }
    }
}

/// Checks a worker out of its epoch, also when its job panics.
struct CheckOut<'a>(&'a CrewState);

impl Drop for CheckOut<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.panicked.store(true, Relaxed);
        }
        if self.0.running.fetch_sub(1, Release) == 1 {
            self.0.coordinator.unpark();
        }
    }
}

/// Drains the event queue with `net.shards` shard-owned FELs on a thread
/// crew of the pump's own; externally indistinguishable from
/// `Network::pump`'s serial drain.
pub(crate) fn pump_sharded(net: &mut Network) {
    let n = net.topo.num_routers();
    let shards = net.shards.min(n.max(1));
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // World state frozen for the duration of the pump.
    let alive: Vec<bool> = net.nodes.iter().map(Option::is_some).collect();

    // Contiguous block partition of routers onto shards.
    let bounds: Vec<usize> = (0..=shards).map(|s| s * n / shards).collect();
    let mut shard_of = vec![0u32; n];
    for s in 0..shards {
        shard_of[bounds[s]..bounds[s + 1]].fill(s as u32);
    }

    // Build the shard slots — router chunks plus a private FEL each —
    // and partition the central FEL onto them: every pending event moves
    // to its owner's shard under its existing (time, id) key. The central
    // list stays empty until the pump ends; only its id/delivery
    // accounting advances (in the walk).
    let partition_start = Instant::now();
    let mut chunks: Vec<Vec<Option<BgpNode>>> = Vec::with_capacity(shards);
    let mut rest = std::mem::take(&mut net.nodes);
    for s in (0..shards).rev() {
        chunks.push(rest.split_off(bounds[s]));
    }
    chunks.reverse();
    debug_assert!(rest.is_empty());
    let mut slots: Vec<Mutex<ShardSlot>> = chunks
        .into_iter()
        .enumerate()
        .map(|(s, nodes)| {
            Mutex::new(ShardSlot {
                fel: Scheduler::new(),
                base: bounds[s],
                nodes,
                local: BinaryHeap::new(),
                batch: Vec::new(),
                actions: Vec::new(),
                out: EpochOut::new(shards),
                load: ShardLoad::default(),
            })
        })
        .collect();
    for (at, id, ev) in net.sched.drain_all() {
        let s = shard_of[owner(&ev).index()] as usize;
        slots[s]
            .get_mut()
            .expect("slot mutex poisoned")
            .fel
            .insert_allocated(at, id, ev);
    }
    // Cached FEL heads, maintained by the epoch protocol so the per-epoch
    // t0 scan is pure arithmetic: a shard's head only changes when it is
    // engaged (drain + mail filing), and engagement refreshes the cache.
    let mut peeks: Vec<Option<SimTime>> = slots
        .iter_mut()
        .map(|slot| slot.get_mut().expect("slot mutex poisoned").fel.peek_time())
        .collect();
    let mut timings = ShardPhaseTimings::default();
    timings.drain_secs += partition_start.elapsed().as_secs_f64();

    let ctx = EpochCtx {
        world: World {
            topo: &net.topo,
            tiers: &net.tiers,
            alive: &alive,
            dead_links: &net.dead_links,
        },
        shard_of: &shard_of,
        tracing: !net.trace.is_off(),
    };

    // The previous epoch's outputs: walked, then read by this epoch's
    // mail filing. Phase A jobs share it read-only; the coordinator swaps
    // in each epoch's fresh outputs after the barrier.
    let prev: RwLock<Vec<EpochOut>> =
        RwLock::new((0..shards).map(|_| EpochOut::new(shards)).collect());
    let mut mail_min: Vec<Option<SimTime>> = vec![None; shards];
    let mut engaged = vec![false; shards];
    let mut cursors = vec![Cursor::default(); shards];
    // Phase A size predictor: the previous epoch's delivered count (see
    // PHASE_A_PAR_MIN_OPS). Starts at 0 so the first epoch runs inline.
    let mut predicted_ops = 0usize;
    let phase_a = |s: usize, epoch_end: SimTime| {
        let mut slot = slots[s].lock().expect("slot mutex poisoned");
        let prev = prev.read().expect("epoch outputs poisoned");
        run_shard_epoch(&ctx, s, &mut slot, &prev, epoch_end);
    };

    std::thread::scope(|scope| {
        let crew = Crew::start(scope, cores.min(shards), shards, &phase_a);
        loop {
            // Find the epoch start t0 over the cached FEL heads and mail
            // minima, and engage every shard with an event before epoch_end
            // or with mail to file.
            let scan_start = Instant::now();
            let Some(t0) = peeks.iter().chain(&mail_min).flatten().min().copied() else {
                break;
            };
            let epoch_end = t0 + LINK_DELAY;
            for s in 0..shards {
                engaged[s] = peeks[s].is_some_and(|p| p < epoch_end) || mail_min[s].is_some();
            }
            timings.drain_secs += scan_start.elapsed().as_secs_f64();

            // Phase A — on the crew, or inline when the predictor says the
            // epoch is too small to pay for a wake.
            let epoch_start = Instant::now();
            if predicted_ops < PHASE_A_PAR_MIN_OPS {
                timings.inline_phase_a_epochs += 1;
                for s in (0..shards).filter(|&s| engaged[s]) {
                    phase_a(s, epoch_end);
                }
            } else {
                crew.run(epoch_end, &engaged);
            }
            timings.phase_a_secs += epoch_start.elapsed().as_secs_f64();

            // Barrier step: the outputs just filed are retired for reuse, the
            // fresh ones take their place, and the per-shard counters and
            // mail minima are summed up.
            let exchange_start = Instant::now();
            let mut outs = prev.write().expect("epoch outputs poisoned");
            for (s, out) in outs.iter_mut().enumerate() {
                if engaged[s] {
                    let mut slot = slots[s].lock().expect("slot mutex poisoned");
                    std::mem::swap(&mut slot.out, out);
                    slot.out.reset();
                    peeks[s] = out.next_peek;
                } else {
                    out.reset();
                }
            }
            let (mut delivered, mut t_last, mut active_at) = (0u64, t0, None);
            mail_min.fill(None);
            for out in outs.iter() {
                delivered += out.delivered;
                t_last = t_last.max(out.t_last);
                active_at = active_at.max(out.active_at);
                net.announcements += out.announcements;
                net.withdrawals += out.withdrawals;
                for (min, &m) in mail_min.iter_mut().zip(&out.mail_min) {
                    *min = match (*min, m) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
            }
            debug_assert!(delivered > 0, "an epoch always delivers its t0 event");
            predicted_ops = delivered as usize;
            timings.mailbox_exchange_secs += exchange_start.elapsed().as_secs_f64();

            // Phase B — the serial walk.
            let walk_start = Instant::now();
            walk(&mut outs, &mut cursors, &mut net.sched, &mut net.trace);
            net.sched.mark_delivered_many(t_last, delivered);
            if let Some(t) = active_at {
                net.last_activity = t;
            }
            timings.phase_b_secs += walk_start.elapsed().as_secs_f64();
            timings.epochs += 1;
        }
    });

    // Quiescent: every shard FEL and mailbox drained; reassemble the
    // node vec from the slots.
    if net.shard_load.len() < shards {
        net.shard_load.resize(shards, ShardLoad::default());
    }
    let mut nodes: Vec<Option<BgpNode>> = Vec::with_capacity(n);
    for (slot, load) in slots.into_iter().zip(&mut net.shard_load) {
        let slot = slot.into_inner().expect("slot mutex poisoned");
        debug_assert!(
            slot.fel.is_empty() && slot.local.is_empty(),
            "shard FEL drained at quiescence"
        );
        load.drained += slot.load.drained;
        load.handled += slot.load.handled;
        load.busy_secs += slot.load.busy_secs;
        nodes.extend(slot.nodes);
    }
    net.nodes = nodes;
    net.shard_timings.add(&timings);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, SimConfig};
    use crate::scheme::Scheme;
    use crate::trace::{to_jsonl, TraceSink};
    use bgpsim_topology::degree::SkewedSpec;
    use bgpsim_topology::generators::skewed_topology;
    use bgpsim_topology::region::FailureSpec;
    use bgpsim_topology::{AsId, Point, Router, Topology};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_topo(seed: u64, n: usize) -> Topology {
        let mut rng = SmallRng::seed_from_u64(seed);
        skewed_topology(n, &SkewedSpec::seventy_thirty(), &mut rng).unwrap()
    }

    /// Full failure experiment under a given shard count.
    fn run_with_shards(shards: usize) -> (crate::RunStats, Network) {
        let topo = small_topo(42, 30);
        let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 777);
        cfg.shards = Some(shards);
        let mut net = Network::new(topo, cfg);
        let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.10));
        (stats, net)
    }

    fn assert_networks_identical(a: &Network, b: &Network, what: &str) {
        assert_eq!(a.now(), b.now(), "{what}: clock diverged");
        assert_eq!(
            a.sched.delivered_count(),
            b.sched.delivered_count(),
            "{what}: delivered count diverged"
        );
        assert_eq!(
            a.sched.scheduled_count(),
            b.sched.scheduled_count(),
            "{what}: scheduled count diverged"
        );
        for r in a.topology().router_ids() {
            match (a.node(r), b.node(r)) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.loc_rib(), y.loc_rib(), "{what}: Loc-RIB of {r} diverged");
                    assert_eq!(x.stats(), y.stats(), "{what}: node stats of {r} diverged");
                }
                _ => panic!("{what}: aliveness of {r} diverged"),
            }
        }
    }

    /// A chain `0 – 1 – … – (n-1)` of one-router ASes.
    fn chain(n: u32) -> Topology {
        let routers = (0..n)
            .map(|i| Router {
                as_id: AsId::new(i),
                pos: Point::new(f64::from(i), 0.0),
            })
            .collect();
        let edges: Vec<_> = (1..n)
            .map(|i| (RouterId::new(i - 1), RouterId::new(i)))
            .collect();
        Topology::new(routers, edges).unwrap()
    }

    #[test]
    fn sharded_matches_serial_across_shard_counts() {
        let (serial_stats, serial_net) = run_with_shards(1);
        for shards in [2, 3, 7] {
            let (stats, net) = run_with_shards(shards);
            assert_eq!(stats, serial_stats, "RunStats diverged at {shards} shards");
            assert_networks_identical(&net, &serial_net, &format!("{shards} shards"));
        }
    }

    #[test]
    fn epoch_boundary_deliveries_match_serial() {
        // Regression: with a zero origination window, every message lands
        // exactly on an epoch boundary (t0 + link_delay == epoch_end), the
        // half-open-window edge case — it must be queued into the next
        // epoch and delivered in serial order, including the event-id
        // tie-break between same-instant deliveries from different peers.
        let build = |shards: usize| {
            let routers = (0..4)
                .map(|i| Router {
                    as_id: AsId::new(i),
                    pos: Point::new(i as f64, 0.0),
                })
                .collect();
            // A diamond 0–{1,2}–3: router 3 hears every prefix from both 1
            // and 2 at the same instant.
            let topo = Topology::new(
                routers,
                vec![
                    (RouterId::new(0), RouterId::new(1)),
                    (RouterId::new(0), RouterId::new(2)),
                    (RouterId::new(1), RouterId::new(3)),
                    (RouterId::new(2), RouterId::new(3)),
                ],
            )
            .unwrap();
            let mut cfg = SimConfig::new(99);
            cfg.origination_window = bgpsim_des::SimDuration::ZERO;
            cfg.shards = Some(shards);
            Network::new(topo, cfg)
        };
        let mut serial = build(1);
        serial.run_initial_convergence();
        for shards in [2, 4] {
            let mut net = build(shards);
            net.run_initial_convergence();
            assert_networks_identical(&net, &serial, &format!("{shards} shards"));
        }
    }

    #[test]
    fn link_failure_and_revival_match_serial() {
        // Covers the PeerDown/PeerUp arms: fail a link, quiesce, fail a
        // router region, then revive it.
        let run = |shards: usize| {
            let topo = small_topo(7, 24);
            let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 31);
            cfg.shards = Some(shards);
            let mut net = Network::new(topo, cfg);
            net.run_initial_convergence();
            let edges: Vec<_> = net.topology().edges()[..3].to_vec();
            net.inject_link_failure(&edges);
            let s1 = net.run_to_quiescence();
            let failed = net.inject_failure(&FailureSpec::CenterFraction(0.10));
            let s2 = net.run_to_quiescence();
            net.revive_routers(&failed);
            let s3 = net.run_to_quiescence();
            (s1, s2, s3, net)
        };
        let (a1, a2, a3, serial) = run(1);
        let (b1, b2, b3, sharded) = run(3);
        assert_eq!(a1, b1, "link-failure stats diverged");
        assert_eq!(a2, b2, "region-failure stats diverged");
        assert_eq!(a3, b3, "revival stats diverged");
        assert_networks_identical(&sharded, &serial, "3 shards");
    }

    #[test]
    fn policy_link_failure_and_revival_match_serial() {
        // Policy runs hand every PeerUp a relationship from the network's
        // stored AS tiers, in both loops. A link failure and then a router
        // revival drive PeerDown and PeerUp through each.
        let run = |shards: usize| {
            let topo = small_topo(11, 24);
            let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 5);
            cfg.policy = true;
            cfg.shards = Some(shards);
            let mut net = Network::new(topo, cfg);
            net.run_initial_convergence();
            net.set_trace_sink(TraceSink::memory(1 << 22));
            let edges: Vec<_> = net.topology().edges()[..2].to_vec();
            net.inject_link_failure(&edges);
            let s1 = net.run_to_quiescence();
            let failed = net.inject_failure(&FailureSpec::CenterFraction(0.10));
            let s2 = net.run_to_quiescence();
            net.revive_routers(&failed);
            let s3 = net.run_to_quiescence();
            let jsonl = to_jsonl(&net.take_trace_events());
            ([s1, s2, s3], jsonl, net)
        };
        let (serial_stats, serial_jsonl, serial) = run(1);
        assert!(!serial_jsonl.is_empty(), "the run must record events");
        for shards in [2, 3] {
            let (stats, jsonl, net) = run(shards);
            assert_eq!(stats, serial_stats, "RunStats diverged at {shards} shards");
            assert_eq!(
                jsonl, serial_jsonl,
                "trace bytes diverged at {shards} shards"
            );
            assert_networks_identical(&net, &serial, &format!("{shards} shards"));
        }
    }

    #[test]
    fn mail_to_idle_shards_gets_serial_ids() {
        // A chain paced by a long MRAI: the far end hears one update per
        // MRAI round and sits idle — no event of its own — for the dozens
        // of 25 ms epochs in between, as do the timers its own shard mails
        // to itself. At 37 shards every router is alone in its shard. The
        // filed mail must carry exactly the serial ids.
        let run = |shards: usize| {
            let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(2.0), 3);
            cfg.shards = Some(shards);
            let mut net = Network::new(chain(6), cfg);
            net.set_trace_sink(TraceSink::memory(1 << 20));
            net.run_initial_convergence();
            let edges = [net.topology().edges()[0]];
            net.inject_link_failure(&edges);
            let stats = net.run_to_quiescence();
            let jsonl = to_jsonl(&net.take_trace_events());
            (stats, jsonl, net)
        };
        let (serial_stats, serial_jsonl, serial) = run(1);
        for shards in [2, 3, 37] {
            let (stats, jsonl, net) = run(shards);
            assert_eq!(stats, serial_stats, "RunStats diverged at {shards} shards");
            assert_eq!(
                jsonl, serial_jsonl,
                "trace bytes diverged at {shards} shards"
            );
            assert_networks_identical(&net, &serial, &format!("{shards} shards"));
            if shards == 37 {
                // Alone in its shard, the far end handles an event in
                // fewer than half of the epochs, yet receives mail
                // throughout.
                let far_end = *net.shard_load().last().expect("sharded run");
                assert!(far_end.handled > 0);
                assert!(
                    far_end.drained * 2 < net.shard_phase_timings().epochs,
                    "the far end's shard was busy in most epochs: {far_end:?}"
                );
            }
        }
    }

    #[test]
    fn traces_byte_identical_across_shard_counts() {
        // The tentpole claim of the trace layer: the JSONL byte stream is
        // a pure function of the simulation, independent of the shard
        // count.
        let run = |shards: usize| {
            let topo = small_topo(42, 30);
            let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 777);
            cfg.shards = Some(shards);
            let mut net = Network::new(topo, cfg);
            net.run_initial_convergence();
            net.inject_failure(&FailureSpec::CenterFraction(0.10));
            net.set_trace_sink(TraceSink::memory(1 << 22));
            let stats = net.run_to_quiescence();
            let events = net.take_trace_events();
            assert!(!events.is_empty(), "re-convergence must record events");
            (stats, to_jsonl(&events))
        };
        let (serial_stats, serial_jsonl) = run(1);
        for shards in [2, 3, 4] {
            let (stats, jsonl) = run(shards);
            assert_eq!(stats, serial_stats, "RunStats diverged at {shards} shards");
            assert_eq!(
                jsonl, serial_jsonl,
                "trace bytes diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn commit_streams_setting_is_inert() {
        let run = |streams: Option<usize>| {
            let topo = small_topo(42, 30);
            let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 777);
            cfg.shards = Some(3);
            cfg.commit_streams = streams;
            let mut net = Network::new(topo, cfg);
            assert_eq!(net.commit_stream_count(), net.shard_count());
            assert_eq!(
                net.shard_phase_timings().epochs,
                0,
                "no pump has run yet, timings start empty"
            );
            net.run_initial_convergence();
            net.inject_failure(&FailureSpec::CenterFraction(0.10));
            net.set_trace_sink(TraceSink::memory(1 << 22));
            let stats = net.run_to_quiescence();
            (stats, to_jsonl(&net.take_trace_events()), net)
        };
        let (base_stats, base_jsonl, base) = run(None);
        for streams in [Some(1), Some(2), Some(7)] {
            let (stats, jsonl, net) = run(streams);
            assert_eq!(stats, base_stats, "RunStats moved with {streams:?} streams");
            assert_eq!(jsonl, base_jsonl, "trace moved with {streams:?} streams");
            assert_networks_identical(&net, &base, &format!("{streams:?} streams"));
        }
    }

    #[test]
    fn shard_load_accounts_for_every_delivered_event() {
        let (_, net) = run_with_shards(3);
        let load = net.shard_load();
        assert_eq!(load.len(), 3);
        let drained: u64 = load.iter().map(|l| l.drained).sum();
        assert_eq!(
            drained,
            net.sched.delivered_count(),
            "per-shard drained counts must sum to the delivered count"
        );
        for l in load {
            assert!(l.handled <= l.drained && l.handled > 0);
            assert!(l.busy_secs > 0.0);
        }
        let t = net.shard_phase_timings();
        assert_eq!(t.parallel_commit_epochs, 0);
        assert_eq!(t.merge_secs, 0.0);
        assert!(t.drain_secs > 0.0 && t.mailbox_exchange_secs > 0.0);
        let f = t.serial_fraction();
        assert!((0.0..1.0).contains(&f), "serial fraction {f} out of range");
        let (_, serial) = run_with_shards(1);
        assert!(serial.shard_load().is_empty(), "serial runs record no load");
    }

    #[test]
    fn small_epochs_run_phase_a_inline() {
        // The origination trickle and the post-storm tail both produce
        // epochs with a handful of events — those must take the inline
        // path, and bigger epochs must still reach the crew. The
        // identity of the two paths is pinned by every other test in this
        // module (they all run epochs on both sides of the threshold).
        let (_, net) = run_with_shards(2);
        let t = net.shard_phase_timings();
        assert!(
            t.inline_phase_a_epochs > 0,
            "no epoch was small enough for the inline Phase A path"
        );
        assert!(
            t.inline_phase_a_epochs < t.epochs,
            "no epoch was big enough for the crew path"
        );
    }

    #[test]
    fn a_job_panic_on_either_side_returns() {
        // The other side waits until the panicking side has started a job. A
        // detached thread with a deadline turns a hung crew into a failure.
        for worker_panics in [true, false] {
            let started = AtomicBool::new(false);
            let job = move |_: usize, _: SimTime| {
                if (std::thread::current().name() == Some("shard-crew")) == worker_panics {
                    started.store(true, Release);
                    panic!("a Phase A job");
                }
                while !started.load(Acquire) {
                    std::thread::yield_now();
                }
            };
            let (done, outcome) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut epochs = 0;
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    std::thread::scope(|scope| {
                        let crew = Crew::start(scope, 2, 2, &job);
                        for e in 0..3 {
                            crew.run(SimTime::from_nanos(e), &[true; 2]);
                            epochs += 1;
                        }
                    })
                }));
                done.send((run.is_err(), epochs))
                    .expect("the test is waiting");
            });
            // Ok((true, 0)): the panic surfaced at the end of the first epoch.
            let outcome = outcome.recv_timeout(std::time::Duration::from_secs(60));
            assert_eq!(outcome, Ok((true, 0)), "worker_panics = {worker_panics}");
        }
    }

    #[test]
    fn every_engaged_shard_runs_once_per_epoch() {
        // 7 shards on a crew of 3, and on a crew of 1 (a one-core host),
        // which must run every job on the calling thread.
        let caller = std::thread::current().id();
        for size in [3, 1] {
            let ran = Mutex::new(Vec::new());
            let job = |s: usize, end: SimTime| {
                assert!(size > 1 || std::thread::current().id() == caller);
                ran.lock().unwrap().push((s, end));
            };
            std::thread::scope(|scope| {
                let crew = Crew::start(scope, size, 7, &job);
                assert_eq!(crew.workers.len(), size - 1);
                for e in 0..1000u64 {
                    let engaged: Vec<bool> = (0..7).map(|s| (e + s) % 3 != 0).collect();
                    let end = SimTime::from_nanos(e);
                    crew.run(end, &engaged);
                    let mut got = std::mem::take(&mut *ran.lock().unwrap());
                    got.sort_unstable();
                    let want: Vec<_> = (0..7).filter(|&s| engaged[s]).map(|s| (s, end)).collect();
                    assert_eq!(got, want, "crew of {size}, epoch {e}");
                }
            });
        }
    }

    #[test]
    fn shard_count_resolution() {
        let topo = small_topo(1, 10);
        let mut cfg = SimConfig::new(1);
        cfg.shards = Some(4);
        assert_eq!(Network::new(topo, cfg).shard_count(), 4);
    }
}
