//! Structured convergence tracing and per-node time-series metrics.
//!
//! [`RunStats`](crate::RunStats) summarizes a run after the fact; this
//! module records *how it got there*. When a [`TraceSink`] is attached to
//! a [`Network`](crate::network::Network), every node handler's
//! observations ([`NodeEvent`]: updates sent/received/processed, stale
//! deletions, decision runs, MRAI timer starts/expiries, dynamic-MRAI
//! level transitions with the detector reading behind them, queue depth,
//! best-path changes) are stamped with global `(time, node, seq)`
//! coordinates into a [`TraceEvent`] stream.
//!
//! ## Determinism
//!
//! The stream is a pure function of the simulation: the serial loop
//! stamps each handler's events at delivery, and the sharded loop's
//! Phase B walk replays the epoch in the same global `(time, id)` order
//! (see the `shard` module) — shard-owned FELs move *where* events wait,
//! never the walk order that emission follows. Each shard buffers its
//! handlers' events per walk record, and the walk emits them as it visits
//! the records — so a trace taken at `BGPSIM_SHARDS=N` is
//! **byte-identical** to the serial one for any shard count. Recording
//! never touches node RNGs or timers, so a traced run also produces
//! bit-identical [`RunStats`](crate::RunStats) to an untraced one.
//!
//! ## Sinks
//!
//! * [`TraceSink::Off`] — the default; hook sites cost one branch.
//! * [`TraceSink::Memory`] — an in-memory buffer, for in-process
//!   analysis ([`Timeline`]) and for export: [`to_jsonl`] renders it as
//!   one JSON object per line, the form the CI determinism check
//!   compares. A capacity of `usize::MAX` keeps every event; a smaller
//!   one makes it a ring that drops the oldest.
//!
//! The trace is the simulator's only in-run observer: a timeline of the
//! network's backlog, busy routers or messages over time is a pass over
//! its `QueueDepth` and `Sent` events (the `convergence_timeline`
//! example), never a probe inside the event loop.
//!
//! ## Timelines
//!
//! [`Timeline::from_events`] reconstructs per-destination settle times,
//! counts transient-route episodes (routes installed and later replaced
//! or withdrawn — the invalid intermediate routes the paper's batching
//! scheme suppresses, §5), and collects per-node queue-depth /
//! unfinished-work and MRAI-level series, exportable as CSV.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use bgpsim_bgp::trace::NodeEvent;
use bgpsim_bgp::Prefix;
use bgpsim_des::{SimDuration, SimTime};
use bgpsim_topology::RouterId;
use serde::{Deserialize, Serialize};

/// One stamped trace record: a [`NodeEvent`] plus its global coordinates.
///
/// `seq` is a global, gap-free emission counter — the total order of the
/// stream. Two runs of the same simulation produce identical sequences
/// regardless of shard count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Position in the global emission order (0-based, gap-free).
    pub seq: u64,
    /// Simulation time of the handler that recorded the event.
    pub time: SimTime,
    /// The router that recorded the event.
    pub node: RouterId,
    /// The observation itself.
    pub event: NodeEvent,
}

/// An in-memory trace buffer. Past its capacity it is a ring: the oldest
/// events drop first.
#[derive(Clone, Debug, Default)]
pub struct MemoryTrace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl MemoryTrace {
    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Where trace events go. Defaults to [`TraceSink::Off`].
///
/// Cloning a [`Memory`](TraceSink::Memory) sink deep-clones it: the clone
/// of a traced network carries the original's history, so the two record
/// identical continuations.
#[derive(Clone, Debug, Default)]
pub enum TraceSink {
    /// Tracing disabled — zero events recorded, hook sites cost a branch.
    #[default]
    Off,
    /// Buffered in memory, for in-process analysis.
    Memory(MemoryTrace),
}

impl TraceSink {
    /// An in-memory sink holding at most `capacity` events (the oldest
    /// drop first); `usize::MAX` keeps every event.
    pub fn memory(capacity: usize) -> TraceSink {
        TraceSink::Memory(MemoryTrace {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            seq: 0,
            dropped: 0,
        })
    }

    /// Whether this sink discards everything.
    pub fn is_off(&self) -> bool {
        matches!(self, TraceSink::Off)
    }

    /// Events stamped so far (the next event's `seq`).
    pub fn seq(&self) -> u64 {
        match self {
            TraceSink::Off => 0,
            TraceSink::Memory(m) => m.seq,
        }
    }

    /// Stamps and records one event.
    pub fn record(&mut self, time: SimTime, node: RouterId, event: NodeEvent) {
        match self {
            TraceSink::Off => {}
            TraceSink::Memory(m) => {
                let seq = m.seq;
                m.seq += 1;
                m.events.push_back(TraceEvent {
                    seq,
                    time,
                    node,
                    event,
                });
                if m.events.len() > m.capacity {
                    m.events.pop_front();
                    m.dropped += 1;
                }
            }
        }
    }

    /// The memory buffer, when this is a [`TraceSink::Memory`].
    pub fn memory_events(&self) -> Option<&MemoryTrace> {
        match self {
            TraceSink::Memory(m) => Some(m),
            TraceSink::Off => None,
        }
    }

    /// Drains a [`TraceSink::Memory`] buffer (the seq counter keeps
    /// running, so later events continue the global order). The buffer's
    /// allocation moves into the returned `Vec` rather than being copied.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        match self {
            TraceSink::Memory(m) => std::mem::take(&mut m.events).into(),
            TraceSink::Off => Vec::new(),
        }
    }
}

/// One queue-depth observation of a node.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueuePoint {
    /// When the depth was observed.
    pub time: SimTime,
    /// Updates waiting (not in service).
    pub queued: u32,
    /// Updates in the batch in service.
    pub in_service: u32,
}

impl QueuePoint {
    /// The paper's unfinished-work signal at this point:
    /// `(queued + in_service) × mean_processing`, in seconds.
    pub fn unfinished_work_secs(&self, mean_processing: SimDuration) -> f64 {
        (mean_processing * u64::from(self.queued + self.in_service)).as_secs_f64()
    }
}

/// One dynamic-MRAI level transition of a node.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LevelPoint {
    /// When the controller moved.
    pub time: SimTime,
    /// Level index before the move.
    pub from: usize,
    /// Level index after the move.
    pub to: usize,
    /// The detector reading that caused it.
    pub reading: f64,
}

/// Per-(node, prefix) best-route churn bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
struct ChurnState {
    installs: u64,
    last_was_install: bool,
}

/// The analysis pass over a trace: per-destination settle times,
/// transient-route episode counts, and per-node time series.
///
/// Built once from an event stream (typically everything recorded after
/// failure injection); the CSV exporters slice it for plotting.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Last best-path change per destination, across all nodes — when the
    /// network "settled" on that destination.
    pub settled_at: BTreeMap<Prefix, SimTime>,
    /// Transient-route episodes per destination: best routes some node
    /// installed and later replaced or withdrew (the invalid intermediate
    /// routes of §5). The final installed route of each (node, prefix)
    /// pair is not transient.
    pub transient_by_prefix: BTreeMap<Prefix, u64>,
    /// Queue-depth series per node, in observation order.
    pub queue_series: BTreeMap<RouterId, Vec<QueuePoint>>,
    /// Dynamic-MRAI level transitions per node, in observation order.
    pub level_series: BTreeMap<RouterId, Vec<LevelPoint>>,
    /// Total best-path changes observed.
    pub best_changes: u64,
    /// Total stale updates deleted unprocessed.
    pub stale_deleted: u64,
    /// Total updates sent.
    pub sent: u64,
    /// Total updates received.
    pub received: u64,
    /// Total updates processed.
    pub processed: u64,
    /// Total MRAI timers started.
    pub mrai_starts: u64,
    /// Total live MRAI expiries.
    pub mrai_expiries: u64,
}

impl Timeline {
    /// Replays an event stream into a timeline. Events must be in stream
    /// order (ascending `seq`), which every sink preserves.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Timeline {
        let mut tl = Timeline::default();
        let mut churn: BTreeMap<(RouterId, Prefix), ChurnState> = BTreeMap::new();
        for ev in events {
            match &ev.event {
                NodeEvent::Sent { .. } => tl.sent += 1,
                NodeEvent::Received { .. } => tl.received += 1,
                NodeEvent::Processed { .. } => tl.processed += 1,
                NodeEvent::StaleDeleted { count } => tl.stale_deleted += count,
                NodeEvent::Decision { .. } => {}
                NodeEvent::BestChanged { prefix, path_len } => {
                    tl.best_changes += 1;
                    tl.settled_at.insert(*prefix, ev.time);
                    let state = churn.entry((ev.node, *prefix)).or_default();
                    if path_len.is_some() {
                        state.installs += 1;
                        state.last_was_install = true;
                    } else {
                        state.last_was_install = false;
                    }
                }
                NodeEvent::MraiStarted { .. } => tl.mrai_starts += 1,
                NodeEvent::MraiExpired { .. } => tl.mrai_expiries += 1,
                NodeEvent::MraiLevel { from, to, reading } => {
                    tl.level_series
                        .entry(ev.node)
                        .or_default()
                        .push(LevelPoint {
                            time: ev.time,
                            from: *from,
                            to: *to,
                            reading: *reading,
                        });
                }
                NodeEvent::QueueDepth { queued, in_service } => {
                    tl.queue_series
                        .entry(ev.node)
                        .or_default()
                        .push(QueuePoint {
                            time: ev.time,
                            queued: *queued,
                            in_service: *in_service,
                        });
                }
            }
        }
        for ((_, prefix), state) in churn {
            let transient = state.installs - u64::from(state.last_was_install);
            if transient > 0 {
                *tl.transient_by_prefix.entry(prefix).or_default() += transient;
            }
        }
        tl
    }

    /// Total transient-route episodes across destinations.
    pub fn transient_routes(&self) -> u64 {
        self.transient_by_prefix.values().sum()
    }

    /// Per-destination settle delays relative to `t0` (typically the
    /// failure time). Destinations whose last change predates `t0` are
    /// reported as settled at zero.
    pub fn settle_since(&self, t0: SimTime) -> BTreeMap<Prefix, SimDuration> {
        self.settled_at
            .iter()
            .map(|(&p, &at)| (p, at.saturating_since(t0)))
            .collect()
    }

    /// The latest settle delay relative to `t0` (the trace-level view of
    /// the run's convergence delay), or zero for an empty timeline.
    pub fn last_settle_since(&self, t0: SimTime) -> SimDuration {
        self.settled_at
            .values()
            .map(|&at| at.saturating_since(t0))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// CSV of per-destination settle delay (relative to `t0`) and
    /// transient-route episodes: `prefix,settle_secs,transient_routes`.
    pub fn settle_csv(&self, t0: SimTime) -> String {
        let mut out = String::from("prefix,settle_secs,transient_routes\n");
        for (p, d) in self.settle_since(t0) {
            let transient = self.transient_by_prefix.get(&p).copied().unwrap_or(0);
            let _ = writeln!(out, "{},{:.6},{}", p.index(), d.as_secs_f64(), transient);
        }
        out
    }

    /// CSV of the per-node queue/unfinished-work series:
    /// `time_secs,node,queued,in_service,unfinished_work_secs`. Rows are
    /// grouped per node in time order; `mean_processing` converts depth
    /// into the paper's unfinished-work seconds (15.5 ms for U(1, 30) ms).
    pub fn unfinished_work_csv(&self, mean_processing: SimDuration) -> String {
        let mut out = String::from("time_secs,node,queued,in_service,unfinished_work_secs\n");
        for (node, series) in &self.queue_series {
            for p in series {
                let _ = writeln!(
                    out,
                    "{:.6},{},{},{},{:.6}",
                    p.time.as_secs_f64(),
                    node.index(),
                    p.queued,
                    p.in_service,
                    p.unfinished_work_secs(mean_processing)
                );
            }
        }
        out
    }

    /// CSV of the per-node MRAI level transitions:
    /// `time_secs,node,from_level,to_level,reading`.
    pub fn level_csv(&self) -> String {
        let mut out = String::from("time_secs,node,from_level,to_level,reading\n");
        for (node, series) in &self.level_series {
            for p in series {
                let _ = writeln!(
                    out,
                    "{:.6},{},{},{},{:.6}",
                    p.time.as_secs_f64(),
                    node.index(),
                    p.from,
                    p.to,
                    p.reading
                );
            }
        }
        out
    }
}

/// Serializes events as JSONL, one JSON object per line — the export
/// form of a [`TraceSink::Memory`] buffer, compared byte for byte across
/// shard counts.
pub fn to_jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("trace events serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, time_ms: u64, node: u32, event: NodeEvent) -> TraceEvent {
        TraceEvent {
            seq,
            time: SimTime::from_millis(time_ms),
            node: RouterId::new(node),
            event,
        }
    }

    #[test]
    fn memory_sink_stamps_and_bounds() {
        let mut sink = TraceSink::memory(2);
        for i in 0..4u32 {
            sink.record(
                SimTime::from_millis(u64::from(i)),
                RouterId::new(i),
                NodeEvent::StaleDeleted { count: 1 },
            );
        }
        let m = sink.memory_events().unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.dropped(), 2);
        assert_eq!(sink.seq(), 4);
        let seqs: Vec<u64> = m.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3], "ring keeps the newest events");
    }

    #[test]
    fn trace_event_round_trips_through_json() {
        let e = ev(
            3,
            1500,
            7,
            NodeEvent::MraiLevel {
                from: 0,
                to: 1,
                reading: 0.75,
            },
        );
        let s = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn cloning_a_memory_sink_carries_its_history() {
        let mut mem = TraceSink::memory(8);
        mem.record(
            SimTime::ZERO,
            RouterId::new(0),
            NodeEvent::StaleDeleted { count: 2 },
        );
        let cloned = mem.clone();
        assert_eq!(cloned.seq(), 1);
        assert_eq!(cloned.memory_events().unwrap().len(), 1);
    }

    #[test]
    fn timeline_settles_and_counts_transients() {
        // Node 1 installs p0 twice then withdraws it; node 2 installs p1
        // once and keeps it.
        let events = vec![
            ev(
                0,
                100,
                1,
                NodeEvent::BestChanged {
                    prefix: Prefix::new(0),
                    path_len: Some(2),
                },
            ),
            ev(
                1,
                200,
                1,
                NodeEvent::BestChanged {
                    prefix: Prefix::new(0),
                    path_len: Some(3),
                },
            ),
            ev(
                2,
                300,
                1,
                NodeEvent::BestChanged {
                    prefix: Prefix::new(0),
                    path_len: None,
                },
            ),
            ev(
                3,
                250,
                2,
                NodeEvent::BestChanged {
                    prefix: Prefix::new(1),
                    path_len: Some(1),
                },
            ),
        ];
        let tl = Timeline::from_events(&events);
        assert_eq!(tl.best_changes, 4);
        // p0: both installs ended up replaced/withdrawn → 2 transients.
        assert_eq!(tl.transient_by_prefix.get(&Prefix::new(0)), Some(&2));
        // p1: final install is not transient.
        assert_eq!(tl.transient_by_prefix.get(&Prefix::new(1)), None);
        assert_eq!(tl.transient_routes(), 2);
        assert_eq!(
            tl.settled_at.get(&Prefix::new(0)),
            Some(&SimTime::from_millis(300))
        );
        let settle = tl.settle_since(SimTime::from_millis(100));
        assert_eq!(
            settle.get(&Prefix::new(1)),
            Some(&SimDuration::from_millis(150))
        );
        assert_eq!(
            tl.last_settle_since(SimTime::ZERO),
            SimDuration::from_millis(300)
        );
    }

    #[test]
    fn timeline_series_and_csv() {
        let events = vec![
            ev(
                0,
                1000,
                4,
                NodeEvent::QueueDepth {
                    queued: 10,
                    in_service: 2,
                },
            ),
            ev(
                1,
                2000,
                4,
                NodeEvent::QueueDepth {
                    queued: 0,
                    in_service: 1,
                },
            ),
            ev(
                2,
                1500,
                4,
                NodeEvent::MraiLevel {
                    from: 0,
                    to: 1,
                    reading: 1.55,
                },
            ),
            ev(3, 1600, 4, NodeEvent::StaleDeleted { count: 5 }),
        ];
        let tl = Timeline::from_events(&events);
        assert_eq!(tl.stale_deleted, 5);
        let series = &tl.queue_series[&RouterId::new(4)];
        assert_eq!(series.len(), 2);
        // 12 pending × 15.5 ms = 186 ms of unfinished work.
        let mean = SimDuration::from_micros(15_500);
        assert!((series[0].unfinished_work_secs(mean) - 0.186).abs() < 1e-9);
        let csv = tl.unfinished_work_csv(mean);
        assert!(csv.starts_with("time_secs,node,queued,in_service,unfinished_work_secs\n"));
        assert!(csv.contains("1.000000,4,10,2,0.186000"));
        let lcsv = tl.level_csv();
        assert!(lcsv.contains("1.500000,4,0,1,1.550000"));
    }
}
