//! Warm-start sweep engine: snapshot/fork of converged networks.
//!
//! Every figure in the paper sweeps a failure (or scheme) parameter against
//! a fixed `(topology, seed, scheme)` triple, yet a cold
//! [`Experiment::run_trial`](crate::experiment::Experiment::run_trial)
//! rebuilds the network and re-runs
//! [`Network::run_initial_convergence`](crate::network::Network::run_initial_convergence)
//! from scratch for every single point — pure redundant work, since the
//! pre-failure converged state is identical across all points sharing the
//! triple. This module captures that converged state once per triple into a
//! [`NetworkSnapshot`] and hands out cheap forks for each failure point.
//!
//! # Fork semantics and determinism
//!
//! A snapshot is a deep [`Clone`] of the quiesced [`Network`]: every BGP
//! node (Adj-RIB-In, Loc-RIB, Adj-RIB-Out, MRAI timers, dynamic-MRAI
//! level, processing queue, statistics counters, per-node RNG state), the
//! scheduler (pending events, clock, cancel tombstones, id and delivery
//! counters), and the interning caches. Thanks to the `Arc<[AsId]>`-interned
//! AS paths, cloning is mostly refcount bumps rather than deep path copies,
//! and the per-node prepend caches stay valid across the clone because their
//! keys are the shared path allocations themselves.
//!
//! Forking is deterministic by construction: the scheduler's event order is
//! total (time, then id) and survives cloning; failure injection derives
//! fresh RNG streams from the simulation seed rather than consuming shared
//! stream state. A forked run therefore produces **bit-identical**
//! [`RunStats`](crate::metrics::RunStats) to a cold run — locked by the
//! `warm_start_prop` property test over all three scheme families.
//!
//! Sharded runs snapshot identically: pumps only move pending events into
//! shard-owned FELs *during* a drain (DESIGN.md §13) and return them fully
//! consumed, with the central scheduler's clock, id and delivery counters
//! advanced exactly as a serial drain would have — so a snapshot taken at
//! quiescence never sees shard-local state, whatever the shard count.
//!
//! # Trace state across forks
//!
//! A snapshot carries the prototype's [`TraceSink`](crate::trace::TraceSink)
//! with the sink's own clone semantics: `Off` stays off, a `Memory` ring
//! is deep-copied (each fork owns the buffered prefix and continues the
//! sequence numbering independently), and a `Jsonl` stream degrades to
//! `Off` — two simulations must not interleave one byte stream. Node-level
//! recording flags are re-synced to the sink when a fork next runs, so a
//! fork of a JSONL-traced network simply runs untraced; attach a fresh
//! sink per fork to stream it.
//!
//! # Cache keying
//!
//! [`SnapshotCache`] keys snapshots by the serialized
//! `(TopologySpec, Scheme)` pair plus `(base_seed, trial)` — see
//! [`SnapshotKey`]. Those spec types carry `f64` fields and so cannot
//! implement `Eq`/`Hash` directly; their canonical JSON encoding can, and
//! two points share a converged prototype exactly when their JSON encodings
//! match. Entries live for the cache's lifetime (one sweep), trading memory
//! for the dominant redundant-convergence cost.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::network::Network;

/// Identity of a converged prototype: everything that determines the
/// pre-failure state of a trial.
///
/// Two experiment points that agree on this key (same topology family,
/// scheme, base seed and trial number — differing only in what fails
/// afterwards) are guaranteed the same converged network, so a single
/// snapshot serves them all.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SnapshotKey {
    /// Canonical JSON of the `(TopologySpec, Scheme)` pair. JSON stands in
    /// for `Hash`/`Eq`, which the spec types cannot derive (`f64` fields).
    pub prototype: String,
    /// The experiment's base seed.
    pub base_seed: u64,
    /// The trial index within the experiment.
    pub trial: u32,
}

/// A converged network captured at a quiescent point, forkable once per
/// failure point.
///
/// Obtained from [`Network::snapshot`] or [`NetworkSnapshot::capture`].
/// [`fork`](NetworkSnapshot::fork) hands out an independent simulation that
/// continues bit-identically to the captured original.
#[derive(Clone)]
pub struct NetworkSnapshot {
    prototype: Network,
}

impl NetworkSnapshot {
    /// Captures the complete state of `net`. The snapshot is independent of
    /// the original: either side can keep simulating without affecting the
    /// other.
    pub fn capture(net: &Network) -> NetworkSnapshot {
        NetworkSnapshot {
            prototype: net.clone(),
        }
    }

    /// Forks an independent simulation from the captured state.
    pub fn fork(&self) -> Network {
        self.prototype.clone()
    }

    /// Consumes the snapshot, yielding the captured network without a
    /// clone — the cheap path for a snapshot's final use.
    pub fn into_network(self) -> Network {
        self.prototype
    }
}

/// Counters a [`SnapshotCache`] keeps about its own effectiveness,
/// reported through
/// [`ParallelReport::warm`](crate::experiment::ParallelReport) and the
/// benchmark's `warm.*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmStats {
    /// Snapshots built (cache misses that ran initial convergence).
    pub builds: u64,
    /// Forks handed out (every warm trial takes exactly one).
    pub forks: u64,
    /// Lookups that found an existing snapshot.
    pub hits: u64,
    /// Lookups that had to build (equals `builds`).
    pub misses: u64,
    /// Wall-clock seconds spent building snapshots (topology generation +
    /// initial convergence + capture), summed across workers.
    pub build_wall_secs: f64,
    /// Wall-clock seconds spent forking, summed across workers.
    pub fork_wall_secs: f64,
}

/// Entry state. `snapshot` is `None` while unbuilt, `Some` once the first
/// worker to claim the key finishes converging. Workers fork under the
/// entry lock, so a build is never duplicated — later arrivals block
/// until the prototype exists, then fork it. `remaining`, when set via
/// [`SnapshotCache::expect_forks`], counts forks still owed: the last one
/// *moves* the prototype out instead of cloning it, and the entry is
/// evicted, so a sweep's cache drains as it progresses instead of pinning
/// every converged network until the batch ends.
#[derive(Default)]
struct SlotState {
    snapshot: Option<NetworkSnapshot>,
    remaining: Option<u64>,
}

type Slot = Arc<Mutex<SlotState>>;

/// A concurrent cache of converged prototypes, shared by the workers of a
/// parallel sweep.
///
/// `Network` is `Send` but not `Sync` (the per-node prepend caches are
/// `RefCell`s), so snapshots cannot be shared as `Arc<Network>` across
/// threads; instead each key owns a `Mutex` slot and every fork — a cheap,
/// mostly-refcount clone — happens under that per-key lock. The first
/// worker to reach a key builds the prototype while later arrivals for the
/// same key block, then fork; workers on other keys proceed unhindered.
#[derive(Default)]
pub struct SnapshotCache {
    slots: Mutex<HashMap<SnapshotKey, Slot>>,
    stats: Mutex<WarmStats>,
}

impl SnapshotCache {
    /// An empty cache.
    pub fn new() -> SnapshotCache {
        SnapshotCache::default()
    }

    /// Declares that `count` further [`fork_or_build`](SnapshotCache::fork_or_build)
    /// calls will arrive for `key`. Once the declared demand is consumed,
    /// the final call moves the prototype out instead of cloning it and
    /// the entry is evicted — a batch runner that knows its task list
    /// up front (see `run_all_parallel_timed`) uses this to drain the
    /// cache as the sweep progresses rather than pinning every converged
    /// network until the end. Without a declaration the entry lives for
    /// the cache's lifetime and every request clones.
    pub fn expect_forks(&self, key: SnapshotKey, count: u64) {
        let slot = {
            let mut slots = self.slots.lock().expect("snapshot cache not poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let mut entry = slot.lock().expect("snapshot slot not poisoned");
        entry.remaining = Some(entry.remaining.unwrap_or(0) + count);
    }

    /// Returns a simulation warm-started from the snapshot under `key`,
    /// building the snapshot via `build` if this is the first request for
    /// the key. `build` must return the network *converged* (initial
    /// convergence already run); the cache captures it verbatim.
    pub fn fork_or_build(&self, key: SnapshotKey, build: impl FnOnce() -> Network) -> Network {
        let slot = {
            let mut slots = self.slots.lock().expect("snapshot cache not poisoned");
            Arc::clone(slots.entry(key.clone()).or_default())
        };
        let mut entry = slot.lock().expect("snapshot slot not poisoned");
        if entry.snapshot.is_none() {
            let started = Instant::now();
            let snapshot = NetworkSnapshot::capture(&build());
            let build_secs = started.elapsed().as_secs_f64();
            entry.snapshot = Some(snapshot);
            let mut stats = self.stats.lock().expect("warm stats not poisoned");
            stats.builds += 1;
            stats.misses += 1;
            stats.build_wall_secs += build_secs;
        } else {
            let mut stats = self.stats.lock().expect("warm stats not poisoned");
            stats.hits += 1;
        }
        let started = Instant::now();
        let last = entry.remaining == Some(1);
        let fork = if last {
            // Final declared use: hand the prototype itself over.
            entry.remaining = Some(0);
            entry
                .snapshot
                .take()
                .expect("snapshot built or found above")
                .into_network()
        } else {
            if let Some(remaining) = &mut entry.remaining {
                *remaining = remaining.saturating_sub(1);
            }
            entry
                .snapshot
                .as_ref()
                .expect("snapshot built or found above")
                .fork()
        };
        let fork_secs = started.elapsed().as_secs_f64();
        drop(entry);
        if last {
            self.slots
                .lock()
                .expect("snapshot cache not poisoned")
                .remove(&key);
        }
        {
            let mut stats = self.stats.lock().expect("warm stats not poisoned");
            stats.forks += 1;
            stats.fork_wall_secs += fork_secs;
        }
        fork
    }

    /// A copy of the effectiveness counters accumulated so far.
    pub fn stats(&self) -> WarmStats {
        *self.stats.lock().expect("warm stats not poisoned")
    }

    /// Number of distinct keys with a built or in-flight snapshot.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .expect("snapshot cache not poisoned")
            .len()
    }

    /// Whether the cache holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SimConfig;
    use crate::scheme::Scheme;
    use bgpsim_topology::region::FailureSpec;

    fn converged_net(seed: u64) -> Network {
        use bgpsim_topology::degree::DegreeSpec;
        use bgpsim_topology::generators::topology_from_spec;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let topo = topology_from_spec(
            20,
            &DegreeSpec::Skewed(bgpsim_topology::degree::SkewedSpec::seventy_thirty()),
            &mut rng,
        )
        .expect("topology");
        let cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), seed);
        let mut net = Network::new(topo, cfg);
        net.run_initial_convergence();
        net
    }

    fn key(tag: &str) -> SnapshotKey {
        SnapshotKey {
            prototype: tag.to_string(),
            base_seed: 7,
            trial: 0,
        }
    }

    #[test]
    fn forks_share_allocations_with_the_original() {
        // The arena claim of DESIGN.md §12: forking is a refcount
        // transaction, not a deep copy. Every fork shares the interned
        // node-config allocations and the `Arc<[AsId]>` path storage with
        // the network it was captured from — witnessed by pointer
        // equality, not just value equality.
        let net = converged_net(21);
        let fork = net.snapshot().fork();
        let mut routes = 0usize;
        for r in net.topology().router_ids() {
            let (a, b) = (net.node(r).unwrap(), fork.node(r).unwrap());
            assert!(
                a.shares_config_allocation(b),
                "fork deep-copied the config of {r}"
            );
            for (prefix, sel) in a.loc_rib().iter() {
                let other = b.loc_rib().get(prefix).expect("fork lost a route");
                assert!(
                    sel.path.ptr_eq(&other.path),
                    "fork deep-copied the path for {prefix} at {r}"
                );
                routes += 1;
            }
        }
        assert!(routes > 0, "converged network must hold routes");
    }

    #[test]
    fn fork_continues_bit_identically_to_original() {
        let mut cold = converged_net(11);
        let snapshot = cold.snapshot();
        let failure = FailureSpec::CenterFraction(0.1);

        cold.inject_failure(&failure);
        let cold_stats = cold.run_to_quiescence();

        let mut warm = snapshot.fork();
        warm.inject_failure(&failure);
        let warm_stats = warm.run_to_quiescence();

        assert_eq!(cold_stats, warm_stats);
    }

    #[test]
    fn forks_carry_memory_traces_and_drop_jsonl_sinks() {
        use crate::trace::{to_jsonl, TraceSink};

        // Memory sinks: each fork owns the buffered prefix and two forks
        // of one traced prototype record identical continuations.
        let mut traced = converged_net(16);
        traced.set_trace_sink(TraceSink::memory(1 << 20));
        let snapshot = traced.snapshot();
        let run = || {
            let mut n = snapshot.fork();
            n.inject_failure(&FailureSpec::CenterFraction(0.1));
            n.run_to_quiescence();
            to_jsonl(&n.take_trace_events())
        };
        let (a, b) = (run(), run());
        assert!(!a.is_empty());
        assert_eq!(a, b, "memory-traced forks must trace identically");

        // JSONL sinks: the fork degrades to Off (a byte stream must not be
        // written by two networks), node flags re-sync on the next run,
        // and the untraced fork still converges identically to a cold run.
        let mut streamed = converged_net(16);
        streamed.set_trace_sink(TraceSink::jsonl(Box::new(std::io::sink())));
        let fork_snapshot = streamed.snapshot();
        let mut fork = fork_snapshot.fork();
        assert!(fork.trace_sink().is_off(), "JSONL sink must not be cloned");
        fork.inject_failure(&FailureSpec::CenterFraction(0.1));
        let forked_stats = fork.run_to_quiescence();
        assert!(fork.take_trace_events().is_empty());

        let mut cold = converged_net(16);
        cold.inject_failure(&FailureSpec::CenterFraction(0.1));
        assert_eq!(forked_stats, cold.run_to_quiescence());
    }

    #[test]
    fn one_snapshot_serves_many_forks() {
        let snapshot = NetworkSnapshot::capture(&converged_net(12));
        let a = {
            let mut n = snapshot.fork();
            n.inject_failure(&FailureSpec::CenterFraction(0.05));
            n.run_to_quiescence()
        };
        let b = {
            let mut n = snapshot.fork();
            n.inject_failure(&FailureSpec::CenterFraction(0.2));
            n.run_to_quiescence()
        };
        assert!(a.failed_routers < b.failed_routers);
    }

    #[test]
    fn declared_demand_drains_the_cache_and_stays_identical() {
        let cache = SnapshotCache::new();
        let k = key("a");
        cache.expect_forks(k.clone(), 3);
        let mut builds = 0u32;
        let runs: Vec<_> = (0..3)
            .map(|_| {
                let mut n = cache.fork_or_build(k.clone(), || {
                    builds += 1;
                    converged_net(15)
                });
                n.inject_failure(&FailureSpec::CenterFraction(0.1));
                n.run_to_quiescence()
            })
            .collect();
        assert_eq!(builds, 1);
        assert!(cache.is_empty(), "last declared fork evicts the entry");
        // The moved-out final prototype behaves exactly like the clones.
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        // An undeclared extra request rebuilds rather than failing.
        let _ = cache.fork_or_build(k, || {
            builds += 1;
            converged_net(15)
        });
        assert_eq!(builds, 2);
    }

    #[test]
    fn cache_builds_once_per_key_and_counts() {
        let cache = SnapshotCache::new();
        let mut builds = 0u32;
        for _ in 0..3 {
            let _ = cache.fork_or_build(key("a"), || {
                builds += 1;
                converged_net(13)
            });
        }
        let _ = cache.fork_or_build(key("b"), || {
            builds += 1;
            converged_net(14)
        });
        assert_eq!(builds, 2);
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.forks, 4);
        assert!(stats.build_wall_secs > 0.0);
    }
}
