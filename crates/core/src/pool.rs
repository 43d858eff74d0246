//! The process-wide simulation worker pool.
//!
//! The sharded event loop (DESIGN.md §13) opens one pool scope per pump
//! and fans each epoch's per-shard work out as jobs; `Experiment`'s
//! parallel trial runner may have many pumps in flight at once, all
//! sharing this single pool. Keeping the threads parked for the life of
//! the process — instead of the per-pump `crossbeam::thread::scope` spawn
//! and the per-epoch `mpsc` round trip PR 6 used — makes a small epoch
//! cost one condvar wake instead of a channel hop.
//!
//! This module is policy only (sizing and sharing); the mechanism — the
//! parked threads, the scoped-borrow safety argument, the helping barrier
//! — lives in [`crossbeam::pool`], keeping this crate `forbid(unsafe_code)`.

use std::sync::OnceLock;

pub use crossbeam::pool::{Scope, WorkerPool};

/// The shared pool, sized to the machine's available parallelism and
/// created on first use. Worker threads are detached and parked when idle,
/// so an unused pool costs nothing after startup.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        WorkerPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn global_pool_is_shared_and_reusable() {
        let pool = super::global();
        assert!(pool.threads() >= 1);
        assert!(std::ptr::eq(pool, super::global()), "one pool per process");
        let done = AtomicUsize::new(0);
        // Two back-to-back scopes on the shared pool, as two sequential
        // pumps would open.
        for _ in 0..2 {
            pool.scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(done.into_inner(), 6);
    }
}
