//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it; every
//! span of one trial carries that trial's id. Spans stay in memory and are
//! written out when the run ends. A span's self time is its duration minus
//! the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One recorded interval. Times are nanoseconds since the recorder was
/// created.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Unique within the trial.
    pub id: u64,
    /// The enclosing span, `None` for the trial's root.
    pub parent: Option<u64>,
    /// Shared by every span of one trial.
    pub trial: u64,
    /// The layer call this span wraps, e.g. `network.run_to_quiescence`.
    pub name: String,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

/// A thread-safe span recorder for one trial.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    trial: u64,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    /// An empty recorder whose spans all carry `trial`.
    pub fn new(trial: u64) -> Spans {
        Spans {
            origin: Instant::now(),
            trial,
            next_id: AtomicU64::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    /// The recorded spans, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.done.into_inner().expect("no span recorder panicked")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs `f`, returning its result and its wall-clock seconds. When
/// `spans` is given, also records a span `name` under `parent`; `f`
/// receives the new span's id so that its own calls can nest under it.
pub fn timed<T>(
    spans: Option<&Spans>,
    parent: Option<u64>,
    name: &str,
    f: impl FnOnce(Option<u64>) -> T,
) -> (T, f64) {
    let Some(rec) = spans else {
        let started = Instant::now();
        let out = f(None);
        return (out, started.elapsed().as_secs_f64());
    };
    // Relaxed: the id is a unique label, it publishes no other data.
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = rec.now_ns();
    let out = f(Some(id));
    let end_ns = rec.now_ns();
    rec.done
        .lock()
        .expect("no span recorder panicked")
        .push(Span {
            id,
            parent,
            trial: rec.trial,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    (out, (end_ns - start_ns) as f64 / 1e9)
}

/// Checks that every span lies within its parent and that parents exist.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            return Err(format!("span {} ({}) has no parent {pid}", s.id, s.name));
        };
        if s.trial != p.trial || s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) [{}, {}] lies outside parent {} ({}) [{}, {}]",
                s.id, s.name, s.start_ns, s.end_ns, p.id, p.name, p.start_ns, p.end_ns
            ));
        }
    }
    Ok(())
}

/// Self time per span, in seconds: duration minus the union of the
/// intervals its children cover (children on parallel threads overlap).
pub fn self_seconds(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e9)
        })
        .collect()
}

/// Total and self seconds per span name — the per-layer summary written
/// beside the spans.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let selfs = self_seconds(spans);
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns) as f64 / 1e9;
        e.2 += selfs[&s.id];
    }
    out
}
