//! The output check: every `RunStats` field plus a per-router Loc-RIB
//! digest, compared against a reference.
//!
//! References come from `reference.json` (pinned for the default seed and
//! a held-out seed), from the serial run of the same inputs (the sharded
//! workload: serial ≡ sharded on every run), or else from the run's first
//! trial, so a count that fails to repeat exactly is a failure.

use bgpsim::{Network, RunStats};
use serde::{Deserialize, Serialize};

/// What one simulated network produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// The run's post-failure statistics.
    pub stats: RunStats,
    /// [`loc_rib_digest`] of the final state.
    pub digest: u64,
}

/// FNV-1a over every byte fed in: stable across platforms and Rust
/// versions, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of every router's Loc-RIB in router and prefix order, over all
/// `Selected` fields; dead routers leave a marker so positions stay aligned.
pub fn loc_rib_digest(net: &Network) -> u64 {
    use bgpsim_bgp::rib::NextHop;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in net.topology().router_ids() {
        let Some(node) = net.node(r) else {
            h.write_u64(u64::MAX);
            continue;
        };
        h.write_u64(r.index() as u64);
        for (prefix, sel) in node.loc_rib().iter() {
            h.write_u64(prefix.index() as u64);
            for hop in sel.path.hops() {
                h.write_u64(hop.index() as u64);
            }
            h.write_u64(match sel.next_hop {
                NextHop::Local => u64::MAX - 1,
                NextHop::Peer(p) => p.index() as u64,
            });
            h.write_u64(u64::from(sel.via_ibgp) << 8 | u64::from(sel.rank));
        }
    }
    h.0
}

/// Compares a trial's outcomes with the reference, naming the first
/// point that differs.
pub fn compare(got: &[Outcome], reference: &[Outcome]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "{} outcomes, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (g, r)) in got.iter().zip(reference).enumerate() {
        if g != r {
            return Err(format!("point {i}: got {g:?}, reference {r:?}"));
        }
    }
    Ok(())
}

/// The pinned reference for `workload` at `seed`, if `reference.json`
/// holds one.
pub fn pinned(workload: &str, seed: u64) -> Option<Vec<Outcome>> {
    let all: serde_json::Value = serde_json::from_str(include_str!("../reference.json"))
        .expect("reference.json is valid JSON");
    let entry = all.get(workload)?.get(&seed.to_string())?;
    Some(serde_json::from_value(entry).expect("reference.json entries are outcome lists"))
}
