//! Cross-representation equivalence goldens: the compact delta-encoded
//! RIBs must be observably identical to the dense representation they
//! replaced (DESIGN.md §12).
//!
//! The engine runs on the compact RIBs only; the dense Adj-RIB-In/Out
//! survive in `bgpsim-bgp`'s test builds as the reference. Equivalence is
//! pinned in three layers:
//!
//! 1. Data-structure proptests in `crates/bgp/src/rib.rs` drive the dense
//!    and compact structures through identical operation histories and
//!    compare every observable (including serialization bytes).
//! 2. `bgpsim-bgp`'s own test build carries a dense shadow Adj-RIB-Out
//!    per peer session, asserted against the delta encoding at each
//!    flush.
//! 3. This file pins the *end-to-end* observables of a full failure
//!    experiment — every `RunStats` field and an order-sensitive digest
//!    of every router's final Loc-RIB — as constants. They were captured
//!    when both engines existed and reproduced them from the same
//!    topology, scheme and seed ("field-identical RunStats and final
//!    Loc-RIBs"), so any drift from what the dense engine produced fails
//!    here.
//!
//! If a change legitimately alters the simulation, re-baseline the
//! constants and say why in the change record.

use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a, folded over every byte fed in. Stable across platforms and
/// Rust versions, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Digest of every surviving router's Loc-RIB, in router order, prefix
/// order, covering all `Selected` fields. Any difference in any route
/// anywhere changes the digest.
fn loc_rib_digest(net: &Network) -> u64 {
    use bgpsim_bgp::rib::NextHop;
    let mut h = Fnv::new();
    for r in net.topology().router_ids() {
        let Some(node) = net.node(r) else {
            h.write_u64(u64::MAX); // dead-router marker keeps alignment
            continue;
        };
        h.write_u64(r.index() as u64);
        for (prefix, sel) in node.loc_rib().iter() {
            h.write_u64(prefix.index() as u64);
            for hop in sel.path.hops() {
                h.write_u64(hop.index() as u64);
            }
            match sel.next_hop {
                NextHop::Local => h.write_u64(u64::MAX - 1),
                NextHop::Peer(p) => h.write_u64(p.index() as u64),
            }
            h.write(&[u8::from(sel.via_ibgp), sel.rank]);
        }
    }
    h.0
}

fn run(scheme: &Scheme) -> (bgpsim::RunStats, u64) {
    let mut rng = SmallRng::seed_from_u64(4242);
    let topo = skewed_topology(40, &SkewedSpec::seventy_thirty(), &mut rng).unwrap();
    let mut net = Network::new(topo, SimConfig::from_scheme(scheme, 777));
    let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.10));
    net.assert_routing_consistent();
    (stats, loc_rib_digest(&net))
}

#[test]
fn dense_and_compact_engines_agree_on_stats_and_loc_ribs() {
    // (scheme, messages, announcements, withdrawals, digest) — captured
    // when the compact and the dense engines both reproduced them.
    let goldens = [
        (
            Scheme::constant_mrai(0.5),
            6698u64,
            4965u64,
            1733u64,
            0x78f8_3894_f2e4_8f3c_u64,
        ),
        (
            Scheme::batching(0.5),
            6601,
            4820,
            1781,
            0x78f8_3894_f2e4_8f3c,
        ),
    ];
    let mut failures = Vec::new();
    for (scheme, messages, announcements, withdrawals, digest) in goldens {
        let (stats, d) = run(&scheme);
        if (stats.messages, stats.announcements, stats.withdrawals, d)
            != (messages, announcements, withdrawals, digest)
        {
            failures.push(format!(
                "{}: expected msgs/ann/wd/digest {messages}/{announcements}/{withdrawals}/{digest:#x}, \
                 got {}/{}/{}/{:#x}",
                scheme.name, stats.messages, stats.announcements, stats.withdrawals, d
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "the engine disagrees with the pinned observables — if the change \
         to the simulation is intentional, re-baseline the constants:\n{}",
        failures.join("\n")
    );
}

/// The digest itself must be run-to-run stable (guards the digest, not
/// the engine).
#[test]
fn loc_rib_digest_is_deterministic() {
    let (_, a) = run(&Scheme::constant_mrai(0.5));
    let (_, b) = run(&Scheme::constant_mrai(0.5));
    assert_eq!(a, b);
}
