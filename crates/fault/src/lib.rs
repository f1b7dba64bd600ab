#![warn(missing_docs)]

//! Deterministic, seed-driven fault injection for the tnt simulation.
//!
//! Every modelled device in the reproduction is perfect by default: the
//! disk never errors, the wire never drops a frame, and the NFS recovery
//! machinery (retransmission, the duplicate-request cache) runs only on
//! the happy path. This crate supplies the *fault plane*: a
//! [`FaultProfile`] of per-event probabilities and a per-simulation
//! [`FaultPlan`] that rolls them from its own seeded RNG stream.
//!
//! # Determinism guarantee
//!
//! A [`FaultPlan`] draws from a private xoshiro256** stream seeded from
//! the simulation seed (salted so it never collides with the engine's
//! jitter stream). Because the engine is baton-passing — exactly one
//! simulated process runs at a time — fault rolls occur in a fixed order
//! for a fixed seed, so two runs with the same seed and profile inject
//! *identical* fault sequences, byte for byte, regardless of `--jobs`.
//!
//! When a probability is zero its roll consumes **no** randomness and
//! takes no lock, so a run with [`FaultProfile::off`] is bit-identical to
//! a build without the fault plane at all.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt XORed into the simulation seed so the fault stream never aliases
/// the engine's jitter stream (which is seeded from the raw seed).
const FAULT_STREAM_SALT: u64 = 0x5EED_FA17_1A7E_57A1;

/// Per-event fault probabilities, all in `[0, 1]`.
///
/// A probability of exactly zero disables that fault class with no RNG
/// cost. Profiles are plain values: copy them around, tweak fields for
/// ablation sweeps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Per disk command: transient failure (the driver retries; the
    /// caller sees `EIO` only if every retry also faults).
    pub disk_transient: f64,
    /// Per disk command: sector remap — the command succeeds but pays a
    /// latency spike (extra arm travel plus a lost revolution).
    pub disk_remap: f64,
    /// Per cross-host frame: dropped on the wire (after consuming wire
    /// time, like a collision-mangled Ethernet frame).
    pub net_drop: f64,
    /// Per cross-host frame: delivered twice.
    pub net_dup: f64,
    /// Per cross-host frame: delivered late by one maximum-frame wire
    /// time (the queue-behind-a-burst reordering proxy).
    pub net_delay: f64,
    /// Per RPC request: dropped at the server before processing (socket
    /// buffer overflow on a busy nfsd).
    pub rpc_request_drop: f64,
    /// Per RPC reply: executed and cached but never sent — the case the
    /// duplicate-request cache exists for.
    pub rpc_reply_drop: f64,
}

impl FaultProfile {
    /// No faults. Rolls consume no randomness; behaviour is bit-identical
    /// to a simulation without the fault plane.
    pub const fn off() -> FaultProfile {
        FaultProfile {
            disk_transient: 0.0,
            disk_remap: 0.0,
            net_drop: 0.0,
            net_dup: 0.0,
            net_delay: 0.0,
            rpc_request_drop: 0.0,
            rpc_reply_drop: 0.0,
        }
    }

    /// Light faults for CI: rare enough that every workload still
    /// completes, frequent enough that recovery paths execute.
    pub const fn smoke() -> FaultProfile {
        FaultProfile {
            disk_transient: 0.002,
            disk_remap: 0.004,
            net_drop: 0.005,
            net_dup: 0.002,
            net_delay: 0.002,
            rpc_request_drop: 0.002,
            rpc_reply_drop: 0.002,
        }
    }

    /// Heavy faults: a genuinely bad LAN and an ageing disk. Workloads
    /// still terminate (retry bounds see to that) but degrade visibly.
    pub const fn lossy() -> FaultProfile {
        FaultProfile {
            disk_transient: 0.01,
            disk_remap: 0.01,
            net_drop: 0.05,
            net_dup: 0.02,
            net_delay: 0.02,
            rpc_request_drop: 0.02,
            rpc_reply_drop: 0.02,
        }
    }

    /// Parses a profile name as accepted by `reproduce --faults`.
    pub fn parse(name: &str) -> Option<FaultProfile> {
        match name {
            "off" => Some(FaultProfile::off()),
            "smoke" => Some(FaultProfile::smoke()),
            "lossy" => Some(FaultProfile::lossy()),
            _ => None,
        }
    }

    /// The preset's name as accepted by [`FaultProfile::parse`], or
    /// `"custom"` for a hand-built profile.
    pub fn name(&self) -> &'static str {
        if *self == FaultProfile::off() {
            "off"
        } else if *self == FaultProfile::smoke() {
            "smoke"
        } else if *self == FaultProfile::lossy() {
            "lossy"
        } else {
            "custom"
        }
    }

    /// True when every probability is zero (the default).
    pub fn is_off(&self) -> bool {
        let FaultProfile {
            disk_transient,
            disk_remap,
            net_drop,
            net_dup,
            net_delay,
            rpc_request_drop,
            rpc_reply_drop,
        } = *self;
        disk_transient <= 0.0
            && disk_remap <= 0.0
            && net_drop <= 0.0
            && net_dup <= 0.0
            && net_delay <= 0.0
            && rpc_request_drop <= 0.0
            && rpc_reply_drop <= 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile::off()
    }
}

/// Counts of faults actually injected, for tests and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient disk command failures injected.
    pub disk_transients: u64,
    /// Sector-remap latency spikes injected.
    pub disk_remaps: u64,
    /// Frames dropped by the fault plane (beyond any modelled loss rate).
    pub net_drops: u64,
    /// Frames duplicated.
    pub net_dups: u64,
    /// Frames delayed.
    pub net_delays: u64,
    /// RPC requests dropped at the server.
    pub rpc_request_drops: u64,
    /// RPC replies executed but never sent.
    pub rpc_reply_drops: u64,
}

/// One simulation's fault state: the profile plus a private seeded RNG.
///
/// Roll methods are cheap (`p == 0.0` short-circuits without locking) and
/// deterministic under the baton-passing engine — see the crate docs.
pub struct FaultPlan {
    profile: FaultProfile,
    rng: Mutex<StdRng>,
    stats: Mutex<FaultStats>,
}

impl FaultPlan {
    /// Builds the plan for a simulation booted with `seed`.
    pub fn new(profile: FaultProfile, seed: u64) -> FaultPlan {
        FaultPlan {
            profile,
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ FAULT_STREAM_SALT)),
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// The profile this plan injects.
    pub fn profile(&self) -> FaultProfile {
        self.profile
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock()
    }

    /// One Bernoulli roll. Zero probability consumes no randomness so an
    /// `off` profile leaves the simulation bit-identical.
    fn roll(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let r: f64 = self.rng.lock().gen_range(0.0..1.0);
        r < p
    }

    /// Should this disk command fail transiently?
    pub fn disk_transient(&self) -> bool {
        let hit = self.roll(self.profile.disk_transient);
        if hit {
            self.stats.lock().disk_transients += 1;
        }
        hit
    }

    /// Should this disk command pay a sector-remap latency spike?
    pub fn disk_remap(&self) -> bool {
        let hit = self.roll(self.profile.disk_remap);
        if hit {
            self.stats.lock().disk_remaps += 1;
        }
        hit
    }

    /// Should this frame be dropped?
    pub fn net_drop(&self) -> bool {
        let hit = self.roll(self.profile.net_drop);
        if hit {
            self.stats.lock().net_drops += 1;
        }
        hit
    }

    /// Should this frame be duplicated?
    pub fn net_dup(&self) -> bool {
        let hit = self.roll(self.profile.net_dup);
        if hit {
            self.stats.lock().net_dups += 1;
        }
        hit
    }

    /// Should this frame arrive late?
    pub fn net_delay(&self) -> bool {
        let hit = self.roll(self.profile.net_delay);
        if hit {
            self.stats.lock().net_delays += 1;
        }
        hit
    }

    /// Should the server drop this RPC request unprocessed?
    pub fn rpc_request_drop(&self) -> bool {
        let hit = self.roll(self.profile.rpc_request_drop);
        if hit {
            self.stats.lock().rpc_request_drops += 1;
        }
        hit
    }

    /// Should the server swallow this RPC reply after executing it?
    pub fn rpc_reply_drop(&self) -> bool {
        let hit = self.roll(self.profile.rpc_reply_drop);
        if hit {
            self.stats.lock().rpc_reply_drops += 1;
        }
        hit
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("profile", &self.profile)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_off_is_off() {
        assert!(FaultProfile::parse("off").unwrap().is_off());
        assert!(!FaultProfile::parse("smoke").unwrap().is_off());
        assert!(!FaultProfile::parse("lossy").unwrap().is_off());
        assert_eq!(FaultProfile::parse("bogus"), None);
        assert!(FaultProfile::default().is_off());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let a = FaultPlan::new(FaultProfile::lossy(), 42);
        let b = FaultPlan::new(FaultProfile::lossy(), 42);
        let sa: Vec<bool> = (0..256).map(|_| a.net_drop()).collect();
        let sb: Vec<bool> = (0..256).map(|_| b.net_drop()).collect();
        assert_eq!(sa, sb);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().net_drops > 0, "5% of 256 rolls should hit");
    }

    #[test]
    fn off_profile_never_fires_and_never_draws() {
        let p = FaultPlan::new(FaultProfile::off(), 7);
        for _ in 0..64 {
            assert!(!p.disk_transient());
            assert!(!p.net_drop());
            assert!(!p.rpc_reply_drop());
        }
        assert_eq!(p.stats(), FaultStats::default());
        // The RNG was never advanced: a fresh plan with the same seed and
        // a live probability draws the same first value either way.
        let live = FaultPlan::new(FaultProfile::lossy(), 7);
        let first = live.net_drop();
        let reference = FaultPlan::new(FaultProfile::lossy(), 7);
        assert_eq!(first, reference.net_drop());
    }

    #[test]
    fn distinct_fault_classes_share_one_stream() {
        // Interleaving rolls across classes still replays identically.
        let a = FaultPlan::new(FaultProfile::smoke(), 9);
        let b = FaultPlan::new(FaultProfile::smoke(), 9);
        for _ in 0..128 {
            assert_eq!(a.disk_transient(), b.disk_transient());
            assert_eq!(a.net_dup(), b.net_dup());
            assert_eq!(a.rpc_request_drop(), b.rpc_request_drop());
        }
    }
}
