//! Deterministic, seeded fault injection for the execution stack.
//!
//! Production resilience claims are only as good as the failure paths that
//! were actually exercised. A [`FaultPlan`] is an engine-owned chaos harness:
//! it names the *sites* where the runtime is allowed to fail
//! ([`FaultSite`]) and decides — deterministically, from a seed — whether
//! the n-th visit to a site injects a failure. The decision for the n-th
//! draw at a site depends only on `(seed, site, n)`, never on wall-clock
//! time or thread interleaving, so a fault schedule is reproducible: the
//! same seed injects the same decisions per site-visit index on every run.
//!
//! What an injected fault *means* is up to the site:
//!
//! * [`FaultSite::SpillWrite`] / [`FaultSite::SpillRead`] — the spill tier
//!   returns an `io::Error` instead of touching the file (transient: a
//!   retry draws a fresh decision),
//! * [`FaultSite::Alloc`] — the scheduler's budget reservation fails
//!   (surfaced as a typed budget-exhaustion error),
//! * [`FaultSite::TaskExec`] — a task reports failure without running,
//! * [`FaultSite::TaskPanic`] — a task panics mid-execution, exercising the
//!   scheduler's panic-isolation path end to end,
//! * [`FaultSite::ShardExec`] — one shard of a sharded fused operator panics
//!   mid-kernel, exercising cross-shard cancellation and the rule that a
//!   shard failure fails only its own request.
//!
//! A plan can be *disarmed* at runtime ([`FaultPlan::disarm`]): the chaos
//! property tests inject faults, observe a clean typed error, disarm, and
//! then require a fault-free re-execute on the same engine to be
//! bitwise-correct.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A place in the runtime where a [`FaultPlan`] may inject a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Serializing a value out to the spill tier.
    SpillWrite,
    /// Reading a spilled value back from disk.
    SpillRead,
    /// The scheduler's pre-dispatch budget reservation / pool allocation.
    Alloc,
    /// Task execution (fails cleanly, without running the kernel).
    TaskExec,
    /// Task execution (panics mid-kernel, exercising panic isolation).
    TaskPanic,
    /// A sharded operator's kernel panics mid-run (band 0 of a sharded fused
    /// operator), exercising the cancellation of its sibling bands.
    ShardExec,
}

/// All injectable sites, in counter order.
pub const FAULT_SITES: [FaultSite; 6] = [
    FaultSite::SpillWrite,
    FaultSite::SpillRead,
    FaultSite::Alloc,
    FaultSite::TaskExec,
    FaultSite::TaskPanic,
    FaultSite::ShardExec,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::SpillWrite => 0,
            FaultSite::SpillRead => 1,
            FaultSite::Alloc => 2,
            FaultSite::TaskExec => 3,
            FaultSite::TaskPanic => 4,
            FaultSite::ShardExec => 5,
        }
    }
}

const N_SITES: usize = FAULT_SITES.len();

/// A deterministic, seeded fault schedule shared by every component of one
/// engine. Construct with [`FaultPlan::seeded`], give each site a rate with
/// [`FaultPlan::rate`], optionally cap the total injections with
/// [`FaultPlan::max_faults`], and hand it to
/// `EngineBuilder::fault_plan`.
///
/// All methods take `&self`; the plan is shared behind an `Arc` between the
/// engine, its spill tier, and the test that wants to [`disarm`] it or read
/// the injection counters.
///
/// [`disarm`]: FaultPlan::disarm
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; N_SITES],
    max_faults: u64,
    armed: AtomicBool,
    draws: [AtomicU64; N_SITES],
    injected: [AtomicU64; N_SITES],
    budget_used: AtomicU64,
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero (injects nothing until
    /// sites are given rates).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0.0; N_SITES],
            max_faults: u64::MAX,
            armed: AtomicBool::new(true),
            draws: Default::default(),
            injected: Default::default(),
            budget_used: AtomicU64::new(0),
        }
    }

    /// Sets the injection probability of one site (clamped to `[0, 1]`).
    /// `1.0` makes every visit to the site fail while the plan is armed.
    pub fn rate(mut self, site: FaultSite, p: f64) -> Self {
        self.rates[site.index()] = p.clamp(0.0, 1.0);
        self
    }

    /// Caps the total number of injections across all sites — e.g.
    /// `rate(TaskPanic, 1.0).max_faults(1)` fails exactly the first task
    /// that executes and nothing after it.
    pub fn max_faults(mut self, n: u64) -> Self {
        self.max_faults = n;
        self
    }

    /// Stops all injection (draw counters keep advancing, so decisions stay
    /// aligned if the plan is re-armed).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Re-enables injection after [`FaultPlan::disarm`].
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Whether the plan currently injects faults.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// The n-th visit to `site` asks: should it fail? Deterministic in
    /// `(seed, site, n)`; respects [`FaultPlan::disarm`] and the
    /// [`FaultPlan::max_faults`] budget.
    pub fn should_inject(&self, site: FaultSite) -> bool {
        let i = site.index();
        let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
        let rate = self.rates[i];
        if rate <= 0.0 || !self.is_armed() {
            return false;
        }
        // One splitmix64 step over (seed, site, draw index) → uniform in
        // [0, 1). Pure function of the inputs: the schedule is reproducible.
        let h = splitmix64(
            self.seed
                ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ n.wrapping_mul(0xff51_afd7_ed55_8ccd),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= rate {
            return false;
        }
        // Charge the global budget last, so rate misses never consume it.
        if self.budget_used.fetch_add(1, Ordering::Relaxed) >= self.max_faults {
            return false;
        }
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Faults injected at one site so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The plan's seed (identifies the schedule in failure reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_draw_index() {
        let a = FaultPlan::seeded(42).rate(FaultSite::TaskExec, 0.5);
        let b = FaultPlan::seeded(42).rate(FaultSite::TaskExec, 0.5);
        let da: Vec<bool> = (0..256).map(|_| a.should_inject(FaultSite::TaskExec)).collect();
        let db: Vec<bool> = (0..256).map(|_| b.should_inject(FaultSite::TaskExec)).collect();
        assert_eq!(da, db, "same seed, same site ⇒ same schedule");
        assert!(da.iter().any(|&x| x) && da.iter().any(|&x| !x), "rate 0.5 mixes outcomes");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::seeded(1).rate(FaultSite::SpillWrite, 0.5);
        let b = FaultPlan::seeded(2).rate(FaultSite::SpillWrite, 0.5);
        let da: Vec<bool> = (0..256).map(|_| a.should_inject(FaultSite::SpillWrite)).collect();
        let db: Vec<bool> = (0..256).map(|_| b.should_inject(FaultSite::SpillWrite)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn max_faults_caps_total_injections() {
        let p = FaultPlan::seeded(7).rate(FaultSite::TaskPanic, 1.0).max_faults(1);
        let fired: usize = (0..64).filter(|_| p.should_inject(FaultSite::TaskPanic)).count();
        assert_eq!(fired, 1, "budget of one fault");
        assert_eq!(p.total_injected(), 1);
        assert_eq!(p.injected(FaultSite::TaskPanic), 1);
    }

    #[test]
    fn disarm_stops_injection() {
        let p = FaultPlan::seeded(9).rate(FaultSite::SpillRead, 1.0);
        assert!(p.should_inject(FaultSite::SpillRead));
        p.disarm();
        assert!(!p.should_inject(FaultSite::SpillRead));
        assert!(!p.is_armed());
        p.arm();
        assert!(p.should_inject(FaultSite::SpillRead));
        assert_eq!(p.total_injected(), 2);
    }

    #[test]
    fn unconfigured_sites_never_inject() {
        let p = FaultPlan::seeded(3).rate(FaultSite::TaskExec, 1.0);
        assert!(!p.should_inject(FaultSite::SpillWrite));
        assert!(!p.should_inject(FaultSite::Alloc));
    }
}
