//! CloudMirror VM placement (§4.4–§4.5, Algorithm 1).
//!
//! [`CmPlacer`] deploys a TAG onto a tree topology. The algorithm:
//!
//! 1. `FindLowestSubtree` — find the lowest subtree likely to fit the whole
//!    tenant (enough free slots; enough root-path bandwidth for the tenant's
//!    external traffic).
//! 2. `Alloc` — recursively distribute VMs over the subtree's children:
//!    * `Colocate` groups tiers whose colocation *provably* saves bandwidth
//!      (verified with the exact Eq. 4 / cut-difference check, gated by the
//!      Eq. 2/6 size conditions);
//!    * `Balance` packs the remaining VMs with a 3-dimensional
//!      (slots, out-bw, in-bw) greedy subset-sum so that slot and bandwidth
//!      utilization of each child approach 100% together (the paper's
//!      `MdSubsetSum`, extending Przydatek's greedy 1-D heuristic).
//! 3. On failure, everything is rolled back and the search moves one level
//!    up, until the root fails and the tenant is rejected.
//!
//! High availability (§4.5) comes in two flavours:
//! * [`HaPolicy::Guaranteed`] enforces Eq. 7 — no more than
//!   [`wcs_cap`](crate::placement::wcs_cap)`(N, RWCS) =
//!   max(1, ⌊N·(1−RWCS)⌋)` VMs of a tier under any single fault domain
//!   (subtree at level `laa_level`, clamped to the root);
//! * [`HaPolicy::Opportunistic`] spreads VMs whenever bandwidth saving is
//!   not *desirable* (available bandwidth per free slot exceeds the expected
//!   per-VM demand, EWMA-predicted from past arrivals), improving WCS for
//!   free while preserving all bandwidth guarantees.

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod cm;
mod engine;
mod predictor;

pub use cm::{CmPlacer, LevelCounters, SearchCounters};
pub use engine::{
    place_incremental_replace, reject_reason, search_and_place, Deployed, Evacuation, Placer,
};
pub use predictor::DemandPredictor;

/// High-availability policy for the placer (§4.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HaPolicy {
    /// No HA consideration: pure bandwidth-efficiency placement (the
    /// paper's "CM").
    None,
    /// Guarantee worst-case survivability: at most
    /// [`wcs_cap`]`(N^t, rwcs)` VMs of tier `t` under any subtree at
    /// `laa_level` (Eq. 7). The paper's "CM+HA"; [`CmConfig::cm_ha`] sets
    /// the server level (0). A level at or above the root makes the whole
    /// tree one fault domain.
    Guaranteed {
        /// Required worst-case survivability in `[0, 1)`.
        rwcs: f64,
        /// Anti-affinity level `L_AA` (0 = server).
        laa_level: u8,
    },
    /// Opportunistically spread VMs when bandwidth saving is not desirable
    /// (the paper's "CM+oppHA"). It promises no survivability, so it has no
    /// fault-domain level.
    Opportunistic,
}

/// Configuration of the CloudMirror placer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmConfig {
    /// Enable the `Colocate` subroutine (disable for the Fig. 10
    /// "Balance-only" ablation).
    pub colocate: bool,
    /// Enable the `Balance` subroutine (disable for the Fig. 10
    /// "Coloc-only" ablation; a plain first-fit fills the gap, as the paper
    /// leaves the non-saving remainder unspecified in that mode).
    pub balance: bool,
    /// High-availability policy.
    pub ha: HaPolicy,
}

impl Default for CmConfig {
    fn default() -> Self {
        CmConfig {
            colocate: true,
            balance: true,
            ha: HaPolicy::None,
        }
    }
}

impl CmConfig {
    /// The paper's default CM (no HA).
    pub fn cm() -> Self {
        Self::default()
    }

    /// The paper's CM+HA at the server level.
    pub fn cm_ha(rwcs: f64) -> Self {
        CmConfig {
            ha: HaPolicy::Guaranteed { rwcs, laa_level: 0 },
            ..Self::default()
        }
    }

    /// The paper's CM+oppHA.
    pub fn cm_opp_ha() -> Self {
        CmConfig {
            ha: HaPolicy::Opportunistic,
            ..Self::default()
        }
    }

    /// Fig. 10 ablation: colocation only.
    pub fn coloc_only() -> Self {
        CmConfig {
            balance: false,
            ..Self::default()
        }
    }

    /// Fig. 10 ablation: balance only.
    pub fn balance_only() -> Self {
        CmConfig {
            colocate: false,
            ..Self::default()
        }
    }

    /// Canonical display label for this configuration, mirroring the
    /// paper's algorithm names (used by [`CmPlacer::new`] and the
    /// experiment drivers).
    pub fn label(&self) -> &'static str {
        match (self.colocate, self.balance, self.ha) {
            (true, true, HaPolicy::None) => "CM",
            (_, _, HaPolicy::Guaranteed { .. }) => "CM+HA",
            (_, _, HaPolicy::Opportunistic) => "CM+oppHA",
            (true, false, _) => "Coloc",
            (false, true, _) => "Balance",
            (false, false, _) => "FirstFit",
        }
    }
}

/// Why a tenant was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Not enough free VM slots anywhere (Table 1 stops at the first such
    /// rejection).
    InsufficientSlots,
    /// Slots existed but no placement satisfied the bandwidth guarantees.
    InsufficientBandwidth,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::InsufficientSlots => write!(f, "insufficient VM slots"),
            RejectReason::InsufficientBandwidth => write!(f, "insufficient bandwidth"),
        }
    }
}

impl std::error::Error for RejectReason {}

pub(crate) fn need_is_zero(need: &[u32]) -> bool {
    need.iter().all(|&c| c == 0)
}

pub(crate) fn need_total(need: &[u32]) -> u64 {
    need.iter().map(|&c| c as u64).sum()
}

/// Restore `need` after a rolled-back placement map.
pub(crate) fn restore_need(
    map: impl IntoIterator<Item = crate::reserve::PlacementEntry>,
    need: &mut [u32],
) {
    for e in map {
        need[e.tier] += e.count;
    }
}

/// Average available bandwidth per kbps-slot comparison value used by the
/// opportunistic-HA desirability test (§4.5).
pub(crate) fn per_slot_avail_kbps(
    topo: &cm_topology::Topology,
    nodes: impl Iterator<Item = cm_topology::NodeId>,
) -> Option<f64> {
    let mut bw: u128 = 0;
    let mut slots: u64 = 0;
    for n in nodes {
        if let Some((u, d)) = topo.uplink_avail(n) {
            bw += (u as u128 + d as u128) / 2;
        }
        slots += topo.subtree_slots_free(n);
    }
    if slots == 0 {
        None
    } else {
        Some(bw as f64 / slots as f64)
    }
}

/// Eq. 7 cap: the most VMs of a tier of size `n` that may share one fault
/// domain while preserving `rwcs` worst-case survivability. A tier that
/// lost `lost` VMs to one fault domain kept its admitted bound iff
/// `lost <= wcs_cap(n, rwcs)` — the one exact judge of Eq. 7.
pub fn wcs_cap(n: u32, rwcs: f64) -> u32 {
    let cap = (n as f64 * (1.0 - rwcs)).floor() as u32;
    cap.max(1)
}

/// The worst-case survivability Eq. 7 admits for a tier of `n ≥ 1` VMs,
/// `1 − wcs_cap(n, rwcs)/n`. Eq. 7's `max(1, ·)` lets a small tier fall
/// below `rwcs` itself: a 2-VM tier may lose one VM at any requirement.
/// For reporting; judge a loss with [`wcs_cap`].
pub fn wcs_floor(n: u32, rwcs: f64) -> f64 {
    1.0 - wcs_cap(n, rwcs) as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wcs_cap_matches_eq7() {
        assert_eq!(wcs_cap(10, 0.0), 10);
        assert_eq!(wcs_cap(10, 0.5), 5);
        assert_eq!(wcs_cap(10, 0.75), 2);
        assert_eq!(wcs_cap(10, 0.25), 7);
        // max(1, ...) floor: even total anti-affinity allows one VM.
        assert_eq!(wcs_cap(10, 0.99), 1);
        assert_eq!(wcs_cap(1, 0.5), 1);
        assert_eq!(wcs_floor(8, 0.75), 0.75);
        assert_eq!(wcs_floor(2, 0.75), 0.5);
        // The integer judge `lost <= wcs_cap` answers exactly what the
        // float survival-vs-floor test with a 1e-9 epsilon answered, on
        // every tier size up to 4096 and every possible loss.
        for rwcs in [0.0, 0.25, 0.5, 0.75, 0.99] {
            for n in 1..=4096u32 {
                let (cap, floor) = (wcs_cap(n, rwcs), wcs_floor(n, rwcs));
                for lost in 0..=n {
                    let old_violated = (n - lost) as f64 / n as f64 + 1e-9 < floor;
                    assert_eq!(lost > cap, old_violated, "n {n}, lost {lost}, rwcs {rwcs}");
                }
            }
        }
    }

    #[test]
    fn config_presets() {
        assert!(CmConfig::cm().colocate && CmConfig::cm().balance);
        assert!(!CmConfig::coloc_only().balance);
        assert!(!CmConfig::balance_only().colocate);
        assert_eq!(
            CmConfig::cm_ha(0.5).ha,
            HaPolicy::Guaranteed {
                rwcs: 0.5,
                laa_level: 0
            }
        );
        assert_eq!(CmConfig::cm_opp_ha().ha, HaPolicy::Opportunistic);
    }

    #[test]
    fn need_helpers() {
        let mut need = vec![2, 0, 3];
        assert!(!need_is_zero(&need));
        assert_eq!(need_total(&need), 5);
        let map = vec![crate::reserve::PlacementEntry {
            server: cm_topology::NodeId(0),
            tier: 2,
            count: 3,
        }];
        restore_need(map, &mut need);
        assert_eq!(need, vec![2, 0, 6]);
    }
}
