//! Golden admission decisions for the SecondNet placer.
//!
//! The matching-search optimizations (range-based affinity, closed-form
//! NIC feasibility, incremental switch cuts, conversion memoization) are
//! pure performance work: every fingerprint below was captured from the
//! pre-optimization placer and must keep matching bit-for-bit. The
//! fingerprints cover paper sims on the 2048-server datacenter, seeds
//! 1–6, plus a heavily bandwidth-constrained small datacenter where
//! rejections and the retry machinery dominate.

use cloudmirror::baselines::SecondNetPlacer;
use cloudmirror::sim::events::{run_sim, SimConfig};
use cloudmirror::workloads::bing_like_pool;
use cloudmirror::{mbps, TreeSpec};

fn fingerprint(cfg: &SimConfig) -> String {
    let pool = bing_like_pool(42);
    let r = run_sim(cfg, &pool, SecondNetPlacer::new());
    format!(
        "rej={} slots={} bw={} vms={} bwk={} wcs_components={} peak={}",
        r.rejections.rejected_tenants,
        r.rejections.rejected_for_slots,
        r.rejections.rejected_for_bandwidth,
        r.rejections.rejected_vms,
        r.rejections.rejected_bw_kbps,
        r.wcs.components,
        r.peak_tenants
    )
}

#[test]
fn paper_datacenter_decisions_unchanged_seeds_1_to_6() {
    // Captured from the pre-optimization greedy (commit before this one),
    // paper datacenter, 150 arrivals per seed.
    let expected = [
        "rej=2 slots=0 bw=2 vms=580 bwk=209795280 wcs_components=0 peak=136",
        "rej=1 slots=0 bw=1 vms=290 bwk=104897640 wcs_components=0 peak=137",
        "rej=5 slots=0 bw=5 vms=1450 bwk=524488200 wcs_components=0 peak=139",
        "rej=3 slots=0 bw=3 vms=870 bwk=314692920 wcs_components=0 peak=133",
        "rej=3 slots=0 bw=3 vms=870 bwk=314692920 wcs_components=0 peak=130",
        "rej=2 slots=0 bw=2 vms=580 bwk=209795280 wcs_components=0 peak=135",
    ];
    for seed in 1..=6u64 {
        let mut cfg = SimConfig::paper_default();
        cfg.seed = seed;
        cfg.arrivals = 150;
        assert_eq!(
            fingerprint(&cfg),
            expected[(seed - 1) as usize],
            "paper seed {seed}"
        );
    }
}

#[test]
fn constrained_small_datacenter_decisions_unchanged() {
    // Same capture on a bandwidth-starved small tree (heavy rejection and
    // ban-retry traffic), 250 arrivals per seed.
    let expected = [
        "rej=52 slots=5 bw=47 vms=7343 bwk=904034786 wcs_components=0 peak=15",
        "rej=49 slots=6 bw=43 vms=7779 bwk=938186853 wcs_components=0 peak=11",
        "rej=67 slots=8 bw=59 vms=10486 bwk=1317891506 wcs_components=0 peak=12",
        "rej=69 slots=13 bw=56 vms=11133 bwk=1261262724 wcs_components=0 peak=14",
        "rej=56 slots=6 bw=50 vms=10043 bwk=1190238462 wcs_components=0 peak=12",
        "rej=45 slots=4 bw=41 vms=8216 bwk=940237070 wcs_components=0 peak=12",
    ];
    for seed in 1..=6u64 {
        let cfg = SimConfig {
            seed,
            arrivals: 250,
            load: 0.9,
            td_mean: 100.0,
            bmax_kbps: mbps(300.0),
            spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
        };
        assert_eq!(
            fingerprint(&cfg),
            expected[(seed - 1) as usize],
            "small seed {seed}"
        );
    }
}
