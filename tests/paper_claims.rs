//! End-to-end checks of the paper's headline claims, each tied to the
//! table/figure it reproduces.

use cloudmirror::baselines::OvocPlacer;
use cloudmirror::core::placement::wcs_floor;
use cloudmirror::enforce::{fig13_throughput, fig4_throughput, GuaranteeModel};
use cloudmirror::sim::experiments::table1;
use cloudmirror::sim::{run_sim, SimConfig};
use cloudmirror::workloads::{apps, bing_like_pool, mixed_pool};
use cloudmirror::{mbps, CmConfig, CmPlacer, CutModel, Topology, TreeSpec};

/// Table 1 / §2.2: VOC pricing dominates TAG pricing on the same
/// placements, and increasingly so at higher tree levels.
#[test]
fn table1_tag_beats_voc_at_every_level() {
    let pool = bing_like_pool(42);
    let rows = table1(&pool, 1, mbps(400.0));
    let (tag, voc, ovoc) = (&rows[0], &rows[1], &rows[2]);
    for l in 0..3 {
        assert!(
            tag.gbps[l] <= voc.gbps[l] + 1e-9,
            "level {l}: CM+TAG {} > CM+VOC {}",
            tag.gbps[l],
            voc.gbps[l]
        );
    }
    // The aggregation-level gap is the paper's dramatic one (0.7 vs 14.7):
    // OVOC must reserve strictly more than CM+TAG above the server level.
    assert!(
        tag.gbps[1] + tag.gbps[2] < voc.gbps[1] + voc.gbps[2],
        "TAG must strictly win above the server level"
    );
    assert!(ovoc.gbps[1] > tag.gbps[1]);
}

/// Fig. 7/8 headline: "CloudMirror can handle 40% more bandwidth demand
/// than the state of the art" — CM's rejected bandwidth must be well below
/// OVOC's under pressure.
#[test]
fn cm_rejects_less_bandwidth_than_ovoc() {
    let pool = bing_like_pool(42);
    let cfg = SimConfig {
        seed: 5,
        arrivals: 1_500,
        load: 0.9,
        td_mean: 300.0,
        bmax_kbps: mbps(1200.0),
        spec: TreeSpec::paper_datacenter(),
    };
    let cm = run_sim(&cfg, &pool, CmPlacer::default());
    let ovoc = run_sim(&cfg, &pool, OvocPlacer::new());
    assert!(
        ovoc.rejections.bw_rate() > 0.0,
        "the scenario must stress OVOC"
    );
    assert!(
        cm.rejections.bw_rate() < ovoc.rejections.bw_rate(),
        "CM {} vs OVOC {}",
        cm.rejections.bw_rate(),
        ovoc.rejections.bw_rate()
    );
}

/// Fig. 3: the Storm split costs S·B under TAG and 2S·B under VOC.
#[test]
fn fig3_storm_cut_prices() {
    let tag = apps::storm(10, 100);
    let voc = cloudmirror::core::model::VocModel::from_tag(&tag);
    let split = vec![10, 10, 0, 0];
    assert_eq!(tag.cut_kbps(&split).0, 1000);
    assert_eq!(voc.cut_kbps(&split).0, 2000);
}

/// Fig. 4: TAG holds 500/100 under congestion; the hose yields 300:300.
#[test]
fn fig4_guarantee_isolation() {
    let tag = fig4_throughput(5, 5, GuaranteeModel::Tag);
    assert!((tag.web_mbps - 500.0).abs() < 1.0);
    assert!((tag.db_mbps - 100.0).abs() < 1.0);
    let hose = fig4_throughput(5, 5, GuaranteeModel::Hose);
    assert!((hose.web_mbps - 300.0).abs() < 1.0);
    assert!((hose.db_mbps - 300.0).abs() < 1.0);
}

/// Fig. 6: the paper's rack request is placeable with Balance but not with
/// blind colocation.
#[test]
fn fig6_balance_is_necessary() {
    let tag = apps::fig6_request();
    let mut topo = Topology::build(&TreeSpec::fig6_rack());
    let mut cm = CmPlacer::new(CmConfig::cm());
    assert!(cm.place_tag(&mut topo, &tag).is_ok(), "Fig. 6(d) must fit");

    let mut topo = Topology::build(&TreeSpec::fig6_rack());
    let mut coloc_only = CmPlacer::new(CmConfig::coloc_only());
    assert!(
        coloc_only.place_tag(&mut topo, &tag).is_err(),
        "blind colocation strands component C (Fig. 6(c))"
    );
}

/// Fig. 13: the TAG patch protects the 450 Mbps trunk guarantee for any
/// number of competing intra-tier senders; the hose model does not.
#[test]
fn fig13_protection() {
    for k in 1..=5 {
        let p = fig13_throughput(k, GuaranteeModel::Tag);
        assert!(p.x_to_z_mbps >= 450.0 - 1e-6, "k={k}: {}", p.x_to_z_mbps);
    }
    let p = fig13_throughput(5, GuaranteeModel::Hose);
    assert!(p.x_to_z_mbps < 200.0);
}

/// Fig. 11/12: guaranteed HA achieves its floor; opportunistic HA lifts
/// mean WCS at no bandwidth-rejection cost.
#[test]
fn ha_variants_behave_as_figs_11_12() {
    let pool = mixed_pool(3);
    // The WCS orderings are stable per seed; the opp-vs-CM rejection
    // comparison is noisy at 400 arrivals, so it is asserted on the mean
    // over several sim seeds (as the paper's claim is statistical).
    let seeds = [1u64, 2, 3, 4, 5, 6];
    let floor = pool
        .tenants()
        .iter()
        .flat_map(|tag| tag.placeable_counts())
        .filter(|&n| n >= 2)
        .map(|n| wcs_floor(n, 0.5))
        .fold(1.0, f64::min);
    assert_eq!(floor, 0.5, "Eq. 7 at 50 % admits no lower floor");
    let mut cm_bw_sum = 0.0;
    let mut opp_bw_sum = 0.0;
    for seed in seeds {
        let cfg = SimConfig {
            seed,
            arrivals: 400,
            load: 0.7,
            td_mean: 100.0,
            bmax_kbps: mbps(200.0),
            spec: TreeSpec::small(2, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]),
        };
        let cm = run_sim(&cfg, &pool, CmPlacer::default());
        let ha = run_sim(&cfg, &pool, CmPlacer::new(CmConfig::cm_ha(0.5)));
        let opp = run_sim(&cfg, &pool, CmPlacer::new(CmConfig::cm_opp_ha()));
        // Guarantee: every measured component (tiers of 2 VMs or more)
        // survives at the floor Eq. 7 admits for its size.
        assert!(ha.wcs.min >= floor, "seed {seed}: min WCS {}", ha.wcs.min);
        assert!(ha.wcs.mean > cm.wcs.mean, "seed {seed}");
        // Opportunistic: better WCS than plain CM at every seed.
        assert!(opp.wcs.mean > cm.wcs.mean, "seed {seed}");
        cm_bw_sum += cm.rejections.bw_rate();
        opp_bw_sum += opp.rejections.bw_rate();
    }
    // ... and rejections no worse than plain CM's on average.
    let n = seeds.len() as f64;
    assert!(
        opp_bw_sum / n <= cm_bw_sum / n + 0.01,
        "opp mean {} vs cm mean {}",
        opp_bw_sum / n,
        cm_bw_sum / n
    );
}

/// §5.1: "experiments using a synthetic workload ... and experiments using
/// the hpcloud workload yielded results similar to Table 1" — the model
/// ordering must hold on every pool, not just bing.
#[test]
fn table1_ordering_holds_on_all_pools() {
    for pool in [cloudmirror::workloads::hpcloud_like_pool(7), mixed_pool(7)] {
        let rows = table1(&pool, 3, mbps(300.0));
        let (tag, voc) = (&rows[0], &rows[1]);
        for l in 0..3 {
            assert!(
                tag.gbps[l] <= voc.gbps[l] + 1e-9,
                "{}: level {l}: CM+TAG {} > CM+VOC {}",
                pool.name(),
                tag.gbps[l],
                voc.gbps[l]
            );
        }
    }
}

/// §5.1: "CM+pipe consuming 8% less bandwidth than SecondNet" — more
/// generally, idealized pipes priced on any placement cost no more than
/// the TAG pricing of that placement.
#[test]
fn pipes_price_below_tag_on_deployments() {
    let tag = apps::three_tier(6, 6, 4, mbps(50.0), mbps(20.0), mbps(10.0));
    let spec = TreeSpec::small(2, 2, 4, 4, [mbps(1000.0), mbps(2000.0), mbps(4000.0)]);
    let mut topo = Topology::build(&spec);
    let mut cm = CmPlacer::new(CmConfig::cm());
    let state = cm.place_tag(&mut topo, &tag).unwrap();
    let pipe = cloudmirror::core::model::PipeModel::from_tag_idealized(&tag);
    // Price every server cut both ways.
    for (server, counts) in state.placement(&topo) {
        let mut pipe_inside = Vec::new();
        // Reconstruct a consistent per-VM membership: first-k of each tier
        // on this server is a valid relabeling for cut pricing.
        let mut offsets = [0u32; 3];
        let mut acc = 0;
        for (off, tier) in offsets.iter_mut().zip(tag.tiers()) {
            *off = acc;
            acc += tier.size;
        }
        let mut member = vec![0u32; acc as usize];
        for (t, &c) in counts.iter().enumerate() {
            for i in 0..c {
                member[(offsets[t] + i) as usize] = 1;
            }
        }
        pipe_inside.extend(member);
        let (po, pi) = pipe.cut_kbps(&pipe_inside);
        let (to, ti) = tag.cut_kbps(&counts);
        let slack = pipe.pipes().len() as u64;
        assert!(po + pi <= to + ti + slack, "server {server}");
    }
}
