//! A miniature version of the paper's §5.1 evaluation: Poisson tenant
//! arrivals/departures from the bing-like pool against the 2048-server
//! datacenter, comparing CloudMirror with improved Oktopus. `run_sim` takes
//! any `Placer` and drives it through the `Cluster` lifecycle controller —
//! each arrival is an `admit`, each departure a `depart`.
//!
//! ```text
//! cargo run --release --example datacenter_sim
//! ```

use cloudmirror::baselines::OvocPlacer;
use cloudmirror::sim::{run_sim, SimConfig};
use cloudmirror::workloads::bing_like_pool;
use cloudmirror::CmPlacer;

fn main() {
    let pool = bing_like_pool(42);
    let stats = pool.stats();
    println!(
        "bing-like pool: {} tenants, mean {:.0} VMs, largest {} VMs, \
         {:.0}% inter-component traffic",
        stats.count,
        stats.mean_size,
        stats.max_size,
        stats.inter_component_fraction * 100.0
    );

    let mut cfg = SimConfig::paper_default();
    cfg.arrivals = 3_000;
    cfg.load = 0.9;
    cfg.bmax_kbps = 1_200_000;
    println!(
        "\nsimulating {} arrivals at {:.0}% load, Bmax = {} Mbps ...\n",
        cfg.arrivals,
        cfg.load * 100.0,
        cfg.bmax_kbps / 1000
    );

    for result in [
        run_sim(&cfg, &pool, CmPlacer::default()),
        run_sim(&cfg, &pool, OvocPlacer::new()),
    ] {
        let r = &result.rejections;
        println!(
            "{:>5}: rejected {:>5.1}% of bandwidth, {:>5.1}% of VMs, \
             {:>4.1}% of tenants ({} slot / {} bandwidth); peak {} tenants live",
            result.algo,
            r.bw_rate() * 100.0,
            r.vm_rate() * 100.0,
            r.tenant_rate() * 100.0,
            r.rejected_for_slots,
            r.rejected_for_bandwidth,
            result.peak_tenants
        );
    }
    println!(
        "\nCloudMirror admits more demand than Oktopus because TAG reserves\n\
         only the bandwidth the application structure actually needs (§5.1)."
    );
}
