//! A traffic step's heap traffic is independent of how many tenants are
//! live.
//!
//! The embedded engine syncs from the cluster's list of touched tenants,
//! re-scores only the tenants the solve re-solved, and hands its summary
//! vector out shared, so after one scale op the step allocates what the
//! scaled tenant's re-expansion and the report's fixed parts need — the
//! same bytes whether 200 or 2,000 tenants are live. A byte-counting
//! global allocator (std only, per thread so the harness's own threads
//! cannot interfere) checks exactly the scale op and the step. Debug
//! builds cross-check every sync and solve from scratch, which allocates
//! by design, so the check runs in release builds only.
#![cfg(not(debug_assertions))]

use cm_cluster::{Cluster, TenantId};
use cm_core::model::{Tag, TagBuilder};
use cm_core::placement::{CmConfig, CmPlacer};
use cm_core::TierId;
use cm_topology::{mbps, TreeSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// The system allocator, counting the bytes every allocation and
/// reallocation on the calling thread asks for.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The scaled tenant: a web tier trunked to a db tier.
fn subject() -> Tag {
    let mut b = TagBuilder::new("web-db");
    let web = b.tier("web", 4);
    let db = b.tier("db", 2);
    b.sym_edge(web, db, mbps(100.0)).unwrap();
    b.build().unwrap()
}

/// A one-VM tenant: live, summarised in every report, but with no flow,
/// so it shares no component with the subject.
fn solo() -> Tag {
    let mut b = TagBuilder::new("solo");
    b.tier("vm", 1);
    b.build().unwrap()
}

/// The shape of the subject's placement after an op: VMs per tier on
/// each server, and the tree level of the servers' common ancestor (the
/// background tenants decide *which* servers, not the shape).
type Shape = (Vec<Vec<u32>>, u8);

/// Bytes a warm scale-in of the subject's web tier plus `traffic_step`
/// allocates, then a scale-out back plus `traffic_step`, with
/// `background` one-VM tenants live beside the subject; and the subject's
/// placement shape after each op.
fn scale_and_step(background: usize) -> ([u64; 2], Vec<Shape>) {
    // 512 servers of 8 slots.
    let spec = TreeSpec::small(4, 8, 16, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]);
    let mut cluster = Cluster::new(&spec, CmPlacer::new(CmConfig::cm()));
    let id: TenantId = cluster.admit(subject()).unwrap().id();
    let solo = std::sync::Arc::new(solo());
    for _ in 0..background {
        cluster.admit(&solo).unwrap();
    }
    let web = TierId(0);
    // Warm: the engine exists, its pools and the placer's have seen the
    // op, and no report is held.
    drop(cluster.traffic_step());
    for _ in 0..4 {
        for delta in [-1, 1] {
            cluster.scale_tier(id, web, delta).unwrap();
            drop(cluster.traffic_step());
        }
    }
    let mut allocated = [0; 2];
    let mut shapes = Vec::new();
    for (delta, bytes_of) in [-1, 1].into_iter().zip(&mut allocated) {
        let before = bytes();
        cluster.scale_tier(id, web, delta).unwrap();
        let report = cluster.traffic_step();
        *bytes_of = bytes() - before;
        assert_eq!(report.tenants.len(), background + 1);
        assert_eq!(report.violations, 0);
        drop(report);
        let placement = cluster.placement_of(id).unwrap();
        let topo = cluster.topology();
        let first = placement[0].0;
        let lca = placement
            .iter()
            .fold(first, |lca, &(server, _)| topo.lca(lca, server));
        shapes.push((
            placement.into_iter().map(|(_, counts)| counts).collect(),
            topo.level(lca),
        ));
    }
    (allocated, shapes)
}

#[test]
fn a_step_allocates_the_same_bytes_at_200_and_2000_live_tenants() {
    let (small, small_shapes) = scale_and_step(200);
    let (large, large_shapes) = scale_and_step(2_000);
    assert_eq!(
        small_shapes, large_shapes,
        "the scaled tenant must land alike for the comparison to hold"
    );
    assert_eq!(
        small, large,
        "a step's allocations grew with the live tenants: {small:?} B at 200, {large:?} B at 2,000"
    );
    // Copying 2,000 summaries alone would be 2,000 × 64 B = 128,000 B.
    assert!(
        large.iter().all(|&b| b < 16_384),
        "a scale op and its step allocated {large:?} B"
    );
}
