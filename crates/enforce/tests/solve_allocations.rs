//! Steady-state solves allocate nothing.
//!
//! [`IncrementalFluid`] pools every piece of solver scratch — the
//! union-find over the dirty labels, the sorted added keys, the merge
//! heap, the max-min kernel's transpose and rate vectors — and every
//! retired component layout across steps. Once a churn pattern has been
//! seen, solving it again must not touch the heap. A counting
//! global allocator (std only, counting per thread so the test harness's
//! own threads cannot interfere) checks exactly the `solve` calls.

use cm_enforce::{FlowSpec, Fluid, IncrementalFluid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting every allocation and reallocation made
/// on the calling thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Links of a two-pod tree: eight server uplinks (0–7), four ToR uplinks
/// (8–11), two pod uplinks (12–13).
const CAPS: [f64; 14] = [
    1000.0, 1000.0, 900.0, 1000.0, 800.0, 1000.0, 1000.0, 700.0, 3000.0, 2500.0, 3000.0, 2000.0,
    5000.0, 5000.0,
];

/// The path from server `a` to server `b` (ids 0–7, two per ToR, two
/// ToRs per pod).
fn path(a: usize, b: usize) -> Vec<usize> {
    let mut p = vec![a, b];
    if a / 2 != b / 2 {
        p.extend([8 + a / 2, 8 + b / 2]);
        if a / 4 != b / 4 {
            p.extend([12 + a / 4, 12 + b / 4]);
        }
    }
    p
}

#[test]
fn steady_state_solves_allocate_nothing() {
    let mut net = Fluid::new();
    for &c in &CAPS {
        net.link(c);
    }
    let mut inc = IncrementalFluid::new(net);
    // Rack-local, pod-local and cross-pod flows in two tenants, one with a
    // finite demand; tenant 2's floors oversubscribe server link 7.
    let mut capped = FlowSpec::greedy(path(0, 1)).with_guarantee(100.0);
    capped.demand = 250.0;
    inc.add_flow(capped, (1, 0));
    inc.add_flow(FlowSpec::greedy(path(1, 3)).with_guarantee(200.0), (1, 1));
    inc.add_flow(FlowSpec::greedy(path(2, 3)).with_guarantee(150.0), (1, 2));
    inc.add_flow(FlowSpec::greedy(path(5, 7)).with_guarantee(400.0), (2, 0));
    inc.add_flow(FlowSpec::greedy(path(6, 7)).with_guarantee(400.0), (2, 1));
    inc.add_flow(FlowSpec::greedy(path(4, 5)), (2, 2));
    let bridge = || FlowSpec::greedy(path(3, 4)).with_guarantee(50.0);
    let mut bridge_id = inc.add_flow(bridge(), (3, 0));

    // One churn cycle: the bridge between the pods leaves (the component
    // splits) and comes back (they merge), a flow is re-added under its
    // own key, and a ToR uplink is halved and restored. Returns the
    // allocations its solves made.
    let mut cycle = |inc: &mut IncrementalFluid| {
        let mut allocated = 0;
        let mut solve = |inc: &mut IncrementalFluid| {
            let before = allocations();
            let stats = inc.solve();
            allocated += allocations() - before;
            assert!(inc.is_work_conserving());
            stats
        };
        inc.remove_flow(bridge_id);
        assert_eq!(solve(inc).components_dirty, 2);
        bridge_id = inc.add_flow(bridge(), (3, 0));
        assert_eq!(solve(inc).components_dirty, 1);
        inc.remove_flow(bridge_id);
        bridge_id = inc.add_flow(bridge(), (3, 0));
        solve(inc);
        inc.set_link_cap(9, 1250.0);
        solve(inc);
        inc.set_link_cap(9, 2500.0);
        let stats = solve(inc);
        assert!(stats.fill_rounds > 0 && stats.link_visits > 0, "{stats:?}");
        allocated
    };
    let warm_up: u64 = (0..2).map(|_| cycle(&mut inc)).sum();
    assert!(warm_up > 0, "the first solves size the scratch pools");
    for k in 0..50 {
        assert_eq!(cycle(&mut inc), 0, "steady-state cycle {k} allocated");
    }
}

/// The same on a component of over a thousand live links: a star of
/// 1,200 links, a hub under 1,199 spokes of distinct capacities, one flow
/// per spoke through the hub. A round saturates one spoke, so the
/// kernel's fill-step history grows to over a thousand steps and its heap
/// holds every spoke; every solve resumes its fill log, so resumed solves
/// allocate nothing either.
#[test]
fn steady_state_lazy_solves_allocate_nothing() {
    const SPOKES: usize = 1199;
    let mut net = Fluid::new();
    let hub = net.link(1e9);
    for k in 0..SPOKES {
        net.link(500.0 + (k * 7919 % SPOKES) as f64);
    }
    let mut inc = IncrementalFluid::new(net);
    inc.set_resume_from(1);
    let spec = |k: usize| FlowSpec::greedy(vec![1 + k, hub]).with_guarantee(1.0 + (k % 13) as f64);
    let mut ids: Vec<u32> = (0..SPOKES)
        .map(|k| inc.add_flow(spec(k), (1, k as u32)))
        .collect();

    // One churn cycle: a flow leaves and comes back, and a spoke is halved
    // and restored. Returns the allocations its solves made and how many
    // of them resumed their component's fill past the rounds the change
    // cannot reach.
    let mut cycle = |inc: &mut IncrementalFluid| {
        let (mut allocated, mut resumed) = (0, 0);
        let mut solve = |inc: &mut IncrementalFluid| {
            let before = allocations();
            let stats = inc.solve();
            allocated += allocations() - before;
            assert!(inc.is_work_conserving());
            // A round reads a few links, not every live spoke. A solve
            // resumed at a later round reuses the rounds before it: it
            // would run over a thousand from round 0.
            assert!(
                stats.fill_rounds + stats.rounds_reused >= 1000
                    && stats.link_visits < 8 * stats.fill_rounds,
                "{stats:?}"
            );
            resumed += usize::from(stats.rounds_reused > 0);
            stats
        };
        inc.remove_flow(ids[600]);
        solve(inc);
        ids[600] = inc.add_flow(spec(600), (1, 600));
        solve(inc);
        inc.set_link_cap(1 + 300, 250.0);
        solve(inc);
        inc.set_link_cap(1 + 300, 500.0 + (300 * 7919 % SPOKES) as f64);
        solve(inc);
        (allocated, resumed)
    };
    let warm_up: u64 = (0..2).map(|_| cycle(&mut inc).0).sum();
    assert!(warm_up > 0, "the first solves size the scratch pools");
    for k in 0..5 {
        let (allocated, resumed) = cycle(&mut inc);
        assert_eq!(allocated, 0, "steady-state cycle {k} allocated");
        assert_eq!(resumed, 4, "steady-state cycle {k}");
    }
}
