//! What steady-state admission keeps on the heap is its deployment.
//!
//! `CmPlacer` draws the temporaries of its search — child orderings,
//! `need` vectors, subset-sum shortlists, the failure memo,
//! the side-sum tables, the transactions' undo log — from pools it keeps
//! across calls. Once a churn pattern has been seen, the bytes an admit
//! leaves allocated are exactly those its returned [`Deployed`] frees on
//! release: no pool grows and nothing leaks. (An admit is not
//! allocation-free: the deployment's own maps grow within the call and
//! free the blocks they outgrow; the test pins that count too, so it
//! cannot grow unnoticed.) A counting
//! global allocator (std only, per thread so the harness's own threads
//! cannot interfere) checks exactly the `place_shared` and `release`
//! calls of a warm admit/depart churn. Debug builds add consistency checks
//! that allocate by design, so the check runs in release builds only.
#![cfg(not(debug_assertions))]

use cm_core::model::{Tag, TagBuilder};
use cm_core::placement::{CmConfig, CmPlacer, Deployed, Placer};
use cm_topology::{mbps, Topology, TreeSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Heap traffic of the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Traffic {
    /// Allocations and reallocations.
    allocs: u64,
    /// Deallocations, plus the old block of every reallocation.
    frees: u64,
    /// Bytes allocated minus bytes freed.
    live: i64,
}

impl Traffic {
    fn since(self, before: Traffic) -> Traffic {
        Traffic {
            allocs: self.allocs - before.allocs,
            frees: self.frees - before.frees,
            live: self.live - before.live,
        }
    }
}

thread_local! {
    static TRAFFIC: Cell<Traffic> = const {
        Cell::new(Traffic { allocs: 0, frees: 0, live: 0 })
    };
}

fn record(allocs: u64, frees: u64, live: i64) {
    let _ = TRAFFIC.try_with(|t| {
        let v = t.get();
        t.set(Traffic {
            allocs: v.allocs + allocs,
            frees: v.frees + frees,
            live: v.live + live,
        });
    });
}

fn traffic() -> Traffic {
    TRAFFIC.with(Cell::get)
}

/// The system allocator, counting every call made on the calling thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, 0, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, 0, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, 1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, 1, -(layout.size() as i64));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Three TAG shapes: a trunked two-tier service, a three-tier pipeline
/// with a self-loop, and a fan-in hub.
fn tags() -> Vec<Arc<Tag>> {
    let mut out = Vec::new();
    let mut b = TagBuilder::new("web-db");
    let w = b.tier("web", 6);
    let d = b.tier("db", 3);
    b.sym_edge(w, d, mbps(60.0)).unwrap();
    out.push(Arc::new(b.build().unwrap()));

    let mut b = TagBuilder::new("pipeline");
    let fe = b.tier("fe", 4);
    let mid = b.tier("mid", 5);
    let back = b.tier("back", 3);
    b.sym_edge(fe, mid, mbps(40.0)).unwrap();
    b.edge(mid, back, mbps(30.0), mbps(20.0)).unwrap();
    b.self_loop(mid, mbps(25.0)).unwrap();
    out.push(Arc::new(b.build().unwrap()));

    let mut b = TagBuilder::new("hub");
    let src = b.tier("src", 2);
    let sink = b.tier("sink", 8);
    b.edge(src, sink, mbps(80.0), mbps(10.0)).unwrap();
    out.push(Arc::new(b.build().unwrap()));
    out
}

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

/// Warm admit/depart churn of `CmPlacer` on a 1,024-slot tree held at
/// 40 live tenants of 9–12 VMs (about 40 % of the slots): after 3,000
/// warm-up ops, each of 1,000 admits must keep on the heap exactly what
/// the release of its deployment frees, and a rejected admit must keep
/// nothing.
#[test]
fn warm_admission_keeps_only_what_its_deployment_holds() {
    const WARM: usize = 3_000;
    const MEASURED: usize = 1_000;
    let spec = TreeSpec::small(4, 4, 8, 8, [mbps(1000.0), mbps(4000.0), mbps(8000.0)]);
    let mut topo = Topology::build(&spec);
    let mut placer = CmPlacer::new(CmConfig::cm());
    let tags = tags();
    let mut rng = Rng(0xAD317);
    // Each live deployment with the bytes its admit kept (`None` before
    // the measured phase).
    let mut live: Vec<(Deployed, Option<i64>)> = Vec::new();
    let (mut admits, mut released) = (0usize, 0usize);
    let mut transient = 0u64;
    for op in 0..WARM + MEASURED {
        let measured = op >= WARM;
        if live.len() >= 40 {
            let (gone, kept) = live.swap_remove(rng.below(live.len() as u64) as usize);
            let before = traffic();
            gone.release(&mut topo);
            let d = traffic().since(before);
            if let Some(kept) = kept {
                assert_eq!(
                    d.live, -kept,
                    "op {op}: a release freed other than what its admit kept ({d:?})"
                );
                assert_eq!(d.allocs, 0, "op {op}: a release allocated ({d:?})");
                released += 1;
            }
        }
        let tag = &tags[rng.below(tags.len() as u64) as usize];
        let before = traffic();
        let placed = placer.place_shared(&mut topo, tag);
        let d = traffic().since(before);
        match placed {
            Ok(deployed) => {
                if measured {
                    admits += 1;
                    transient = transient.max(d.frees);
                }
                live.push((deployed, measured.then_some(d.live)));
            }
            Err(_) if measured => {
                assert_eq!(d.live, 0, "op {op}: a rejection kept memory ({d:?})");
            }
            Err(_) => {}
        }
    }
    assert!(admits > MEASURED / 2, "churn admitted only {admits}");
    assert!(released > MEASURED / 2, "churn released only {released}");
    // Today's transient blocks per admit: the deployment's maps growing.
    // A pool that stops pooling shows here (with a fresh undo log per
    // attempt and a `Vec` per rollback, admits freed up to 5).
    assert!(transient <= 2, "an admit freed {transient} blocks");
    for (d, _) in live {
        d.release(&mut topo);
    }
    assert_eq!(topo.slots_in_use(), 0);
}
