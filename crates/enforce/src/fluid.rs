//! Fluid-flow network: max-min fair rate allocation with floors, caps and
//! weights.
//!
//! Steady-state TCP throughput over a capacitated network is classically
//! modeled as (weighted) max-min fairness; progressive filling computes it
//! exactly in the fluid limit. Floors model enforced guarantees (rate
//! limiters never throttle a pair below its guarantee), caps model rate
//! limiters, weights model the guarantee-proportional spare sharing that
//! ElasticSwitch's probing converges to.
//!
//! Progressive filling is implemented **once**, in the crate-private
//! kernel `Fluid::fill`: it solves the subproblem of a caller-supplied
//! ordered flow list over an ascending link list. It reads each flow's
//! spec once into flat per-flow paths and per-link flow lists, then
//! advances a single fill level; a round visits only the links that still
//! carry an active flow, so a solve costs `O(Σ|path| + Σ_rounds live
//! links)` where every round provably freezes at least one flow. It has
//! two callers. [`Fluid::rates`] /
//! [`Fluid::rates_into`] pass every flow and every link — the batch solve
//! of [`crate::datacenter`]. Under *churn*, where most of the network is
//! unchanged between calls, [`crate::incremental::IncrementalFluid`] wraps
//! a `Fluid` and passes one connected component at a time, re-solving only
//! the components the churn touched (see that module's docs for the
//! partition and determinism invariants).
//!
//! The kernel is tested against two independent oracles that share no
//! code with it: [`Fluid::rates_reference`], the pre-rewrite
//! `O(flows × links)` scan (a different algorithm), and
//! [`Fluid::verify_max_min`], the KKT definition of the allocation.

#![warn(clippy::float_cmp)]

/// One flow: a path over link indices plus its rate-control parameters.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Links the flow traverses (indices into the fluid network's links).
    /// Order is irrelevant; a link must not appear twice.
    pub path: Vec<usize>,
    /// Application demand (kbps; `f64::INFINITY` for a greedy TCP flow).
    pub demand: f64,
    /// Guaranteed floor (kbps) — granted before any fair sharing.
    pub floor: f64,
    /// Weight for sharing capacity beyond the floors.
    pub weight: f64,
}

impl FlowSpec {
    /// A greedy (infinite-demand) flow with no guarantee and unit weight.
    pub fn greedy(path: Vec<usize>) -> Self {
        FlowSpec {
            path,
            demand: f64::INFINITY,
            floor: 0.0,
            weight: 1.0,
        }
    }

    /// Set the guaranteed floor and use it as the sharing weight
    /// (ElasticSwitch shares spare bandwidth in proportion to guarantees).
    /// Only an exactly-zero guarantee keeps a token unit weight so the flow
    /// still participates in the fill; any positive guarantee — however
    /// small — shares spare capacity in exact proportion to it. (The old
    /// `g.max(1.0)` clamp made every sub-kbps guarantee share as if it were
    /// 1 kbps, collapsing unequal small guarantees into equal shares.)
    /// Note the declared discontinuity at zero: a sub-unit guarantee weighs
    /// *less* than the 1.0 token of an unguaranteed flow — guarantees are
    /// kbps-scale in practice, and callers who care can set
    /// [`FlowSpec::weight`] directly.
    pub fn with_guarantee(mut self, g: f64) -> Self {
        self.floor = g;
        self.weight = if g > 0.0 { g } else { 1.0 };
        self
    }
}

/// Rows of `u32`s stored flat: row `r` is `items[at[r]..at[r + 1]]`.
#[derive(Debug)]
pub(crate) struct Rows {
    at: Vec<u32>,
    items: Vec<u32>,
}

impl Default for Rows {
    fn default() -> Self {
        Rows {
            at: vec![0],
            items: Vec::new(),
        }
    }
}

impl Rows {
    /// Row `r`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[u32] {
        &self.items[self.at[r] as usize..self.at[r + 1] as usize]
    }

    fn clear(&mut self) {
        self.at.truncate(1);
        self.items.clear();
    }

    /// Close the row being pushed to `items`.
    fn end_row(&mut self) {
        self.at.push(self.items.len() as u32);
    }

    /// Make `out` the transpose over `cols` columns (every item is below
    /// `cols`): row `c` of `out` lists the rows holding `c`, ascending.
    /// A counting sort — the counts land at `out.at[c + 2]`, so after the
    /// prefix sum `out.at[c + 1]` is row `c`'s start and serves as its
    /// write cursor, ending as its end.
    fn transpose_into(&self, cols: usize, out: &mut Rows) {
        out.at.clear();
        out.at.resize(cols + 2, 0);
        for &c in &self.items {
            out.at[c as usize + 2] += 1;
        }
        for k in 2..cols + 2 {
            out.at[k] += out.at[k - 1];
        }
        out.items.clear();
        out.items.resize(self.items.len(), 0);
        for r in 0..self.at.len() - 1 {
            for &c in self.row(r) {
                let cursor = &mut out.at[c as usize + 1];
                out.items[*cursor as usize] = r as u32;
                *cursor += 1;
            }
        }
        out.at.truncate(cols + 1);
    }
}

/// Scratch of the max-min kernel (`Fluid::fill`): pooled by a caller that
/// solves repeatedly, so steady-state solves allocate nothing. "Local"
/// indices are positions in the flow and link lists handed to the kernel.
/// The kernel reads each listed flow's spec once, into the flat arrays
/// below; every later pass, its caller's write-back included, reads only
/// those.
#[derive(Debug, Default)]
pub(crate) struct FillScratch {
    /// Flow-list position → solved rate (the kernel's output).
    pub(crate) rate: Vec<f64>,
    /// Flow-list position → demand.
    pub(crate) demand: Vec<f64>,
    weight: Vec<f64>,
    /// Flow-list position → its local links.
    pub(crate) paths: Rows,
    /// Local link → its flows (flow-list positions, ascending).
    pub(crate) lflows: Rows,
    /// Global link → local link, valid for the last solved link list.
    link_local: Vec<u32>,
    /// Local link → capacity.
    pub(crate) lcaps: Vec<f64>,
    active: Vec<bool>,
    finite: Vec<u32>,
    used: Vec<f64>,
    residual: Vec<f64>,
    wsum: Vec<f64>,
    wcount: Vec<u32>,
    /// Local links with `wcount > 0`, ascending.
    live: Vec<u32>,
    to_freeze: Vec<u32>,
    /// Filling rounds of the last solve.
    pub(crate) rounds: usize,
    /// Σ over the last solve's rounds of the live-list length.
    pub(crate) link_visits: usize,
}

/// A fluid network: capacitated links and flows.
///
/// The per-link flow index is **maintained incrementally**: [`Fluid::flow`]
/// registers the new flow on each of its links, [`Fluid::remove_flow`]
/// detaches it in O(|path|), and [`Fluid::clear_flows`] drops every flow
/// while retaining links, capacities and the per-link vectors' allocations.
/// It is what [`crate::incremental::IncrementalFluid`] walks to find the
/// component a churned link belongs to; its order follows the churn
/// history and never reaches the solver's arithmetic (the kernel indexes
/// the flows it is handed in the order it is handed them).
#[derive(Debug, Clone, Default)]
pub struct Fluid {
    caps: Vec<f64>,
    flows: Vec<FlowSpec>,
    /// `link_flows[l]` = indices of the flows crossing link `l`.
    link_flows: Vec<Vec<u32>>,
    /// `flow_pos[f][k]` = position of flow `f` inside
    /// `link_flows[flows[f].path[k]]`, so removal never scans a link list.
    flow_pos: Vec<Vec<u32>>,
}

impl Fluid {
    /// Create an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a link with the given capacity (kbps); returns its index.
    pub fn link(&mut self, cap_kbps: f64) -> usize {
        assert!(cap_kbps >= 0.0);
        self.caps.push(cap_kbps);
        self.link_flows.push(Vec::new());
        self.caps.len() - 1
    }

    /// Add a flow; returns its index.
    pub fn flow(&mut self, f: FlowSpec) -> usize {
        for (i, &l) in f.path.iter().enumerate() {
            assert!(l < self.caps.len(), "flow references unknown link {l}");
            debug_assert!(
                !f.path[..i].contains(&l),
                "flow path repeats link {l}; paths must be duplicate-free"
            );
        }
        assert!(f.floor >= 0.0 && f.weight > 0.0);
        let id = self.flows.len() as u32;
        let mut pos = Vec::with_capacity(f.path.len());
        for &l in &f.path {
            pos.push(self.link_flows[l].len() as u32);
            self.link_flows[l].push(id);
        }
        self.flow_pos.push(pos);
        self.flows.push(f);
        self.flows.len() - 1
    }

    /// Remove flow `i` in O(|path|): it is detached from every link it
    /// crosses and the **last** flow takes over its index (swap-remove), so
    /// callers tracking flow indices must apply that single rename.
    /// Returns the removed spec.
    pub fn remove_flow(&mut self, i: usize) -> FlowSpec {
        let path_len = self.flows[i].path.len();
        // Detach `i` from its links; each swap-removed hole is patched by
        // fixing the moved flow's cached position for that link.
        for k in 0..path_len {
            let l = self.flows[i].path[k];
            let p = self.flow_pos[i][k] as usize;
            self.link_flows[l].swap_remove(p);
            if p < self.link_flows[l].len() {
                let moved = self.link_flows[l][p] as usize;
                #[expect(
                    clippy::expect_used,
                    reason = "link_flows[l] only holds flows whose path contains l (kept in sync on insert/remove)"
                )]
                let slot = self.flows[moved]
                    .path
                    .iter()
                    .position(|&ml| ml == l)
                    .expect("indexed flow crosses the link");
                self.flow_pos[moved][slot] = p as u32;
            }
        }
        let spec = self.flows.swap_remove(i);
        let _ = self.flow_pos.swap_remove(i);
        // The former last flow now lives at index `i`: update every link
        // list entry that still names it by its old index.
        if i < self.flows.len() {
            for (k, &l) in self.flows[i].path.iter().enumerate() {
                let p = self.flow_pos[i][k] as usize;
                self.link_flows[l][p] = i as u32;
            }
        }
        spec
    }

    /// Drop every flow while keeping all links and their capacities. The
    /// per-link index vectors and the flow vectors keep their allocations,
    /// so a clear-and-refill cycle allocates nothing in steady state.
    pub fn clear_flows(&mut self) {
        self.flows.clear();
        self.flow_pos.clear();
        for lf in &mut self.link_flows {
            lf.clear();
        }
    }

    /// Number of flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.caps.len()
    }

    /// Capacity of link `l` (kbps).
    pub fn link_cap(&self, l: usize) -> f64 {
        self.caps[l]
    }

    /// Change the capacity of link `l` (kbps) — fault injection / repair.
    /// Rates computed before the change are stale; the caller re-solves.
    pub fn set_link_cap(&mut self, l: usize, cap_kbps: f64) {
        assert!(cap_kbps >= 0.0);
        self.caps[l] = cap_kbps;
    }

    /// The flows in insertion order (rate vectors index into this).
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }

    /// Indices of the flows currently crossing link `l` (arbitrary order;
    /// maintained incrementally by `flow`/`remove_flow`). The incremental
    /// component solver walks these to gather a component's flow set.
    pub fn link_flows(&self, l: usize) -> &[u32] {
        &self.link_flows[l]
    }

    /// Compute the weighted max-min fair allocation with floors.
    ///
    /// Phase 1 grants every flow its floor (capped by demand). Floors are
    /// assumed admissible (the placement layer reserved them); if they
    /// oversubscribe a link, they are scaled down proportionally on that
    /// link — mirroring what a real enforcer's rate limiters would do.
    /// Phase 2 progressively fills the remaining capacity in proportion to
    /// the flows' weights until each flow hits its demand or a saturated
    /// link.
    ///
    /// Termination is exact, not capped: every filling round either
    /// saturates the bottleneck link that produced the round's fill step
    /// (freezing its flows) or freezes the flow that reached its demand, so
    /// the loop runs at most `num_flows` rounds. On exit the allocation is
    /// debug-asserted work-conserving: every flow is demand-capped or
    /// crosses a saturated link.
    pub fn rates(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.rates_into(&mut out);
        out
    }

    /// [`Fluid::rates`] writing into a caller-owned vector: the max-min
    /// kernel (`Fluid::fill`) over every flow in index order and every
    /// link. Only `out`'s allocation is reused across calls; each call
    /// still allocates the two index lists and the kernel's scratch, which
    /// is fine for this batch and test-oracle path (the churn path,
    /// [`crate::incremental::IncrementalFluid`], pools all of it).
    pub fn rates_into(&self, out: &mut Vec<f64>) {
        let flows: Vec<u32> = (0..self.flows.len() as u32).collect();
        let links: Vec<u32> = (0..self.caps.len() as u32).collect();
        let mut scratch = FillScratch {
            rate: std::mem::take(out),
            ..FillScratch::default()
        };
        self.fill(&flows, &links, &mut scratch);
        *out = scratch.rate;
        debug_assert!(
            self.is_work_conserving(out),
            "allocation is not work-conserving"
        );
    }

    /// The max-min kernel — the one place progressive filling is
    /// implemented (see [`Fluid::rates`] for the two phases and the
    /// termination argument). Solves the subproblem of `flows` (flow
    /// indices, in the order the caller wants sums taken) over `links`
    /// (ascending; must hold every link of every listed flow's path, and
    /// no flow outside `flows` may cross them) and leaves flow `flows[i]`'s
    /// rate in `s.rate[i]`. The result is a pure function of the two
    /// lists, the listed flows' specs and the listed links' capacities:
    /// links are visited ascending and each link's flows in list order, so
    /// neither the rest of the network nor the churn history behind
    /// `link_flows` reaches the arithmetic.
    ///
    /// Each listed spec is read once, into `s`'s flat per-flow paths and
    /// per-link flow lists, which stay behind for the caller's write-back.
    /// A filling round then costs O(live links) — the links that still
    /// carry an active flow, kept as an ascending list compacted once per
    /// round — plus the frozen flows' path lengths. A drained link has
    /// weight sum exactly 0.0, so skipping it changes no value and no
    /// tie-break; debug builds check every round against the full scan.
    pub(crate) fn fill(&self, flows: &[u32], links: &[u32], s: &mut FillScratch) {
        let (n, nll) = (flows.len(), links.len());
        if s.link_local.len() < self.caps.len() {
            s.link_local.resize(self.caps.len(), 0);
        }
        s.lcaps.clear();
        for (li, &l) in links.iter().enumerate() {
            s.link_local[l as usize] = li as u32;
            s.lcaps.push(self.caps[l as usize]);
        }
        // Flatten: local paths and parameters in one read of each spec,
        // then the per-link flow lists from the paths.
        s.paths.clear();
        s.rate.clear();
        s.demand.clear();
        s.weight.clear();
        for &fi in flows {
            let f = &self.flows[fi as usize];
            for &l in &f.path {
                let li = s.link_local[l];
                debug_assert_eq!(
                    links.get(li as usize).copied(),
                    Some(l as u32),
                    "flow path leaves the link list"
                );
                s.paths.items.push(li);
            }
            s.paths.end_row();
            // Phase 1 starts from the floors, capped by demand.
            s.rate.push(f.floor.min(f.demand));
            s.demand.push(f.demand);
            s.weight.push(f.weight);
        }
        s.paths.transpose_into(nll, &mut s.lflows);

        let FillScratch {
            rate,
            demand,
            weight,
            paths,
            lflows,
            lcaps,
            active,
            finite,
            used,
            residual,
            wsum,
            wcount,
            live,
            to_freeze,
            ..
        } = s;

        // Phase 1: floors capped by demand, defensively scaled on
        // oversubscribed links (worst link first, like the reference).
        used.clear();
        used.resize(nll, 0.0);
        loop {
            for (li, u) in used.iter_mut().enumerate() {
                *u = lflows.row(li).iter().map(|&i| rate[i as usize]).sum();
            }
            let mut worst: Option<(usize, f64)> = None;
            for (li, &u) in used.iter().enumerate() {
                if u > lcaps[li] * (1.0 + 1e-9) {
                    let scale = lcaps[li] / u;
                    if worst.is_none_or(|(_, sc)| scale < sc) {
                        worst = Some((li, scale));
                    }
                }
            }
            match worst {
                Some((li, scale)) => {
                    for &i in lflows.row(li) {
                        rate[i as usize] *= scale;
                    }
                }
                None => break,
            }
        }
        residual.clear();
        residual.extend(
            lcaps
                .iter()
                .zip(used.iter())
                .map(|(&c, &u)| (c - u).max(0.0)),
        );

        // Phase 2: weighted progressive filling of the residual, driven by
        // one fill level. While flow `i` is active its rate is implicitly
        // `rate[i] + weight[i] × fill`; only the freeze event materializes
        // it, so a round costs O(live links) plus the frozen flows' path
        // lengths — never a sweep over all flows or all links.
        active.clear();
        active.extend((0..n).map(|i| rate[i] + 1e-9 < demand[i]));
        // Active weight sum and active flow count per link. The count going
        // to zero resets the sum to exactly 0.0, so accumulated float error
        // can never leave a ghost positive weight on a drained link.
        wsum.clear();
        wsum.resize(nll, 0.0);
        wcount.clear();
        wcount.resize(nll, 0);
        // Finite-demand active flows (greedy flows never appear here).
        finite.clear();
        for i in 0..n {
            if active[i] {
                for &li in paths.row(i) {
                    wsum[li as usize] += weight[i];
                    wcount[li as usize] += 1;
                }
                if demand[i].is_finite() {
                    finite.push(i as u32);
                }
            }
        }
        live.clear();
        live.extend((0..nll as u32).filter(|&li| wcount[li as usize] > 0));
        let mut remaining = active.iter().filter(|&&a| a).count();
        let mut fill = 0.0f64;
        let (mut rounds, mut link_visits) = (0usize, 0usize);
        while remaining > 0 {
            // Next event: the tightest link saturates, or the tightest
            // finite-demand flow reaches its demand. The same pass drops
            // the links the last round drained (weight sum exactly 0.0, so
            // they could not have been the event).
            let mut t = f64::INFINITY;
            let mut event_link: Option<usize> = None;
            let mut event_flow: Option<u32> = None;
            live.retain(|&li| {
                let li = li as usize;
                if wcount[li] == 0 {
                    return false;
                }
                let w = wsum[li];
                if w > 0.0 {
                    let tl = residual[li] / w;
                    if tl < t {
                        t = tl;
                        event_link = Some(li);
                    }
                }
                true
            });
            #[cfg(debug_assertions)]
            {
                assert!(
                    live.iter()
                        .copied()
                        .eq((0..nll as u32).filter(|&li| wcount[li as usize] > 0)),
                    "live-link list differs from the links with active flows"
                );
                let (mut full_t, mut full_link) = (f64::INFINITY, None);
                for (li, &w) in wsum.iter().enumerate() {
                    if w > 0.0 && residual[li] / w < full_t {
                        full_t = residual[li] / w;
                        full_link = Some(li);
                    }
                }
                assert_eq!(
                    (full_link, full_t.to_bits()),
                    (event_link, t.to_bits()),
                    "live-link scan chose another event than the full scan"
                );
            }
            rounds += 1;
            link_visits += live.len();
            for &i in finite.iter() {
                let i = i as usize;
                let tf = (demand[i] - (rate[i] + weight[i] * fill)) / weight[i];
                if tf < t {
                    t = tf;
                    event_link = None;
                    event_flow = Some(i as u32);
                }
            }
            if !t.is_finite() {
                // Only unconstrained infinite-demand flows remain.
                break;
            }
            let t = t.max(0.0);
            fill += t;
            // One pass over the live links: drain each residual, pin the
            // event's link at exactly zero (float error must not leave it
            // epsilon above the saturation threshold and stall the round),
            // and queue the active flows of every saturated link.
            to_freeze.clear();
            for &li in live.iter() {
                let li = li as usize;
                if wsum[li] > 0.0 {
                    residual[li] -= wsum[li] * t;
                }
                if event_link == Some(li) {
                    residual[li] = 0.0;
                }
                if residual[li] <= 1e-6 {
                    to_freeze.extend(lflows.row(li).iter().filter(|&&i| active[i as usize]));
                }
            }
            // Then the event flow, and any finite flow that reached demand.
            if let Some(i) = event_flow {
                to_freeze.push(i);
            }
            for &i in finite.iter() {
                let iu = i as usize;
                if active[iu] && rate[iu] + weight[iu] * fill + 1e-6 >= demand[iu] {
                    to_freeze.push(i);
                }
            }
            let mut frozen = 0usize;
            for &i in to_freeze.iter() {
                let i = i as usize;
                if !active[i] {
                    continue; // reachable via several saturated links
                }
                active[i] = false;
                rate[i] = (rate[i] + weight[i] * fill).min(demand[i]);
                for &li in paths.row(i) {
                    let li = li as usize;
                    wsum[li] -= weight[i];
                    wcount[li] -= 1;
                    if wcount[li] == 0 {
                        wsum[li] = 0.0;
                    }
                }
                remaining -= 1;
                frozen += 1;
            }
            if !finite.is_empty() {
                finite.retain(|&i| active[i as usize]);
            }
            debug_assert!(
                frozen > 0,
                "filling round froze no flow: termination invariant broken"
            );
        }
        // Flows still active hit no capacitated link and no demand: they
        // are unbounded in the fluid limit; report the filled level reached
        // (matches the reference's early exit).
        for i in 0..n {
            if active[i] {
                rate[i] += weight[i] * fill;
            }
        }
        s.rounds = rounds;
        s.link_visits = link_visits;
    }

    /// Whether `rates` is work-conserving: no link exceeds its capacity and
    /// every flow with a nonempty path is either demand-capped or crosses a
    /// saturated link (i.e. no flow could be increased without violating a
    /// constraint). Degenerate flows with empty paths are exempt.
    pub fn is_work_conserving(&self, rates: &[f64]) -> bool {
        assert_eq!(rates.len(), self.flows.len());
        let mut used = vec![0.0f64; self.caps.len()];
        for (f, &r) in self.flows.iter().zip(rates) {
            for &l in &f.path {
                used[l] += r;
            }
        }
        let sat = |l: usize| used[l] >= self.caps[l] - tol(self.caps[l]);
        for (l, &u) in used.iter().enumerate() {
            if u > self.caps[l] + tol(self.caps[l]) {
                return false;
            }
        }
        self.flows.iter().zip(rates).all(|(f, &r)| {
            f.path.is_empty()
                || r + tol(f.demand.min(1e12)) >= f.demand
                || f.path.iter().any(|&l| sat(l))
        })
    }

    /// Verify that `rates` is *the* weighted max-min allocation with floors:
    /// caps respected, demands respected, floors granted (assumes admissible
    /// floors), work conservation, and the KKT bottleneck condition — every
    /// flow below demand crosses a saturated link on which its fill level
    /// `(rate − floor) / weight` is maximal. Returns the first violated
    /// property. Intended for tests ([`Fluid::rates`] itself only
    /// debug-asserts work conservation).
    pub fn verify_max_min(&self, rates: &[f64]) -> Result<(), String> {
        assert_eq!(rates.len(), self.flows.len());
        let mut used = vec![0.0f64; self.caps.len()];
        for (f, &r) in self.flows.iter().zip(rates) {
            for &l in &f.path {
                used[l] += r;
            }
        }
        for (l, &u) in used.iter().enumerate() {
            if u > self.caps[l] + tol(self.caps[l]) {
                return Err(format!("link {l}: used {u} exceeds cap {}", self.caps[l]));
            }
        }
        for (i, (f, &r)) in self.flows.iter().zip(rates).enumerate() {
            if r > f.demand + tol(f.demand.min(1e12)) {
                return Err(format!("flow {i}: rate {r} exceeds demand {}", f.demand));
            }
            let floor = f.floor.min(f.demand);
            if r + tol(floor) < floor {
                return Err(format!("flow {i}: rate {r} below floor {floor}"));
            }
        }
        if !self.is_work_conserving(rates) {
            return Err("allocation is not work-conserving".into());
        }
        // KKT: per saturated link, the largest fill level among its flows.
        let fill = |i: usize| {
            (rates[i] - self.flows[i].floor.min(self.flows[i].demand)) / self.flows[i].weight
        };
        let mut max_fill = vec![f64::NEG_INFINITY; self.caps.len()];
        for (i, f) in self.flows.iter().enumerate() {
            for &l in &f.path {
                max_fill[l] = max_fill[l].max(fill(i));
            }
        }
        for (i, (f, &r)) in self.flows.iter().zip(rates).enumerate() {
            if r + tol(f.demand.min(1e12)) >= f.demand || f.path.is_empty() {
                continue;
            }
            let bottlenecked = f.path.iter().any(|&l| {
                used[l] >= self.caps[l] - tol(self.caps[l])
                    && fill(i) + 1e-6 * (1.0 + max_fill[l].abs()) >= max_fill[l]
            });
            if !bottlenecked {
                return Err(format!(
                    "flow {i}: below demand but holds the max fill level on no \
                     saturated link (not weighted max-min)"
                ));
            }
        }
        Ok(())
    }

    /// The pre-rewrite allocation: per-link `path.contains` scans and a
    /// fixed iteration cap on the filling loop. Kept verbatim as the
    /// differential-test reference for [`Fluid::rates`] — do not use on
    /// large networks (it is `O(flows × links)` per round) and beware that
    /// the iteration cap can exit before the fill completes (the
    /// non-work-conserving bug the rewrite fixes).
    pub fn rates_reference(&self) -> Vec<f64> {
        let n = self.flows.len();
        let mut rate: Vec<f64> = self.flows.iter().map(|f| f.floor.min(f.demand)).collect();

        // Scale floors down on oversubscribed links (defensive; admission
        // normally prevents this).
        let mut residual = self.caps.clone();
        loop {
            let mut worst: Option<(usize, f64)> = None;
            for (l, &cap) in self.caps.iter().enumerate() {
                let used: f64 = self
                    .flows
                    .iter()
                    .zip(&rate)
                    .filter(|(f, _)| f.path.contains(&l))
                    .map(|(_, r)| r)
                    .sum();
                if used > cap * (1.0 + 1e-9) {
                    let scale = cap / used;
                    if worst.is_none_or(|(_, s)| scale < s) {
                        worst = Some((l, scale));
                    }
                }
            }
            match worst {
                Some((l, scale)) => {
                    for (f, r) in self.flows.iter().zip(rate.iter_mut()) {
                        if f.path.contains(&l) {
                            *r *= scale;
                        }
                    }
                }
                None => break,
            }
        }
        for (l, res) in residual.iter_mut().enumerate() {
            let used: f64 = self
                .flows
                .iter()
                .zip(&rate)
                .filter(|(f, _)| f.path.contains(&l))
                .map(|(_, r)| r)
                .sum();
            *res = (*res - used).max(0.0);
        }

        // Phase 2: weighted progressive filling of the residual.
        let mut active: Vec<bool> = self
            .flows
            .iter()
            .zip(&rate)
            .map(|(f, r)| *r + 1e-9 < f.demand)
            .collect();
        for _ in 0..2 * (n + self.caps.len()) + 2 {
            if !active.iter().any(|&a| a) {
                break;
            }
            // Largest uniform fill level t (rate += weight · t).
            let mut t = f64::INFINITY;
            for (l, &res) in residual.iter().enumerate() {
                let w: f64 = self
                    .flows
                    .iter()
                    .zip(&active)
                    .filter(|(f, &a)| a && f.path.contains(&l))
                    .map(|(f, _)| f.weight)
                    .sum();
                if w > 0.0 {
                    t = t.min(res / w);
                }
            }
            for ((f, &a), &r) in self.flows.iter().zip(&active).zip(&rate) {
                if a && f.demand.is_finite() {
                    t = t.min((f.demand - r) / f.weight);
                }
            }
            if !t.is_finite() {
                // Only unconstrained infinite-demand flows remain.
                break;
            }
            let t = t.max(0.0);
            for (i, f) in self.flows.iter().enumerate() {
                if active[i] {
                    rate[i] += f.weight * t;
                    for &l in &f.path {
                        residual[l] -= f.weight * t;
                    }
                }
            }
            // Freeze flows at demand or on saturated links.
            for (i, f) in self.flows.iter().enumerate() {
                if !active[i] {
                    continue;
                }
                let done =
                    rate[i] + 1e-6 >= f.demand || f.path.iter().any(|&l| residual[l] <= 1e-6);
                if done {
                    active[i] = false;
                }
            }
        }
        rate
    }
}

/// Absolute + relative comparison slack for kbps-scale quantities (shared
/// with the incremental component solver's cached verdicts).
#[inline]
pub(crate) fn tol(magnitude: f64) -> f64 {
    1e-6 + 1e-9 * magnitude.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_link_equal_split() {
        let mut net = Fluid::new();
        let l = net.link(900.0);
        for _ in 0..3 {
            net.flow(FlowSpec::greedy(vec![l]));
        }
        let r = net.rates();
        for &x in &r {
            assert!((x - 300.0).abs() < 1e-6, "{r:?}");
        }
    }

    #[test]
    fn demands_cap_rates() {
        let mut net = Fluid::new();
        let l = net.link(900.0);
        let mut f = FlowSpec::greedy(vec![l]);
        f.demand = 100.0;
        net.flow(f);
        net.flow(FlowSpec::greedy(vec![l]));
        let r = net.rates();
        assert!((r[0] - 100.0).abs() < 1e-6);
        assert!((r[1] - 800.0).abs() < 1e-6, "work conserving: {r:?}");
    }

    #[test]
    fn floors_are_respected() {
        let mut net = Fluid::new();
        let l = net.link(1000.0);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(450.0));
        // Five ungranted flows compete for the rest.
        for _ in 0..5 {
            net.flow(FlowSpec::greedy(vec![l]));
        }
        let r = net.rates();
        assert!(r[0] >= 450.0, "guaranteed flow got {}", r[0]);
        let total: f64 = r.iter().sum();
        assert!((total - 1000.0).abs() < 1e-3, "full utilization: {total}");
        net.verify_max_min(&r).unwrap();
    }

    #[test]
    fn weighted_sharing_of_spare() {
        let mut net = Fluid::new();
        let l = net.link(900.0);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(400.0));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(200.0));
        let r = net.rates();
        // Spare 300 split 2:1 → 600/300.
        assert!((r[0] - 600.0).abs() < 1e-6, "{r:?}");
        assert!((r[1] - 300.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn sub_kbps_guarantees_share_proportionally() {
        // The old `g.max(1.0)` weight clamp made both flows share the spare
        // equally; guarantee-proportional weights keep the 2:1 ratio at any
        // magnitude.
        let mut net = Fluid::new();
        let l = net.link(0.9);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(0.4));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(0.2));
        let r = net.rates();
        assert!((r[0] - 0.6).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 0.3).abs() < 1e-9, "{r:?}");
        net.verify_max_min(&r).unwrap();
    }

    #[test]
    fn zero_guarantee_keeps_token_weight() {
        let mut net = Fluid::new();
        let l = net.link(300.0);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(0.0));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(0.0));
        let r = net.rates();
        // Two zero-guarantee flows share equally via the token weight.
        assert!((r[0] - 150.0).abs() < 1e-6, "{r:?}");
        assert!((r[1] - 150.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn multihop_bottleneck() {
        let mut net = Fluid::new();
        let a = net.link(1000.0);
        let b = net.link(100.0);
        net.flow(FlowSpec::greedy(vec![a, b]));
        net.flow(FlowSpec::greedy(vec![a]));
        let r = net.rates();
        assert!((r[0] - 100.0).abs() < 1e-6);
        assert!((r[1] - 900.0).abs() < 1e-6);
        net.verify_max_min(&r).unwrap();
    }

    #[test]
    fn oversubscribed_floors_scale_down() {
        let mut net = Fluid::new();
        let l = net.link(300.0);
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(400.0));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(200.0));
        let r = net.rates();
        let total: f64 = r.iter().sum();
        assert!(total <= 300.0 + 1e-6);
        assert!(r[0] > r[1], "proportional scale keeps ordering");
    }

    #[test]
    fn empty_network() {
        let net = Fluid::new();
        assert!(net.rates().is_empty());
    }

    /// Build the same flow set twice — incrementally (with interleaved
    /// removals) and from scratch — and require identical allocations.
    #[test]
    fn incremental_removal_matches_fresh_build() {
        // Deterministic pseudo-random flow shapes over a small link set.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let mut net = Fluid::new();
        let links: Vec<usize> = (0..8).map(|i| net.link(500.0 + 100.0 * i as f64)).collect();
        let mk = |a: usize, b: usize, g: f64| {
            let mut path = vec![links[a]];
            if b != a {
                path.push(links[b]);
            }
            FlowSpec::greedy(path).with_guarantee(g)
        };
        let mut live: Vec<FlowSpec> = Vec::new();
        for step in 0..200 {
            if !live.is_empty() && next(3) == 0 {
                let victim = next(net.num_flows());
                let spec = net.remove_flow(victim);
                // remove_flow swap-removes: mirror that on the shadow list.
                let shadow = live.swap_remove(victim);
                assert_eq!(spec.path, shadow.path);
                assert_eq!(spec.floor.to_bits(), shadow.floor.to_bits());
            } else {
                let f = mk(next(8), next(8), (step % 5) as f64 * 50.0);
                live.push(f.clone());
                net.flow(f);
            }
            // The incremental network must allocate like a network rebuilt
            // from the shadow list. Swap-removal permutes the per-link flow
            // lists, so float summation order differs — tolerance equality,
            // not bit equality (that stronger property belongs to
            // `clear_flows` + in-order re-add, tested separately).
            let mut fresh = Fluid::new();
            for &c in &[500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0] {
                fresh.link(c);
            }
            for f in &live {
                fresh.flow(f.clone());
            }
            let a = net.rates();
            let b = fresh.rates();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x - y).abs() < 1e-6 * (1.0 + y.abs()),
                    "step {step}: {x} vs {y}"
                );
            }
            assert!(net.is_work_conserving(&a));
        }
    }

    #[test]
    fn clear_flows_retains_links_and_resets_state() {
        let mut net = Fluid::new();
        let a = net.link(1000.0);
        let b = net.link(100.0);
        net.flow(FlowSpec::greedy(vec![a, b]));
        net.flow(FlowSpec::greedy(vec![a]));
        let first = net.rates();
        net.clear_flows();
        assert_eq!(net.num_flows(), 0);
        assert_eq!(net.num_links(), 2);
        assert!(net.rates().is_empty());
        // Re-adding the same flows reproduces the original allocation.
        net.flow(FlowSpec::greedy(vec![a, b]));
        net.flow(FlowSpec::greedy(vec![a]));
        let again = net.rates();
        for (x, y) in first.iter().zip(&again) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn remove_last_and_only_flows() {
        let mut net = Fluid::new();
        let l = net.link(900.0);
        net.flow(FlowSpec::greedy(vec![l]));
        net.flow(FlowSpec::greedy(vec![l]).with_guarantee(100.0));
        // Removing the last flow needs no rename.
        net.remove_flow(1);
        assert_eq!(net.num_flows(), 1);
        let r = net.rates();
        assert!((r[0] - 900.0).abs() < 1e-6, "{r:?}");
        // Removing the only flow empties the network.
        net.remove_flow(0);
        assert_eq!(net.num_flows(), 0);
        assert!(net.rates().is_empty());
    }

    /// The kernel on a strict subset: of two disjoint components it is
    /// handed one (flows in a caller-chosen order, links ascending) and
    /// must produce, bit for bit, what `rates` produces on a network
    /// holding only that component in that order — nothing of the other
    /// component, and nothing of the per-link index order, may reach the
    /// arithmetic.
    #[test]
    fn kernel_on_one_component_matches_a_network_holding_only_it() {
        let caps = [900.0, 250.0, 700.0, 400.0, 650.0];
        let mut net = Fluid::new();
        for &c in &caps {
            net.link(c);
        }
        // Component A on links {0, 2, 3}, component B on links {1, 4},
        // interleaved; A oversubscribes link 3's floors (phase 1 scales)
        // and holds a finite demand (a flow event in phase 2).
        let mut capped = FlowSpec::greedy(vec![0]).with_guarantee(50.0);
        capped.demand = 120.0;
        let a_specs = [
            FlowSpec::greedy(vec![0, 2]).with_guarantee(100.0),
            FlowSpec::greedy(vec![2, 3]).with_guarantee(300.0),
            capped,
            FlowSpec::greedy(vec![3]).with_guarantee(250.0),
            FlowSpec::greedy(vec![0, 3]),
        ];
        let b_specs = [
            FlowSpec::greedy(vec![1, 4]).with_guarantee(80.0),
            FlowSpec::greedy(vec![4]),
            FlowSpec::greedy(vec![1]).with_guarantee(200.0),
        ];
        let mut a_ids = Vec::new();
        for k in 0..a_specs.len().max(b_specs.len()) {
            if let Some(f) = a_specs.get(k) {
                a_ids.push(net.flow(f.clone()) as u32);
            }
            if let Some(f) = b_specs.get(k) {
                net.flow(f.clone());
            }
        }
        // Scramble the per-link index: remove and re-add a B flow, which
        // swap-renames the last flow (an A flow) and reorders link lists.
        let moved = net.num_flows() as u32 - 1;
        assert_eq!(a_ids.last(), Some(&moved));
        let spec = net.remove_flow(1);
        net.flow(spec);
        *a_ids.last_mut().unwrap() = 1;
        // Hand the kernel A in reverse order.
        a_ids.reverse();

        let mut scratch = FillScratch::default();
        net.fill(&a_ids, &[0, 2, 3], &mut scratch);

        let mut only_a = Fluid::new();
        for &c in &caps {
            only_a.link(c);
        }
        for f in a_specs.iter().rev() {
            only_a.flow(f.clone());
        }
        let want = only_a.rates();
        assert_eq!(scratch.rate.len(), want.len());
        for (got, want) in scratch.rate.iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        }
        assert!(want[1] < 250.0, "phase-1 scaling engaged: {want:?}");
        for (got, reference) in scratch.rate.iter().zip(only_a.rates_reference()) {
            assert!(
                (got - reference).abs() < 1e-6 * (1.0 + reference.abs()),
                "{got} vs reference {reference}"
            );
        }
        // And the whole network, solved globally, agrees on A's flows.
        let all = net.rates();
        for (got, &fi) in scratch.rate.iter().zip(&a_ids) {
            let global = all[fi as usize];
            assert!(
                (got - global).abs() < 1e-6 * (1.0 + global.abs()),
                "{got} vs global {global}"
            );
        }
    }

    #[test]
    fn termination_is_exact_on_a_long_freeze_cascade() {
        // A chain of links with strictly decreasing spare capacity freezes
        // exactly one flow per round — the shape that exhausted the
        // reference implementation's fixed iteration cap when scaled up.
        let mut net = Fluid::new();
        let mut links = Vec::new();
        for i in 0..60 {
            links.push(net.link(1000.0 + 10.0 * i as f64));
        }
        for (i, &l) in links.iter().enumerate() {
            // One private flow per link plus one flow crossing all links.
            net.flow(FlowSpec::greedy(vec![l]).with_guarantee(100.0 + i as f64));
        }
        net.flow(FlowSpec::greedy(links.clone()));
        let r = net.rates();
        assert!(net.is_work_conserving(&r));
        net.verify_max_min(&r).unwrap();
        // And it matches the reference on this instance.
        let reference = net.rates_reference();
        for (a, b) in r.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }
}
