//! Incremental, component-scoped fluid solver: every per-step cost is
//! proportional to the *churned* part of the network, not the whole of it.
//!
//! Weighted max-min fairness decomposes exactly over the connected
//! components of the flow/link graph: a component's allocation depends
//! only on its own flows and links, never on the rest of the network.
//! [`IncrementalFluid`] exploits that in four respects:
//!
//! * **Persistent layouts.** Each component keeps the kernel's input
//!   between solves (a `Layout`, see [`crate::fluid`]). Each flow sits in
//!   a *slot* it keeps while it stays in the component, holding its path
//!   (global links), starting rate, demand, weight, last rate and fill-log
//!   entry. The links are ascending, and each keeps a *row*: its flows'
//!   slots in canonical key order. Phase 1's per-link floor sums are kept
//!   too. Layouts live in a pooled slab and are found through the
//!   component's label; a flow's slot is found through its stable id.
//! * **Dirty set by label.** Every link on the path of a flow added or
//!   removed since the last solve, and every link whose capacity changed,
//!   is *touched*; the components to re-solve are the labels of the
//!   touched links. A removed flow touches every link it crossed, so every
//!   remnant of a component the removal split holds a touched link, and a
//!   component with no touched link faced the identical subproblem last
//!   step.
//! * **Patched, not rebuilt.** The dirty layouts the step's added flows
//!   join (a union-find over the touched labels) become one candidate:
//!   the largest of them, patched in place at the cost of what churned. A
//!   removed flow leaves the rows of its links and frees its slot; a row
//!   that loses few entries finds them by key search, one that loses many
//!   drops them in one pass. The rows are renumbered to the candidate's
//!   links (a list of row headers, not the rows), and paths, which name
//!   global links, need no remap. The other layouts' flows move in, each
//!   of their rows whole; the added flows take free slots in key order
//!   (they are sorted by key, the only sort of flows left) and are spliced
//!   into the rows they cross, each by key search or, if many, by a merge
//!   along the row. Only the added flows' specs are read
//!   ([`SolveStats::flows_flattened`]); [`SolveStats::patch_items`] counts
//!   the path items and row entries the patch visits. A candidate that
//!   lost a flow may fall apart: a union-find over its links finds its
//!   connected pieces, reading the rows of the touched links first and
//!   stopping as soon as those are joined, which proves it whole. The
//!   largest piece keeps its slots, rows and fill log in place; each other
//!   piece moves to a layout of its own. A component whose flows did not
//!   change (a capacity change alone) comes through the patch as it was.
//!   Once over a quarter of a layout's slots are free, its flows move down
//!   to the lowest slots after its fill, so free slots cost memory only
//!   while churn refills them.
//! * **Localized rounds.** Even an all-dirty step is far cheaper than one
//!   global [`Fluid::rates`] call: each progressive-filling round reads
//!   only links of the component it solves, never every link in the
//!   network, so total cost is at most `Σ_c rounds_c × links_c` instead
//!   of `rounds_total × links_total` — orders of magnitude less on a
//!   fat-tree where placement keeps tenants in rack/pod-scoped
//!   components. Within a component a round drains lazily: it reads only
//!   the links a heap says may be its event or saturate, and those its
//!   freezes touch, with every rate the bits a scan of every link per
//!   round gives (see [`crate::fluid`]). [`SolveStats`] counts the rounds
//!   and the link visits.
//! * **Resumed fills.** A component re-solves from the first round of its
//!   last fill that the step's churn could change, not from round 0; see
//!   below.
//!
//! ## Resumed fills
//!
//! A layout of at least 4,096 flows (by default; see
//! [`IncrementalFluid::set_resume_from`] and `RESUME_FROM` for the
//! measurement behind it) keeps a log of its last fill (the kernel's
//! `FillLog`):
//!
//! * per round: the fill level after it, its step and its event;
//! * per flow: the round it froze in, or that it was idle when phase 2
//!   began, or that it never froze;
//! * per link: its residual, active weight sum and active count when
//!   phase 2 began; the round it saturated in; and a *breakpoint*, those
//!   three values again, after each round that froze one of its flows.
//!   The breakpoints of all links form one list in round order.
//!
//! The per-flow entries stay in the flows' slots, like the starting rates,
//! and the log also lists the freezes in round order; the per-link ones
//! are carried and renumbered with the links, like the floor sums. A link touched this step (a flow added or
//! removed on it, or a new capacity) or new to the layout (a new link, or
//! one of a layout merged in) is *changed*, its entries void; a flow new
//! to the layout, merged-in ones included, is *added*.
//!
//! The solve finds k\*, the first logged round the changes could alter,
//! as the least of: the round a removed flow froze in; the round a
//! touched link saturated in; for each changed link, the round at which
//! its new residual and weight sum, replayed through the logged rounds
//! with the kernel's arithmetic and freeze order, come within `slack` of
//! the round's step (the event, or a tie with it) or drain to the
//! saturation threshold; and for each added finite-demand flow, the round
//! in which it could reach its demand. The kernel then restores its state
//! at k\* and runs only the rounds from k\* on
//! ([`SolveStats::rounds_reused`]). The largest piece of a split keeps
//! the log: the flows of the other pieces count as removed, so k\* is at
//! most the first round one of them froze in, and until then every
//! round's event and freezes lay in the largest piece, so they are the
//! rounds its own fill runs; the other pieces' links leave the log. A
//! component whose phase 1 scaled a floor (in this fill or the logged
//! one), or that has no log (a new one, one of the other pieces of a
//! split, or a small one) fills from round 0
//! ([`SolveStats::full_solves`]).
//!
//! The reused prefix is exact, not approximate. Before k\* every round
//! has the logged event, step and freezes: an unchanged link carries the
//! same flows, so the same sums; a changed link is neither the event nor
//! tied with it nor saturated; no removed flow froze and no touched link
//! saturated; no added flow reached its demand. So the state at k\* is
//! the state a fill from round 0 reaches there: an unchanged link's is its
//! last breakpoint before k\* plus the logged steps since (replayed as it
//! is read, as the kernel's rounds replay), a changed link's is what its
//! replay reached, and a flow frozen before k\* keeps the rate its round's
//! fill level gave it, which its slot still holds. So the restore reopens
//! only the flows the log lists as frozen from k\* on, and the added ones;
//! it never passes over every flow. The log a resumed fill leaves is, entry
//! for entry, the one a fill from round 0 leaves. Debug builds run that
//! full fill beside every resumed one and assert equal rate and log bits.
//!
//! A resumed fill changed only the flows frozen from k\* on: only those
//! are written back and listed in [`IncrementalFluid::resolved_keys`], and
//! only the changed links and the links of those flows are re-summed and
//! listed in [`IncrementalFluid::changed_links`]. A kept flow's rate and
//! demand did not change, so its starvation is re-judged only where one of
//! its links flipped its (cached) saturation.
//!
//! ## What is cached, and why each cache is exact
//!
//! Beside the rates and the layouts the solver keeps, per link, the
//! **load** (number of flows crossing it), the **usage** (Σ rate of the
//! link's flows), an **over-capacity** flag, a **saturated** flag (for a
//! link carrying a flow) and a **component label** (the
//! lowest link of the link's component); per flow, a **starved** flag
//! (below demand with no saturated link on its path); and three integers:
//! links over capacity, flows starved, and the number of components.
//! Every one of them but the load is a *pure function of the current flow
//! set and capacities, recomputed whole* for the links and flows of each
//! component the step re-solved (and reset for a touched link left
//! without flows) — never adjusted by a float delta. A resumed fill
//! recomputes them for what it changed (see above), and a layout's fill
//! log is re-derived like the layout. A clean component's
//! flows, rates and capacities did not change, so neither did anything
//! derived from them; the counters move only by the exact integer
//! difference of the flags that were rewritten. Usage is summed along the
//! link's row, in the canonical flow order below, so it too is independent
//! of churn history and of the slots the flows sit in. A layout's floor
//! sum is re-summed only for a touched link: any other link of the
//! candidate holds the same row. The load is an integer moved by ±1 per
//! flow.
//! [`IncrementalFluid::is_work_conserving`] is therefore two integer
//! comparisons, and the component count is
//! `old − (components in the dirty set) + (components re-solved)`. Debug
//! builds re-derive all of it, every stored layout and fill log included,
//! from scratch after every engine solve and assert bit-equality.
//!
//! ## Determinism
//!
//! Every dirty component is solved by the one max-min kernel the global
//! [`Fluid::rates`] uses (`Fluid::fill`, see [`crate::fluid`]), handed the
//! component's links ascending and, per link, a row of its flows ordered
//! by a caller-supplied `(tenant, sequence)` key. Every per-link sum runs
//! along a row, and every other loop whose order reaches the arithmetic
//! follows key order too: the finite-demand list, a round's freezes and a
//! replayed round's ties. Slot numbers reach nothing. A resumed fill
//! reuses only rounds that a fill from round 0 repeats bit for bit. The
//! allocation is therefore a pure function of the surviving flow set: a
//! solver that churned through any history holds **bit-identical** rates,
//! usage and verdicts to a fresh one fed the same final state. Keys are
//! meant to be distinct; two equal keys are ordered by stable id, which
//! does depend on history. All solver scratch — the union-find, the
//! sorted added keys, the row edits, the kernel's rate vectors, freeze
//! queues — every fill log, and every retired layout of up to 4,096 flows
//! are pooled across steps and never cleared wholesale, so a steady-state
//! solve allocates nothing (this crate's `tests/solve_allocations.rs`
//! counts). A layout's rows and paths live in arenas that grow by an
//! eighth at a time and are compacted in place once their garbage passes
//! a quarter. A larger retired layout, and scratch a one-off peak left
//! over four times too big, give their memory back instead of holding it
//! for the rest of the run.

#![warn(clippy::float_cmp)]

use crate::fluid::{
    tol, trim, FillScratch, FlowSpec, Fluid, Layout, LinkAt, Params, RowScratch, Rows, CHANGED,
    FREE, NEVER,
};

/// Component label of a link no flow crosses.
const NO_COMPONENT: u32 = u32::MAX;

/// A free stable id; as a slab entry, the added flows among the merge's
/// sources, or the piece that stays in the candidate.
const NONE: u32 = u32::MAX;

/// What one [`IncrementalFluid::solve`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Components re-solved this step.
    pub components_dirty: usize,
    /// Connected components among links carrying at least one flow.
    pub components_total: usize,
    /// Progressive-filling rounds the max-min kernel ran over the dirty
    /// components; each round freezes at least one flow, so this is at
    /// most the number of flows re-solved.
    pub fill_rounds: usize,
    /// Σ over those rounds of the links a round reads: the links it pops
    /// from its heap and the links its freezes touch first. At most
    /// `fill_rounds` × the dirty components' links. Like every field here,
    /// a deterministic count.
    pub link_visits: usize,
    /// Flow specs the solve read: the flows added since the last solve.
    /// Every other flow of a dirty component comes from its stored layout.
    pub flows_flattened: usize,
    /// Rounds of the dirty components' last fills that their solves
    /// reused instead of running: each resumed at the first round its
    /// churn could change. `fill_rounds + rounds_reused` is what solving
    /// every dirty component from round 0 would run.
    pub rounds_reused: usize,
    /// Flows of the dirty components that kept their rate, frozen in a
    /// reused round, and were neither written back nor re-scored.
    pub flows_reused: usize,
    /// Dirty components solved from round 0 without looking for a round
    /// to resume at: one without a log (new, a piece of a split other than
    /// the largest, or small), or one whose phase 1 scaled a link, then or
    /// now.
    pub full_solves: usize,
    /// Path items and row entries the patches, splits and resumed fills'
    /// restores visited one at a time: the items of each removed, added,
    /// merged-in or split-off flow's path, each row entry spliced in or
    /// out, each probe of the key searches that place them, each row entry
    /// of a merged-in or split-off row, and each entry of the fill log a
    /// restore reopens or replays. Block copies are not counted. A patch
    /// costs what churned, not what its component holds, so this does not
    /// grow with the component.
    pub patch_items: usize,
}

/// A [`Fluid`] network solved component-by-component under churn (see the
/// [module docs](self)). Flows are addressed by **stable ids** that
/// survive the underlying network's swap-removals.
#[derive(Debug)]
pub struct IncrementalFluid {
    net: Fluid,
    flows: FlowState,
    links: LinkState,
    /// The components' layouts: a slab whose spare entries keep their
    /// allocations.
    layouts: Vec<Layout>,
    /// Spare slab entries.
    spare: Vec<u32>,
    /// Per link: the slab entry of the layout of the component it labels
    /// (meaningful where `label[l] == l`).
    layout_at: Vec<u32>,
    /// Connected components among links carrying at least one flow.
    components: usize,
    /// Links whose usage or capacity the last solve may have changed: each
    /// re-solved component's links as one ascending slice, and between the
    /// slices the touched links found without flows.
    changed_links: Vec<u32>,
    /// Ascending distinct first key components of the flows the last
    /// solve re-solved.
    resolved_keys: Vec<u64>,
    /// The least flows of a layout that keeps a fill log.
    resume_from: usize,
    scratch: Scratch,
}

/// Per-flow state: dense-indexed (aligned with the network's flows) unless
/// noted.
#[derive(Debug, Default)]
struct FlowState {
    /// Stable id → dense flow index (`NONE` when free).
    slots: Vec<u32>,
    /// Stable ids free for reuse.
    free: Vec<u32>,
    /// Stable ids removed since the last solve. They become reusable only
    /// after it, so no stored layout can name an id that a newer flow
    /// took over within one step.
    freed: Vec<u32>,
    /// Dense flow index → stable id.
    slot_of: Vec<u32>,
    /// Stable id → canonical sort key (tenant id, sequence). A removed
    /// flow's key stays until its id is reused, after the next solve.
    keys: Vec<(u64, u32)>,
    /// Dense flow index → last solved rate.
    rates: Vec<f64>,
    /// Dense flow index → at the last solve the flow sat below its demand
    /// with no saturated link on its path.
    starved: Vec<bool>,
    /// Flows with `starved` set.
    starved_count: usize,
    /// Stable ids added since the last solve.
    added: Vec<u32>,
    /// Stable id → its slot in its component's layout (`NONE` until a
    /// solve places it).
    at: Vec<u32>,
    /// `(label, slot)` of each flow removed since the last solve that
    /// had a slot: its component's label then, and its slot there.
    gone: Vec<(u32, u32)>,
}

impl FlowState {
    /// Whether stable id `id` names a live flow.
    #[inline]
    fn live(&self, id: u32) -> bool {
        self.slots[id as usize] != NONE
    }

    /// The packed `(tenant, sequence, stable id)` merge key of flow `id`,
    /// live or removed since the last solve.
    #[inline]
    fn key(&self, id: u32) -> u128 {
        let (group, seq) = self.keys[id as usize];
        u128::from(group) << 64 | u128::from(seq) << 32 | u128::from(id)
    }
}

/// Per-link state, indexed by link.
#[derive(Debug)]
struct LinkState {
    /// Number of live flows crossing the link.
    load: Vec<u32>,
    /// On the path of a flow added/removed, or re-capped, since the last
    /// solve.
    touched: Vec<bool>,
    touched_list: Vec<u32>,
    /// Σ rate of the link's flows, in canonical key order (0.0 for a link
    /// no flow crosses).
    used: Vec<f64>,
    /// "Usage exceeds capacity beyond tolerance".
    over: Vec<bool>,
    /// "Usage reaches capacity within tolerance", for a link carrying a
    /// flow.
    sat: Vec<bool>,
    /// Links with `over` set.
    over_count: usize,
    /// Lowest link of the link's component (`NO_COMPONENT` for a link no
    /// flow crosses).
    label: Vec<u32>,
}

impl LinkState {
    fn touch(&mut self, l: usize) {
        if !self.touched[l] {
            self.touched[l] = true;
            self.touched_list.push(l as u32);
        }
    }

    /// The union-find node link `l` (carrying a flow) belongs to: its
    /// component's label, or the link itself if it carried no flow at the
    /// last solve.
    #[inline]
    fn node(&self, l: usize) -> u32 {
        match self.label[l] {
            NO_COMPONENT => l as u32,
            lab => lab,
        }
    }
}

/// One group of a solve: dirty components and added flows the union-find
/// joined, as ranges of the scratch lists.
#[derive(Debug, Clone, Copy)]
struct Group {
    dirty: (usize, usize),
    new_links: (usize, usize),
    new_flows: (usize, usize),
}

/// Pooled solver scratch, reused across steps and components.
#[derive(Debug, Default)]
struct Scratch {
    /// Monotone stamp for `node_seen`; stale entries are strictly below
    /// it, so the map is never cleared.
    stamp: u64,
    /// Link → stamp of the solve that made it a union-find node.
    node_seen: Vec<u64>,
    /// Union-find parent of a node; a root is the lowest node of its set.
    parent: Vec<u32>,
    /// `(root, label)` of every dirty component.
    dirty: Vec<(u32, u32)>,
    /// `(root, link)` of every touched link that carries a flow now and
    /// carried none at the last solve (only added flows cross it).
    new_links: Vec<(u32, u32)>,
    /// Packed keys of the added flows, ascending.
    new_keys: Vec<u128>,
    /// `(root, position in new_keys)` of every added flow, ascending.
    new_flows: Vec<(u32, u32)>,
    /// The group's candidate: the largest dirty layout, parked here while
    /// it is patched, or the group's new layout.
    cand: Layout,
    /// The candidate's links with the floor sum their layout held (0.0
    /// for a new link; a touched link's is re-summed) and their position
    /// in the largest dirty layout (`NONE`: from another, or new).
    cand_links: Vec<(u32, f64, u32)>,
    /// The candidate's links' fill-log entries, gathered.
    link_log: Vec<(LinkAt, u32)>,
    /// Link → its local link in the layout being patched or solved.
    link_local: Vec<u32>,
    /// Row edits: the removed or the added flows' entries, `(local link,
    /// slot)`, the added ones in key order.
    edits: Vec<(u32, u32)>,
    /// Rows that lose many entries, dropped in one pass.
    linear: Vec<u32>,
    /// Local link → the end of its added entries in `by_link`.
    lcount: Vec<u32>,
    /// The added flows' slots grouped by local link, each group in key
    /// order.
    by_link: Vec<u32>,
    /// A row's edit positions.
    at: Vec<u32>,
    /// A row's insertions, `(position, slot)`.
    ins: Vec<(u32, u32)>,
    /// A merged-in or split-off layout's slot → its slot in the layout it
    /// joins (`NONE`: not moved).
    slot_map: Vec<u32>,
    /// A row being moved.
    row: Vec<u32>,
    rows: RowScratch,
    /// Slab entries of the group's results, one per piece.
    pieces: Vec<u32>,
    split: SplitScratch,
    /// Local link → its usage is rewritten.
    lmark: Vec<bool>,
    /// Local links whose saturation a resumed fill flipped.
    flipped: Vec<u32>,
    /// Debug builds: the full fill each resumed one is checked against.
    #[cfg(debug_assertions)]
    full: (FillScratch, crate::fluid::FillLog),
    /// The kernel's scratch.
    fill: FillScratch,
}

/// [`split`]'s pooled buffers.
#[derive(Debug, Default)]
struct SplitScratch {
    /// Union-find over the candidate's local links; a root is the lowest
    /// link of its set.
    uf: Vec<u32>,
    /// Local link → reached by the search.
    seen: Vec<bool>,
    /// Local link → the next link of its set's queue (`NONE`: last).
    next: Vec<u32>,
    /// Root → the first and last link of its set's queue of links still
    /// to expand (`NONE` if empty: the set is a whole piece).
    queue: Vec<(u32, u32)>,
    /// Root → flows and path items its set reached.
    reached: Vec<(u32, u32)>,
    /// The roots of the sets still growing, visited in turn.
    open: Vec<u32>,
    /// Slot → the search that last reached its flow.
    stamp: Vec<u32>,
    /// The current search.
    now: u32,
    /// Local link → its piece.
    link_piece: Vec<u32>,
    /// `(flows, path items, links)` per piece.
    piece_size: Vec<(u32, u32, u32)>,
}

impl Scratch {
    /// Make `x` a union-find node of this solve; false if it already is.
    fn node(&mut self, x: u32) -> bool {
        let seen = &mut self.node_seen[x as usize];
        if *seen == self.stamp {
            return false;
        }
        *seen = self.stamp;
        self.parent[x as usize] = x;
        true
    }
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Join the sets of `a` and `b`, the larger root under the smaller.
fn union(parent: &mut [u32], a: u32, b: u32) {
    let (a, b) = (find(parent, a), find(parent, b));
    parent[a.max(b) as usize] = a.min(b);
}

/// Rewrite a cached flag, moving its counter by the exact difference.
#[inline]
fn set_flag(flag: &mut bool, count: &mut usize, on: bool) {
    if *flag != on {
        if on {
            *count += 1;
        } else {
            *count -= 1;
        }
        *flag = on;
    }
}

/// The end of the run of `v[from..]` under root `root`.
fn run_end<T>(v: &[(u32, T)], from: usize, root: u32) -> usize {
    from + v[from..].iter().take_while(|e| e.0 == root).count()
}

/// Retired layout entries keep their buffers up to this many flows. A
/// larger entry gives its memory back: it would hold it for whatever
/// small component takes the entry next.
const KEEP_FLOWS: usize = 4096;

/// By default a layout of fewer flows keeps no fill log
/// ([`crate::fluid::FillLog`]): its fills start from round 0. Measured by
/// running each dirty layout's fill again, logged and unlogged from round
/// 0 in alternating order (release build, 2-core x86 host; `child --seed
/// 1`, `fault_repair` 900 arrivals, `spine_2k` and `spine_131k` 170), with
/// every layout of 64 flows or more logging: summed per size band (64–255,
/// 256–1,023 and 1,024–4,095 flows), a logged fill took 30–90 % longer
/// than an unlogged one, and a resumed fill 0.8–2.8× as long as an
/// unlogged one, no saving overall. From 4,096 flows on, the log cost
/// 20–24 % and a resumed fill took 44–70 % of an unlogged one; those
/// giant components held 96–99 % of `fault_repair`'s and `spine_2k`'s fill
/// time. `spine_131k` has none.
const RESUME_FROM: usize = 4096;

/// Return a read layout's entry to the spare pool.
fn retire(layouts: &mut [Layout], spare: &mut Vec<u32>, slot: u32) {
    let lay = &mut layouts[slot as usize];
    if lay.flows.capacity() > KEEP_FLOWS {
        *lay = Layout::default();
    }
    spare.push(slot);
}

/// A spare slab entry, or a new one.
fn take_spare(layouts: &mut Vec<Layout>, spare: &mut Vec<u32>) -> u32 {
    spare.pop().unwrap_or_else(|| {
        layouts.push(Layout::default());
        (layouts.len() - 1) as u32
    })
}

impl IncrementalFluid {
    /// Wrap a network whose links are laid out but which carries no flows
    /// yet (the [`crate::route::RouteCache::build`] contract).
    pub fn new(net: Fluid) -> Self {
        assert_eq!(net.num_flows(), 0, "wrap an empty network");
        let nl = net.num_links();
        IncrementalFluid {
            net,
            flows: FlowState::default(),
            links: LinkState {
                load: vec![0; nl],
                touched: vec![false; nl],
                touched_list: Vec::new(),
                used: vec![0.0; nl],
                over: vec![false; nl],
                sat: vec![false; nl],
                over_count: 0,
                label: vec![NO_COMPONENT; nl],
            },
            layouts: Vec::new(),
            spare: Vec::new(),
            layout_at: vec![NONE; nl],
            components: 0,
            changed_links: Vec::new(),
            resolved_keys: Vec::new(),
            resume_from: RESUME_FROM,
            scratch: Scratch::default(),
        }
    }

    /// Keep a fill log, and so resume re-solves, only for components of
    /// at least `flows` flows (4,096 unless set). Rates do not depend on
    /// it, only the cost of a re-solve: it lets tests drive resumed fills
    /// on small networks, where the debug shadow checks each one.
    pub fn set_resume_from(&mut self, flows: usize) {
        self.resume_from = flows;
    }

    /// The wrapped network (flows in dense order, aligned with
    /// [`IncrementalFluid::rates`]).
    pub fn fluid(&self) -> &Fluid {
        &self.net
    }

    /// Number of live flows.
    pub fn num_flows(&self) -> usize {
        self.net.num_flows()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.net.num_links()
    }

    /// Add a flow under a canonical `(tenant, sequence)` ordering key;
    /// returns a stable id valid until `remove_flow`/`clear_flows`.
    pub fn add_flow(&mut self, spec: FlowSpec, key: (u64, u32)) -> u32 {
        let dense = self.net.flow(spec) as u32;
        for &l in &self.net.flows()[dense as usize].path {
            self.links.touch(l);
            self.links.load[l] += 1;
        }
        let f = &mut self.flows;
        debug_assert_eq!(dense as usize, f.slot_of.len());
        let stable = match f.free.pop() {
            Some(s) => {
                f.slots[s as usize] = dense;
                f.keys[s as usize] = key;
                f.at[s as usize] = NONE;
                s
            }
            None => {
                f.slots.push(dense);
                f.keys.push(key);
                f.at.push(NONE);
                (f.slots.len() - 1) as u32
            }
        };
        f.slot_of.push(stable);
        f.rates.push(0.0);
        f.starved.push(false);
        f.added.push(stable);
        stable
    }

    /// Remove the flow behind stable id `id`. Its links are touched: the
    /// next solve re-solves whatever components remain on them.
    pub fn remove_flow(&mut self, id: u32) {
        let f = &mut self.flows;
        let dense = f.slots[id as usize] as usize;
        let spec = self.net.remove_flow(dense);
        for &l in &spec.path {
            self.links.touch(l);
            self.links.load[l] -= 1;
        }
        let slot = std::mem::replace(&mut f.at[id as usize], NONE);
        if slot != NONE {
            f.gone.push((self.links.label[spec.path[0]], slot));
        }
        f.slots[id as usize] = NONE;
        f.freed.push(id);
        // Mirror the network's swap-remove on the dense-indexed state.
        f.slot_of.swap_remove(dense);
        f.rates.swap_remove(dense);
        if f.starved.swap_remove(dense) {
            f.starved_count -= 1;
        }
        if dense < f.slot_of.len() {
            f.slots[f.slot_of[dense] as usize] = dense as u32;
        }
    }

    /// Change the capacity of link `l` (fault injection / repair),
    /// touching it so the component whose flows cross it re-solves on the
    /// next [`IncrementalFluid::solve`]. A link no flow crosses belongs to
    /// no component; the solve only reports it as changed. Returns whether
    /// the capacity actually changed.
    pub fn set_link_cap(&mut self, l: usize, cap_kbps: f64) -> bool {
        #[expect(
            clippy::float_cmp,
            reason = "intentional bit-exact \"did the stored capacity change at all\" dirty check; no arithmetic feeds either side"
        )]
        if self.net.link_cap(l) == cap_kbps {
            return false;
        }
        self.net.set_link_cap(l, cap_kbps);
        self.links.touch(l);
        true
    }

    /// Drop every flow; links, capacities and scratch allocations survive,
    /// and every layout returns to the pool. Every link's usage returns to
    /// zero, so a caller caching anything derived from
    /// [`IncrementalFluid::link_usage`] refreshes all of it.
    pub fn clear_flows(&mut self) {
        self.net.clear_flows();
        let f = &mut self.flows;
        f.slots.clear();
        f.free.clear();
        f.freed.clear();
        f.slot_of.clear();
        f.keys.clear();
        f.rates.clear();
        f.starved.clear();
        f.starved_count = 0;
        f.added.clear();
        f.at.clear();
        f.gone.clear();
        let ls = &mut self.links;
        ls.load.fill(0);
        ls.touched.fill(false);
        ls.touched_list.clear();
        ls.used.fill(0.0);
        ls.over.fill(false);
        ls.sat.fill(false);
        ls.over_count = 0;
        ls.label.fill(NO_COMPONENT);
        self.spare.clear();
        self.spare.extend(0..self.layouts.len() as u32);
        self.components = 0;
        self.changed_links.clear();
        self.resolved_keys.clear();
    }

    /// Last solved rate of the flow behind stable id `id`.
    pub fn rate_of(&self, id: u32) -> f64 {
        self.flows.rates[self.flows.slots[id as usize] as usize]
    }

    /// Last solved rates in dense order (aligned with
    /// `self.fluid().flows()`).
    pub fn rates(&self) -> &[f64] {
        &self.flows.rates
    }

    /// Canonical `(tenant, sequence)` key of the flow at dense index
    /// `dense` (aligned with [`IncrementalFluid::rates`]): which flow
    /// belongs to whom, for tests that rebuild the component structure
    /// from scratch.
    pub fn key(&self, dense: usize) -> (u64, u32) {
        let id = self.flows.slot_of[dense];
        self.flows.keys[id as usize]
    }

    /// Per-link usage as of the last solve: Σ rate of the link's flows,
    /// summed in canonical key order (so a churned solver and a fresh one
    /// agree bit for bit), 0.0 for a link no flow crosses.
    pub fn link_usage(&self) -> &[f64] {
        &self.links.used
    }

    /// Links whose usage or capacity the last solve may have changed: the
    /// links of every component it re-solved plus the touched links it
    /// found without flows (emptied, or re-capped while idle). No order,
    /// no duplicates.
    pub fn changed_links(&self) -> &[u32] {
        &self.changed_links
    }

    /// The ascending, de-duplicated first key component (the tenant id, in
    /// the traffic engine) of every flow the last solve re-solved. A flow
    /// whose key is absent kept its rate verbatim.
    pub fn resolved_keys(&self) -> &[u64] {
        &self.resolved_keys
    }

    /// Whether the last solved allocation is work-conserving
    /// ([`Fluid::is_work_conserving`] semantics): no link over capacity,
    /// and no flow below its demand without a saturated link on its path.
    /// Both are cached counts (see the [module docs](self)).
    pub fn is_work_conserving(&self) -> bool {
        self.links.over_count == 0 && self.flows.starved_count == 0
    }

    /// Re-solve every dirty component, keep every clean component's rates
    /// verbatim, and return what was done. See the [module docs](self).
    pub fn solve(&mut self) -> SolveStats {
        let old_dirty = self.collect_dirty();
        let mut stats = SolveStats::default();
        let (mut d, mut nl, mut nf) = (0, 0, 0);
        // Groups ascending by root. Every added flow's root is a dirty
        // label's or a new link's, and the lists are sorted by root.
        while d < self.scratch.dirty.len() || nl < self.scratch.new_links.len() {
            let s = &self.scratch;
            let root = match (s.dirty.get(d), s.new_links.get(nl)) {
                (Some(a), Some(b)) => a.0.min(b.0),
                (Some(a), None) => a.0,
                (None, b) => b.map_or(NONE, |b| b.0),
            };
            let group = Group {
                dirty: (d, run_end(&s.dirty, d, root)),
                new_links: (nl, run_end(&s.new_links, nl, root)),
                new_flows: (nf, run_end(&s.new_flows, nf, root)),
            };
            (d, nl, nf) = (group.dirty.1, group.new_links.1, group.new_flows.1);
            self.solve_group(group, &mut stats);
        }
        self.components = self.components - old_dirty + stats.components_dirty;
        stats.components_total = self.components;
        // Each component contributed its keys as its slots gave them.
        self.resolved_keys.sort_unstable();
        self.resolved_keys.dedup();
        let (f, ls) = (&mut self.flows, &mut self.links);
        for &l in &ls.touched_list {
            ls.touched[l as usize] = false;
        }
        ls.touched_list.clear();
        f.added.clear();
        f.free.append(&mut f.freed);
        f.gone.clear();
        let s = &mut self.scratch;
        trim(&mut s.new_keys);
        trim(&mut s.new_flows);
        trim(&mut s.edits);
        trim(&mut s.by_link);
        stats
    }

    /// Find the dirty set and group it: reset and report the touched links
    /// left without flows, make every other touched link's component (or
    /// the link itself, if it carried no flow before) a union-find node,
    /// join the nodes each added flow crosses, and list the dirty
    /// components, new links and added flows sorted by their root.
    /// Returns the number of dirty components.
    fn collect_dirty(&mut self) -> usize {
        let nl = self.net.num_links();
        let Self {
            net,
            flows,
            links: ls,
            changed_links,
            resolved_keys,
            scratch: s,
            ..
        } = self;
        s.stamp += 1;
        s.node_seen.resize(nl, 0);
        s.parent.resize(nl, 0);
        s.link_local.resize(nl, 0);
        s.dirty.clear();
        s.new_links.clear();
        s.new_keys.clear();
        s.new_flows.clear();
        changed_links.clear();
        resolved_keys.clear();
        for ti in 0..ls.touched_list.len() {
            let l = ls.touched_list[ti] as usize;
            let lab = ls.label[l];
            if lab != NO_COMPONENT && s.node(lab) {
                s.dirty.push((lab, lab));
            }
            if ls.load[l] == 0 {
                ls.label[l] = NO_COMPONENT;
                ls.used[l] = 0.0;
                set_flag(&mut ls.over[l], &mut ls.over_count, false);
                changed_links.push(l as u32);
            } else if lab == NO_COMPONENT {
                s.node(l as u32);
                s.new_links.push((l as u32, l as u32));
            }
        }
        // A flow removed again before this solve is dead; a flow on no
        // link belongs to no component.
        let added_path = |id: u32| match flows.slots[id as usize] {
            NONE => None,
            d => Some(&net.flows()[d as usize].path).filter(|p| !p.is_empty()),
        };
        for &id in &flows.added {
            if let Some(path) = added_path(id) {
                let a = ls.node(path[0]);
                for &l in &path[1..] {
                    union(&mut s.parent, a, ls.node(l));
                }
            }
        }
        for e in &mut s.dirty {
            e.0 = find(&mut s.parent, e.1);
        }
        for e in &mut s.new_links {
            e.0 = find(&mut s.parent, e.1);
        }
        // The added flows by root, then key: sorted by key once, then by
        // (root, rank in key order).
        s.new_keys.extend(
            flows
                .added
                .iter()
                .filter(|&&id| added_path(id).is_some())
                .map(|&id| flows.key(id)),
        );
        s.new_keys.sort_unstable();
        for (rank, &key) in s.new_keys.iter().enumerate() {
            let path = &net.flows()[flows.slots[key as u32 as usize] as usize].path;
            let root = find(&mut s.parent, ls.node(path[0]));
            s.new_flows.push((root, rank as u32));
        }
        s.dirty.sort_unstable();
        s.new_links.sort_unstable();
        s.new_flows.sort_unstable();
        flows.gone.sort_unstable();
        s.dirty.len()
    }

    /// Re-solve one group: patch its largest dirty layout in place into
    /// the group's candidate (or build it, if the group has no layout),
    /// split that into connected pieces if it lost a flow, and solve each
    /// piece. A layout whose flows did not change (a capacity change
    /// alone) comes through the patch as it was.
    fn solve_group(&mut self, g: Group, stats: &mut SolveStats) {
        let Self {
            net,
            flows,
            links: ls,
            layouts,
            spare,
            layout_at,
            scratch: s,
            ..
        } = self;
        let (net, ls): (&Fluid, &LinkState) = (net, ls);
        let dirty = &s.dirty[g.dirty.0..g.dirty.1];
        let new_flows = &s.new_flows[g.new_flows.0..g.new_flows.1];
        s.pieces.clear();
        let mut items = 0;

        // The candidate's links: the dirty layouts' links that still carry
        // a flow, with their floor sums, and the group's new links.
        let mut big: Option<u32> = None;
        for &(_, lab) in dirty {
            let slot = layout_at[lab as usize];
            if big.is_none_or(|b| layouts[b as usize].live() < layouts[slot as usize].live()) {
                big = Some(slot);
            }
        }
        s.cand_links.clear();
        for &(_, lab) in dirty {
            let slot = layout_at[lab as usize];
            let lay = &layouts[slot as usize];
            let mine = Some(slot) == big;
            s.cand_links.extend(
                lay.links
                    .iter()
                    .zip(&lay.floor_sum)
                    .enumerate()
                    .filter(|(_, (&l, _))| ls.load[l as usize] > 0)
                    .map(|(li, (&l, &f))| (l, f, if mine { li as u32 } else { NONE })),
            );
        }
        let new_links = &s.new_links[g.new_links.0..g.new_links.1];
        s.cand_links
            .extend(new_links.iter().map(|&(_, l)| (l, 0.0, NONE)));
        if dirty.len() + new_links.len() > 1 {
            s.cand_links.sort_unstable_by_key(|&(l, _, _)| l);
        }
        for (li, &(l, _, _)) in s.cand_links.iter().enumerate() {
            s.link_local[l as usize] = li as u32;
        }

        // The flows and path items that join the largest dirty layout.
        let (mut joining, mut joining_items) = (new_flows.len(), 0);
        for &(_, lab) in dirty {
            let slot = layout_at[lab as usize];
            if Some(slot) != big {
                joining += layouts[slot as usize].live();
                joining_items += layouts[slot as usize].paths.num_items();
            }
        }
        for &(_, rank) in new_flows {
            let id = s.new_keys[rank as usize] as u32;
            joining_items += net.flows()[flows.slots[id as usize] as usize].path.len();
        }

        // The candidate: the largest dirty layout, parked here and patched
        // in place, or a spare entry for a group without one.
        let home = match big {
            Some(b) => b,
            None => take_spare(layouts, spare),
        };
        let cand = &mut s.cand;
        std::mem::swap(cand, &mut layouts[home as usize]);
        if big.is_none() {
            cand.clear_fit(joining, joining_items, s.cand_links.len());
        }
        let logged = cand.log.ok();
        // No logged round from the first in which a removed flow froze, or
        // a touched link saturated, can be reused.
        let mut cut = u32::MAX;
        let mut lost = 0;

        // Removed flows leave their rows (in the layout's old local links;
        // a link left without flows drops its row whole) and free their
        // slots.
        if big.is_some() {
            // The component's label is its lowest link.
            let lab = cand.links[0];
            let from = flows.gone.partition_point(|&(l, _)| l < lab);
            let to = from + flows.gone[from..].partition_point(|&(l, _)| l == lab);
            let gone = &flows.gone[from..to];
            s.edits.clear();
            for &(_, slot) in gone {
                for &gl in cand.paths.row(slot as usize) {
                    items += 1;
                    if ls.load[gl as usize] > 0 {
                        let li = s.cand_links[s.link_local[gl as usize] as usize].2;
                        s.edits.push((li, slot));
                    }
                }
            }
            group_by_link(&s.edits, cand.links.len(), &mut s.lcount, &mut s.by_link);
            // A row losing few of its entries finds them by key; one losing
            // many drops them in one pass once their slots are free.
            let key_of = |slot: u32| flows.key(cand.flows[slot as usize]);
            s.linear.clear();
            let mut from = 0;
            for li in 0..cand.links.len() {
                let to = s.lcount[li] as usize;
                let group = &mut s.by_link[from..to];
                if !group.is_empty() {
                    if searched(group.len(), cand.rows.row(li).len()) {
                        group.sort_unstable_by_key(|&i| key_of(i));
                        items += remove_rows(&mut cand.rows, li, group, key_of, &mut s.at);
                    } else {
                        s.linear.push(li as u32);
                    }
                }
                from = to;
            }
            for &(_, slot) in gone {
                let froze = cand.release(slot);
                if froze != 0 {
                    cut = cut.min(froze - 1);
                }
                lost += 1;
            }
            for &li in &s.linear {
                items += cand.rows.row(li as usize).len();
                let flows = &cand.flows;
                cand.rows.retain(li as usize, |i| flows[i as usize] != FREE);
            }
            if lost > 0 && !cand.finite.is_empty() {
                cand.finite.retain(|&i| cand.flows[i as usize] != FREE);
            }
        }
        // Links renumbered: rows, floor sums and the log's link entries
        // follow (a link of this layout keeps its log unless it was
        // touched; any other link is changed).
        cand.rows.gather(
            s.cand_links
                .iter()
                .map(|&(_, _, from)| (from != NONE).then_some(from)),
            &mut s.rows,
        );
        let log = &mut cand.log;
        if logged {
            for (li, &l) in cand.links.iter().enumerate() {
                if ls.touched[l as usize] && log.sat[li] != NEVER {
                    cut = cut.min(log.sat[li]);
                }
            }
            log.cut = cut;
            log.remap.clear();
            log.remap.resize(cand.links.len(), CHANGED);
            s.link_log.clear();
            for (li, &(l, _, from)) in s.cand_links.iter().enumerate() {
                s.link_log.push(match from {
                    NONE => (LinkAt::default(), CHANGED),
                    _ if ls.touched[l as usize] => (log.start[from as usize], CHANGED),
                    _ => {
                        log.remap[from as usize] = li as u32;
                        (log.start[from as usize], log.sat[from as usize])
                    }
                });
            }
            log.start.clear();
            log.start.extend(s.link_log.iter().map(|e| e.0));
            log.sat.clear();
            log.sat.extend(s.link_log.iter().map(|e| e.1));
        }
        cand.links.clear();
        cand.links.extend(s.cand_links.iter().map(|&(l, _, _)| l));
        cand.floor_sum.clear();
        cand.floor_sum
            .extend(s.cand_links.iter().map(|&(_, f, _)| f));
        cand.log.added.clear();

        // Room for every flow and path item that joins, at once.
        cand.reserve(joining, joining_items);
        // The other dirty layouts' live flows move in, each row whole and
        // renumbered (its links are new to the candidate), and are
        // retired.
        let mut finite_added = false;
        for &(_, lab) in dirty {
            let slot = layout_at[lab as usize];
            if Some(slot) == big {
                continue;
            }
            let from = &layouts[slot as usize];
            s.slot_map.clear();
            s.slot_map.resize(from.flows.len(), NONE);
            for (i, &id) in from.flows.iter().enumerate() {
                if id == FREE {
                    continue;
                }
                if !flows.live(id) {
                    lost += 1;
                    continue;
                }
                let path = from.paths.row(i);
                items += path.len();
                let ns = cand.alloc(id, path.iter().copied(), from.params(i as u32), &mut s.rows);
                flows.at[id as usize] = ns;
                s.slot_map[i] = ns;
                if logged {
                    cand.log.added.push(ns);
                }
                if from.demand[i].is_finite() {
                    cand.finite.push(ns);
                    finite_added = true;
                }
            }
            for (lo, &gl) in from.links.iter().enumerate() {
                if ls.load[gl as usize] == 0 {
                    continue;
                }
                s.row.clear();
                s.row.extend(
                    from.rows
                        .row(lo)
                        .iter()
                        .map(|&i| s.slot_map[i as usize])
                        .filter(|&ns| ns != NONE),
                );
                items += s.row.len();
                let li = s.link_local[gl as usize] as usize;
                cand.rows.set_row(li, s.row.iter().copied(), &mut s.rows);
            }
            retire(layouts, spare, slot);
        }
        // The added flows take slots, in key order, and their entries are
        // spliced into the rows by key (grouped by link by a stable
        // counting sort).
        s.edits.clear();
        for &(_, rank) in new_flows {
            let key = s.new_keys[rank as usize];
            let id = key as u32;
            let spec = &net.flows()[flows.slots[id as usize] as usize];
            items += spec.path.len();
            let path = spec.path.iter().map(|&l| l as u32);
            let ns = cand.alloc(id, path, Params::of(spec), &mut s.rows);
            flows.at[id as usize] = ns;
            if logged {
                cand.log.added.push(ns);
            }
            s.edits
                .extend(spec.path.iter().map(|&gl| (s.link_local[gl], ns)));
            if spec.demand.is_finite() {
                cand.finite.push(ns);
                finite_added = true;
            }
        }
        stats.flows_flattened += new_flows.len();
        group_by_link(&s.edits, cand.links.len(), &mut s.lcount, &mut s.by_link);
        cand.rows.reserve(s.edits.len());
        let key_of = |slot: u32| flows.key(cand.flows[slot as usize]);
        let mut from = 0;
        for li in 0..cand.links.len() {
            let to = s.lcount[li] as usize;
            if to > from {
                let group = &s.by_link[from..to];
                items += insert_rows(&mut cand.rows, li, group, key_of, &mut s.ins, &mut s.rows);
            }
            from = to;
        }
        // Finite demands are few (the traffic engine adds none): a sort of
        // the short list puts the new ones in key order.
        if finite_added {
            cand.finite.sort_unstable_by_key(|&i| key_of(i));
        }
        cand.rows.compact(&mut s.rows);
        cand.paths.compact(&mut s.rows);
        s.rows.fit_for(&cand.rows);
        s.rows.fit_for(&cand.paths);
        stats.patch_items += items;

        if cand.live() == 0 {
            std::mem::swap(cand, &mut layouts[home as usize]);
            retire(layouts, spare, home);
            return;
        }
        // A candidate that lost a flow may fall apart.
        let pieces = match lost {
            0 => 1,
            _ => split(
                cand,
                &s.link_local,
                |l| ls.touched[l as usize],
                &mut s.split,
                &mut stats.patch_items,
            ),
        };
        if pieces > 1 {
            self.spread_pieces(stats);
        }
        let s = &mut self.scratch;
        std::mem::swap(&mut s.cand, &mut self.layouts[home as usize]);
        s.pieces.push(home);
        self.solve_pieces(stats);
    }

    /// Split the candidate into its pieces: each piece but the largest
    /// moves into its own layout (its flows read off its links' rows, its
    /// rows renumbered, floor sums carried over); the candidate keeps the
    /// largest in place, with its slots, rows and fill log (see the
    /// module's "Resumed fills"), the other pieces' slots freed.
    fn spread_pieces(&mut self, stats: &mut SolveStats) {
        let Self {
            flows,
            layouts,
            spare,
            scratch: s,
            ..
        } = self;
        let sp = &mut s.split;
        let n = sp.piece_size.len();
        let mut largest = 0;
        for p in 1..n {
            if sp.piece_size[p].0 > sp.piece_size[largest].0 {
                largest = p;
            }
        }
        let largest = largest as u32;
        s.pieces.clear();
        for (p, &(flows, items, links)) in sp.piece_size.iter().enumerate() {
            let slot = match p as u32 == largest {
                true => NONE,
                false => take_spare(layouts, spare),
            };
            s.pieces.push(slot);
            if slot != NONE {
                layouts[slot as usize].clear_fit(flows as usize, items as usize, links as usize);
            }
        }
        let cand = &mut s.cand;
        let (local, link_piece) = (&s.link_local, &sp.link_piece);
        // The piece of slot `i`'s flow: its first link's.
        let piece_of = |i: u32| link_piece[local[cand.paths.row(i as usize)[0] as usize] as usize];
        let mut items = 0;
        // The other pieces' flows, links and rows move out: each flow from
        // the row of its first link.
        s.slot_map.clear();
        s.slot_map.resize(cand.flows.len(), NONE);
        s.row.clear();
        for (li, &p) in link_piece.iter().enumerate() {
            if p == largest {
                continue;
            }
            let lay = &mut layouts[s.pieces[p as usize] as usize];
            for &i in cand.rows.row(li) {
                let path = cand.paths.row(i as usize);
                items += 1;
                if local[path[0] as usize] != li as u32 {
                    continue;
                }
                let id = cand.flows[i as usize];
                items += path.len();
                let ns = lay.alloc(id, path.iter().copied(), cand.params(i), &mut s.rows);
                flows.at[id as usize] = ns;
                s.slot_map[i as usize] = ns;
                s.row.push(i);
            }
        }
        for &i in &cand.finite {
            let p = piece_of(i);
            if p != largest {
                layouts[s.pieces[p as usize] as usize]
                    .finite
                    .push(s.slot_map[i as usize]);
            }
        }
        for (li, &p) in link_piece.iter().enumerate() {
            if p != largest {
                let lay = &mut layouts[s.pieces[p as usize] as usize];
                lay.links.push(cand.links[li]);
                lay.floor_sum.push(cand.floor_sum[li]);
                let row = cand.rows.row(li);
                items += row.len();
                lay.rows
                    .push_row(row.iter().map(|&i| s.slot_map[i as usize]));
            }
        }
        // The largest piece stays: the other pieces' slots are freed, their
        // links' rows dropped.
        let mut dropped = NEVER;
        for &i in &s.row {
            let froze = cand.release(i);
            if froze != 0 {
                dropped = dropped.min(froze);
            }
        }
        let slot_map = &s.slot_map;
        cand.finite.retain(|&i| slot_map[i as usize] == NONE);
        cand.rows.gather(
            (0..cand.links.len() as u32)
                .filter(|&li| link_piece[li as usize] == largest)
                .map(Some),
            &mut s.rows,
        );
        cand.rows.compact(&mut s.rows);
        cand.paths.compact(&mut s.rows);
        // The log's links follow: `remap` now leads to the piece's local
        // links. Until the first round in which a flow of another piece
        // froze, every round's event and freezes lay in this piece, so they
        // are the rounds its own fill runs.
        let mut w = 0u32;
        s.at.clear();
        for &p in link_piece.iter() {
            s.at.push(if p == largest { w } else { CHANGED });
            w += u32::from(p == largest);
        }
        let log = &mut cand.log;
        if log.ok() {
            if dropped != NEVER {
                log.cut = log.cut.min(dropped - 1);
            }
            for to in &mut log.remap {
                if *to != CHANGED {
                    *to = s.at[*to as usize];
                }
            }
            log.added.retain(|&i| slot_map[i as usize] == NONE);
        }
        let mut w = 0;
        for (li, &p) in link_piece.iter().enumerate() {
            if p == largest {
                cand.links[w] = cand.links[li];
                cand.floor_sum[w] = cand.floor_sum[li];
                if log.ok() {
                    log.start[w] = log.start[li];
                    log.sat[w] = log.sat[li];
                }
                w += 1;
            }
        }
        cand.links.truncate(w);
        cand.floor_sum.truncate(w);
        if log.ok() {
            log.start.truncate(w);
            log.sat.truncate(w);
        }
        stats.patch_items += items;
        // The largest piece stays in the candidate, bound for the group's
        // home entry; the caller appends it.
        s.pieces.remove(largest as usize);
    }

    /// Run the max-min kernel on each result layout of the group, then
    /// write back what it changed and recompute whole everything cached
    /// from it: per-link usage (along rows, in key order), saturation, the
    /// over-capacity flag and the label; per-flow starvation. A fill that
    /// resumed at round k\* changed only the flows it reopened (those
    /// frozen from k\* on, and the added ones) and the changed links: only
    /// those flows are written back, and only their links and the changed
    /// ones are re-summed, their flows' starvation re-judged. Predicates
    /// and tolerances are `Fluid::is_work_conserving`'s. Each layout first
    /// re-sums the floor sums of its touched links.
    fn solve_pieces(&mut self, stats: &mut SolveStats) {
        let Self {
            net,
            flows,
            links: ls,
            layouts,
            layout_at,
            changed_links,
            resolved_keys,
            resume_from,
            scratch: s,
            ..
        } = self;
        for &slot in &s.pieces {
            let lay = &mut layouts[slot as usize];
            for (li, &gl) in lay.links.iter().enumerate() {
                s.link_local[gl as usize] = li as u32;
            }
            lay.sum_floors(|l| ls.touched[l as usize]);
            lay.log.keep(lay.live() >= *resume_from);
            let mut log = std::mem::take(&mut lay.log);
            let k = &mut s.fill;
            std::mem::swap(&mut k.rate, &mut lay.rate);
            net.fill(lay, &s.link_local, k, &mut log);
            std::mem::swap(&mut k.rate, &mut lay.rate);
            lay.log = log;
            let lay = &*lay;
            stats.components_dirty += 1;
            stats.fill_rounds += k.rounds;
            stats.rounds_reused += k.reused;
            stats.full_solves += usize::from(k.full);
            stats.link_visits += k.link_visits;
            stats.patch_items += k.restore_items;
            let lowest = lay.links[0];
            layout_at[lowest as usize] = slot;
            let nll = lay.links.len();
            let partial = k.reused > 0;
            // A resumed fill re-solved only the `reopened` flows; every
            // other one kept the rate its logged freeze gave it. Only the
            // changed links and those of re-solved flows are re-summed.
            s.lmark.clear();
            if partial {
                s.lmark.resize(nll, false);
                for &li in &k.changed {
                    s.lmark[li as usize] = true;
                }
                for &i in &k.reopened {
                    for &gl in lay.paths.row(i as usize) {
                        s.lmark[s.link_local[gl as usize] as usize] = true;
                    }
                }
                stats.flows_reused += lay.live() - k.reopened.len();
            }
            s.flipped.clear();
            for (li, &gl) in lay.links.iter().enumerate() {
                let gl = gl as usize;
                ls.label[gl] = lowest;
                if !partial || s.lmark[li] {
                    let mut u = 0.0f64;
                    for &i in lay.rows.row(li) {
                        u += lay.rate[i as usize];
                    }
                    let cap = k.lcaps[li];
                    let sat = u >= cap - tol(cap);
                    if partial && sat != ls.sat[gl] {
                        s.flipped.push(li as u32);
                    }
                    ls.used[gl] = u;
                    ls.sat[gl] = sat;
                    set_flag(&mut ls.over[gl], &mut ls.over_count, u > cap + tol(cap));
                    changed_links.push(gl as u32);
                }
            }
            // Write back a re-solved flow's rate, and judge its
            // starvation; a kept flow's is judged again only where one of
            // its links flipped its saturation (its own rate and demand did
            // not change).
            let mut settle = |i: usize, resolved: bool| {
                let id = lay.flows[i] as usize;
                let d = flows.slots[id] as usize;
                let rate = lay.rate[i];
                if resolved {
                    flows.rates[d] = rate;
                    let group = flows.keys[id].0;
                    if resolved_keys.last() != Some(&group) {
                        resolved_keys.push(group);
                    }
                }
                let demand = lay.demand[i];
                let met = rate + tol(demand.min(1e12)) >= demand;
                let hungry = !met && !lay.paths.row(i).iter().any(|&gl| ls.sat[gl as usize]);
                set_flag(&mut flows.starved[d], &mut flows.starved_count, hungry);
            };
            if partial {
                k.reopened.iter().for_each(|&i| settle(i as usize, true));
                for &li in &s.flipped {
                    lay.rows
                        .row(li as usize)
                        .iter()
                        .for_each(|&i| settle(i as usize, false));
                }
            } else {
                (0..lay.flows.len())
                    .filter(|&i| lay.flows[i] != FREE)
                    .for_each(|i| settle(i, true));
            }
            // Debug builds check a resumed fill against the full one.
            #[cfg(debug_assertions)]
            if partial {
                let full = &mut s.full;
                full.1.forget();
                full.1.keep(true);
                net.fill(lay, &s.link_local, &mut full.0, &mut full.1);
                for (i, &id) in lay.flows.iter().enumerate() {
                    if id == FREE {
                        continue;
                    }
                    let want = full.0.rate[i].to_bits();
                    let stored = flows.rates[flows.slots[id as usize] as usize];
                    assert_eq!(stored.to_bits(), want, "resumed fill: rate of slot {i}");
                    assert_eq!(
                        lay.rate[i].to_bits(),
                        want,
                        "resumed fill: kept rate of slot {i}"
                    );
                }
                assert!(lay.log.same(&full.1), "resumed fill: log");
            }
            // Free slots the patches left are given back once they are
            // over a quarter of the layout.
            let lay = &mut layouts[slot as usize];
            let moved = lay.compact_slots(&mut s.slot_map, &mut s.rows);
            if moved > 0 {
                stats.patch_items += moved;
                for (i, &id) in lay.flows.iter().enumerate() {
                    flows.at[id as usize] = i as u32;
                }
            }
        }
    }

    /// Re-derive every cache from the current flows, rates and capacities
    /// and assert bit-equality with the cached state: load and usage in
    /// canonical order, both flag sets and their counters, the component
    /// labels and count (from a throw-away union-find over every flow's
    /// path), and every component's stored layout (flow order, links,
    /// paths, parameters and floor sums, rebuilt from the specs). O(network);
    /// debug builds run it after every engine solve.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_caches_exact(&self) {
        let (f, ls) = (&self.flows, &self.links);
        let specs = self.net.flows();
        let nl = self.net.num_links();
        let caps = |l: usize| self.net.link_cap(l);
        let canonical = |&fi: &u32| {
            let id = f.slot_of[fi as usize];
            (f.keys[id as usize], id)
        };
        let mut on_link: Vec<Vec<u32>> = vec![Vec::new(); nl];
        for (fi, spec) in specs.iter().enumerate() {
            for &l in &spec.path {
                on_link[l].push(fi as u32);
            }
        }
        let mut over = 0usize;
        for (l, flows) in on_link.iter_mut().enumerate() {
            assert_eq!(ls.load[l] as usize, flows.len(), "load of link {l}");
            flows.sort_unstable_by_key(canonical);
            let u = flows.iter().fold(0.0f64, |u, &fi| u + f.rates[fi as usize]);
            assert_eq!(u.to_bits(), ls.used[l].to_bits(), "usage of link {l}");
            assert_eq!(
                ls.over[l],
                u > caps(l) + tol(caps(l)),
                "over flag of link {l}"
            );
            if !flows.is_empty() {
                assert_eq!(
                    ls.sat[l],
                    u >= caps(l) - tol(caps(l)),
                    "sat flag of link {l}"
                );
            }
            over += usize::from(ls.over[l]);
        }
        assert_eq!(over, ls.over_count, "links over capacity");
        let sat = |l: usize| ls.used[l] >= caps(l) - tol(caps(l));
        let mut hungry = 0usize;
        for (fi, spec) in specs.iter().enumerate() {
            let fed = spec.path.is_empty()
                || f.rates[fi] + tol(spec.demand.min(1e12)) >= spec.demand
                || spec.path.iter().any(|&l| sat(l));
            assert_eq!(f.starved[fi], !fed, "starved flag of flow {fi}");
            hungry += usize::from(!fed);
        }
        assert_eq!(hungry, f.starved_count, "flows starved");

        // Attach the larger root under the smaller: a root is then the
        // lowest link of its set, i.e. the label.
        let mut parent: Vec<u32> = (0..nl as u32).collect();
        for spec in specs {
            for &l in spec.path.iter().skip(1) {
                union(&mut parent, spec.path[0] as u32, l as u32);
            }
        }
        let mut label = vec![NO_COMPONENT; nl];
        let mut components = 0usize;
        for l in 0..nl {
            if !on_link[l].is_empty() {
                label[l] = find(&mut parent, l as u32);
            }
            assert_eq!(ls.label[l], label[l], "component label of link {l}");
            components += usize::from(label[l] == l as u32);
        }
        assert_eq!(components, self.components, "component count");

        // Every component's layout, rebuilt from the specs: flows in
        // canonical order, links ascending, each floor sum in flow order.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); nl];
        for (fi, spec) in specs.iter().enumerate() {
            if let Some(&l0) = spec.path.first() {
                members[label[l0] as usize].push(fi as u32);
            }
        }
        let mut in_use = vec![false; self.layouts.len()];
        for (l, flows) in members.iter_mut().enumerate() {
            if label[l] != l as u32 {
                continue;
            }
            let slot = self.layout_at[l] as usize;
            assert!(
                !std::mem::replace(&mut in_use[slot], true),
                "layout entry {slot} holds two components"
            );
            flows.sort_unstable_by_key(canonical);
            let links: Vec<u32> = (0..nl as u32)
                .filter(|&x| label[x as usize] == l as u32)
                .collect();
            let mut local = vec![u32::MAX; nl];
            for (li, &gl) in links.iter().enumerate() {
                local[gl as usize] = li as u32;
            }
            let mut want = Layout {
                links: links.clone(),
                ..Layout::default()
            };
            let mut floors: Vec<Vec<f64>> = vec![Vec::new(); links.len()];
            for &fi in flows.iter() {
                let spec = &specs[fi as usize];
                want.push_spec(f.slot_of[fi as usize], spec);
                for &gl in &spec.path {
                    floors[local[gl] as usize].push(spec.floor.min(spec.demand));
                }
            }
            want.index_rows(&local);
            want.floor_sum = floors.iter().map(|row| row.iter().sum()).collect();
            let lay = &self.layouts[slot];
            let canon = lay.canonical(|id| f.key(id));
            assert!(canon.same(&want), "layout of component {l}");
            // Every flow keeps its slot and its rate there.
            assert_eq!(
                lay.free.len(),
                lay.flows.iter().filter(|&&id| id == FREE).count(),
                "free slots of component {l}"
            );
            for (i, &id) in lay.flows.iter().enumerate() {
                if id != FREE {
                    assert_eq!(f.at[id as usize], i as u32, "slot of flow {id}");
                    let rate = f.rates[f.slots[id as usize] as usize];
                    assert_eq!(lay.rate[i].to_bits(), rate.to_bits(), "rate at slot {i}");
                }
            }
            let mut log = crate::fluid::FillLog::default();
            log.keep(lay.log.kept());
            self.net
                .fill(&want, &local, &mut FillScratch::default(), &mut log);
            assert!(canon.log.same(&log), "fill log of component {l}");
        }
        assert_eq!(
            in_use.iter().filter(|&&u| u).count() + self.spare.len(),
            self.layouts.len(),
            "every layout entry holds a component or is spare"
        );
        assert!(
            self.spare.iter().all(|&slot| !in_use[slot as usize]),
            "a spare layout entry holds a component"
        );
    }
}

/// The first position of `row` from `from` on whose key (`key_of` of the
/// slot there) is not below `key`, by binary search; counts its probes in
/// `items`.
fn search(
    row: &[u32],
    from: usize,
    key: u128,
    key_of: impl Fn(u32) -> u128,
    items: &mut usize,
) -> usize {
    let (mut lo, mut hi) = (from, row.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *items += 1;
        if key_of(row[mid]) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Group `pairs`, `(local link, slot)` over `nll` links, by link with a
/// stable counting sort: the slots land in `by_link`, link `li`'s from
/// `lcount[li - 1]` (0 for the first) to `lcount[li]`.
fn group_by_link(pairs: &[(u32, u32)], nll: usize, lcount: &mut Vec<u32>, by_link: &mut Vec<u32>) {
    lcount.clear();
    lcount.resize(nll + 1, 0);
    for &(li, _) in pairs {
        lcount[li as usize + 1] += 1;
    }
    for li in 1..=nll {
        lcount[li] += lcount[li - 1];
    }
    by_link.clear();
    by_link.resize(pairs.len(), 0);
    for &(li, slot) in pairs {
        let at = &mut lcount[li as usize];
        by_link[*at as usize] = slot;
        *at += 1;
    }
}

/// Whether `m` edits of a row of `len` entries are cheaper placed by key
/// search than by one pass over the row.
fn searched(m: usize, len: usize) -> bool {
    m * (usize::BITS - len.leading_zeros()) as usize <= len
}

/// Remove the slots of `group`, in key order, from row `li` of `rows`: each
/// found by key search, all dropped in one pass of block moves. Returns
/// the row entries visited: the probes and the entries dropped.
fn remove_rows(
    rows: &mut Rows,
    li: usize,
    group: &[u32],
    key_of: impl Fn(u32) -> u128,
    at: &mut Vec<u32>,
) -> usize {
    let mut items = group.len();
    let row = rows.row(li);
    let mut from = 0;
    at.clear();
    for &slot in group {
        from = search(row, from, key_of(slot), &key_of, &mut items);
        debug_assert_eq!(row.get(from), Some(&slot), "removed slot not in its row");
        at.push(from as u32);
        from += 1;
    }
    rows.remove_at(li, at);
    items
}

/// Insert the slots of `group`, in key order, into row `li` of `rows`,
/// each where its key belongs, in one pass of block moves. An empty row
/// takes them as they are; a few go in by key search, many by a merge
/// along the row. Returns the row entries visited: the probes or the
/// entries merged past, and the entries inserted.
fn insert_rows(
    rows: &mut Rows,
    li: usize,
    group: &[u32],
    key_of: impl Fn(u32) -> u128,
    ins: &mut Vec<(u32, u32)>,
    scratch: &mut RowScratch,
) -> usize {
    let mut items = group.len();
    let row = rows.row(li);
    if row.is_empty() {
        rows.set_row(li, group.iter().copied(), scratch);
        return items;
    }
    ins.clear();
    if searched(group.len(), row.len()) {
        let mut from = 0;
        for &slot in group {
            from = search(row, from, key_of(slot), &key_of, &mut items);
            ins.push((from as u32, slot));
        }
    } else {
        let mut p = 0;
        for &slot in group {
            let key = key_of(slot);
            while p < row.len() && key_of(row[p]) < key {
                p += 1;
            }
            ins.push((p as u32, slot));
        }
        items += p;
    }
    rows.insert_at(li, ins, scratch);
    items
}

/// Number the candidate's connected pieces in order of their lowest link,
/// set `link_piece` to each local link's piece, and size each piece as
/// `(flows, path items, links)`. Returns the number of pieces; counts the
/// row entries and path items it reads in `items`.
///
/// Every link of the candidate reaches a touched link without crossing a
/// removed flow: its old component was connected, and on a path to the
/// touched links the first removed flow met starts at a touched link. So
/// every piece holds a touched link. The search grows one set from each
/// touched link, in turn one link at a time: a link is expanded by
/// reaching every flow of its row and every link of those flows' paths,
/// and two sets that reach each other merge. A set with nothing left to
/// expand is a whole piece. The search stops once at most one set still
/// grows: that one and every link not reached are the last piece, sized
/// by what the others leave. So a candidate that stayed whole costs the
/// search until its touched links meet, and one that split costs about
/// its small pieces, times the sets in turn; the largest piece is never
/// walked.
fn split(
    cand: &Layout,
    local: &[u32],
    touched: impl Fn(u32) -> bool,
    sp: &mut SplitScratch,
    items: &mut usize,
) -> usize {
    let nll = cand.links.len();
    let SplitScratch {
        uf,
        seen,
        next,
        queue,
        reached,
        open,
        stamp,
        now,
        link_piece,
        piece_size,
    } = sp;
    uf.clear();
    uf.extend(0..nll as u32);
    seen.clear();
    seen.extend(cand.links.iter().map(|&l| touched(l)));
    next.clear();
    next.resize(nll, NONE);
    queue.clear();
    queue.extend((0..nll as u32).map(|li| match seen[li as usize] {
        true => (li, li),
        false => (NONE, NONE),
    }));
    reached.clear();
    reached.resize(nll, (0, 0));
    open.clear();
    open.extend((0..nll as u32).filter(|&li| seen[li as usize]));
    stamp.resize(cand.flows.len(), 0);
    *now = now.wrapping_add(1);
    if *now == 0 {
        stamp.fill(0);
        *now = 1;
    }
    let (mut growing, mut whole) = (open.len(), 0);
    let mut turn = 0;
    while growing > 1 {
        turn %= open.len();
        let mut root = open[turn];
        if uf[root as usize] != root || queue[root as usize].0 == NONE {
            open.swap_remove(turn);
            continue;
        }
        let li = queue[root as usize].0;
        queue[root as usize].0 = next[li as usize];
        for &slot in cand.rows.row(li as usize) {
            *items += 1;
            if std::mem::replace(&mut stamp[slot as usize], *now) == *now {
                continue;
            }
            let path = cand.paths.row(slot as usize);
            *items += path.len();
            reached[root as usize].0 += 1;
            reached[root as usize].1 += path.len() as u32;
            for &gl in path {
                let l = local[gl as usize];
                if !std::mem::replace(&mut seen[l as usize], true) {
                    uf[l as usize] = root;
                    let q = &mut queue[root as usize];
                    match q.0 {
                        NONE => q.0 = l,
                        _ => next[q.1 as usize] = l,
                    }
                    q.1 = l;
                    continue;
                }
                let other = find(uf, l);
                if other != root {
                    // Two growing sets meet: the higher root joins the
                    // lower, its queue appended.
                    let (lo, hi) = (root.min(other), root.max(other));
                    uf[hi as usize] = lo;
                    let (qh, ql) = (queue[hi as usize], queue[lo as usize]);
                    queue[lo as usize] = match (ql.0, qh.0) {
                        (_, NONE) => ql,
                        (NONE, _) => qh,
                        _ => {
                            next[ql.1 as usize] = qh.0;
                            (ql.0, qh.1)
                        }
                    };
                    queue[hi as usize] = (NONE, NONE);
                    let r = reached[hi as usize];
                    reached[lo as usize].0 += r.0;
                    reached[lo as usize].1 += r.1;
                    growing -= 1;
                    root = lo;
                }
            }
        }
        if queue[root as usize].0 == NONE {
            growing -= 1;
            whole += 1;
        }
        turn += 1;
    }
    if whole == 0 {
        return 1;
    }
    // The pieces: each set the search closed, and the rest (every link
    // not in one), numbered by their lowest links. `next` now maps a
    // closed set's root to its piece.
    next.fill(NONE);
    link_piece.clear();
    piece_size.clear();
    let mut rest = NONE;
    let mut flows = cand.live() as u32;
    let mut path_items: u32 = (0..nll).map(|li| cand.rows.row(li).len() as u32).sum();
    for (li, &on) in seen.iter().enumerate() {
        let root = match on {
            true => find(uf, li as u32) as usize,
            false => NONE as usize,
        };
        let closed = root != NONE as usize && queue[root].0 == NONE;
        let piece = match closed {
            true => &mut next[root],
            false => &mut rest,
        };
        if *piece == NONE {
            *piece = piece_size.len() as u32;
            let (f, i) = match closed {
                true => reached[root],
                false => (0, 0),
            };
            flows -= f;
            path_items -= i;
            piece_size.push((f, i, 0));
        }
        link_piece.push(*piece);
        piece_size[*piece as usize].2 += 1;
    }
    if rest != NONE {
        piece_size[rest as usize].0 = flows;
        piece_size[rest as usize].1 = path_items;
    }
    piece_size.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build an incremental network over `caps`, returning it plus a
    /// plain `Fluid` sharing the link layout for reference solves.
    fn nets(caps: &[f64]) -> (IncrementalFluid, Fluid) {
        let mut a = Fluid::new();
        let mut b = Fluid::new();
        for &c in caps {
            a.link(c);
            b.link(c);
        }
        (IncrementalFluid::new(a), b)
    }

    fn close(x: f64, y: f64) -> bool {
        (x - y).abs() < 1e-6 * (1.0 + y.abs())
    }

    #[test]
    fn single_component_matches_global_solve() {
        let (mut inc, mut reference) = nets(&[900.0]);
        for k in 0..3 {
            inc.add_flow(FlowSpec::greedy(vec![0]), (1, k));
            reference.flow(FlowSpec::greedy(vec![0]));
        }
        let stats = inc.solve();
        assert_eq!(stats.components_total, 1);
        assert_eq!(stats.components_dirty, 1);
        let want = reference.rates();
        for (got, want) in inc.rates().iter().zip(&want) {
            assert!(close(*got, *want), "{got} vs {want}");
        }
        assert!(inc.is_work_conserving());
    }

    #[test]
    fn disjoint_components_skip_clean_ones() {
        let (mut inc, _) = nets(&[500.0, 500.0]);
        let a = inc.add_flow(FlowSpec::greedy(vec![0]), (1, 0));
        let _b = inc.add_flow(FlowSpec::greedy(vec![1]), (2, 0));
        let s1 = inc.solve();
        assert_eq!(s1.components_total, 2);
        assert_eq!(s1.components_dirty, 2);
        let rate_b_bits = inc.rates()[1].to_bits();
        // Churn only component 0: component 1 is skipped and its rate is
        // reused verbatim.
        inc.remove_flow(a);
        inc.add_flow(FlowSpec::greedy(vec![0]).with_guarantee(100.0), (1, 1));
        let s2 = inc.solve();
        assert_eq!(s2.components_total, 2);
        assert_eq!(s2.components_dirty, 1);
        let b_dense = 0; // b became dense 0 after a's swap-removal
        assert_eq!(inc.rates()[b_dense].to_bits(), rate_b_bits);
        // A no-op solve is all-clean.
        let s3 = inc.solve();
        assert_eq!(s3.components_dirty, 0);
        assert_eq!(s3.components_total, 2);
    }

    #[test]
    fn components_merge_and_split_under_churn() {
        let (mut inc, _) = nets(&[500.0, 500.0, 500.0]);
        inc.add_flow(FlowSpec::greedy(vec![0]), (1, 0));
        inc.add_flow(FlowSpec::greedy(vec![2]), (2, 0));
        assert_eq!(inc.solve().components_total, 2);
        // A spanning flow merges everything into one component.
        let bridge = inc.add_flow(FlowSpec::greedy(vec![0, 1, 2]), (3, 0));
        let s = inc.solve();
        assert_eq!(s.components_total, 1);
        assert_eq!(s.components_dirty, 1);
        // Removing it splits the partition again (lazy rebuild).
        inc.remove_flow(bridge);
        let s = inc.solve();
        assert_eq!(s.components_total, 2);
        assert_eq!(s.components_dirty, 2);
        assert!(inc.is_work_conserving());
    }

    #[test]
    fn clear_flows_resets_everything() {
        let (mut inc, _) = nets(&[400.0, 400.0]);
        inc.add_flow(FlowSpec::greedy(vec![0, 1]), (1, 0));
        inc.solve();
        inc.clear_flows();
        assert_eq!(inc.num_flows(), 0);
        let s = inc.solve();
        assert_eq!(s.components_total, 0);
        let id = inc.add_flow(FlowSpec::greedy(vec![0]), (2, 0));
        inc.solve();
        assert!(close(inc.rate_of(id), 400.0));
    }

    /// A solver under churn beside the list of flows it should hold, so
    /// every step can be compared with a from-scratch solver.
    struct Churned {
        caps: Vec<f64>,
        inc: IncrementalFluid,
        live: Vec<(u32, FlowSpec, (u64, u32))>,
    }

    impl Churned {
        /// Every component keeps a fill log, so re-solves resume.
        fn new(caps: &[f64]) -> Self {
            let (mut inc, _) = nets(caps);
            inc.set_resume_from(1);
            Churned {
                caps: caps.to_vec(),
                inc,
                live: Vec::new(),
            }
        }

        fn add(&mut self, path: &[usize], floor: f64, key: (u64, u32)) -> u32 {
            let spec = FlowSpec::greedy(path.to_vec()).with_guarantee(floor);
            let id = self.inc.add_flow(spec.clone(), key);
            self.live.push((id, spec, key));
            id
        }

        fn add_spec(&mut self, spec: FlowSpec, key: (u64, u32)) -> u32 {
            let id = self.inc.add_flow(spec.clone(), key);
            self.live.push((id, spec, key));
            id
        }

        fn remove(&mut self, id: u32) {
            self.inc.remove_flow(id);
            self.live.retain(|f| f.0 != id);
        }

        fn set_cap(&mut self, l: usize, cap: f64) {
            self.caps[l] = cap;
            self.inc.set_link_cap(l, cap);
        }

        /// Solve, then demand that everything cached — component count,
        /// work-conservation verdict, per-link usage, rates — equals, bit
        /// for bit, a from-scratch solver fed the surviving flows.
        fn solve_and_check(&mut self) -> SolveStats {
            let stats = self.inc.solve();
            #[cfg(debug_assertions)]
            self.inc.assert_caches_exact();
            let (mut fresh, _) = nets(&self.caps);
            let ids: Vec<u32> = self
                .live
                .iter()
                .map(|(_, spec, key)| fresh.add_flow(spec.clone(), *key))
                .collect();
            let want = fresh.solve();
            assert_eq!(stats.components_total, want.components_total);
            assert_eq!(want.components_dirty, want.components_total);
            assert_eq!(self.inc.is_work_conserving(), fresh.is_work_conserving());
            for (l, (got, want)) in self
                .inc
                .link_usage()
                .iter()
                .zip(fresh.link_usage())
                .enumerate()
            {
                assert_eq!(got.to_bits(), want.to_bits(), "usage of link {l}");
            }
            for ((id, _, _), fid) in self.live.iter().zip(ids) {
                assert_eq!(
                    self.inc.rate_of(*id).to_bits(),
                    fresh.rate_of(fid).to_bits()
                );
            }
            stats
        }
    }

    /// The kernel's counters on one three-tier component: four server
    /// uplinks under two ToR uplinks under a pod uplink. The server links
    /// saturate first and leave the heap while the fill continues above
    /// them, so the rounds visit strictly fewer links than a full scan per
    /// round would: 13 visits (heap pops and links a freeze touches
    /// first), where a scan of the live links would read 7 + 5 + 3.
    #[test]
    fn kernel_counters_bound_rounds_and_link_visits() {
        let caps = [300.0, 450.0, 500.0, 700.0, 1000.0, 1300.0, 4000.0];
        let (mut inc, _) = nets(&caps);
        let paths: [&[usize]; 6] = [
            &[0, 1],
            &[0, 4, 2, 5],
            &[1, 4, 6],
            &[2, 3],
            &[3, 5, 6],
            &[4],
        ];
        for (seq, path) in paths.iter().enumerate() {
            let spec = FlowSpec::greedy(path.to_vec()).with_guarantee(50.0 * (seq + 1) as f64);
            inc.add_flow(spec, (1, seq as u32));
        }
        let s = inc.solve();
        assert_eq!((s.components_dirty, s.components_total), (1, 1));
        let (flows, links) = (inc.num_flows(), caps.len());
        assert!(s.fill_rounds >= 1 && s.fill_rounds <= flows, "{s:?}");
        assert!(s.link_visits < s.fill_rounds * links, "{s:?}");
        assert_eq!((s.fill_rounds, s.link_visits), (3, 13), "{s:?}");
        // A clean solve runs no round.
        let s = inc.solve();
        assert_eq!((s.fill_rounds, s.link_visits), (0, 0));
    }

    /// The kernel's rounds read under a tenth of the links a scan of every
    /// link per round would, with the rates of [`Fluid::rates`]. One
    /// component of 1,168 links — 1,024 server links of distinct
    /// capacities under 128 ToR uplinks under 16 pod uplinks — carrying
    /// 2,000 flows between servers under different ToRs: the server links
    /// saturate one or two a round while the rest stay live.
    #[test]
    fn a_round_reads_under_a_tenth_of_the_links() {
        let caps: Vec<f64> = (0..1168)
            .map(|l| match l {
                0..1024 => 500.0 + (l * 7919 % 1024) as f64,
                1024..1152 => 20000.0 + (l % 5) as f64 * 250.0,
                _ => 80000.0,
            })
            .collect();
        let (mut inc, mut net) = nets(&caps);
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let mut ids = Vec::new();
        for seq in 0..2000 {
            let a = next(1024);
            let b = ((a / 8 + 1 + next(127)) % 128) * 8 + next(8);
            let (ta, tb) = (1024 + a / 8, 1024 + b / 8);
            let mut path = vec![a, b, ta, tb];
            if (ta - 1024) / 8 != (tb - 1024) / 8 {
                path.extend([1152 + (ta - 1024) / 8, 1152 + (tb - 1024) / 8]);
            }
            let spec = FlowSpec::greedy(path).with_guarantee(1.0 + next(40) as f64);
            net.flow(spec.clone());
            ids.push(inc.add_flow(spec, (1, seq)));
        }
        let s = inc.solve();
        assert_eq!((s.components_dirty, s.components_total), (1, 1));
        let rates = net.rates();
        assert!(10 * s.link_visits < s.fill_rounds * caps.len(), "{s:?}");
        for (seq, (&id, &want)) in ids.iter().zip(&rates).enumerate() {
            assert_eq!(inc.rate_of(id).to_bits(), want.to_bits(), "flow {seq}");
        }
    }

    #[test]
    fn caches_survive_a_split() {
        let mut c = Churned::new(&[900.0, 600.0, 500.0, 800.0]);
        c.add(&[0, 1], 100.0, (1, 0));
        let bridge = c.add(&[1, 2], 50.0, (2, 0));
        c.add(&[2, 3], 0.0, (3, 0));
        assert_eq!(c.solve_and_check().components_total, 1);
        // The bridge's links stay occupied on both sides: two remnants,
        // each holding a touched link, both re-solved.
        c.remove(bridge);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (2, 2));
        assert_eq!(s.flows_flattened, 0, "a split reads no spec");
        assert_eq!(c.inc.resolved_keys(), [1, 3]);
        let mut changed = c.inc.changed_links().to_vec();
        changed.sort_unstable();
        assert_eq!(changed, [0, 1, 2, 3]);
    }

    #[test]
    fn caches_survive_a_merge() {
        let mut c = Churned::new(&[900.0, 600.0, 500.0, 800.0, 700.0]);
        c.add(&[0], 100.0, (1, 0));
        c.add(&[2], 0.0, (2, 0));
        c.add(&[4], 30.0, (9, 0));
        assert_eq!(c.solve_and_check().components_total, 3);
        // Link 1 carried nothing before: it joins without an old label.
        c.add(&[0, 1, 2], 200.0, (3, 0));
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (1, 2));
        assert_eq!(s.flows_flattened, 1, "a merge reads only the bridge");
        assert_eq!(c.inc.resolved_keys(), [1, 2, 3]);
    }

    #[test]
    fn caches_survive_the_last_flow_leaving() {
        let mut c = Churned::new(&[900.0, 600.0, 500.0]);
        let only = c.add(&[0, 1], 100.0, (1, 0));
        c.add(&[2], 0.0, (2, 0));
        assert_eq!(c.solve_and_check().components_total, 2);
        c.remove(only);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (0, 1));
        assert_eq!(c.inc.link_usage()[..2], [0.0, 0.0]);
        assert!(c.inc.resolved_keys().is_empty());
        let mut changed = c.inc.changed_links().to_vec();
        changed.sort_unstable();
        assert_eq!(changed, [0, 1], "emptied links are reported once");
        // Nothing left at all.
        let last = c.live[0].0;
        c.remove(last);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (0, 0));
        assert!(c.inc.is_work_conserving());
    }

    #[test]
    fn caches_survive_a_cap_change_alone() {
        let mut c = Churned::new(&[900.0, 600.0, 500.0, 400.0]);
        c.add(&[0, 1], 300.0, (1, 0));
        c.add(&[1], 300.0, (1, 1));
        c.add(&[2], 0.0, (2, 0));
        assert_eq!(c.solve_and_check().components_total, 2);
        // Halving link 1 oversubscribes its floors: only its component
        // re-solves, and usage follows the new capacity.
        c.set_cap(1, 300.0);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (1, 2));
        assert_eq!(s.flows_flattened, 0, "the stored layout is solved as is");
        assert!(c.inc.link_usage()[1] <= 300.0 + tol(300.0));
        assert_eq!(c.inc.resolved_keys(), [1]);
        // An idle link's capacity belongs to no component: nothing
        // re-solves, but the link is reported so cached aggregates of it
        // can follow.
        c.set_cap(3, 100.0);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (0, 2));
        assert_eq!(c.inc.changed_links(), [3]);
        // Restoring brings the first allocation back bit for bit.
        c.set_cap(1, 600.0);
        assert_eq!(c.solve_and_check().components_dirty, 1);
    }

    /// Replacing k flows of an N-flow component (N ≫ k) reads the k new
    /// specs and nothing else: every other flow of the component comes
    /// from its stored layout. A merge reads only the bridging flow's
    /// spec, a split none.
    #[test]
    fn a_solve_flattens_only_the_added_flows() {
        // Five leaf links under a shared core link 5, and link 6 alone.
        let mut c = Churned::new(&[900.0, 800.0, 700.0, 600.0, 500.0, 4000.0, 300.0]);
        let ids: Vec<u32> = (0..200u32)
            .map(|seq| {
                let leaf = (seq % 5) as usize;
                c.add(
                    &[leaf, 5],
                    f64::from(seq % 7) * 3.0,
                    (u64::from(seq % 11), seq),
                )
            })
            .collect();
        c.add(&[6], 50.0, (20, 0));
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.flows_flattened), (2, 201));

        // k = 3 of N = 200, the new keys landing among the old ones.
        for &id in &ids[10..13] {
            c.remove(id);
        }
        for seq in 200..203u32 {
            c.add(&[(seq % 5) as usize, 5], 5.0, (3, seq));
        }
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (1, 2));
        assert_eq!(s.flows_flattened, 3);

        // A bridge merges link 6's component in; only its spec is read.
        let bridge = c.add(&[4, 6], 10.0, (7, 500));
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (1, 1));
        assert_eq!(s.flows_flattened, 1);

        // Its removal splits them again without reading a spec.
        c.remove(bridge);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (2, 2));
        assert_eq!(s.flows_flattened, 0);

        // A capacity change alone re-solves the stored layout.
        c.set_cap(5, 1500.0);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.flows_flattened), (1, 0));
    }

    /// A stable id freed and reused within one step must not be mistaken
    /// for the flow that held it: the removed flow leaves its layout, and
    /// the new one joins its own component.
    #[test]
    fn an_id_removed_and_added_in_one_step_is_not_reused() {
        let mut c = Churned::new(&[900.0, 600.0, 500.0]);
        let a = c.add(&[0, 1], 100.0, (1, 0));
        c.add(&[1], 40.0, (1, 1));
        c.solve_and_check();
        c.remove(a);
        let b = c.add(&[2], 70.0, (2, 0));
        assert_ne!(a, b, "a freed id waits for the next solve");
        let s = c.solve_and_check();
        assert_eq!(s.components_total, 2);
        // After the solve the id is free again.
        c.remove(b);
        c.solve_and_check();
        assert_eq!(c.add(&[2], 70.0, (2, 1)), b);
        c.solve_and_check();
    }

    /// One resumable component: 70 server links, link `i` carrying flow
    /// `i` (weight 1e4, no floor) up to a hub (link 70) no round
    /// saturates; link 71 is as wide and idle. Link `i`
    /// saturates in round `i`, at fill level `100 + i`: round 0 steps
    /// 100, every later round 1. Flow 60 weighs `w60`.
    fn ladder(w60: f64) -> (Churned, Vec<u32>) {
        let hub = 70;
        let mut caps: Vec<f64> = (0..70).map(|i| (100.0 + i as f64) * 1e4).collect();
        caps.extend([1e12, 1e12]);
        let mut c = Churned::new(&caps);
        let ids = (0..70u32)
            .map(|i| {
                let mut spec = FlowSpec::greedy(vec![i as usize, hub]);
                spec.weight = if i == 60 { w60 } else { 1e4 };
                c.add_spec(spec, (1, i))
            })
            .collect();
        let s = c.solve_and_check();
        assert_eq!((s.fill_rounds, s.rounds_reused), (70, 0));
        (c, ids)
    }

    /// A changed link whose ratio comes within `slack` of a round's step
    /// without reaching it: link 60's new capacity puts it 5e-10 above
    /// round 30's step of 1, where it drains to 5e-6, above the saturation
    /// threshold. Round 30 is not reused: a tie would go to the lower
    /// link, but the detector does not rely on float ties.
    #[test]
    fn a_changed_link_tying_a_round_within_slack_resumes_there() {
        let (mut c, _) = ladder(1e4);
        c.set_cap(60, (130.0 + 5e-10) * 1e4);
        let s = c.solve_and_check();
        assert_eq!(s.rounds_reused, 30, "{s:?}");
    }

    /// A changed link that saturates in a round it does not tie: flow 60
    /// weighs 1, so link 60's ratio sits 5e-7 above round 30's step (far
    /// past `slack`) and that round drains it to 5e-7, under the
    /// saturation threshold.
    #[test]
    fn a_changed_link_saturating_in_a_round_resumes_there() {
        let (mut c, _) = ladder(1.0);
        c.set_cap(60, 130.0 + 5e-7);
        let s = c.solve_and_check();
        assert_eq!(s.rounds_reused, 30, "{s:?}");
    }

    /// A removed flow that froze at its demand in round 31 (level 130.5,
    /// between links 30 and 31): its removal changes that round's step,
    /// though none of its links saturated.
    #[test]
    fn a_removed_flow_resumes_at_the_round_it_froze_in() {
        let (mut c, _) = ladder(1e4);
        let mut spec = FlowSpec::greedy(vec![71, 70]);
        spec.weight = 1e4;
        spec.demand = 130.5 * 1e4;
        let capped = c.add_spec(spec, (2, 0));
        c.solve_and_check();
        c.remove(capped);
        let s = c.solve_and_check();
        assert_eq!(s.rounds_reused, 31, "{s:?}");
    }

    /// A flow idle from phase 2's start (its floor meets its demand)
    /// removed beside the one of the last test: the idle one froze in no
    /// round, so the resume still stops at round 31, where the other
    /// froze.
    #[test]
    fn a_removed_idle_flow_leaves_the_frozen_ones_cut() {
        let (mut c, _) = ladder(1e4);
        let mut spec = FlowSpec::greedy(vec![71, 70]);
        spec.weight = 1e4;
        spec.demand = 130.5 * 1e4;
        let capped = c.add_spec(spec, (2, 0));
        let mut spec = FlowSpec::greedy(vec![71, 70]).with_guarantee(10.0);
        spec.demand = 5.0;
        let idle = c.add_spec(spec, (2, 1));
        c.solve_and_check();
        c.remove(capped);
        c.remove(idle);
        let s = c.solve_and_check();
        assert_eq!(s.rounds_reused, 31, "{s:?}");
    }

    /// A split's largest piece keeps its log up to the first round in
    /// which a flow of another piece froze. Flow C (links 71, 72) freezes
    /// at level 120.5 in round 21, where link 72 saturates; bridge B
    /// (links 71 and the hub) freezes when link 71 saturates, at level
    /// 140.5 in round 42. Removing B leaves C's piece apart: the ladder's
    /// piece resumes at round 21.
    #[test]
    fn the_largest_piece_of_a_split_resumes_where_another_piece_froze() {
        let mut caps: Vec<f64> = (0..70).map(|i| (100.0 + i as f64) * 1e4).collect();
        caps.extend([1e12, 261e4, 120.5e4]);
        let mut c = Churned::new(&caps);
        for i in 0..70u32 {
            let mut spec = FlowSpec::greedy(vec![i as usize, 70]);
            spec.weight = 1e4;
            c.add_spec(spec, (1, i));
        }
        let mut spec = FlowSpec::greedy(vec![71, 70]);
        spec.weight = 1e4;
        let bridge = c.add_spec(spec, (2, 0));
        let mut spec = FlowSpec::greedy(vec![71, 72]);
        spec.weight = 1e4;
        c.add_spec(spec, (3, 0));
        let s = c.solve_and_check();
        assert_eq!(s.fill_rounds, 72, "{s:?}");
        c.remove(bridge);
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.rounds_reused), (2, 21), "{s:?}");
    }

    /// Re-expanding one 8-flow tenant — every flow removed and re-added
    /// under the same keys and paths, in one step, as the traffic engine
    /// does — costs the patch what churned: the same work on a component
    /// of about 2k flows as on one of about 20k. A chain of `n` links of
    /// rising capacity, each adjacent pair joined by two greedy flows, is
    /// one component that saturates every other link from the bottom up;
    /// the tenant's light flows sit on the top links, which saturate last.
    #[test]
    fn patch_work_does_not_grow_with_the_component() {
        let patch_items = |n: usize| {
            let caps: Vec<f64> = (0..n).map(|l| 1000.0 + l as f64).collect();
            let (mut inc, _) = nets(&caps);
            inc.set_resume_from(1);
            for l in 0..n - 1 {
                for k in 0..2u32 {
                    let spec = FlowSpec::greedy(vec![l, l + 1]);
                    inc.add_flow(spec, (1, 2 * l as u32 + k));
                }
            }
            let tenant = |k: u32| {
                let l = n - 9 + k as usize;
                FlowSpec::greedy(vec![l, l + 1]).with_guarantee(1e-3)
            };
            let mut ids: Vec<u32> = (0..8).map(|k| inc.add_flow(tenant(k), (2, k))).collect();
            let s = inc.solve();
            assert_eq!((s.components_total, inc.num_flows()), (1, 2 * (n - 1) + 8));
            for id in &mut ids {
                inc.remove_flow(*id);
            }
            for (k, id) in ids.iter_mut().enumerate() {
                *id = inc.add_flow(tenant(k as u32), (2, k as u32));
            }
            let s = inc.solve();
            assert!(s.rounds_reused > 0, "{s:?}");
            s.patch_items
        };
        let (small, large) = (patch_items(1000), patch_items(10_000));
        assert!(small > 0);
        assert!(
            large <= 2 * small && small <= 2 * large,
            "patch items {small} at 2k flows, {large} at 20k"
        );
    }

    /// A retired entry that held a large component is reused, shrunk, for
    /// a small one, and a large merged-away layout's entry for a piece.
    #[test]
    fn a_large_retired_entry_is_reused_for_a_small_component() {
        let mut c = Churned::new(&[900.0, 800.0, 700.0, 600.0]);
        let big: Vec<u32> = (0..300u32)
            .map(|seq| c.add(&[0, 1], f64::from(seq % 5), (1, seq)))
            .collect();
        c.solve_and_check();
        for id in big {
            c.remove(id);
        }
        c.solve_and_check();
        c.add(&[2], 10.0, (2, 0));
        c.add(&[3], 20.0, (3, 0));
        let s = c.solve_and_check();
        assert_eq!((s.components_dirty, s.components_total), (2, 2));
    }
}
