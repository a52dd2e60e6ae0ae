//! The fluid max-min oracles: two independent ways to judge an
//! allocation of `cm_enforce`'s [`Fluid`] network, sharing no code with
//! its progressive-filling kernel.
//!
//! * [`rates_reference`] is the pre-rewrite allocation (per-link
//!   `path.contains` scans, a fixed round cap): a different algorithm that
//!   must agree with [`Fluid::rates`] wherever it is correct.
//! * [`verify_max_min`] checks the definition itself: caps, demands and
//!   floors respected, work conservation, and the KKT bottleneck
//!   condition.

use cm_enforce::Fluid;

/// Absolute + relative comparison slack for kbps-scale quantities.
fn tol(magnitude: f64) -> f64 {
    1e-6 + 1e-9 * magnitude.abs()
}

/// Verify that `rates` is *the* weighted max-min allocation with floors:
/// caps respected, demands respected, floors granted (assumes admissible
/// floors), work conservation, and the KKT bottleneck condition — every
/// flow below demand crosses a saturated link on which its fill level
/// `(rate − floor) / weight` is maximal. Returns the first violated
/// property. ([`Fluid::rates`] itself only debug-asserts work
/// conservation.)
pub fn verify_max_min(net: &Fluid, rates: &[f64]) -> Result<(), String> {
    let flows = net.flows();
    assert_eq!(rates.len(), flows.len());
    let mut used = vec![0.0f64; net.num_links()];
    for (f, &r) in flows.iter().zip(rates) {
        for &l in &f.path {
            used[l] += r;
        }
    }
    for (l, &u) in used.iter().enumerate() {
        if u > net.link_cap(l) + tol(net.link_cap(l)) {
            return Err(format!(
                "link {l}: used {u} exceeds cap {}",
                net.link_cap(l)
            ));
        }
    }
    for (i, (f, &r)) in flows.iter().zip(rates).enumerate() {
        if r > f.demand + tol(f.demand.min(1e12)) {
            return Err(format!("flow {i}: rate {r} exceeds demand {}", f.demand));
        }
        let floor = f.floor.min(f.demand);
        if r + tol(floor) < floor {
            return Err(format!("flow {i}: rate {r} below floor {floor}"));
        }
    }
    if !net.is_work_conserving(rates) {
        return Err("allocation is not work-conserving".into());
    }
    // KKT: per saturated link, the largest fill level among its flows.
    let fill = |i: usize| (rates[i] - flows[i].floor.min(flows[i].demand)) / flows[i].weight;
    let mut max_fill = vec![f64::NEG_INFINITY; net.num_links()];
    for (i, f) in flows.iter().enumerate() {
        for &l in &f.path {
            max_fill[l] = max_fill[l].max(fill(i));
        }
    }
    for (i, (f, &r)) in flows.iter().zip(rates).enumerate() {
        if r + tol(f.demand.min(1e12)) >= f.demand || f.path.is_empty() {
            continue;
        }
        let bottlenecked = f.path.iter().any(|&l| {
            used[l] >= net.link_cap(l) - tol(net.link_cap(l))
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
pub fn rates_reference(net: &Fluid) -> Vec<f64> {
    let flows = net.flows();
    let n = flows.len();
    let mut rate: Vec<f64> = flows.iter().map(|f| f.floor.min(f.demand)).collect();

    // Scale floors down on oversubscribed links (defensive; admission
    // normally prevents this).
    let caps: Vec<f64> = (0..net.num_links()).map(|l| net.link_cap(l)).collect();
    let mut residual = caps.clone();
    loop {
        let mut worst: Option<(usize, f64)> = None;
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
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
                for (f, r) in flows.iter().zip(rate.iter_mut()) {
                    if f.path.contains(&l) {
                        *r *= scale;
                    }
                }
            }
            None => break,
        }
    }
    for (l, res) in residual.iter_mut().enumerate() {
        let used: f64 = flows
            .iter()
            .zip(&rate)
            .filter(|(f, _)| f.path.contains(&l))
            .map(|(_, r)| r)
            .sum();
        *res = (*res - used).max(0.0);
    }

    // Phase 2: weighted progressive filling of the residual.
    let mut active: Vec<bool> = flows
        .iter()
        .zip(&rate)
        .map(|(f, r)| *r + 1e-9 < f.demand)
        .collect();
    for _ in 0..2 * (n + net.num_links()) + 2 {
        if !active.iter().any(|&a| a) {
            break;
        }
        // Largest uniform fill level t (rate += weight · t).
        let mut t = f64::INFINITY;
        for (l, &res) in residual.iter().enumerate() {
            let w: f64 = flows
                .iter()
                .zip(&active)
                .filter(|(f, &a)| a && f.path.contains(&l))
                .map(|(f, _)| f.weight)
                .sum();
            if w > 0.0 {
                t = t.min(res / w);
            }
        }
        for ((f, &a), &r) in flows.iter().zip(&active).zip(&rate) {
            if a && f.demand.is_finite() {
                t = t.min((f.demand - r) / f.weight);
            }
        }
        if !t.is_finite() {
            // Only unconstrained infinite-demand flows remain.
            break;
        }
        let t = t.max(0.0);
        for (i, f) in flows.iter().enumerate() {
            if active[i] {
                rate[i] += f.weight * t;
                for &l in &f.path {
                    residual[l] -= f.weight * t;
                }
            }
        }
        // Freeze flows at demand or on saturated links.
        for (i, f) in flows.iter().enumerate() {
            if !active[i] {
                continue;
            }
            let done = rate[i] + 1e-6 >= f.demand || f.path.iter().any(|&l| residual[l] <= 1e-6);
            if done {
                active[i] = false;
            }
        }
    }
    rate
}
