//! A hand-rolled scoped thread pool for embarrassingly-parallel work.
//!
//! **Why hand-rolled:** this workspace builds in a network-isolated
//! container (see `third_party/`), so rayon/crossbeam are deliberately out
//! of reach; scoped threads plus one atomic work counter cover everything
//! the experiment sweeps need. Contributions must keep it that way — no
//! new external concurrency dependencies.
//!
//! [`par_map_indexed`] preserves determinism by construction: each task's
//! result is stored at its input index, so the output order (and therefore
//! every downstream table) is independent of the thread count and of
//! scheduling. Tasks must be independently deterministic — which every
//! simulation cell is, since each builds its own topology, RNG, and
//! admission controller from scratch.

use std::sync::atomic::Ordering;

/// Default worker count for experiment sweeps: the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every item on up to `threads` workers and return the
/// results in input order. `f(i, &item)` receives the item's index;
/// results are merged by index, so the outcome is identical for any
/// `threads`.
pub fn par_map_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    // Workers claim indices from one shared counter and keep their
    // `(index, result)` pairs; the merge below puts each at its index.
    #[expect(
        clippy::disallowed_types,
        reason = "the pool's one lock-free counter: each `SeqCst` fetch_add hands out a distinct index, and the scope join publishes every result"
    )]
    let next = std::sync::atomic::AtomicUsize::new(0);
    let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(i, item)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in claimed.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = par_map_indexed(threads, &items, |_, x| x * x);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "per-index call counters shared by the pool's worker threads"
    )]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u32> = (0..37).collect();
        for threads in [1usize, 2, 3, 64] {
            let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            par_map_indexed(threads, &items, |i, _| {
                calls[i].fetch_add(1, Ordering::SeqCst);
            });
            let counts: Vec<usize> = calls.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            assert_eq!(counts, vec![1; items.len()], "threads = {threads}");
        }
    }

    #[test]
    fn index_is_passed_through() {
        let got = par_map_indexed(4, &["a", "b", "c"], |i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u32> = par_map_indexed(4, &[] as &[u32], |_, &x| x);
        assert!(got.is_empty());
    }
}
