//! A deterministic, ordering-preserving parallel map over slices,
//! built on `std::thread::scope` (the workspace has no crates.io
//! access, so rayon is unavailable).
//!
//! [`par_map`] chunks the input across at most `threads` scoped worker
//! threads and reassembles the per-chunk outputs in input order, so for
//! a task function that is a pure function of `(index, item)` the
//! result is **byte-identical at any thread count** — the property the
//! experiment layer's determinism tests pin down. Tasks that need
//! randomness must derive their seed from the index (or the item), not
//! from shared mutable state.
//!
//! Every worker runs under the caller's [`Obs`](crate::Obs) context,
//! so what the tasks count lands in the caller's registry.
//!
//! # Examples
//!
//! ```
//! use hbmd_obs::par::par_map;
//!
//! let inputs = [1u64, 2, 3, 4, 5];
//! let squares = par_map(&inputs, 4, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::sync::Arc;

/// Number of worker threads to use by default: the machine's available
/// parallelism (1 when it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `task` over `items` on up to `threads` scoped worker threads,
/// returning outputs in input order.
///
/// `task` receives `(index, &item)` so per-task seeds can be derived
/// deterministically. With `threads <= 1` (or fewer than two items) the
/// map runs inline on the caller's thread — the sequential and parallel
/// paths produce identical output for pure task functions.
///
/// Work is split into contiguous chunks, one per worker, so an item's
/// index never changes with the thread count. Each worker runs under
/// the caller's context.
///
/// # Panics
///
/// Propagates a panic from any task after all workers finish.
pub fn par_map<T, R, F>(items: &[T], threads: usize, task: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| task(i, item))
            .collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let task = &task;
    let obs = &crate::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(chunk_index, chunk)| {
                let base = chunk_index * chunk_len;
                scope.spawn(move || {
                    let _context = crate::install(Arc::clone(obs));
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(offset, item)| task(base + offset, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    })
}

/// [`par_map`] over a `Result`-producing task: the first error (by
/// input order) is returned, successes keep their order.
///
/// All tasks still run — workers cannot be cancelled mid-chunk — so
/// this is for fallible-but-rarely-failing pipelines, not early exits.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing task.
pub fn try_par_map<T, R, E, F>(items: &[T], threads: usize, task: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    // Item count is thread-count-independent; chunk counts are not, so
    // only the former is recorded. Collection fans out through
    // `par_map` and counts its samples under `collect.samples` instead.
    crate::add("par.items", items.len() as u64);
    par_map(items, threads, task).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let sequential = par_map(&items, 1, |i, &x| (i, x * 3));
        for threads in [2, 3, 8, 64, 1024] {
            let parallel = par_map(&items, threads, |i, &x| (i, x * 3));
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn index_seeded_randomness_is_thread_count_invariant() {
        let items: Vec<u64> = (0..31).collect();
        // A multiplicative hash of the index-derived seed stands in for
        // a seeded RNG draw.
        let draw =
            |i: usize, &seed: &u64| (seed ^ (i as u64) << 17).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let baseline = par_map(&items, 1, draw);
        for threads in [2, 8] {
            assert_eq!(par_map(&items, threads, draw), baseline);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: [u8; 0] = [];
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u8], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn try_par_map_returns_first_error_by_index() {
        let items: Vec<usize> = (0..20).collect();
        let result = try_par_map(&items, 4, |_, &x| {
            if x % 7 == 5 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(result, Err("bad 5".to_owned()));
        let ok = try_par_map(&items, 4, |_, &x| Ok::<usize, String>(x)).expect("all ok");
        assert_eq!(ok, items);
    }

    #[test]
    #[should_panic(expected = "par_map worker panicked")]
    fn task_panics_propagate() {
        let items = [1u8, 2, 3, 4];
        let _ = par_map(&items, 2, |_, &x| {
            assert!(x < 4, "boom");
            x
        });
    }
}
