//! # cpdb-parallel — minimal fork-join helpers for artifact builds
//!
//! The pairwise tables of the workspace (the co-clustering weights, and the
//! Kendall pairwise-order tournament of the library pivot) are
//! embarrassingly parallel across
//! pairs once the batch generating-function evaluator has reduced each entry
//! to a closed form, and the engine fans a query batch out across threads.
//! This crate provides the *smallest* parallelism layer that can exploit
//! that — a [`std::thread::scope`] fork-join map over contiguous index
//! chunks — with three hard guarantees:
//!
//! * **no new dependencies** — plain `std::thread`, nothing vendored;
//! * **deterministic output ordering** — results come back in input order
//!   regardless of which thread computed them or when it finished;
//! * **thread-count independence** — callers are expected to make each
//!   per-item computation independent of the chunking, so the same inputs
//!   produce bit-identical outputs at any thread count (the conformance
//!   suite asserts this for every parallel artifact build).
//!
//! The thread count is resolved by [`resolve_threads`]: an explicit non-zero
//! request wins, otherwise [`std::thread::available_parallelism`]. Passing
//! `1` disables spawning entirely — the map runs inline on the caller's
//! thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Resolves a requested thread count: `0` means "auto"
/// ([`std::thread::available_parallelism`]); any other value is taken as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `0..len` on up to `threads` scoped worker threads
/// (`threads = 0` means "auto", see [`resolve_threads`]), returning the
/// results in index order.
///
/// The index range is split into at most `threads` contiguous chunks; each
/// worker fills its own output vector and the chunks are concatenated in
/// chunk order, so the returned `Vec` is identical — element for element —
/// to the sequential `(0..len).map(f).collect()`.
pub fn parallel_map_indexed<R, F>(threads: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = resolve_threads(threads).min(len.max(1));
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let base = len / threads;
    let rem = len % threads;
    let mut bounds = Vec::with_capacity(threads + 1);
    let mut start = 0;
    bounds.push(0);
    for t in 0..threads {
        start += base + usize::from(t < rem);
        bounds.push(start);
    }
    let f = &f;
    let mut chunks: Vec<Vec<R>> = Vec::with_capacity(threads);
    cpdb_sync::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1]);
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            chunks.push(h.join().expect("parallel_map_indexed worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let out = parallel_map_indexed(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn any_thread_count_matches_sequential() {
        let seq = parallel_map_indexed(1, 37, |i| i as f64 * 0.1);
        for threads in [2, 3, 8, 64] {
            let par = parallel_map_indexed(threads, 37, |i| i as f64 * 0.1);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(parallel_map_indexed(8, 0, |i| i).is_empty());
        assert_eq!(parallel_map_indexed(8, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn explicit_thread_count_wins_over_auto() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
