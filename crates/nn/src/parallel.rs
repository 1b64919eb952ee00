//! Minimal data-parallel helpers built on [`std::thread::scope`].
//!
//! We deliberately avoid a global thread-pool: federated-learning runs spawn
//! short, coarse-grained bursts of work (one task per client, or one row
//! band per matmul), and scoped threads keep the borrow story simple while
//! guaranteeing data-race freedom. This module is the workspace's one
//! spawning site for data parallelism: matmul row bands, the session's
//! per-client training and the executors' `parallel_dispatch` all go
//! through it. Thread count is capped by
//! `std::thread::available_parallelism` and can be overridden for tests via
//! [`set_max_threads`].

use std::sync::atomic::{AtomicUsize, Ordering};

static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Override the maximum number of worker threads (0 = auto-detect).
///
/// Intended for tests and benchmarks that need single-threaded execution;
/// production code should leave this at the default.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// Number of worker threads that parallel helpers will use.
pub fn max_threads() -> usize {
    let forced = MAX_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to consecutive `piece_len`-element pieces of `data`, one
/// scoped thread per piece (the last piece may be shorter).
///
/// `f(piece_start, piece)` receives the absolute element offset of the
/// piece so callers can recover global indices. The caller picks
/// `piece_len`, and with it the thread count; when it covers the whole of
/// `data`, `f` runs once on the calling thread. A panicking worker
/// re-raises its panic here once every piece is done.
///
/// # Panics
/// Panics when `piece_len` is zero.
pub fn par_chunks_mut<T, F>(data: &mut [T], piece_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(piece_len > 0, "piece length must be positive");
    if data.len() <= piece_len {
        f(0, data);
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        for (i, piece) in data.chunks_mut(piece_len).enumerate() {
            scope.spawn(move || f(i * piece_len, piece));
        }
    });
}

/// Run one closure per item of `items` in parallel and collect the results
/// in input order.
///
/// Items are split into [`max_threads`] contiguous blocks, one thread
/// each. Used for "one task per federated client" parallelism where each
/// task is heavy (a full local-training pass), so the per-thread overhead
/// is noise.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = max_threads().min(n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    par_chunks_mut(&mut out, n.div_ceil(threads), |start, block| {
        for (j, slot) in block.iter_mut().enumerate() {
            *slot = Some(f(start + j, &items[start + j]));
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker left a result slot empty"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let mut data = vec![0u32; 10_000];
        par_chunks_mut(&mut data, 2_999, |start, piece| {
            assert!(piece.len() == 2_999 || start == 3 * 2_999, "short piece");
            for (j, v) in piece.iter_mut().enumerate() {
                *v += (start + j) as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn par_chunks_mut_small_input_sequential() {
        let mut data = vec![1.0f32; 3];
        par_chunks_mut(&mut data, 1024, |start, piece| {
            assert_eq!((start, piece.len()), (0, 3));
            for v in piece {
                *v *= 2.0;
            }
        });
        assert_eq!(data, vec![2.0; 3]);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        let squares = par_map(&items, |_, &x| x * x);
        for (i, &s) in squares.iter().enumerate() {
            assert_eq!(s, i * i);
        }
    }

    #[test]
    fn par_map_empty() {
        let items: Vec<u8> = vec![];
        let out: Vec<u8> = par_map(&items, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn max_threads_override() {
        set_max_threads(2);
        assert_eq!(max_threads(), 2);
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }
}
