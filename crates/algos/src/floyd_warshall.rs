//! All-pairs shortest paths: the paper's Section 4 in all four variants.
//!
//! | function | paper program | synchronization |
//! |----------|---------------|-----------------|
//! | [`sequential`] | `ShortestPaths1` (4.2) | none |
//! | [`with_barrier`] | `ShortestPaths2` (4.3) | one N-way [`Barrier`] per iteration |
//! | [`with_events`] | `ShortestPaths3` (4.4) | an array of `N` [`Event`]s + `kRow` buffer |
//! | [`with_counter`] | Section 4.5 | **one** [`Counter`] + `kRow` buffer |
//!
//! The event and counter variants are the paper's "more efficient" algorithm:
//! each thread proceeds to iteration `k` as soon as row `k` is published,
//! instead of waiting for every thread at a barrier; threads can be spread
//! over up to `N` different iterations at once.
//!
//! ## Memory-safety port note
//!
//! The barrier variant reads row `k` directly from the shared matrix, which
//! in Rust means shared mutable access; it is expressed with relaxed atomic
//! cells (`AtomicI64`), race-free because the paper's invariant holds (no
//! thread writes `path[i][k]` or `path[k][j]` during iteration `k`) and the
//! barrier provides the cross-iteration ordering. The event/counter variants
//! need no atomics at all: every thread mutates only its own rows and reads
//! the published `kRow` buffer, exactly as the paper describes.

use crate::matrix::{add_weights, SquareMatrix};
use mc_counter::{Counter, MonotonicCounter};
use mc_primitives::{Barrier, Event};
use mc_sthreads::{chunk_of, chunks};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::OnceLock;

/// `ShortestPaths1`: the sequential Floyd–Warshall algorithm.
pub fn sequential(edge: &SquareMatrix) -> SquareMatrix {
    let n = edge.n();
    let mut path = edge.clone();
    for k in 0..n {
        for i in 0..n {
            let d_ik = path.get(i, k);
            for j in 0..n {
                let new_path = add_weights(d_ik, path.get(k, j));
                if new_path < path.get(i, j) {
                    path.set(i, j, new_path);
                }
            }
        }
    }
    path
}

/// `ShortestPaths2`: multithreaded Floyd–Warshall with one N-way barrier
/// pass per iteration. All threads complete iteration `k` before any starts
/// iteration `k + 1`.
pub fn with_barrier(edge: &SquareMatrix, num_threads: usize) -> SquareMatrix {
    assert!(num_threads > 0, "need at least one thread");
    let n = edge.n();
    if n == 0 {
        return edge.clone();
    }
    let path: Vec<AtomicI64> = edge.as_slice().iter().map(|&w| AtomicI64::new(w)).collect();
    let barrier = Barrier::new(num_threads);
    std::thread::scope(|scope| {
        for t in 0..num_threads {
            let rows = chunk_of(n, num_threads, t);
            let (path, barrier) = (&path, &barrier);
            scope.spawn(move || {
                for k in 0..n {
                    for i in rows.clone() {
                        let d_ik = path[i * n + k].load(Ordering::Relaxed);
                        for j in 0..n {
                            let new_path =
                                add_weights(d_ik, path[k * n + j].load(Ordering::Relaxed));
                            if new_path < path[i * n + j].load(Ordering::Relaxed) {
                                path[i * n + j].store(new_path, Ordering::Relaxed);
                            }
                        }
                    }
                    barrier.pass();
                }
            });
        }
    });
    SquareMatrix::from_vec(n, path.into_iter().map(AtomicI64::into_inner).collect())
}

/// Shared scaffolding for the row-publication variants: runs the paper's
/// efficient algorithm, calling `wait(k)` before iteration `k` and
/// `publish(k1)` after row `k1 = k + 1` has been updated and buffered.
fn run_krow_variant(
    edge: &SquareMatrix,
    num_threads: usize,
    wait: impl Fn(usize) + Sync,
    publish: impl Fn(usize) + Sync,
    k_row: &[OnceLock<Box<[i64]>>],
) -> SquareMatrix {
    let n = edge.n();
    let mut storage = edge.as_slice().to_vec();
    // Row 0 is available from the initial matrix before any thread starts.
    k_row[0]
        .set(storage[0..n].to_vec().into_boxed_slice())
        .unwrap_or_else(|_| unreachable!("kRow[0] published twice"));

    // Split the matrix into per-thread row chunks so each thread gets
    // exclusive mutable access to exactly its rows.
    let mut chunk_slices: Vec<&mut [i64]> = Vec::with_capacity(num_threads);
    let mut rest: &mut [i64] = &mut storage;
    for r in chunks(n, num_threads) {
        let (mine, tail) = rest.split_at_mut(r.len() * n);
        chunk_slices.push(mine);
        rest = tail;
    }

    std::thread::scope(|scope| {
        for (t, mine) in chunk_slices.into_iter().enumerate() {
            let rows = chunk_of(n, num_threads, t);
            let (wait, publish) = (&wait, &publish);
            scope.spawn(move || {
                for k in 0..n {
                    wait(k);
                    let krow: &[i64] = k_row[k]
                        .get()
                        .expect("kRow[k] published before wait(k) returns");
                    for i in rows.clone() {
                        let local = i - rows.start;
                        let row_i = &mut mine[local * n..(local + 1) * n];
                        let d_ik = row_i[k];
                        for j in 0..n {
                            let new_path = add_weights(d_ik, krow[j]);
                            if new_path < row_i[j] {
                                row_i[j] = new_path;
                            }
                        }
                        if i == k + 1 {
                            k_row[k + 1]
                                .set(row_i.to_vec().into_boxed_slice())
                                .unwrap_or_else(|_| unreachable!("kRow published twice"));
                            publish(k + 1);
                        }
                    }
                }
            });
        }
    });
    SquareMatrix::from_vec(n, storage)
}

/// `ShortestPaths3`: the efficient multithreaded algorithm with an **array of
/// `N` condition variables** — thread `t` waits on `kDone[k]` before
/// iteration `k`, and the owner of row `k + 1` sets `kDone[k + 1]`.
pub fn with_events(edge: &SquareMatrix, num_threads: usize) -> SquareMatrix {
    assert!(num_threads > 0, "need at least one thread");
    let n = edge.n();
    if n == 0 {
        return edge.clone();
    }
    let k_done: Vec<Event> = (0..n).map(|_| Event::new()).collect();
    k_done[0].set();
    let k_row: Vec<OnceLock<Box<[i64]>>> = (0..n).map(|_| OnceLock::new()).collect();
    run_krow_variant(
        edge,
        num_threads,
        |k| k_done[k].check(),
        |k1| k_done[k1].set(),
        &k_row,
    )
}

/// Section 4.5: the efficient multithreaded algorithm with a **single
/// monotonic counter** in place of the `N` condition variables.
/// `kCount.Check(k)` gates iteration `k`; publishing row `k + 1` is
/// `kCount.Increment(1)`.
pub fn with_counter(edge: &SquareMatrix, num_threads: usize) -> SquareMatrix {
    with_counter_impl::<Counter>(edge, num_threads)
}

/// [`with_counter`] parameterized by counter implementation, for the
/// ablation experiments.
pub fn with_counter_impl<C: MonotonicCounter + Default>(
    edge: &SquareMatrix,
    num_threads: usize,
) -> SquareMatrix {
    assert!(num_threads > 0, "need at least one thread");
    let n = edge.n();
    if n == 0 {
        return edge.clone();
    }
    let k_count = C::default();
    let k_row: Vec<OnceLock<Box<[i64]>>> = (0..n).map(|_| OnceLock::new()).collect();
    run_krow_variant(
        edge,
        num_threads,
        |k| k_count.check(k as u64),
        |_k1| k_count.increment(1),
        &k_row,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure1_edge, figure1_path, random_graph};
    use mc_counter::{BTreeCounter, NaiveCounter};

    fn all_parallel_variants(
        edge: &SquareMatrix,
        threads: usize,
    ) -> Vec<(&'static str, SquareMatrix)> {
        vec![
            ("barrier", with_barrier(edge, threads)),
            ("events", with_events(edge, threads)),
            ("counter", with_counter(edge, threads)),
        ]
    }

    /// Figure 1 reproduction: the exact matrices from the paper.
    #[test]
    fn figure1_sequential() {
        assert_eq!(sequential(&figure1_edge()), figure1_path());
    }

    #[test]
    fn figure1_all_variants_all_thread_counts() {
        let edge = figure1_edge();
        let want = figure1_path();
        for threads in [1, 2, 3, 5] {
            for (name, got) in all_parallel_variants(&edge, threads) {
                assert_eq!(got, want, "{name} with {threads} threads");
            }
        }
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let empty = SquareMatrix::filled(0, 0);
        assert_eq!(sequential(&empty).n(), 0);
        assert_eq!(with_counter(&empty, 2).n(), 0);
        assert_eq!(with_barrier(&empty, 2).n(), 0);
        assert_eq!(with_events(&empty, 2).n(), 0);

        let one = SquareMatrix::from_rows(&[vec![0]]);
        assert_eq!(with_counter(&one, 3), one);
        assert_eq!(with_barrier(&one, 3), one);
        assert_eq!(with_events(&one, 3), one);
    }

    #[test]
    fn random_graphs_match_sequential_oracle() {
        for seed in 0..4 {
            let edge = random_graph(24, 0.4, seed);
            let want = sequential(&edge);
            for threads in [1, 2, 4, 7] {
                for (name, got) in all_parallel_variants(&edge, threads) {
                    assert_eq!(got, want, "seed {seed}, {name}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let edge = random_graph(5, 0.8, 11);
        let want = sequential(&edge);
        for (name, got) in all_parallel_variants(&edge, 12) {
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn counter_variant_is_generic_over_implementations() {
        let edge = random_graph(16, 0.5, 3);
        let want = sequential(&edge);
        assert_eq!(with_counter_impl::<BTreeCounter>(&edge, 4), want);
        assert_eq!(with_counter_impl::<NaiveCounter>(&edge, 4), want);
    }

    #[test]
    fn negative_edges_handled() {
        // Figure 1 already has one, but exercise a larger graph whose
        // shortest paths actually use negative edges.
        let edge = random_graph(20, 0.6, 99);
        let path = sequential(&edge);
        let has_negative_path = (0..20).any(|i| (0..20).any(|j| path.get(i, j) < 0));
        assert!(
            has_negative_path,
            "seed should generate negative shortest paths"
        );
        assert_eq!(with_counter(&edge, 4), path);
    }

    #[test]
    fn triangle_inequality_holds_on_output() {
        let edge = random_graph(15, 0.5, 21);
        let path = with_counter(&edge, 3);
        for i in 0..15 {
            for j in 0..15 {
                for k in 0..15 {
                    let via = add_weights(path.get(i, k), path.get(k, j));
                    assert!(
                        path.get(i, j) <= via,
                        "path[{i}][{j}] > path[{i}][{k}] + path[{k}][{j}]"
                    );
                }
            }
        }
    }
}
