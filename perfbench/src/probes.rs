//! Probes of single layers, timed from the benchmark's own code in the
//! traced run: pool spawn and dispatch, adjacency-cursor sweeps, and the
//! host calibration rows for the per-edge update disciplines.

use crate::util::median;
use bga_graph::{AdjacencySource, CsrGraph};
use bga_parallel::{Execute, WorkerPool};
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::time::Instant;

/// Median microseconds of `WorkerPool::new(threads)`; the pool is dropped
/// (its workers joined) outside the timed part.
pub fn pool_spawn_us(threads: usize, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let pool = black_box(WorkerPool::new(threads));
            let us = start.elapsed().as_secs_f64() * 1e6;
            drop(pool);
            us
        })
        .collect();
    median(&samples)
}

/// Median microseconds of one `Execute::run` over empty ranges, one per
/// thread: dispatch, wake-up and barrier with no work.
pub fn pool_empty_batch_us(threads: usize, reps: usize) -> f64 {
    let pool = WorkerPool::new(threads);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(pool.run(vec![0..0; threads], |i, _| i));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per edge slot of a full neighbour sweep through
/// `AdjacencySource::neighbor_cursor`.
pub fn sweep_ns_per_edge<G: AdjacencySource>(graph: &G, reps: usize) -> f64 {
    let n = graph.num_vertices() as u32;
    let slots = graph.num_edge_slots().max(1) as f64;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u64;
            for v in 0..n {
                for u in graph.neighbor_cursor(v) {
                    acc = acc.wrapping_add(u64::from(u));
                }
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / slots
        })
        .collect();
    median(&samples)
}

/// The per-edge update disciplines the calibration rows compare, as
/// one min-label hooking sweep `label[v] = min(label[v], label[u])`
/// over every edge `(v, u)`.
#[derive(Clone, Copy, Debug)]
pub enum Discipline {
    /// Relaxed load of both labels and an unconditional relaxed store of
    /// their minimum: the single-threaded branch-avoiding update.
    LoadStore,
    /// Test, then a compare-exchange retry loop on improvement: the
    /// branch-based parallel update.
    TestCas,
    /// Unconditional `fetch_min`: the branch-avoiding parallel update.
    FetchMin,
    /// Test, then `fetch_min` on improvement.
    TestFetchMin,
    /// Minimum over the neighbourhood in a register, then one `fetch_min`
    /// per vertex.
    RegisterMin,
}

impl Discipline {
    pub const ALL: [Discipline; 5] = [
        Discipline::LoadStore,
        Discipline::TestCas,
        Discipline::FetchMin,
        Discipline::TestFetchMin,
        Discipline::RegisterMin,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Discipline::LoadStore => "atomics.load_store_ns_per_edge",
            Discipline::TestCas => "atomics.test_cas_ns_per_edge",
            Discipline::FetchMin => "atomics.fetch_min_ns_per_edge",
            Discipline::TestFetchMin => "atomics.test_fetch_min_ns_per_edge",
            Discipline::RegisterMin => "atomics.register_min_rmw_ns_per_edge",
        }
    }

    fn sweep(self, graph: &CsrGraph, labels: &[AtomicU32]) {
        for v in 0..graph.num_vertices() {
            let own = &labels[v];
            let neighbours = graph.neighbors(v as u32);
            match self {
                Discipline::LoadStore => {
                    for &u in neighbours {
                        let m = own.load(Relaxed).min(labels[u as usize].load(Relaxed));
                        own.store(m, Relaxed);
                    }
                }
                Discipline::TestCas => {
                    for &u in neighbours {
                        let theirs = labels[u as usize].load(Relaxed);
                        let mut current = own.load(Relaxed);
                        while theirs < current {
                            match own.compare_exchange_weak(current, theirs, Relaxed, Relaxed) {
                                Ok(_) => break,
                                Err(seen) => current = seen,
                            }
                        }
                    }
                }
                Discipline::FetchMin => {
                    for &u in neighbours {
                        own.fetch_min(labels[u as usize].load(Relaxed), Relaxed);
                    }
                }
                Discipline::TestFetchMin => {
                    for &u in neighbours {
                        let theirs = labels[u as usize].load(Relaxed);
                        if theirs < own.load(Relaxed) {
                            own.fetch_min(theirs, Relaxed);
                        }
                    }
                }
                Discipline::RegisterMin => {
                    let m = neighbours
                        .iter()
                        .map(|&u| labels[u as usize].load(Relaxed))
                        .min()
                        .unwrap_or(u32::MAX);
                    own.fetch_min(m, Relaxed);
                }
            }
        }
    }

    /// Median nanoseconds per edge slot of one sweep from identity labels
    /// (the first sweep of Shiloach-Vishkin), single-threaded.
    pub fn ns_per_edge(self, graph: &CsrGraph, reps: usize) -> f64 {
        let labels: Vec<AtomicU32> = (0..graph.num_vertices() as u32)
            .map(AtomicU32::new)
            .collect();
        let slots = graph.num_edge_slots().max(1) as f64;
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                for (v, l) in labels.iter().enumerate() {
                    l.store(v as u32, Relaxed);
                }
                let start = Instant::now();
                self.sweep(graph, black_box(&labels));
                start.elapsed().as_nanos() as f64 / slots
            })
            .collect();
        median(&samples)
    }
}
