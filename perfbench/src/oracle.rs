//! Sequential references every timed result is checked against.

use bga_graph::{CsrGraph, VertexId, WeightedCsrGraph};
use bga_kernels::bfs::INFINITY;
use bga_kernels::cc::baseline::cc_union_find;
use bga_kernels::{kcore_peeling, sssp_dijkstra};
use std::collections::VecDeque;

/// Hop distances from `root` by a plain queue BFS (unreached =
/// [`INFINITY`]), written here so the kernels are not their own oracle.
/// Reuses `dist` and `queue` across calls.
pub fn bfs_into(
    graph: &CsrGraph,
    root: VertexId,
    dist: &mut Vec<u32>,
    queue: &mut VecDeque<VertexId>,
) {
    dist.clear();
    dist.resize(graph.num_vertices(), INFINITY);
    queue.clear();
    dist[root as usize] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        let next = dist[v as usize] + 1;
        for &u in graph.neighbors(v) {
            if dist[u as usize] == INFINITY {
                dist[u as usize] = next;
                queue.push_back(u);
            }
        }
    }
}

pub fn bfs(graph: &CsrGraph, root: VertexId) -> Vec<u32> {
    let mut dist = Vec::new();
    bfs_into(graph, root, &mut dist, &mut VecDeque::new());
    dist
}

/// The references of the kernel battery.
pub struct KernelRefs {
    /// Component of each vertex, named by its minimum vertex id.
    pub components: Vec<u32>,
    pub bfs: Vec<u32>,
    pub weighted: Vec<u32>,
}

impl KernelRefs {
    pub fn new(graph: &CsrGraph, weighted: &WeightedCsrGraph, root: VertexId) -> KernelRefs {
        KernelRefs {
            components: cc_union_find(graph).canonical(),
            bfs: bfs(graph, root),
            weighted: sssp_dijkstra(weighted, root).distances().to_vec(),
        }
    }
}

/// The references of the serve answers on the snapshot.
pub struct SnapshotRefs {
    pub components: Vec<u32>,
    pub cores: Vec<u32>,
}

impl SnapshotRefs {
    pub fn new(graph: &CsrGraph) -> SnapshotRefs {
        SnapshotRefs {
            components: cc_union_find(graph).canonical(),
            cores: kcore_peeling(graph).as_slice().to_vec(),
        }
    }
}
