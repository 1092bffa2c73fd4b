//! The three workloads and their set-up: graph generation and seeded
//! relabelling, the serve snapshot's bga-csr-v1 round trip, and
//! `Server::bind`.

use crate::spans::{SpanId, Spans};
use crate::util::Rng;
use bga_graph::generators::{barabasi_albert, grid_3d, MeshStencil};
use bga_graph::io::{read_compressed_binary_bytes, write_compressed_binary_bytes};
use bga_graph::transform::relabel_with;
use bga_graph::{uniform_weights, CompressedCsrGraph, CsrGraph, WeightedCsrGraph};
use bga_serve::{ServeOptions, Server};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

/// A generated graph family.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `side`³ grid with the 26-neighbour Moore stencil (audikw1 family).
    Mesh { side: usize },
    /// Barabási–Albert preferential attachment (coAuthorsDBLP family).
    PowerLaw { vertices: usize, attach: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Graph the kernel metrics run on.
    pub kernel_graph: Family,
    /// Graph the query server hosts; `None` hosts the kernel graph.
    pub snapshot: Option<Family>,
    /// Run the parallel kernels and the server on the varint
    /// (`CompressedCsrGraph`) snapshot instead of raw CSR.
    pub compressed: bool,
    /// Worker count of every `request::run_*` call in the kernel battery.
    pub kernel_threads: usize,
    pub serve_threads: usize,
    /// Share of `--seconds` the closed-loop query phase gets; the kernel
    /// phase gets the rest.
    pub serve_share: f64,
    /// Nominal milliseconds of the host-speed reference on the kernel
    /// graph (close to its lower decile in fast runs on the host this
    /// benchmark was tuned on). It fixes the scale of the normalized times
    /// only.
    pub reference_ms: f64,
    /// The same for the reference on the served snapshot, which scales
    /// the query metrics.
    pub query_reference_ms: f64,
}

/// The workloads. Serving a 50k-vertex power-law snapshot on a 2-thread
/// pool pinned to one CPU gave a query p99 spread of 39% across runs of
/// the same code (the pool's worker is scheduled at varying points inside
/// each batch), hence the 25k-vertex snapshots. The mesh snapshot is an
/// 18³ grid (about 1 ms per query, against 2.4 ms on a 24³ one), so the
/// query window fills more of the 1,000-query blocks `query_p99_ms` is
/// taken over.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "mesh",
        kernel_graph: Family::Mesh { side: 36 },
        snapshot: Some(Family::Mesh { side: 18 }),
        compressed: false,
        kernel_threads: 1,
        serve_threads: 1,
        serve_share: 0.5,
        reference_ms: 14.5,
        query_reference_ms: 1.55,
    },
    Spec {
        name: "powerlaw",
        kernel_graph: Family::PowerLaw {
            vertices: 50_000,
            attach: 3,
        },
        snapshot: Some(SNAPSHOT_POWER_LAW),
        compressed: false,
        kernel_threads: 2,
        serve_threads: 2,
        serve_share: 0.5,
        reference_ms: 6.5,
        query_reference_ms: 2.8,
    },
    Spec {
        name: "serve",
        kernel_graph: SNAPSHOT_POWER_LAW,
        snapshot: None,
        compressed: true,
        kernel_threads: 1,
        serve_threads: 2,
        serve_share: 0.85,
        reference_ms: 3.6,
        query_reference_ms: 3.6,
    },
];

/// The power-law graph `powerlaw` serves as raw CSR and `serve` serves
/// (and runs its kernels on) through the varint cursor.
const SNAPSHOT_POWER_LAW: Family = Family::PowerLaw {
    vertices: 25_000,
    attach: 3,
};

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Worker count of the pool probes and of the traced call that records
/// how the pool splits each kernel's work (`pool.<k>.*`).
pub const POOL_THREADS: usize = 2;

/// Largest edge weight of the weighted SSSP input (weights are 1..=32).
pub const MAX_WEIGHT: u32 = 32;
/// Delta-stepping bucket width.
pub const DELTA: u32 = 16;
/// Copies of the kernel battery's inputs, each in its own allocation. The
/// battery moves to the next copy every round, so a run's figures span
/// several physical page placements: with one copy, the mesh's top-down
/// BFS medians moved by up to 25% between runs of the same code while its
/// streaming CC sweeps held within 5% (which pages share an L2 set is
/// fixed for a whole run).
pub const LAYOUTS: usize = 6;
/// Results the server's LRU keeps: enough that the hot keys of the query
/// mix stay resident between the cold misses around them.
pub const CACHE_CAPACITY: usize = 64;

/// Seed of every graph's generator and relabelling permutation. The graphs
/// are fixed per workload: on a relabelled graph the Shiloach-Vishkin
/// sweep count (and with it every CC time) jumps by a whole sweep between
/// permutations, which would swamp the run-to-run spread. `--seed` picks
/// the edge weights and the query stream instead.
const GRAPH_SEED: u64 = 0x05EE_D1AB;

/// A generated graph, relabelled by a fixed random permutation so vertex
/// ids carry no structure, and its traversal root: the mesh's centre
/// vertex or the first preferential-attachment vertex (a hub). The root is
/// fixed too: on these graphs direction-optimizing BFS time moves by up to
/// 50% between roots of the same kind.
pub fn generate(family: Family) -> (CsrGraph, u32) {
    let mut rng = Rng::new(GRAPH_SEED);
    let (graph, root) = match family {
        Family::Mesh { side } => {
            let centre = side / 2;
            (
                grid_3d(side, side, side, MeshStencil::Moore),
                centre + side * (centre + side * centre),
            )
        }
        Family::PowerLaw { vertices, attach } => {
            (barabasi_albert(vertices, attach, rng.next_u64()), 0)
        }
    };
    let perm = rng.permutation(graph.num_vertices());
    (relabel_with(&graph, &perm), perm[root])
}

/// The query server with its snapshot, bound but not yet serving.
pub enum Bound {
    Raw(Server<CsrGraph>),
    Compressed(Server<CompressedCsrGraph>),
}

/// A serving server on its own thread.
pub struct Running {
    pub addr: SocketAddr,
    pub handle: JoinHandle<std::io::Result<()>>,
}

impl Bound {
    pub fn start(self) -> std::io::Result<Running> {
        let (addr, handle) = match self {
            Bound::Raw(s) => (s.local_addr()?, std::thread::spawn(move || s.serve())),
            Bound::Compressed(s) => (s.local_addr()?, std::thread::spawn(move || s.serve())),
        };
        Ok(Running { addr, handle })
    }
}

/// Everything a workload needs before its first timed call.
pub struct Inputs {
    /// [`LAYOUTS`] copies of the kernel graph.
    pub kernel: Vec<CsrGraph>,
    pub kernel_root: u32,
    /// [`LAYOUTS`] copies of the kernel graph on the varint cursor
    /// (compressed-kernel workloads; empty otherwise).
    pub kernel_compressed: Vec<CompressedCsrGraph>,
    /// [`LAYOUTS`] copies of the weighted kernel graph.
    pub weighted: Vec<WeightedCsrGraph>,
    /// The served snapshot as raw CSR (the serve oracle's input).
    pub snapshot: CsrGraph,
    /// The served snapshot as loaded back from bga-csr-v1 bytes.
    pub snapshot_compressed: CompressedCsrGraph,
    /// Taken when the query phase starts.
    pub server: Option<Bound>,
}

/// Wall time of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub gen: Duration,
    pub encode: Duration,
    pub load: Duration,
    pub total: Duration,
}

pub fn setup(
    spec: &Spec,
    seed: u64,
    spans: &Spans,
    parent: SpanId,
) -> std::io::Result<(Inputs, SetupTimes)> {
    let root_span = spans.open("setup", parent);
    let id = root_span.id();
    let ((kernel, kernel_root, snapshot_raw, weighted), gen) = spans.time("graph.gen", id, || {
        let (kernel, root) = generate(spec.kernel_graph);
        let snapshot = spec.snapshot.map(|f| generate(f).0);
        let weighted = uniform_weights(&kernel, MAX_WEIGHT, seed);
        (kernel, root, snapshot, weighted)
    });
    let snapshot_raw = snapshot_raw.unwrap_or_else(|| kernel.clone());
    let (encoded, encode) = spans.time("graph.encode", id, || {
        CompressedCsrGraph::from_csr(&snapshot_raw)
    });
    let (loaded, load) = spans.time("graph.load", id, || {
        let bytes = write_compressed_binary_bytes(&encoded);
        let loaded = read_compressed_binary_bytes(&bytes)
            .map_err(|e| std::io::Error::other(format!("bga-csr-v1 round trip failed: {e}")))?;
        let hosted_raw = (!spec.compressed).then(|| loaded.to_csr());
        Ok::<_, std::io::Error>((loaded, hosted_raw))
    });
    let (loaded, hosted_raw) = loaded?;
    let options = ServeOptions {
        threads: spec.serve_threads,
        cache_capacity: CACHE_CAPACITY,
        ..ServeOptions::default()
    };
    let (server, _) = spans.time("serve.bind", id, || match hosted_raw {
        Some(raw) => Server::bind(raw, "127.0.0.1:0", options).map(Bound::Raw),
        None => Server::bind(loaded.clone(), "127.0.0.1:0", options).map(Bound::Compressed),
    });
    let server = server?;
    let kernel_compressed = if spec.compressed {
        vec![loaded.clone(); LAYOUTS]
    } else {
        Vec::new()
    };
    let weighted = vec![weighted; LAYOUTS];
    let kernel = vec![kernel; LAYOUTS];
    let total = spans.close(root_span);
    let inputs = Inputs {
        kernel,
        kernel_root,
        kernel_compressed,
        weighted,
        snapshot: snapshot_raw,
        snapshot_compressed: loaded,
        server: Some(server),
    };
    Ok((
        inputs,
        SetupTimes {
            gen,
            encode,
            load,
            total,
        },
    ))
}
