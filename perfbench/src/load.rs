//! Closed-loop `bga-serve-v1` load: one client connection sends its next
//! query only after the previous response line arrived. Each request line
//! (JSON + `\n`) goes out in one write on a `TCP_NODELAY` socket, so Nagle
//! and delayed ACKs do not sit inside the measured latency.
//!
//! One connection, not two: with two closed-loop connections the server's
//! unfair pool mutex lets a query lose the lock race to the other
//! connection's next query a varying number of times, and p99 spread
//! 0.13 of its median across runs of the same code (0.3-0.6 without the
//! one-CPU pinning); with one connection it spread 0.09.

use crate::oracle::{bfs_into, SnapshotRefs};
use crate::reference::Reference;
use crate::spans::{SpanId, Spans};
use crate::util::{percentile, Rng};
use bga_graph::CsrGraph;
use bga_kernels::bfs::INFINITY;
use bga_obs::{QueryKind, QueryPayload, QueryStatus, ServeRequest, ServeResponse, ServeStats};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Queries sent before the measured window (checked, not timed): they
/// fill the hot cache entries.
const WARMUP_QUERIES: usize = 10;
/// Queries per block (see [`blocks`]): each block leaves 10 samples above
/// its p99.
pub const P99_BLOCK: usize = 1_000;
/// A window ends only once this many queries completed (five p99 blocks).
pub const MIN_QUERIES: usize = 5 * P99_BLOCK;
/// Timed queries between two timings of the host-speed reference. Each
/// timing is followed by one untimed query: without it, the query right
/// after a timing ran up to 30% slower on a cold cache, and such queries
/// made up as much as 70% of a run's slowest 1%.
const REFERENCE_EVERY: usize = 50;
/// Hard stop past the window if the server is too slow to reach
/// [`MIN_QUERIES`].
const OVERRUN: Duration = Duration::from_secs(60);
/// Roots whose BFS trees the mix keeps hitting in the cache.
const HOT_ROOTS: usize = 2;
/// Seeded random roots the cold queries draw from: far more than the
/// server's LRU holds, so they miss, and few enough that the oracle checks
/// every answer with at most this many reference BFS runs (uniform roots
/// over the whole snapshot cost it several seconds per run).
const COLD_ROOTS: usize = 2_048;

/// The query kinds the mix sends, in report order.
pub const KINDS: [&str; 4] = ["distance", "path", "component", "core"];

/// One answered (or failed) query.
pub struct Record {
    pub kind: QueryKind,
    pub latency_ms: f64,
    /// Untimed: sent before the window or right after a reference timing
    /// (checked, not counted).
    pub warmup: bool,
    /// A timing of the host-speed reference taken right after this query.
    pub reference_ms: Option<f64>,
    /// `None` when the connection dropped.
    pub response: Option<ServeResponse>,
}

/// Draws the seeded query mix: 80% distance/path queries to roots drawn
/// uniformly from [`COLD_ROOTS`] random vertices (cache misses, one BFS
/// each on the server) and 20% hot
/// reads (two hot roots, component and core queries) that the LRU
/// answers, which keeps the hit share far from 50% so p50 is a miss.
pub struct Mix {
    rng: Rng,
    vertices: u32,
    hot: [u32; HOT_ROOTS],
    cold: Vec<u32>,
}

impl Mix {
    pub fn new(seed: u64, vertices: u32) -> Mix {
        let mut rng = Rng::new(seed ^ 0x4807_5EED);
        let hot = [rng.below(vertices), rng.below(vertices)];
        let cold = (0..COLD_ROOTS).map(|_| rng.below(vertices)).collect();
        Mix {
            rng,
            vertices,
            hot,
            cold,
        }
    }

    pub fn next(&mut self) -> QueryKind {
        let n = self.vertices;
        let draw = self.rng.unit();
        let target = self.rng.below(n);
        let root = if draw < 0.80 {
            self.cold[self.rng.below(COLD_ROOTS as u32) as usize]
        } else {
            self.hot[self.rng.below(HOT_ROOTS as u32) as usize]
        };
        match draw {
            d if d < 0.45 => QueryKind::Distance { root, target },
            d if d < 0.80 => QueryKind::Path { root, target },
            d if d < 0.85 => QueryKind::Distance { root, target },
            d if d < 0.90 => QueryKind::Path { root, target },
            d if d < 0.95 => QueryKind::Component { vertex: target },
            _ => QueryKind::Core { vertex: target },
        }
    }
}

pub fn kind_index(kind: &QueryKind) -> usize {
    match kind {
        QueryKind::Distance { .. } => 0,
        QueryKind::Path { .. } => 1,
        QueryKind::Component { .. } => 2,
        QueryKind::Core { .. } | QueryKind::BcRank { .. } => 3,
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line in a single write and reads one response;
    /// `None` when the connection dropped.
    fn send(&mut self, request: &ServeRequest) -> Option<ServeResponse> {
        let mut wire = request.to_json_line();
        wire.push('\n');
        self.writer.write_all(wire.as_bytes()).ok()?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) | Err(_) => None,
            Ok(_) => ServeResponse::parse_line(&self.line).ok(),
        }
    }

    fn stats(&mut self) -> std::io::Result<ServeStats> {
        match self.send(&ServeRequest::Stats) {
            Some(ServeResponse::Stats(stats)) => Ok(stats),
            other => Err(std::io::Error::other(format!(
                "stats request failed: {other:?}"
            ))),
        }
    }
}

/// What a load run measured.
pub struct LoadRun {
    pub records: Vec<Record>,
    /// Server counters at the window's start and end.
    pub before: ServeStats,
    pub after: ServeStats,
}

fn query_span(kind: &QueryKind) -> &'static str {
    match kind {
        QueryKind::Distance { .. } => "serve.query.distance",
        QueryKind::Path { .. } => "serve.query.path",
        QueryKind::Component { .. } => "serve.query.component",
        QueryKind::Core { .. } => "serve.query.core",
        QueryKind::BcRank { .. } => "serve.query.bc-rank",
    }
}

/// Drives the closed loop for `window` (extended until [`MIN_QUERIES`]
/// completed), timing the host-speed `reference` between queries, then
/// shuts the server down. A dropped connection is recorded as a failed
/// query and reopened.
pub fn run(
    addr: SocketAddr,
    seed: u64,
    vertices: u32,
    window: Duration,
    spans: &Spans,
    parent: SpanId,
    reference: &mut Reference,
) -> std::io::Result<LoadRun> {
    let mut conn = Conn::open(addr)?;
    let mut mix = Mix::new(seed, vertices);
    let mut records = Vec::new();
    // `timed` numbers the timed queries from 1 (0 for a warm-up one).
    let mut ask = |conn: &mut Conn, timed: usize| -> std::io::Result<()> {
        let kind = mix.next();
        let request = ServeRequest::Query {
            kind: kind.clone(),
            variant: None,
            timeout_ms: None,
        };
        let span = spans.open(query_span(&kind), parent);
        let response = conn.send(&request);
        let latency = spans.close(span);
        let dropped = response.is_none();
        records.push(Record {
            kind,
            latency_ms: latency.as_secs_f64() * 1e3,
            warmup: timed == 0,
            reference_ms: (timed > 0 && timed.is_multiple_of(REFERENCE_EVERY))
                .then(|| reference.time_ms()),
            response,
        });
        if dropped {
            *conn = Conn::open(addr)?;
        }
        Ok(())
    };
    for _ in 0..WARMUP_QUERIES {
        ask(&mut conn, 0)?;
    }
    let before = conn.stats()?;
    let start = Instant::now();
    let (deadline, hard_stop) = (start + window, start + window + OVERRUN);
    let mut done = 0;
    loop {
        let now = Instant::now();
        if now >= hard_stop || (now >= deadline && done >= MIN_QUERIES) {
            break;
        }
        done += 1;
        ask(&mut conn, done)?;
        if done.is_multiple_of(REFERENCE_EVERY) {
            // The reference just displaced the snapshot from the caches:
            // one untimed query warms them again, so no timed query pays
            // for the benchmark's own timing.
            ask(&mut conn, 0)?;
        }
    }
    let after = conn.stats()?;
    conn.send(&ServeRequest::Shutdown);
    Ok(LoadRun {
        records,
        before,
        after,
    })
}

/// The window's successful queries, in send order: each latency as
/// measured and scaled by `nominal / reference`, with the reference timed
/// right after that query's run of [`REFERENCE_EVERY`] queries (queries
/// after the last timing take the last one). Scaling each run of queries
/// by its own reference follows the host's speed changes inside the
/// window, which come every few seconds.
pub fn latencies(run: &LoadRun, nominal: f64) -> (Vec<f64>, Vec<f64>) {
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    let mut pending = 0;
    let mut last = f64::NAN;
    for r in run.records.iter().filter(|r| !r.warmup) {
        if !failed(r) {
            raw.push(r.latency_ms);
            pending += 1;
        }
        if let Some(reference) = r.reference_ms {
            last = reference;
            let from = raw.len() - pending;
            scaled.extend(raw[from..].iter().map(|l| l * nominal / reference));
            pending = 0;
        }
    }
    let from = raw.len() - pending;
    scaled.extend(raw[from..].iter().map(|l| l * nominal / last));
    (raw, scaled)
}

/// Latency p50 and p99 and throughput of one block of the window.
pub struct Block {
    pub p50: f64,
    pub p99: f64,
    pub qps: f64,
}

/// Splits latencies (in send order) into consecutive blocks of
/// [`P99_BLOCK`] (a trailing partial block is dropped unless there is no
/// full one) and measures each block. A block's rate is its size over its
/// summed latencies: what the closed loop sustains, leaving out the
/// client's reference timings.
pub fn blocks(latencies: &[f64]) -> Vec<Block> {
    let size = latencies.len().clamp(1, P99_BLOCK);
    latencies
        .chunks_exact(size)
        .map(|block| Block {
            p50: percentile(block, 0.50),
            p99: percentile(block, 0.99),
            qps: block.len() as f64 / (block.iter().sum::<f64>() / 1e3).max(1e-9),
        })
        .collect()
}

/// Whether a response counts as a failed operation (error, partial or a
/// dropped connection).
pub fn failed(record: &Record) -> bool {
    !matches!(
        record.response,
        Some(ServeResponse::Query {
            status: QueryStatus::Ok,
            ..
        })
    )
}

/// Checks every answered query against sequential references on the raw
/// snapshot: BFS distances, path validity and length, component and core
/// numbers. Failed records are skipped (they are counted, not judged).
pub fn verify(records: &[Record], graph: &CsrGraph, refs: &SnapshotRefs) -> Result<(), String> {
    let mut by_root: Vec<(u32, usize)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if failed(r) {
            continue;
        }
        let Some(ServeResponse::Query { payload, .. }) = &r.response else {
            continue;
        };
        match (&r.kind, payload) {
            (QueryKind::Distance { root, .. }, QueryPayload::Distance(_))
            | (QueryKind::Path { root, .. }, QueryPayload::Path(_)) => by_root.push((*root, i)),
            (QueryKind::Component { vertex }, QueryPayload::Component(c)) => {
                if *c != refs.components[*vertex as usize] {
                    return Err(format!("component of {vertex}: served {c}"));
                }
            }
            (QueryKind::Core { vertex }, QueryPayload::Core(c)) => {
                if *c != refs.cores[*vertex as usize] {
                    return Err(format!("core of {vertex}: served {c}"));
                }
            }
            (kind, payload) => return Err(format!("{kind:?} answered with {payload:?}")),
        }
    }
    by_root.sort_unstable();
    let (mut dist, mut queue) = (Vec::new(), VecDeque::new());
    let mut current = None;
    for (root, i) in by_root {
        if current != Some(root) {
            bfs_into(graph, root, &mut dist, &mut queue);
            current = Some(root);
        }
        let Some(ServeResponse::Query { payload, .. }) = &records[i].response else {
            continue;
        };
        let expect = |t: u32| (dist[t as usize] != INFINITY).then_some(dist[t as usize]);
        match (&records[i].kind, payload) {
            (QueryKind::Distance { target, .. }, QueryPayload::Distance(d)) => {
                if *d != expect(*target) {
                    return Err(format!("distance {root}->{target}: served {d:?}"));
                }
            }
            (QueryKind::Path { target, .. }, QueryPayload::Path(p)) => {
                if !path_ok(graph, root, *target, expect(*target), p.as_deref()) {
                    return Err(format!("path {root}->{target}: served {p:?}"));
                }
            }
            _ => unreachable!("only distance and path records are grouped by root"),
        }
    }
    Ok(())
}

/// A served path is right when it runs root→target along edges with as
/// many hops as the BFS distance (or is absent exactly when unreachable).
fn path_ok(
    graph: &CsrGraph,
    root: u32,
    target: u32,
    hops: Option<u32>,
    path: Option<&[u32]>,
) -> bool {
    match (hops, path) {
        (None, None) => true,
        (Some(h), Some(p)) => {
            p.len() == h as usize + 1
                && p.first() == Some(&root)
                && p.last() == Some(&target)
                && p.windows(2)
                    .all(|w| graph.neighbors(w[0]).binary_search(&w[1]).is_ok())
        }
        _ => false,
    }
}
