//! The kernel battery: the paper's sequential kernels (`bga_kernels`) and
//! the parallel `request::run_*` entry points, timed call by call in
//! interleaved rounds, every result checked against its reference.

use crate::oracle::KernelRefs;
use crate::reference::Reference;
use crate::spans::{SpanId, Spans};
use crate::util::ms;
use crate::workload::{DELTA, POOL_THREADS};
use bga_graph::{AdjacencySource, CsrGraph, WeightedCsrGraph};
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_kernels::bfs::{bfs_branch_avoiding, bfs_branch_based, BfsResult};
use bga_kernels::cc::{sv_branch_avoiding, sv_branch_based, ComponentLabels};
use bga_kernels::SsspResult;
use bga_obs::{MemorySink, TraceEvent, TraceSink};
use bga_parallel::request::{run_bfs, run_components, run_sssp_weighted};
use bga_parallel::{BfsStrategy, RunConfig, Variant};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    SeqCcBb,
    SeqCcBa,
    SeqBfsBb,
    SeqBfsBa,
    CcBb,
    CcBa,
    CcAuto,
    BfsBb,
    BfsBa,
    BfsDo,
    SsspBa,
}

pub const OPS: [Op; 11] = [
    Op::SeqCcBb,
    Op::SeqCcBa,
    Op::SeqBfsBb,
    Op::SeqBfsBa,
    Op::CcBb,
    Op::CcBa,
    Op::CcAuto,
    Op::BfsBb,
    Op::BfsBa,
    Op::BfsDo,
    Op::SsspBa,
];

impl Op {
    /// Short name; the end-to-end metric is `<name>_ms`.
    pub fn name(self) -> &'static str {
        self.names().0
    }

    fn span(self) -> &'static str {
        self.names().1
    }

    fn traced_span(self) -> &'static str {
        self.names().2
    }

    fn pool_span(self) -> &'static str {
        self.names().3
    }

    /// (name, untraced span, traced span, 2-thread traced span).
    fn names(self) -> (&'static str, &'static str, &'static str, &'static str) {
        match self {
            Op::SeqCcBb => ("seq_cc_bb", "kernels.sv_branch_based", "", ""),
            Op::SeqCcBa => ("seq_cc_ba", "kernels.sv_branch_avoiding", "", ""),
            Op::SeqBfsBb => ("seq_bfs_bb", "kernels.bfs_branch_based", "", ""),
            Op::SeqBfsBa => ("seq_bfs_ba", "kernels.bfs_branch_avoiding", "", ""),
            Op::CcBb => (
                "cc_bb",
                "engine.run_components.bb",
                "engine.run_components.bb.traced",
                "pool.run_components.bb.traced",
            ),
            Op::CcBa => (
                "cc_ba",
                "engine.run_components.ba",
                "engine.run_components.ba.traced",
                "pool.run_components.ba.traced",
            ),
            Op::CcAuto => (
                "cc_auto",
                "engine.run_components.auto",
                "engine.run_components.auto.traced",
                "pool.run_components.auto.traced",
            ),
            Op::BfsBb => (
                "bfs_bb",
                "engine.run_bfs.bb",
                "engine.run_bfs.bb.traced",
                "pool.run_bfs.bb.traced",
            ),
            Op::BfsBa => (
                "bfs_ba",
                "engine.run_bfs.ba",
                "engine.run_bfs.ba.traced",
                "pool.run_bfs.ba.traced",
            ),
            Op::BfsDo => (
                "bfs_do",
                "engine.run_bfs.do",
                "engine.run_bfs.do.traced",
                "pool.run_bfs.do.traced",
            ),
            Op::SsspBa => (
                "sssp_ba",
                "engine.run_sssp_weighted.ba",
                "engine.run_sssp_weighted.ba.traced",
                "pool.run_sssp_weighted.ba.traced",
            ),
        }
    }

    /// Whether the op is a `request::run_*` call (traceable, pooled).
    pub fn parallel(self) -> bool {
        !matches!(
            self,
            Op::SeqCcBb | Op::SeqCcBa | Op::SeqBfsBb | Op::SeqBfsBa
        )
    }

    pub const PARALLEL: [Op; 7] = [
        Op::CcBb,
        Op::CcBa,
        Op::CcAuto,
        Op::BfsBb,
        Op::BfsBa,
        Op::BfsDo,
        Op::SsspBa,
    ];
}

enum Answer {
    Components(ComponentLabels),
    Bfs(BfsResult),
    Weighted(SsspResult),
}

/// What one traced call's `bga-trace-v1` events say.
#[derive(Clone, Debug, Default)]
pub struct CallTrace {
    pub phases: u64,
    pub edge_tests: u64,
    pub updates: u64,
    pub mispredictions: u64,
    pub phase_ms: f64,
    pub batches: u64,
    pub max_imbalance: f64,
    /// The advisor's choice (`true` = branch-avoiding) and the phase it
    /// took effect after.
    pub decision: Option<(bool, u64)>,
}

impl CallTrace {
    fn from_events(events: &[TraceEvent]) -> CallTrace {
        let mut t = CallTrace::default();
        for event in events {
            match event {
                TraceEvent::Phase(p) => {
                    t.phases += 1;
                    t.edge_tests += p.counters.edges;
                    t.updates += p.counters.updates;
                    t.mispredictions += p.counters.mispredictions;
                    t.phase_ms += p.wall_ns as f64 / 1e6;
                }
                TraceEvent::PoolBatch { imbalance, .. } => {
                    t.batches += 1;
                    t.max_imbalance = t.max_imbalance.max(*imbalance);
                }
                TraceEvent::Decision(d) => {
                    t.decision = Some((
                        d.variant == Variant::BranchAvoiding.as_str(),
                        d.phase as u64,
                    ));
                }
                _ => {}
            }
        }
        t
    }
}

/// Inputs of the battery, one entry per layout (see
/// [`crate::workload::LAYOUTS`]). `par` is the graph the parallel kernels
/// run on (raw CSR or the varint snapshot); the sequential kernels take
/// raw CSR.
pub struct Battery<'a, G> {
    pub raw: &'a [CsrGraph],
    pub par: &'a [G],
    pub weighted: &'a [WeightedCsrGraph],
    pub root: u32,
    pub refs: &'a KernelRefs,
    /// Worker count of the untraced and engine-traced parallel calls.
    pub threads: usize,
}

#[derive(Default)]
pub struct Samples {
    /// Untraced wall times in ms, indexed like [`OPS`].
    pub untraced: Vec<Vec<f64>>,
    /// Traced wall times in ms (parallel ops, traced runs only).
    pub traced: Vec<Vec<f64>>,
    pub traces: Vec<Vec<CallTrace>>,
    /// Events of the [`POOL_THREADS`] traced calls.
    pub pool_traces: Vec<Vec<CallTrace>>,
    /// The host-speed reference, timed once per round.
    pub reference: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl<G: AdjacencySource> Battery<'_, G> {
    fn call<S: TraceSink>(&self, op: Op, layout: usize, cfg: &RunConfig<'_, S>) -> (Answer, bool) {
        let plain = |v| BfsStrategy::Plain(v);
        let (raw, par) = (&self.raw[layout], &self.par[layout]);
        match op {
            Op::SeqCcBb => (Answer::Components(sv_branch_based(raw)), true),
            Op::SeqCcBa => (Answer::Components(sv_branch_avoiding(raw)), true),
            Op::SeqBfsBb => (Answer::Bfs(bfs_branch_based(raw, self.root)), true),
            Op::SeqBfsBa => (Answer::Bfs(bfs_branch_avoiding(raw, self.root)), true),
            Op::CcBb | Op::CcBa | Op::CcAuto => {
                let variant = match op {
                    Op::CcBb => Variant::BranchBased,
                    Op::CcBa => Variant::BranchAvoiding,
                    _ => Variant::Auto,
                };
                let (run, outcome) = run_components(par, variant, cfg);
                (Answer::Components(run.labels), outcome.is_completed())
            }
            Op::BfsBb | Op::BfsBa | Op::BfsDo => {
                let strategy = match op {
                    Op::BfsBb => plain(Variant::BranchBased),
                    Op::BfsBa => plain(Variant::BranchAvoiding),
                    _ => BfsStrategy::DirectionOptimizing(DirectionConfig::default()),
                };
                let (run, outcome) = run_bfs(par, self.root, strategy, cfg);
                (Answer::Bfs(run.result), outcome.is_completed())
            }
            Op::SsspBa => {
                let (run, outcome) = run_sssp_weighted(
                    &self.weighted[layout],
                    self.root,
                    DELTA,
                    Variant::BranchAvoiding,
                    cfg,
                );
                (Answer::Weighted(run.result), outcome.is_completed())
            }
        }
    }

    fn check(&self, op: Op, answer: &Answer) -> Result<(), String> {
        let ok = match answer {
            Answer::Components(labels) => labels.canonical() == self.refs.components,
            Answer::Bfs(result) => result.distances() == self.refs.bfs.as_slice(),
            Answer::Weighted(result) => result.distances() == self.refs.weighted.as_slice(),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} differs from its sequential reference",
                op.name()
            ))
        }
    }

    /// One timed, checked call. Returns the wall time in ms and whether
    /// the run completed.
    fn timed<S: TraceSink>(
        &self,
        op: Op,
        layout: usize,
        cfg: &RunConfig<'_, S>,
        spans: &Spans,
        span: &'static str,
        parent: SpanId,
    ) -> Result<(f64, bool), String> {
        let open = spans.open(span, parent);
        let start = Instant::now();
        let (answer, completed) = black_box(self.call(op, layout, cfg));
        let wall = start.elapsed();
        spans.close(open);
        self.check(op, &answer)?;
        Ok((ms(wall), completed))
    }

    /// Runs interleaved rounds over every op until `budget` has passed
    /// (at least `MIN_ROUNDS`), after one untimed warm-up round; each
    /// round runs on the next layout and ends with one timing of the
    /// host-speed `reference`. With `traced`, each parallel op also runs
    /// once per round with a [`MemorySink`] attached, right after its
    /// untraced call, and once more traced on [`POOL_THREADS`] workers for
    /// the `pool.<k>.*` metrics.
    pub fn run(
        &self,
        budget: Duration,
        traced: bool,
        spans: &Spans,
        parent: SpanId,
        reference: &mut Reference,
    ) -> Result<Samples, String> {
        const MIN_ROUNDS: usize = 5;
        let cfg = RunConfig::new().threads(self.threads);
        let mut samples = Samples {
            untraced: vec![Vec::new(); OPS.len()],
            traced: vec![Vec::new(); OPS.len()],
            traces: vec![Vec::new(); OPS.len()],
            pool_traces: vec![Vec::new(); OPS.len()],
            ..Samples::default()
        };
        let start = Instant::now();
        let mut round = 0usize;
        // Round 0 is the warm-up: checked, not recorded.
        while round <= MIN_ROUNDS || start.elapsed() < budget {
            let layout = round % self.raw.len();
            for (i, &op) in OPS.iter().enumerate() {
                let (wall, completed) = self.timed(op, layout, &cfg, spans, op.span(), parent)?;
                if round > 0 {
                    samples.untraced[i].push(wall);
                    samples.attempted += 1;
                    samples.failed += u64::from(!completed);
                }
                if traced && op.parallel() {
                    let sink = MemorySink::new();
                    let traced_cfg = cfg.traced(&sink);
                    let (wall, completed) =
                        self.timed(op, layout, &traced_cfg, spans, op.traced_span(), parent)?;
                    let pool_sink = MemorySink::new();
                    let pool_cfg = RunConfig::new().threads(POOL_THREADS).traced(&pool_sink);
                    let (_, pool_completed) =
                        self.timed(op, layout, &pool_cfg, spans, op.pool_span(), parent)?;
                    if round > 0 {
                        samples.traced[i].push(wall);
                        samples.traces[i].push(CallTrace::from_events(&sink.take()));
                        samples.pool_traces[i].push(CallTrace::from_events(&pool_sink.take()));
                        samples.attempted += 2;
                        samples.failed += u64::from(!completed) + u64::from(!pool_completed);
                    }
                }
            }
            let reference_ms = reference.time_ms();
            if round > 0 {
                samples.reference.push(reference_ms);
            }
            round += 1;
        }
        Ok(samples)
    }
}
