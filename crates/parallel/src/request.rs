//! The unified kernel-invocation API: one config, one `run_*` per
//! kernel.
//!
//! [`RunConfig`] says *how* to run: worker count, grain override,
//! instrumentation, an optional [`TraceSink`], an optional
//! [`CancelToken`] and an optional borrowed executor
//! ([`RunConfig::on`]). The sink and the executor are compile-time type
//! parameters (`TraceSink::ENABLED` is a `const`, deliberately not
//! dyn-compatible), so a default config compiles to exactly the untraced
//! fast path: a per-call [`WorkerPool`], no tally, no trace scaffolding.
//!
//! Each kernel has one typed entry point ([`run_components`],
//! [`run_bfs`], [`run_kcore`], [`run_betweenness`], [`run_sssp_unit`],
//! [`run_sssp_weighted`]) and behind it one driver that makes the
//! variant choice once. [`Variant::Auto`] adds runtime selection on top:
//! the run samples its first phases instrumented and the
//! [`bga_perfmodel::advisor`] picks the discipline for the rest.
//!
//! ```
//! use bga_graph::generators::{grid_2d, MeshStencil};
//! use bga_parallel::request::{run_bfs, BfsStrategy, RunConfig, Variant};
//! use bga_parallel::WorkerPool;
//!
//! let g = grid_2d(16, 16, MeshStencil::VonNeumann);
//! let cfg = RunConfig::new().threads(4);
//! let (run, outcome) = run_bfs(&g, 0, BfsStrategy::Plain(Variant::BranchAvoiding), &cfg);
//! assert!(outcome.is_completed());
//! assert_eq!(run.result.reached_count(), g.num_vertices());
//! // A long-lived caller lends its own pool instead of paying a spawn per run.
//! let pool = WorkerPool::new(2);
//! let cfg = RunConfig::new().on(&pool).grain(1);
//! let (run, _) = run_bfs(&g, 0, BfsStrategy::Plain(Variant::BranchBased), &cfg);
//! assert_eq!(run.threads, 2);
//! ```

use crate::bc::ParBcRun;
use crate::bfs::ParDirBfsRun;
use crate::cancel::{CancelToken, RunOutcome};
use crate::engine::TraversalState;
use crate::kcore::ParKcoreRun;
use crate::pool::{env_grain, Execute, PoolMonitor, RunExecutor, WorkerPool};
use crate::sssp::{ParSsspRun, ParWssspRun};
use crate::sv::ParSvRun;
use crate::trace::{emit_degradation_warning, RunLabel, TraceRun};
use bga_graph::{AdjacencySource, VertexId, WeightedAdjacencySource};
use bga_kernels::bfs::direction_optimizing::DirectionConfig;
use bga_kernels::cc::ComponentLabels;
use bga_obs::{NoopSink, TraceSink};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Which per-edge hooking discipline a kernel runs with — the axis the
/// paper contrasts. One enum for every kernel (the per-kernel aliases
/// `SsspVariant`, `KcoreVariant` and `BcVariant` all name this type).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Data-dependent test guarding a compare-and-swap claim.
    BranchBased,
    /// Unconditional priority write (`fetch_min`/`fetch_sub`) with a
    /// predicated, branch-free claim.
    BranchAvoiding,
    /// Adaptive: sample the first phases branch-based with tallying on,
    /// feed the perf model's variant advisor, and hot-switch to the
    /// predicted-best discipline at the next phase boundary (see
    /// [`crate::auto::AutoSwitch`]). Results are bit-identical to both
    /// static variants — the disciplines share the same monotone atomic
    /// state.
    Auto,
}

impl Variant {
    /// The serialized name trace headers and the CLI use.
    pub fn as_str(self) -> &'static str {
        match self {
            Variant::BranchBased => "branch-based",
            Variant::BranchAvoiding => "branch-avoiding",
            Variant::Auto => "auto",
        }
    }
}

impl std::str::FromStr for Variant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "branch-based" | "branchy" => Ok(Variant::BranchBased),
            "branch-avoiding" | "avoiding" => Ok(Variant::BranchAvoiding),
            "auto" => Ok(Variant::Auto),
            other => Err(format!(
                "unknown variant '{other}' (expected 'branch-based', 'branch-avoiding' or 'auto')"
            )),
        }
    }
}

/// Which BFS expansion strategy a request runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BfsStrategy {
    /// Strictly top-down expansion in the given hooking discipline.
    Plain(Variant),
    /// Direction-optimizing expansion (branch-avoiding hooking) with the
    /// given switching thresholds.
    DirectionOptimizing(DirectionConfig),
}

impl BfsStrategy {
    /// The serialized strategy name trace headers carry.
    pub fn as_str(&self) -> &'static str {
        match self {
            BfsStrategy::Plain(v) => v.as_str(),
            BfsStrategy::DirectionOptimizing(_) => "direction-optimizing",
        }
    }
}

/// How to run a kernel, folded into one builder.
///
/// The defaults are the fast path: all cores, environment grain, no
/// instrumentation, no trace, no cancellation, a pool built for the run.
/// A [`TraceSink`] is a type parameter (not a trait object —
/// [`TraceSink::ENABLED`] is a `const` the kernels compile against), so
/// attaching one via [`RunConfig::traced`] rebinds the config's type; so
/// does lending an executor via [`RunConfig::on`]. Everything else is
/// runtime data.
pub struct RunConfig<'a, S: TraceSink = NoopSink, E: Execute = WorkerPool> {
    pub(crate) threads: usize,
    pub(crate) grain: Option<usize>,
    pub(crate) instrumented: bool,
    pub(crate) sink: &'a S,
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) exec: Option<&'a E>,
}

// Manual impls: a derive would demand `S: Clone` and `E: Clone`, but the
// config only holds references to them.
impl<S: TraceSink, E: Execute> Clone for RunConfig<'_, S, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: TraceSink, E: Execute> Copy for RunConfig<'_, S, E> {}

impl RunConfig<'static, NoopSink, WorkerPool> {
    /// The default configuration: every available core, grain from the
    /// environment, plain uninstrumented kernels on a per-call pool.
    pub fn new() -> Self {
        RunConfig {
            threads: 0,
            grain: None,
            instrumented: false,
            sink: &NoopSink,
            cancel: None,
            exec: None,
        }
    }
}

impl Default for RunConfig<'static, NoopSink, WorkerPool> {
    fn default() -> Self {
        RunConfig::new()
    }
}

impl<'a, S: TraceSink, E: Execute> RunConfig<'a, S, E> {
    /// Worker-thread count; `0` (the default) uses every available core.
    /// Ignored when an executor is lent with [`RunConfig::on`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the fan-out grain (minimum weight units before a
    /// sweep/level dispatches to the pool) instead of reading
    /// [`crate::pool::GRAIN_ENV_VAR`].
    pub fn grain(mut self, grain: usize) -> Self {
        self.grain = Some(grain);
        self
    }

    /// Tally per-operation counters (loads, stores, branches) into the
    /// run's [`bga_kernels::stats::RunCounters`]. Off by default — the
    /// tally is a `const` seam that compiles out of plain runs.
    pub fn instrumented(mut self, instrumented: bool) -> Self {
        self.instrumented = instrumented;
        self
    }

    /// Attaches a [`TraceSink`] that receives the run's `bga-trace-v1`
    /// event stream; rebinds the config's sink type. A traced run always
    /// tallies (phase counters are real), and a run on its own pool also
    /// reports the pool's batch metrics.
    pub fn traced<T: TraceSink>(self, sink: &'a T) -> RunConfig<'a, T, E> {
        RunConfig {
            threads: self.threads,
            grain: self.grain,
            instrumented: self.instrumented,
            sink,
            cancel: self.cancel,
            exec: self.exec,
        }
    }

    /// Attaches a [`CancelToken`] checked at every phase boundary; the
    /// run reports how it ended through its [`RunOutcome`].
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs on a caller-held executor instead of a pool built for the
    /// run: the seam long-lived callers (the `bga serve` query loop, the
    /// benches, the forced-fan-out tests) use to keep pool spawn out of
    /// every call. The worker count is then the executor's.
    pub fn on<F: Execute>(self, exec: &'a F) -> RunConfig<'a, S, F> {
        RunConfig {
            threads: self.threads,
            grain: self.grain,
            instrumented: self.instrumented,
            sink: self.sink,
            cancel: self.cancel,
            exec: Some(exec),
        }
    }

    /// Whether kernels compile their tally in: instrumented runs, and
    /// traced runs (phase counters are real). A cancel token or resume
    /// state does not need one.
    pub(crate) fn tallied(&self) -> bool {
        self.instrumented || S::ENABLED
    }

    /// Runs one kernel body inside the run's scaffolding: resolves the
    /// executor (the lent one, or a pool built for this run — monitored
    /// only when traced), opens the trace scope (header only when
    /// traced), hands `body` the executor, grain and scope, then closes
    /// the scope with the pool's degradation warning, metrics and the
    /// outcome-marked trailer. With a [`NoopSink`] the scope compiles to
    /// nothing and this is the plain per-call-pool run.
    pub(crate) fn drive<R>(
        &self,
        label: RunLabel,
        body: impl FnOnce(&RunExecutor<'_, E>, usize, &TraceRun<'_, S>) -> (R, RunOutcome),
    ) -> (R, RunOutcome) {
        let grain = self.grain.unwrap_or_else(env_grain);
        let monitor = (S::ENABLED && self.exec.is_none()).then(PoolMonitor::new);
        let exec = match (self.exec, &monitor) {
            (Some(exec), _) => RunExecutor::Borrowed(exec),
            (None, Some(monitor)) => {
                RunExecutor::Owned(WorkerPool::with_monitor(self.threads, Arc::clone(monitor)))
            }
            (None, None) => RunExecutor::Owned(WorkerPool::new(self.threads)),
        };
        let scope = TraceRun::start(self.sink, || label.header(exec.parallelism(), grain));
        let (result, outcome) = body(&exec, grain, &scope);
        if let RunExecutor::Owned(pool) = &exec {
            emit_degradation_warning(pool, &scope);
        }
        scope.finish_with_outcome(monitor.map(|m| m.take_metrics()), &outcome);
        (result, outcome)
    }
}

/// Parallel Shiloach-Vishkin connected components under `config`.
pub fn run_components<G: AdjacencySource, S: TraceSink, E: Execute>(
    graph: &G,
    variant: Variant,
    config: &RunConfig<'_, S, E>,
) -> (ParSvRun, RunOutcome) {
    crate::sv::run_request(graph, variant, None, config)
}

/// Resumes connected components from partial labels (typically the state
/// an interrupted run returned): sweeps continue lowering the given
/// labels instead of the identity and converge to the same fixpoint.
pub fn run_components_resumed<G: AdjacencySource, S: TraceSink, E: Execute>(
    graph: &G,
    variant: Variant,
    labels: &ComponentLabels,
    config: &RunConfig<'_, S, E>,
) -> (ParSvRun, RunOutcome) {
    crate::sv::run_request(graph, variant, Some(labels), config)
}

/// Parallel BFS from `root` under `config`.
pub fn run_bfs<G: AdjacencySource, S: TraceSink, E: Execute>(
    graph: &G,
    root: VertexId,
    strategy: BfsStrategy,
    config: &RunConfig<'_, S, E>,
) -> (ParDirBfsRun, RunOutcome) {
    let state = TraversalState::new(graph.num_vertices());
    let ((run, threads), outcome) = crate::bfs::run_request(graph, root, strategy, &state, config);
    (
        ParDirBfsRun::new(state.into_distances(), run, threads),
        outcome,
    )
}

/// [`run_bfs`] reusing a caller-held [`TraversalState`] allocation: the
/// state is reset in place before the traversal and the distances are
/// snapshotted out, so a long-lived caller (the `bga serve` query loop)
/// answers repeated BFS queries without reallocating the atomic arrays.
/// The state must be sized for `graph`.
pub fn run_bfs_reusing<G: AdjacencySource, S: TraceSink, E: Execute>(
    graph: &G,
    root: VertexId,
    strategy: BfsStrategy,
    config: &RunConfig<'_, S, E>,
    state: &mut TraversalState,
) -> (ParDirBfsRun, RunOutcome) {
    assert_eq!(
        state.len(),
        graph.num_vertices(),
        "traversal state sized for a different graph"
    );
    state.reset();
    let ((run, threads), outcome) = crate::bfs::run_request(graph, root, strategy, state, config);
    let distances = state.distances().iter().map(|d| d.load(Relaxed)).collect();
    (ParDirBfsRun::new(distances, run, threads), outcome)
}

/// Parallel k-core decomposition under `config`.
pub fn run_kcore<G: AdjacencySource, S: TraceSink, E: Execute>(
    graph: &G,
    variant: Variant,
    config: &RunConfig<'_, S, E>,
) -> (ParKcoreRun, RunOutcome) {
    crate::kcore::run_request(graph, variant, config)
}

/// Parallel Brandes betweenness centrality under `config`. With
/// `sources: None` the scores are the exact halved all-pairs
/// accumulation; with an explicit source set they are the raw un-halved
/// partial accumulation (see [`ParBcRun`] for the partial-result
/// semantics under cancellation).
pub fn run_betweenness<G: AdjacencySource, S: TraceSink, E: Execute>(
    graph: &G,
    variant: Variant,
    sources: Option<&[VertexId]>,
    config: &RunConfig<'_, S, E>,
) -> (ParBcRun, RunOutcome) {
    crate::bc::run_request(graph, variant, sources, config)
}

/// Parallel unit-weight SSSP from `root` under `config`.
pub fn run_sssp_unit<G: AdjacencySource, S: TraceSink, E: Execute>(
    graph: &G,
    root: VertexId,
    variant: Variant,
    config: &RunConfig<'_, S, E>,
) -> (ParSsspRun, RunOutcome) {
    crate::sssp::run_unit_request(graph, root, variant, config)
}

/// Parallel weighted delta-stepping SSSP from `root` under `config`.
pub fn run_sssp_weighted<W: WeightedAdjacencySource, S: TraceSink, E: Execute>(
    graph: &W,
    root: VertexId,
    delta: u32,
    variant: Variant,
    config: &RunConfig<'_, S, E>,
) -> (ParWssspRun, RunOutcome) {
    crate::sssp::run_weighted_request(graph, root, delta, variant, None, config)
}

/// Resumes weighted delta-stepping from the partial distances an
/// interrupted run returned; bit-identical to an uninterrupted run.
pub fn run_sssp_weighted_resumed<W: WeightedAdjacencySource, S: TraceSink, E: Execute>(
    graph: &W,
    root: VertexId,
    delta: u32,
    variant: Variant,
    distances: &[u32],
    config: &RunConfig<'_, S, E>,
) -> (ParWssspRun, RunOutcome) {
    crate::sssp::run_weighted_request(graph, root, delta, variant, Some(distances), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bga_graph::generators::{grid_2d, MeshStencil};

    #[test]
    fn variant_parses_and_serializes() {
        assert_eq!("branch-avoiding".parse(), Ok(Variant::BranchAvoiding));
        assert_eq!("branch-based".parse(), Ok(Variant::BranchBased));
        assert_eq!("auto".parse(), Ok(Variant::Auto));
        assert_eq!(Variant::BranchAvoiding.as_str(), "branch-avoiding");
        assert_eq!(Variant::Auto.as_str(), "auto");
        assert!("sideways".parse::<Variant>().is_err());
    }

    #[test]
    fn grain_override_forces_fan_out_without_env() {
        let g = grid_2d(12, 12, MeshStencil::VonNeumann);
        let cfg = RunConfig::new().threads(2).grain(1);
        let (run, outcome) = run_bfs(&g, 0, BfsStrategy::Plain(Variant::BranchAvoiding), &cfg);
        assert!(outcome.is_completed());
        assert_eq!(run.result.reached_count(), g.num_vertices());
    }
}
