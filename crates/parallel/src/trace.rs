//! Run-level trace scaffolding shared by the traced kernel entry points.
//!
//! The engine loops emit bare [`TraceEvent::Phase`] events; what turns a
//! stream of phases into a well-formed `bga-trace-v1` document is the
//! [`TraceRun`] wrapper below: it emits the `run-start` header, counts and
//! accumulates every phase that flows through it, replays the worker
//! pool's collected metrics, and closes the stream with a `run-end`
//! trailer whose totals are exactly the sum of the forwarded phase
//! counters — the invariant `bga trace validate` checks.

use crate::cancel::RunOutcome;
use crate::pool::{PoolMetrics, WorkerPool};
use bga_graph::{AdjacencySource, GraphFootprint, VertexId};
use bga_obs::{PhaseCounters, RunFootprint, TraceEvent, TraceSink};
use std::sync::Mutex;
use std::time::Instant;

/// Scopes one kernel run over an inner sink: header on construction,
/// phase accounting while the engine runs, pool metrics and trailer on
/// [`TraceRun::finish`]. Implements [`TraceSink`] itself so it can be
/// handed straight to the engine loops' `run`; with a disabled
/// inner sink every method is a no-op.
pub(crate) struct TraceRun<'a, S: TraceSink> {
    inner: &'a S,
    /// `(phase events forwarded, summed phase counters)`.
    acc: Mutex<(usize, PhaseCounters)>,
    started: Option<Instant>,
}

impl<'a, S: TraceSink> TraceRun<'a, S> {
    /// Emits the `run-start` header and opens the run scope. The header
    /// is only built when the sink is enabled.
    pub(crate) fn start(inner: &'a S, header: impl FnOnce() -> TraceEvent) -> Self {
        let started = S::ENABLED.then(Instant::now);
        if S::ENABLED {
            inner.emit(header());
        }
        TraceRun {
            inner,
            acc: Mutex::new((0, PhaseCounters::default())),
            started,
        }
    }

    /// Phase events forwarded so far — the offset base multi-source
    /// drivers (Brandes) give each per-source
    /// [`bga_obs::OffsetSink`] so the whole run's indices stay
    /// consecutive.
    pub(crate) fn phases_so_far(&self) -> usize {
        self.acc.lock().unwrap().0
    }

    /// Replays the pool's collected metrics (when monitored) and emits
    /// the `run-end` trailer. A completed outcome leaves the trailer
    /// plain; an interrupted one marks it with the reason, so the stream
    /// stays a valid `bga-trace-v1` document (header, consecutive phases,
    /// totals that sum) that *says* it stopped early.
    pub(crate) fn finish_with_outcome(self, metrics: Option<PoolMetrics>, outcome: &RunOutcome) {
        if !S::ENABLED {
            return;
        }
        if let Some(metrics) = &metrics {
            emit_pool_metrics(self.inner, metrics);
        }
        let (phases, totals) = *self.acc.lock().unwrap();
        self.inner.emit(TraceEvent::RunEnd {
            phases,
            totals,
            wall_ns: self.started.map_or(0, |t| t.elapsed().as_nanos() as u64),
            interrupted: outcome.reason_str().map(str::to_string),
        });
    }
}

impl<S: TraceSink> TraceSink for TraceRun<'_, S> {
    const ENABLED: bool = S::ENABLED;

    fn emit(&self, event: TraceEvent) {
        if let TraceEvent::Phase(phase) = &event {
            let mut acc = self.acc.lock().unwrap();
            acc.0 += 1;
            acc.1 += phase.counters;
        }
        self.inner.emit(event);
    }
}

/// What a run's `run-start` header says besides the executor's width and
/// grain: kernel, variant, graph shape, and the root and bucket width
/// where the kernel has them.
pub(crate) struct RunLabel {
    pub(crate) kernel: &'static str,
    pub(crate) variant: &'static str,
    pub(crate) vertices: usize,
    pub(crate) edges: usize,
    pub(crate) footprint: GraphFootprint,
    pub(crate) root: Option<VertexId>,
    pub(crate) delta: Option<u32>,
}

impl RunLabel {
    /// A label for a run over an unweighted graph, without root or delta.
    pub(crate) fn new<G: AdjacencySource>(
        kernel: &'static str,
        variant: &'static str,
        graph: &G,
    ) -> Self {
        RunLabel {
            kernel,
            variant,
            vertices: graph.num_vertices(),
            edges: graph.num_edge_slots(),
            footprint: graph.footprint(),
            root: None,
            delta: None,
        }
    }

    /// The `run-start` event. `bga-obs` cannot depend on `bga-graph`, so
    /// the footprint is copied into the trace schema's own shape.
    pub(crate) fn header(self, threads: usize, grain: usize) -> TraceEvent {
        let fp = self.footprint;
        TraceEvent::RunStart {
            kernel: self.kernel.to_string(),
            variant: self.variant.to_string(),
            vertices: self.vertices,
            edges: self.edges,
            threads,
            grain,
            delta: self.delta,
            root: self.root,
            footprint: Some(RunFootprint {
                representation: fp.representation.to_string(),
                adjacency_bytes: fp.adjacency_bytes,
                index_bytes: fp.index_bytes,
                csr_bytes: fp.csr_bytes,
            }),
        }
    }
}

/// Emits a `pool-degraded` [`TraceEvent::Warning`] when the run's pool
/// lost workers: the run still completed (dead workers' chunks are
/// drained by the survivors and the submitting thread; with no survivors
/// the pool falls back to inline execution), but the schedule degraded
/// and the trace should say so. Guarded by the sink's `ENABLED` constant
/// like every other emission site.
pub(crate) fn emit_degradation_warning<S: TraceSink>(pool: &WorkerPool, sink: &S) {
    if S::ENABLED && pool.lost_workers() > 0 {
        sink.emit(TraceEvent::Warning {
            code: "pool-degraded".to_string(),
            message: format!(
                "{} of {} pool workers lost; their chunks ran on surviving \
                 threads (inline once none survive)",
                pool.lost_workers(),
                pool.threads().saturating_sub(1),
            ),
        });
    }
}

/// Replays collected [`PoolMetrics`] as one `pool-batch` event per
/// recorded batch followed by the `pool-summary` totals.
fn emit_pool_metrics<S: TraceSink>(sink: &S, metrics: &PoolMetrics) {
    for (batch, record) in metrics.batches.iter().enumerate() {
        sink.emit(TraceEvent::PoolBatch {
            batch,
            chunks: record.chunks,
            claimed: record.claimed.clone(),
            imbalance: record.imbalance(),
        });
    }
    sink.emit(TraceEvent::PoolSummary {
        batches: metrics.batches.len(),
        parks: metrics.parks as usize,
        wakes: metrics.wakes as usize,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BatchRecord;
    use bga_obs::{MemorySink, NoopSink, PhaseEvent, PhaseKind};

    fn phase(counters_scale: u64) -> TraceEvent {
        TraceEvent::Phase(PhaseEvent {
            index: 0,
            kind: PhaseKind::TopDown,
            bucket: None,
            frontier: 1,
            discovered: 1,
            changed: None,
            counters: PhaseCounters {
                updates: counters_scale,
                edges: 2 * counters_scale,
                ..PhaseCounters::default()
            },
            wall_ns: 0,
        })
    }

    #[test]
    fn run_scope_brackets_phases_with_header_and_totals() {
        let sink = MemorySink::new();
        let scope = TraceRun::start(&sink, || TraceEvent::RunStart {
            kernel: "bfs".to_string(),
            variant: "branch-avoiding".to_string(),
            vertices: 4,
            edges: 6,
            threads: 2,
            grain: 64,
            delta: None,
            root: Some(0),
            footprint: None,
        });
        scope.emit(phase(1));
        assert_eq!(scope.phases_so_far(), 1);
        scope.emit(phase(2));
        scope.finish_with_outcome(
            Some(PoolMetrics {
                batches: vec![BatchRecord {
                    chunks: 4,
                    claimed: vec![3, 1],
                }],
                parks: 5,
                wakes: 4,
            }),
            &RunOutcome::Completed,
        );
        let events = sink.take();
        assert_eq!(events.len(), 6);
        assert!(matches!(events[0], TraceEvent::RunStart { .. }));
        assert!(matches!(
            events[3],
            TraceEvent::PoolBatch {
                batch: 0,
                chunks: 4,
                ..
            }
        ));
        assert!(matches!(
            events[4],
            TraceEvent::PoolSummary {
                batches: 1,
                parks: 5,
                wakes: 4
            }
        ));
        match &events[5] {
            TraceEvent::RunEnd { phases, totals, .. } => {
                assert_eq!(*phases, 2);
                assert_eq!(totals.updates, 3);
                assert_eq!(totals.edges, 6);
            }
            other => panic!("expected run-end, got {other:?}"),
        }
    }

    #[test]
    fn interrupted_outcomes_mark_the_trailer() {
        use crate::cancel::InterruptReason;
        let sink = MemorySink::new();
        let scope = TraceRun::start(&sink, || TraceEvent::RunStart {
            kernel: "cc".to_string(),
            variant: "branch-avoiding".to_string(),
            vertices: 4,
            edges: 6,
            threads: 2,
            grain: 64,
            delta: None,
            root: None,
            footprint: None,
        });
        scope.emit(phase(1));
        scope.finish_with_outcome(
            None,
            &RunOutcome::Interrupted {
                reason: InterruptReason::DeadlineExpired,
                phases_done: 1,
            },
        );
        let events = sink.take();
        match events.last() {
            Some(TraceEvent::RunEnd {
                phases,
                interrupted,
                ..
            }) => {
                assert_eq!(*phases, 1);
                assert_eq!(interrupted.as_deref(), Some("deadline"));
            }
            other => panic!("expected run-end, got {other:?}"),
        }
    }

    #[test]
    #[cfg(debug_assertions)] // the fault seam compiles out of release builds
    fn lost_workers_surface_as_a_degradation_warning() {
        use crate::fault::FaultPlan;
        use crate::pool::{even_ranges, Execute};

        let pool = WorkerPool::with_faults(2, FaultPlan::new().kill_worker(0, 1));
        let mut spins = 0;
        while pool.lost_workers() < 1 {
            pool.run(even_ranges(8, 4), |_i, range| range.sum::<usize>());
            spins += 1;
            assert!(spins < 10_000, "worker never picked up a batch");
            std::thread::yield_now();
        }
        let sink = MemorySink::new();
        emit_degradation_warning(&pool, &sink);
        match sink.take().as_slice() {
            [TraceEvent::Warning { code, message }] => {
                assert_eq!(code, "pool-degraded");
                assert!(message.contains("1 of 1"), "unexpected message {message:?}");
            }
            other => panic!("expected one pool-degraded warning, got {other:?}"),
        }
        // A healthy pool warns about nothing.
        let healthy = WorkerPool::new(2);
        emit_degradation_warning(&healthy, &sink);
        assert!(sink.take().is_empty());
    }

    #[test]
    fn disabled_scope_emits_nothing() {
        let scope = TraceRun::start(&NoopSink, || TraceEvent::RunEnd {
            phases: 0,
            totals: PhaseCounters::default(),
            wall_ns: 0,
            interrupted: None,
        });
        const _: () = assert!(!TraceRun::<'static, NoopSink>::ENABLED);
        assert!(scope.started.is_none());
        scope.finish_with_outcome(None, &RunOutcome::Completed);
    }
}
