//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mesh|powerlaw|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is made from `--seed`; every timed result is checked
//! against a sequential reference. The last line of standard output is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` for the metric catalogue.

mod kernels;
mod load;
mod oracle;
mod probes;
mod reference;
mod report;
mod spans;
mod util;
mod workload;

use kernels::{Battery, Op, Samples, OPS};
use load::LoadRun;
use reference::Reference;
use report::{Report, Source};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use util::{mean, median, percentile, Noise};
use workload::{Inputs, SetupTimes};

/// Which order statistic of a run's timed calls (and of the per-round
/// host-speed references) a kernel metric reports. The host this
/// benchmark was tuned on (a shared 2-vCPU virtual machine) switches
/// between a fast and a slow mode every few seconds: a fixed loop pinned
/// to one vCPU took 27-31 ms or 41-50 ms per call depending on the
/// 2-second window, with the slow share of a run varying from run to run.
/// A median mixes the two modes in that varying proportion. Over 7 runs
/// each of `mesh` and `serve`, the normalized lower quintile spread at
/// most 8% of its median, the lower decile 13%, the median 23%.
const CALL_QUANTILE: f64 = 0.20;
/// The same for the query window: latency metrics report the lower
/// quartile of the per-block p50s and p99s, throughput the upper quartile
/// of the per-block rates (see [`load::blocks`]).
const BLOCK_QUANTILE: f64 = 0.25;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Share of `--seconds` a traced run leaves for the layer probes.
const PROBE_SHARE: f64 = 0.15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value:?}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (mesh, powerlaw or serve)")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload mesh|powerlaw|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Wrong(message, attempted, failed)) => {
            eprintln!("perfbench: wrong result: {message}");
            println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
        Err(Failure::Error(message)) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(1)
        }
    }
}

enum Failure {
    /// A result differed from its sequential reference.
    Wrong(String, u64, u64),
    /// The benchmark itself could not run.
    Error(String),
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Error(e.to_string())
    }
}

fn run(args: &Args) -> Result<(), Failure> {
    let spec = workload::find(&args.workload).ok_or_else(|| {
        Failure::Error(format!(
            "unknown workload {:?} (mesh, powerlaw or serve)",
            args.workload
        ))
    })?;
    let run_id = format!("{}-seed{}", spec.name, args.seed);
    let spans = Spans::new(args.trace, run_id.clone());
    let noise_start = Noise::read();
    let started = std::time::Instant::now();
    let root = spans.open("run", 0);
    let run_span = root.id();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} kernel_threads={} serve_threads={} host_cpus={cpus}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.kernel_threads,
        spec.serve_threads
    );

    let mut setups = Vec::new();
    let mut setup_reference = Vec::new();
    let mut reference: Option<Reference> = None;
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let (fresh, times) = workload::setup(&spec, args.seed, &spans, run_span)?;
        setups.push(times);
        let reference =
            reference.get_or_insert_with(|| Reference::new(&fresh.kernel[0], spec.compressed));
        setup_reference.push(reference.time_ms());
        inputs = Some(fresh);
    }
    let mut inputs = inputs.expect("at least one set-up ran");
    let mut reference = reference.expect("at least one set-up ran");

    let ((kernel_refs, snapshot_refs), _) = spans.time("oracle.references", run_span, || {
        (
            oracle::KernelRefs::new(&inputs.kernel[0], &inputs.weighted[0], inputs.kernel_root),
            oracle::SnapshotRefs::new(&inputs.snapshot),
        )
    });

    // Set-up and references come out of `--seconds` too, so a run lasts
    // about `--seconds` whatever its set-up costs.
    let left = (args.seconds as f64 - started.elapsed().as_secs_f64()).max(1.0);
    let seconds = left * if args.trace { 1.0 - PROBE_SHARE } else { 1.0 };
    let kernel_budget = Duration::from_secs_f64(seconds * (1.0 - spec.serve_share));
    let serve_window = Duration::from_secs_f64(seconds * spec.serve_share);

    let kernel_span = spans.open("kernels", run_span);
    let samples = if inputs.kernel_compressed.is_empty() {
        battery(&spec, &inputs, &inputs.kernel, &kernel_refs).run(
            kernel_budget,
            args.trace,
            &spans,
            kernel_span.id(),
            &mut reference,
        )
    } else {
        battery(&spec, &inputs, &inputs.kernel_compressed, &kernel_refs).run(
            kernel_budget,
            args.trace,
            &spans,
            kernel_span.id(),
            &mut reference,
        )
    }
    .map_err(|e| Failure::Wrong(e, 0, 0))?;
    spans.close(kernel_span);

    let serve_span = spans.open("serve", run_span);
    let server = inputs
        .server
        .take()
        .expect("set-up binds the server")
        .start()?;
    let vertices = inputs.snapshot.num_vertices() as u32;
    let mut query_reference = Reference::new(&inputs.snapshot, spec.compressed);
    let load = load::run(
        server.addr,
        args.seed,
        vertices,
        serve_window,
        &spans,
        serve_span.id(),
        &mut query_reference,
    )?;
    server
        .handle
        .join()
        .map_err(|_| Failure::Error("server thread panicked".into()))??;
    spans.close(serve_span);

    let timed: Vec<&load::Record> = load.records.iter().filter(|r| !r.warmup).collect();
    let attempted = samples.attempted + timed.len() as u64;
    let failed = samples.failed + timed.iter().filter(|r| load::failed(r)).count() as u64;
    let (checked, _) = spans.time("oracle.serve", run_span, || {
        load::verify(&load.records, &inputs.snapshot, &snapshot_refs)
    });
    checked.map_err(|e| Failure::Wrong(e, attempted, failed))?;

    let mut report = Report::default();
    if args.trace {
        let probe_span = spans.open("probes", run_span);
        layer_metrics(
            &mut report,
            &inputs,
            &setups,
            &setup_reference,
            &samples,
            &load,
            &spans,
            probe_span.id(),
        );
        spans.close(probe_span);
    } else {
        end_to_end_metrics(
            &mut report,
            &spec,
            &setups,
            &setup_reference,
            &samples,
            &load,
        );
    }
    let noise = Noise::read().since(noise_start);
    if args.trace {
        report.measured(
            "noise.involuntary_ctx_switches",
            noise.involuntary_ctx_switches as f64,
            "count",
            "host",
            1,
        );
        report.measured(
            "noise.minor_faults",
            noise.minor_faults as f64,
            "count",
            "host",
            1,
        );
    }
    spans.close(root);
    println!(
        "# noise: involuntary_ctx_switches={} minor_faults={} (main thread / whole process)",
        noise.involuntary_ctx_switches, noise.minor_faults
    );
    println!(
        "# misprediction figures are modeled from engine tallies; no hardware counters are read"
    );
    if args.trace {
        // Relative to the working directory: the benchmark runs from the
        // repository root and writes only inside it.
        let path = PathBuf::from("perfbench/out").join(format!("spans-{run_id}.jsonl"));
        spans.write_jsonl(&path)?;
        println!("# spans: {} written to {}", spans.len(), path.display());
    } else {
        println!("# spans: {} recorded (untraced run)", spans.len());
    }
    report.print(true, attempted, failed);
    Ok(())
}

fn battery<'a, G>(
    spec: &workload::Spec,
    inputs: &'a Inputs,
    par: &'a [G],
    refs: &'a oracle::KernelRefs,
) -> Battery<'a, G> {
    Battery {
        raw: &inputs.kernel,
        par,
        weighted: &inputs.weighted,
        root: inputs.kernel_root,
        refs,
        threads: spec.kernel_threads,
    }
}

fn median_secs(setups: &[SetupTimes], field: impl Fn(&SetupTimes) -> Duration) -> f64 {
    median(
        &setups
            .iter()
            .map(|t| field(t).as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

fn latencies(load: &LoadRun, keep: impl Fn(&load::Record) -> bool) -> Vec<f64> {
    load.records
        .iter()
        .filter(|r| !r.warmup && !load::failed(r) && keep(r))
        .map(|r| r.latency_ms)
        .collect()
}

/// The end-to-end metrics, each scaled to the nominal host speed by the
/// host-speed reference timed beside it (see `reference.rs`): set-up
/// times by the median reference of the set-ups, kernel times by the
/// lower quintile of the per-round references, and each query by the
/// reference timed after its run of 50 queries (see [`load::latencies`]).
fn end_to_end_metrics(
    report: &mut Report,
    spec: &workload::Spec,
    setups: &[SetupTimes],
    setup_reference: &[f64],
    samples: &Samples,
    load: &LoadRun,
) {
    let nominal_ms = spec.reference_ms;
    let setup = median_secs(setups, |t| t.total);
    report.normalized(
        "setup_s",
        setup * nominal_ms / median(setup_reference),
        setup,
        "s",
        "graph",
        setups.len(),
    );
    let kernels = nominal_ms / percentile(&samples.reference, CALL_QUANTILE);
    report.measured("peak_rss_mb", util::peak_rss_mb(), "MiB", "process", 1);
    for (i, op) in OPS.iter().enumerate() {
        let layer = if op.parallel() { "engine" } else { "kernels" };
        let times = &samples.untraced[i];
        let raw = percentile(times, CALL_QUANTILE);
        report.normalized(
            format!("{}_ms", op.name()),
            raw * kernels,
            raw,
            "ms",
            layer,
            times.len(),
        );
    }
    let (raw, scaled) = load::latencies(load, spec.query_reference_ms);
    let (raw, scaled) = (load::blocks(&raw), load::blocks(&scaled));
    let answered = scaled.len() * load::P99_BLOCK;
    // (name, unit, the block figure, block quantile)
    type Figure = (&'static str, &'static str, fn(&load::Block) -> f64, f64);
    let figures: [Figure; 3] = [
        ("query_p50_ms", "ms", |b| b.p50, BLOCK_QUANTILE),
        ("query_p99_ms", "ms", |b| b.p99, BLOCK_QUANTILE),
        ("queries_per_s", "1/s", |b| b.qps, 1.0 - BLOCK_QUANTILE),
    ];
    for (name, unit, figure, q) in figures {
        let of =
            |blocks: &[load::Block]| percentile(&blocks.iter().map(figure).collect::<Vec<_>>(), q);
        report.normalized(name, of(&scaled), of(&raw), unit, "serve", answered);
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    inputs: &Inputs,
    setups: &[SetupTimes],
    setup_reference: &[f64],
    samples: &Samples,
    load: &LoadRun,
    spans: &Spans,
    parent: spans::SpanId,
) {
    use bga_graph::AdjacencySource;
    let n = setups.len();
    let query_reference: Vec<f64> = load.records.iter().filter_map(|r| r.reference_ms).collect();
    for (phase, value, count) in [
        ("setup", median(setup_reference), setup_reference.len()),
        (
            "kernels",
            percentile(&samples.reference, CALL_QUANTILE),
            samples.reference.len(),
        ),
        (
            "queries",
            percentile(&query_reference, CALL_QUANTILE),
            query_reference.len(),
        ),
    ] {
        report.add(
            format!("host.reference_{phase}_ms"),
            value,
            "ms",
            "host",
            count,
            Source::Host,
        );
    }
    report.measured(
        "graph.gen_s",
        median_secs(setups, |t| t.gen),
        "s",
        "graph",
        n,
    );
    report.measured(
        "graph.encode_s",
        median_secs(setups, |t| t.encode),
        "s",
        "graph",
        n,
    );
    report.measured(
        "graph.load_s",
        median_secs(setups, |t| t.load),
        "s",
        "graph",
        n,
    );
    report.count(
        "graph.raw_bytes",
        inputs.snapshot.footprint().total_bytes() as f64,
        "bytes",
        "graph",
    );
    report.count(
        "graph.varint_bytes",
        inputs.snapshot_compressed.footprint().total_bytes() as f64,
        "bytes",
        "graph",
    );
    const SWEEPS: usize = 15;
    let (raw, _) = spans.time("graph.sweep.raw", parent, || {
        probes::sweep_ns_per_edge(&inputs.snapshot, SWEEPS)
    });
    let (varint, _) = spans.time("graph.sweep.varint", parent, || {
        probes::sweep_ns_per_edge(&inputs.snapshot_compressed, SWEEPS)
    });
    report.measured(
        "graph.sweep_raw_ns_per_edge",
        raw,
        "ns/edge",
        "graph",
        SWEEPS,
    );
    report.measured(
        "graph.sweep_varint_ns_per_edge",
        varint,
        "ns/edge",
        "graph",
        SWEEPS,
    );

    let ((_, sweeps), _) = spans.time("kernels.sv_branch_based_with_stats", parent, || {
        bga_kernels::cc::sv_branch::sv_branch_based_with_stats(&inputs.kernel[0])
    });
    let levels = oracle::bfs(&inputs.kernel[0], inputs.kernel_root)
        .into_iter()
        .filter(|&d| d != bga_kernels::bfs::INFINITY)
        .max()
        .map_or(0, |d| d + 1);
    report.count("kernels.sv_sweeps", sweeps as f64, "count", "kernels");
    report.count("kernels.bfs_levels", f64::from(levels), "count", "kernels");

    const SPAWNS: usize = 40;
    const BATCHES: usize = 2_000;
    let threads = workload::POOL_THREADS;
    let (spawn, _) = spans.time("pool.spawn", parent, || {
        probes::pool_spawn_us(threads, SPAWNS)
    });
    let (batch, _) = spans.time("pool.empty_batch", parent, || {
        probes::pool_empty_batch_us(threads, BATCHES)
    });
    report.measured("pool.spawn_us", spawn, "us", "pool", SPAWNS);
    report.measured("pool.empty_batch_us", batch, "us", "pool", BATCHES);

    let untraced_ms = |op: Op| percentile(&samples.untraced[index(op)], CALL_QUANTILE);
    for op in Op::PARALLEL {
        let i = index(op);
        let traces = &samples.traces[i];
        let calls = traces.len();
        let k = op.name();
        let med = |f: &dyn Fn(&kernels::CallTrace) -> f64| {
            median(&traces.iter().map(f).collect::<Vec<_>>())
        };
        let pool = &samples.pool_traces[i];
        let pool_med = |f: &dyn Fn(&kernels::CallTrace) -> f64| {
            median(&pool.iter().map(f).collect::<Vec<_>>())
        };
        report.add(
            format!("pool.{k}.batches"),
            pool_med(&|t| t.batches as f64),
            "count",
            "pool",
            pool.len(),
            Source::Count,
        );
        report.measured(
            format!("pool.{k}.max_imbalance"),
            pool_med(&|t| t.max_imbalance),
            "ratio",
            "pool",
            pool.len(),
        );
        let edge_tests = med(&|t| t.edge_tests as f64);
        let updates = med(&|t| t.updates as f64);
        report.add(
            format!("engine.{k}.phases"),
            med(&|t| t.phases as f64),
            "count",
            "engine",
            calls,
            Source::Count,
        );
        report.add(
            format!("engine.{k}.edge_tests"),
            edge_tests,
            "count",
            "engine",
            calls,
            Source::Count,
        );
        report.add(
            format!("engine.{k}.updates"),
            updates,
            "count",
            "engine",
            calls,
            Source::Count,
        );
        report.add(
            format!("engine.{k}.useful_ratio"),
            updates / edge_tests.max(1.0),
            "ratio",
            "engine",
            calls,
            Source::Count,
        );
        report.add(
            format!("engine.{k}.mispredictions_modeled"),
            med(&|t| t.mispredictions as f64),
            "count",
            "engine",
            calls,
            Source::Modeled,
        );
        let phase_ms = med(&|t| t.phase_ms);
        let traced = &samples.traced[i];
        let outside: Vec<f64> = traced
            .iter()
            .zip(traces)
            .map(|(wall, t)| wall - t.phase_ms)
            .collect();
        report.measured(
            format!("engine.{k}.phase_ms_sum"),
            phase_ms,
            "ms",
            "engine",
            calls,
        );
        report.measured(
            format!("engine.{k}.outside_phase_ms"),
            median(&outside),
            "ms",
            "engine",
            calls,
        );
        report.measured(
            format!("obs.trace_overhead.{k}"),
            percentile(traced, CALL_QUANTILE) / untraced_ms(op),
            "ratio",
            "obs",
            calls,
        );
    }

    let auto = &samples.traces[index(Op::CcAuto)];
    let decisions: Vec<(bool, u64)> = auto.iter().filter_map(|t| t.decision).collect();
    // -1 = the run converged before the advisor's sampling window closed.
    let choice = decisions.last().map_or(-1.0, |d| f64::from(u8::from(d.0)));
    let phase = decisions.last().map_or(-1.0, |d| d.1 as f64);
    report.add(
        "advisor.cc.choice",
        choice,
        "0bb-1ba",
        "advisor",
        decisions.len(),
        Source::Count,
    );
    report.add(
        "advisor.cc.decision_phase",
        phase,
        "phase",
        "advisor",
        decisions.len(),
        Source::Count,
    );
    let best_static = untraced_ms(Op::CcBb).min(untraced_ms(Op::CcBa));
    report.measured(
        "advisor.cc_regret",
        untraced_ms(Op::CcAuto) / best_static,
        "ratio",
        "advisor",
        samples.untraced[index(Op::CcAuto)].len(),
    );

    let (before, after) = (&load.before, &load.after);
    let hits = after.cache_hits.saturating_sub(before.cache_hits) as f64;
    let misses = after.cache_misses.saturating_sub(before.cache_misses) as f64;
    let queries = after.queries.saturating_sub(before.queries).max(1) as f64;
    let service_ms = after.query_micros.saturating_sub(before.query_micros) as f64 / 1e3 / queries;
    let all = latencies(load, |_| true);
    report.measured(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        "serve",
        queries as usize,
    );
    report.measured(
        "serve.service_ms_mean",
        service_ms,
        "ms",
        "serve",
        queries as usize,
    );
    report.measured(
        "serve.wait_ms_mean",
        mean(&all) - service_ms,
        "ms",
        "serve",
        all.len(),
    );
    for (kind_index, kind) in load::KINDS.iter().enumerate() {
        let lat = latencies(load, |r| load::kind_index(&r.kind) == kind_index);
        report.measured(
            format!("serve.{kind}_p50_ms"),
            percentile(&lat, 0.5),
            "ms",
            "serve",
            lat.len(),
        );
    }
    report.measured(
        "serve.pool_max_imbalance_permille",
        after.pool_max_imbalance_permille as f64,
        "permille",
        "serve",
        1,
    );

    const ATOMIC_REPS: usize = 7;
    for discipline in probes::Discipline::ALL {
        let (ns, _) = spans.time("atomics.sweep", parent, || {
            discipline.ns_per_edge(&inputs.kernel[0], ATOMIC_REPS)
        });
        report.add(
            discipline.metric(),
            ns,
            "ns/edge",
            "host",
            ATOMIC_REPS,
            Source::Host,
        );
    }
}

fn index(op: Op) -> usize {
    OPS.iter()
        .position(|&o| o == op)
        .expect("every op is in OPS")
}
