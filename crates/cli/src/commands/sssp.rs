//! `bga sssp`: run single-source shortest paths and print a summary.
//!
//! `--weights` picks the weight regime:
//!
//! * `unit` (default) — every edge weighs 1. Without `--threads` the
//!   sequential delta-stepping reference runs (`--delta D` picks the
//!   bucket width; distances are identical for every width). With
//!   `--threads N` the parallel client runs the engine's level loop — on
//!   unit weights every delta-stepping bucket *is* a BFS level — in the
//!   requested relaxation discipline.
//! * `uniform` — seeded pseudo-random weights in `1..=32` (seed 42,
//!   symmetric per edge) on the loaded graph. Sequential runs the real
//!   weighted delta-stepping reference; `--threads N` runs the parallel
//!   bucket-loop client. `--delta` picks the bucket width in both modes.
//! * `file` — the graph file's own weights (`u v w` edge lists,
//!   edge-weighted METIS). Requires a file path, not a suite name.

use super::common_args::{flag_value, CommonArgs};
use super::graph_input::{footprint_line, load_graph, load_weighted_graph};
use super::CliError;
use bga_graph::properties::largest_component;
use bga_graph::{uniform_weights, AdjacencySource, WeightedAdjacencySource, WeightedCsrGraph};
use bga_kernels::sssp::{sssp_delta_stepping, sssp_unit_delta_stepping_with_delta, SsspResult};
use bga_obs::step_table;
use bga_parallel::request::{run_sssp_unit, run_sssp_weighted};
use bga_parallel::{resolve_threads, Variant};
use std::time::Instant;

/// Largest weight `--weights uniform` assigns (drawn from `1..=32`).
const UNIFORM_MAX_WEIGHT: u32 = 32;

/// Seed of the `--weights uniform` assignment, matching the suite's
/// stand-in seed so runs are reproducible.
const UNIFORM_SEED: u64 = 42;

/// Weight regime of one `bga sssp` invocation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WeightsMode {
    Unit,
    Uniform,
    File,
}

/// Runs the `sssp` subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(graph_spec) = args.first() else {
        return Err("sssp needs a graph".into());
    };
    let common = CommonArgs::parse(args)?;
    let weights_mode = match flag_value(args, "--weights") {
        None if args.iter().any(|a| a == "--weights") => {
            return Err("--weights requires a mode (unit, uniform or file)".into())
        }
        None | Some("unit") => WeightsMode::Unit,
        Some("uniform") => WeightsMode::Uniform,
        Some("file") => WeightsMode::File,
        Some(other) => {
            return Err(
                format!("unknown weights mode {other:?} (expected unit, uniform or file)").into(),
            )
        }
    };
    let variant = common.variant_or("branch-avoiding");
    let sssp_variant: Variant = variant.parse().map_err(|_| {
        format!("unknown sssp variant {variant:?} (expected branch-based, branch-avoiding or auto)")
    })?;
    let delta = match flag_value(args, "--delta") {
        None if args.iter().any(|a| a == "--delta") => {
            return Err("--delta requires a bucket width (≥ 1)".into())
        }
        None => 1u32,
        Some(text) => {
            let value = text
                .parse::<u32>()
                .map_err(|e| format!("invalid --delta value {text:?}: {e}"))?;
            if value == 0 {
                return Err("--delta must be ≥ 1 (a bucket has positive width)".into());
            }
            value
        }
    };
    if weights_mode == WeightsMode::Unit && common.threads.is_some() && delta != 1 {
        return Err(
            "--delta applies to the sequential delta-stepping reference; the parallel \
             unit-weight client always runs the Δ = 1 (level-per-bucket) degeneration \
             (use --weights uniform/file for the bucketed parallel client)"
                .into(),
        );
    }
    // The sequential references have a single relaxation discipline;
    // reject an explicit variant request they could not honour.
    if common.threads.is_none() && common.variant.is_some() {
        return Err(
            "the sequential run is the delta-stepping reference; add --threads N \
             to pick a branch-based or branch-avoiding parallel relaxation"
                .into(),
        );
    }
    if common.threads.is_none() && common.instrumented {
        return Err("--instrumented requires --threads N (parallel runs only)".into());
    }

    let weighted: Option<WeightedCsrGraph> = match weights_mode {
        WeightsMode::Unit => None,
        WeightsMode::Uniform => Some(uniform_weights(
            &load_graph(graph_spec)?,
            UNIFORM_MAX_WEIGHT,
            UNIFORM_SEED,
        )),
        WeightsMode::File => Some(load_weighted_graph(graph_spec)?),
    };
    // Borrow the CSR out of the weighted graph rather than cloning it —
    // it is only read for sizes and the default-root pick.
    let loaded;
    let graph = match &weighted {
        Some(wg) => wg.csr(),
        None => {
            loaded = load_graph(graph_spec)?;
            &loaded
        }
    };
    let source = match flag_value(args, "--root") {
        Some(text) => text
            .parse::<u32>()
            .map_err(|e| format!("invalid --root value {text:?}: {e}"))?,
        None => largest_component(graph).first().copied().unwrap_or(0),
    };
    println!(
        "graph: {} vertices, {} edges; source: {source}",
        graph.num_vertices(),
        graph.num_edges()
    );
    match (weights_mode, &weighted) {
        (WeightsMode::Uniform, Some(wg)) => println!(
            "weights: uniform 1..={UNIFORM_MAX_WEIGHT} (seed {UNIFORM_SEED}), max {}",
            wg.max_weight().unwrap_or(1)
        ),
        (WeightsMode::File, Some(wg)) => {
            println!("weights: from file, max {}", wg.max_weight().unwrap_or(1))
        }
        _ => {}
    }

    if let Some(t) = common.threads {
        // Report the resolved worker count before the timed region so the
        // stdout write does not bias sequential-vs-parallel wall clocks.
        println!("threads: {}", resolve_threads(t));
        match &weighted {
            None => {
                let start = Instant::now();
                let (run, outcome) = match common.trace_path {
                    Some(path) => {
                        let sink = super::trace::open_trace_sink(path)?;
                        let run = run_sssp_unit(
                            graph,
                            source,
                            sssp_variant,
                            &common.run_config().traced(&sink),
                        );
                        super::trace::finish_trace_sink(path, sink)?;
                        run
                    }
                    None => run_sssp_unit(graph, source, sssp_variant, &common.run_config()),
                };
                let elapsed = start.elapsed();
                print_result_summary(variant, &run.result);
                if common.trace_path.is_some() || common.instrumented {
                    println!(
                        "directions: {} top-down, {} bottom-up phases",
                        run.directions.len() - run.bottom_up_phases(),
                        run.bottom_up_phases()
                    );
                }
                if common.instrumented {
                    println!("{}", footprint_line(&graph.footprint()));
                    println!("totals: {}", run.counters.total());
                    print!("{}", step_table("phase", &run.counters.steps).render());
                } else if common.trace_path.is_none() {
                    println!("wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
                }
                super::check_deadline(&outcome)?;
            }
            Some(wg) => {
                let start = Instant::now();
                let (run, outcome) = match common.trace_path {
                    Some(path) => {
                        let sink = super::trace::open_trace_sink(path)?;
                        let run = run_sssp_weighted(
                            wg,
                            source,
                            delta,
                            sssp_variant,
                            &common.run_config().traced(&sink),
                        );
                        super::trace::finish_trace_sink(path, sink)?;
                        run
                    }
                    None => {
                        run_sssp_weighted(wg, source, delta, sssp_variant, &common.run_config())
                    }
                };
                let elapsed = start.elapsed();
                print_result_summary(variant, &run.result);
                println!("delta: {delta}");
                if common.trace_path.is_some() || common.instrumented {
                    println!(
                        "buckets settled: {}; heavy phases: {}",
                        run.buckets_settled, run.heavy_phases
                    );
                }
                if common.instrumented {
                    println!("{}", footprint_line(&wg.footprint()));
                    println!("totals: {}", run.counters.total());
                    print!("{}", step_table("pass", &run.counters.steps).render());
                } else if common.trace_path.is_none() {
                    println!("wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
                }
                super::check_deadline(&outcome)?;
            }
        }
        return Ok(());
    }

    let start = Instant::now();
    let result = match &weighted {
        None => sssp_unit_delta_stepping_with_delta(graph, source, delta),
        Some(wg) => sssp_delta_stepping(wg, source, delta),
    };
    let elapsed = start.elapsed();
    print_result_summary("delta-stepping", &result);
    println!("delta: {delta}");
    println!("wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
    Ok(())
}

fn print_result_summary(variant: &str, result: &SsspResult) {
    println!("variant: {variant}");
    println!("settled: {} vertices", result.reached_count());
    match result.max_distance() {
        Some(d) => println!("max distance: {d}"),
        None => println!("max distance: (nothing settled)"),
    }
    println!("relaxation phases: {}", result.phases());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn runs_sequential_and_parallel_on_a_builtin_graph() {
        assert!(run(&strings(&["cond-mat-2005"])).is_ok());
        assert!(run(&strings(&["cond-mat-2005", "--delta", "4"])).is_ok());
        assert!(run(&strings(&["cond-mat-2005", "--root", "7"])).is_ok());
        for variant in ["branch-based", "branch-avoiding", "auto"] {
            assert!(
                run(&strings(&[
                    "cond-mat-2005",
                    "--variant",
                    variant,
                    "--threads",
                    "2"
                ]))
                .is_ok(),
                "{variant} with --threads failed"
            );
        }
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--threads",
            "2",
            "--instrumented"
        ]))
        .is_ok());
    }

    #[test]
    fn runs_weighted_modes() {
        // Sequential weighted reference on seeded uniform weights.
        assert!(run(&strings(&["cond-mat-2005", "--weights", "uniform"])).is_ok());
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--weights",
            "uniform",
            "--delta",
            "4"
        ]))
        .is_ok());
        // Parallel bucket-loop client, both disciplines, --delta allowed.
        for variant in ["branch-based", "branch-avoiding"] {
            assert!(
                run(&strings(&[
                    "cond-mat-2005",
                    "--weights",
                    "uniform",
                    "--variant",
                    variant,
                    "--threads",
                    "2",
                    "--delta",
                    "4"
                ]))
                .is_ok(),
                "weighted {variant} with --threads failed"
            );
        }
        // Instrumented weighted run reports bucket/pass structure.
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--weights",
            "uniform",
            "--threads",
            "2",
            "--instrumented"
        ]))
        .is_ok());
        // File mode round-trips through the weighted readers.
        let dir = std::env::temp_dir().join("bga_cli_sssp_wtest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.edges");
        std::fs::write(&path, "0 1 5\n1 2 3\n2 3 9\n").unwrap();
        assert!(run(&strings(&[
            path.to_str().unwrap(),
            "--weights",
            "file",
            "--root",
            "0"
        ]))
        .is_ok());
        assert!(run(&strings(&[
            path.to_str().unwrap(),
            "--weights",
            "file",
            "--threads",
            "2",
            "--delta",
            "4"
        ]))
        .is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_flag_writes_a_jsonl_document() {
        let dir = std::env::temp_dir().join("bga_cli_sssp_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sssp.jsonl");
        let path_str = path.to_str().unwrap();
        // Unit-weight trace on the level loop.
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--threads",
            "2",
            "--trace",
            path_str
        ]))
        .is_ok());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().next().unwrap().contains("bga-trace-v1"));
        // Weighted trace on the bucket loop carries the delta.
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--weights",
            "uniform",
            "--delta",
            "4",
            "--threads",
            "2",
            "--trace",
            path_str
        ]))
        .is_ok());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().next().unwrap().contains("\"delta\""));
        assert!(run(&strings(&["cond-mat-2005", "--trace", path_str])).is_err());
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--threads",
            "2",
            "--instrumented",
            "--trace",
            path_str
        ]))
        .is_err());
    }

    #[test]
    fn timeout_flag_bounds_both_parallel_clients() {
        use super::super::CliError;
        // Unit-weight level loop and weighted bucket loop both honour a
        // generous deadline and expire an already-passed one promptly.
        for extra in [&[][..], &["--weights", "uniform", "--delta", "4"][..]] {
            let mut ok_args = vec!["cond-mat-2005", "--threads", "2", "--timeout-ms", "60000"];
            ok_args.extend_from_slice(extra);
            assert_eq!(run(&strings(&ok_args)), Ok(()), "{extra:?} failed");
            let mut expired_args = vec!["cond-mat-2005", "--threads", "2", "--timeout-ms", "0"];
            expired_args.extend_from_slice(extra);
            assert_eq!(
                run(&strings(&expired_args)),
                Err(CliError::DeadlineExpired),
                "{extra:?} did not time out"
            );
        }
        // A deadline needs the parallel path; instrumented runs are
        // cancellable.
        assert!(run(&strings(&["cond-mat-2005", "--timeout-ms", "5"])).is_err());
        assert_eq!(
            run(&strings(&[
                "cond-mat-2005",
                "--threads",
                "2",
                "--instrumented",
                "--timeout-ms",
                "0"
            ])),
            Err(CliError::DeadlineExpired)
        );
        // A timed-out traced weighted run still writes an interrupted trace.
        let dir = std::env::temp_dir().join("bga_cli_sssp_timeout");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sssp.jsonl");
        assert_eq!(
            run(&strings(&[
                "cond-mat-2005",
                "--weights",
                "uniform",
                "--threads",
                "2",
                "--timeout-ms",
                "0",
                "--trace",
                path.to_str().unwrap()
            ])),
            Err(CliError::DeadlineExpired)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"interrupted\""));
    }

    #[test]
    fn bad_usage_fails_loudly() {
        assert!(run(&[]).is_err());
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--variant",
            "sideways",
            "--threads",
            "2"
        ]))
        .is_err());
        assert!(run(&strings(&["cond-mat-2005", "--variant", "branch-avoiding"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--instrumented"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--root", "abc"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--delta"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--delta", "nope"])).is_err());
        // An explicit zero is rejected, not silently clamped to 1.
        assert!(run(&strings(&["cond-mat-2005", "--delta", "0"])).is_err());
        // --delta is a sequential-reference knob in unit mode only.
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--delta",
            "2",
            "--threads",
            "2"
        ]))
        .is_err());
        // Weights-flag misuse.
        assert!(run(&strings(&["cond-mat-2005", "--weights"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--weights", "sideways"])).is_err());
        // Suite names carry no file weights.
        assert!(run(&strings(&["cond-mat-2005", "--weights", "file"])).is_err());
        // Sequential weighted runs reject an explicit variant too.
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--weights",
            "uniform",
            "--variant",
            "branch-avoiding"
        ]))
        .is_err());
    }
}
