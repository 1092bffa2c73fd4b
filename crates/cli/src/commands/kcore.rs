//! `bga kcore`: run a k-core decomposition and print the core structure.
//!
//! Without `--threads` the sequential Batagelj–Zaveršnik bucket peeling
//! runs; with `--threads N` the parallel concurrent-peeling kernel runs in
//! the requested hooking discipline (`--variant branch-based` tests and
//! CAS-decrements each neighbour's degree, `branch-avoiding` issues one
//! unconditional `fetch_sub` per edge with a predicated enqueue). Core
//! numbers are identical in every mode.

use super::common_args::CommonArgs;
use super::graph_input::{footprint_line, load_graph};
use super::CliError;
use bga_graph::AdjacencySource;
use bga_kernels::kcore::{kcore_peeling, CoreDecomposition};
use bga_obs::step_table;
use bga_parallel::request::run_kcore;
use bga_parallel::{resolve_threads, Variant};
use std::time::Instant;

/// Runs the `kcore` subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(graph_spec) = args.first() else {
        return Err("kcore needs a graph".into());
    };
    let common = CommonArgs::parse(args)?;
    let variant = common.variant_or("branch-avoiding");
    let kcore_variant: Variant = variant.parse().map_err(|_| {
        format!(
            "unknown kcore variant {variant:?} (expected branch-based, branch-avoiding or auto)"
        )
    })?;
    // The sequential reference is bucket peeling — neither hooking
    // discipline. Reject an explicit variant request it could not honour.
    if common.threads.is_none() && common.variant.is_some() {
        return Err(
            "the sequential run is the bucket-peeling reference; add --threads N \
             to pick a branch-based or branch-avoiding parallel peel"
                .into(),
        );
    }
    if common.threads.is_none() && common.instrumented {
        return Err("--instrumented requires --threads N (parallel peels only)".into());
    }

    let graph = load_graph(graph_spec)?;
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    if let Some(t) = common.threads {
        // Report the resolved worker count before the timed region so the
        // stdout write does not bias sequential-vs-parallel wall clocks.
        println!("threads: {}", resolve_threads(t));
        let start = Instant::now();
        let (run, outcome) = match common.trace_path {
            Some(path) => {
                let sink = super::trace::open_trace_sink(path)?;
                let run = run_kcore(&graph, kcore_variant, &common.run_config().traced(&sink));
                super::trace::finish_trace_sink(path, sink)?;
                run
            }
            None => run_kcore(&graph, kcore_variant, &common.run_config()),
        };
        let elapsed = start.elapsed();
        print_full_or_partial_summary(variant, &run.cores, &outcome);
        println!("cascade rounds: {}", run.rounds);
        if common.instrumented {
            println!("{}", footprint_line(&graph.footprint()));
            println!("totals: {}", run.counters.total());
            print!("{}", step_table("dispatch", &run.counters.steps).render());
        } else if common.trace_path.is_none() {
            println!("wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
        }
        return super::check_deadline(&outcome);
    }

    let start = Instant::now();
    let cores = kcore_peeling(&graph);
    let elapsed = start.elapsed();
    print_core_summary("peeling", &cores);
    println!("wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
    Ok(())
}

/// The cancellable paths' summary: a completed peel prints the usual core
/// structure; an interrupted one reports the peeled prefix instead — the
/// unpeeled vertices still carry the `u32::MAX` "not yet peeled" marker,
/// so the degeneracy/histogram view would be meaningless (and huge).
fn print_full_or_partial_summary(
    variant: &str,
    cores: &CoreDecomposition,
    outcome: &bga_parallel::RunOutcome,
) {
    if outcome.is_completed() {
        print_core_summary(variant, cores);
    } else {
        let peeled = cores.as_slice().iter().filter(|&&c| c != u32::MAX).count();
        println!("variant: {variant}");
        println!(
            "peeled: {peeled} of {} vertices (final core numbers; the rest interrupted)",
            cores.len()
        );
    }
}

fn print_core_summary(variant: &str, cores: &CoreDecomposition) {
    println!("variant: {variant}");
    println!("degeneracy: {}", cores.degeneracy());
    let histogram = cores.histogram();
    let shown = histogram.len().min(8);
    let rendered: Vec<String> = histogram[..shown]
        .iter()
        .enumerate()
        .map(|(k, count)| format!("{k}:{count}"))
        .collect();
    let suffix = if histogram.len() > shown { " …" } else { "" };
    println!("coreness histogram: {}{suffix}", rendered.join(" "));
    println!(
        "innermost core: {} vertices at k = {}",
        cores.k_core_size(cores.degeneracy()),
        cores.degeneracy()
    );
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
    fn trace_flag_writes_a_jsonl_document() {
        let dir = std::env::temp_dir().join("bga_cli_kcore_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kcore.jsonl");
        let path_str = path.to_str().unwrap();
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
    fn timeout_flag_bounds_the_parallel_peel() {
        use super::super::CliError;
        assert_eq!(
            run(&strings(&[
                "cond-mat-2005",
                "--threads",
                "2",
                "--timeout-ms",
                "60000"
            ])),
            Ok(())
        );
        assert_eq!(
            run(&strings(&[
                "cond-mat-2005",
                "--threads",
                "2",
                "--timeout-ms",
                "0"
            ])),
            Err(CliError::DeadlineExpired)
        );
        // A deadline needs the parallel peel; instrumented peels are
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
        // A timed-out traced run still writes an interrupted trace.
        let dir = std::env::temp_dir().join("bga_cli_kcore_timeout");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kcore.jsonl");
        assert_eq!(
            run(&strings(&[
                "cond-mat-2005",
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
        // Sequential runs are the peeling reference: an explicit variant
        // or --instrumented without --threads is an error.
        assert!(run(&strings(&["cond-mat-2005", "--variant", "branch-avoiding"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--variant", "auto"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--instrumented"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--threads"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--threads", "x"])).is_err());
    }
}
