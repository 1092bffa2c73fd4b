//! `bga cc`: run a connected-components variant and print a summary.

use super::common_args::CommonArgs;
use super::graph_input::{footprint_line, load_graph};
use super::CliError;
use bga_graph::AdjacencySource;
use bga_kernels::cc::{
    baseline, sv_branch_avoiding, sv_branch_avoiding_instrumented, sv_branch_based,
    sv_branch_based_instrumented, sv_hybrid, ComponentLabels, HybridConfig,
};
use bga_obs::step_table;
use bga_parallel::request::run_components;
use bga_parallel::{resolve_threads, Variant};
use std::time::Instant;

/// Runs the `cc` subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(graph_spec) = args.first() else {
        return Err("cc needs a graph".into());
    };
    let common = CommonArgs::parse(args)?;
    let variant = common.variant_or("branch-avoiding");

    let graph = load_graph(graph_spec)?;
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    if let Some(t) = common.threads {
        let parsed: Variant = variant.parse().map_err(|_| {
            format!("--threads supports branch-based, branch-avoiding and auto, not {variant:?}")
        })?;
        // Report the resolved worker count before the timed region so the
        // stdout write does not bias sequential-vs-parallel wall clocks.
        println!("threads: {}", resolve_threads(t));
        let start = Instant::now();
        let (par, outcome) = match common.trace_path {
            Some(path) => {
                let sink = super::trace::open_trace_sink(path)?;
                let run = run_components(&graph, parsed, &common.run_config().traced(&sink));
                super::trace::finish_trace_sink(path, sink)?;
                run
            }
            None => run_components(&graph, parsed, &common.run_config()),
        };
        let elapsed = start.elapsed();
        print_labels_summary(variant, &par.labels);
        if common.instrumented {
            println!("iterations: {}", par.iterations());
            println!("{}", footprint_line(&graph.footprint()));
            println!("totals: {}", par.counters.total());
            print!("{}", step_table("iteration", &par.counters.steps).render());
        } else if common.trace_path.is_some() {
            println!("iterations: {}", par.counters.num_steps());
        } else {
            println!("wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
        }
        return super::check_deadline(&outcome);
    }

    if common.instrumented {
        let run = match variant {
            "branch-based" => sv_branch_based_instrumented(&graph),
            "branch-avoiding" => sv_branch_avoiding_instrumented(&graph),
            other => {
                return Err(format!(
                    "--instrumented supports branch-based and branch-avoiding, not {other:?}"
                )
                .into())
            }
        };
        print_labels_summary(variant, &run.labels);
        println!("iterations: {}", run.iterations());
        println!("{}", footprint_line(&graph.footprint()));
        println!("totals: {}", run.counters.total());
        print!("{}", step_table("iteration", &run.counters.steps).render());
        return Ok(());
    }

    let start = Instant::now();
    let labels: ComponentLabels = match variant {
        "branch-based" => sv_branch_based(&graph),
        "branch-avoiding" => sv_branch_avoiding(&graph),
        "hybrid" => sv_hybrid(&graph, HybridConfig::default()),
        "union-find" => baseline::cc_union_find(&graph),
        "bfs" => baseline::cc_bfs(&graph),
        "auto" => {
            return Err("--variant auto requires --threads N (runtime variant \
                 selection samples the parallel engine's phase tallies)"
                .into())
        }
        other => return Err(format!("unknown cc variant {other:?}").into()),
    };
    let elapsed = start.elapsed();
    print_labels_summary(variant, &labels);
    println!("wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
    Ok(())
}

fn print_labels_summary(variant: &str, labels: &ComponentLabels) {
    println!("variant: {variant}");
    println!("components: {}", labels.component_count());
    println!("largest component: {}", labels.largest_component_size());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn runs_on_a_builtin_graph() {
        assert!(run(&strings(&["cond-mat-2005", "--variant", "union-find"])).is_ok());
        assert!(run(&strings(&["cond-mat-2005", "--variant", "nope"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn trace_flag_writes_a_jsonl_document() {
        let dir = std::env::temp_dir().join("bga_cli_cc_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cc.jsonl");
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
        // Tracing needs the parallel path, excludes --instrumented, and a
        // bare --trace is an error.
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
        assert!(run(&strings(&["cond-mat-2005", "--threads", "2", "--trace"])).is_err());
    }

    #[test]
    fn timeout_flag_bounds_the_parallel_run() {
        use super::super::CliError;
        // A generous deadline completes normally.
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
        // An already-expired deadline stops at the first phase boundary
        // and maps to the dedicated timeout error, not a usage message.
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
        // An instrumented run is cancellable too.
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
        // Usage guards: a deadline needs a parallel run and a parseable
        // value.
        for bad in [
            &["cond-mat-2005", "--timeout-ms", "5"][..],
            &["cond-mat-2005", "--threads", "2", "--timeout-ms"][..],
            &["cond-mat-2005", "--threads", "2", "--timeout-ms", "abc"][..],
        ] {
            assert!(
                matches!(run(&strings(bad)), Err(CliError::Message(_))),
                "{bad:?} did not fail as a usage error"
            );
        }
        // A timed-out traced run still writes a complete trace document
        // whose trailer carries the interruption.
        let dir = std::env::temp_dir().join("bga_cli_cc_timeout");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cc.jsonl");
        let path_str = path.to_str().unwrap();
        assert_eq!(
            run(&strings(&[
                "cond-mat-2005",
                "--threads",
                "2",
                "--timeout-ms",
                "0",
                "--trace",
                path_str
            ])),
            Err(CliError::DeadlineExpired)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"interrupted\""));
    }

    #[test]
    fn threads_flag_selects_the_parallel_kernels() {
        for variant in ["branch-based", "branch-avoiding", "auto"] {
            assert!(run(&strings(&[
                "cond-mat-2005",
                "--variant",
                variant,
                "--threads",
                "2"
            ]))
            .is_ok());
            assert!(run(&strings(&[
                "cond-mat-2005",
                "--variant",
                variant,
                "--threads",
                "2",
                "--instrumented"
            ]))
            .is_ok());
        }
        // Sequential-only variants reject --threads, and the value must parse.
        assert!(run(&strings(&[
            "cond-mat-2005",
            "--variant",
            "hybrid",
            "--threads",
            "2"
        ]))
        .is_err());
        assert!(run(&strings(&["cond-mat-2005", "--threads", "two"])).is_err());
        assert!(run(&strings(&["cond-mat-2005", "--threads"])).is_err());
        // Runtime selection needs the parallel engine's phase tallies.
        assert!(run(&strings(&["cond-mat-2005", "--variant", "auto"])).is_err());
    }
}
