//! `bga bfs`: run a BFS variant from a root and print a summary.

use super::common_args::{flag_value, CommonArgs};
use super::graph_input::{footprint_line, load_graph};
use super::CliError;
use bga_graph::properties::largest_component;
use bga_graph::AdjacencySource;
use bga_kernels::bfs::{
    bfs_branch_avoiding, bfs_branch_avoiding_instrumented, bfs_branch_based,
    bfs_branch_based_instrumented,
    bottom_up::bfs_bottom_up,
    direction_optimizing::{bfs_direction_optimizing, DirectionConfig},
    frontier::check_bfs_invariants,
    BfsResult,
};
use bga_obs::step_table;
use bga_parallel::request::run_bfs;
use bga_parallel::{resolve_threads, BfsStrategy, Variant};
use std::time::Instant;

/// Parses `--strategy`: the direction policy for the direction-optimizing
/// traversal. `None` when the flag is absent.
fn parse_strategy(args: &[String]) -> Result<Option<DirectionConfig>, String> {
    match flag_value(args, "--strategy") {
        None if args.iter().any(|a| a == "--strategy") => {
            Err("--strategy requires a value (auto, top-down or bottom-up)".to_string())
        }
        None => Ok(None),
        Some("auto") => Ok(Some(DirectionConfig::default())),
        Some("top-down") => Ok(Some(DirectionConfig::always_top_down())),
        Some("bottom-up") => Ok(Some(DirectionConfig::always_bottom_up())),
        Some(other) => Err(format!(
            "unknown strategy {other:?} (expected auto, top-down or bottom-up)"
        )),
    }
}

/// Runs the `bfs` subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(graph_spec) = args.first() else {
        return Err("bfs needs a graph".into());
    };
    let common = CommonArgs::parse(args)?;
    let strategy = parse_strategy(args)?;
    // `--strategy` implies the direction-optimizing traversal; `--variant`
    // keeps selecting among the classic kernels otherwise.
    let default_variant = if strategy.is_some() {
        "direction-optimizing"
    } else {
        "branch-based"
    };
    let variant = common.variant_or(default_variant);
    if strategy.is_some() && variant != "direction-optimizing" {
        return Err(format!(
            "--strategy applies to the direction-optimizing variant, not {variant:?}"
        )
        .into());
    }

    let graph = load_graph(graph_spec)?;
    let root = match flag_value(args, "--root") {
        Some(text) => text
            .parse::<u32>()
            .map_err(|e| format!("invalid --root value {text:?}: {e}"))?,
        None => largest_component(&graph).first().copied().unwrap_or(0),
    };
    println!(
        "graph: {} vertices, {} edges; root: {root}",
        graph.num_vertices(),
        graph.num_edges()
    );

    if let Some(t) = common.threads {
        let requested: BfsStrategy = match variant {
            "branch-based" => BfsStrategy::Plain(Variant::BranchBased),
            "branch-avoiding" => BfsStrategy::Plain(Variant::BranchAvoiding),
            "auto" => BfsStrategy::Plain(Variant::Auto),
            "direction-optimizing" => {
                BfsStrategy::DirectionOptimizing(strategy.unwrap_or_default())
            }
            other => {
                return Err(format!(
                    "--threads supports branch-based, branch-avoiding, auto and \
                     direction-optimizing, not {other:?}"
                )
                .into())
            }
        };
        // Report the resolved worker count before the timed region so the
        // stdout write does not bias sequential-vs-parallel wall clocks.
        println!("threads: {}", resolve_threads(t));
        let start = Instant::now();
        let (par, outcome) = match common.trace_path {
            Some(path) => {
                let sink = super::trace::open_trace_sink(path)?;
                let run = run_bfs(&graph, root, requested, &common.run_config().traced(&sink));
                super::trace::finish_trace_sink(path, sink)?;
                run
            }
            None => run_bfs(&graph, root, requested, &common.run_config()),
        };
        let elapsed = start.elapsed();
        // An interrupted traversal is a valid prefix, not a full BFS; the
        // invariant checker only applies to completed runs.
        if outcome.is_completed() {
            check_bfs_invariants(&graph, root, &par.result)?;
        }
        print_result_summary(variant, &par.result);
        if variant == "direction-optimizing" {
            println!(
                "directions: {} top-down, {} bottom-up levels",
                par.directions.len() - par.bottom_up_levels(),
                par.bottom_up_levels()
            );
        }
        if common.instrumented {
            println!("{}", footprint_line(&graph.footprint()));
            println!("totals: {}", par.counters.total());
            print!("{}", step_table("level", &par.counters.steps).render());
        } else if common.trace_path.is_none() {
            println!("wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
        }
        return super::check_deadline(&outcome);
    }

    if common.instrumented {
        let run = match variant {
            "branch-based" => bfs_branch_based_instrumented(&graph, root),
            "branch-avoiding" => bfs_branch_avoiding_instrumented(&graph, root),
            other => {
                return Err(format!(
                    "--instrumented supports branch-based, branch-avoiding and \
                     direction-optimizing --threads, not {other:?}"
                )
                .into())
            }
        };
        print_result_summary(variant, &run.result);
        println!("{}", footprint_line(&graph.footprint()));
        println!("totals: {}", run.counters.total());
        print!("{}", step_table("level", &run.counters.steps).render());
        return Ok(());
    }

    let config = strategy.unwrap_or_default();
    let start = Instant::now();
    let result: BfsResult = match variant {
        "branch-based" => bfs_branch_based(&graph, root),
        "branch-avoiding" => bfs_branch_avoiding(&graph, root),
        "bottom-up" => bfs_bottom_up(&graph, root),
        "direction-optimizing" => bfs_direction_optimizing(&graph, root, config),
        "auto" => {
            return Err("--variant auto requires --threads N (runtime variant \
                 selection samples the parallel engine's phase tallies)"
                .into())
        }
        other => return Err(format!("unknown bfs variant {other:?}").into()),
    };
    let elapsed = start.elapsed();
    check_bfs_invariants(&graph, root, &result)?;
    print_result_summary(variant, &result);
    println!("wall clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
    Ok(())
}

fn print_result_summary(variant: &str, result: &BfsResult) {
    println!("variant: {variant}");
    println!("reached: {} vertices", result.reached_count());
    println!("levels: {}", result.level_count());
    println!("level sizes: {:?}", result.level_sizes());
}

#[cfg(test)]
mod tests {
    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn runs_every_uninstrumented_variant_on_a_builtin_graph() {
        for variant in [
            "branch-based",
            "branch-avoiding",
            "bottom-up",
            "direction-optimizing",
        ] {
            assert!(
                super::run(&strings(&["cond-mat-2005", "--variant", variant])).is_ok(),
                "{variant} failed"
            );
        }
        assert!(super::run(&strings(&["cond-mat-2005", "--variant", "nope"])).is_err());
        assert!(super::run(&strings(&["cond-mat-2005", "--root", "abc"])).is_err());
    }

    #[test]
    fn threads_flag_selects_the_parallel_kernels() {
        for variant in [
            "branch-based",
            "branch-avoiding",
            "direction-optimizing",
            "auto",
        ] {
            assert!(
                super::run(&strings(&[
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
        assert!(super::run(&strings(&[
            "cond-mat-2005",
            "--variant",
            "branch-avoiding",
            "--threads",
            "2",
            "--instrumented"
        ]))
        .is_ok());
        assert!(super::run(&strings(&[
            "cond-mat-2005",
            "--variant",
            "bottom-up",
            "--threads",
            "2"
        ]))
        .is_err());
        // Runtime selection needs the parallel engine's phase tallies.
        assert!(super::run(&strings(&["cond-mat-2005", "--variant", "auto"])).is_err());
    }

    #[test]
    fn trace_flag_writes_a_jsonl_document() {
        let dir = std::env::temp_dir().join("bga_cli_bfs_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bfs.jsonl");
        let path_str = path.to_str().unwrap();
        for variant in ["branch-based", "branch-avoiding", "direction-optimizing"] {
            assert!(
                super::run(&strings(&[
                    "cond-mat-2005",
                    "--variant",
                    variant,
                    "--threads",
                    "2",
                    "--trace",
                    path_str
                ]))
                .is_ok(),
                "{variant} with --trace failed"
            );
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.lines().next().unwrap().contains("bga-trace-v1"));
        }
        assert!(super::run(&strings(&["cond-mat-2005", "--trace", path_str])).is_err());
        assert!(super::run(&strings(&[
            "cond-mat-2005",
            "--threads",
            "2",
            "--instrumented",
            "--trace",
            path_str
        ]))
        .is_err());
        assert!(super::run(&strings(&[
            "cond-mat-2005",
            "--variant",
            "bottom-up",
            "--threads",
            "2",
            "--trace",
            path_str
        ]))
        .is_err());
    }

    #[test]
    fn timeout_flag_bounds_the_parallel_run() {
        use super::super::CliError;
        // Every parallel variant honours a generous deadline and expires
        // an already-passed one at the first level boundary.
        for variant in ["branch-based", "branch-avoiding", "direction-optimizing"] {
            assert_eq!(
                super::run(&strings(&[
                    "cond-mat-2005",
                    "--variant",
                    variant,
                    "--threads",
                    "2",
                    "--timeout-ms",
                    "60000"
                ])),
                Ok(()),
                "{variant} with a generous deadline failed"
            );
            assert_eq!(
                super::run(&strings(&[
                    "cond-mat-2005",
                    "--variant",
                    variant,
                    "--threads",
                    "2",
                    "--timeout-ms",
                    "0"
                ])),
                Err(CliError::DeadlineExpired),
                "{variant} with an expired deadline did not time out"
            );
        }
        // bottom-up has no parallel cancellable path and sequential runs
        // have no deadline seam; instrumented runs are cancellable.
        assert!(super::run(&strings(&["cond-mat-2005", "--timeout-ms", "5"])).is_err());
        assert_eq!(
            super::run(&strings(&[
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
        let dir = std::env::temp_dir().join("bga_cli_bfs_timeout");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bfs.jsonl");
        assert_eq!(
            super::run(&strings(&[
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
    fn strategy_flag_drives_the_direction_optimizing_traversal() {
        // The worked example from the README: auto strategy on all cores.
        for strategy in ["auto", "top-down", "bottom-up"] {
            assert!(
                super::run(&strings(&[
                    "cond-mat-2005",
                    "--threads",
                    "8",
                    "--strategy",
                    strategy
                ]))
                .is_ok(),
                "--strategy {strategy} failed"
            );
        }
        // Sequential direction-optimizing honours the strategy too.
        assert!(super::run(&strings(&["cond-mat-2005", "--strategy", "bottom-up"])).is_ok());
        // Instrumented direction-optimizing runs report real per-level
        // tallies for the bottom-up levels.
        assert!(super::run(&strings(&[
            "cond-mat-2005",
            "--threads",
            "2",
            "--strategy",
            "bottom-up",
            "--instrumented"
        ]))
        .is_ok());
        // ... but only on the parallel path.
        assert!(super::run(&strings(&[
            "cond-mat-2005",
            "--variant",
            "direction-optimizing",
            "--instrumented"
        ]))
        .is_err());
        // Bad or conflicting usages fail loudly.
        assert!(super::run(&strings(&["cond-mat-2005", "--strategy", "sideways"])).is_err());
        assert!(super::run(&strings(&["cond-mat-2005", "--strategy"])).is_err());
        assert!(super::run(&strings(&[
            "cond-mat-2005",
            "--variant",
            "branch-based",
            "--strategy",
            "auto"
        ]))
        .is_err());
    }
}
