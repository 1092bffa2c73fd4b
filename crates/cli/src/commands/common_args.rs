//! The shared flag front end of the kernel subcommands.
//!
//! `cc`, `bfs`, `bc`, `kcore` and `sssp` all take the same execution
//! flags — `--variant`, `--threads N`, `--instrumented`, `--trace FILE`,
//! `--timeout-ms T` — under the same exclusivity matrix:
//!
//! * `--trace` requires `--threads` (only parallel runs are traced);
//! * `--trace` and `--instrumented` are exclusive (the trace carries the
//!   counters);
//! * `--timeout-ms` requires `--threads` (only parallel runs are
//!   cancellable).
//!
//! [`CommonArgs::parse`] enforces the matrix once — the five commands
//! used to carry their own copies — and [`CommonArgs::run_config`]
//! converts the parsed flags straight into the request API's
//! [`RunConfig`], so a command's parallel path is one `run_*` call.

use bga_obs::NoopSink;
use bga_parallel::{CancelToken, RunConfig};
use std::time::Duration;

/// Looks up the value following `flag`, if any.
pub(super) fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// Parses `--threads N`: `None` when the flag is absent (sequential
/// kernels), `Some(0)` meaning "all cores", `Some(n)` otherwise. A bare
/// `--threads` with no value is an error, not a silent sequential run.
pub(super) fn parse_threads(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value(args, "--threads") {
        None if args.iter().any(|a| a == "--threads") => {
            Err("--threads requires a value (0 means all cores)".to_string())
        }
        None => Ok(None),
        Some(text) => text
            .parse::<usize>()
            .map(Some)
            .map_err(|e| format!("invalid --threads value {text:?}: {e}")),
    }
}

/// Parses `--timeout-ms T`: the wall-clock budget of a deadline-bounded
/// run, `None` when the flag is absent. A bare `--timeout-ms` with no
/// value is an error, not a silently unbounded run.
fn parse_timeout(args: &[String]) -> Result<Option<Duration>, String> {
    match flag_value(args, "--timeout-ms") {
        None if args.iter().any(|a| a == "--timeout-ms") => {
            Err("--timeout-ms requires a value in milliseconds".to_string())
        }
        None => Ok(None),
        Some(text) => text
            .parse::<u64>()
            .map(|ms| Some(Duration::from_millis(ms)))
            .map_err(|e| format!("invalid --timeout-ms value {text:?}: {e}")),
    }
}

/// The execution flags every kernel subcommand shares, parsed and
/// cross-checked. The variant stays a raw string — each command owns its
/// own vocabulary (`cc` has sequential-only `hybrid`/`union-find`/`bfs`,
/// `bfs` has `bottom-up` and `direction-optimizing`).
pub(super) struct CommonArgs<'a> {
    /// Raw `--variant` value, if given.
    pub variant: Option<&'a str>,
    /// `--threads N`; `None` selects the sequential reference kernels.
    pub threads: Option<usize>,
    /// `--instrumented`: tally per-operation counters.
    pub instrumented: bool,
    /// `--trace FILE`: write the run's `bga-trace-v1` stream here.
    pub trace_path: Option<&'a str>,
    /// An armed deadline token when `--timeout-ms` was given. The
    /// deadline starts at parse time — deliberately before graph
    /// loading, so the budget covers the whole invocation the way a
    /// supervisor's timeout would.
    pub token: Option<CancelToken>,
}

impl<'a> CommonArgs<'a> {
    /// Parses the shared flags and enforces the exclusivity matrix.
    pub(super) fn parse(args: &'a [String]) -> Result<Self, String> {
        let variant = flag_value(args, "--variant");
        if variant.is_none() && args.iter().any(|a| a == "--variant") {
            return Err("--variant requires a value".to_string());
        }
        let threads = parse_threads(args)?;
        let instrumented = args.iter().any(|a| a == "--instrumented");
        let trace_path = super::trace::parse_trace_path(args)?;
        if trace_path.is_some() && threads.is_none() {
            return Err("--trace requires --threads N (only parallel runs are traced)".to_string());
        }
        if trace_path.is_some() && instrumented {
            return Err(
                "--trace and --instrumented are exclusive (the trace carries the counters)"
                    .to_string(),
            );
        }
        let token = match parse_timeout(args)? {
            None => None,
            Some(timeout) => {
                if threads.is_none() {
                    return Err(
                        "--timeout-ms requires --threads N (only parallel runs are cancellable)"
                            .to_string(),
                    );
                }
                Some(CancelToken::new().with_deadline_in(timeout))
            }
        };
        Ok(CommonArgs {
            variant,
            threads,
            instrumented,
            trace_path,
            token,
        })
    }

    /// The `--variant` value, or `default` when the flag is absent.
    pub(super) fn variant_or(&self, default: &'a str) -> &'a str {
        self.variant.unwrap_or(default)
    }

    /// The request-API configuration these flags describe (threads,
    /// instrumentation, deadline). Attach a trace sink on top with
    /// [`RunConfig::traced`] when [`CommonArgs::trace_path`] is set.
    pub(super) fn run_config(&self) -> RunConfig<'_, NoopSink> {
        let mut config = RunConfig::new()
            .threads(self.threads.unwrap_or(0))
            .instrumented(self.instrumented);
        if let Some(token) = &self.token {
            config = config.cancel(token);
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_shared_flags() {
        let args = strings(&[
            "g",
            "--variant",
            "branch-based",
            "--threads",
            "4",
            "--instrumented",
        ]);
        let common = CommonArgs::parse(&args).unwrap();
        assert_eq!(common.variant, Some("branch-based"));
        assert_eq!(common.variant_or("branch-avoiding"), "branch-based");
        assert_eq!(common.threads, Some(4));
        assert!(common.instrumented);
        assert!(common.trace_path.is_none());
        assert!(common.token.is_none());

        let bare_args = strings(&["g"]);
        let bare = CommonArgs::parse(&bare_args).unwrap();
        assert_eq!(bare.variant, None);
        assert_eq!(bare.variant_or("branch-avoiding"), "branch-avoiding");
        assert_eq!(bare.threads, None);
        assert!(!bare.instrumented);
    }

    /// Pins the full exclusivity matrix: which flag combinations parse
    /// and which are usage errors, with the wording each error carries.
    #[test]
    fn exclusivity_matrix() {
        let ok = [
            &["g"][..],
            &["g", "--threads", "2"][..],
            &["g", "--instrumented"][..],
            &["g", "--threads", "2", "--instrumented"][..],
            &["g", "--threads", "2", "--trace", "t.jsonl"][..],
            &["g", "--threads", "2", "--timeout-ms", "50"][..],
            &[
                "g",
                "--threads",
                "2",
                "--instrumented",
                "--timeout-ms",
                "50",
            ][..],
            &[
                "g",
                "--threads",
                "2",
                "--trace",
                "t.jsonl",
                "--timeout-ms",
                "50",
            ][..],
        ];
        for case in ok {
            assert!(CommonArgs::parse(&strings(case)).is_ok(), "{case:?}");
        }
        let err = [
            (
                &["g", "--trace", "t.jsonl"][..],
                "--trace requires --threads N",
            ),
            (
                &["g", "--instrumented", "--trace", "t.jsonl"][..],
                "--trace requires --threads N",
            ),
            (
                &[
                    "g",
                    "--threads",
                    "2",
                    "--instrumented",
                    "--trace",
                    "t.jsonl",
                ][..],
                "--trace and --instrumented are exclusive",
            ),
            (
                &["g", "--timeout-ms", "50"][..],
                "--timeout-ms requires --threads N",
            ),
        ];
        for (case, needle) in err {
            let message = CommonArgs::parse(&strings(case)).err().unwrap();
            assert!(message.contains(needle), "{case:?} -> {message:?}");
        }
    }

    #[test]
    fn bare_and_malformed_values_are_loud() {
        for case in [
            &["g", "--variant"][..],
            &["g", "--threads"][..],
            &["g", "--threads", "two"][..],
            &["g", "--trace"][..],
            &["g", "--threads", "2", "--timeout-ms"][..],
            &["g", "--threads", "2", "--timeout-ms", "abc"][..],
        ] {
            assert!(CommonArgs::parse(&strings(case)).is_err(), "{case:?}");
        }
    }

    #[test]
    fn run_config_carries_the_flags() {
        let args = strings(&["g", "--threads", "3", "--timeout-ms", "60000"]);
        let common = CommonArgs::parse(&args).unwrap();
        assert!(common.token.is_some());
        // The config is exercised end to end by the command tests; here
        // just check it builds with the deadline attached.
        let _config = common.run_config();
    }

    #[test]
    fn deadline_starts_at_parse_time() {
        let args = strings(&["g", "--threads", "2", "--timeout-ms", "0"]);
        let common = CommonArgs::parse(&args).unwrap();
        // A zero budget has already expired by the first phase boundary.
        assert!(common.token.as_ref().unwrap().should_stop(0).is_some());
    }
}
