//! End-to-end exit-code check for `--timeout-ms` on an instrumented run:
//! the `bga` binary itself is spawned so the test sees the process exit
//! code a script would, not just the command's `Result`.

use std::process::Command;

#[test]
fn instrumented_run_with_an_expired_deadline_exits_124_with_its_counter_table() {
    let output = Command::new(env!("CARGO_BIN_EXE_bga"))
        .args([
            "cc",
            "cond-mat-2005",
            "--threads",
            "1",
            "--instrumented",
            "--timeout-ms",
            "0",
        ])
        .output()
        .expect("failed to spawn bga");
    assert_eq!(output.status.code(), Some(124), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("bga prints UTF-8");
    // The counter table covers the completed prefix: a zero budget stops
    // before the first sweep, so it has a header and no rows.
    assert!(stdout.contains("iterations: 0"), "{stdout}");
    assert!(stdout.contains("totals: "), "{stdout}");
    let header = stdout
        .lines()
        .find(|line| line.contains("iteration") && line.contains("branches"))
        .unwrap_or_else(|| panic!("no counter table in {stdout}"));
    assert!(header.contains("updates"), "{header}");
    let stderr = String::from_utf8(output.stderr).expect("bga prints UTF-8");
    assert!(stderr.contains("deadline expired"), "{stderr}");
}
