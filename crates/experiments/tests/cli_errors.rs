//! CLI contract tests for the output-path error handling: unwritable
//! `--out`/`--metrics-out`/`--trace-out` destinations must fail with a
//! one-line `error:` message and exit code 2, and writable nested
//! destinations must be created on demand.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vcoma-experiments"))
}

fn stderr_line(output: &std::process::Output) -> String {
    String::from_utf8_lossy(&output.stderr).trim().to_string()
}

#[test]
fn unwritable_out_fails_with_exit_2_before_simulating() {
    // /dev/null is a file, so nothing below it can be created. The CLI
    // must reject this upfront — instantly, not after a sweep.
    let output = bin()
        .args(["table1", "--out", "/dev/null/sweeps"])
        .output()
        .expect("run vcoma-experiments");
    assert_eq!(output.status.code(), Some(2));
    let err = stderr_line(&output);
    assert!(
        err.starts_with("error: cannot create directory /dev/null/sweeps"),
        "got: {err}"
    );
    assert_eq!(err.lines().count(), 1, "one-line error, got: {err}");
}

#[test]
fn unwritable_metrics_out_fails_with_exit_2() {
    let output = bin()
        .args(["breakdown", "--scale", "0.002", "--metrics-out", "/dev/null/metrics.json"])
        .output()
        .expect("run vcoma-experiments");
    assert_eq!(output.status.code(), Some(2));
    let err = stderr_line(&output);
    assert!(
        err.starts_with("error: cannot create directory /dev/null"),
        "got: {err}"
    );
}

#[test]
fn missing_flag_values_fail_with_exit_2() {
    for flag in ["--out", "--metrics-out", "--trace-out"] {
        let output = bin().args(["table1", flag]).output().expect("run vcoma-experiments");
        assert_eq!(output.status.code(), Some(2), "{flag}");
        assert_eq!(stderr_line(&output), format!("error: {flag} needs a value"));
    }
}

#[test]
fn nested_out_directories_are_created_on_demand() {
    let base = std::env::temp_dir().join(format!("vcoma-cli-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let dest = base.join("deep").join("nested");
    let output = bin()
        .current_dir(&base)
        .args(["table1", "--scale", "0.002", "--out"])
        .arg(&dest)
        .output()
        .expect("run vcoma-experiments");
    assert!(output.status.success(), "stderr: {}", stderr_line(&output));
    let csv = dest.join("table1.csv");
    let contents = std::fs::read_to_string(&csv).expect("table1.csv written");
    assert!(contents.contains("RADIX"));
    assert!(base.join("BENCH_sweep.json").exists(), "the throughput report lands in the cwd");
    let _ = std::fs::remove_dir_all(&base);
}
