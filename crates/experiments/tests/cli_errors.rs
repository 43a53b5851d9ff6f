//! CLI contract tests for the usage-error handling: unwritable
//! `--out`/`--metrics-out`/`--trace-out` destinations and machines the
//! simulator cannot model must fail with a one-line `error:` message and
//! exit code 2, writable nested destinations must be created on demand,
//! and both the unknown-artifact error and `--help` must name every
//! artifact.

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
    for flag in [
        "--out",
        "--metrics-out",
        "--trace-out",
        "--schemes",
        "--fault-seed",
        "--fault-plan",
        "--jobs",
        "--scale",
    ] {
        let output = bin().args(["table1", flag]).output().expect("run vcoma-experiments");
        assert_eq!(output.status.code(), Some(2), "{flag}");
        assert_eq!(stderr_line(&output), format!("error: {flag} needs a value"));
    }
}

#[test]
fn invalid_node_counts_fail_with_exit_2_before_simulating() {
    for (nodes, err) in [
        ("2048", "error: --nodes 2048: nodes must be at most 1024, got 2048"),
        ("65536", "error: --nodes 65536: nodes must be at most 1024, got 65536"),
        ("12", "error: --nodes 12: nodes must be a non-zero power of two, got 12"),
        ("0", "error: --nodes 0: nodes must be a non-zero power of two, got 0"),
    ] {
        let output =
            bin().args(["table1", "--nodes", nodes]).output().expect("run vcoma-experiments");
        assert_eq!(output.status.code(), Some(2), "--nodes {nodes}");
        assert_eq!(stderr_line(&output), err);
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

#[test]
fn unknown_artifacts_fail_with_exit_2_and_list_the_valid_ones() {
    let output = bin().arg("no_such_artifact").output().expect("run vcoma-experiments");
    assert_eq!(output.status.code(), Some(2));
    let err = stderr_line(&output);
    let mut lines = err.lines();
    assert_eq!(lines.next(), Some("error: unknown artifact 'no_such_artifact'"));
    let valid = lines.next().expect("a valid-artifacts line");
    let listed = valid.strip_prefix("valid artifacts: ").unwrap_or_else(|| panic!("got: {valid}"));
    let names: Vec<&str> = listed.split(' ').collect();
    let standard = vcoma_experiments::artifacts::STANDARD;
    for name in standard.iter().chain(&["breakdown", "faults", "trace", "all"]) {
        assert!(names.contains(name), "{name} missing from: {valid}");
    }
    assert_eq!(names.len(), standard.len() + 4, "{valid}");
    assert_eq!(lines.next(), None, "got: {err}");
}

#[test]
fn help_names_every_artifact() {
    let output = bin().arg("--help").output().expect("run vcoma-experiments");
    assert!(output.status.success());
    let help = String::from_utf8_lossy(&output.stdout);
    let start = help.find("artifacts:").expect("an artifacts list");
    let end = help[start..].find("(default:").expect("a default line") + start;
    let listed: Vec<&str> =
        help[start + "artifacts:".len()..end].split_whitespace().collect();
    let opt_in = ["breakdown", "faults", "trace"];
    let standard = vcoma_experiments::artifacts::STANDARD;
    let want: Vec<&str> = standard.iter().chain(&opt_in).chain(&["all"]).copied().collect();
    assert_eq!(listed, want, "{help}");
    let default = help[end..].lines().next().expect("the default line");
    assert_eq!(
        default,
        "(default: all, which runs everything except breakdown, faults and trace)"
    );
    assert!(help[start..end].lines().all(|l| l.len() <= 78), "the list wraps: {help}");
}
