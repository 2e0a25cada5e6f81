//! The CLI's output boundary: a reader that stops reading (EPIPE, as in
//! `apples-cli grid --csv | head -1`) is a clean exit 0, not a panic,
//! and contradictory output formats, unknown experiments and flags an
//! experiment does not take are usage errors (exit 2).

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apples-cli"))
}

const GRID_CSV: [&str; 8] = [
    "grid",
    "--rate",
    "0.01",
    "--duration",
    "1800",
    "--seed",
    "7",
    "--csv",
];

#[test]
fn stdout_closed_before_the_first_write_exits_0() {
    // The read end is gone before the child runs, so its very first
    // write fails with EPIPE.
    for args in [&GRID_CSV[..], &["repro", "fig2"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = cli()
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn apples-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn lint_report_into_a_closed_pipe_keeps_its_exit_code() {
    // simlint renders through the same EPIPE rule; a clean workspace
    // still exits 0 when nobody reads the report.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = cli()
        .args(["lint", "--format", "json", root])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn apples-cli lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn reading_one_line_then_hanging_up_exits_0() {
    // `| head -1`: take the first line, then close the pipe.
    for (args, head) in [(&GRID_CSV[..], "label,"), (&["repro", "fig2"], "Figure 2")] {
        let mut child = cli()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn apples-cli");
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("stdout"))
            .read_line(&mut first)
            .expect("first line");
        assert!(first.starts_with(head), "{args:?} first line: {first}");
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn unknown_experiment_or_flag_is_a_usage_error() {
    for args in [
        &["repro", "nosuch"][..],
        &["repro"],
        &["repro", "fig2", "--csv"],
    ] {
        let out = cli().args(args).output().expect("spawn apples-cli repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("USAGE:"), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn csv_and_json_together_is_a_usage_error() {
    for args in [&GRID_CSV[..], &["repro", "t-grid", "--csv"]] {
        let out = cli()
            .args(args)
            .arg("--json")
            .output()
            .expect("spawn apples-cli");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "no output format may win");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--csv and --json"), "stderr: {stderr}");
    }
}
