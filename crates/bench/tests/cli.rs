//! The `figures` command line: an argument it does not know is an error, not
//! a silent run of every experiment, and a reader that goes away ends the
//! run quietly.

use std::process::Command;

#[test]
fn an_unknown_argument_prints_usage_and_exits_2_without_running_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("--bogus")
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: figures"));
}

/// A reader that stops early (`figures all | head`) ends the run quietly:
/// no panic, exit status 0.
#[test]
fn a_closed_stdout_stops_the_run_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("tab2")
        .stdout(writer)
        .output()
        .expect("figures runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.status.success(), "{:?}, stderr: {stderr}", out.status);
}
