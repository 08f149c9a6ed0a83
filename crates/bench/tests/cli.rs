//! The `figures` command line: an argument it does not know is an error, not
//! a silent run of every experiment.

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
