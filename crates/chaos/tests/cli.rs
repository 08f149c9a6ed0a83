//! The `chaos-sweep` command line: an artifact whose labels `--repro` does
//! not know is an error, not a silent run of some other scenario, and so is
//! a flag without a valid value.

use std::process::Command;

#[test]
fn repro_of_an_unknown_label_exits_2_without_running_anything() {
    for (field, system, kind) in [("kind", "SwitchFS", "bogus"), ("system", "bogus", "crash")] {
        let path = std::env::temp_dir().join(format!(
            "chaos-sweep-cli-{}-unknown-{field}.json",
            std::process::id()
        ));
        let artifact = format!(
            r#"{{"system": "{system}", "seed": 1, "kind": "{kind}", "servers": 4,
                "clients": 2, "ops_per_client": 40, "horizon_us": 60000}}"#
        );
        std::fs::write(&path, artifact).expect("writable temp dir");
        let out = Command::new(env!("CARGO_BIN_EXE_chaos-sweep"))
            .arg("--repro")
            .arg(&path)
            .output()
            .expect("chaos-sweep runs");
        std::fs::remove_file(&path).expect("artifact removed");
        assert_eq!(out.status.code(), Some(2), "unknown {field}");
        assert!(
            out.stdout.is_empty(),
            "unknown {field}, stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn a_missing_or_unparsable_flag_value_exits_2_without_a_panic() {
    for args in [&["--seeds"][..], &["--seeds", "x"], &["--artifact"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_chaos-sweep"))
            .args(args)
            .output()
            .expect("chaos-sweep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}, stderr: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}, stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(!stderr.contains("panicked"), "{args:?}, stderr: {stderr}");
    }
}
