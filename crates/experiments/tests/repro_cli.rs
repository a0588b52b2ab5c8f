//! Smoke tests for the `repro` CLI driver, exercising the real binary.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn quick_run_matches_the_golden_tables() {
    // Every table of `repro all --quick`, pinned byte for byte.
    let all = repro(&["all", "--quick"]);
    assert!(all.status.success(), "stderr: {:?}", all.stderr);
    assert_eq!(
        String::from_utf8_lossy(&all.stdout),
        include_str!("golden/all_quick.txt")
    );
}

#[test]
fn threads_flag_does_not_change_the_output() {
    // Engine parallelism is bit-identical by construction; the CLI output of
    // every experiment must therefore match exactly across --threads. The
    // golden file is the default run, i.e. --threads 1.
    let two = repro(&["all", "--quick", "--threads", "2"]);
    assert!(two.status.success(), "stderr: {:?}", two.stderr);
    assert_eq!(
        String::from_utf8_lossy(&two.stdout),
        include_str!("golden/all_quick.txt"),
        "--threads 2 must reproduce --threads 1 exactly"
    );
}

#[test]
fn threads_flag_rejects_bad_values() {
    let zero = repro(&["table1", "--threads", "0"]);
    assert!(!zero.status.success());
    assert!(String::from_utf8_lossy(&zero.stderr).contains("--threads"));
    let missing = repro(&["table1", "--threads"]);
    assert!(!missing.status.success());
    let junk = repro(&["table1", "--threads", "lots"]);
    assert!(!junk.status.success());
}

#[test]
fn flags_compose_in_any_order() {
    // --threads before --quick must not be clobbered by the quick preset.
    let a = repro(&["design-space", "--threads", "2", "--quick"]);
    let b = repro(&["design-space", "--quick", "--threads", "2"]);
    assert!(a.status.success());
    assert!(b.status.success());
    assert_eq!(a.stdout, b.stdout);
}
