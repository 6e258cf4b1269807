//! The `repro` binary as a user runs it: exit codes, and which stream the
//! output lands on.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        // The banner line of `repro tables` prints the default run length.
        .env_remove("REPRO_SECONDS")
        .output()
        .expect("repro runs")
}

/// `golden/tables.txt` is the stdout of `repro tables` at commit 94cb07a,
/// where every row of Tables 1–3 was its own `push_str(&format!(..))`.
#[test]
fn tables_match_the_golden_byte_for_byte() {
    let out = repro(&["tables"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8"),
        include_str!("golden/tables.txt")
    );
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(stdout.starts_with("usage: repro <all|tables|fig03|"));
        assert!(out.stderr.is_empty());
    }
    let out = repro(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
}
