//! `optimus-cli` whose stdout reader has gone (`optimus-cli repro | head`)
//! stops quietly: status 0 and nothing on stderr, not a broken-pipe panic.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Builds `optimus-cli`, a binary of the `bench` package, in this test's
/// profile and returns its path.
fn optimus_cli() -> PathBuf {
    let exe = std::env::current_exe().expect("the test's own path");
    let profile = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("target/<profile>/deps");
    let mut cargo = Command::new(env!("CARGO"));
    cargo.args([
        "build",
        "--quiet",
        "--offline",
        "-p",
        "bench",
        "--bin",
        "optimus-cli",
    ]);
    if profile.ends_with("release") {
        cargo.arg("--release");
    }
    let status = cargo.current_dir(env!("CARGO_MANIFEST_DIR")).status();
    assert!(
        status.expect("cargo starts").success(),
        "building optimus-cli failed"
    );
    profile.join("optimus-cli")
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let bin = optimus_cli();
    let dir = std::env::temp_dir().join(format!("optimus-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for args in [&["repro", "table1"][..], &["--dry-run", "--layers", "1"]] {
        // A pipe whose read end is closed before the run starts: the first
        // line written fails, whatever the output's length.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(&bin)
            .args(args)
            .current_dir(&dir)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("optimus-cli starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {}\n{stderr}", out.status);
        assert!(stderr.is_empty(), "{args:?} wrote to stderr:\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
