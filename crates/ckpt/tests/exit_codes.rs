//! `ckpt_tool` honors the workspace exit-code convention: `0` ok, `1`
//! runtime failure, `2` bad invocation — same contract as `trace_tool`
//! and `obs_tool`, tested the same way (spawning the real binary).

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use jpmd_ckpt::{save_checkpoint, CkptMeta};

mod common;
use common::capture_checkpoint;

fn tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ckpt_tool"))
        .args(args)
        .output()
        .expect("spawn ckpt_tool")
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("exit code")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jpmd-ckpt-exit-{tag}-{}.jck", std::process::id()))
}

/// A real checkpoint file with a non-resumable (free-form) recipe kind.
fn good_file(tag: &str) -> PathBuf {
    let path = scratch(tag);
    save_checkpoint(&path, &CkptMeta::new("method"), &capture_checkpoint())
        .expect("save checkpoint");
    path
}

#[test]
fn bad_invocations_exit_2_with_usage() {
    for args in [&[][..], &["frobnicate"][..], &["inspect"][..]] {
        let out = tool(args);
        assert_eq!(code(&out), 2, "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
}

#[test]
fn runtime_failures_exit_1() {
    let missing = tool(&["verify", "/nonexistent/run.jck"]);
    assert_eq!(code(&missing), 1);
    assert!(String::from_utf8_lossy(&missing.stderr).contains("error:"));

    let torn_path = scratch("torn");
    fs::write(&torn_path, b"JPMDCKP1 torn far too short").expect("write torn file");
    let torn = tool(&["verify", torn_path.to_str().unwrap()]);
    assert_eq!(code(&torn), 1);
    assert!(String::from_utf8_lossy(&torn.stderr).contains("torn"));
    fs::remove_file(&torn_path).ok();
}

#[test]
fn verify_inspect_and_refused_resume_on_a_real_file() {
    let path = good_file("good");
    let path_str = path.to_str().unwrap();

    let verify = tool(&["verify", path_str]);
    assert_eq!(code(&verify), 0);
    assert!(String::from_utf8_lossy(&verify.stdout).starts_with("ok:"));

    let inspect = tool(&["inspect", path_str]);
    assert_eq!(code(&inspect), 0);
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    assert!(stdout.contains("label"), "{stdout}");
    assert!(stdout.contains("records_pulled"), "{stdout}");

    // The free-form 'method' kind has no rebuild recipe: a runtime
    // error (1), not a usage error.
    let resume = tool(&["resume", path_str]);
    assert_eq!(code(&resume), 1);
    assert!(String::from_utf8_lossy(&resume.stderr).contains("chaos-small"));
    fs::remove_file(&path).ok();
}
