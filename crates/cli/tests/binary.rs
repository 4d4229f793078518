//! Drives the `gem` binary itself: exit codes and stdout handling that
//! the library-level tests of `gem_cli::run` cannot see.

use std::process::{Command, Output, Stdio};

fn gem(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gem"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gem")
        .wait_with_output()
        .expect("wait for gem")
}

#[test]
fn closed_stdout_ends_quietly() {
    // `gem render … | true`: the reader is gone before the first write.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = gem(&["render", "bounded", "items=2"], writer.into());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn removed_flags_are_unknown() {
    // `--jobs` left with the parallel explorer, `--dedup` with
    // computation dedup and `--incr-check` with the batch-only sweep:
    // each is an ordinary unknown flag, a usage error before any sweep
    // starts.
    for (args, flag) in [
        (&["verify", "one-slot", "--jobs", "2"][..], "--jobs"),
        (&["verify", "one-slot", "--jobs=1"][..], "--jobs"),
        (&["verify", "one-slot", "--dedup"][..], "--dedup"),
        (
            &["verify", "one-slot", "--incr-check", "off"][..],
            "--incr-check",
        ),
        (
            &["verify", "one-slot", "--incr-check=auto"][..],
            "--incr-check",
        ),
    ] {
        let out = gem(args, Stdio::piped());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown flag \"{flag}\"\nusage: gem ")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn exit_status_reports_the_result() {
    // 0: nothing found; 1: `verify` judged FAILS or `deadlock` found one;
    // 2: a usage error, before any sweep.
    for (args, code, stdout_has) in [
        (
            &["verify", "rw", "readers=1", "writers=2", "variant=fcfs"][..],
            1,
            "verdict: PROG sat P FAILS",
        ),
        (
            &["deadlock", "philosophers", "n=3", "order=naive"][..],
            1,
            "DEADLOCK after",
        ),
        (
            &["verify", "one-slot", "items=2"][..],
            0,
            "verdict: PROG sat P HOLDS",
        ),
        (&["deadlock", "philosophers", "n=3"][..], 0, "no deadlock"),
        (&["verify", "one-slot", "itmes=2"][..], 2, ""),
    ] {
        let out = gem(args, Stdio::piped());
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stdout.contains(stdout_has), "{args:?}: {stdout}");
    }
}
