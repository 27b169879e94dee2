//! Crash recovery through the real binary: SIGKILL the daemon
//! mid-session and verify the restarted process recovers the last
//! explicit checkpoint and serves byte-identical decisions for it.
//!
//! This is the ungraceful sibling of the in-process restart test in
//! `crates/serve/tests/daemon.rs` — no shutdown message, no final
//! checkpoint, just `kill -9`.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use megh_core::{load_checkpoint, Config, MeghConfig};
use megh_serve::{Client, Listen, Request, Response};

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("megh-cli-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_daemon(socket: &Path, checkpoint: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_megh"))
        .args([
            "serve",
            "--listen",
            &format!("unix:{}", socket.display()),
            "--checkpoint",
            &checkpoint.display().to_string(),
            "--vms",
            "8",
            "--hosts",
            "4",
            "--checkpoint-every",
            "0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn megh serve")
}

fn client_bin(socket: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_megh"))
        .args(["client", "--connect", &format!("unix:{}", socket.display())])
        .args(extra)
        .output()
        .expect("run megh client");
    assert!(out.status.success(), "megh client failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf8 response")
}

#[test]
fn sigkill_mid_update_restarts_from_last_checkpoint() {
    let dir = temp_dir();
    let socket = dir.join("megh.sock");
    let checkpoint = dir.join("checkpoint.json");
    let listen = Listen::parse(&format!("unix:{}", socket.display()));

    let mut child = spawn_daemon(&socket, &checkpoint);
    let mut client = Client::connect_retry_timeout(&listen, 200, Duration::from_millis(20), None)
        .expect("daemon up");

    // Learn, persist explicitly, and record the exact decision bytes
    // for the persisted state.
    for i in 0..30 {
        let r = client
            .observe(i % 32, 0.05 + (i % 5) as f64 * 0.02)
            .unwrap();
        assert!(matches!(r, Response::Queued { .. }), "{r:?}");
    }
    assert!(matches!(
        client.sync().unwrap(),
        Response::Synced { steps: 30 }
    ));
    assert!(matches!(
        client.checkpoint().unwrap(),
        Response::Checkpointed { steps: 30 }
    ));
    let before: Vec<String> = (0..8)
        .map(|seed| client.request_raw(&Request::Decide { seed }).unwrap())
        .collect();

    // More learning that is never persisted (--checkpoint-every 0 and
    // no further checkpoint request), then kill -9 mid-session.
    for i in 0..10 {
        client.observe(i, 0.3).unwrap();
    }
    assert!(matches!(
        client.sync().unwrap(),
        Response::Synced { steps: 40 }
    ));
    child.kill().expect("SIGKILL daemon");
    child.wait().expect("reap daemon");

    // The checkpoint on disk is the 30-step one: it parses, its
    // checksum verifies (load_checkpoint re-validates it), and its
    // config fingerprints identically to the daemon's cold-start one.
    let cp = load_checkpoint(&checkpoint).expect("recovered checkpoint");
    assert_eq!(cp.steps, 30, "post-checkpoint learning must not persist");
    assert_eq!(
        Config::checksum(&cp.config),
        Config::checksum(&MeghConfig::paper_defaults(8, 4))
    );

    // Restart from the recovered checkpoint; the stale socket file left
    // by the kill must not prevent the new daemon from binding.
    let mut child = spawn_daemon(&socket, &checkpoint);
    let mut client = Client::connect_retry_timeout(&listen, 200, Duration::from_millis(20), None)
        .expect("daemon back up");
    let Response::Stats { steps, .. } = client.request(&Request::Stats).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(steps, 30);
    for (seed, expected) in before.iter().enumerate() {
        let replayed = client
            .request_raw(&Request::Decide { seed: seed as u64 })
            .unwrap();
        assert_eq!(&replayed, expected, "seed {seed} diverged after crash");
    }

    // Exercise the `megh client` subcommand end-to-end too: its raw
    // stats line must report the recovered step count.
    let stats_line = client_bin(&socket, &["--op", "stats"]);
    assert!(stats_line.contains("\"steps\":30"), "{stats_line}");
    let bye = client_bin(&socket, &["--op", "shutdown"]);
    assert!(bye.contains("\"op\":\"bye\""), "{bye}");

    let status = child.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "graceful shutdown exit: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
