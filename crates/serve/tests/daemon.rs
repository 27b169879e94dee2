//! End-to-end daemon tests: serve, learn, checkpoint, restart, and
//! verify the restarted daemon answers byte-identically for the state
//! it recovered.

use std::path::PathBuf;
use std::time::Duration;

use megh_core::{
    load_checkpoint, save_checkpoint, ActionSpace, BoltzmannPolicy, CheckpointError, Config,
    MeghAgent, MeghCheckpoint, MeghConfig, SparseLspi,
};
use megh_serve::{Client, Listen, Request, Response, ServeError, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("megh-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn connect(listen: &Listen) -> Client {
    Client::connect_retry_timeout(listen, 100, Duration::from_millis(20), None).expect("daemon up")
}

/// Starts a daemon thread and waits until it accepts connections.
fn start(config: MeghConfig, opts: &ServeOptions) -> std::thread::JoinHandle<()> {
    let server = Server::bind(config, opts).expect("bind");
    std::thread::spawn(move || server.run().expect("serve"))
}

#[cfg(unix)]
#[test]
fn learn_checkpoint_restart_serves_identical_decisions() {
    let dir = temp_dir("restart");
    let listen = Listen::parse(&format!("unix:{}", dir.join("megh.sock").display()));
    let checkpoint = dir.join("checkpoint.json");
    let opts = ServeOptions::new(listen.clone(), checkpoint.clone());
    let config = MeghConfig::paper_defaults(8, 4);

    let handle = start(config.clone(), &opts);
    let mut client = connect(&listen);

    // Fresh daemon: steps 0, nothing learned.
    let Response::Stats { steps, nnz, .. } = client.request(&Request::Stats).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!((steps, nnz), (0, 0));

    // Feed learning updates and wait for them to be applied.
    for i in 0..40 {
        let r = client
            .observe(i % 32, 0.05 + (i % 7) as f64 * 0.01)
            .unwrap();
        assert!(matches!(r, Response::Queued { .. }), "{r:?}");
    }
    let Response::Synced { steps } = client.sync().unwrap() else {
        panic!("expected synced");
    };
    assert_eq!(steps, 40);

    // Persist, then record the exact response bytes for a seed sweep.
    assert!(matches!(
        client.checkpoint().unwrap(),
        Response::Checkpointed { steps: 40 }
    ));
    let before: Vec<String> = (0..16)
        .map(|seed| client.request_raw(&Request::Decide { seed }).unwrap())
        .collect();

    // More learning AFTER the checkpoint — must not affect what the
    // restarted daemon serves, because it was never persisted.
    for i in 0..10 {
        client.observe(i, 0.2).unwrap();
    }
    client.sync().unwrap();
    let after_extra = client.request_raw(&Request::Decide { seed: 0 }).unwrap();

    assert!(matches!(client.shutdown().unwrap(), Response::Bye));
    handle.join().unwrap();

    // Shutdown wrote a final checkpoint (50 steps). Wipe it and restore
    // the mid-run one to emulate "state at the last explicit persist".
    let cp = load_checkpoint(&checkpoint).unwrap();
    assert_eq!(cp.steps, 50, "shutdown checkpoints the drained state");

    // Restart against the 50-step state: decide(0) must match the
    // post-extra-learning answer, not the 40-step one.
    let handle = start(config.clone(), &opts);
    let mut client = connect(&listen);
    let Response::Stats { steps, .. } = client.request(&Request::Stats).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(steps, 50);
    let replayed = client.request_raw(&Request::Decide { seed: 0 }).unwrap();
    assert_eq!(replayed, after_extra);
    assert!(matches!(client.shutdown().unwrap(), Response::Bye));
    handle.join().unwrap();

    // The recovered config must fingerprint identically to the one the
    // daemon was started with.
    assert_eq!(Config::checksum(&cp.config), Config::checksum(&config));
    let _ = std::fs::remove_dir_all(&dir);

    // `before` is exercised by the crash-recovery test in the CLI crate
    // (kill -9 instead of graceful shutdown); here just pin that seeds
    // differ — a constant decision would make the diff vacuous.
    assert!(
        before.iter().any(|l| l != &before[0]),
        "seed sweep collapsed to one decision: {before:?}"
    );
}

/// A checksum-valid checkpoint whose learned state does not fit its
/// configuration is a bind error — it used to load and then panic the
/// first connection thread that decoded an action (wrong dimension) or
/// `bind` itself (non-positive temperature).
#[test]
fn bind_rejects_a_checkpoint_whose_state_does_not_fit_its_config() {
    let dir = temp_dir("misfit");
    let checkpoint = dir.join("checkpoint.json");
    let opts = ServeOptions::new(Listen::parse("127.0.0.1:0"), checkpoint.clone());
    let config = MeghConfig::paper_defaults(6, 3);

    let mut wrong_dim = MeghAgent::new(config.clone()).checkpoint();
    wrong_dim.config.n_hosts = 4;
    let mut cold = MeghAgent::new(config.clone()).checkpoint();
    cold.temperature = -1.0;
    for cp in [wrong_dim, cold] {
        save_checkpoint(&checkpoint, &cp).unwrap();
        match Server::bind(config.clone(), &opts) {
            Err(ServeError::Checkpoint(CheckpointError::InvalidConfig(_))) => {}
            Err(other) => panic!("expected an invalid-config error, got {other}"),
            Ok(_) => panic!("bound on a checkpoint that does not fit its config"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_listener_serves_decides_and_reports_addr() {
    let dir = temp_dir("tcp");
    let checkpoint = dir.join("checkpoint.json");
    let opts = ServeOptions::new(Listen::parse("127.0.0.1:0"), checkpoint);
    let server = Server::bind(MeghConfig::paper_defaults(6, 3), &opts).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let listen = Listen::parse(&addr.to_string());
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let mut client = connect(&listen);
    let a = client.decide(7).unwrap();
    let b = client.decide(7).unwrap();
    assert_eq!(a, b, "same seed, same snapshot, same decision");
    let Response::Decision { vm, target, .. } = a else {
        panic!("expected decision");
    };
    assert!(vm < 6 && target < 3);

    // Concurrent readers: all threads decide against the same snapshot.
    let mut workers = Vec::new();
    for t in 0..4 {
        let listen = listen.clone();
        workers.push(std::thread::spawn(move || {
            let mut c = connect(&listen);
            (0..25)
                .map(|i| {
                    c.request_raw(&Request::Decide { seed: t * 100 + i })
                        .unwrap()
                })
                .collect::<Vec<_>>()
        }));
    }
    let transcripts: Vec<Vec<String>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    // Replaying any worker's seeds yields its exact transcript.
    for (t, transcript) in transcripts.iter().enumerate() {
        for (i, line) in transcript.iter().enumerate() {
            let replay = client
                .request_raw(&Request::Decide {
                    seed: t as u64 * 100 + i as u64,
                })
                .unwrap();
            assert_eq!(&replay, line);
        }
    }

    assert!(matches!(client.shutdown().unwrap(), Response::Bye));
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn published_snapshot_decides_like_an_in_process_agent() {
    // A published snapshot must carry everything `decide` reads: after
    // every sync the daemon's answer for a seed is the action an
    // in-process LSPI + policy, fed the same updates in the same order,
    // samples with that seed.
    let dir = temp_dir("reference");
    let checkpoint = dir.join("checkpoint.json");
    let opts = ServeOptions::new(Listen::parse("127.0.0.1:0"), checkpoint);
    let config = MeghConfig::paper_defaults(8, 4);
    let server = Server::bind(config.clone(), &opts).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let listen = Listen::parse(&addr.to_string());
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let mut client = connect(&listen);

    let dim = ActionSpace::new(config.n_vms, config.n_hosts).dim();
    let mut lspi = SparseLspi::new(dim, config.delta, config.gamma);
    let mut policy = BoltzmannPolicy::new(config.temp0, config.epsilon);
    let mut writer_rng = StdRng::seed_from_u64(opts.writer_seed);

    let mut sent = 0;
    for round in 0..4 {
        for i in 0..24 {
            let action = (round * 11 + i * 7) % dim;
            // Costs on the scale of the temperature, so θ shapes the softmax.
            let cost = 0.5 + ((round + i) % 9) as f64 * 0.5;
            let r = client.observe(action, cost).unwrap();
            assert!(matches!(r, Response::Queued { .. }), "{r:?}");
            let a_next = policy.greedy(&lspi, &mut writer_rng);
            lspi.update(action, a_next, cost);
            policy.decay();
            sent += 1;
        }
        let Response::Synced { steps } = client.sync().unwrap() else {
            panic!("expected synced");
        };
        assert_eq!(steps, sent);

        for seed in 0..64 {
            let Response::Decision { action, .. } = client.decide(seed).unwrap() else {
                panic!("expected decision");
            };
            let want = policy.sample(&lspi, &mut StdRng::seed_from_u64(seed));
            assert_eq!(Some(action), want, "round {round}, seed {seed}");
        }
        let Response::Stats { steps, nnz, .. } = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!((steps, nnz), (sent, lspi.explicit_nnz()), "round {round}");
    }
    assert!(lspi.explicit_nnz() > 0, "the recorded sequence must learn");

    assert!(matches!(client.shutdown().unwrap(), Response::Bye));
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn published_snapshot_decides_like_an_in_process_agent_on_edge_states() {
    // The same gate on the two states a frozen table treats specially:
    // an annealed one, where every explicit weight underflows to 0.0 and
    // the zero class takes every draw, and a saturated one, where every
    // action carries a θ entry and the zero class is empty.
    let annealed = {
        let config = MeghConfig::paper_defaults(8, 4);
        let mut lspi = SparseLspi::new(32, config.delta, config.gamma);
        for a in [2, 5, 11, 30] {
            lspi.update(a, a, 0.2 + a as f64 * 0.01);
        }
        let temperature = 1e-8;
        assert!(lspi
            .theta_entries()
            .all(|(_, q)| ((-q + lspi.min_q()) / temperature).exp() == 0.0));
        MeghCheckpoint {
            config,
            lspi,
            temperature,
            steps: 4,
        }
    };
    let saturated = {
        let config = MeghConfig::paper_defaults(2, 2);
        let mut lspi = SparseLspi::new(4, config.delta, config.gamma);
        for (a, cost) in [(0, 1.5), (1, -0.5), (2, 0.25), (3, 2.0)] {
            lspi.update(a, (a + 1) % 4, cost);
        }
        assert_eq!(lspi.theta_nnz(), 4, "θ must be saturated");
        MeghCheckpoint {
            config,
            lspi,
            temperature: 0.75,
            steps: 4,
        }
    };

    for (name, state) in [("annealed", annealed), ("saturated", saturated)] {
        let dir = temp_dir(&format!("edge-{name}"));
        let checkpoint = dir.join("checkpoint.json");
        save_checkpoint(&checkpoint, &state).unwrap();
        let opts = ServeOptions::new(Listen::parse("127.0.0.1:0"), checkpoint);
        let server = Server::bind(state.config.clone(), &opts).expect("bind");
        let addr = server.local_addr().expect("tcp addr");
        let listen = Listen::parse(&addr.to_string());
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        let mut client = connect(&listen);

        let policy = BoltzmannPolicy::with_temperature(state.temperature, state.config.epsilon);
        for seed in 0..64 {
            let Response::Decision { action, .. } = client.decide(seed).unwrap() else {
                panic!("expected decision");
            };
            let want = policy.sample(&state.lspi, &mut StdRng::seed_from_u64(seed));
            assert_eq!(Some(action), want, "{name}, seed {seed}");
        }
        let Response::Stats { steps, nnz, .. } = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!((steps, nnz), (4, state.lspi.explicit_nnz()), "{name}");

        assert!(matches!(client.shutdown().unwrap(), Response::Bye));
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn protocol_errors_are_answered_not_fatal() {
    let dir = temp_dir("proto");
    let opts = ServeOptions::new(Listen::parse("127.0.0.1:0"), dir.join("cp.json"));
    let server = Server::bind(MeghConfig::paper_defaults(4, 2), &opts).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let listen = Listen::parse(&addr.to_string());
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let mut client = connect(&listen);
    // Out-of-range action.
    let r = client.observe(10_000, 0.1).unwrap();
    assert!(matches!(r, Response::Error { .. }), "{r:?}");
    // Non-finite cost.
    let r = client.observe(0, f64::NAN).unwrap();
    assert!(matches!(r, Response::Error { .. }), "{r:?}");
    // The connection still works afterwards.
    assert!(matches!(
        client.decide(1).unwrap(),
        Response::Decision { .. }
    ));

    assert!(matches!(client.shutdown().unwrap(), Response::Bye));
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_timeout_unwedges_a_silent_server() {
    // A "daemon" that accepts connections and then never answers: a
    // deadline-armed client must error out instead of blocking forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let wedge = std::thread::spawn(move || {
        // Hold each accepted socket open until the test ends.
        let mut held = Vec::new();
        for stream in listener.incoming() {
            match stream {
                Ok(s) => held.push(s),
                Err(_) => break,
            }
            if !held.is_empty() {
                // Keep the socket alive long enough for the client to
                // hit its read deadline, then let the thread exit.
                std::thread::sleep(Duration::from_millis(500));
                break;
            }
        }
    });

    let listen = Listen::parse(&addr.to_string());
    let started = std::time::Instant::now();
    let mut client =
        Client::connect_timeout(&listen, Some(Duration::from_millis(100))).expect("tcp connect");
    let err = client
        .request(&Request::Stats)
        .expect_err("silent server must not produce a response");
    let waited = started.elapsed();
    let msg = err.to_string();
    assert!(
        waited < Duration::from_secs(5),
        "client hung for {waited:?} against a wedged server: {msg}"
    );
    wedge.join().expect("wedge thread");
}
