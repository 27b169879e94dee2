//! The decision daemon: a read path over an immutable snapshot of the
//! learned state, one writer thread batching learning updates, and
//! crash-safe versioned checkpoints.
//!
//! # Architecture
//!
//! ```text
//!   clients ──decide──▶ handler threads ──▶ Arc<Snapshot> (immutable θ, read-only)
//!   clients ──observe─▶ handler threads ──▶ mpsc ──▶ writer thread
//!                                                     │ drains a batch
//!                                                     │ applies Sherman–Morrison updates
//!                                                     │ clones → publishes new Arc
//!                                                     └ checkpoints (atomic rename)
//! ```
//!
//! Decide requests never take the writer's path: each handler clones
//! the current `Arc<Snapshot>` under a briefly held read lock and
//! samples from its `θ` with a request-seeded RNG, so any number
//! of decides run concurrently against immutable state and the same
//! `(snapshot, seed)` pair always returns the same action. The writer
//! owns the only mutable copy; after applying a batch it publishes a
//! fresh clone, so readers never observe a half-applied update.
//!
//! # Crash safety
//!
//! There is no signal handling (the workspace forbids `unsafe`, and a
//! std-only process cannot trap SIGTERM): the daemon is crash-safe *by
//! construction* instead. Checkpoints go through
//! [`megh_core::save_checkpoint`] — write-to-temp plus rename — so a
//! `SIGKILL` at any instant leaves the previous checkpoint intact, and
//! restart re-enters through the versioned loader, which checksums and
//! migrates any format ever written. Updates observed after the last
//! checkpoint are lost on a hard kill; that is the usual checkpointing
//! contract, bounded by `checkpoint_every`.

// A long-running process must not die on an index or a division:
// enforced by clippy, and the attribute's presence by
// `tests/static_gates.rs`.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use std::fmt;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::Duration;

use megh_core::{
    load_checkpoint, save_checkpoint, ActionSpace, BoltzmannPolicy, CheckpointError, Config,
    MeghCheckpoint, MeghConfig, SparseLspi,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::wire::{Request, Response};

/// Most updates the writer folds into one publish cycle.
const MAX_BATCH: usize = 256;

/// How often the accept loop polls for shutdown between connections.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Errors the daemon or its clients can hit.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(String),
    /// Checkpoint load/save failure (including invalid configs).
    Checkpoint(CheckpointError),
    /// The peer violated the wire protocol.
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Checkpoint(e) => write!(f, "{e}"),
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address like `127.0.0.1:7787`.
    Tcp(String),
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Listen {
    /// Parses a listen spec: `unix:/path/to.sock` or a TCP address.
    pub fn parse(spec: &str) -> Self {
        #[cfg(unix)]
        if let Some(path) = spec.strip_prefix("unix:") {
            return Listen::Unix(PathBuf::from(path));
        }
        Listen::Tcp(spec.to_string())
    }
}

impl fmt::Display for Listen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Listen::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            Listen::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Daemon tunables.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where to listen.
    pub listen: Listen,
    /// Checkpoint file: loaded on start when present (any format
    /// version), written atomically on checkpoint/shutdown.
    pub checkpoint: PathBuf,
    /// Auto-checkpoint after this many applied updates; `0` checkpoints
    /// only on explicit `checkpoint` requests and shutdown (the
    /// deterministic mode the smoke test uses).
    pub checkpoint_every: usize,
    /// Seed for the writer's greedy-tie-break RNG.
    pub writer_seed: u64,
}

impl ServeOptions {
    /// Options with manual-checkpoint defaults.
    pub fn new(listen: Listen, checkpoint: PathBuf) -> Self {
        Self {
            listen,
            checkpoint,
            checkpoint_every: 0,
            writer_seed: 0x53_45_52_56, // "SERV"
        }
    }
}

/// What the read path serves from: an immutable view of the learned
/// state at some publish instant.
struct Snapshot {
    lspi: SparseLspi,
    steps: usize,
    temperature: f64,
}

/// State shared between handler threads and the writer.
struct Shared {
    snapshot: RwLock<Arc<Snapshot>>,
    epsilon: f64,
    space: ActionSpace,
    queued: AtomicUsize,
    published: AtomicU64,
    shutdown: AtomicBool,
}

enum WriterMsg {
    Update { action: usize, cost: f64 },
    Sync(Sender<usize>),
    Checkpoint(Sender<Result<usize, CheckpointError>>),
    Shutdown(Sender<Result<usize, CheckpointError>>),
}

/// The single owner of the mutable learned state.
struct Writer {
    config: MeghConfig,
    lspi: SparseLspi,
    policy: BoltzmannPolicy,
    steps: usize,
    rng: StdRng,
    shared: Arc<Shared>,
    checkpoint_path: PathBuf,
    checkpoint_every: usize,
    since_checkpoint: usize,
}

impl Writer {
    /// Publishes a clone of the current state for the read path.
    fn publish(&self) {
        let snapshot = Arc::new(Snapshot {
            lspi: self.lspi.clone(),
            steps: self.steps,
            temperature: self.policy.temperature(),
        });
        match self.shared.snapshot.write() {
            Ok(mut slot) => *slot = snapshot,
            Err(poisoned) => *poisoned.into_inner() = snapshot,
        }
        self.shared.published.fetch_add(1, Ordering::Relaxed);
    }

    /// One learning step: greedy successor, Sherman–Morrison update,
    /// temperature decay.
    fn apply(&mut self, action: usize, cost: f64) {
        let a_next = self.policy.greedy(&self.lspi, &mut self.rng);
        self.lspi.update(action, a_next, cost);
        self.policy.decay();
        self.steps += 1;
        self.since_checkpoint += 1;
        self.shared.queued.fetch_sub(1, Ordering::Relaxed);
    }

    fn checkpoint(&mut self) -> Result<usize, CheckpointError> {
        let cp = MeghCheckpoint {
            config: self.config.clone(),
            lspi: self.lspi.clone(),
            temperature: self.policy.temperature(),
            steps: self.steps,
        };
        save_checkpoint(&self.checkpoint_path, &cp)?;
        self.since_checkpoint = 0;
        Ok(self.steps)
    }

    fn run(mut self, rx: Receiver<WriterMsg>) {
        while let Ok(first) = rx.recv() {
            let mut batch = vec![first];
            while batch.len() < MAX_BATCH {
                match rx.try_recv() {
                    Ok(msg) => batch.push(msg),
                    Err(_) => break,
                }
            }
            let mut dirty = false;
            for msg in batch {
                match msg {
                    WriterMsg::Update { action, cost } => {
                        self.apply(action, cost);
                        dirty = true;
                    }
                    WriterMsg::Sync(ack) => {
                        if dirty {
                            self.publish();
                            dirty = false;
                        }
                        let _ = ack.send(self.steps);
                    }
                    WriterMsg::Checkpoint(ack) => {
                        if dirty {
                            self.publish();
                            dirty = false;
                        }
                        let _ = ack.send(self.checkpoint());
                    }
                    WriterMsg::Shutdown(ack) => {
                        // Fold in anything still queued, then write the
                        // final checkpoint before acknowledging. This
                        // drain runs once at shutdown after the listener
                        // stops accepting, so it is bounded by what
                        // producers queued before the ack — not a live
                        // ingest path.
                        while let Ok(msg) = rx.try_recv() {
                            match msg {
                                WriterMsg::Update { action, cost } => self.apply(action, cost),
                                WriterMsg::Sync(a) => {
                                    let _ = a.send(self.steps);
                                }
                                WriterMsg::Checkpoint(a) | WriterMsg::Shutdown(a) => {
                                    let _ = a.send(Ok(self.steps));
                                }
                            }
                        }
                        self.publish();
                        let _ = ack.send(self.checkpoint());
                        return;
                    }
                }
            }
            if dirty {
                self.publish();
                if self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every {
                    if let Err(e) = self.checkpoint() {
                        eprintln!("megh serve: auto-checkpoint failed: {e}");
                    }
                }
            }
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A bound daemon, ready to accept connections.
///
/// Binding and running are split so callers (tests, benches) can learn
/// the bound address — e.g. a TCP listener on port 0 — before serving.
pub struct Server {
    listener: ListenerKind,
    shared: Arc<Shared>,
    tx: Sender<WriterMsg>,
    writer: thread::JoinHandle<()>,
    #[cfg(unix)]
    socket_path: Option<PathBuf>,
}

impl Server {
    /// Loads (or initialises) the learned state and binds the listener.
    ///
    /// If `opts.checkpoint` exists it is loaded through the versioned
    /// migration chain and *its* configuration wins; the requested
    /// `config` is only the cold-start fallback. A checksum mismatch
    /// between the two is reported on stderr, not an error — restarting
    /// a daemon with new tunables must not orphan its learned state.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration, unreadable/corrupt checkpoints,
    /// or if the listener cannot bind.
    pub fn bind(config: MeghConfig, opts: &ServeOptions) -> Result<Self, ServeError> {
        Config::validate(&config).map_err(CheckpointError::InvalidConfig)?;
        let state = if opts.checkpoint.exists() {
            let cp = load_checkpoint(&opts.checkpoint)?;
            if Config::checksum(&cp.config) != Config::checksum(&config) {
                eprintln!(
                    "megh serve: checkpoint config (checksum {:016x}) differs from the \
                     requested one ({:016x}); resuming the checkpoint's",
                    Config::checksum(&cp.config),
                    Config::checksum(&config)
                );
            }
            cp
        } else {
            let space = ActionSpace::new(config.n_vms, config.n_hosts);
            MeghCheckpoint {
                lspi: SparseLspi::new(space.dim(), config.delta, config.gamma),
                temperature: config.temp0,
                steps: 0,
                config,
            }
        };

        let space = ActionSpace::new(state.config.n_vms, state.config.n_hosts);
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(Snapshot {
                lspi: state.lspi.clone(),
                steps: state.steps,
                temperature: state.temperature,
            })),
            epsilon: state.config.epsilon,
            space,
            queued: AtomicUsize::new(0),
            published: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });

        let writer_state = Writer {
            policy: BoltzmannPolicy::with_temperature(state.temperature, state.config.epsilon),
            config: state.config,
            lspi: state.lspi,
            steps: state.steps,
            rng: StdRng::seed_from_u64(opts.writer_seed),
            shared: Arc::clone(&shared),
            checkpoint_path: opts.checkpoint.clone(),
            checkpoint_every: opts.checkpoint_every,
            since_checkpoint: 0,
        };
        let (tx, rx) = mpsc::channel();
        let writer = thread::spawn(move || writer_state.run(rx));

        #[cfg(unix)]
        let mut socket_path = None;
        let listener = match &opts.listen {
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                ListenerKind::Tcp(l)
            }
            #[cfg(unix)]
            Listen::Unix(path) => {
                // A stale socket file from a killed daemon blocks the
                // bind; recovery must replace it.
                if path.exists() {
                    fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                socket_path = Some(path.clone());
                ListenerKind::Unix(l)
            }
        };

        Ok(Self {
            listener,
            shared,
            tx,
            writer,
            #[cfg(unix)]
            socket_path,
        })
    }

    /// The bound TCP address (`None` for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            ListenerKind::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            ListenerKind::Unix(_) => None,
        }
    }

    /// Serves until a client requests shutdown.
    ///
    /// The final checkpoint is written by the writer thread *before*
    /// the shutdown response goes out, so a client that saw `bye` can
    /// rely on the state being on disk.
    ///
    /// # Errors
    ///
    /// Fails if the accept loop hits a non-transient socket error.
    pub fn run(self) -> Result<(), ServeError> {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let accepted = match &self.listener {
                ListenerKind::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nonblocking(false);
                    // Request/response round trips suffer badly under
                    // Nagle + delayed ACK; this is a latency protocol.
                    let _ = s.set_nodelay(true);
                    Connection::Tcp(s)
                }),
                #[cfg(unix)]
                ListenerKind::Unix(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nonblocking(false);
                    Connection::Unix(s)
                }),
            };
            match accepted {
                Ok(conn) => {
                    let shared = Arc::clone(&self.shared);
                    let tx = self.tx.clone();
                    thread::spawn(move || conn.serve(&shared, &tx));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(e.into()),
            }
        }
        drop(self.tx);
        let _ = self.writer.join();
        #[cfg(unix)]
        if let Some(path) = &self.socket_path {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }
}

/// Binds and serves in one call — what `megh serve` runs.
///
/// # Errors
///
/// See [`Server::bind`] and [`Server::run`].
pub fn run(config: MeghConfig, opts: &ServeOptions) -> Result<(), ServeError> {
    Server::bind(config, opts)?.run()
}

enum Connection {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Connection {
    fn serve(self, shared: &Shared, tx: &Sender<WriterMsg>) {
        match self {
            Connection::Tcp(stream) => {
                if let Ok(read_half) = stream.try_clone() {
                    serve_lines(BufReader::new(read_half), stream, shared, tx);
                }
            }
            #[cfg(unix)]
            Connection::Unix(stream) => {
                if let Ok(read_half) = stream.try_clone() {
                    serve_lines(BufReader::new(read_half), stream, shared, tx);
                }
            }
        }
    }
}

fn serve_lines<R: BufRead, W: Write>(
    reader: R,
    mut out: W,
    shared: &Shared,
    tx: &Sender<WriterMsg>,
) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = respond(&line, shared, tx);
        let stop = matches!(response, Response::Bye);
        let json = serde_json::to_string(&response)
            .unwrap_or_else(|_| r#"{"ok":false,"error":"response serialization failed"}"#.into());
        if writeln!(out, "{json}").is_err() {
            break;
        }
        let _ = out.flush();
        if stop {
            break;
        }
    }
}

fn error(message: impl Into<String>) -> Response {
    Response::Error {
        message: message.into(),
    }
}

fn respond(line: &str, shared: &Shared, tx: &Sender<WriterMsg>) -> Response {
    let request: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => return error(e.to_string()),
    };
    match request {
        Request::Decide { seed } => {
            let snapshot = match shared.snapshot.read() {
                Ok(slot) => Arc::clone(&*slot),
                Err(poisoned) => Arc::clone(&*poisoned.into_inner()),
            };
            let policy = BoltzmannPolicy::with_temperature(snapshot.temperature, shared.epsilon);
            let mut rng = StdRng::seed_from_u64(seed);
            match policy.sample(&snapshot.lspi, &mut rng) {
                Some(action) => {
                    let decoded = shared.space.decode(action);
                    Response::Decision {
                        action,
                        vm: decoded.vm.0,
                        target: decoded.target.0,
                        steps: snapshot.steps,
                        temperature: snapshot.temperature,
                    }
                }
                None => error("empty action space"),
            }
        }
        Request::Observe { action, cost } => {
            if action >= shared.space.dim() {
                return error(format!(
                    "action {action} out of range (dim {})",
                    shared.space.dim()
                ));
            }
            if !cost.is_finite() {
                return error("cost must be finite");
            }
            let depth = shared.queued.fetch_add(1, Ordering::Relaxed) + 1;
            if tx.send(WriterMsg::Update { action, cost }).is_err() {
                shared.queued.fetch_sub(1, Ordering::Relaxed);
                return error("writer thread stopped");
            }
            Response::Queued { depth }
        }
        Request::Sync => {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(WriterMsg::Sync(ack_tx)).is_err() {
                return error("writer thread stopped");
            }
            match ack_rx.recv() {
                Ok(steps) => Response::Synced { steps },
                Err(_) => error("writer thread stopped"),
            }
        }
        Request::Checkpoint => {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(WriterMsg::Checkpoint(ack_tx)).is_err() {
                return error("writer thread stopped");
            }
            match ack_rx.recv() {
                Ok(Ok(steps)) => Response::Checkpointed { steps },
                Ok(Err(e)) => error(e.to_string()),
                Err(_) => error("writer thread stopped"),
            }
        }
        Request::Stats => {
            let snapshot = match shared.snapshot.read() {
                Ok(slot) => Arc::clone(&*slot),
                Err(poisoned) => Arc::clone(&*poisoned.into_inner()),
            };
            Response::Stats {
                steps: snapshot.steps,
                temperature: snapshot.temperature,
                nnz: snapshot.lspi.explicit_nnz(),
                queued: shared.queued.load(Ordering::Relaxed),
                published: shared.published.load(Ordering::Relaxed),
            }
        }
        Request::Shutdown => {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(WriterMsg::Shutdown(ack_tx)).is_ok() {
                // The final checkpoint lands before we acknowledge.
                let _ = ack_rx.recv();
            }
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::Bye
        }
    }
}
