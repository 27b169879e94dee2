//! `megh serve` — a crash-safe, long-running decision daemon.
//!
//! The paper's deployment story is a controller that runs for months:
//! it decides migrations continuously, learns from every observed cost,
//! and must survive restarts without forgetting. This crate packages
//! the Megh agent as exactly that daemon:
//!
//! - **Read path** — concurrent `decide` requests read `θ` from an
//!   immutable snapshot of the learned state behind an `Arc`, with
//!   per-request seeded RNGs so every decision is reproducible against
//!   its snapshot.
//! - **Write path** — a single writer thread drains a batched queue of
//!   `observe` updates, applies the Sherman–Morrison learning steps,
//!   and publishes a fresh snapshot (a plain clone) per batch.
//! - **Persistence** — versioned, checksummed checkpoints
//!   ([`megh_core::save_checkpoint`]) written atomically, loaded
//!   through a migration chain, so a daemon killed at any instant
//!   restarts from its last checkpoint and serves byte-identical
//!   decisions for the state it recovered.
//!
//! The wire protocol is line-delimited JSON over TCP or a Unix socket —
//! see [`wire`].

#![forbid(unsafe_code)]

mod client;
mod daemon;
pub mod wire;

pub use client::Client;
pub use daemon::{run, Listen, ServeError, ServeOptions, Server};
pub use wire::{Request, Response};
