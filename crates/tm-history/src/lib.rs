//! # tm-history — serialized histories: wire format, adversarial generation, differential fuzzing
//!
//! The auditor (`tm-audit`) proves consistency levels of histories it
//! captured from its own in-process runtime.  This crate makes histories a
//! first-class *artifact*, following the dbcop line of work (Biswas & Enea,
//! *"On the Complexity of Checking Transactional Consistency"*): once a run
//! can be serialized, shipped, re-ingested and generated adversarially, the
//! checker turns into a general consistency-auditing tool.
//!
//! * [`wire`] — a versioned, line-delimited JSON wire format for
//!   [`tm_audit::AuditHistory`] with a dependency-free encoder and a
//!   hardened streaming decoder that rejects malformed input with
//!   positioned (`line`, `col`) errors and never panics.  Round trips are
//!   lossless on captured histories: `decode(encode(h)) == h`, hints and
//!   all, so replaying a decoded history through any audit topology
//!   reproduces the live verdicts byte-for-byte.
//! * [`mod@generate`] — a parameterized adversarial history generator:
//!   `sessions × vars × txns × events`, seeded and deterministic, with
//!   anomaly-injection knobs that plant lost-update / write-skew /
//!   causal-cycle patterns at chosen per-mille rates.  Planted anomalies
//!   come with computable expected verdicts ([`generate::Planted`]), so
//!   generated histories double as checker oracles.
//! * [`mod@minimize`] — delta-debugging reduction of a failing history to a
//!   small reproducer that still trips the caller's predicate, keeping the
//!   history well-formed (no reads of removed writes) so every reproducer
//!   re-encodes as a valid wire document.
//!
//! The `fuzz` binary composes the three into the differential fuzz lane:
//! generated histories run through the batch checkers (saturation + DFS)
//! and the windowed/sharded streaming pipelines, any disagreement fails the
//! gate, and minimized reproducers are written as wire-format artifacts
//! (`scripts/fuzz_gate.sh` wraps it for CI and local runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod minimize;
pub mod wire;

pub use generate::{generate, generate_wire, GenConfig, Generated, Planted};
pub use minimize::minimize;
pub use wire::{decode, encode, Decoder, WireError, WIRE_VERSION};
