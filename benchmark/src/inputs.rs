//! Generated inputs.  Everything the system under test sees comes from here,
//! and the same seed gives byte-identical inputs: each is hashed, and the
//! hash is printed in the header.

use tm_audit::{AuditHistory, AuditTxn};
use tm_history::{generate, GenConfig};

/// Sessions, variables and events per transaction of every generated history
/// (and variables of the `registers` scenario in the commit workloads).
pub const SESSIONS: usize = 4;
pub const VARS: usize = 64;
pub const EVENTS: usize = 3;

/// The generator shape shared by every audit workload: `txns` transactions
/// (a multiple of [`SESSIONS`]) over [`SESSIONS`] sessions, serializable by
/// construction except for write-skew plants at `write_skew_per_mille`.
pub fn gen_config(seed: u64, txns: usize, write_skew_per_mille: u32) -> GenConfig {
    GenConfig {
        sessions: SESSIONS,
        vars: VARS,
        txns_per_session: txns / SESSIONS,
        events_per_txn: EVENTS,
        seed,
        write_skew_per_mille,
        ..GenConfig::default()
    }
}

/// A healthy history of `txns` transactions: the recording order is a
/// witness for every level.
pub fn healthy(seed: u64, txns: usize) -> AuditHistory {
    generate(&gen_config(seed, txns, 0)).history
}

/// The history as the stream a recorder would deliver: `(session, txn)` in
/// recording (hint) order.
pub fn hint_order(history: AuditHistory) -> Vec<(usize, AuditTxn)> {
    let mut stream: Vec<(usize, AuditTxn)> = history
        .sessions
        .into_iter()
        .enumerate()
        .flat_map(|(s, txns)| txns.into_iter().map(move |txn| (s, txn)))
        .collect();
    stream.sort_by_key(|(s, txn)| (txn.hint, *s));
    stream
}

/// FNV-1a over 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of everything an auditor can observe of a history.
pub fn hash_history(history: &AuditHistory) -> u64 {
    let mut h = Fnv::new();
    h.word(history.n_vars as u64);
    h.word(history.initial as u64);
    for session in &history.sessions {
        h.word(session.len() as u64);
        for txn in session {
            h.word(txn.hint);
            h.word(txn.footprint);
            for set in [&txn.reads, &txn.writes] {
                h.word(set.len() as u64);
                for &(var, value) in set {
                    h.word(var as u64);
                    h.word(value as u64);
                }
            }
        }
    }
    h.finish()
}

pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        let (a, b) = (healthy(7, 2_000), healthy(7, 2_000));
        assert_eq!(a, b);
        assert_eq!(hash_history(&a), hash_history(&b));
        assert_ne!(hash_history(&a), hash_history(&healthy(8, 2_000)));
        assert_eq!(a.txn_count(), 2_000);
        let wire = tm_history::generate_wire(&gen_config(7, 2_000, 2)).0;
        assert_eq!(
            hash_bytes(wire.as_bytes()),
            hash_bytes(tm_history::encode(&generate(&gen_config(7, 2_000, 2)).history).as_bytes())
        );
    }

    #[test]
    fn hint_order_is_the_recording_order() {
        let history = healthy(3, 400);
        let stream = hint_order(history.clone());
        assert_eq!(stream.len(), 400);
        assert!(stream.windows(2).all(|w| w[0].1.hint < w[1].1.hint));
        // Per-session subsequences are the sessions, in order.
        for (s, session) in history.sessions.iter().enumerate() {
            let seen: Vec<&AuditTxn> =
                stream.iter().filter(|(ss, _)| *ss == s).map(|(_, t)| t).collect();
            assert!(seen.into_iter().eq(session.iter()));
        }
    }
}
