//! The flat partial order against the layout it replaced: a naive builder —
//! one `Vec` per transaction for reads, writes and out-edges, a global edge
//! set, one `Vec` of parked readers per awaited value — written the obvious
//! way, and compared field by field with [`TxnPartialOrder`] on generated
//! histories of every plant kind: the reads and writes of every
//! transaction, the per-variable writer and write-read lists, the edge log
//! and every out-list in order, chain positions, hints and `has_edge`.
//!
//! The orders are grown three ways: session-major through
//! [`TxnPartialOrder::build`] (which parks every read of a later session's
//! write), in recording order through `extend`, and in a shuffled recording
//! order where some transactions arrive as detached stand-ins, so reads park
//! on writers that arrive later and resolve into readers already extended.
//! Broken recording contracts are planted too: both builders must fail the
//! same way and leave the same order behind.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use tm_audit::po::{TxnPartialOrder, EVICTED_SESSION, ROOT};
use tm_audit::{AuditHistory, AuditTxn, FirstAccess, HistoryError, TxnId};
use tm_history::{generate, GenConfig};

/// The partial order as it was laid out before the arenas.
struct Naive {
    initial: i64,
    names: Vec<Option<TxnId>>,
    reads: Vec<Vec<(u32, u32)>>,
    writes: Vec<Vec<u32>>,
    writers_by_var: Vec<Vec<u32>>,
    wr_by_var: Vec<Vec<(u32, u32)>>,
    hints: Vec<u64>,
    adj: Vec<Vec<u32>>,
    edges: HashSet<(u32, u32)>,
    edge_log: Vec<(u32, u32)>,
    writer_of: HashMap<(usize, i64), u32>,
    session_tail: HashMap<usize, (u32, u32)>,
    chain_pos: Vec<(u32, u32)>,
    n_chains: u32,
    pending: HashMap<(usize, i64), Vec<u32>>,
}

impl Naive {
    fn new(n_vars: usize, initial: i64) -> Self {
        Naive {
            initial,
            names: vec![None],
            reads: vec![Vec::new()],
            writes: vec![Vec::new()],
            writers_by_var: vec![vec![ROOT]; n_vars],
            wr_by_var: vec![Vec::new(); n_vars],
            hints: vec![0],
            adj: vec![Vec::new()],
            edges: HashSet::new(),
            edge_log: Vec::new(),
            writer_of: HashMap::new(),
            session_tail: HashMap::new(),
            chain_pos: vec![(0, 0)],
            n_chains: 0,
            pending: HashMap::new(),
        }
    }

    fn add_edge(&mut self, a: u32, b: u32) {
        if self.edges.insert((a, b)) {
            self.adj[a as usize].push(b);
            self.edge_log.push((a, b));
        }
    }

    fn wire_read(&mut self, reader: u32, var: usize, src: u32) {
        self.reads[reader as usize].push((var as u32, src));
        self.wr_by_var[var].push((src, reader));
        self.add_edge(src, reader);
    }

    fn extend(&mut self, id: TxnId, txn: &AuditTxn, chained: bool) -> Result<u32, HistoryError> {
        let dense = self.names.len() as u32;
        self.names.push(Some(id));
        self.reads.push(Vec::new());
        self.writes.push(Vec::new());
        self.adj.push(Vec::new());
        self.hints.push(txn.hint + 1);
        let tail = if chained { self.session_tail.get_mut(&id.session) } else { None };
        let (prev, chain) = match tail {
            Some(tail) => (std::mem::replace(&mut tail.0, dense), tail.1),
            None => {
                self.n_chains += 1;
                if chained {
                    self.session_tail.insert(id.session, (dense, self.n_chains - 1));
                }
                (ROOT, self.n_chains - 1)
            }
        };
        self.chain_pos.push((chain, self.chain_pos[prev as usize].1 + 1));
        self.add_edge(prev, dense);
        for &(var, value) in &txn.writes {
            if value == self.initial {
                return Err(HistoryError::InitialValueWritten { writer: id, var, value });
            }
            if let Some(&other) = self.writer_of.get(&(var, value)) {
                let first = self.names[other as usize].unwrap();
                return Err(HistoryError::AmbiguousWrite { var, value, first, second: id });
            }
            self.writer_of.insert((var, value), dense);
            self.writes[dense as usize].push(var as u32);
            self.writers_by_var[var].push(dense);
            for reader in self.pending.remove(&(var, value)).unwrap_or_default() {
                self.wire_read(reader, var, dense);
            }
        }
        let mut firsts = FirstAccess::default();
        for (i, &(var, value)) in txn.reads.iter().enumerate() {
            match firsts.earlier(&txn.reads, i) {
                None => {}
                Some(first) if first == value => continue,
                Some(first) => {
                    let reader = id;
                    return Err(HistoryError::NonRepeatableRead {
                        reader,
                        var,
                        first,
                        second: value,
                    });
                }
            }
            if value == self.initial {
                self.wire_read(dense, var, ROOT);
                continue;
            }
            match self.writer_of.get(&(var, value)) {
                Some(&src) if src == dense => {}
                Some(&src) => self.wire_read(dense, var, src),
                None => self.pending.entry((var, value)).or_default().push(dense),
            }
        }
        Ok(dense)
    }

    fn seal(&self) -> Result<(), HistoryError> {
        let defect = self
            .pending
            .iter()
            .flat_map(|(&(var, value), readers)| readers.iter().map(move |&r| (var, value, r)))
            .min();
        match defect {
            None => Ok(()),
            Some((var, value, reader)) => {
                let reader = self.names[reader as usize].unwrap();
                Err(HistoryError::ThinAirRead { reader, var, value })
            }
        }
    }

    fn pending_values(&self) -> Vec<(usize, i64)> {
        let mut values: Vec<(usize, i64)> = self.pending.keys().copied().collect();
        values.sort_unstable();
        values
    }
}

/// Every field the checkers read agrees, `at` naming the place; with
/// `all_pairs`, `has_edge` is asked of every pair, not only of the edges.
fn assert_same(po: &TxnPartialOrder, naive: &Naive, at: &str, all_pairs: bool) {
    let n = naive.names.len();
    assert_eq!(po.len(), n, "{at}: vertices");
    assert_eq!(po.base.len(), n, "{at}: base vertices");
    assert_eq!(po.hints, naive.hints, "{at}: hints");
    assert_eq!(po.writers_by_var, naive.writers_by_var, "{at}: writers_by_var");
    assert_eq!(po.wr_by_var, naive.wr_by_var, "{at}: wr_by_var");
    assert_eq!(po.edge_log(), &naive.edge_log[..], "{at}: edge log");
    assert_eq!(po.base.edge_count(), naive.edges.len(), "{at}: edge count");
    assert_eq!(po.chains(), naive.n_chains as usize, "{at}: chains");
    for t in 0..n as u32 {
        let v = t as usize;
        assert_eq!(po.reads(t), &naive.reads[v][..], "{at}: reads of {t}");
        assert_eq!(po.writes(t), &naive.writes[v][..], "{at}: writes of {t}");
        assert_eq!(po.base.neighbors(t).collect::<Vec<_>>(), naive.adj[v], "{at}: out of {t}");
        assert_eq!(po.chain_pos(t), naive.chain_pos[v], "{at}: chain position of {t}");
    }
    for &(a, b) in &naive.edge_log {
        assert!(po.has_edge(a, b), "{at}: {a} → {b} is an edge");
    }
    if all_pairs {
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                assert_eq!(po.has_edge(a, b), naive.edges.contains(&(a, b)), "{at}: {a} → {b}");
            }
        }
    }
}

/// A generated history with the given plant kind (0 = none) switched on.
fn generated(seed: u64, plant: usize) -> AuditHistory {
    let mut rng = StdRng::seed_from_u64(seed);
    let rate = rng.gen_range(20..120);
    let mut config = GenConfig {
        sessions: rng.gen_range(2..=5),
        vars: rng.gen_range(2..=10),
        txns_per_session: rng.gen_range(5..=40),
        events_per_txn: rng.gen_range(1..=5),
        seed,
        ..GenConfig::default()
    };
    match plant {
        1 => config.lost_update_per_mille = rate,
        2 => config.write_skew_per_mille = rate,
        3 => config.causal_cycle_per_mille = rate,
        4 => config.long_fork_per_mille = rate,
        _ => {}
    }
    generate(&config).history
}

/// The history's transactions as `(id, txn)` in session-major order.
fn session_major(h: &AuditHistory) -> Vec<(TxnId, AuditTxn)> {
    let mut txns = Vec::new();
    for (session, txns_of) in h.sessions.iter().enumerate() {
        for (seq, txn) in txns_of.iter().enumerate() {
            txns.push((TxnId { session, seq }, txn.clone()));
        }
    }
    txns
}

#[test]
fn build_lays_out_what_the_naive_builder_does() {
    for seed in 0..60u64 {
        for plant in 0..5 {
            let h = generated(seed, plant);
            let mut naive = Naive::new(h.n_vars, h.initial);
            for (id, txn) in session_major(&h) {
                naive.extend(id, &txn, true).unwrap();
            }
            naive.seal().unwrap();
            let po = TxnPartialOrder::build(&h).unwrap();
            assert_same(&po, &naive, &format!("seed {seed}, plant {plant}, build"), true);
        }
    }
}

#[test]
fn extension_lays_out_what_the_naive_builder_does() {
    let (mut resolved_late, mut detached, mut defects) = (0, 0, 0);
    for seed in 0..60u64 {
        for plant in 0..5 {
            let h = generated(seed, plant);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
            let mut stream = session_major(&h);
            stream.sort_by_key(|(id, txn)| (txn.hint, id.session));
            // Half the runs shuffle the recording order locally, so readers
            // arrive before their writers.
            if plant % 2 == 1 {
                for i in 1..stream.len() {
                    if rng.gen_bool(0.3) {
                        stream.swap(i - 1, i);
                    }
                }
            }
            let mut po = TxnPartialOrder::new(h.n_vars, h.initial);
            let mut naive = Naive::new(h.n_vars, h.initial);
            for (step, (id, mut txn)) in stream.into_iter().enumerate() {
                let at = format!("seed {seed}, plant {plant}, step {step}");
                // Now and then the recording contract breaks.
                if rng.gen_bool(0.01) {
                    match rng.gen_range(0..3) {
                        0 => txn.writes.push((0, h.initial)),
                        1 => txn.reads = [(0, h.initial), (0, -7)].into(),
                        _ => txn.writes.push((1 % h.n_vars, 1)),
                    }
                }
                let (ours, theirs) = match rng.gen_range(0..10) {
                    0 => {
                        detached += 1;
                        let id = TxnId { session: h.sessions.len(), seq: step };
                        (po.extend_detached(id, &txn), naive.extend(id, &txn, false))
                    }
                    1 => {
                        detached += 1;
                        let id = TxnId { session: EVICTED_SESSION, seq: step };
                        (po.extend_detached(id, &txn), naive.extend(id, &txn, false))
                    }
                    _ => (po.extend(id, &txn), naive.extend(id, &txn, true)),
                };
                assert_eq!(ours, theirs, "{at}");
                assert_eq!(po.pending_values(), naive.pending_values(), "{at}");
                assert_same(&po, &naive, &at, ours.is_err());
                if ours.is_err() {
                    defects += 1;
                    break;
                }
            }
            assert_eq!(po.seal(), naive.seal(), "seed {seed}, plant {plant}: seal");
            assert_same(&po, &naive, &format!("seed {seed}, plant {plant}, grown"), true);
            // Reads wired into a reader extended before its writer.
            resolved_late += naive.wr_by_var.iter().flatten().filter(|(src, r)| src > r).count();
        }
    }
    // About half of what these seeds reach.
    assert!(
        resolved_late >= 300 && detached >= 1_500 && defects >= 60,
        "{resolved_late} reads resolved late, {detached} detached, {defects} defects"
    );
}
