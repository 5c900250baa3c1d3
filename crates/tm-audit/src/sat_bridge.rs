//! The bridge from the auditor's saturated partial order to `tm-sat`'s
//! neutral [`OrderInstance`] — the escalation path's translation layer.
//!
//! Dense auditor indices include the initial transaction at [`ROOT`] and
//! follow the order transactions were *added* (session by session for a batch
//! audit); the solver instance excludes the initial transaction and numbers
//! the rest in **recording order** (by hint), because the order the solver
//! tries first is the lowest-index-first extension of what is known — on a
//! near-serial history that is already a witness.  Reads of the initial
//! value carry `None` as their writer.  Two edge families seed the solver's
//! known order:
//!
//! * **visibility edges** — the base `so ∪ wr` order: `a`'s effects are
//!   visible to `b` (`W(a) < R(b)` in the split encodings), sound because a
//!   session successor or a reader always snapshots after the source commits;
//! * **commit edges** — the saturation engine's *derived* edges (ww
//!   inferences and transitive closures beyond the base): sound as
//!   `W(a) < W(b)` at every level the solver decides, because saturation
//!   only derives orderings every prefix-consistent commit order must obey.
//!
//! This is what makes the solver stage "start where polynomial reasoning
//! stopped": it never re-discovers an edge saturation already proved, and
//! every clause those edges settle never reaches the CDCL core.

use crate::po::{TxnPartialOrder, ROOT};
use crate::saturation::Saturated;
use tm_sat::OrderInstance;

/// Build the per-window solver instance for `po` under the saturated causal
/// order `sat`, and the dense auditor index of each instance transaction.
pub(crate) fn build_instance(po: &TxnPartialOrder, sat: &Saturated) -> (OrderInstance, Vec<u32>) {
    let n = po.len();
    let mut dense: Vec<u32> = (0..n as u32).filter(|&t| t != ROOT).collect();
    dense.sort_by_key(|&t| po.hints[t as usize]);
    let mut map = vec![u32::MAX; n];
    for (i, &t) in dense.iter().enumerate() {
        map[t as usize] = i as u32;
    }
    let map = |t: u32| map[t as usize];
    let reads = dense
        .iter()
        .map(|&t| {
            let read = |&(var, src): &(u32, u32)| (var, (src != ROOT).then(|| map(src)));
            po.reads(t).iter().map(read).collect()
        })
        .collect();
    let writes = dense.iter().map(|&t| po.writes(t).to_vec()).collect();
    let mut visibility_edges = Vec::new();
    let mut commit_edges = Vec::new();
    for a in 0..n as u32 {
        for b in po.base.neighbors(a) {
            if a != ROOT && b != ROOT {
                visibility_edges.push((map(a), map(b)));
            }
        }
    }
    for a in 0..n as u32 {
        for &b in sat.graph.neighbors(a) {
            if a != ROOT && b != ROOT && !po.has_edge(a, b) {
                commit_edges.push((map(a), map(b)));
            }
        }
    }
    let inst = OrderInstance {
        n: dense.len(),
        reads,
        writes,
        visibility_edges,
        commit_edges,
        n_vars: po.n_vars(),
    };
    (inst, dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::AuditHistory;
    use crate::saturation::check_causal;

    #[test]
    fn instance_excludes_root_and_maps_reads() {
        let mut h = AuditHistory::new(1, 0, 2);
        h.push_txn(1, [(0, 0)], [(0, 1)]); // reads initial, writes
        h.push_txn(0, [(0, 1)], [(0, 2)]); // reads the first txn's write
        let po = TxnPartialOrder::build(&h).unwrap();
        let sat = check_causal(&po).unwrap();
        let (inst, dense) = build_instance(&po, &sat);
        assert_eq!(dense, vec![2, 1], "recording order, not the session-major dense order");
        assert_eq!(inst.n, 2);
        assert_eq!(inst.reads[0], vec![(0, None)], "initial-value read maps to None");
        assert_eq!(inst.reads[1], vec![(0, Some(0))], "wr read maps to the writer's instance id");
        assert!(
            inst.visibility_edges.contains(&(0, 1)),
            "the wr edge is a visibility edge: {:?}",
            inst.visibility_edges
        );
        // The solver agrees with the auditor on this trivially serializable
        // history.
        let v =
            tm_sat::decide(&inst, tm_sat::LevelSpec::Serializable, &tm_sat::SolveConfig::default());
        assert!(matches!(v, tm_sat::OrderVerdict::Order { .. }), "{v:?}");
    }
}
