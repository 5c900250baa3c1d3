//! The backend registry: the P/C/L design space as one fixed table.
//!
//! The PCL theorem sorts every TM design by the property it gives up —
//! Parallelism, Consistency or Liveness — so the runtime describes its
//! backends as *data*, not a closed enum.  A [`BackendSpec`] names a
//! backend, declares where it sits on the P/C/L triangle and how to
//! construct it; [`all`] is the static table of the six built-in specs,
//! sorted by canonical name, that [`crate::Stm::new`], the CLI, the
//! benchmarks and the examples all resolve through.  The table is the same
//! in every process, from the first instruction on: there is nothing to
//! register and no start-up call to make.
//!
//! Names parse and print through one place: [`BackendId`] implements
//! [`std::str::FromStr`] (accepting canonical names and aliases) and
//! [`std::fmt::Display`], so no caller ever stringly-matches backend names
//! again.

use crate::backend::Backend;
use std::fmt;
use std::sync::Arc;

/// One corner of the P/C/L triangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Strict disjoint-access-parallelism.
    Parallelism,
    /// (Weak adaptive) consistency.
    Consistency,
    /// Non-blocking liveness.
    Liveness,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Axis::Parallelism => "parallelism",
            Axis::Consistency => "consistency",
            Axis::Liveness => "liveness",
        })
    }
}

/// Where a backend sits on the P/C/L triangle: which axis it sacrifices and a
/// one-line description of what it provides on each.
#[derive(Debug, Clone, Copy)]
pub struct Triangle {
    /// The axis the backend gives up (the PCL theorem says there is one).
    pub sacrificed: Axis,
    /// What it offers on the parallelism axis.
    pub parallelism: &'static str,
    /// What it offers on the consistency axis.
    pub consistency: &'static str,
    /// What it offers on the liveness axis.
    pub liveness: &'static str,
}

/// Everything the runtime needs to know about a backend.
pub struct BackendSpec {
    /// Canonical name (what [`BackendId`] displays and [`std::str::FromStr`] prefers).
    pub name: &'static str,
    /// Accepted short names for parsing (e.g. `"tl2"` for `"tl2-blocking"`).
    pub aliases: &'static [&'static str],
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
    /// Declared P/C/L position.
    pub triangle: Triangle,
    /// How to build a fresh instance.
    pub constructor: fn() -> Arc<dyn Backend>,
}

impl BackendSpec {
    fn answers_to(&self, name: &str) -> bool {
        self.name == name || self.aliases.contains(&name)
    }
}

impl fmt::Debug for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendSpec")
            .field("name", &self.name)
            .field("aliases", &self.aliases)
            .field("triangle", &self.triangle)
            .finish()
    }
}

/// A cheap, copyable handle to one row of the table (its index, so ids
/// order like their names).
///
/// Obtained from [`str::parse`], [`all_ids`] or the constants
/// ([`GLOBAL_LOCK`], [`MVCC`], [`OBSTRUCTION_FREE`], [`PRAM_LOCAL`],
/// [`SHARD_LOCK`], [`TL2_BLOCKING`]) — every route yields a row of the table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendId(usize);

impl BackendId {
    /// The canonical backend name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The full spec this id resolves to.
    pub fn spec(self) -> &'static BackendSpec {
        &BACKENDS[self.0]
    }
}

impl fmt::Debug for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("BackendId").field(&self.name()).finish()
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The coarse-global-lock backend ("give up Parallelism" entirely: one lock
/// for every transaction).
pub const GLOBAL_LOCK: BackendId = BackendId(0);
/// The multi-version snapshot-isolation backend ("give up serializability":
/// admits write skew, never an SI anomaly).
pub const MVCC: BackendId = BackendId(1);
/// The backend named obstruction-free ("give up Liveness"): it never waits,
/// it aborts — and a solo transaction that reads a cell a parked committer
/// locked aborts on every retry, so it is not obstruction-free in the
/// paper's sense.
pub const OBSTRUCTION_FREE: BackendId = BackendId(2);
/// The thread-local-replica backend ("give up Consistency").
pub const PRAM_LOCAL: BackendId = BackendId(3);
/// The sharded backend (gives up *full* disjoint-access-parallelism: one
/// versioned lock per hash band, between `global-lock` and TL2).
pub const SHARD_LOCK: BackendId = BackendId(4);
/// The blocking TL2-style backend ("give up Liveness").
pub const TL2_BLOCKING: BackendId = BackendId(5);

/// Parsing failed: the name matches no backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    /// What the caller asked for.
    pub requested: String,
    /// Every name the registry would have accepted (canonical names only).
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown backend {:?} (registered: {})", self.requested, self.known.join(", "))
    }
}

impl std::error::Error for UnknownBackend {}

impl std::str::FromStr for BackendId {
    type Err = UnknownBackend;

    fn from_str(s: &str) -> Result<BackendId, UnknownBackend> {
        BACKENDS.iter().position(|spec| spec.answers_to(s)).map(BackendId).ok_or_else(|| {
            UnknownBackend {
                requested: s.to_string(),
                known: BACKENDS.iter().map(|spec| spec.name).collect(),
            }
        })
    }
}

/// The table, sorted by canonical name; row `i` is `BackendId(i)`.
static BACKENDS: [BackendSpec; 6] = [
    BackendSpec {
        name: "global-lock",
        aliases: &["glock", "global"],
        summary: "one process-wide lock serializes every transaction; \
                  trivially consistent, zero disjoint-access-parallelism",
        triangle: Triangle {
            sacrificed: Axis::Parallelism,
            parallelism: "none — disjoint transactions still contend on the one lock",
            consistency: "serializable (fully serial execution)",
            liveness: "blocking on the global lock (bounded spin, then abort)",
        },
        constructor: || Arc::new(crate::glock::GlobalLockBackend::new()),
    },
    BackendSpec {
        name: "mvcc",
        aliases: &["si", "snapshot", "multiversion"],
        summary: "multi-version snapshot isolation: begin-timestamp snapshots, \
                  first-committer-wins commits, GC'd version chains",
        triangle: Triangle {
            sacrificed: Axis::Consistency,
            parallelism: "per-var version chains, but every update commit draws \
                          one global clock (not strict DAP)",
            consistency: "snapshot isolation — admits write skew, never an SI anomaly",
            liveness: "reads never abort but wait out a committer holding their \
                       chain; first committer wins",
        },
        constructor: || Arc::new(crate::mvcc::MvccBackend::new()),
    },
    BackendSpec {
        name: "obstruction-free",
        aliases: &["ofree", "of", "obstruction"],
        summary: "same versioned-lock layout as tl2-blocking, but aborts instead \
                  of ever waiting",
        triangle: Triangle {
            sacrificed: Axis::Liveness,
            parallelism: "per-var metadata only (strict DAP)",
            consistency: "serializable",
            liveness: "aborts instead of waiting; not obstruction-free (a solo reader \
                       of a cell a parked committer locked aborts on every retry)",
        },
        constructor: || Arc::new(crate::ofree::OFreeBackend::new()),
    },
    BackendSpec {
        name: "pram-local",
        aliases: &["pram", "pramlocal", "local"],
        summary: "thread-local replicas, no shared memory at all",
        triangle: Triangle {
            sacrificed: Axis::Consistency,
            parallelism: "no shared memory (vacuously strict DAP)",
            consistency: "PRAM only — cross-thread writes are never observed",
            liveness: "wait-free",
        },
        constructor: || Arc::new(crate::pramlocal::PramLocalBackend::new()),
    },
    BackendSpec {
        name: "shard-lock",
        aliases: &["shardlock", "sharded", "slock"],
        summary: "one versioned lock per hash band (16 bands): commit locks the \
                  written bands in order and validates the read ones",
        triangle: Triangle {
            sacrificed: Axis::Parallelism,
            parallelism: "shard-band metadata: disjoint vars in one band still conflict",
            consistency: "serializable (commit-time band validation under the write locks)",
            liveness: "blocking on band locks (bounded spin, then abort)",
        },
        constructor: || Arc::new(crate::shardlock::ShardLockBackend::new()),
    },
    BackendSpec {
        name: "tl2-blocking",
        aliases: &["tl2", "tl2blocking"],
        summary: "TL2-style commit-time validation with eager write locks; \
                  spins on busy locks",
        triangle: Triangle {
            sacrificed: Axis::Liveness,
            parallelism: "per-var metadata only (strict DAP)",
            consistency: "serializable",
            liveness: "blocking (bounded spin, then abort)",
        },
        constructor: || Arc::new(crate::tl2::Tl2Backend::new()),
    },
];

/// The spec named `name` (canonical name or alias), if any.
pub fn lookup(name: &str) -> Option<&'static BackendSpec> {
    BACKENDS.iter().find(|spec| spec.answers_to(name))
}

/// Every backend, **sorted by canonical name** so listings, CI matrices and
/// docs are deterministic.
pub fn all() -> &'static [BackendSpec] {
    &BACKENDS
}

/// The ids of every backend, sorted by name (same order as [`all`]).
pub fn all_ids() -> Vec<BackendId> {
    (0..BACKENDS.len()).map(BackendId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn every_row_parses_by_name_and_alias() {
        for (id, name, alias) in [
            (GLOBAL_LOCK, "global-lock", "glock"),
            (MVCC, "mvcc", "si"),
            (OBSTRUCTION_FREE, "obstruction-free", "ofree"),
            (PRAM_LOCAL, "pram-local", "pram"),
            (SHARD_LOCK, "shard-lock", "shardlock"),
            (TL2_BLOCKING, "tl2-blocking", "tl2"),
        ] {
            assert_eq!(id.name(), name);
            assert_eq!(BackendId::from_str(name).unwrap(), id);
            assert_eq!(BackendId::from_str(alias).unwrap(), id);
            assert_eq!(lookup(alias).map(|spec| spec.name), Some(name));
            assert_eq!(id.to_string(), name);
            assert_eq!(format!("{id:?}"), format!("BackendId({name:?})"));
        }
        assert_eq!(all_ids().len(), 6);
        assert!(lookup("does-not-exist").is_none());
    }

    #[test]
    fn the_table_is_sorted_by_name_and_names_are_unique() {
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        let ids = all_ids();
        assert!(ids.windows(2).all(|w| w[0] < w[1] && w[0].name() < w[1].name()));
        let mut spellings: Vec<&str> = all()
            .iter()
            .flat_map(|s| std::iter::once(s.name).chain(s.aliases.iter().copied()))
            .collect();
        let total = spellings.len();
        spellings.sort_unstable();
        spellings.dedup();
        assert_eq!(spellings.len(), total, "a name or alias names two backends");
        assert_eq!(GLOBAL_LOCK.spec().triangle.sacrificed, Axis::Parallelism);
        assert_eq!(MVCC.spec().triangle.sacrificed, Axis::Consistency);
        assert_eq!(SHARD_LOCK.spec().triangle.sacrificed, Axis::Parallelism);
    }

    #[test]
    fn unknown_names_error_with_the_known_list() {
        let err = BackendId::from_str("does-not-exist").unwrap_err();
        assert_eq!(err.requested, "does-not-exist");
        assert_eq!(err.known, all().iter().map(|s| s.name).collect::<Vec<_>>());
        let msg = err.to_string();
        assert!(msg.contains("unknown backend"), "{msg}");
        assert!(msg.contains("tl2-blocking"), "{msg}");
    }
}
