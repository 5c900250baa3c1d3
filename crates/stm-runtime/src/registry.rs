//! The open backend registry: backends are *data*, not a closed enum.
//!
//! The PCL theorem is about the space of TM designs — every implementation
//! gives up one of Parallelism, Consistency or Liveness — so the runtime must
//! not hard-code three corners.  A [`BackendSpec`] names a backend, declares
//! where it sits on the P/C/L triangle and how to construct it; [`register`]
//! adds it to a process-wide registry that [`crate::Stm::new`], the CLI, the
//! benchmarks and the examples all resolve through.  The three built-in
//! backends are pre-registered; anything else (see `workloads::glock` for a
//! coarse-global-lock "give up P" backend registered from another crate
//! entirely) joins through the same public API.
//!
//! Names parse and print through one place: [`BackendId`] implements
//! [`std::str::FromStr`] (accepting canonical names and aliases) and
//! [`std::fmt::Display`], so no caller ever stringly-matches backend names
//! again.

use crate::backend::Backend;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

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
#[derive(Clone)]
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

impl fmt::Debug for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendSpec")
            .field("name", &self.name)
            .field("aliases", &self.aliases)
            .field("triangle", &self.triangle)
            .finish()
    }
}

/// A cheap, copyable handle to a registered backend (its canonical name).
///
/// Obtained from [`register`], [`str::parse`] or the built-in constants
/// ([`TL2_BLOCKING`], [`OBSTRUCTION_FREE`], [`PRAM_LOCAL`], [`MVCC`],
/// [`SHARD_LOCK`]) — every route guarantees the registry can resolve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendId(&'static str);

impl BackendId {
    /// The canonical backend name.
    pub fn name(self) -> &'static str {
        self.0
    }

    /// The full spec this id resolves to.
    pub fn spec(self) -> BackendSpec {
        lookup(self.0).unwrap_or_else(|| {
            panic!("backend {:?} disappeared from the registry (ids only come from it)", self.0)
        })
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// The built-in blocking TL2-style backend ("give up Liveness").
pub const TL2_BLOCKING: BackendId = BackendId("tl2-blocking");
/// The built-in obstruction-free backend (gives up *strict* liveness
/// guarantees under contention while never blocking).
pub const OBSTRUCTION_FREE: BackendId = BackendId("obstruction-free");
/// The built-in thread-local-replica backend ("give up Consistency").
pub const PRAM_LOCAL: BackendId = BackendId("pram-local");
/// The built-in multi-version snapshot-isolation backend ("give up
/// serializability": admits write skew, never an SI anomaly).
pub const MVCC: BackendId = BackendId("mvcc");
/// The built-in sharded reader-writer-lock backend (gives up *full*
/// disjoint-access-parallelism: per-band metadata between `global-lock` and
/// TL2).
pub const SHARD_LOCK: BackendId = BackendId("shard-lock");

/// Parsing failed: the name matches no registered backend.
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
        with_registry(|specs| {
            specs
                .iter()
                .find(|spec| spec.name == s || spec.aliases.contains(&s))
                .map(|spec| BackendId(spec.name))
                .ok_or_else(|| UnknownBackend {
                    requested: s.to_string(),
                    known: specs.iter().map(|spec| spec.name).collect(),
                })
        })
    }
}

/// Registering failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Another backend already claimed this name or one of these aliases.
    NameTaken {
        /// The contested name.
        name: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::NameTaken { name } => {
                write!(f, "backend name {name:?} is already registered to a different backend")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

fn builtin_specs() -> Vec<BackendSpec> {
    vec![
        BackendSpec {
            name: TL2_BLOCKING.0,
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
        BackendSpec {
            name: OBSTRUCTION_FREE.0,
            aliases: &["ofree", "of", "obstruction"],
            summary: "same versioned-lock layout as tl2-blocking, but aborts instead \
                      of ever waiting",
            triangle: Triangle {
                sacrificed: Axis::Liveness,
                parallelism: "per-var metadata only (strict DAP)",
                consistency: "serializable",
                liveness: "obstruction-free (aborts under contention)",
            },
            constructor: || Arc::new(crate::ofree::OFreeBackend::new()),
        },
        BackendSpec {
            name: PRAM_LOCAL.0,
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
            name: MVCC.0,
            aliases: &["si", "snapshot", "multiversion"],
            summary: "multi-version snapshot isolation: begin-timestamp snapshots, \
                      first-committer-wins commits, GC'd version chains",
            triangle: Triangle {
                sacrificed: Axis::Consistency,
                parallelism: "per-var version chains (strict DAP); commit locks written vars only",
                consistency: "snapshot isolation — admits write skew, never an SI anomaly",
                liveness: "reads never block or abort; commits lock briefly, first committer wins",
            },
            constructor: || Arc::new(crate::mvcc::MvccBackend::new()),
        },
        BackendSpec {
            name: SHARD_LOCK.0,
            aliases: &["shardlock", "sharded", "slock"],
            summary: "per-shard reader-writer locks (16 hash bands) with sorted \
                      two-phase commit acquisition",
            triangle: Triangle {
                sacrificed: Axis::Parallelism,
                parallelism: "shard-band metadata: disjoint vars in one band still conflict",
                consistency: "serializable (commit-time shard validation under 2PL)",
                liveness: "blocking on shard locks (bounded spin, then abort)",
            },
            constructor: || Arc::new(crate::shardlock::ShardLockBackend::new()),
        },
    ]
}

fn with_registry<R>(f: impl FnOnce(&mut Vec<BackendSpec>) -> R) -> R {
    static REGISTRY: OnceLock<Mutex<Vec<BackendSpec>>> = OnceLock::new();
    let mut guard = REGISTRY
        .get_or_init(|| Mutex::new(builtin_specs()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    f(&mut guard)
}

/// Register a backend.  Idempotent: re-registering under the same canonical
/// name with the same constructor returns its id and **updates** the stored
/// aliases/summary/triangle (so a spec revision takes effect); claiming a
/// name or alias already owned by a *different* backend is an error.
pub fn register(spec: BackendSpec) -> Result<BackendId, RegistryError> {
    with_registry(|specs| {
        let same_backend = |existing: &BackendSpec| {
            existing.name == spec.name
                && std::ptr::fn_addr_eq(existing.constructor, spec.constructor)
        };
        let mut names = std::iter::once(spec.name).chain(spec.aliases.iter().copied());
        if let Some(taken) = names.find(|candidate| {
            specs.iter().any(|existing| {
                (existing.name == *candidate || existing.aliases.contains(candidate))
                    && !same_backend(existing)
            })
        }) {
            return Err(RegistryError::NameTaken { name: taken.to_string() });
        }
        match specs.iter_mut().find(|existing| existing.name == spec.name) {
            // Same backend re-registered: adopt the (possibly revised) spec.
            Some(existing) => *existing = spec.clone(),
            None => specs.push(spec.clone()),
        }
        Ok(BackendId(spec.name))
    })
}

/// The spec registered under `name` (canonical name or alias), if any.
pub fn lookup(name: &str) -> Option<BackendSpec> {
    with_registry(|specs| {
        specs.iter().find(|spec| spec.name == name || spec.aliases.contains(&name)).cloned()
    })
}

/// A snapshot of every registered backend, **sorted by canonical name** so
/// listings, CI matrices and docs are deterministic regardless of
/// registration timing.
pub fn all() -> Vec<BackendSpec> {
    with_registry(|specs| {
        let mut specs = specs.clone();
        specs.sort_by_key(|spec| spec.name);
        specs
    })
}

/// The canonical ids of every registered backend, sorted by name (same
/// determinism contract as [`all`]).
pub fn all_ids() -> Vec<BackendId> {
    with_registry(|specs| {
        let mut ids: Vec<BackendId> = specs.iter().map(|spec| BackendId(spec.name)).collect();
        ids.sort();
        ids
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn builtins_are_registered_and_parse_by_name_and_alias() {
        for (id, alias) in [
            (TL2_BLOCKING, "tl2"),
            (OBSTRUCTION_FREE, "ofree"),
            (PRAM_LOCAL, "pram"),
            (MVCC, "si"),
            (SHARD_LOCK, "shardlock"),
        ] {
            assert_eq!(BackendId::from_str(id.name()).unwrap(), id);
            assert_eq!(BackendId::from_str(alias).unwrap(), id);
            assert_eq!(id.spec().name, id.name());
            assert_eq!(id.to_string(), id.name());
        }
        assert!(all_ids().len() >= 5);
    }

    #[test]
    fn registry_iteration_is_sorted_by_name() {
        let ids = all_ids();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "all_ids must be deterministic (sorted by name)");
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        let mut sorted_names = names.clone();
        sorted_names.sort_unstable();
        assert_eq!(names, sorted_names, "all() must be deterministic (sorted by name)");
        // Both new built-ins declare honest triangle positions.
        assert_eq!(MVCC.spec().triangle.sacrificed, Axis::Consistency);
        assert_eq!(SHARD_LOCK.spec().triangle.sacrificed, Axis::Parallelism);
    }

    #[test]
    fn unknown_names_error_with_the_known_list() {
        let err = BackendId::from_str("does-not-exist").unwrap_err();
        assert_eq!(err.requested, "does-not-exist");
        assert!(err.known.contains(&"tl2-blocking"));
        let msg = err.to_string();
        assert!(msg.contains("unknown backend"), "{msg}");
        assert!(msg.contains("tl2-blocking"), "{msg}");
    }

    #[test]
    fn registration_is_idempotent_but_name_squatting_is_rejected() {
        fn ctor() -> Arc<dyn Backend> {
            Arc::new(crate::ofree::OFreeBackend::new())
        }
        let spec = BackendSpec {
            name: "test-registry-backend",
            aliases: &["trb"],
            summary: "test",
            triangle: Triangle {
                sacrificed: Axis::Liveness,
                parallelism: "-",
                consistency: "-",
                liveness: "-",
            },
            constructor: ctor,
        };
        let id = register(spec.clone()).unwrap();
        assert_eq!(id.name(), "test-registry-backend");
        // Same spec again: fine.
        assert_eq!(register(spec.clone()).unwrap(), id);
        // A spec revision (new alias) from the same backend takes effect.
        let revised = BackendSpec { aliases: &["trb", "trb2"], ..spec.clone() };
        assert_eq!(register(revised).unwrap(), id);
        assert_eq!("trb2".parse::<BackendId>().unwrap(), id);
        // A different backend claiming the same name (different ctor): rejected.
        fn other_ctor() -> Arc<dyn Backend> {
            Arc::new(crate::tl2::Tl2Backend::new())
        }
        let squatter = BackendSpec { constructor: other_ctor, ..spec.clone() };
        assert!(matches!(register(squatter), Err(RegistryError::NameTaken { .. })));
        // Claiming a built-in alias is also rejected.
        let alias_squatter = BackendSpec { name: "fresh-name", aliases: &["tl2"], ..spec };
        assert!(matches!(register(alias_squatter), Err(RegistryError::NameTaken { .. })));
        // The registered backend constructs and runs.
        let stm = crate::Stm::new(id);
        let x = stm.alloc(4i64);
        assert_eq!(stm.read_now(x), 4);
    }
}
