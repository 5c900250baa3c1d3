//! The backend interface shared by every STM implementation.
//!
//! A backend is its shared-memory protocol and nothing else.  The
//! transaction front end ([`crate::Txn`] and [`crate::Stm`]) owns what an
//! attempt records about itself — its reads, its buffered writes and why it
//! aborted — so the methods below are exactly the shared base objects a
//! design touches: the paper's P is a statement about these and only these.

use crate::txn::{AbortReason, TxnData};
use std::fmt;

/// Identifier of a transactional variable within one [`crate::Stm`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

impl VarId {
    /// Numeric index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The shared-memory protocol of one STM design.
///
/// Per attempt the front end resets [`TxnData`], calls [`Backend::begin`],
/// runs the body, then calls [`Backend::commit`] — or [`Backend::cleanup`]
/// after any abort.  It answers a read of a variable the attempt already
/// wrote or read from its own record, so [`Backend::read`] runs only on a
/// miss, and it buffers every written value itself: commit installs
/// [`TxnData::writes`].  Every method that can fail returns the
/// [`AbortReason`] of the failure.
pub trait Backend: Send + Sync {
    /// Allocate `initials.len()` **consecutive** variables in one atomic step
    /// (returns the first id).  Multi-word [`crate::TVar`]s rely on the ids
    /// being consecutive even when threads allocate concurrently.
    fn alloc_words(&self, initials: &[i64]) -> VarId;

    /// Allocate a single variable with an initial value.
    fn alloc(&self, initial: i64) -> VarId {
        self.alloc_words(&[initial])
    }
    /// Start an attempt on freshly reset `data` (e.g. take a snapshot).
    fn begin(&self, _data: &mut TxnData) {}
    /// Read `var` from shared memory.  Called only on a miss: the attempt
    /// has neither written nor read `var` yet.
    fn read(&self, data: &mut TxnData, var: VarId) -> Result<i64, AbortReason>;
    /// Encounter-time hook of a write to `var`, before the front end
    /// buffers the value (e.g. take the variable's lock).
    fn write(&self, _data: &mut TxnData, _var: VarId) -> Result<(), AbortReason> {
        Ok(())
    }
    /// Validate the attempt and install [`TxnData::writes`].
    fn commit(&self, data: &mut TxnData) -> Result<(), AbortReason>;
    /// Release any resources after an abort (locks, ownership records).
    fn cleanup(&self, data: &mut TxnData);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_ids_are_ordered_and_displayable() {
        assert!(VarId(0) < VarId(1));
        assert_eq!(VarId(3).index(), 3);
        assert_eq!(VarId(3).to_string(), "v3");
    }
}
