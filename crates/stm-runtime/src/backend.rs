//! The backend interface shared by every STM implementation.

use crate::txn::TxnData;
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

/// The operations a backend must provide.  `TxnData` carries the per-transaction
/// bookkeeping (read set, write set, snapshot timestamp) that all backends share.
pub trait Backend: Send + Sync {
    /// Allocate `initials.len()` **consecutive** variables in one atomic step
    /// (returns the first id).  Multi-word [`crate::TVar`]s rely on the ids
    /// being consecutive even when threads allocate concurrently.
    fn alloc_words(&self, initials: &[i64]) -> VarId;

    /// Allocate a single variable with an initial value.
    fn alloc(&self, initial: i64) -> VarId {
        self.alloc_words(&[initial])
    }
    /// Initialize per-transaction state.
    fn begin(&self, data: &mut TxnData);
    /// Transactional read.
    fn read(&self, data: &mut TxnData, var: VarId) -> Result<i64, crate::StmError>;
    /// Transactional write (buffered until commit on most backends).
    fn write(&self, data: &mut TxnData, var: VarId, value: i64) -> Result<(), crate::StmError>;
    /// Attempt to commit.
    fn commit(&self, data: &mut TxnData) -> Result<(), crate::StmError>;
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
