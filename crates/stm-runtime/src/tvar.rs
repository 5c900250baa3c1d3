//! `TVar<T>` — a typed handle over one or more STM words.
//!
//! A `TVar<T>` remembers the first [`VarId`] of the `T::WORDS` consecutive
//! words its value occupies, plus the type `T` at compile time.  It is `Copy`
//! and trivially cheap: the typed front-end is a zero-cost veneer over the
//! word STM — no wrapper allocation, no runtime type tags, and reads/writes
//! stream words straight through [`crate::TxnValue::encode`]/`decode`.
//!
//! Allocate with [`crate::Stm::alloc`], access with [`crate::Txn::read`] /
//! [`crate::Txn::write`].  Handles are only meaningful on the [`crate::Stm`]
//! instance that allocated them (same rule the raw [`VarId`]s always had).

use crate::backend::VarId;
use crate::value::TxnValue;
use std::fmt;
use std::marker::PhantomData;

/// A typed transactional variable: `T::WORDS` consecutive words starting at
/// [`TVar::base`].
pub struct TVar<T: TxnValue> {
    base: VarId,
    _type: PhantomData<fn(T) -> T>,
}

impl<T: TxnValue> TVar<T> {
    /// Wrap the base word of an already-allocated `T::WORDS`-word block.
    ///
    /// Normally produced by [`crate::Stm::alloc`]; exposed so adapters that
    /// interoperate with the raw word API can rebuild typed handles.
    pub fn from_base(base: VarId) -> Self {
        TVar { base, _type: PhantomData }
    }

    /// The first word of this variable.
    pub fn base(self) -> VarId {
        self.base
    }

    /// How many consecutive words the variable occupies.
    pub fn words(self) -> usize {
        T::WORDS
    }

    /// The `k`-th word of this variable (`k < T::WORDS`).
    pub(crate) fn word(self, k: usize) -> VarId {
        debug_assert!(k < T::WORDS);
        VarId(self.base.0 + k)
    }
}

// Manual impls: `derive` would bound them on `T: Copy` etc., but the handle
// is always copyable regardless of `T`.
impl<T: TxnValue> Clone for TVar<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: TxnValue> Copy for TVar<T> {}

impl<T: TxnValue> PartialEq for TVar<T> {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base
    }
}

impl<T: TxnValue> Eq for TVar<T> {}

impl<T: TxnValue> PartialOrd for TVar<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: TxnValue> Ord for TVar<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.base.cmp(&other.base)
    }
}

impl<T: TxnValue> std::hash::Hash for TVar<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.base.hash(state);
    }
}

impl<T: TxnValue> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TVar<{}>({})", std::any::type_name::<T>(), self.base)
    }
}

impl<T: TxnValue> fmt::Display for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.base, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_copy_eq_ord_hash_and_display() {
        let a: TVar<i64> = TVar::from_base(VarId(3));
        let b = a; // Copy
        assert_eq!(a, b);
        assert!(a <= b);
        let c: TVar<i64> = TVar::from_base(VarId(4));
        assert!(a < c);
        assert_eq!(a.to_string(), "v3");
        assert_eq!(format!("{a:?}"), "TVar<i64>(v3)");
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn words_follow_the_base() {
        let pair: TVar<(i64, i64)> = TVar::from_base(VarId(10));
        assert_eq!(pair.words(), 2);
        assert_eq!(pair.word(0), VarId(10));
        assert_eq!(pair.word(1), VarId(11));
    }
}
