//! # pcl-tm — facade crate for the PCL theorem reproduction
//!
//! Re-exports every crate of the workspace under one roof so that examples,
//! integration tests and downstream users can depend on a single package.
//!
//! See `README.md` for the system inventory; `examples/theorem_walkthrough.rs`
//! regenerates the paper's figures and `tests/theorem_claims.rs` asserts them.

pub use pcl_theorem as theorem;
pub use stm_runtime as stm;
pub use tm_algorithms as algorithms;
pub use tm_audit as audit;
pub use tm_consistency as consistency;
pub use tm_model as model;
pub use tm_properties as properties;
pub use workloads;
