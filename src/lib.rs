//! Workspace root: hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). The public API lives in
//! [`topo_core`], re-exported here for convenience.

pub use topo_core as api;

/// The `rust` blocks of README.md, compiled and run as doctests so the
/// README cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
