//! Topological invariants of planar spatial databases (Segoufin–Vianu §2).
//!
//! The *topological invariant* `top(I)` of a spatial instance `I` is a finite
//! relational structure built on the maximal topological cell decomposition of
//! the plane induced by `I`: its vertices, edges and faces, their incidences,
//! the cyclic order of cells around every vertex (`Orientation`), and for each
//! region name the set of cells contained in the region. Two instances are
//! topologically equivalent (related by a plane homeomorphism) iff their
//! invariants are isomorphic (Theorem 2.1), and the invariant can be
//! *inverted*: a linear instance with the same invariant is computable from it
//! (Theorem 2.2).
//!
//! Pipeline implemented by this crate:
//!
//! 1. [`construct::build_complex`] — lower a [`topo_spatial::SpatialInstance`]
//!    to a planar arrangement and classify every cell against every region
//!    (interior / boundary / outside), producing a mutable [`complex::Complex`].
//! 2. [`complex::Complex::reduce`] — contract the arrangement to the *maximal*
//!    topological cell decomposition: drop edges and vertices that are not
//!    topologically meaningful (interior edges of a region's 2-D part,
//!    degree-2 vertices with homogeneous neighbourhoods, swallowed isolated
//!    points), merging faces and edges accordingly. After reduction a square
//!    region and a disk region have the same invariant, as they must.
//! 3. [`invariant::TopologicalInvariant`] — freeze the reduced complex,
//!    compute skeleton components, the connected-component tree (Fig. 2), face
//!    ownership, boundary walks, and export the relational form.
//! 4. [`canonical`] — the parameterised orderings of Lemma 3.1 and the
//!    canonical code of an invariant (the algorithmic content of Theorems 3.2
//!    and 3.4); isomorphism of invariants is decided by comparing codes.
//! 5. [`invert()`] — Theorem 2.2: rebuild a semi-linear spatial instance whose
//!    invariant is isomorphic to a given invariant.

pub mod canonical;
pub mod complex;
pub mod construct;
pub mod invariant;
pub mod invert;
pub mod maintain;
pub mod stats;

#[cfg(any(feature = "naive-reference", test))]
pub use canonical::naive::canonical_code_naive;
pub use canonical::{
    canonical_code, canonical_form, component_orderings, sweep_stats, CanonicalCode, CanonicalForm,
    CodeHash, SweepStats,
};
pub use complex::{CellId, Complex, RegionSet};
pub use construct::build_complex;
pub use invariant::{
    BoundaryComponent, CellKind, Component, ComponentId, ConeItem, InvariantParts,
    InvariantPartsRef, TopologicalInvariant,
};
pub use invert::{invert, invert_verified};
pub use maintain::{MaintainStats, MaintainedInvariant};
pub use stats::InvariantStats;

use topo_spatial::SpatialInstance;

/// Computes the topological invariant `top(I)` of a spatial instance.
///
/// This is the mapping `top` of Theorem 2.1: polynomial-time, and complete for
/// topological equivalence (two instances are topologically equivalent iff
/// their invariants are isomorphic, which can be checked with
/// [`TopologicalInvariant::canonical_code`]).
pub fn top(instance: &SpatialInstance) -> TopologicalInvariant {
    let mut complex = build_complex(instance);
    complex.reduce();
    TopologicalInvariant::from_complex(&complex, instance.schema().clone())
}

/// Computes the invariant of the *unreduced* cell complex (the raw
/// arrangement-level decomposition, before contraction to the maximal
/// decomposition). Exposed for tests and for the experiments that measure the
/// effect of the reduction.
pub fn top_unreduced(instance: &SpatialInstance) -> TopologicalInvariant {
    let complex = build_complex(instance);
    TopologicalInvariant::from_complex(&complex, instance.schema().clone())
}

/// Computes `top(I)` through the frozen pre-optimisation reference path: the
/// seed arrangement builder under [`topo_geometry::slow_mode`] arithmetic.
///
/// Observationally identical to [`top`] — the equivalence tests assert it —
/// but with the seed cost profile, so the perf harness can measure genuine
/// end-to-end speedups inside one binary. Compiled only with the
/// `naive-reference` feature; never use it outside benches and tests.
#[cfg(feature = "naive-reference")]
pub fn top_naive(instance: &SpatialInstance) -> TopologicalInvariant {
    let _slow = topo_geometry::slow_mode::SlowGuard::new();
    let mut complex = construct::build_complex_naive(instance);
    complex.reduce();
    TopologicalInvariant::from_complex(&complex, instance.schema().clone())
}
