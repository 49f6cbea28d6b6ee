//! Cell-level hierarchical decomposition for multiple patterning.
//!
//! A real GDS layout is a cell DAG: one SRAM bit-cell body, stamped out
//! millions of times.  Flattening throws that structure away, and when the
//! stamped instances pack densely enough to conflict-couple, the flat
//! conflict graph fuses into one giant component that no geometric
//! division can split — the translation-canonical memo cache
//! ([`mpl_memo`](mpl_core::MemoCache)) is helpless too, because there is
//! only *one* component, not many repeats.  This crate exploits the
//! hierarchy instead:
//!
//! 1. **Tag** — `mpl-gds` flattens with provenance
//!    ([`flatten_tagged`](../mpl_gds/fn.flatten_tagged.html)): every flat
//!    shape remembers which top-level cell instance placed it, and a
//!    [`LayoutHierarchy`](mpl_layout::LayoutHierarchy) carries the tags
//!    into the layout.  Shapes that merge **across** an instance boundary
//!    lose their tag — they are boundary geometry by definition.  Only
//!    *one* level of hierarchy is modelled: geometry reached through a
//!    nested SREF/AREF chain (depth ≥ 2) silently inherits the enclosing
//!    top-level instance's tag, so its pieces can mix distinct sub-cells.
//!    The approximation is harmless for correctness (step 3 re-verifies
//!    every conflict globally) but reduces cell-level reuse; it is counted
//!    in [`HierStats::nested_inherited`] so runs can observe it.
//! 2. **Split** — components whose vertices share one provenance are
//!    *resident* and flow through the ordinary batch engine untouched; a
//!    mixed-provenance component is split into per-instance pieces plus a
//!    residual boundary piece along the instance seams the geometric
//!    division cannot see.
//! 3. **Decompose and reconcile** — the partition goes to
//!    [`run_partitioned`], the one divide → color → merge pipeline it
//!    shares with `mpl-tile`, with a memo cache **always** attached, so the
//!    engine colors each distinct cell body once and every
//!    translation-identical instance is stamped from the canonical master
//!    coloring.  Pieces merge deterministically (instances ascending,
//!    residual last): the cross-edge-cost-minimising color permutation
//!    aligns each piece with the vertices already fixed (free —
//!    permutations preserve all intra-piece cost), then a bounded greedy
//!    repair pass re-colors boundary vertices that strictly lower the
//!    global cost.
//!
//! The merged result is rebuilt over the **full** layout graph, so its
//! conflict count always agrees with the independent
//! [`verify_spacing`](mpl_core::verify_spacing) checker — hierarchy reuse
//! can never silently hide a violation.  And because every piece coloring
//! is a pure function of its canonical signature, a layout whose instances
//! are all isolated (every component single-provenance) gets colors
//! bit-identical to the flat memoized path.
//!
//! [`run_partitioned`]: mpl_core::run_partitioned

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
pub mod fixtures;
mod split;

pub use driver::{run_hier, run_hier_observed, HierLayoutResult, HierStats};

#[cfg(test)]
mod tests;
