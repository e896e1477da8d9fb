//! Disjoint Eager Execution theory (Uht & Sindagi, MICRO-28, 1995, §2–§3).
//!
//! This crate contains the paper's *analytic* content, independent of any
//! simulator:
//!
//! * [`assign`] — Theorem 1 and Corollary 1: given branch paths with
//!   cumulative probabilities (and optional saturation limits), the
//!   expected-performance-optimal assignment of execution resources is the
//!   rule of **greatest marginal benefit** — give everything to the most
//!   likely unsaturated path, then repeat. Disjoint Eager Execution is the
//!   speculation strategy this rule constructs.
//! * [`tree`] — speculation trees over a branch-prediction process with
//!   per-branch accuracy `p`: the Single Path (SP), Eager Execution (EE)
//!   and Disjoint Eager Execution (DEE) strategies of Figure 1, each
//!   selecting which branch paths receive the `E_T` available resources.
//! * [`static_tree`] — the §3.1 *static tree heuristic*: fixing the DEE
//!   tree shape at design time from a characteristic prediction accuracy,
//!   with the paper's closed-form dimensions (`l`, `h_DEE`, `E_T`) and the
//!   equivalent greedy construction (Figure 2).
//!
//! # Example
//!
//! The static tree of Figure 2 (p = 0.90, E_T = 34 branch paths):
//!
//! ```
//! use dee_core::{StaticTree, TreeParams};
//!
//! let tree = StaticTree::build(TreeParams { p: 0.90, et: 34 });
//! assert_eq!(tree.mainline_len(), 24); // "l = 24 paths"
//! assert_eq!(tree.h_dee(), 4);         // "hDEE = 4 paths"
//! assert_eq!(tree.dee_region_paths(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod static_tree;
pub mod tree;

pub use assign::{assign_resources, expected_performance, PathCandidate};
pub use static_tree::{ee_depth, log_p_not_p, StaticTree, TreeParams, MAX_ET};
pub use tree::{ChosenPath, SpecTree, Strategy};
