//! Inner-product sketching algorithms.
//!
//! This crate implements the primary contribution of *"Weighted Minwise Hashing Beats
//! Linear Sketching for Inner Product Estimation"* (Bessa et al., PODS 2023) together
//! with every baseline the paper compares against, behind a single [`Sketcher`]
//! interface:
//!
//! | Module | Method | Paper reference |
//! |---|---|---|
//! | [`wmh`] | **Weighted MinHash** sampling (the paper's contribution) | Algorithms 3–5, Theorem 2 |
//! | [`minhash`] | Unweighted MinHash sampling | Algorithms 1–2, Theorem 4 |
//! | [`kmv`] | k-minimum-values sampling | Beyer et al., Santos et al. |
//! | [`jl`] | Johnson–Lindenstrauss / AMS random projection | Fact 1 |
//! | [`countsketch`] | CountSketch (5 repetitions + median) | Charikar et al., Larsen et al. |
//! | [`simhash`] | SimHash (1-bit random projections) | related work, Section 2 |
//! | [`icws`] | Ioffe's consistent weighted sampling | related work, Section 2 |
//!
//! Supporting modules: [`union`] (the Lemma-1 union-size estimators shared by the
//! sampling sketches), [`median`] (the median-trick combiner used to boost the success
//! probability from 2/3 to `1 − δ`), [`storage`] (the paper's "64-bit double
//! equivalents" storage accounting used to compare methods at equal budgets),
//! [`serialize`] (compact binary encoding of every sketch), [`method`] (a dynamic,
//! budget-driven front end used by the experiment harness and examples), [`spec`]
//! (catalog-stable sketcher-configuration descriptors for persistent sketch stores),
//! [`kernel`] (the estimator dot-product kernel and its scalar reference), and [`runner`]
//! (the work-claiming parallel map the batched query and experiment paths schedule on).
//!
//! # Quick example
//!
//! ```
//! use ipsketch_core::wmh::WeightedMinHasher;
//! use ipsketch_core::traits::Sketcher;
//! use ipsketch_vector::SparseVector;
//!
//! let a = SparseVector::from_pairs([(1, 0.5), (5, 2.0), (9, -1.0)]).unwrap();
//! let b = SparseVector::from_pairs([(5, 1.5), (9, 3.0), (20, 4.0)]).unwrap();
//!
//! let sketcher = WeightedMinHasher::new(256, 7, 1 << 20).unwrap();
//! let sa = sketcher.sketch(&a).unwrap();
//! let sb = sketcher.sketch(&b).unwrap();
//! let estimate = sketcher.estimate_inner_product(&sa, &sb).unwrap();
//!
//! let exact = ipsketch_vector::inner_product(&a, &b);
//! assert!((estimate - exact).abs() < 0.75 * a.norm() * b.norm());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod countsketch;
pub mod error;
pub mod icws;
pub mod jl;
pub mod kernel;
pub mod kmv;
pub mod median;
pub mod method;
pub mod minhash;
pub mod runner;
pub mod serialize;
pub mod simhash;
pub mod spec;
pub mod storage;
pub mod traits;
pub mod union;
pub mod wmh;

pub use error::SketchError;
pub use method::{AnySketch, AnySketcher, SketchMethod};
pub use spec::{FormatVersion, SketcherKind, SketcherSpec};
pub use traits::{MergeableSketcher, Sketch, Sketcher};
