//! # bat-space
//!
//! Discrete tunable-parameter spaces for the BAT-rs kernel-tuner benchmarking
//! suite: parameter definitions, a Python-like restriction expression
//! language, a mixed-radix configuration↔index bijection, neighbourhoods,
//! exact counting/enumeration, and random sampling.
//!
//! This crate is the data model behind the paper's "standardized problem
//! interface": a benchmark declares its space as parameters plus restriction
//! strings, and every tuner consumes the same [`ConfigSpace`].
//!
//! ## The enumeration engine
//!
//! Restriction checking is the hottest path in the suite — counting the
//! Dedispersion space alone means examining up to 1.2×10⁸ candidate
//! configurations. Two layers keep it fast:
//!
//! 1. **Bytecode VM** ([`expr::Program`]): at build time every restriction
//!    is constant-folded ([`expr::fold`]) and flattened into a contiguous
//!    postfix instruction buffer with jump-based short-circuiting, replacing
//!    the `Box`-chasing tree walk with a tight dispatch loop and zero
//!    per-evaluation allocation. Restrictions that fold to a constant leave
//!    the hot path entirely: always-true ones are dropped, an always-false
//!    one empties the space without enumerating anything.
//! 2. **Prefix-pruned odometer** ([`ConfigSpace::valid_indices`] and the
//!    per-component walks of [`ConfigSpace::count_valid`]): parameters are visited in slot order and every
//!    restriction is evaluated as soon as its highest slot is assigned, so a
//!    failing prefix skips all of its completions at once; parameters no
//!    restriction reads are never enumerated (they contribute a stride
//!    multiplier, and enumeration emits them as contiguous index ranges).
//!    The same per-slot restriction buckets let
//!    [`Neighborhood::valid_neighbor_indices`](Neighborhood) validate a
//!    neighbour by patching a single slot and re-checking only the
//!    restrictions touching it.
//!
//! Measured on the paper's spaces (single-core host, release build):
//! counting Dedispersion takes ~50 µs pruned vs ~6.8 s brute force
//! (≈10⁵×), Hotspot ~0.7 ms vs ~1.0 s (≈1400×), GEMM ~0.7 ms vs ~8.5 ms
//! (≈12×), with the VM evaluating restriction sets ~1.5× faster than the
//! tree walk. [`ConfigSpace::count_valid_brute`] retains the exhaustive
//! parallel path as the reference the pruned engine is verified against
//! (`tests/property_based.rs` proves count/enumeration equivalence, and VM ≡
//! tree-walk, on randomized inputs).
//!
//! ```
//! use bat_space::{ConfigSpace, Param};
//!
//! let space = ConfigSpace::builder()
//!     .param(Param::pow2("MWG", 16, 128))
//!     .param(Param::new("MDIMC", vec![8, 16, 32]))
//!     .param(Param::new("VWM", vec![1, 2, 4, 8]))
//!     .restrict("MWG % (MDIMC * VWM) == 0")
//!     .build()
//!     .unwrap();
//! assert_eq!(space.cardinality(), 48);
//! assert_eq!(space.count_valid(), space.count_valid_brute());
//! ```

#![warn(missing_docs)]

pub mod expr;
mod neighbors;
mod param;
mod sample;
mod space;
mod value;

pub use neighbors::Neighborhood;
pub use param::Param;
pub use sample::{sample_indices, sample_one_valid, sample_valid_indices_distinct};
pub use space::{ConfigIter, ConfigSpace, ConfigSpaceBuilder, Restriction, SpaceError, SpaceSpec};
pub use value::Num;
