//! Umbrella crate for the reproduction workspace.
//!
//! Re-exports every sub-crate so integration tests and examples can use a
//! single dependency. The real public API lives in [`autostats`].

#![forbid(unsafe_code)]

pub use autostats;
pub use datagen;
pub use executor;
pub use optimizer;
pub use query;
pub use stats;
pub use storage;
