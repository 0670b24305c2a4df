//! The benchmark's parts; `main.rs` runs them (see README.md).

pub mod client;
pub mod gen;
pub mod json;
pub mod layers;
pub mod server;
pub mod spec;
pub mod stats;
pub mod sys;
