//! Statistics and the parent-versus-change comparison shared by the
//! `perfbench` benchmark and the `perfbench-compare` helper.

pub mod compare;
pub mod stats;
