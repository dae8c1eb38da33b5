//! # simart-bench
//!
//! The benchmark harness: drivers that regenerate **every table and
//! figure** of the paper's evaluation, shared by the runnable binaries
//! (`usecase1`, `usecase2`, `usecase3`, `table1`, `table4`) and the
//! workspace integration tests.
//!
//! | paper item | driver | binary |
//! |---|---|---|
//! | Table I | [`simart_resources::catalog`] | `table1` |
//! | Table II + Figs 6,7 | [`usecase1`] | `usecase1` |
//! | Fig 8 | [`usecase2`] | `usecase2` |
//! | Tables III, IV + Fig 9 | [`usecase3`] | `usecase3`, `table4` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod usecase1;
pub mod usecase2;
pub mod usecase3;
