//! # simart-codec
//!
//! The handful of byte formats the reproducibility promise rests on —
//! same inputs, same hash, same archived record — each defined exactly
//! once:
//!
//! * [`crc32`] / [`crc32_extend`] — the IEEE CRC-32 every frame carries;
//! * [`fnv1a`] / [`fnv1a_extend`] — the 64-bit FNV-1a behind configuration fingerprints,
//!   checkpoint keys and fault-stream seeds;
//! * [`hex`] — the lowercase hex of blob keys, digests and UUIDs;
//! * [`frame`] — the `[len][crc][payload]` record frame shared by the
//!   database journal, the worker wire protocol and checkpoint files;
//! * [`Value`] and [`json`] — the JSON document model and its text
//!   form, the payload of journal records, snapshot files and protocol
//!   messages.
//!
//! Callers keep their own *policy* (the journal stops at a torn tail,
//! the wire decoder waits for more bytes, a checkpoint refuses the whole
//! file); the formats themselves live here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod frame;
mod hash;
pub mod hex;
pub mod json;
mod value;

pub use hash::{crc32, crc32_extend, fnv1a, fnv1a_extend};
pub use json::JsonError;
pub use value::Value;
