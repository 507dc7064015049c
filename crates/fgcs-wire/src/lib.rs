//! The FGCS availability-service wire protocol.
//!
//! iShare publishes machine availability so consumers can place guest
//! jobs on other people's idle cycles (§5 of the paper). This crate is
//! the contract between the publishing side (per-machine monitors
//! streaming samples) and the consuming side (schedulers querying
//! availability): a versioned, length-prefixed binary framing with a
//! small fixed message vocabulary.
//!
//! Design constraints, in order:
//!
//! 1. **Std-only.** The build environment has no crate registry, and a
//!    protocol crate should not drag the domain stack across a process
//!    boundary anyway. No dependencies, not even in-tree ones; model
//!    states cross the wire as validated `u8` codes
//!    (`fgcs_core::model::AvailState::code`).
//! 2. **Bit-exact payloads.** `f64` fields are carried as their IEEE
//!    bit patterns (`to_bits`, little-endian), so a sample stream
//!    replayed over TCP feeds the detector *exactly* the numbers the
//!    in-process pipeline would have seen — the end-to-end parity test
//!    depends on this.
//! 3. **Detectable corruption.** Every frame carries a CRC32 of its
//!    payload. Like the trace-file corruption model (`fgcs-faults`,
//!    DESIGN.md §8), this makes "frames the injector corrupted" and
//!    "frames the server rejected" the same number, which the overload
//!    and corruption experiments reconcile exactly.
//! 4. **Bounded frames, incremental decode.** Payloads are capped at
//!    [`MAX_FRAME_LEN`]; the [`codec::Decoder`] accepts bytes in
//!    arbitrary chunks and never panics on garbage.
//!
//! See DESIGN.md §9 for the frame layout diagram and the
//! backpressure/shedding policy built on top of these messages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;

pub use codec::{
    decode_one, encode_into, DecodeError, Decoder, EncodeError, HEADER_LEN, MAX_FRAME_LEN,
};
pub use frame::{
    ErrorCode, Frame, MachineStat, ReplEntry, SampleLoad, SchedStatsPayload, StatsPayload,
    WireSample, WireTransition, MAX_AUTH_TOKEN, MAX_ERROR_DETAIL, MAX_MACHINE_STATS,
    MAX_REPL_ENTRIES_PER_FRAME, MAX_REPL_SNAPSHOT_BYTES, MAX_SAMPLES_PER_BATCH,
    MAX_TRANSITIONS_PER_FRAME, PROTOCOL_VERSION, REPL_ENTRIES_HEADER_LEN,
};
