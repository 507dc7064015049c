//! The library half of `fgcs-experiments`: what both of its binaries
//! (`fgcs-exp` and `fgcs-cluster`) share.

pub mod artifacts;
pub mod claims;
