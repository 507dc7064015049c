//! Minimal Linux syscall shim for the availability server's epoll
//! event loops (and the client pool built on the same readiness model).
//!
//! The build environment has no crate registry, so `fgcs-service`
//! cannot pull in `libc`/`mio`. This crate binds the handful of
//! syscalls the event loop needs — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `fcntl` (for `O_NONBLOCK`), `accept4`, `eventfd`
//! (cross-loop wakeups), and raw `socket`/`setsockopt`/`bind`/`listen`
//! (`SO_REUSEADDR`/`SO_REUSEPORT` listeners) — directly
//! via `extern "C"` declarations against the C library the binary
//! already links, and wraps them in safe, RAII-owning types. Nothing
//! here dials out: clients connect through std, whose
//! `TcpStream::connect_timeout` bounds a connect without any FFI.
//!
//! Every other crate in the workspace keeps `#![forbid(unsafe_code)]`;
//! all `unsafe` lives here, behind wrappers whose contracts are plain
//! `std::io` ones (owned fds, `io::Result`, EINTR retried).
//!
//! Only compiled on Linux; on other targets the crate is empty and
//! `fgcs_service::Server::start` returns `ErrorKind::Unsupported`.

#![warn(missing_docs)]

#[cfg(target_os = "linux")]
mod linux;

#[cfg(target_os = "linux")]
pub use linux::*;
