//! `xtalk-serve` — a fault-tolerant batched analysis daemon.
//!
//! Long-running physical-design flows (routers, optimizers) want to ask
//! "how noisy is this net?" thousands of times without paying process
//! startup, technology parsing, and workspace allocation per query. This
//! crate turns the xtalk analysis stack into a resident service speaking
//! newline-delimited JSON over stdio, TCP, or a Unix socket: one request
//! object per line in, one reply object per line out, replies in request
//! order per connection.
//!
//! Robustness is the point, in four layers:
//!
//! 1. **Admission control** ([`queue`]): a bounded queue sheds overload
//!    with explicit `overloaded` replies carrying `retry_after_ms`
//!    hints; per-request size limits and schema validation turn every
//!    malformed input into a structured error reply instead of a dead
//!    connection.
//! 2. **Fault isolation** ([`server`]): each case runs under
//!    `catch_unwind`; a poisoned netlist yields one failed reply and a
//!    fresh per-worker `SimWorkspace` while the pool keeps serving.
//! 3. **Deadlines & degradation** ([`engine`]): requests carry optional
//!    millisecond budgets; when golden-simulator escalation would blow
//!    the budget the reply degrades to the closed-form resilience chain
//!    and says so in its `deadline` and provenance fields.
//! 4. **Lifecycle** ([`signal`], [`server`]): SIGTERM/EOF stop admission,
//!    drain in-flight work, flush metrics, and exit 0.
//!
//! See `DESIGN.md` §10 for the wire protocol.

#![deny(unsafe_code)] // narrowly allowed inside `signal` for signal(2)
#![warn(missing_docs)]

pub mod engine;
pub mod events;
pub mod proto;
pub mod queue;
pub mod server;
pub mod signal;

/// The JSON reader and writers (they live in `xtalk-obs`).
pub use xtalk_obs::json;

pub use engine::RequestTrace;
pub use events::{EventLog, DEFAULT_EVENT_CAPACITY};
pub use proto::{parse_request, AnalyzeRequest, Request, RequestId};
pub use queue::{Bounded, PushError};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
pub use signal::{install_handlers, raise_termination, termination_requested};
