//! `dee-serve` — simulation-as-a-service for the DEE stack.
//!
//! A resident, multi-threaded HTTP server that keeps prepared traces hot
//! across requests. Parameter sweeps (many models × many `E_T` values
//! over few workloads) pay the expensive predictor replay and
//! post-dominator analysis once per `(program, memory, predictor)` and
//! answer every subsequent query from the sharded LRU cache.
//!
//! Everything is hand-rolled on `std` — the JSON codec, the HTTP/1.1
//! subset, the bounded MPMC queue, the metrics registry — because the
//! workspace builds fully offline with no external crates.
//!
//! ```no_run
//! use dee_serve::{Server, ServerConfig};
//!
//! let server = Server::spawn(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.shutdown();
//! ```

#![deny(unsafe_code)]

pub mod api;
pub mod cache;
pub mod faults;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod signal;
pub mod stream;

pub use api::{
    handle_levo, handle_simulate, handle_tree, levo_json, outcome_json, parse_batch,
    run_batch_cell, tree_json, ApiError, BatchCell,
};
pub use cache::{CacheKey, PreparedCache, PreparedEntry};
pub use faults::{FaultPlan, FaultSite, FaultSpec, Injected};
pub use json::Json;
pub use metrics::Metrics;
pub use server::{route_summary, Server, ServerConfig, ROUTES};
pub use stream::GuardedStream;
