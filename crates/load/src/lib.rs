//! Load engine: hammer the frozen web with simulated browser traffic.
//!
//! Everything the paper measures is request traffic — crawls of every set
//! member's `/.well-known/related-website-set.json`, page fetches for the
//! similarity analysis, per-vendor storage-partitioning decisions on each
//! response. This crate turns that workload into a *load generator*: up to
//! hundreds of thousands of simulated browser clients replayed through the
//! [`EngineContext`](rws_engine::EngineContext) pool against the lock-free
//! [`FrozenWeb`](rws_net::FrozenWeb) snapshot, the "millions of users" leg
//! of the roadmap's north star made measurable.
//!
//! # Model
//!
//! Each client is a deterministic state machine driven by its own
//! rng stream (derived from the run seed and the client id, so results are
//! independent of scheduling):
//!
//! * a session of Poisson-many page visits over a skewed host popularity
//!   distribution, mixed GET/HEAD, `/` and `/about` paths;
//! * redirect-following via vanity entry hosts registered on top of the
//!   frozen snapshot;
//! * `.well-known/related-website-set.json` probes;
//! * a per-vendor (`VendorPolicy::ALL`) storage-partitioning decision on
//!   every successful page response;
//! * a simulated clock: per-response `latency_ms` accumulation, simulated
//!   connection setup and keep-alive reuse, exponential think time.
//!
//! Every run starts by building one [`HostTable`] from its own
//! [`SiteResolver`](rws_domain::SiteResolver) and the target's RWS list.
//! Each name a client can touch — every browsable host, every vanity
//! entry host and every host's site — gets a dense `u32` id holding its
//! site's id, its list [`Membership`](rws_model::Membership) (set and
//! role) and prebuilt `/`, `/about` and `.well-known` URLs. Clients pick
//! hosts, keep connections and visited sites, and decide partitioning
//! ([`VendorPolicy::verdict_for`](rws_browser::VendorPolicy::verdict_for))
//! on ids alone: the resolver is asked once per name per run, not once
//! per visit. Only a redirect's landing host is mapped back to its id; a
//! landing host missing from the table (possible only when the fetcher
//! serves a different web than the target) is tallied without a
//! decision.
//!
//! Clients run in fixed chunks fanned out on the pool; inside a chunk each
//! client runs to completion before the next starts, through the same
//! per-client function the sequential replay uses. Clients share no
//! mutable state, so interleaving them on a simulated clock would change
//! nothing. All aggregation is integer arithmetic into a mergeable
//! [`LatencyHistogram`](rws_stats::LatencyHistogram) and counter set, so a
//! pooled run, its sequential twin, and the straight one-client-at-a-time
//! [`replay_sequential`](LoadEngine::replay_sequential) oracle produce
//! *identical* [`LoadReport`]s field for field — property-tested, like
//! every other pooled subsystem in this workspace.
//!
//! A wire hop goes through
//! [`Fetcher::exchange_with`](rws_net::Fetcher::exchange_with): the
//! fetcher's one hop loop (redirects, deadline, faults, retries), reduced
//! to status, latency, redirects and the landing URL when a redirect moved
//! the request, with no `Response` built. The fetcher reads an *unwritten*
//! [`SimulatedWeb`](rws_net::SimulatedWeb) — [`LoadTarget::fetcher`]
//! builds a fresh one over the target's snapshot — which serves straight
//! from its frozen base without taking the web's lock. A warm, unfaulted
//! first-hop exchange therefore neither allocates nor locks.
//!
//! # Resilience
//!
//! A target can carry transient weather: [`LoadTarget::with_faults`]
//! installs a deterministic [`FaultPlan`] (refusals, latency spikes past
//! the deadline, 5xx bursts, truncated bodies, redirect storms) and
//! [`LoadTarget::with_retry`] gives clients a [`RetryPolicy`] whose
//! backoff passes on the *simulated* clock with jitter from each client's
//! derived rng stream. The report then aggregates retries, retry-success
//! rate, a time-to-first-success histogram and availability — and the
//! pooled ≡ sequential ≡ replay equality holds under a full fault storm,
//! because fault schedules are pure `(seed, host, per-client ordinal)`
//! functions with no shared state.
//!
//! # Supervised execution
//!
//! Chunk sweeps run under the context's
//! [`SupervisionPolicy`](rws_engine::SupervisionPolicy): fail-fast by
//! default, or — under salvage — a panicking chunk is quarantined into
//! `report.supervision` while the surviving chunks' partials still merge
//! exactly. Long runs can also be checkpointed:
//! [`LoadEngine::run_checkpointed`] serialises a [`LoadCheckpoint`]
//! (chunk watermark + merged partial report) into a
//! [`CheckpointSink`](rws_stats::CheckpointSink) every few windows, and
//! [`LoadEngine::resume_from`] continues a killed run to a report
//! field-for-field equal to an uninterrupted one.
//!
//! ```
//! use rws_corpus::{CorpusConfig, CorpusGenerator};
//! use rws_load::{LoadEngine, LoadScale, LoadTarget};
//!
//! let corpus = CorpusGenerator::new(CorpusConfig::small(7)).generate();
//! let target = LoadTarget::from_corpus(&corpus);
//! let engine = LoadEngine::new(target, LoadScale::smoke());
//! let report = engine.run(42);
//! assert!(report.fetch_calls > 0);
//! assert_eq!(report, engine.run(42)); // deterministic for a fixed seed
//! ```

pub mod client;
pub mod engine;
pub mod report;
pub mod scale;
mod table;
pub mod target;

pub use engine::{LoadCheckpoint, LoadEngine};
pub use report::{LoadReport, VendorTally};
pub use scale::LoadScale;
pub use table::HostTable;
pub use target::LoadTarget;

// Resilience knobs, re-exported so load consumers (tests, benches) can
// configure weather without depending on rws-net directly.
pub use rws_net::{FaultPlan, FaultScale, FetchSession, RetryPolicy};

// Supervision and checkpointing vocabulary, re-exported for the same
// reason: tests and benches configure salvage runs and sinks through the
// load crate alone.
pub use rws_engine::{SupervisionPolicy, SupervisionReport};
pub use rws_stats::{CheckpointSink, FileSink, MemorySink};
