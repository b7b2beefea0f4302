//! One simulated browser client: a deterministic session state machine.
//!
//! ```text
//!              ┌──────────────────────────────────────────────┐
//!              ▼                                              │
//!  arrive ─▶ pick host ─▶ connect ─▶ GET/HEAD ─▶ tally ─▶ think ─▶ ... ─▶ done
//!  (ramp)    (skewed /    (reuse or  (redirects  (status,  (exp.
//!             vanity)      open)      followed)   latency,  clock
//!                                        │        vendor    advance)
//!                                        ▼        verdicts)
//!                                 .well-known probe (p≈0.3)
//! ```
//!
//! Every random draw comes from the client's own rng stream, derived from
//! `(run seed, client id)` — never from shared state — so a client behaves
//! identically whichever chunk or pool worker runs it, or when it is
//! replayed alone. That independence is what makes the pooled and
//! sequential aggregate reports equal field for field, and what lets the
//! engine run each client to completion instead of interleaving them.
//!
//! A client names hosts and sites only by their [`HostTable`] ids: the
//! run resolved each name's site, list membership and URLs once, so a
//! visit does no string work beyond mapping a redirect's landing host
//! back to its id.
//!
//! Fetches go through [`Fetcher::exchange_with`], which reports status,
//! latency, redirects and a redirect's landing URL without building a
//! `Response`; on the target's unwritten web a warm, unfaulted hop
//! allocates nothing and takes no lock.

use crate::report::LoadReport;
use crate::scale::LoadScale;
use crate::table::{HostTable, Page};
use rws_browser::VendorPolicy;
use rws_net::{Exchange, FetchOutcome, FetchSession, Fetcher, Method, NetError};
use rws_stats::{Rng, Xoshiro256StarStar};

/// Simulated keep-alive window: a connection idle longer than this is
/// re-opened.
const KEEPALIVE_MS: u64 = 15_000;
/// Simulated TCP+TLS setup cost added to a response served on a fresh
/// connection.
const CONNECT_COST_MS: u64 = 12;
/// Simulated clock cost of a failed fetch (refused connection, timeout
/// already accounted by the fetcher's deadline, ...).
const ERROR_COST_MS: u64 = 35;
/// Per-client cap on simultaneously open simulated connections.
const MAX_OPEN_CONNECTIONS: usize = 8;

/// Probability a page visit enters through a vanity redirect host.
const P_VANITY: f64 = 0.08;
/// Probability a page visit targets `/about` instead of `/`.
const P_ABOUT: f64 = 0.25;
/// Probability a page visit is a HEAD instead of a GET.
const P_HEAD: f64 = 0.12;
/// Probability a visit is followed by a `.well-known` RWS probe.
const P_WELL_KNOWN: f64 = 0.30;
/// Probability the embedded site of a partitioning decision is a site the
/// client has already visited first-party (vs. a random third party).
const P_EMBED_VISITED: f64 = 0.5;
/// Probability a client accepts storage-access prompts.
const P_ACCEPTS_PROMPTS: f64 = 0.32;

/// A live client session. All state is private to the client.
#[derive(Debug)]
pub struct ClientState {
    rng: Xoshiro256StarStar,
    /// The client's position on the simulated clock, in milliseconds.
    clock: u64,
    visits_left: u32,
    accepts_prompts: bool,
    /// Ids of the sites (eTLD+1) visited first-party this session,
    /// insertion-ordered.
    visited_sites: Vec<u32>,
    /// Open simulated connections: `(origin id, last use)`.
    connections: Vec<(u32, u64)>,
    /// The client's fetch session: per-host request ordinals for the fault
    /// plan, the rng stream backoff jitter draws from, and the retry
    /// budget. Derived from `(seed, id)` on its own label so it never
    /// perturbs the main behaviour stream above.
    session: FetchSession,
}

impl ClientState {
    /// Seed a client. The rng stream depends only on `(seed, id)`.
    pub fn new(seed: u64, id: u32, scale: &LoadScale) -> ClientState {
        let mut rng = Xoshiro256StarStar::new(seed).derive(&format!("load-client-{id}"));
        let clock = rng.range_u64(0, scale.ramp_ms.max(1));
        let visits = rng.poisson(scale.mean_visits.max(1) as f64).max(1);
        ClientState {
            accepts_prompts: rng.chance(P_ACCEPTS_PROMPTS),
            rng,
            clock,
            visits_left: visits.min(u32::MAX as u64) as u32,
            visited_sites: Vec::new(),
            connections: Vec::new(),
            session: FetchSession::new(seed, &format!("load-client-{id}-fetch")),
        }
    }

    /// Where this client currently sits on the simulated clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Run one visit (page fetch, optional `.well-known` probe, think
    /// time). Returns `true` while the session has more visits to run.
    ///
    /// A successful page decides partitioning on its landing host. A
    /// redirect can land on a host outside `table` only when `fetcher`
    /// serves a different web than the table was built from; that
    /// response is tallied and its decision skipped.
    pub fn step(
        &mut self,
        scale: &LoadScale,
        table: &HostTable,
        fetcher: &Fetcher,
        report: &mut LoadReport,
    ) -> bool {
        let host = self.pick_host(table);
        if table.is_poisoned(host) {
            panic!("poisoned work item: {}", table.name(host));
        }
        let page = if self.rng.chance(P_ABOUT) {
            Page::About
        } else {
            Page::Root
        };
        let head = self.rng.chance(P_HEAD);
        let url = table.page_url(host, page);
        let connect_cost = self.connect(host, report);

        report.fetch_calls += 1;
        let method = if head {
            report.heads += 1;
            Method::Head
        } else {
            report.gets += 1;
            Method::Get
        };
        let outcome = fetcher.exchange_with(method, url, &mut self.session);
        if let Some(exchange) = self.note_outcome(host, connect_cost, outcome, report) {
            if exchange.status.is_success() {
                // The landing host (after redirects) is the page the
                // user is on; decide partitioning there.
                let landing = match &exchange.landing {
                    None => Some(host),
                    Some(url) => table.id_of(&url.host),
                };
                if let Some(landing) = landing {
                    let top_site = table.site_of(landing);
                    self.decide_partitioning(top_site, table, report);
                    self.note_visited(top_site);
                }
            }
        }

        if self.rng.chance(P_WELL_KNOWN) {
            self.probe_well_known(host, table, fetcher, report);
        }

        let think = self
            .rng
            .exponential(1.0 / scale.think_time_ms.max(1) as f64) as u64;
        self.clock += think;
        self.visits_left -= 1;
        self.visits_left > 0
    }

    /// GET the site's `/.well-known/related-website-set.json`, tallied but
    /// with no partitioning decision (it is machine traffic, not a page).
    fn probe_well_known(
        &mut self,
        host: u32,
        table: &HostTable,
        fetcher: &Fetcher,
        report: &mut LoadReport,
    ) {
        let site = table.site_of(host);
        let connect_cost = self.connect(site, report);
        report.well_known_probes += 1;
        report.fetch_calls += 1;
        report.gets += 1;
        let url = table.page_url(site, Page::WellKnown);
        let outcome = fetcher.exchange_with(Method::Get, url, &mut self.session);
        self.note_outcome(site, connect_cost, outcome, report);
    }

    /// Fold a fetch outcome into the report and the clock: retry and
    /// backoff accounting, error tallies, and — on transport-level failure
    /// — eviction of the (now known dead) simulated connection, so a host
    /// going offline mid-run cannot keep serving through a stale keep-alive
    /// slot. Returns the exchange, if a response arrived.
    fn note_outcome(
        &mut self,
        origin: u32,
        connect_cost: u64,
        outcome: FetchOutcome<Exchange>,
        report: &mut LoadReport,
    ) -> Option<Exchange> {
        let retries = u64::from(outcome.retries());
        report.retries += retries;
        report.backoff_ms_total += outcome.backoff_ms;
        // Each failed attempt costs error-handling time, and the backoff
        // between attempts passes on the client's simulated clock.
        self.clock += retries * ERROR_COST_MS + outcome.backoff_ms;
        match outcome.result {
            Ok(exchange) => {
                if retries > 0 {
                    report.retry_successes += 1;
                    report.time_to_first_success.record(
                        retries * ERROR_COST_MS
                            + outcome.backoff_ms
                            + connect_cost
                            + exchange.latency_ms,
                    );
                }
                self.observe(&exchange, connect_cost, report);
                Some(exchange)
            }
            Err(err) => {
                if retries > 0 {
                    report.retry_failures += 1;
                }
                if matches!(
                    err,
                    NetError::ConnectionRefused { .. }
                        | NetError::Timeout { .. }
                        | NetError::HostNotFound { .. }
                ) {
                    self.drop_connection(origin);
                }
                report.errors.record(err.class());
                self.clock += ERROR_COST_MS;
                None
            }
        }
    }

    /// Close the simulated connection to `origin`, if one is open.
    fn drop_connection(&mut self, origin: u32) {
        self.connections.retain(|&(h, _)| h != origin);
    }

    /// Ids of the origins with an open simulated connection (test
    /// observability).
    pub fn open_connections(&self) -> Vec<u32> {
        self.connections.iter().map(|&(h, _)| h).collect()
    }

    /// Tally a response and advance the simulated clock by its latency.
    fn observe(&mut self, exchange: &Exchange, connect_cost: u64, report: &mut LoadReport) {
        let latency = exchange.latency_ms + connect_cost;
        report.latency.record(latency);
        report.total_latency_ms += latency;
        report.redirects_followed += exchange.redirects_followed as u64;
        if exchange.status.is_success() {
            report.status_2xx += 1;
        } else if exchange.status.is_client_error() {
            report.status_4xx += 1;
        } else if exchange.status.is_server_error() {
            report.status_5xx += 1;
        }
        self.clock += latency;
    }

    /// Evaluate a `requestStorageAccess`-style decision for every vendor
    /// policy against this page load.
    fn decide_partitioning(&mut self, top_site: u32, table: &HostTable, report: &mut LoadReport) {
        let embedded_site = if !self.visited_sites.is_empty() && self.rng.chance(P_EMBED_VISITED) {
            let i = self.rng.range_usize(0, self.visited_sites.len());
            self.visited_sites[i]
        } else {
            let i = self.rng.range_usize(0, table.universe_len());
            table.site_of(i as u32)
        };
        let has_prior_interaction = self.has_interacted_with(embedded_site, table);
        let top = table.membership(top_site);
        let embedded = table.membership(embedded_site);
        report.decisions += 1;
        for (slot, vendor) in VendorPolicy::ALL.iter().enumerate() {
            let verdict = vendor.verdict_for(top, embedded, has_prior_interaction);
            report.vendors[slot].record(verdict, self.accepts_prompts);
        }
    }

    /// Whether the client has visited `site` — or, mirroring the browser
    /// model, any member of `site`'s RWS set — first-party this session.
    fn has_interacted_with(&self, site: u32, table: &HostTable) -> bool {
        if self.visited_sites.contains(&site) {
            return true;
        }
        let Some(membership) = table.membership(site) else {
            return false;
        };
        self.visited_sites.iter().any(|&visited| {
            table
                .membership(visited)
                .is_some_and(|m| m.set == membership.set)
        })
    }

    fn note_visited(&mut self, site: u32) {
        if !self.visited_sites.contains(&site) {
            self.visited_sites.push(site);
        }
    }

    /// Pick the next host: a vanity redirect entry sometimes, otherwise a
    /// skew-toward-the-front draw over the deterministic host order (a
    /// stand-in for a popularity distribution).
    fn pick_host(&mut self, table: &HostTable) -> u32 {
        let vanity = table.vanity();
        if !vanity.is_empty() && self.rng.chance(P_VANITY) {
            let i = self.rng.range_usize(0, vanity.len());
            return vanity[i];
        }
        let n = table.universe_len();
        let u = self.rng.next_f64();
        ((u * u * n as f64) as usize).min(n - 1) as u32
    }

    /// Simulated connection management: reuse within the keep-alive
    /// window is free, everything else pays the setup cost. Returns the
    /// cost to add to the response latency.
    fn connect(&mut self, origin: u32, report: &mut LoadReport) -> u64 {
        let now = self.clock;
        if let Some(slot) = self.connections.iter_mut().find(|(h, _)| *h == origin) {
            let idle = now.saturating_sub(slot.1);
            slot.1 = now;
            if idle <= KEEPALIVE_MS {
                report.connections_reused += 1;
                return 0;
            }
            report.connections_opened += 1;
            return CONNECT_COST_MS;
        }
        if self.connections.len() >= MAX_OPEN_CONNECTIONS {
            // Evict the least recently used connection.
            let oldest = self
                .connections
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.connections.swap_remove(oldest);
        }
        self.connections.push((origin, now));
        report.connections_opened += 1;
        CONNECT_COST_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::LoadTarget;
    use rws_domain::{DomainName, SiteResolver};
    use rws_model::RwsList;
    use rws_net::{PageContent, SimulatedWeb, SiteHost};

    fn page_host(name: &str) -> SiteHost {
        let mut host = SiteHost::new(name).unwrap();
        host.add_page("/", "<html><body>page</body></html>");
        host.add_page("/about", "<html><body>about</body></html>");
        host
    }

    /// Drive one client's whole session through `fetcher`.
    fn run_session(table: &HostTable, fetcher: &Fetcher) -> LoadReport {
        let scale = LoadScale {
            clients: 1,
            mean_visits: 30,
            think_time_ms: 10,
            ramp_ms: 1,
        };
        let mut client = ClientState::new(5, 0, &scale);
        let mut report = LoadReport::new();
        while client.step(&scale, table, fetcher, &mut report) {}
        report
    }

    #[test]
    fn landing_outside_the_table_is_tallied_without_a_decision() {
        let mut web = SimulatedWeb::new();
        web.register(page_host("home.com"));
        let target = LoadTarget::from_frozen(web.freeze(), RwsList::default());
        let table = HostTable::new(&target, &SiteResolver::full());

        // Against the target's own web every served page is decided on.
        let home = run_session(&table, &target.fetcher());
        assert!(home.status_2xx > 0);
        assert!(home.decisions > 0);

        // A web where home.com's pages redirect to a host the table never
        // saw: the responses still count, the decisions are skipped.
        let mut moved = SimulatedWeb::new();
        let mut redirecting = SiteHost::new("home.com").unwrap();
        for path in ["/", "/about"] {
            redirecting.add_content(
                path,
                PageContent::Redirect {
                    location: format!("https://elsewhere.com{path}"),
                    permanent: true,
                },
            );
        }
        moved.register(redirecting);
        moved.register(page_host("elsewhere.com"));
        assert_eq!(
            table.id_of(&DomainName::parse("elsewhere.com").unwrap()),
            None
        );
        let away = run_session(&table, &Fetcher::new(moved));
        assert_eq!(away.responses() + away.error_count(), away.fetch_calls);
        assert!(away.redirects_followed > 0);
        assert!(away.status_2xx > 0);
        assert_eq!(away.decisions, 0);
        assert!(away.vendors.iter().all(|tally| tally.decisions() == 0));
    }

    #[test]
    fn client_rng_depends_only_on_seed_and_id() {
        let scale = LoadScale::smoke();
        let a = ClientState::new(7, 3, &scale);
        let b = ClientState::new(7, 3, &scale);
        assert_eq!(a.clock, b.clock);
        assert_eq!(a.visits_left, b.visits_left);
        assert_eq!(a.accepts_prompts, b.accepts_prompts);
        let c = ClientState::new(7, 4, &scale);
        let d = ClientState::new(8, 3, &scale);
        // Different id or seed, different stream (clock xor visits differ
        // with overwhelming probability; pin the concrete values so a
        // stream regression is loud).
        assert!(
            (a.clock, a.visits_left) != (c.clock, c.visits_left)
                || (a.clock, a.visits_left) != (d.clock, d.visits_left)
        );
    }

    #[test]
    fn sessions_have_at_least_one_visit() {
        let scale = LoadScale {
            clients: 1,
            mean_visits: 1,
            think_time_ms: 10,
            ramp_ms: 1,
        };
        for id in 0..64 {
            let st = ClientState::new(1, id, &scale);
            assert!(st.visits_left >= 1);
        }
    }
}
