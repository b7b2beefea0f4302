//! What a load run fetches: a frozen snapshot plus redirect entry hosts.

use rws_corpus::Corpus;
use rws_domain::DomainName;
use rws_model::RwsList;
use rws_net::{
    FaultInjector, FaultPlan, FetchPolicy, Fetcher, FrozenWeb, PageContent, RetryPolicy,
    ShardedFrozenWeb, SimulatedWeb, SiteHost,
};

/// Number of vanity entry hosts registered per target (bounded by the
/// host-universe size).
const VANITY_HOSTS: usize = 48;

/// The immutable world a load run hammers.
///
/// Built once from a corpus (or any frozen snapshot + RWS list): the
/// browsable host universe in deterministic order, plus a set of *vanity
/// entry hosts* (`go0.load-entry.example`, ...) that 301/302-redirect to
/// real hosts — the corpus itself registers no redirects, and the load mix
/// needs them to exercise the fetcher's redirect following under load.
/// Registering them lands in an overlay over the corpus snapshot which is
/// then re-frozen, so the run reads a single lock-free [`FrozenWeb`].
#[derive(Debug, Clone)]
pub struct LoadTarget {
    frozen: FrozenWeb,
    /// When built from a sharded store, the sharded view of the same
    /// snapshot (universe + vanity hosts, identical contents to `frozen`).
    /// Fetchers read through it, so every request routes shard-then-host —
    /// the cross-shard-read path the bench trajectory times against the
    /// single-table baseline.
    sharded: Option<ShardedFrozenWeb>,
    list: RwsList,
    hosts: Vec<DomainName>,
    vanity: Vec<DomainName>,
    /// Transient-fault weather for the run (none by default).
    faults: Option<FaultPlan>,
    /// Client retry posture (no retries by default).
    retry: RetryPolicy,
    /// Hosts whose mere selection panics the visiting client's chunk —
    /// deterministic "poisoned work item" injection for supervision tests
    /// (empty by default; production targets never set this).
    poison: Vec<DomainName>,
}

impl LoadTarget {
    /// Target the frozen web and RWS list of a generated corpus.
    pub fn from_corpus(corpus: &Corpus) -> LoadTarget {
        LoadTarget::from_frozen(corpus.frozen.clone(), corpus.list.clone())
    }

    /// Target the *sharded* store of a generated corpus: identical
    /// contents to [`from_corpus`](LoadTarget::from_corpus), but fetchers
    /// resolve every request shard-then-host.
    pub fn from_corpus_sharded(corpus: &Corpus) -> LoadTarget {
        LoadTarget::from_sharded(corpus.sharded.clone(), corpus.list.clone())
    }

    /// Target an arbitrary frozen snapshot and list.
    pub fn from_frozen(frozen: FrozenWeb, list: RwsList) -> LoadTarget {
        let hosts = frozen.hosts();
        let mut web = SimulatedWeb::from_frozen(frozen);
        let vanity = register_vanity_hosts(&mut web, &hosts);
        LoadTarget {
            frozen: web.freeze(),
            sharded: None,
            list,
            hosts,
            vanity,
            faults: None,
            retry: RetryPolicy::none(),
            poison: Vec::new(),
        }
    }

    /// Target an arbitrary sharded snapshot and list. Vanity entry hosts
    /// land in an overlay that is re-frozen *sharded*, preserving the
    /// store's shard count, so the whole universe (redirects included)
    /// reads through shard routing.
    pub fn from_sharded(sharded: ShardedFrozenWeb, list: RwsList) -> LoadTarget {
        let hosts = sharded.hosts();
        let shard_count = sharded.shard_count();
        let mut web = SimulatedWeb::from_sharded(sharded);
        let vanity = register_vanity_hosts(&mut web, &hosts);
        let resharded = web.freeze_sharded(shard_count);
        LoadTarget {
            frozen: resharded.collapse(),
            sharded: Some(resharded),
            list,
            hosts,
            vanity,
            faults: None,
            retry: RetryPolicy::none(),
            poison: Vec::new(),
        }
    }

    /// Inject deterministic transient faults into every fetch the run
    /// makes. The plan is pure `(seed, host, ordinal)` state, so pooled and
    /// sequential replays see identical weather.
    pub fn with_faults(mut self, plan: FaultPlan) -> LoadTarget {
        self.faults = Some(plan);
        self
    }

    /// Give the run's clients a retry posture (default: no retries).
    pub fn with_retry(mut self, retry: RetryPolicy) -> LoadTarget {
        self.retry = retry;
        self
    }

    /// Mark hosts as poisoned: any client that picks one to visit panics
    /// on the spot with a `"poisoned work item"` message. This is the
    /// deterministic crash fixture the supervision tests drive salvage
    /// mode with — selection is a pure function of `(seed, client)`, so
    /// pooled and sequential replays quarantine identical chunks.
    pub fn with_poison_hosts(mut self, hosts: Vec<DomainName>) -> LoadTarget {
        self.poison = hosts;
        self
    }

    /// The poisoned hosts, if any.
    pub fn poison_hosts(&self) -> &[DomainName] {
        &self.poison
    }

    /// The fault plan in force, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults
    }

    /// The retry policy clients run with.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The browsable host universe (excludes vanity entry hosts), in
    /// deterministic sorted order.
    pub fn hosts(&self) -> &[DomainName] {
        &self.hosts
    }

    /// The redirect-only entry hosts.
    pub fn vanity(&self) -> &[DomainName] {
        &self.vanity
    }

    /// The frozen snapshot the run serves from (universe + vanity hosts),
    /// as a single table. For sharded targets this is the collapsed view;
    /// fetchers still read through the shards.
    pub fn frozen(&self) -> &FrozenWeb {
        &self.frozen
    }

    /// The sharded store fetchers read through, when this target was
    /// built from one.
    pub fn sharded(&self) -> Option<&ShardedFrozenWeb> {
        self.sharded.as_ref()
    }

    /// The store's shard count, when sharded.
    pub fn shard_count(&self) -> Option<usize> {
        self.sharded.as_ref().map(ShardedFrozenWeb::shard_count)
    }

    /// The RWS list partitioning decisions consult.
    pub fn list(&self) -> &RwsList {
        &self.list
    }

    /// A fresh fetcher over this target: default policy, unlogged (sharded
    /// atomic request accounting), its own counter family — so each run's
    /// `wire_requests` starts at zero. Its web is built here over the
    /// target's snapshot and never written, so every read goes straight to
    /// the snapshot without taking the web's lock.
    pub fn fetcher(&self) -> Fetcher {
        let web = match &self.sharded {
            Some(sharded) => SimulatedWeb::from_sharded(sharded.clone()),
            None => SimulatedWeb::from_frozen(self.frozen.clone()),
        };
        let mut fetcher = Fetcher::with_policy(web, FetchPolicy::default());
        fetcher.set_retry(self.retry);
        if let Some(plan) = self.faults {
            fetcher.set_fault_injector(Some(FaultInjector::new(plan)));
        }
        fetcher
    }
}

/// Register the deterministic vanity entry hosts over `web` and return
/// their domains. The spread over the universe (stride 37, coprime to
/// most small sizes) is shared between single-table and sharded targets,
/// so both build byte-identical redirect pages.
fn register_vanity_hosts(web: &mut SimulatedWeb, hosts: &[DomainName]) -> Vec<DomainName> {
    let vanity_count = if hosts.is_empty() {
        0
    } else {
        VANITY_HOSTS.min(hosts.len())
    };
    let mut vanity = Vec::with_capacity(vanity_count);
    for i in 0..vanity_count {
        let destination = &hosts[(i * 37) % hosts.len()];
        let name = format!("go{i}.load-entry.example");
        let domain = DomainName::parse(&name).expect("vanity host name is valid");
        let mut host = SiteHost::for_domain(domain.clone());
        host.add_content(
            "/",
            PageContent::Redirect {
                location: format!("https://{destination}/"),
                permanent: i % 2 == 0,
            },
        );
        web.register(host);
        vanity.push(domain);
    }
    vanity
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_net::Url;

    fn tiny_target() -> LoadTarget {
        let mut web = SimulatedWeb::new();
        for name in ["alpha.com", "beta.com", "gamma.com"] {
            let mut host = SiteHost::new(name).unwrap();
            host.add_page("/", "<html><body>hello</body></html>");
            web.register(host);
        }
        LoadTarget::from_frozen(web.freeze(), RwsList::default())
    }

    #[test]
    fn vanity_hosts_redirect_into_the_universe() {
        let target = tiny_target();
        assert_eq!(target.hosts().len(), 3);
        assert_eq!(target.vanity().len(), 3);
        let fetcher = target.fetcher();
        for v in target.vanity() {
            let resp = fetcher.get(&Url::https(v, "/")).unwrap();
            assert!(resp.status.is_success());
            assert_eq!(resp.redirects_followed, 1);
            assert!(target.hosts().contains(&resp.url.host));
        }
    }

    #[test]
    fn universe_excludes_vanity_hosts() {
        let target = tiny_target();
        for v in target.vanity() {
            assert!(!target.hosts().contains(v));
            assert!(target.frozen().has_host(v));
        }
    }
}
