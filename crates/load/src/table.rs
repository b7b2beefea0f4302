//! The per-run host table: every name a client can touch, resolved once.
//!
//! A name's site, its RWS list membership and its request URLs never
//! change within a run, so [`HostTable::new`] computes them once up front
//! and hands every name a dense `u32` id. Clients then run on ids alone
//! and never touch the shared resolver memo on a visit.

use crate::target::LoadTarget;
use rws_domain::{DomainName, SiteResolver};
use rws_model::Membership;
use rws_net::{well_known_path, Url};
use std::collections::HashMap;

/// Which prebuilt URL of a name to fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Page {
    /// `https://{name}/`.
    Root,
    /// `https://{name}/about`.
    About,
    /// `https://{name}/.well-known/related-website-set.json`.
    WellKnown,
}

/// Everything a run needs to know about one name.
#[derive(Debug)]
struct HostEntry {
    /// Id of the name's site (eTLD+1, or the name itself when it has none).
    site: u32,
    /// The name's RWS list membership, if it is listed.
    membership: Option<Membership>,
    /// Whether visiting the name panics the client (supervision fixture).
    poisoned: bool,
    /// The name's URLs, indexed by [`Page`].
    urls: [Url; 3],
}

/// Dense ids for the target's names, with their resolver and list answers.
///
/// Ids `0..universe_len()` are the target's browsable hosts in
/// [`LoadTarget::hosts`] order, so a popularity draw over the universe is
/// already an id. Vanity entry hosts and every name's site follow; each
/// distinct name gets exactly one id, so a host that is its own site
/// shares one id (and one simulated connection) between both uses.
#[derive(Debug)]
pub struct HostTable {
    names: Vec<DomainName>,
    entries: Vec<HostEntry>,
    ids: HashMap<DomainName, u32>,
    universe: usize,
    vanity: Vec<u32>,
}

impl HostTable {
    /// Resolve the target's names against `resolver` and its RWS list:
    /// one resolver lookup per distinct name.
    pub fn new(target: &LoadTarget, resolver: &SiteResolver) -> HostTable {
        let mut names: Vec<DomainName> = Vec::new();
        let mut ids: HashMap<DomainName, u32> = HashMap::new();
        let mut intern = |name: &DomainName, names: &mut Vec<DomainName>| -> u32 {
            *ids.entry(name.clone()).or_insert_with(|| {
                names.push(name.clone());
                u32::try_from(names.len() - 1).expect("host table ids fit in u32")
            })
        };
        for host in target.hosts() {
            intern(host, &mut names);
        }
        assert_eq!(
            names.len(),
            target.hosts().len(),
            "universe hosts are distinct"
        );
        let vanity: Vec<u32> = target
            .vanity()
            .iter()
            .map(|host| intern(host, &mut names))
            .collect();
        // Sites are interned as they are found, so this walk reaches the
        // sites' own sites too and ends with every id's site in the table.
        let mut sites: Vec<u32> = Vec::new();
        while sites.len() < names.len() {
            let site = resolver.site_or_self(&names[sites.len()]);
            sites.push(intern(&site, &mut names));
        }
        let entries = names
            .iter()
            .zip(sites)
            .map(|(name, site)| HostEntry {
                site,
                membership: target.list().membership_of(name),
                poisoned: target.poison_hosts().contains(name),
                urls: [
                    Url::https(name, "/"),
                    Url::https(name, "/about"),
                    well_known_path(name),
                ],
            })
            .collect();
        HostTable {
            names,
            entries,
            ids,
            universe: target.hosts().len(),
            vanity,
        }
    }

    /// The id of a name, if the table holds it.
    pub fn id_of(&self, name: &DomainName) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name behind an id.
    pub(crate) fn name(&self, id: u32) -> &DomainName {
        &self.names[id as usize]
    }

    /// Number of browsable hosts: ids `0..universe_len()`.
    pub(crate) fn universe_len(&self) -> usize {
        self.universe
    }

    /// Ids of the vanity entry hosts, in [`LoadTarget::vanity`] order.
    pub(crate) fn vanity(&self) -> &[u32] {
        &self.vanity
    }

    /// The id of a name's site.
    pub(crate) fn site_of(&self, id: u32) -> u32 {
        self.entries[id as usize].site
    }

    /// A name's RWS list membership, if it is listed.
    pub(crate) fn membership(&self, id: u32) -> Option<Membership> {
        self.entries[id as usize].membership
    }

    /// Whether visiting the name panics the client.
    pub(crate) fn is_poisoned(&self, id: u32) -> bool {
        self.entries[id as usize].poisoned
    }

    /// A prebuilt URL of the name.
    pub(crate) fn page_url(&self, id: u32, page: Page) -> &Url {
        &self.entries[id as usize].urls[page as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_model::{MemberRole, RwsList, RwsSet};
    use rws_net::{SimulatedWeb, SiteHost};

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn target() -> LoadTarget {
        let mut web = SimulatedWeb::new();
        for name in ["news.com", "www.news.com", "sport-news.com", "other.org"] {
            let mut host = SiteHost::new(name).unwrap();
            host.add_page("/", "<html><body>x</body></html>");
            web.register(host);
        }
        let mut set = RwsSet::new("https://news.com").unwrap();
        set.add_associated("https://sport-news.com", "sister brand")
            .unwrap();
        let list = RwsList::from_sets(vec![set]).unwrap();
        LoadTarget::from_frozen(web.freeze(), list).with_poison_hosts(vec![dn("other.org")])
    }

    #[test]
    fn ids_follow_the_universe_then_vanity_then_sites() {
        let target = target();
        let resolver = SiteResolver::full();
        let table = HostTable::new(&target, &resolver);
        assert_eq!(table.universe_len(), target.hosts().len());
        for (i, host) in target.hosts().iter().enumerate() {
            assert_eq!(table.id_of(host), Some(i as u32));
            assert_eq!(table.name(i as u32), host);
        }
        for (&id, host) in table.vanity().iter().zip(target.vanity()) {
            assert_eq!(table.name(id), host);
        }
        // Every id's site is itself in the table, and is what the resolver
        // says.
        for id in 0..table.names.len() as u32 {
            let site = table.site_of(id);
            assert_eq!(table.name(site), &resolver.site_or_self(table.name(id)));
        }
        // A host that is its own site shares its id.
        let news = table.id_of(&dn("news.com")).unwrap();
        assert_eq!(table.site_of(news), news);
        let www = table.id_of(&dn("www.news.com")).unwrap();
        assert_eq!(table.site_of(www), news);
        assert_eq!(table.id_of(&dn("elsewhere.net")), None);
    }

    #[test]
    fn entries_carry_membership_poison_and_urls() {
        let target = target();
        let table = HostTable::new(&target, &SiteResolver::full());
        let sport = table.id_of(&dn("sport-news.com")).unwrap();
        assert_eq!(
            table.membership(sport),
            target.list().membership_of(&dn("sport-news.com"))
        );
        assert_eq!(
            table.membership(sport).unwrap().role,
            MemberRole::Associated
        );
        let www = table.id_of(&dn("www.news.com")).unwrap();
        assert_eq!(table.membership(www), None);
        let other = table.id_of(&dn("other.org")).unwrap();
        assert!(table.is_poisoned(other));
        assert!(!table.is_poisoned(sport));
        assert_eq!(
            table.page_url(www, Page::Root),
            &Url::https(&dn("www.news.com"), "/")
        );
        assert_eq!(
            table.page_url(www, Page::About),
            &Url::https(&dn("www.news.com"), "/about")
        );
        assert_eq!(
            table.page_url(sport, Page::WellKnown),
            &well_known_path(&dn("sport-news.com"))
        );
    }
}
