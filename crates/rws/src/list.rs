//! The full Related Website Sets list: a collection of disjoint sets.

use crate::error::SetError;
use crate::set::{MemberRole, RwsSet};
use rws_domain::DomainName;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The Related Website Sets list — the browser-consumed artefact published
/// as `related_website_sets.JSON`.
///
/// The list maintains the invariant that no domain appears in more than one
/// set, which is what makes the browser-side lookup ("are these two sites in
/// the same set?") well-defined.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RwsList {
    sets: Vec<RwsSet>,
    /// Index from member domain to its set position and role.
    #[serde(skip)]
    index: BTreeMap<DomainName, Membership>,
}

/// Where a listed domain sits: the position of its set (in
/// [`RwsList::sets`] order) and the role it plays there. Two domains are
/// related exactly when their memberships name the same set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Membership {
    /// Position of the domain's set in the list.
    pub set: usize,
    /// The domain's role within that set.
    pub role: MemberRole,
}

impl RwsList {
    /// An empty list.
    pub fn new() -> RwsList {
        RwsList::default()
    }

    /// Build a list from sets, enforcing cross-set disjointness.
    pub fn from_sets(sets: Vec<RwsSet>) -> Result<RwsList, SetError> {
        let mut list = RwsList::new();
        for set in sets {
            list.add_set(set)?;
        }
        Ok(list)
    }

    /// Add a set, enforcing that none of its members already belong to
    /// another set.
    pub fn add_set(&mut self, set: RwsSet) -> Result<(), SetError> {
        for domain in set.domains() {
            if self.index.contains_key(&domain) {
                return Err(SetError::MemberInMultipleSets {
                    domain: domain.to_string(),
                });
            }
        }
        index_members(&mut self.index, self.sets.len(), &set);
        self.sets.push(set);
        Ok(())
    }

    /// Rebuild the domain index (used after deserialisation, where the index
    /// is skipped).
    pub fn rebuild_index(&mut self) {
        self.index.clear();
        for (idx, set) in self.sets.iter().enumerate() {
            index_members(&mut self.index, idx, set);
        }
    }

    /// Number of sets in the list.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Total number of member domains across all sets (including primaries).
    pub fn domain_count(&self) -> usize {
        self.sets.iter().map(RwsSet::size).sum()
    }

    /// Iterate over the sets.
    pub fn sets(&self) -> impl Iterator<Item = &RwsSet> {
        self.sets.iter()
    }

    /// The set containing a domain, if any.
    pub fn set_for(&self, domain: &DomainName) -> Option<&RwsSet> {
        self.index.get(domain).map(|m| &self.sets[m.set])
    }

    /// The set position and role of a domain, if it is listed: one index
    /// lookup answering both [`set_index_of`](Self::set_index_of) and
    /// [`role_of`](Self::role_of).
    pub fn membership_of(&self, domain: &DomainName) -> Option<Membership> {
        self.index.get(domain).copied()
    }

    /// The position (in [`sets`](Self::sets) order) of the set containing a
    /// domain, if any. Two domains are related exactly when both have the
    /// same `Some` index — precomputing this per domain turns the pair
    /// universe's O(members²) relatedness sweep into integer compares.
    pub fn set_index_of(&self, domain: &DomainName) -> Option<usize> {
        self.index.get(domain).map(|m| m.set)
    }

    /// The set whose primary is the given domain, if any.
    pub fn set_with_primary(&self, primary: &DomainName) -> Option<&RwsSet> {
        self.set_for(primary).filter(|set| set.primary() == primary)
    }

    /// The role a domain plays in the list, if it is a member of any set.
    pub fn role_of(&self, domain: &DomainName) -> Option<MemberRole> {
        self.index.get(domain).map(|m| m.role)
    }

    /// True if the two domains are members of the same set — the core
    /// browser-side relatedness check that gates `requestStorageAccess`
    /// auto-grants.
    pub fn are_related(&self, a: &DomainName, b: &DomainName) -> bool {
        match (self.index.get(a), self.index.get(b)) {
            (Some(ma), Some(mb)) => ma.set == mb.set,
            _ => false,
        }
    }

    /// All member domains in the list, sorted.
    pub fn all_domains(&self) -> Vec<DomainName> {
        let mut v: Vec<DomainName> = self.index.keys().cloned().collect();
        v.sort();
        v
    }

    /// All `(primary, member, role)` triples for non-primary members, in set
    /// order — the iteration Figures 3 and 4 perform ("each service or
    /// associated site compared with its set primary").
    pub fn member_primary_pairs(&self) -> Vec<(DomainName, DomainName, MemberRole)> {
        let mut out = Vec::new();
        for set in &self.sets {
            for member in set.members() {
                if member.role != MemberRole::Primary {
                    out.push((set.primary().clone(), member.domain, member.role));
                }
            }
        }
        out
    }
}

/// Index every member of `set` (at list position `idx`) with its role.
///
/// A deserialized set can list one domain under two roles; members are
/// inserted in reverse so the role [`RwsSet::role_of`] reports (primary
/// first, ccTLD last) is the one that stays.
fn index_members(index: &mut BTreeMap<DomainName, Membership>, idx: usize, set: &RwsSet) {
    for member in set.members().into_iter().rev() {
        let membership = Membership {
            set: idx,
            role: member.role,
        };
        index.insert(member.domain, membership);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn sample_list() -> RwsList {
        let mut bild = RwsSet::new("https://bild.de").unwrap();
        bild.add_associated("https://autobild.de", "IT news sister brand")
            .unwrap()
            .add_associated("https://computerbild.de", "Computer magazine")
            .unwrap();
        let mut yandex = RwsSet::new("https://ya.ru").unwrap();
        yandex
            .add_associated("https://webvisor.com", "Web analytics service")
            .unwrap()
            .add_service("https://yastatic.net", "Static asset host")
            .unwrap();
        RwsList::from_sets(vec![bild, yandex]).unwrap()
    }

    #[test]
    fn counts() {
        let list = sample_list();
        assert_eq!(list.set_count(), 2);
        assert_eq!(list.domain_count(), 6);
        assert_eq!(list.all_domains().len(), 6);
    }

    #[test]
    fn lookups() {
        let list = sample_list();
        assert_eq!(
            list.set_for(&dn("autobild.de")).unwrap().primary(),
            &dn("bild.de")
        );
        assert!(list.set_for(&dn("unknown.com")).is_none());
        assert!(list.set_with_primary(&dn("bild.de")).is_some());
        assert!(list.set_with_primary(&dn("autobild.de")).is_none());
        assert_eq!(list.role_of(&dn("yastatic.net")), Some(MemberRole::Service));
        assert_eq!(list.role_of(&dn("ya.ru")), Some(MemberRole::Primary));
        assert_eq!(list.role_of(&dn("unknown.com")), None);
        assert_eq!(
            list.membership_of(&dn("yastatic.net")),
            Some(Membership {
                set: 1,
                role: MemberRole::Service
            })
        );
        assert_eq!(list.membership_of(&dn("unknown.com")), None);
    }

    #[test]
    fn relatedness_is_same_set_membership() {
        let list = sample_list();
        assert!(list.are_related(&dn("bild.de"), &dn("autobild.de")));
        assert!(list.are_related(&dn("autobild.de"), &dn("computerbild.de")));
        assert!(!list.are_related(&dn("bild.de"), &dn("ya.ru")));
        assert!(!list.are_related(&dn("bild.de"), &dn("unknown.com")));
        assert!(!list.are_related(&dn("unknown.com"), &dn("also-unknown.com")));
    }

    #[test]
    fn cross_set_duplicates_rejected() {
        let mut a = RwsSet::new("https://a.com").unwrap();
        a.add_associated("https://shared.com", "x").unwrap();
        let mut b = RwsSet::new("https://b.com").unwrap();
        b.add_associated("https://shared.com", "y").unwrap();
        let err = RwsList::from_sets(vec![a, b]).unwrap_err();
        assert!(matches!(err, SetError::MemberInMultipleSets { .. }));
    }

    #[test]
    fn member_primary_pairs_cover_non_primaries() {
        let list = sample_list();
        let pairs = list.member_primary_pairs();
        assert_eq!(pairs.len(), 4);
        assert!(pairs.iter().any(|(p, m, r)| p == &dn("ya.ru")
            && m == &dn("yastatic.net")
            && *r == MemberRole::Service));
        assert!(pairs.iter().all(|(p, m, _)| p != m));
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let list = sample_list();
        let json = serde_json::to_string(&list).unwrap();
        let mut restored: RwsList = serde_json::from_str(&json).unwrap();
        // Before rebuilding, the skipped index is empty.
        assert!(restored.set_for(&dn("bild.de")).is_none());
        restored.rebuild_index();
        assert!(restored.are_related(&dn("bild.de"), &dn("autobild.de")));
        assert_eq!(restored.set_count(), 2);
    }

    #[test]
    fn indexed_role_of_a_domain_listed_twice_matches_the_set_scan() {
        // bild.de becomes both the primary and an associated site of its
        // set, which the builder rejects but deserialization admits.
        let json = serde_json::to_string(&sample_list())
            .unwrap()
            .replace("autobild.de", "bild.de");
        let mut list: RwsList = serde_json::from_str(&json).unwrap();
        list.rebuild_index();
        let bild = dn("bild.de");
        let scanned = list.set_for(&bild).and_then(|s| s.role_of(&bild));
        assert_eq!(scanned, Some(MemberRole::Primary));
        assert_eq!(list.role_of(&bild), scanned);
    }

    #[test]
    fn empty_list_behaviour() {
        let list = RwsList::new();
        assert_eq!(list.set_count(), 0);
        assert_eq!(list.domain_count(), 0);
        assert!(!list.are_related(&dn("a.com"), &dn("b.com")));
        assert!(list.member_primary_pairs().is_empty());
    }
}
