//! Property-based tests for the RWS list model.

use proptest::prelude::*;
use rws_domain::DomainName;
use rws_model::{list_from_json, list_to_json, MemberRole, RwsList, RwsSet, WellKnownFile};

/// Strategy for distinct bare domain names like `brandXX.com`.
fn domain_pool(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("site{i}.com")).collect()
}

/// Strategy describing a random list layout: for each set, the number of
/// associated and service members.
fn layout_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..4, 0usize..3), 1..6)
}

fn build_list(layout: &[(usize, usize)]) -> RwsList {
    let with_cctlds: Vec<(usize, usize, usize)> = layout.iter().map(|&(a, s)| (a, s, 0)).collect();
    build_list_with_cctlds(&with_cctlds)
}

/// Like [`layout_strategy`], plus a count of ccTLD variants of each
/// set's primary.
fn cctld_layout_strategy() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..4, 0usize..3, 0usize..3), 1..6)
}

fn build_list_with_cctlds(layout: &[(usize, usize, usize)]) -> RwsList {
    let mut next = 0usize;
    let pool = domain_pool(200);
    let mut take = || {
        let d = pool[next].clone();
        next += 1;
        d
    };
    let mut sets = Vec::new();
    for (assoc, service, cctlds) in layout {
        let primary = take();
        let mut set = RwsSet::new(&format!("https://{primary}")).unwrap();
        for _ in 0..*assoc {
            set.add_associated(&format!("https://{}", take()), "affiliated brand")
                .unwrap();
        }
        for _ in 0..*service {
            set.add_service(&format!("https://{}", take()), "supporting infrastructure")
                .unwrap();
        }
        // Only declare variants when there are some: an empty declaration
        // still records the base, and `build_list`'s lists declare none.
        if *cctlds > 0 {
            let stem = primary.trim_end_matches(".com");
            let variants: Vec<String> = ["de", "fr"][..*cctlds]
                .iter()
                .map(|tld| format!("https://{stem}.{tld}"))
                .collect();
            let variants: Vec<&str> = variants.iter().map(String::as_str).collect();
            set.add_cctld_variants(&format!("https://{primary}"), &variants)
                .unwrap();
        }
        sets.push(set);
    }
    RwsList::from_sets(sets).unwrap()
}

proptest! {
    /// The indexed role and membership agree with the set's own role scan
    /// for every listed domain (every role, ccTLD variants included) and
    /// are absent for an unlisted one.
    #[test]
    fn indexed_roles_match_set_scan(layout in cctld_layout_strategy()) {
        let list = build_list_with_cctlds(&layout);
        let outsider = DomainName::parse("definitely-not-in-any-set.org").unwrap();
        let mut domains = list.all_domains();
        domains.push(outsider.clone());
        for d in &domains {
            let scanned = list.set_for(d).and_then(|s| s.role_of(d));
            prop_assert_eq!(list.role_of(d), scanned);
            let membership = list.membership_of(d);
            prop_assert_eq!(membership.map(|m| m.set), list.set_index_of(d));
            prop_assert_eq!(membership.map(|m| m.role), scanned);
        }
        prop_assert_eq!(list.membership_of(&outsider), None);
        let cctlds: usize = layout.iter().map(|&(_, _, c)| c).sum();
        let listed_cctlds = list
            .all_domains()
            .iter()
            .filter(|d| list.role_of(d) == Some(MemberRole::Cctld))
            .count();
        prop_assert_eq!(listed_cctlds, cctlds);
    }

    /// Relatedness is reflexive for members, symmetric always, and never
    /// holds across different sets.
    #[test]
    fn relatedness_properties(layout in layout_strategy()) {
        let list = build_list(&layout);
        let domains = list.all_domains();
        for d in &domains {
            prop_assert!(list.are_related(d, d));
        }
        for a in &domains {
            for b in &domains {
                prop_assert_eq!(list.are_related(a, b), list.are_related(b, a));
                let same_set = list.set_for(a).unwrap().primary() == list.set_for(b).unwrap().primary();
                prop_assert_eq!(list.are_related(a, b), same_set);
            }
        }
        let outsider = DomainName::parse("definitely-not-in-any-set.org").unwrap();
        for d in &domains {
            prop_assert!(!list.are_related(d, &outsider));
        }
    }

    /// The canonical JSON round-trip preserves set count, member count,
    /// relatedness and roles.
    #[test]
    fn json_round_trip(layout in layout_strategy()) {
        let list = build_list(&layout);
        let json = list_to_json(&list);
        let back = list_from_json(&json).unwrap();
        prop_assert_eq!(back.set_count(), list.set_count());
        prop_assert_eq!(back.domain_count(), list.domain_count());
        for d in list.all_domains() {
            prop_assert_eq!(back.role_of(&d), list.role_of(&d));
        }
        // Serialising the reparsed list reproduces the same JSON.
        prop_assert_eq!(list_to_json(&back), json);
    }

    /// Every member's generated well-known file is consistent with its own
    /// set and inconsistent with any other set's primary copy.
    #[test]
    fn well_known_consistency(layout in layout_strategy()) {
        let list = build_list(&layout);
        for set in list.sets() {
            let primary_copy = WellKnownFile::for_primary(set);
            prop_assert!(primary_copy.matches_submission(set));
            for member in set.domains() {
                if &member != set.primary() {
                    let member_copy = WellKnownFile::for_member(set.primary());
                    prop_assert!(member_copy.matches_submission(set));
                    let text = member_copy.to_json_string();
                    let parsed = WellKnownFile::from_json_str(&text).unwrap();
                    prop_assert_eq!(parsed.primary(), set.primary());
                }
            }
            for other in list.sets() {
                if other.primary() != set.primary() {
                    prop_assert!(!primary_copy.matches_submission(other));
                }
            }
        }
    }

    /// member_primary_pairs returns exactly the non-primary members, each
    /// paired with its own primary.
    #[test]
    fn member_primary_pairs_consistent(layout in layout_strategy()) {
        let list = build_list(&layout);
        let pairs = list.member_primary_pairs();
        let expected: usize = list.sets().map(|s| s.size() - 1).sum();
        prop_assert_eq!(pairs.len(), expected);
        for (primary, member, role) in pairs {
            prop_assert_eq!(list.set_for(&member).unwrap().primary(), &primary);
            prop_assert_eq!(list.role_of(&member), Some(role));
            prop_assert!(list.are_related(&primary, &member));
        }
    }
}
